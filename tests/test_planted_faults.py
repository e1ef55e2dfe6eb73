"""Planted faults: which check catches a fault planted in the engine or its data.

Each case plants one fault and runs the CLI commands in-process through
``cli.main``: ``center rank``, ``center verify-induced`` at every label and
``adjoint check``.  The outcomes are pinned, including the known gaps, so
that a change to what a check catches shows here.  The code faults live only
in the memoized built-in specs, which are cleared before and after each case.
The data faults live in a saved catalog file.
"""

import json
import re

import pytest

from genuscenter import catalog, center
from genuscenter.cli import main

# One gamma crossing constant flipped to "over", at the three n = 2 gluings.
# Each value is what ``center rank`` does: the certificate part that ends it
# with exit 1, or the rank it prints with exit 0, which is never the right
# one.  ``adjoint check`` passes on every one.
PLANTED = {
    ("GAMMA_LEFT", "fibonacci"): {"(1 2)(3 4)": 1, "(1 3)(2 4)": "c", "(1 4)(2 3)": 1},
    ("GAMMA_LEFT", "ising"): {"(1 2)(3 4)": "c", "(1 3)(2 4)": "b", "(1 4)(2 3)": "b"},
    ("GAMMA_LEFT", "semion"): {"(1 2)(3 4)": 5, "(1 3)(2 4)": "c", "(1 4)(2 3)": 2},
    ("GAMMA_LEFT", "vec_z3_q"): {"(1 2)(3 4)": 11, "(1 3)(2 4)": "c", "(1 4)(2 3)": "c"},
    ("GAMMA_RIGHT", "fibonacci"): {"(1 2)(3 4)": "d", "(1 3)(2 4)": 8, "(1 4)(2 3)": 1},
    ("GAMMA_RIGHT", "ising"): {"(1 2)(3 4)": "d", "(1 3)(2 4)": 27, "(1 4)(2 3)": "b"},
    ("GAMMA_RIGHT", "semion"): {"(1 2)(3 4)": 5, "(1 3)(2 4)": 8, "(1 4)(2 3)": 2},
    ("GAMMA_RIGHT", "vec_z3_q"): {"(1 2)(3 4)": 11, "(1 3)(2 4)": 27, "(1 4)(2 3)": "c"},
}
# The unplanted ranks: the sphere with three punctures, then the torus with one.
TRUE_RANKS = {"fibonacci": (8, 2), "ising": (27, 3), "semion": (8, 2), "vec_z3_q": (27, 3)}
# A known gap: here ``verify-induced`` passes at every label and ``center rank``
# prints a wrong rank with exit 0.  Nothing on the rank path checks the
# sigma-pairs the tube is built from.
UNDETECTED = {("semion", "(1 2)(3 4)"), ("vec_z3_q", "(1 2)(3 4)")}
PLANTED_CASES = [(const, key, sigma) for (const, key), row in PLANTED.items() for sigma in row]


def main_outcome(capsys, *argv):
    """(exit code, stdout, stderr) of cli.main; any exception that leaves it fails the test."""
    try:
        code = main(list(argv))
    except Exception as exc:  # main ends a GenusCenterError itself, with exit 1
        pytest.fail(f"{type(exc).__name__} escaped cli.main on {argv}: {exc}")
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("const,key,sigma", PLANTED_CASES,
                         ids=[f"{c}-{k}-{s}" for c, k, s in PLANTED_CASES])
def test_a_planted_crossing_fault_ends_in_a_pinned_outcome(capsys, monkeypatch, const, key, sigma):
    catalog.builtin.cache_clear()
    monkeypatch.setattr(center, const, "over")
    try:
        code, out, err = main_outcome(capsys, "center", "rank", "--cat", key, "--sigma", sigma,
                                      "--json")
        verdicts = {main_outcome(capsys, "center", "verify-induced", "--cat", key, "--sigma",
                                 sigma, "--object", lab)[0]
                    for lab in catalog.builtin(key).labels}
        adjoint = main_outcome(capsys, "adjoint", "check", "--cat", key, "--sigma", sigma)[0]
    finally:
        catalog.builtin.cache_clear()
    want = PLANTED[const, key][sigma]
    if isinstance(want, int):
        rank = json.loads(out)["rank"]
        assert (code, rank) == (0, want)
        assert rank != TRUE_RANKS[key][sigma == "(1 3)(2 4)"]
    else:
        assert code == 1 and out == ""
        assert re.search(rf"^error: no certificate .*; last, p = \d+: \({want}\) ", err), err
    assert verdicts == ({0} if (key, sigma) in UNDETECTED else {1})
    assert adjoint == 0


def scale(value, s):
    """Scale a saved scalar by the integer s."""
    value["terms"] = [[e, s * num, den] for e, num, den in value["terms"]]


# One entry of Fibonacci's saved file changed, and the one axiom check that
# ``validate`` fails for it.  These checks are the precondition of the proofs
# by which ``center.verify_sigma_pair`` derives most of its checks.
DATA_FAULTS = {
    "F-entry-doubled": (lambda doc: scale(next(r for r in doc["F"] if r["labels"] == ["t"] * 4)
                                          ["value"], 2), "pentagon"),
    "R-entry-negated": (lambda doc: scale(next(r for r in doc["R"] if r["labels"] == ["t", "t", "1"])
                                          ["value"], -1), "hexagon"),
    "pivotal-t-negated": (lambda doc: scale(doc["pivotal"]["t"], -1), "spherical_ribbon"),
}


@pytest.mark.parametrize("fault", DATA_FAULTS)
def test_a_planted_data_fault_fails_its_axiom_check_and_every_command(capsys, tmp_path, fault):
    plant, check = DATA_FAULTS[fault]
    path = tmp_path / "fibonacci.json"
    catalog.save_spec(catalog.builtin("fibonacci"), path)
    doc = json.loads(path.read_text())
    plant(doc)
    path.write_text(json.dumps(doc))
    code, out, _err = main_outcome(capsys, "validate", "--cat", str(path), "--json")
    report = json.loads(out)
    assert code == 1 and [k for k, v in report.items() if k != "catalog" and v != "ok"] == [check]
    for command in (("center", "rank"), ("center", "verify-induced", "--object", "t"),
                    ("adjoint", "check")):
        code, out, err = main_outcome(capsys, *command, "--cat", str(path), "--sigma", "(1 3)(2 4)")
        assert (code, out) == (1, "") and f"fails the {check} check" in err, (fault, command)
