import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from genuscenter import catalog, center, fusion
from genuscenter.cli import main
from genuscenter.exactnum import Cyclotomic
from genuscenter.gluing import MAX_ENUM_RANK, parse_cycles


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGluingCommands:
    def test_classify_punctured_torus(self, capsys):
        code, out = run(capsys, "gluing", "classify", "--sigma", "(1 3)(2 4)")
        assert code == 0
        assert "genus: 1" in out and "punctures: 1" in out

    @pytest.mark.parametrize("sigma", ("()", ""))
    def test_classify_the_disk(self, capsys, sigma):
        # n = 0: no orbit, one puncture, and Euler characteristic 1 - n = 1.
        code, out = run(capsys, "gluing", "classify", "--sigma", sigma, "--json")
        assert code == 0
        assert json.loads(out) == {"sigma": "()", "orbits": [], "comm_cases": [],
                                   "surface": {"genus": 0, "punctures": 1, "euler": 1}}

    def test_enum_counts(self, capsys):
        code, out = run(capsys, "gluing", "enum", "--n", "2")
        assert code == 0
        assert "count: 3" in out

    def test_enum_negative_rank_errors(self, capsys):
        code = main(["gluing", "enum", "--n", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err and "count" not in captured.out

    @pytest.mark.parametrize("n", (MAX_ENUM_RANK + 1, 10**9))
    def test_enum_above_the_rank_bound_errors(self, capsys, n):
        # Refused before any gluing or leg tuple is allocated.
        code = main(["gluing", "enum", "--n", str(n)])
        captured = capsys.readouterr()
        assert code == 1
        assert f"error: rank {n} has ({2 * n - 1})!! gluings" in captured.err
        assert "count" not in captured.out

    def test_bad_sigma_is_usage_failure(self, capsys):
        code = main(["gluing", "classify", "--sigma", "(1 2)(2 3)"])
        assert code == 1

    def test_json_deterministic(self, capsys):
        _, out1 = run(capsys, "gluing", "enum", "--n", "3", "--json")
        _, out2 = run(capsys, "gluing", "enum", "--n", "3", "--json")
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["count"] == 15


class TestValidate:
    def test_validate_ok(self, capsys):
        code, out = run(capsys, "validate", "--cat", "semion")
        assert code == 0
        assert "pentagon: ok" in out

    def test_validate_file(self, capsys, tmp_path):
        path = tmp_path / "fib.json"
        catalog.save_spec(catalog.builtin("fibonacci"), path)
        code, out = run(capsys, "validate", "--cat", str(path))
        assert code == 0

    def test_catalog_dir_env(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "mycat.json"
        catalog.save_spec(catalog.builtin("rep_z2"), path)
        monkeypatch.setenv("GENUSCENTER_CATALOG_DIR", str(tmp_path))
        code, _ = run(capsys, "validate", "--cat", "mycat.json")
        assert code == 0

    def test_catalog_dir_env_adds_the_json_suffix(self, capsys, tmp_path, monkeypatch):
        catalog.save_spec(catalog.builtin("rep_z2"), tmp_path / "mycat.json")
        monkeypatch.setenv("GENUSCENTER_CATALOG_DIR", os.pathsep.join(["missing", str(tmp_path)]))
        code, out = run(capsys, "validate", "--cat", "mycat", "--json")
        assert code == 0 and json.loads(out)["catalog"] == "rep_z2"

    def test_unknown_catalog_errors(self, capsys):
        code = main(["validate", "--cat", "missing"])
        assert code == 1


class TestCenterCommands:
    def test_rank_matches_library(self, capsys):
        code, out = run(
            capsys, "center", "rank", "--cat", "vec_z2", "--sigma", "(1 2)", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        spec = catalog.builtin("vec_z2")
        rank, dims = center.center_rank(spec, parse_cycles("(1 2)"))
        assert doc["rank"] == rank and doc["block_dims"] == dims
        assert doc["surface"] == {"g": 0, "k": 2}
        assert "runtime" not in doc

    def test_rank_deterministic_bytes(self, capsys):
        _, out1 = run(capsys, "center", "rank", "--cat", "rep_z2", "--sigma", "(1 2)", "--json")
        _, out2 = run(capsys, "center", "rank", "--cat", "rep_z2", "--sigma", "(1 2)", "--json")
        assert out1 == out2

    def test_ising_genus_two_one_puncture(self, capsys):
        """Ising at sigma_{2,1}: three blocks of size 16, as the Verlinde formula says.

        For modular C the simples of the one-punctured surface of genus g are the
        labels a, and m_a = sum_j dim V(S_{g,2}; a, j*), with
        dim V(S_{g,m}; b) = sum_x S_0x^(2-2g-m) prod_i S_(b_i x).  At g = 2 the
        power is -4.  For x = 1, s, f: S_0x = 1/2, sqrt2/2, 1/2, so S_0x^-4 = 16, 4,
        16, and sum_j S_jx = 1 + sqrt2/2, 0, 1 - sqrt2/2.  So
        m_a = 16 S_a1 (1 + sqrt2/2) + 16 S_af (1 - sqrt2/2): with S_a1 = S_af = 1/2
        for a = 1, f it is 8 (2) = 16, and with S_s1 = -S_sf = sqrt2/2 it is
        8 sqrt2 (sqrt2) = 16.  And 3 x 16^2 = 768 is the dimension of the tube.
        """
        code, out = run(
            capsys, "center", "rank", "--cat", "ising", "--sigma", "(1 3)(2 4)(5 7)(6 8)", "--json"
        )
        doc = json.loads(out)
        assert code == 0 and doc["surface"] == {"g": 2, "k": 1}
        assert doc["rank"] == 3 and doc["block_dims"] == [16, 16, 16] and doc["total_dim"] == 768

    @pytest.mark.parametrize("key", ("fibonacci", "ising", "rep_s3"))
    def test_rank_of_the_disk_is_the_number_of_labels(self, capsys, key):
        # The disk's centre is C itself: one block of size 1 per simple label.
        code, out = run(capsys, "center", "rank", "--cat", key, "--sigma", "()", "--json")
        n = len(catalog.builtin(key).labels)
        assert code == 0
        assert json.loads(out) == {"catalog": key, "sigma": "()", "surface": {"g": 0, "k": 1},
                                   "rank": n, "block_dims": [1] * n, "total_dim": n}

    def test_timings_option_is_gone(self, capsys):
        code = main(["center", "rank", "--cat", "fibonacci", "--sigma", "(1 2)", "--timings"])
        assert code == 2 and capsys.readouterr().out == ""

    def test_verify_induced(self, capsys):
        code, out = run(
            capsys,
            "center", "verify-induced",
            "--cat", "vec_z3_q", "--sigma", "(1 2)", "--object", "1",
        )
        assert code == 0
        assert "verify: ok" in out

    def test_verify_unknown_object(self, capsys):
        code = main(
            ["center", "verify-induced", "--cat", "vec_z2", "--sigma", "(1 2)",
             "--object", "zz"]
        )
        assert code == 1


class TestAdjointAndCatalog:
    def test_adjoint_check(self, capsys):
        code, out = run(capsys, "adjoint", "check", "--cat", "vec_z2", "--sigma", "(1 2)")
        assert code == 0
        assert "GF=1: True" in out

    def test_adjoint_check_three_orbits(self, capsys):
        code, out = run(
            capsys, "adjoint", "check", "--cat", "rep_z2", "--sigma", "(1 2)(3 4)(5 6)", "--json"
        )
        assert code == 0
        checks = json.loads(out)["checks"]
        assert len(checks) == 4
        assert all(c["GF=1"] and c["FGF=F"] for c in checks)

    def test_catalog_list(self, capsys):
        code, out = run(capsys, "catalog", "list")
        assert code == 0
        for key in catalog.catalog_keys():
            assert key in out


RANK = ["center", "rank", "--cat", "vec_z2", "--sigma", "(1 2)", "--json"]

USAGE_ERRORS = {
    "missing-flag": ["center", "rank", "--cat", "vec_z2"],
    "unknown-command": ["frobnicate"],
    "half-command": ["center", "--cat", "vec_z2"],
    "no-command": [],
    "repeated-flag": [*RANK, "--cat", "ising"],
    "repeated-switch": [*RANK, "--json"],
    "unknown-flag": [*RANK, "--seed", "1"],
    "flag-of-another-command": [*RANK, "--object", "1"],
    "abbreviated-flag": ["center", "rank", "--ca", "vec_z2", "--sigma", "(1 2)"],
    "single-dash-flag": ["center", "rank", "-cat", "vec_z2", "--sigma", "(1 2)"],
    "stray-word": [*RANK, "extra"],
    "flag-without-value": ["center", "rank", "--sigma", "(1 2)", "--cat"],
    "flag-followed-by-flag": ["center", "rank", "--cat", "--json", "--sigma", "(1 2)"],
    "switch-with-value": [*RANK[:-1], "--json=1"],
    "non-integer-n": ["gluing", "enum", "--n", "two"],
    "float-n": ["gluing", "enum", "--n=2.0"],
}


class TestGrammar:
    @pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
    def test_usage_error_exit_code(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: genuscenter")
        assert captured.err.splitlines()[-1].startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["center", "rank", "--sigma", "(1 2)", "--json", "--cat", "vec_z2"],
            ["center", "rank", "--json", "--cat=vec_z2", "--sigma=(1 2)"],
            ["center", "rank", "--cat", "vec_z2", "--sigma=(1 2)", "--json"],
        ],
        ids=["any-order", "equals-form", "mixed-forms"],
    )
    def test_flag_forms_give_the_same_bytes(self, capsys, argv):
        assert run(capsys, *argv) == run(capsys, *RANK)

    def test_equals_form_keeps_a_negative_rank(self, capsys):
        assert main(["gluing", "enum", "--n=-1"]) == 1
        assert "error: rank must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["center", "rank", "--help"]])
    def test_help_lists_every_command(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == 0 and out.startswith("usage: genuscenter")
        lines = out.splitlines()
        for words in ("validate", "gluing enum", "gluing classify", "center rank",
                      "center verify-induced", "adjoint check", "catalog list"):
            assert sum(line.startswith(f"  {words} ") for line in lines) == 1, words


def saved_doc(tmp_path, key):
    path = tmp_path / f"{key}.json"
    catalog.save_spec(catalog.builtin(key), path)
    return path, json.loads(path.read_text())


def set_mult_ttt(doc, n):
    next(rec for rec in doc["fusion"] if rec[:3] == ["t", "t", "t"])[3] = n


def two_field_orders(doc):
    # Every scalar rational but the two pivotal ones, of orders 997 and 991:
    # each order is allowed, their lcm 988,027 is not.
    for rec in doc["F"] + doc["R"]:
        rec["value"] = {"order": 1, "terms": [[0, 1, 1]]}
    doc["pivotal"] = {
        "1": {"order": 997, "terms": [[0, 1, 1]]},
        "t": {"order": 991, "terms": [[0, 1, 1]]},
    }


def one(terms):
    return {"order": 1, "terms": terms}


def out_of_range(table, labels):
    return f"{table} entry {labels} has a multiplicity index out of range"


# (id, catalog, corruption of its saved file, the structure entries validate
# lists for it).
STRUCTURE_FAULTS = [
    ("duplicate-labels", "fibonacci", lambda doc: doc.update(labels=["1", "t", "t"]),
     ["duplicate labels"]),
    ("unknown-unit", "fibonacci", lambda doc: doc.update(unit="u"), ["unknown unit label 'u'"]),
    ("dual-unknown-label", "fibonacci", lambda doc: doc["dual"].update(x="x"),
     ["dual table references unknown label in 'x' -> 'x'"]),
    ("dual-missing", "fibonacci", lambda doc: doc["dual"].pop("t"),
     ["dual missing for label 't'", "dual rule fails: N(t,t;1) = 1"]),
    ("negative-multiplicity", "fibonacci", lambda doc: set_mult_ttt(doc, -1),
     ["negative multiplicity N(t,t;t)", out_of_range("F", "(t,t,t;1)"),
      out_of_range("F", "(t,t,t;t)"), out_of_range("R", "(t,t;t)")]),
    ("fusion-unknown-label", "fibonacci", lambda doc: doc["fusion"].append(["t", "t", "x", 1]),
     ["fusion table references unknown label 'x'"]),
    ("fusion-not-associative", "fibonacci", lambda doc: doc["fusion"].append(["1", "t", "1", 1]),
     ["dual rule fails: N(1,t;1) = 1", "unit rule fails: N(1,t;1) = 1",
      *(f"fusion not associative at {at}" for at in
        ("(1,1,t;1): 1 != 2", "(1,t,t;t): 2 != 1", "(t,1,t;t): 1 != 2", "(t,t,t;1): 2 != 1"))]),
    ("pivotal-unit-not-1", "fibonacci",
     lambda doc: doc["pivotal"].update({"1": one([[0, -1, 1]])}),
     ["pivotal coefficient of the unit must be 1"]),
    ("pivotal-unknown-label", "fibonacci", lambda doc: doc["pivotal"].update(x=one([[0, 1, 1]])),
     ["pivotal table references unknown label 'x'"]),
    ("F-unknown-label", "fibonacci",
     lambda doc: doc["F"].append({**doc["F"][1], "labels": ["x", "t", "t", "t"]}),
     ["F table references unknown label 'x'"]),
    ("R-unknown-label", "fibonacci",
     lambda doc: doc["R"].append({**doc["R"][1], "labels": ["t", "t", "x"]}),
     ["R table references unknown label 'x'"]),
    ("F-index-out-of-range", "fibonacci", lambda doc: doc["F"][1]["row"].__setitem__(1, 1),
     [out_of_range("F", "(t,t,t;t)")]),
    ("F-entry-missing", "fibonacci",
     lambda doc: doc.update(F=[rec for rec in doc["F"] if rec["labels"] != ["t", "t", "t", "1"]]),
     ["fibonacci: missing F entry for admissible channel (t,t,t;1)"]),
    # Each unit and dual message names the unit, and N(u,u;b) is listed once.
    ("unit-t", "fibonacci", lambda doc: doc.update(unit="t"),
     ["unit rule fails: N(t,1;1) = 0", "unit rule fails: N(1,t;1) = 0",
      "dual rule fails: N(1,1;t) = 0", "unit rule fails: N(t,1;t) = 1",
      "unit rule fails: N(1,t;t) = 1", "dual rule fails: N(1,t;t) = 1",
      "unit rule fails: N(t,t;1) = 1", "dual rule fails: N(t,1;t) = 1"]),
    ("vec_z3_q-unit-rule", "vec_z3_q", lambda doc: doc["fusion"].append(["0", "1", "2", 1]),
     ["unit rule fails: N(0,1;2) = 1",
      *(f"fusion not associative at {at}" for at in
        ("(0,0,1;2): 1 != 2", "(0,1,1;0): 1 != 0", "(0,1,2;1): 1 != 0", "(0,2,2;2): 0 != 1",
         "(1,0,1;0): 0 != 1", "(1,2,1;2): 1 != 0", "(2,0,1;1): 0 != 1", "(2,1,1;2): 1 != 0"))]),
]


COMPUTE_COMMANDS = (
    ("center", "rank", "--sigma", "(1 2)"),
    ("center", "verify-induced", "--sigma", "(1 2)", "--object", "t"),
    ("adjoint", "check", "--sigma", "(1 2)"),
)


class TestCatalogFiles:
    @pytest.mark.parametrize("command", COMPUTE_COMMANDS, ids=lambda c: c[1])
    def test_invalid_file_is_refused_before_computing(self, capsys, tmp_path, command):
        path, doc = saved_doc(tmp_path, "fibonacci")
        doc["R"][0]["value"] = {"order": 5, "terms": [[1, 7, 1]]}  # R = 7 zeta_5
        path.write_text(json.dumps(doc))
        assert main(["validate", "--cat", str(path)]) == 1
        capsys.readouterr()
        code = main([*command[:2], "--cat", str(path), *command[2:]])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "error:" in captured.err and "hexagon" in captured.err

    def test_negated_f_entry_fails_the_pentagon(self, capsys, tmp_path):
        path, doc = saved_doc(tmp_path, "fibonacci")
        rec = next(r for r in doc["F"] if r["labels"] == ["t"] * 4 and r["row"] == ["1", 0, 0]
                   and r["col"] == ["t", 0, 0])
        rec["value"]["terms"] = [[e, -num, den] for e, num, den in rec["value"]["terms"]]
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "validate", "--cat", str(path), "--json")
        assert code == 1
        assert out == (
            '{\n "catalog": "fibonacci",\n "pentagon": [\n'
            '  "pentagon fails at (t,t,t,t;1)",\n  "pentagon fails at (t,t,t,t;t)"\n'
            ' ],\n "structure": "ok"\n}\n'
        )

    def test_valid_file_still_computes(self, capsys, tmp_path):
        path, _ = saved_doc(tmp_path, "fibonacci")
        code, out = run(capsys, "center", "rank", "--cat", str(path), "--sigma", "(1 2)", "--json")
        assert code == 0 and json.loads(out)["rank"] == 4

    @pytest.mark.parametrize("command", [("validate",), ("center", "rank", "--sigma", "(1 2)")])
    def test_directory_is_an_error_line(self, capsys, tmp_path, command):
        code = main([*command[:2], "--cat", str(tmp_path), *command[2:]])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "field,corrupt",
        [
            ("R", lambda doc: doc.update(R=None)),
            ("F", lambda doc: doc["F"][0]["value"].update(terms=[[1, 7]])),
            ("name", lambda doc: doc.update(name=5)),
            ("R", lambda doc: doc["R"][0].update(row=5)),
            ("pivotal", lambda doc: doc["pivotal"].update(t={"order": 1, "terms": []})),
            ("F[", lambda doc: doc["F"][0]["value"].update(terms=[[0, 1, 0]])),
            ("F[", lambda doc: doc["F"][0]["value"].update(order=100000)),
            ("pivotal[t]", two_field_orders),
            ("fusion", lambda doc: set_mult_ttt(doc, 1.7)),
            ("fusion", lambda doc: set_mult_ttt(doc, "1")),
            ("fusion", lambda doc: set_mult_ttt(doc, True)),
            ("F", lambda doc: doc["F"][0]["row"].__setitem__(1, 0.9)),
            ("F[", lambda doc: doc["F"][0]["value"]["terms"][0].__setitem__(1, True)),
            ("F[", lambda doc: doc["F"][0]["value"].update(order=True)),
            ("unit", lambda doc: doc.update(unit=[])),
            ("dual", lambda doc: doc.update(dual={"1": ["x"], "t": "t"})),
            ("provenance", lambda doc: doc.update(provenance=5)),
        ],
        ids=["R-null", "scalar-term-pair", "name-not-a-string", "R-index-out-of-range",
             "pivotal-zero", "scalar-zero-denominator", "scalar-order-too-large",
             "field-order-lcm-too-large", "multiplicity-float", "multiplicity-string",
             "multiplicity-bool", "F-index-float", "scalar-numerator-bool", "scalar-order-bool",
             "unit-not-a-string", "dual-not-strings", "provenance-not-a-string"],
    )
    def test_malformed_field_is_an_error_line(self, capsys, tmp_path, field, corrupt):
        path, doc = saved_doc(tmp_path, "fibonacci")
        corrupt(doc)
        path.write_text(json.dumps(doc))
        start = time.monotonic()
        code = main(["center", "rank", "--cat", str(path), "--sigma", "(1 2)"])
        elapsed = time.monotonic() - start
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:") and "Traceback" not in err
        assert field in err
        assert elapsed < 1.0

    @pytest.mark.parametrize("field,value", [
        ("unit", []), ("dual", {"1": ["x"], "t": "t"}), ("provenance", 5), ("provenance", {}),
    ])
    def test_validate_names_a_field_of_the_wrong_type(self, capsys, tmp_path, field, value):
        path, doc = saved_doc(tmp_path, "fibonacci")
        doc[field] = value
        path.write_text(json.dumps(doc))
        code = main(["validate", "--cat", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"error: {path}: malformed field {field!r}")

    @pytest.mark.parametrize("key,labels", [("fibonacci", ["t", "t", "t"]),
                                            ("ising", ["s", "f", "s"])], ids=("fibonacci", "ising"))
    def test_a_missing_r_entry_is_a_structure_failure(self, capsys, tmp_path, key, labels):
        path, doc = saved_doc(tmp_path, key)
        doc["R"] = [rec for rec in doc["R"] if rec["labels"] != labels]
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "validate", "--cat", str(path), "--json")
        a, b, c = labels
        missing = f"{key}: missing R entry for admissible channel ({a},{b};{c})"
        assert code == 1 and json.loads(out) == {"catalog": key, "structure": [missing]}
        code = main(["center", "rank", "--cat", str(path), "--sigma", "(1 2)"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "fails the structure check" in captured.err and missing in captured.err

    @pytest.mark.parametrize(
        "key,label,braided,report",
        [("fibonacci", "t", True, ["dim(t) dim(t) != sum of N(t,t;c) dim(c)"]),
         ("ising", "s", True, "ok"),
         ("fibonacci", "t", False, ["dim(t) dim(t) != sum of N(t,t;c) dim(c)"]),
         ("ising", "s", False, "ok"),
         ("fibonacci", None, False, "ok")],
        ids=("fibonacci", "ising", "fibonacci-unbraided", "ising-unbraided", "plain-unbraided"),
    )
    def test_dimensions_must_be_a_fusion_character(self, capsys, tmp_path, key, label, braided,
                                                   report):
        # pivotal(t) = -1 makes Fibonacci's dim(t) = -phi, whose square 1 + phi
        # is not 1 + dim(t): Fibonacci has one pivotal structure.  Ising's
        # pivotal(s) = -1 is its other spherical structure, dim(s) = -sqrt 2.
        # The dimensions need no braiding, so a file without R is checked too.
        path, doc = saved_doc(tmp_path, key)
        if label is not None:
            doc["pivotal"][label] = one([[0, -1, 1]])
        if not braided:
            del doc["R"]
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "validate", "--cat", str(path), "--json")
        got = json.loads(out)
        assert got["spherical_ribbon"] == report
        assert code == (0 if report == "ok" else 1)
        if report == "ok":
            assert got["hexagon"] == ("ok" if braided else "skipped (no braiding data)")
            return
        code = main(["center", "rank", "--cat", str(path), "--sigma", "(1 2)"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "fails the spherical_ribbon check" in captured.err

    @pytest.mark.parametrize("sigma", ("()", "(1 2)", "(1 3)(2 4)"))
    @pytest.mark.parametrize("command", [("center", "rank"), ("adjoint", "check"),
                                         ("center", "verify-induced", "--object", "t")],
                             ids=lambda c: c[1])
    def test_an_induced_pair_needs_a_braiding(self, capsys, tmp_path, command, sigma):
        path, doc = saved_doc(tmp_path, "fibonacci")
        del doc["R"]
        path.write_text(json.dumps(doc))
        code = main([*command[:2], "--cat", str(path), "--sigma", sigma, *command[2:]])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == ("error: category 'fibonacci' has no braiding data; "
                                "a premodular spec is required\n")

    @pytest.mark.parametrize("table,record,value,message", [
        ("F", {"labels": ["1", "t", "t", "t"], "row": ["t", 0, 0], "col": ["t", 0, 0]}, 5,
         "F block (1,t,t;t) is on a unit leg but not the identity"),
        ("R", {"labels": ["1", "t", "t"], "row": 0, "col": 0}, 3,
         "R block (1,t;t) is on a unit leg but not the identity"),
    ], ids=("F", "R"))
    def test_a_unit_leg_block_must_be_the_identity(self, capsys, tmp_path, table, record, value,
                                                   message):
        # The engine reads the identity on a unit leg, whatever the file stores there.
        path, doc = saved_doc(tmp_path, "fibonacci")
        doc[table].append({**record, "value": one([[0, value, 1]])})
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "validate", "--cat", str(path), "--json")
        assert code == 1 and json.loads(out) == {"catalog": "fibonacci", "structure": [message]}
        code = main(["center", "rank", "--cat", str(path), "--sigma", "(1 2)"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "fails the structure check" in captured.err and message in captured.err

    def test_a_stored_identity_on_a_unit_leg_still_validates(self, capsys, tmp_path):
        path, doc = saved_doc(tmp_path, "fibonacci")
        doc["F"].append({"labels": ["1", "t", "t", "t"], "row": ["t", 0, 0], "col": ["t", 0, 0],
                         "value": one([[0, 1, 1]])})
        doc["R"].append({"labels": ["1", "t", "t"], "row": 0, "col": 0, "value": one([[0, 1, 1]])})
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "validate", "--cat", str(path), "--json")
        got = json.loads(out)
        assert code == 0 and got.pop("catalog") == "fibonacci"
        assert set(got.values()) == {"ok"} and len(got) == 4

    @pytest.mark.parametrize("key,corrupt,entries", [fault[1:] for fault in STRUCTURE_FAULTS],
                             ids=[fault[0] for fault in STRUCTURE_FAULTS])
    def test_validate_lists_each_structure_fault(self, capsys, tmp_path, key, corrupt, entries):
        path, doc = saved_doc(tmp_path, key)
        corrupt(doc)
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "validate", "--cat", str(path), "--json")
        got = json.loads(out)
        assert code == 1 and set(got) == {"catalog", "structure"}
        assert got["structure"] == entries


def test_pinned_bench_outputs_still_hold(capsys):
    # Each key of bench/expected.json is a command line; its value is the
    # parsed --json document that command must print.
    path = Path(__file__).resolve().parent.parent / "bench" / "expected.json"
    for key, want in json.loads(path.read_text()).items():
        head, *options = key.split(" --")
        argv = head.split()
        for opt in options:
            name, _, value = opt.partition(" ")
            argv += [f"--{name}"] + ([value] if value else [])
        # First on a cold catalog cache, then warm: no state shared between
        # runs may change a result.
        catalog.builtin.cache_clear()
        for state in ("cold", "warm"):
            code, out = run(capsys, *argv)
            assert code == 0 and json.loads(out) == want, (key, state)


def test_cli_import_leaves_numpy_out():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "import sys, genuscenter.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0 and out.stdout.strip() == "False"


def test_cli_call_imports_no_argparse():
    # The command table replaces argparse, whose parsers and gettext look-ups
    # were a fixed cost of every call; plain record classes replace
    # dataclasses, which imports inspect (and with it ast, dis and tokenize).
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = (
        "import sys, genuscenter.cli as cli; "
        "code = cli.main(['center', 'rank', '--cat', 'vec_z2', '--sigma', '(1 2)', '--json']); "
        "print(code, sorted({'argparse', 'gettext', 'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0 and out.stdout.strip().splitlines()[-1] == "0 []"


def test_rank_lifts_no_scalar():
    # A spec stores its scalars in one field, so once it is built the rank
    # path never lifts a value into a wider one.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = (
        "import genuscenter.cli as cli\n"
        "from genuscenter import catalog\n"
        "from genuscenter.exactnum import Cyclotomic\n"
        "keys = ('fibonacci', 'ising')\n"
        "for key in keys: catalog.builtin(key)\n"
        "calls, lift = [], Cyclotomic.lift\n"
        "Cyclotomic.lift = lambda self, order: calls.append(order) or lift(self, order)\n"
        "for key in keys:\n"
        "    code = cli.main(['center', 'rank', '--cat', key, '--sigma', '(1 3)(2 4)', '--json'])\n"
        "    print(key, code, len(calls))\n"
        "    calls.clear()\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0
    lines = [line for line in out.stdout.splitlines() if line.startswith(("fibonacci ", "ising "))]
    assert lines == ["fibonacci 0 0", "ising 0 0"]


def test_adjoint_check_multiplies_by_no_zero(monkeypatch, capsys):
    # forward sums the projected columns over the nonzero coordinates of a
    # map, so no scalar product has a zero operand.
    count = {"all": 0, "zero": 0}
    mul = Cyclotomic.__mul__

    def counted(self, other):
        count["all"] += 1
        count["zero"] += self.is_zero() or (isinstance(other, Cyclotomic) and other.is_zero())
        return mul(self, other)

    monkeypatch.setattr(Cyclotomic, "__mul__", counted)
    monkeypatch.setattr(Cyclotomic, "__rmul__", counted)
    code, _out = run(capsys, "adjoint", "check", "--cat", "vec_z3_q", "--sigma", "(1 3)(2 4)")
    assert code == 0 and count["all"] > 0 and count["zero"] == 0, count


def test_each_generator_window_is_evaluated_once():
    # L2 evaluates a generator on a window of a tree once per spec, through
    # the _local_moves table, and composes word maps on windows: 171 and 267
    # on these jobs (353 for rep_s3 while a window's head posed as a strand),
    # against 243 and 473 on touched prefixes.  Each composed map is one
    # _word_map key of the spec's cache.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = (
        "import genuscenter.cli as cli\n"
        "from genuscenter import catalog, trees\n"
        "count = {'apply': 0, 'depth': 0}\n"
        "apply_tree = trees._apply_tree\n"
        "def counted_apply(*args):\n"
        "    count['apply'] += count['depth'] == 0\n"
        "    count['depth'] += 1\n"
        "    try:\n"
        "        return apply_tree(*args)\n"
        "    finally:\n"
        "        count['depth'] -= 1\n"
        "trees._apply_tree = counted_apply\n"
        "jobs = [('ising', ['center', 'rank']), ('rep_s3', ['center', 'verify-induced'])]\n"
        "for key, command in jobs:\n"
        "    extra = ['--object', '1'] if key == 'rep_s3' else []\n"
        "    code = cli.main([*command, '--cat', key, '--sigma', '(1 3)(2 4)', *extra, '--json'])\n"
        "    cache = catalog.builtin(key)._cache\n"
        "    windows = sum(k[0] == '_local_moves' for k in cache)\n"
        "    maps = sum(k[0] == '_word_map' for k in cache)\n"
        "    print(key, code, count['apply'], windows, maps)\n"
        "    count.update(apply=0)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    rows = [line.split() for line in lines if line.startswith(("ising ", "rep_s3 "))]
    assert [row[:2] for row in rows] == [["ising", "0"], ["rep_s3", "0"]]
    for (key, _, applied, windows, maps), bound in zip(rows, (171, 353)):
        assert int(applied) == int(windows) > 0, key
        assert 0 < int(maps) <= bound, key


def test_word_maps_push_few_rows():
    # A deterministic work guard for L2, beside the window count above: the
    # rows pushed through _push while _word_map builds composed maps on the
    # same two jobs.  A gamma column turns the high leg by one bend, so no
    # map is built over the two strands that a cup, split and cap add: 1,622
    # and 3,329 rows, against 2,438 and 8,244 with the triple.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = (
        "import genuscenter.cli as cli\n"
        "from genuscenter import trees\n"
        "count = {'rows': 0, 'depth': 0}\n"
        "push, word_map = trees._push, trees._word_map\n"
        "def counted_push(rows, *args):\n"
        "    count['rows'] += len(rows) if count['depth'] else 0\n"
        "    return push(rows, *args)\n"
        "def counted_map(*args):\n"
        "    count['depth'] += 1\n"
        "    try:\n"
        "        return word_map(*args)\n"
        "    finally:\n"
        "        count['depth'] -= 1\n"
        "trees._push, trees._word_map = counted_push, counted_map\n"
        "jobs = [('ising', ['center', 'rank']), ('rep_s3', ['center', 'verify-induced'])]\n"
        "for key, command in jobs:\n"
        "    extra = ['--object', '1'] if key == 'rep_s3' else []\n"
        "    code = cli.main([*command, '--cat', key, '--sigma', '(1 3)(2 4)', *extra, '--json'])\n"
        "    print(key, code, count['rows'])\n"
        "    count.update(rows=0)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    rows = [line.split() for line in lines if line.startswith(("ising ", "rep_s3 "))]
    assert [row[:2] for row in rows] == [["ising", "0"], ["rep_s3", "0"]]
    for (key, _, pushed), bound in zip(rows, (1700, 4300)):
        assert 0 < int(pushed) <= bound, key


def test_a_closed_stdout_ends_quietly_with_code_1():
    # The read end of the pipe is closed before the child starts, so its
    # first write to stdout fails with EPIPE.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    for argv in (["catalog", "list", "--json"], ["-h"]):
        read, write = os.pipe()
        os.close(read)
        try:
            out = subprocess.run(
                [sys.executable, "-c", "import sys, genuscenter.cli as cli; sys.exit(cli.main())",
                 *argv], env=env, stdout=write, stderr=subprocess.PIPE, timeout=60,
            )
        finally:
            os.close(write)
        assert (out.returncode, out.stderr) == (1, b""), argv


def test_python_m_runs_the_cli(capsys):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = ["catalog", "list", "--json"]
    out = subprocess.run(
        [sys.executable, "-m", "genuscenter", *argv], env=env, capture_output=True, timeout=60
    )
    code, want = run(capsys, *argv)
    assert (out.returncode, out.stdout, out.stderr) == (code, want.encode(), b"")
    usage = subprocess.run(
        [sys.executable, "-m", "genuscenter", "-h"], env=env, capture_output=True, timeout=60
    )
    assert usage.returncode == 0 and usage.stdout.startswith(b"usage: genuscenter")
