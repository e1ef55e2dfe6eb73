"""Command-line surface: validation, gluing combinatorics, center ranks.

Every subcommand is a thin adapter over the library; no numerical logic
lives here.  Output is deterministic text or JSON, with no timing field,
so identical inputs give identical bytes.
A call is the words of one command of COMMANDS, then its flags in any order,
each once, as ``--flag value`` or ``--flag=value``; a value may begin with a
single dash (``--n -1``), and ``--json`` is a switch.  ``-h`` or ``--help``
prints the usage.
Exit codes: 0 pass or help, 1 check failure, computation diagnostic or a closed
stdout, 2 usage (the usage and an ``error:`` line on stderr, nothing on stdout).
`validate` runs the structure, pentagon and spherical_ribbon checks on every
catalog, and the hexagon on a braided one.  `center` and `adjoint` refuse a
catalog file that fails one of them; the built-in catalogs are checked by
the test suite instead.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import catalog, center, fusion
from .errors import GenusCenterError
from .gluing import comm_case, enumerate_adm, parse_cycles, surface_type

__all__ = ["main"]


def _load_cat(token: str, check: bool = True):
    """The catalog of a built-in key or a file; a file must pass the axiom checks if check."""
    if token in catalog.catalog_keys():
        return catalog.builtin(token)
    spec = catalog.load_spec(_catalog_path(token))
    if check:
        for name, failures in _axiom_checks(spec):
            if failures:
                raise GenusCenterError(
                    f"catalog {token!r} fails the {name} check "
                    f"({len(failures)} failures; first: {failures[0]})"
                )
    return spec


def _catalog_path(token: str) -> str:
    if os.path.exists(token):
        return token
    env = os.environ.get("GENUSCENTER_CATALOG_DIR")
    if env:
        for d in env.split(os.pathsep):
            cand = os.path.join(d, token)
            if os.path.exists(cand):
                return cand
            cand = os.path.join(d, token + ".json")
            if os.path.exists(cand):
                return cand
    raise GenusCenterError(
        f"no catalog entry or file named {token!r}; "
        f"builtin keys: {', '.join(catalog.catalog_keys())}"
    )


def _axiom_checks(spec):
    """(name, failures) of each axiom check in turn, up to the first that fails."""
    checks = [("structure", fusion.validate_structure), ("pentagon", fusion.check_pentagon)]
    if spec.R is not None:
        checks.append(("hexagon", fusion.check_hexagon))
    checks.append(("spherical_ribbon", fusion.check_spherical_ribbon))
    for name, check in checks:
        failures = check(spec)
        yield name, failures
        if failures:
            return


def _emit(doc, as_json: bool):
    if as_json:
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        _emit_text(doc)
    sys.stdout.flush()  # a closed stdout raises here, inside main, and not at exit


def _emit_text(doc, indent=0):
    pad = " " * indent
    if isinstance(doc, dict):
        for k, v in doc.items():
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _emit_text(v, indent + 2)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(doc, list):
        for v in doc:
            if isinstance(v, (dict, list)):
                _emit_text(v, indent)
            else:
                print(f"{pad}- {v}")
    else:
        print(f"{pad}{doc}")


def _cmd_validate(args) -> int:
    spec = _load_cat(args.cat, check=False)
    results = dict(_axiom_checks(spec))
    report = {"catalog": spec.name}
    report.update((name, failures or "ok") for name, failures in results.items())
    ok = not any(results.values())
    if ok and spec.R is None:
        report["hexagon"] = "skipped (no braiding data)"
    _emit(report, args.json)
    return 0 if ok else 1


def _cmd_gluing_enum(args) -> int:
    rows = []
    for sig in enumerate_adm(args.n):
        g, k = surface_type(sig)
        rows.append({"sigma": sig.cycle_string(), "genus": g, "punctures": k,
                     "euler": 2 - 2 * g - k})
    _emit({"n": args.n, "count": len(rows), "gluings": rows}, args.json)
    return 0


def _cmd_gluing_classify(args) -> int:
    sig = parse_cycles(args.sigma)
    g, k = surface_type(sig)
    pairs = sig.pairs()
    table = [{"orbit": i, "low": lo, "high": hi} for i, (lo, hi) in enumerate(pairs, 1)]
    cases = [{"orbits": [i + 1, j + 1], "case": comm_case(pairs[i], pairs[j])}
             for i in range(sig.n) for j in range(i + 1, sig.n)]
    _emit(
        {
            "sigma": sig.cycle_string(),
            "surface": {"genus": g, "punctures": k, "euler": 2 - 2 * g - k},
            "orbits": table,
            "comm_cases": cases,
        },
        args.json,
    )
    return 0


def _cmd_center_rank(args) -> int:
    spec = _load_cat(args.cat)
    sig = parse_cycles(args.sigma)
    tube = center.tube_algebra(spec, sig)
    rank, dims = center.center_rank(spec, sig)
    g, k = surface_type(sig)
    doc = {
        "catalog": spec.name,
        "sigma": sig.cycle_string(),
        "surface": {"g": g, "k": k},
        "rank": rank,
        "block_dims": dims,
        "total_dim": tube.dim,
    }
    _emit(doc, args.json)
    return 0


def _cmd_center_verify(args) -> int:
    spec = _load_cat(args.cat)
    sig = parse_cycles(args.sigma)
    if args.object not in spec.labels:
        raise GenusCenterError(
            f"unknown label {args.object!r}; labels: {', '.join(spec.labels)}"
        )
    pair = center.induced_half_braidings(spec, sig, args.object)
    failures = center.verify_sigma_pair(spec, sig, pair)
    _emit(
        {
            "catalog": spec.name,
            "sigma": sig.cycle_string(),
            "object": args.object,
            "summands": len(pair.words),
            "verify": failures or "ok",
        },
        args.json,
    )
    return 1 if failures else 0


def _cmd_adjoint_check(args) -> int:
    spec = _load_cat(args.cat)
    sig = parse_cycles(args.sigma)
    rows = []
    ok_all = True
    for x in spec.labels:
        for y in spec.labels:
            py = center.induced_half_braidings(spec, sig, y)
            fwd, bwd = center.adjunction_maps(spec, sig, x, py)
            basis = center.carrier_basis(spec, ((x,),), py.words)
            images = [fwd(phi) for phi in basis]
            gf = all(bwd(img) == phi for img, phi in zip(images, basis))
            fgf = all(fwd(bwd(img)) == img for img in images)
            ok_all = ok_all and gf and fgf
            rows.append(
                {
                    "x": x,
                    "y_pair": f"induced({y})",
                    "hom_dim": len(basis),
                    "GF=1": gf,
                    "FGF=F": fgf,
                }
            )
    _emit({"catalog": spec.name, "sigma": sig.cycle_string(), "checks": rows}, args.json)
    return 0 if ok_all else 1


def _cmd_catalog_list(args) -> int:
    rows = []
    for key in catalog.catalog_keys():
        spec = catalog.builtin(key)
        rows.append({"key": key, "labels": list(spec.labels), "braided": spec.R is not None,
                     "provenance": spec.provenance})
    _emit({"catalogs": rows}, args.json)
    return 0


# Command words -> (handler, {flag: type}, one-line help).  Every flag is
# required, and every command also takes the switch --json.
COMMANDS = {
    ("validate",): (_cmd_validate, {"cat": str}, "run category axiom validators"),
    ("gluing", "enum"): (_cmd_gluing_enum, {"n": int}, "list admissible gluings of a rank"),
    ("gluing", "classify"): (_cmd_gluing_classify, {"sigma": str}, "surface type and orbit data"),
    ("center", "rank"): (_cmd_center_rank, {"cat": str, "sigma": str}, "rank and block dimensions"),
    ("center", "verify-induced"): (_cmd_center_verify, {"cat": str, "sigma": str, "object": str},
                                   "verify an induced pair"),
    ("adjoint", "check"): (_cmd_adjoint_check, {"cat": str, "sigma": str},
                           "exact GF/FG identity verdicts"),
    ("catalog", "list"): (_cmd_catalog_list, {}, "list bundled catalogs"),
}


class _UsageError(Exception):
    """A command line outside the grammar of COMMANDS."""


def _usage() -> str:
    rows = [(" ".join([*words, *(f"--{f} {f.upper()}" for f in flags)]), text)
            for words, (_, flags, text) in COMMANDS.items()]
    width = max(len(call) for call, _ in rows)
    return "\n".join(["usage: genuscenter COMMAND [--FLAG VALUE ...] [--json]",
                      "Exact categorical centers of glued surfaces at desk scale.", "",
                      *(f"  {call:<{width}}  {text}" for call, text in rows)])


def _parse(argv: list):
    """The handler of argv's command and a namespace of its flag values."""
    words = next((w for w in COMMANDS if tuple(argv[: len(w)]) == w), None)
    if words is None:
        raise _UsageError(f"unknown command {' '.join(argv[:2])!r}" if argv else "no command")
    handler, flags, _ = COMMANDS[words]
    values, rest = {}, argv[len(words):]
    while rest:
        name, eq, value = rest.pop(0).partition("=")
        key = name[2:]
        if name[:2] != "--" or not (key in flags or (key == "json" and not eq)):
            raise _UsageError(f"unrecognized argument {name!r}")
        if key in values:
            raise _UsageError(f"argument {name} given twice")
        if key == "json":
            values[key] = True
            continue
        if not eq:
            if not rest or rest[0].startswith("--"):
                raise _UsageError(f"argument {name} expects a value")
            value = rest.pop(0)
        try:
            values[key] = flags[key](value)
        except ValueError:
            raise _UsageError(f"argument {name}: invalid integer {value!r}") from None
    missing = [f"--{f}" for f in flags if f not in values]
    if missing:
        raise _UsageError(f"missing required arguments: {' '.join(missing)}")
    return handler, SimpleNamespace(json=values.pop("json", False), **values)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if "-h" in argv or "--help" in argv:
            print(_usage(), flush=True)
            return 0
        handler, args = _parse(argv)
        return handler(args)
    except _UsageError as exc:
        print(_usage(), f"error: {exc}", sep="\n", file=sys.stderr)
        return 2
    except GenusCenterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the Python docs' recipe: devnull takes the closed stdout's place
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
