"""Command-line surface: validation, gluing combinatorics, center ranks.

Every subcommand is a thin adapter over the library; no numerical logic
lives here.  Output is deterministic text or JSON, with no timing field,
so identical inputs give identical bytes.
Exit codes: 0 pass, 1 check failure or computation diagnostic, 2 usage.
`center` and `adjoint` refuse a catalog file that fails an axiom check of
`validate`; the built-in catalogs are checked by the test suite instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

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
        for name, result in _axiom_checks(spec):
            if not result.ok:
                raise GenusCenterError(
                    f"catalog {token!r} fails the {name} check "
                    f"({len(result.entries)} failures; first: {result.entries[0]})"
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
    """(name, report) of each axiom check in turn, up to the first that fails."""
    checks = [("structure", fusion.validate_structure), ("pentagon", fusion.check_pentagon)]
    if spec.R is not None:
        checks.append(("hexagon", fusion.check_hexagon))
        checks.append(("spherical_ribbon", fusion.check_spherical_ribbon))
    for name, check in checks:
        result = check(spec)
        yield name, result
        if not result.ok:
            return


def _emit(doc, as_json: bool):
    if as_json:
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        _emit_text(doc)


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
    report.update((name, result.entries or "ok") for name, result in results.items())
    ok = all(result.ok for result in results.values())
    if ok and spec.R is None:
        report["hexagon"] = "skipped (no braiding data)"
    _emit(report, args.json)
    return 0 if ok else 1


def _cmd_gluing_enum(args) -> int:
    rows = []
    for sig in enumerate_adm(args.n):
        st = surface_type(sig)
        rows.append(
            {
                "sigma": sig.cycle_string(),
                "genus": st.genus,
                "punctures": st.punctures,
                "euler": st.euler,
            }
        )
    _emit({"n": args.n, "count": len(rows), "gluings": rows}, args.json)
    return 0


def _cmd_gluing_classify(args) -> int:
    sig = parse_cycles(args.sigma)
    st = surface_type(sig)
    orbits = sig.orbits()
    table = []
    for i, o in enumerate(orbits):
        table.append({"orbit": i + 1, "low": o.low, "high": o.high})
    cases = []
    for i in range(len(orbits)):
        for j in range(i + 1, len(orbits)):
            cases.append(
                {
                    "orbits": [i + 1, j + 1],
                    "case": comm_case(sig, orbits[i], orbits[j]),
                }
            )
    _emit(
        {
            "sigma": sig.cycle_string(),
            "surface": {"genus": st.genus, "punctures": st.punctures, "euler": st.euler},
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
    st = surface_type(sig)
    doc = {
        "catalog": spec.name,
        "sigma": sig.cycle_string(),
        "surface": {"g": st.genus, "k": st.punctures},
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
    report = center.verify_sigma_pair(spec, sig, pair)
    _emit(
        {
            "catalog": spec.name,
            "sigma": sig.cycle_string(),
            "object": args.object,
            "summands": len(pair.words),
            "verify": report.entries or "ok",
        },
        args.json,
    )
    return 0 if report.ok else 1


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
        rows.append(
            {
                "key": key,
                "labels": list(spec.labels),
                "braided": spec.R is not None,
                "provenance": spec.provenance,
            }
        )
    _emit({"catalogs": rows}, args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="genuscenter",
        description="Exact categorical centers of glued surfaces at desk scale.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="run category axiom validators", parents=[common])
    v.add_argument("--cat", required=True, help="catalog key or file path")
    v.set_defaults(func=_cmd_validate)

    g = sub.add_parser("gluing", help="gluing combinatorics")
    gsub = g.add_subparsers(dest="gluing_command", required=True)
    ge = gsub.add_parser("enum", help="list admissible gluings of a rank", parents=[common])
    ge.add_argument("--n", type=int, required=True)
    ge.set_defaults(func=_cmd_gluing_enum)
    gc = gsub.add_parser("classify", help="surface type and orbit data", parents=[common])
    gc.add_argument("--sigma", required=True, help='cycles, e.g. "(1 3)(2 4)"')
    gc.set_defaults(func=_cmd_gluing_classify)

    c = sub.add_parser("center", help="center computations")
    csub = c.add_subparsers(dest="center_command", required=True)
    cr = csub.add_parser("rank", help="rank and block dimensions", parents=[common])
    cr.add_argument("--cat", required=True)
    cr.add_argument("--sigma", required=True)
    cr.set_defaults(func=_cmd_center_rank)
    cv = csub.add_parser("verify-induced", help="verify an induced pair", parents=[common])
    cv.add_argument("--cat", required=True)
    cv.add_argument("--sigma", required=True)
    cv.add_argument("--object", required=True)
    cv.set_defaults(func=_cmd_center_verify)

    a = sub.add_parser("adjoint", help="adjunction checks")
    asub = a.add_subparsers(dest="adjoint_command", required=True)
    ac = asub.add_parser("check", help="exact GF/FG identity verdicts", parents=[common])
    ac.add_argument("--cat", required=True)
    ac.add_argument("--sigma", required=True)
    ac.set_defaults(func=_cmd_adjoint_check)

    cat = sub.add_parser("catalog", help="catalog inspection")
    catsub = cat.add_subparsers(dest="catalog_command", required=True)
    cl = catsub.add_parser("list", help="list bundled catalogs", parents=[common])
    cl.set_defaults(func=_cmd_catalog_list)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except GenusCenterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
