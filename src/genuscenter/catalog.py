"""Bundled example categories and the on-disk category format.

Pointed catalogs are generated from group cocycle/bicharacter data; the
S3 representation catalog is derived at first use from explicit rational
representation matrices, so its 6j-symbols are rational by construction.
Its F rows and R entries are read off echelon tails, and an F row or R entry
that is no combination of its basis raises InternalInconsistencyError.
Fields: vec_z3_q Q(zeta_3), semion Q(zeta_4), ising Q(zeta_16) (written in
zeta_4, zeta_8, zeta_16), fibonacci Q(zeta_10) = Q(zeta_5) (written in zeta_5
and zeta_10, stored at order 10); the rest are rational.  The test suite runs
every entry through the pentagon, hexagon, spherical and ribbon validators.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from functools import cache

from .errors import (
    GenusCenterError,
    InternalInconsistencyError,
    KeyNotFoundError,
    MalformedRationalError,
)
from .exactnum import C1, CYCLOTOMIC, Cyclotomic, Echelon, rational, zeta
from .fusion import CategorySpec

__all__ = ["builtin", "catalog_keys", "load_spec", "save_spec"]

# The largest field order a catalog file may ask for, for one scalar and for
# the lcm of them all.  The field tables grow with the square of the order;
# the largest built-in order is 16.
MAX_ORDER = 1000


def _pointed(name, n, omega, rvals, pivotal, provenance):
    """Pointed category on Z/n: fusion a+b, associator omega, braiding rvals."""
    labels = tuple(str(i) for i in range(n))
    unit = "0"
    dual = {str(i): str((-i) % n) for i in range(n)}
    fusion = {
        (str(a), str(b), str((a + b) % n)): 1 for a in range(n) for b in range(n)
    }
    F = {}
    for a in range(1, n):
        for b in range(1, n):
            for c in range(1, n):
                d = (a + b + c) % n
                e, f = (a + b) % n, (b + c) % n
                F[(str(a), str(b), str(c), str(d))] = {
                    ((str(e), 0, 0), (str(f), 0, 0)): omega(a, b, c)
                }
    R = {}
    for a in range(1, n):
        for b in range(1, n):
            R[(str(a), str(b), str((a + b) % n))] = {(0, 0): rvals(a, b)}
    return CategorySpec(
        name=name,
        labels=labels,
        unit=unit,
        dual=dual,
        fusion=fusion,
        F=F,
        R=R,
        pivotal={str(i): pivotal(i) for i in range(n)},
        provenance=provenance,
    )


def _rep_z2():
    return _pointed(
        "rep_z2", 2,
        omega=lambda a, b, c: C1,
        rvals=lambda a, b: C1,
        pivotal=lambda a: C1,
        provenance="Z/2 representations: trivial associator and symmetric braiding.",
    )


def _vec_z2():
    return _pointed(
        "vec_z2", 2,
        omega=lambda a, b, c: C1,
        rvals=lambda a, b: rational(-1),
        pivotal=lambda a: C1,
        provenance="super-vector-space flavor of Z/2: trivial associator, "
        "braiding -1 on the odd-odd channel (symmetric, fermionic twist).",
    )


def _vec_z3_q():
    z3 = zeta(3)
    return _pointed(
        "vec_z3_q", 3,
        omega=lambda a, b, c: C1,
        rvals=lambda a, b: z3 ** (a * b),
        pivotal=lambda a: C1,
        provenance="Z/3 pointed with the nondegenerate quadratic form "
        "q(a) = zeta_3^(a^2); anyonic and modular.",
    )


def _semion():
    return _pointed(
        "semion", 2,
        omega=lambda a, b, c: rational(-1),
        rvals=lambda a, b: zeta(4),
        pivotal=lambda a: rational(-1) if a else C1,
        provenance="Z/2 with the nontrivial associator and semionic braiding "
        "R = i; pivotal sign -1 keeps the loop value +1.",
    )


def _fibonacci():
    # phi = golden ratio, exactly 1 + z5 + z5^4; F in the rational gauge
    # [[1/phi, 1/phi], [1, -1/phi]], an involution since phi^2 = phi + 1.
    phi = C1 + zeta(5) + zeta(5, 4)
    phinv = phi.inverse()
    u, t = "1", "t"
    F = {
        (t, t, t, t): {
            ((u, 0, 0), (u, 0, 0)): phinv,
            ((u, 0, 0), (t, 0, 0)): phinv,
            ((t, 0, 0), (u, 0, 0)): C1,
            ((t, 0, 0), (t, 0, 0)): -phinv,
        },
        (t, t, t, u): {((t, 0, 0), (t, 0, 0)): C1},
    }
    # Hexagon solution found by exact scan over roots of unity: the only
    # solutions in this gauge are (z5^2, z10^7) and its mirror below.
    R = {
        (t, t, u): {(0, 0): zeta(5, 3)},
        (t, t, t): {(0, 0): zeta(10, 3)},
    }
    return CategorySpec(
        name="fibonacci",
        labels=(u, t),
        unit=u,
        dual={u: u, t: t},
        fusion={
            (u, u, u): 1, (u, t, t): 1, (t, u, t): 1,
            (t, t, u): 1, (t, t, t): 1,
        },
        F=F,
        R=R,
        pivotal={u: C1, t: C1},
        provenance="golden-ratio fusion rule; F in the rational gauge over "
        "Q(zeta_5), R fixed by exact hexagon solving.",
    )


def _ising():
    # sqrt2 = z8 + z8^-1 exactly; standard solution with F[sss;s] = H/sqrt2,
    # F[sfs;f] = F[fsf;s] = -1, R scanned exactly against the hexagon.
    s2inv = (zeta(8) + zeta(8, 7)).inverse()
    u, s, f = "1", "s", "f"
    neg = rational(-1)
    F = {
        (s, s, s, s): {
            ((u, 0, 0), (u, 0, 0)): s2inv,
            ((u, 0, 0), (f, 0, 0)): s2inv,
            ((f, 0, 0), (u, 0, 0)): s2inv,
            ((f, 0, 0), (f, 0, 0)): -s2inv,
        },
        (s, s, f, f): {((u, 0, 0), (s, 0, 0)): C1},
        (s, s, f, u): {((f, 0, 0), (s, 0, 0)): C1},
        (s, f, s, u): {((s, 0, 0), (s, 0, 0)): C1},
        (s, f, s, f): {((s, 0, 0), (s, 0, 0)): neg},
        (s, f, f, s): {((s, 0, 0), (u, 0, 0)): C1},
        (f, s, s, u): {((s, 0, 0), (f, 0, 0)): C1},
        (f, s, s, f): {((s, 0, 0), (u, 0, 0)): C1},
        (f, s, f, s): {((s, 0, 0), (s, 0, 0)): neg},
        (f, f, s, s): {((u, 0, 0), (s, 0, 0)): C1},
        (f, f, f, f): {((u, 0, 0), (u, 0, 0)): C1},
    }
    R = {
        (s, s, u): {(0, 0): zeta(16, 15)},
        (s, s, f): {(0, 0): zeta(16, 3)},
        (s, f, s): {(0, 0): zeta(4, 3)},
        (f, s, s): {(0, 0): zeta(4, 3)},
        (f, f, u): {(0, 0): rational(-1)},
    }
    return CategorySpec(
        name="ising",
        labels=(u, s, f),
        unit=u,
        dual={u: u, s: s, f: f},
        fusion={
            (u, u, u): 1, (u, s, s): 1, (u, f, f): 1,
            (s, u, s): 1, (f, u, f): 1,
            (s, s, u): 1, (s, s, f): 1,
            (s, f, s): 1, (f, s, s): 1,
            (f, f, u): 1,
        },
        F=F,
        R=R,
        pivotal={u: C1, s: C1, f: C1},
        provenance="square-root-of-2 fusion rules over Q(zeta_16); "
        "R fixed by exact hexagon solving.",
    )


# ---------------------------------------------------------------------------
# Rep(S3), derived from explicit rational representation matrices.  A matrix
# is its sparse rows {i: {j: value}}, and a zero row is absent.

def _mat(rows):
    return {i: {j: rational(v) for j, v in enumerate(r) if v} for i, r in enumerate(rows) if any(r)}


def _eye(n: int) -> dict:
    return {i: {i: C1} for i in range(n)}


def _kron(a: dict, b: dict, b_shape: tuple) -> dict:
    """a (x) b, for b of shape (rows, columns)."""
    br, bc = b_shape
    return {
        i * br + k: {j * bc + l: x * y for j, x in ra.items() for l, y in rb.items()}
        for i, ra in a.items()
        for k, rb in b.items()
    }


def _mul(a: dict, b: dict) -> dict:
    out = {}
    for i, ra in a.items():
        row: dict = {}
        for k, x in ra.items():
            CYCLOTOMIC.axpy(row, x, b.get(k, {}))
        if row:
            out[i] = row
    return out


_S3_REPS = {
    "1": {"dim": 1, "s": _mat([[1]]), "t": _mat([[1]])},
    "e": {"dim": 1, "s": _mat([[-1]]), "t": _mat([[1]])},
    "V": {"dim": 2, "s": _mat([[-1, 1], [0, 1]]), "t": _mat([[0, -1], [1, -1]])},
}


def _s3_intertwiner(a: str, b: str, c: str) -> dict | None:
    """A basis intertwiner V_c -> V_a (x) V_b over Q, or None if absent."""
    ra, rb, rc = _S3_REPS[a], _S3_REPS[b], _S3_REPS[c]
    da, db, dc = ra["dim"], rb["dim"], rc["dim"]
    eqs = []
    for g in ("s", "t"):
        lhs = _kron(ra[g], rb[g], (db, db))
        rhs = rc[g]
        # (lhs T - T rhs) = 0, unknown T is (da*db) x dc flattened row-major.
        for i in range(da * db):
            for j in range(dc):
                eqs.append({k * dc + j: v for k, v in lhs.get(i, {}).items()})
                column = {i * dc + k: row[j] for k, row in rhs.items() if j in row}
                CYCLOTOMIC.axpy(eqs[-1], -C1, column)
    basis = Echelon(CYCLOTOMIC, eqs).kernel(da * db * dc)
    if not basis:
        return None
    vec = basis[0]
    # Deterministic scale: first nonzero coordinate = 1.
    first = vec[min(vec)]
    T: dict = {}
    for k in sorted(vec):
        T.setdefault(k // dc, {})[k % dc] = vec[k] / first
    return T


def _s3_vertex(a: str, b: str, c: str) -> dict | None:
    """Intertwiner with the strict-unit normalization on unit legs."""
    if "1" in (a, b):
        other = b if a == "1" else a
        return _eye(_S3_REPS[other]["dim"]) if other == c else None
    return _s3_intertwiner(a, b, c)


def _coefficients(target: dict, basis: dict) -> dict | None:
    """{k: x} with target = sum of x basis[k], or None when target is outside their span."""
    echelon = Echelon(CYCLOTOMIC)
    for k, m in [*basis.items(), (None, target)]:  # the maps as entrywise vectors
        tail = echelon.add({(i, j): v for i, row in m.items() for j, v in row.items()}, k)
    return None if tail is None else {k: -x for k, x in tail.items()}


def _rep_s3():
    labels = ("1", "e", "V")
    dims = {a: _S3_REPS[a]["dim"] for a in labels}
    fusion = {}
    verts = {}
    for a in labels:
        for b in labels:
            for c in labels:
                T = _s3_vertex(a, b, c)
                if T is not None:
                    fusion[(a, b, c)] = 1
                    verts[(a, b, c)] = T

    R = {}
    for a in labels:
        for b in labels:
            if "1" in (a, b):
                continue
            da, db = dims[a], dims[b]
            flip = {v * da + u: {u * db + v: C1} for u in range(da) for v in range(db)}
            for c in labels:
                if (a, b, c) in verts:
                    x = _coefficients(_mul(flip, verts[(a, b, c)]), {0: verts[(b, a, c)]})
                    if not x:
                        raise InternalInconsistencyError(
                            f"rep_s3: the braided intertwiner of ({a},{b};{c}) is not a nonzero "
                            f"multiple of that of ({b},{a};{c})"
                        )
                    R[(a, b, c)] = {(0, 0): x[0]}

    def tree1(a, b, c, d, e):
        # (iota[ab->e] (x) 1_c) o iota[ec->d]
        return _mul(_kron(verts[(a, b, e)], _eye(dims[c]), (dims[c], dims[c])), verts[(e, c, d)])

    def tree2(a, b, c, d, f):
        shape = (dims[b] * dims[c], dims[f])
        return _mul(_kron(_eye(dims[a]), verts[(b, c, f)], shape), verts[(a, f, d)])

    F = {}
    for a in labels:
        for b in labels:
            for c in labels:
                if "1" in (a, b, c):
                    continue
                for d in labels:
                    es = [e for e in labels if (a, b, e) in verts and (e, c, d) in verts]
                    fs = [f for f in labels if (b, c, f) in verts and (a, f, d) in verts]
                    if not es:
                        continue
                    # tree1(e) = sum_f F[e,f] tree2(f), exactly over Q.
                    basis = {f: tree2(a, b, c, d, f) for f in fs}
                    block = {}
                    for e in es:
                        x = _coefficients(tree1(a, b, c, d, e), basis)
                        if x is None:
                            raise InternalInconsistencyError(
                                f"rep_s3: F block ({a},{b},{c};{d}) is not solvable at row {e}"
                            )
                        block.update({((e, 0, 0), (f, 0, 0)): x[f] for f in fs if f in x})
                    F[(a, b, c, d)] = block

    return CategorySpec(
        name="rep_s3",
        labels=labels,
        unit="1",
        dual={a: a for a in labels},
        fusion=fusion,
        F=F,
        R=R,
        pivotal={a: C1 for a in labels},
        provenance="derived at load from rational S3 representation matrices; "
        "the pentagon holds by construction and is re-checked by the validators.",
    )


_BUILDERS = {
    "vec_z2": _vec_z2,
    "vec_z3_q": _vec_z3_q,
    "rep_z2": _rep_z2,
    "rep_s3": _rep_s3,
    "fibonacci": _fibonacci,
    "ising": _ising,
    "semion": _semion,
}

def catalog_keys() -> list[str]:
    return sorted(_BUILDERS)


@cache
def builtin(key: str) -> CategorySpec:
    if key not in _BUILDERS:
        raise KeyNotFoundError(
            f"unknown catalog key {key!r}; available: {', '.join(catalog_keys())}"
        )
    return _BUILDERS[key]()


# ---------------------------------------------------------------------------
# on-disk format


def _cyc_to_json(v: Cyclotomic) -> dict:
    return {"order": v.order, "terms": [list(t) for t in v.terms()]}


def _cyc_from_json(obj, where: str) -> Cyclotomic:
    try:
        order = obj["order"]
        terms = obj["terms"]
    except (TypeError, KeyError) as exc:
        raise GenusCenterError(f"{where}: malformed scalar {obj!r}") from exc
    if type(order) is not int or order < 1:
        raise GenusCenterError(f"{where}: scalar order must be a positive integer")
    if order > MAX_ORDER:
        raise GenusCenterError(f"{where}: scalar order {order} is above {MAX_ORDER}")
    for t in terms:
        if not (isinstance(t, list) and len(t) == 3 and all(type(x) is int for x in t)):
            raise GenusCenterError(
                f"{where}: scalar term {t!r} is not [exponent, numerator, denominator]"
            )
    try:
        return Cyclotomic.from_terms(order, [tuple(t) for t in terms])
    except MalformedRationalError as exc:
        raise GenusCenterError(f"{where}: {exc}") from exc


def _int(x) -> int:
    """A JSON integer; a float, a string or a bool raises TypeError."""
    if type(x) is not int:
        raise TypeError(f"{x!r} is not an integer")
    return x


@contextmanager
def _field(path, name: str):
    """Turn a field of the wrong shape into a GenusCenterError that names it."""
    try:
        yield
    except (TypeError, ValueError, KeyError, AttributeError) as exc:
        raise GenusCenterError(f"{path}: malformed field {name!r} ({exc})") from exc


def save_spec(spec: CategorySpec, path) -> None:
    doc = {
        "name": spec.name,
        "labels": list(spec.labels),
        "unit": spec.unit,
        "dual": dict(spec.dual),
        "fusion": [[a, b, c, n] for (a, b, c), n in sorted(spec.fusion.items())],
        "F": [
            {
                "labels": list(key),
                "row": list(rk),
                "col": list(ck),
                "value": _cyc_to_json(v),
            }
            for key, block in sorted(spec.F.items())
            for (rk, ck), v in sorted(block.items())
        ],
        "pivotal": {a: _cyc_to_json(v) for a, v in sorted(spec.pivotal.items())},
        "provenance": spec.provenance,
    }
    if spec.R is not None:
        doc["R"] = [
            {"labels": list(key), "row": rk, "col": ck, "value": _cyc_to_json(v)}
            for key, block in sorted(spec.R.items())
            for (rk, ck), v in sorted(block.items())
        ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_spec(path) -> CategorySpec:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise GenusCenterError(f"{path}: cannot be read ({exc.strerror or exc})") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GenusCenterError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise GenusCenterError(f"{path}: the top level is not a JSON object")
    for fieldname in ("name", "labels", "unit", "dual", "fusion", "F", "pivotal"):
        if fieldname not in doc:
            raise GenusCenterError(f"{path}: missing mandatory field {fieldname!r}")
    for fieldname in ("name", "unit", "provenance"):
        if not isinstance(doc.get(fieldname, ""), str):
            raise GenusCenterError(f"{path}: malformed field {fieldname!r} (not a string)")
    with _field(path, "dual"):
        dual = dict(doc["dual"])
    if not all(isinstance(a, str) for a in (*dual, *dual.values())):
        raise GenusCenterError(f"{path}: malformed field 'dual' (not a map of strings to strings)")
    for a, b in dual.items():
        if dual.get(b) != a:
            raise GenusCenterError(f"{path}: dual table is not involutive at {a!r}")
    fusion = {}
    with _field(path, "fusion"):
        for rec in doc["fusion"]:
            a, b, c, n = rec
            fusion[(a, b, c)] = _int(n)
    order = 1

    def scalar(obj, where):
        nonlocal order
        val = _cyc_from_json(obj, where)
        order = math.lcm(order, val.order)
        if order > MAX_ORDER:  # CategorySpec would lift every scalar to this order
            raise GenusCenterError(f"{where}: the scalars so far need order {order} > {MAX_ORDER}")
        return val

    F: dict = {}
    with _field(path, "F"):
        for rec in doc["F"]:
            a, b, c, d = rec["labels"]
            e, al, be = rec["row"]
            f, mu, nu = rec["col"]
            val = scalar(rec["value"], f"{path} F[{a},{b},{c};{d}]")
            F.setdefault((a, b, c, d), {})[((e, _int(al), _int(be)), (f, _int(mu), _int(nu)))] = val
    R = None
    if "R" in doc:
        R = {}
        with _field(path, "R"):
            for rec in doc["R"]:
                a, b, c = rec["labels"]
                val = scalar(rec["value"], f"{path} R[{a},{b};{c}]")
                R.setdefault((a, b, c), {})[(_int(rec["row"]), _int(rec["col"]))] = val
    with _field(path, "pivotal"):
        pivotal = {a: scalar(v, f"{path} pivotal[{a}]") for a, v in doc["pivotal"].items()}
    labels = doc["labels"]
    if not (isinstance(labels, list) and all(isinstance(a, str) for a in labels)):
        raise GenusCenterError(f"{path}: malformed field 'labels' (not a list of strings)")
    return CategorySpec(
        name=doc["name"],
        labels=tuple(labels),
        unit=doc["unit"],
        dual=dual,
        fusion=fusion,
        F=F,
        R=R,
        pivotal=pivotal,
        provenance=doc.get("provenance", ""),
    )
