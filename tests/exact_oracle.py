"""Exact references for the tests: the whole product, the centre and Hom dimensions over K.

``decompose`` works mod p from the products by a generating set, and
``center_rank`` never forms a Hom space of sigma-pairs; these compute the
same quantities exactly, over the field of the structure constants, so
the tests can compare against them.
"""

from genuscenter.center import carrier_basis, flatten_carrier_map, project_morphisms
from genuscenter.errors import GenusCenterError
from genuscenter.exactnum import C0, C1, ExactMatrix, matrix_rank, nullspace


def product(alg, x: dict, y: dict) -> dict:
    """x y in the algebra ``alg``, whose table holds the products by every basis element."""
    if len(alg.gens) != alg.dim:
        raise GenusCenterError("the exact product needs the products by every basis element")
    out: dict = {}
    for a, va in x.items():
        if va.is_zero():
            continue
        for b, vb in y.items():
            if vb.is_zero():
                continue
            row = alg.mult.get((a, b))
            if not row:
                continue
            coeff = va * vb
            for c, w in row.items():
                acc = out.get(c)
                val = coeff * w
                out[c] = val if acc is None else acc + val
    return {c: v for c, v in out.items() if not v.is_zero()}


def center_basis(alg) -> list[dict]:
    """Exact basis of the center, by iterative commutant refinement."""
    basis = [{a: C1} for a in range(alg.dim)]
    for b in range(alg.dim):
        if not basis:
            break
        eb = {b: C1}
        rows = []
        for vec in basis:
            diff_ = product(alg, vec, eb)
            for c, v in product(alg, eb, vec).items():
                diff_[c] = diff_.get(c, C0) - v
            rows.append(diff_)
        coords = sorted({c for r in rows for c in r})
        if not coords:
            continue
        m = ExactMatrix(len(coords), len(basis))
        for k, r in enumerate(rows):
            for ci, c in enumerate(coords):
                if c in r:
                    m[ci, k] = r[c]
        null = nullspace(m)
        new_basis = []
        for t in null:
            vec: dict = {}
            for k, tk in enumerate(t):
                if tk.is_zero():
                    continue
                for c, v in basis[k].items():
                    vec[c] = vec.get(c, C0) + tk * v
            vec = {c: v for c, v in vec.items() if not v.is_zero()}
            if vec:
                new_basis.append(vec)
        basis = new_basis
    return basis


def hom_Z_dim(spec, sigma, px, py) -> int:
    """dim of the sigma-morphisms px -> py: the rank of the projected basis maps."""
    basis = carrier_basis(spec, px.words, py.words)
    if not basis:
        return 0
    rows = [flatten_carrier_map(p) for p in project_morphisms(spec, sigma, px, py, basis)]
    return matrix_rank(ExactMatrix(len(rows), len(rows[0]), rows))
