"""Exact decomposition of finite-dimensional semisimple algebras.

The center is computed by exact commutant refinement.  Primitive central
idempotents always have rational coordinates on the Q-basis of the
center obtained by adjoining the zeta-power multiples of a cyclotomic
basis, so they are recovered by clustering the spectrum of a generic
central element numerically, rounding the spectral projector applied to
the unit coordinatewise to rationals, and verifying e*e = e exactly; a
short exact Newton refinement (x -> 3x^2 - 2x^3) handles seeds that
round imperfectly.  Block sizes come from exact traces of idempotent
multiplication operators.  A float-only decomposition of the left
regular representation is kept as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NonSplitError
from .exactnum import Cyclotomic, ExactMatrix, cyclotomic_polynomial, rational

__all__ = ["AlgebraData", "center_basis", "decompose", "float_decompose"]


@dataclass
class AlgebraData:
    """Structure constants e_a e_b = sum_c mult[(a,b)][c] e_c."""

    dim: int
    mult: dict
    unit: dict  # coordinates of the unit element

    def product(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for a, va in x.items():
            if va.is_zero():
                continue
            for b, vb in y.items():
                if vb.is_zero():
                    continue
                row = self.mult.get((a, b))
                if not row:
                    continue
                coeff = va * vb
                for c, w in row.items():
                    acc = out.get(c)
                    val = coeff * w
                    out[c] = val if acc is None else acc + val
        return {c: v for c, v in out.items() if not v.is_zero()}

    def check_unit(self) -> bool:
        for a in range(self.dim):
            basis_vec = {a: rational(1)}
            if self.product(self.unit, basis_vec) != basis_vec:
                return False
            if self.product(basis_vec, self.unit) != basis_vec:
                return False
        return True

    def check_associative(self) -> bool:
        for a in range(self.dim):
            ea = {a: rational(1)}
            for b in range(self.dim):
                eb = {b: rational(1)}
                ab = self.product(ea, eb)
                for c in range(self.dim):
                    ec = {c: rational(1)}
                    if self.product(ab, ec) != self.product(ea, self.product(eb, ec)):
                        return False
        return True

    def left_trace(self, x: dict) -> Cyclotomic:
        """Trace of left multiplication by x."""
        out = Cyclotomic.zero()
        for b in range(self.dim):
            col = self.product(x, {b: rational(1)})
            if b in col:
                out = out + col[b]
        return out

    def field_order(self) -> int:
        order = 1
        for row in self.mult.values():
            for v in row.values():
                order = math.lcm(order, v.order)
        for v in self.unit.values():
            order = math.lcm(order, v.order)
        return order


def center_basis(alg: AlgebraData) -> list[dict]:
    """Exact basis of the center, by iterative commutant refinement."""
    basis = [{a: rational(1)} for a in range(alg.dim)]
    for b in range(alg.dim):
        if not basis:
            break
        eb = {b: rational(1)}
        rows = []
        for vec in basis:
            diff_ = alg.product(vec, eb)
            for c, v in alg.product(eb, vec).items():
                diff_[c] = diff_.get(c, rational(0)) - v
            rows.append(diff_)
        coords = sorted({c for r in rows for c in r})
        if not coords:
            continue
        m = ExactMatrix(len(coords), len(basis))
        for k, r in enumerate(rows):
            for ci, c in enumerate(coords):
                if c in r:
                    m[ci, k] = r[c]
        from .exactnum import nullspace

        null = nullspace(m)
        new_basis = []
        for t in null:
            vec: dict = {}
            for k, tk in enumerate(t):
                if tk.is_zero():
                    continue
                for c, v in basis[k].items():
                    vec[c] = vec.get(c, rational(0)) + tk * v
            vec = {c: v for c, v in vec.items() if not v.is_zero()}
            if vec:
                new_basis.append(vec)
        basis = new_basis
    return basis


class _CenterArith:
    """Exact arithmetic in the center, in coordinates over the K' basis."""

    def __init__(self, alg: AlgebraData, zbasis: list[dict]):
        self.alg = alg
        self.z = zbasis
        self.r = len(zbasis)
        coords = sorted({c for zz in zbasis for c in zz})
        self.coords = coords
        m = ExactMatrix(len(coords), self.r)
        for j, zz in enumerate(zbasis):
            for ci, c in enumerate(coords):
                if c in zz:
                    m[ci, j] = zz[c]
        self._solve_mat = m
        from .exactnum import solve as lin_solve

        self._lin_solve = lin_solve
        self.table = {}
        for i in range(self.r):
            for j in range(i, self.r):
                prod = alg.product(zbasis[i], zbasis[j])
                rhs = [prod.get(c, rational(0)) for c in coords]
                got = lin_solve(m, rhs)
                self.table[(i, j)] = got
                self.table[(j, i)] = got
        unit_rhs = [alg.unit.get(c, rational(0)) for c in coords]
        self.unit = lin_solve(m, unit_rhs)

    def mul(self, x: list, y: list) -> list:
        out = [rational(0)] * self.r
        for i in range(self.r):
            if x[i].is_zero():
                continue
            for j in range(self.r):
                if y[j].is_zero():
                    continue
                coeff = x[i] * y[j]
                tab = self.table[(i, j)]
                for k in range(self.r):
                    if not tab[k].is_zero():
                        out[k] = out[k] + coeff * tab[k]
        return out

    def to_algebra(self, x: list) -> dict:
        vec: dict = {}
        for j, c in enumerate(x):
            if c.is_zero():
                continue
            for k, v in self.z[j].items():
                vec[k] = vec.get(k, rational(0)) + c * v
        return {k: v for k, v in vec.items() if not v.is_zero()}


def _phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


def decompose(alg: AlgebraData, rng_seed: int = 7, working_order: int = 1):
    """(rank, block_dims, idempotents) of a split semisimple algebra.

    Eigenvalues of a generic central element are located numerically in
    every complex embedding of the working cyclotomic field, assembled
    into Galois orbits, and reconstructed as exact field elements; each
    block then comes from an exact kernel computation.  All acceptance
    paths end in exact verifications; failures raise NonSplitError.
    """
    zb = center_basis(alg)
    r = len(zb)
    if r == 0:
        raise NonSplitError("algebra has empty center; not unital?")
    arith = _CenterArith(alg, zb)
    base_order = math.lcm(alg.field_order(), working_order)
    for zz in zb:
        for v in zz.values():
            base_order = math.lcm(base_order, v.order)
    rng = np.random.default_rng(rng_seed)
    last = "no attempt"
    # The eigenvalues may generate a slightly larger cyclotomic field than
    # the structure constants (twist content); escalate the working field
    # through small multiples before reporting a genuine splitting failure.
    for mult in (1, 2, 3, 4, 5, 8, 7, 9, 16):
        order = math.lcm(base_order, mult)
        phi = _phi(order)
        free = max(1, len([a for a in range(1, order + 1) if math.gcd(a, order) == 1]) // 2)
        if r ** max(0, free - 1) > 500_000:
            continue
        for _attempt in range(3):
            spread = 9 * (1 + _attempt) ** 2
            gen = []
            for _i in range(r):
                coeffs = {}
                for j in range(min(phi, 3)):
                    exp = (j * max(1, phi // 3)) % max(phi, 1)
                    coeffs[exp] = coeffs.get(exp, Fraction(0)) + Fraction(
                        int(rng.integers(-spread, spread + 1))
                    )
                gen.append(Cyclotomic(order, {e: q for e, q in coeffs.items() if q}))
            try:
                idem = _find_idempotents(arith, gen, order, phi)
                return _verify_and_measure(alg, arith, idem)
            except _RetrySplit as exc:
                last = str(exc)
                continue
    raise NonSplitError(
        "central idempotent search failed after retries; "
        f"minimal-polynomial obstruction: {_minpoly_text(arith, base_order)} ({last})"
    )


class _RetrySplit(Exception):
    pass


def _embed_at(v: Cyclotomic, order: int, a: int) -> complex:
    out = 0j
    lifted = v.lift(order)
    for e, x in enumerate(lifted.num):
        if x:
            out += (x / lifted.den) * np.exp(2j * np.pi * a * e / order)
    return out


def _find_idempotents(arith: _CenterArith, gen, order, phi):
    """Exact primitive central idempotents from a generic element."""
    r = arith.r
    units = [a for a in range(1, order + 1) if math.gcd(a, order) == 1]
    # Left-multiplication matrix of gen in every complex embedding.
    cols_exact = []
    for j in range(r):
        ej = [rational(1) if k == j else rational(0) for k in range(r)]
        cols_exact.append(arith.mul(gen, ej))
    eigs = {}
    for a in units:
        m = np.array(
            [[_embed_at(cols_exact[j][i], order, a) for j in range(r)] for i in range(r)]
        )
        vals = np.linalg.eigvals(m)
        eigs[a] = list(vals)
        if _min_gap(vals) < 1e-7:
            raise _RetrySplit("generic element has nearly equal eigenvalues")
    # Pair each embedding with its complex conjugate to halve the search.
    free_classes = []
    seen = set()
    for a in units:
        if a in seen:
            continue
        seen.add(a)
        seen.add((order - a) % order if order > 1 else a)
        free_classes.append(a)
    minpoly = _krylov_minpoly(arith, gen)
    idempotents = []
    remaining_anchor = list(range(r))
    while remaining_anchor:
        k0 = remaining_anchor[0]
        lam = _match_orbit(arith, gen, minpoly, eigs, free_classes, order, phi, k0)
        if lam is None:
            raise _RetrySplit(
                f"no exact eigenvalue matches anchor {eigs[1][k0]:.6f}"
            )
        vec = _eigen_idempotent(arith, gen, lam)
        if vec is None:
            raise _RetrySplit("exact eigen-kernel is not one-dimensional")
        idempotents.append(vec)
        # Remove this orbit's floats from the anchor pool.
        lam_emb = _embed_at(lam, order, 1)
        remaining_anchor = [
            k for k in remaining_anchor if abs(eigs[1][k] - lam_emb) > 1e-7
        ]
    return idempotents


def _min_gap(vals) -> float:
    vs = sorted(vals, key=lambda z: (z.real, z.imag))
    best = float("inf")
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            best = min(best, abs(vs[i] - vs[j]))
    return best if vs else float("inf")


def _match_orbit(arith, gen, minpoly, eigs, free_classes, order, phi, k0):
    """Exact eigenvalue of gen whose embedding-1 value is eigs[1][k0]."""
    import itertools

    anchor = eigs[1][k0]
    basis_exp = list(range(phi))
    pools = [(a, eigs[a]) for a in free_classes if a != 1]

    emb_rows = {}
    for a in [1] + [p[0] for p in pools]:
        emb_rows[a] = [np.exp(2j * np.pi * a * e / order) for e in basis_exp]
        ca = (order - a) % order if order > 1 else a
        emb_rows[ca] = [np.exp(2j * np.pi * ca * e / order) for e in basis_exp]

    def assemble(pairs):
        rows, rhs = [], []
        for a, val in pairs:
            rows.append(emb_rows[a])
            rhs.append(val)
            ca = (order - a) % order if order > 1 else a
            if ca != a:
                rows.append(emb_rows[ca])
                rhs.append(np.conj(val))
        sol, _res, _rank, _sv = np.linalg.lstsq(
            np.array(rows), np.array(rhs), rcond=None
        )
        return sol

    combos = itertools.product(*(pool for _a, pool in pools)) if pools else [()]
    for choice in combos:
        pairs = [(1, anchor)] + [(pools[i][0], choice[i]) for i in range(len(pools))]
        sol = assemble(pairs)
        if np.max(np.abs(sol.imag)) > 1e-7:
            continue
        # Wrong tuples solve to generic reals; true eigenvalue coordinates
        # are rationals of moderate height, so a tight rounding tolerance
        # at bounded denominators rejects junk before exact evaluation.
        for denom in (1, 64, 1 << 13):
            coeffs = {}
            bad = False
            for e, z in zip(basis_exp, sol):
                q = Fraction(float(z.real)).limit_denominator(denom)
                if abs(float(q) - z.real) > 1e-9:
                    bad = True
                    break
                if q:
                    coeffs[e] = q
            if bad:
                continue
            lam = Cyclotomic(order, coeffs)
            if _poly_eval_zero(minpoly, lam):
                return lam
            break  # rounded cleanly but failed exactly: wrong tuple
    return None


def _krylov_minpoly(arith, gen):
    """Exact monic minimal polynomial of gen acting on the center."""
    from .exactnum import nullspace

    r = arith.r
    powers = [list(arith.unit)]
    cur = list(arith.unit)
    for _ in range(r):
        cur = arith.mul(cur, gen)
        powers.append(list(cur))
    for deg in range(1, r + 1):
        m = ExactMatrix(
            r, deg + 1, [[powers[j][k] for j in range(deg + 1)] for k in range(r)]
        )
        null = nullspace(m)
        if null:
            rel = null[0]
            lead = rel[deg]
            if lead.is_zero():
                continue
            inv = lead.inverse()
            return [c * inv for c in rel]
    raise _RetrySplit("no minimal polynomial found")


def _poly_eval_zero(poly, lam) -> bool:
    acc = Cyclotomic.zero(lam.order)
    for c in reversed(poly):
        acc = acc * lam + c
    return acc.is_zero()


def _eigen_idempotent(arith, gen, lam):
    """The primitive idempotent spanning ker(gen - lam), exactly."""
    from .exactnum import nullspace

    r = arith.r
    m = ExactMatrix(r, r)
    for j in range(r):
        ej = [rational(1) if k == j else rational(0) for k in range(r)]
        col = arith.mul(gen, ej)
        for i in range(r):
            m[i, j] = col[i] - (lam if i == j else rational(0))
    null = nullspace(m)
    if len(null) != 1:
        return None
    w = null[0]
    sq = arith.mul(w, w)
    # sq = s*w for a scalar s; find s from the first nonzero coordinate.
    s = None
    for k in range(r):
        if not w[k].is_zero():
            s = sq[k] / w[k]
            break
    if s is None or s.is_zero():
        return None
    sinv = s.inverse()
    e = [v * sinv for v in w]
    if arith.mul(e, e) != e:
        return None
    return e


def _verify_and_measure(alg: AlgebraData, arith: _CenterArith, idem):
    r = arith.r
    total = [rational(0)] * r
    for e in idem:
        for k in range(r):
            total[k] = total[k] + e[k]
    if any(not (total[k] - arith.unit[k]).is_zero() for k in range(r)):
        raise _RetrySplit("idempotents do not sum to the unit")
    for i in range(len(idem)):
        for j in range(len(idem)):
            prod = arith.mul(idem[i], idem[j])
            want = idem[i] if i == j else [rational(0)] * r
            if any(not (prod[k] - want[k]).is_zero() for k in range(r)):
                raise _RetrySplit("idempotents fail orthogonality")
    block_dims = []
    idempotents_alg = []
    for e in idem:
        vec = arith.to_algebra(e)
        idempotents_alg.append(vec)
        tr = alg.left_trace(vec)
        if not tr.is_rational():
            raise NonSplitError("idempotent trace is not rational")
        frac = tr.as_rational()
        if frac.denominator != 1 or frac.numerator < 0:
            raise NonSplitError(f"idempotent trace {frac} is not a dimension")
        rank = int(frac)
        m = math.isqrt(rank)
        if m * m != rank:
            raise NonSplitError(
                f"block of dimension {rank} is not a perfect square; the "
                "algebra does not split over the working cyclotomic field"
            )
        block_dims.append(m)
    block_dims.sort()
    if sum(m * m for m in block_dims) != alg.dim:
        raise NonSplitError("sum of squared block sizes misses the algebra dimension")
    return len(block_dims), block_dims, idempotents_alg


def _minpoly_text(arith: _CenterArith, order: int) -> str:
    """Exact minimal polynomial of a deterministic central element."""
    r = arith.r
    x = [rational(min(i + 2, 11)) for i in range(r)]
    powers = [list(arith.unit)]
    cur = list(arith.unit)
    for _ in range(r):
        cur = arith.mul(cur, x)
        powers.append(list(cur))
    from .exactnum import nullspace

    m = ExactMatrix(
        r, len(powers), [[powers[j][k] for j in range(len(powers))] for k in range(r)]
    )
    null = nullspace(m)
    if not null:
        return "(no relation found)"
    rel = null[0]
    terms = [f"({c})*x^{d}" for d, c in enumerate(rel) if not c.is_zero()]
    return " + ".join(terms)


def float_decompose(alg: AlgebraData, rng_seed: int = 11):
    """Independent numeric oracle: (rank, block_dims) via the regular rep."""
    n = alg.dim
    t = np.zeros((n, n, n), dtype=complex)
    for (a, b), row in alg.mult.items():
        for c, v in row.items():
            t[a, b, c] = v.embed()
    rows = []
    for b in range(n):
        lb = t[:, b, :].T  # left mult by e_b
        rb = t[b, :, :].T  # right mult by e_b
        rows.append(lb - rb)
    stack = np.vstack(rows)
    _, s, vh = np.linalg.svd(stack)
    tol = max(stack.shape) * np.finfo(float).eps * (s[0] if len(s) else 1.0)
    null = vh[np.sum(s > max(tol, 1e-9)) :].conj()
    rank = null.shape[0]
    rng = np.random.default_rng(rng_seed)
    coeffs = rng.normal(size=rank)
    z = coeffs @ null
    lz = np.einsum("a,abc->cb", z, t)
    evals = np.linalg.eigvals(lz)
    evals = sorted(evals, key=lambda w: (round(w.real, 6), round(w.imag, 6)))
    clusters: list[list[complex]] = []
    for ev in evals:
        if clusters and abs(ev - clusters[-1][-1]) < 1e-6:
            clusters[-1].append(ev)
        else:
            clusters.append([ev])
    dims = []
    for cl in clusters:
        m = math.isqrt(len(cl))
        if m * m != len(cl):
            raise NonSplitError(
                f"float oracle: eigenvalue multiplicity {len(cl)} is not a square"
            )
        dims.append(m)
    if len(clusters) != rank:
        raise NonSplitError(
            f"float oracle: {len(clusters)} spectral clusters vs center dim {rank}"
        )
    return rank, sorted(dims)
