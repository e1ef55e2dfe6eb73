"""Exact references for the tests: the whole product, the centre, Hom dimensions over K,
and the averaging projection onto sigma-morphisms.

``decompose`` works mod p from the products by a generating set, and
``center_rank`` never forms a Hom space of sigma-pairs; these compute the
same quantities exactly, over the field of the structure constants, so
the tests can compare against them.

The projection averages a map over created leg pairs.  Creation runs the
contraction word of ``center._contract_plan`` backwards, each crossing's
sense flipped, to take a fresh pair to its sorted place; the created legs
are then contracted through the target pair by ``center._contract``.
``adjunction_maps.forward`` builds sigma-morphisms by contraction alone,
and the tests check its images against this projection.
"""

from genuscenter.center import (
    CarrierMap,
    SigmaPair,
    _contract,
    _contract_plan,
    _flip,
    carrier_basis,
    flatten_carrier_map,
)
from genuscenter.errors import GenusCenterError
from genuscenter.exactnum import C0, C1, ExactMatrix, matrix_rank, nullspace
from genuscenter.fusion import quantum_dims
from genuscenter.gluing import Gluing
from genuscenter.trees import ONE, Morphism


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


def _create(spec, sigma: Gluing, pair: SigmaPair, s0: int, mor0: Morphism, need):
    """Create all leg pairs around the carrier, weaving through the pair.

    Creating orbit m runs its contraction (``_contract_plan``) backwards: a
    cup at gap a_pos - 1, the gamma column at a_pos + 1, then the word
    reversed with each crossing's sense flipped, at the width of the
    summand it acts on.

    ``mor0``: Morphism(src -> word_{s0}).  Returns a dict
    {(alpha, s2): Morphism(src -> legs + word_{s2} + legs)} over the
    summands s2 in ``need``.  ``reach[m + 1]`` holds the summands from
    which orbits m, ..., 0 can still lead into ``need``; a branch outside
    it is dropped before its cup is applied.
    """
    reach = [set(need)]
    for hb in pair.braidings:
        reach.append({
            s for s in range(len(pair.words))
            if any(s2 in reach[-1] for z in spec.labels for s2, _ in hb.columns(z, s))
        })
    current = {((), s0): mor0} if s0 in reach[sigma.n] else {}
    for m in range(sigma.n - 1, -1, -1):
        nxt: dict = {}
        for (alpha_tail, s), mor in current.items():
            a_pos = _contract_plan(sigma, m, len(pair.words[s]))[1]
            for a in spec.labels:
                cols = pair.braidings[m].columns(spec.dual[a], s)
                cols = [(s2, col) for s2, col in cols if s2 in reach[m]]
                if not cols:
                    continue
                st = mor.apply(("cup", a_pos - 1, a, False))
                for s2, col in cols:
                    word = _contract_plan(sigma, m, len(pair.words[s2]))[0]
                    back = tuple(("braid", i, _flip(sense)) for _b, i, sense in reversed(word))
                    st2 = col.apply_at(st, a_pos + 1, back)
                    key = ((a,) + alpha_tail, s2)
                    nxt[key] = nxt[key] + st2 if key in nxt else st2
        current = nxt
    return current


def project_morphisms(spec, sigma: Gluing, px: SigmaPair, py: SigmaPair, fs) -> list:
    """The averaging projection onto sigma-morphisms of each map in fs.

    The leg pairs are created once per source summand of px for the whole
    batch, and only toward the summands that some map of the batch reads.
    The contraction of created entry alpha carries the weight
    prod_m d(alpha_m) / dim(C), with dim(C) = sum_a d(a)^2.
    """
    if any(f.src != px.words or f.tgt != py.words for f in fs):
        raise GenusCenterError("morphism shape does not match the pair carriers")
    omega, _ = quantum_dims(spec)
    inv_total = omega.total.inverse()
    need = {sx for f in fs for (_ty, sx) in f.blocks}
    outs: list = [{} for _ in fs]
    mid_pos = sigma.n + 1
    for sx0, w in enumerate(px.words):
        created = _create(spec, sigma, px, sx0, Morphism.identity(spec, tuple(w)), need)
        for (alpha, sx), mor in created.items():
            weight = ONE
            for a in alpha:
                weight = weight * omega.weights[a] * inv_total
            for f, out_blocks in zip(fs, outs):
                for (ty, sx2), fb in f.blocks.items():
                    if sx2 != sx:
                        continue
                    st = mor.apply_coupon(mid_pos, fb)
                    for ty2, m2 in _contract(spec, sigma, py, alpha, ty, st).items():
                        m2 = m2.scale(weight)
                        key = (ty2, sx0)
                        out_blocks[key] = out_blocks[key] + m2 if key in out_blocks else m2
    return [CarrierMap(spec, px.words, py.words, ob) for ob in outs]
