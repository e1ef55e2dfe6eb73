"""Centers of higher genus: induced pairs, projections, tube algebras.

Carriers of sigma-pairs are finite direct sums of tensor words of simple
labels.  A half-braiding is stored blockwise: for each simple argument Z
and source summand, the exact morphism (Z, word) -> (word', Z).  The
induced pair on an object threads the argument strand through the leg
pair of each orbit via dual fusion/splitting vertices; all leg plumbing
(migration of a leg across the middle block, marshalling next to it,
contraction, creation) is built from the same strand-level moves, so the
adjunction identities and algebra laws below are exact checks of the
whole construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct

from .algebra import AlgebraData, decompose, float_decompose
from .errors import GenusCenterError, IllFormedDiagramError
from .exactnum import Cyclotomic, ExactMatrix, matrix_rank, rational
from .fusion import CategorySpec, ValidationReport, quantum_dims
from .gluing import Gluing, comm_case, orbit_info
from .trees import Morphism, all_trees, hom_dim, trees

__all__ = [
    "FormalObject",
    "HalfBraiding",
    "SigmaPair",
    "CarrierMap",
    "TubeAlgebra",
    "induce_object",
    "induced_half_braidings",
    "verify_sigma_pair",
    "project_morphism",
    "hom_Z_dim",
    "adjunction_maps",
    "tube_algebra",
    "center_rank",
]

ONE = rational(1)

# Crossing conventions for the strand plumbing, fixed by the exact test
# battery (hexagon, :comm, adjunction, algebra laws); see tests.
GAMMA_LEFT = "under"     # argument strand passing legs left of its orbit
GAMMA_RIGHT = "under"    # argument strand passing legs right of its orbit
MOVE_SENSE = "over"      # a travelling leg passes in front of other legs
MIGRATE_SENSE = "under"  # a travelling leg passes behind the middle block


@dataclass(frozen=True)
class FormalObject:
    """Nonnegative multiplicities of simple labels."""

    multiplicities: tuple

    @staticmethod
    def of(label: str) -> "FormalObject":
        return FormalObject(multiplicities=((label, 1),))

    @staticmethod
    def from_dict(d: dict) -> "FormalObject":
        return FormalObject(tuple(sorted((k, v) for k, v in d.items() if v)))

    def as_dict(self) -> dict:
        return dict(self.multiplicities)

    def mult(self, label: str) -> int:
        return dict(self.multiplicities).get(label, 0)


def _as_formal(spec, x) -> FormalObject:
    if isinstance(x, FormalObject):
        return x
    if isinstance(x, str):
        if x not in spec.dual:
            raise GenusCenterError(f"unknown label {x!r}")
        return FormalObject.of(x)
    raise GenusCenterError(f"cannot interpret {x!r} as an object")


def _assignments(spec, sigma: Gluing):
    return list(iproduct(spec.labels, repeat=sigma.n))


def _word_for(spec, sigma: Gluing, alpha, middle) -> tuple:
    n = sigma.n
    leg = {}
    for m, (lo, hi) in enumerate(sigma.pairs()):
        leg[lo] = alpha[m]
        leg[hi] = spec.dual[alpha[m]]
    left = tuple(leg[k] for k in range(1, n + 1))
    right = tuple(leg[k] for k in range(n + 1, 2 * n + 1))
    return left + tuple(middle) + right


def induce_object(spec, sigma: Gluing, x) -> FormalObject:
    """Decomposition of the induced object into simples."""
    fx = _as_formal(spec, x)
    out: dict = {}
    for lab, mult in fx.multiplicities:
        for alpha in _assignments(spec, sigma):
            word = _word_for(spec, sigma, alpha, (lab,))
            for b in spec.labels:
                d = hom_dim(spec, word, b)
                if d:
                    out[b] = out.get(b, 0) + mult * d
    return FormalObject.from_dict(out)


# ---------------------------------------------------------------------------
# sigma-pairs


@dataclass
class HalfBraiding:
    """Blocks (Z, source summand) -> [(target summand, morphism)]."""

    blocks: dict

    def columns(self, z: str, si: int):
        return self.blocks.get((z, si), [])


@dataclass
class SigmaPair:
    spec: CategorySpec
    sigma: Gluing
    words: tuple  # carrier summand words
    braidings: list  # HalfBraiding per orbit, ascending by low leg
    meta: tuple = ()  # optional provenance of summands

    def carrier_object(self) -> FormalObject:
        out: dict = {}
        for w in self.words:
            for b in self.spec.labels:
                d = hom_dim(self.spec, w, b)
                if d:
                    out[b] = out.get(b, 0) + d
        return FormalObject.from_dict(out)


def _rho(spec, z: str, a: str, b: str, mu: int) -> Morphism:
    """dual(a) -> (dual(b), z): rotation of the splitting vertex b -> (z, a)."""
    m = Morphism.identity(spec, (spec.dual[a],))
    m = m.apply(("cup", 0, b, True))
    m = m.apply(("split", 2, z, a, mu))
    m = m.apply(("cap", 3, a, True))
    return m


def _induced_gamma_column(spec, sigma, alpha, middle, m, z):
    """gamma_[m] at argument z on the alpha summand: [(alpha', Morphism)]."""
    n = sigma.n
    lo, hi = sigma.pairs()[m]
    word = _word_for(spec, sigma, alpha, middle)
    p = lo if lo <= n else lo + len(middle)
    q = hi if hi <= n else hi + len(middle)
    a = alpha[m]
    base = Morphism.identity(spec, (z,) + word)
    for j in range(1, p):
        base = base.apply(("braid", j, GAMMA_LEFT))
    out = []
    total_len = len(word)
    for b in spec.channels(z, a):
        for mu in range(spec.N(z, a, b)):
            st = base.apply(("merge", p, b, mu))
            st = st.apply_coupon(q, _rho(spec, z, a, b, mu))
            for j in range(q + 1, total_len + 1):
                st = st.apply(("braid", j, GAMMA_RIGHT))
            alpha2 = alpha[:m] + (b,) + alpha[m + 1 :]
            out.append((alpha2, st))
    return out


def induced_half_braidings(spec, sigma: Gluing, x, _cache=True) -> SigmaPair:
    """The induced sigma-pair on x, with explicit half-braiding blocks."""
    fx = _as_formal(spec, x)
    key = ("induced", tuple(sigma.pairing), fx.multiplicities)
    if _cache and key in spec._cache:
        return spec._cache[key]
    assigns = _assignments(spec, sigma)
    meta = []
    for lab, mult in fx.multiplicities:
        for copy in range(mult):
            for alpha in assigns:
                meta.append((lab, copy, alpha))
    words = tuple(_word_for(spec, sigma, alpha, (lab,)) for lab, _, alpha in meta)
    index = {m: i for i, m in enumerate(meta)}
    braidings = []
    for m in range(sigma.n):
        blocks: dict = {}
        for si, (lab, copy, alpha) in enumerate(meta):
            for z in spec.labels:
                cols = []
                for alpha2, mor in _induced_gamma_column(
                    spec, sigma, alpha, (lab,), m, z
                ):
                    ti = index[(lab, copy, alpha2)]
                    cols.append((ti, mor))
                blocks[(z, si)] = cols
        braidings.append(HalfBraiding(blocks=blocks))
    pair = SigmaPair(
        spec=spec, sigma=sigma, words=words, braidings=braidings, meta=tuple(meta)
    )
    if _cache:
        spec._cache[key] = pair
    return pair


# ---------------------------------------------------------------------------
# maps between sum carriers


@dataclass
class CarrierMap:
    """Morphism between direct sums of words, blockwise."""

    spec: CategorySpec
    src: tuple
    tgt: tuple
    blocks: dict = field(default_factory=dict)  # (ti, si) -> Morphism

    @staticmethod
    def identity(spec, words) -> "CarrierMap":
        words = tuple(tuple(w) for w in words)
        return CarrierMap(
            spec,
            words,
            words,
            {(i, i): Morphism.identity(spec, w) for i, w in enumerate(words)},
        )

    @staticmethod
    def zero(spec, src, tgt) -> "CarrierMap":
        return CarrierMap(
            spec, tuple(tuple(w) for w in src), tuple(tuple(w) for w in tgt), {}
        )

    def block(self, ti: int, si: int) -> Morphism:
        got = self.blocks.get((ti, si))
        if got is not None:
            return got
        return Morphism.zero(self.spec, self.src[si], self.tgt[ti])

    def compose(self, other: "CarrierMap") -> "CarrierMap":
        if other.tgt != self.src:
            raise IllFormedDiagramError("carrier maps not composable")
        blocks: dict = {}
        for (ti, ki), m1 in self.blocks.items():
            for (kj, si), m2 in other.blocks.items():
                if ki != kj:
                    continue
                prod = m1.compose(m2)
                if prod.is_zero():
                    continue
                key = (ti, si)
                blocks[key] = blocks[key] + prod if key in blocks else prod
        return CarrierMap(self.spec, other.src, self.tgt, blocks)

    def __add__(self, other: "CarrierMap") -> "CarrierMap":
        if (self.src, self.tgt) != (other.src, other.tgt):
            raise IllFormedDiagramError("cannot add carrier maps of different shapes")
        blocks = dict(self.blocks)
        for key, m in other.blocks.items():
            blocks[key] = blocks[key] + m if key in blocks else m
        return CarrierMap(self.spec, self.src, self.tgt, blocks)

    def scale(self, s) -> "CarrierMap":
        return CarrierMap(
            self.spec, self.src, self.tgt,
            {k: m.scale(s) for k, m in self.blocks.items()},
        )

    def __eq__(self, other):
        if not isinstance(other, CarrierMap):
            return NotImplemented
        if (self.src, self.tgt) != (other.src, other.tgt):
            return False
        keys = set(self.blocks) | set(other.blocks)
        return all(self.block(*k) == other.block(*k) for k in keys)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.blocks.values())


def carrier_basis(spec, src_words, tgt_words):
    """Elementary CarrierMap basis of Hom(sum src, sum tgt)."""
    out = []
    for si, sw in enumerate(src_words):
        st = all_trees(spec, tuple(sw))
        for ti, tw in enumerate(tgt_words):
            tt = all_trees(spec, tuple(tw))
            for c in spec.labels:
                for scol, s_tree in enumerate(st.get(c, [])):
                    for trow, t_tree in enumerate(tt.get(c, [])):
                        m = ExactMatrix.zeros(len(tt[c]), len(st[c]))
                        m[trow, scol] = ONE
                        out.append(
                            CarrierMap(
                                spec, tuple(map(tuple, src_words)),
                                tuple(map(tuple, tgt_words)),
                                {(ti, si): Morphism(spec, tuple(sw), tuple(tw), {c: m})},
                            )
                        )
    return out


def flatten_carrier_map(f: CarrierMap):
    """Coefficient vector over carrier_basis(src, tgt), in matching order."""
    spec = f.spec
    out = []
    for si, sw in enumerate(f.src):
        st = all_trees(spec, tuple(sw))
        for ti, tw in enumerate(f.tgt):
            tt = all_trees(spec, tuple(tw))
            blk = f.blocks.get((ti, si))
            for c in spec.labels:
                ns, nt = len(st.get(c, [])), len(tt.get(c, []))
                for scol in range(ns):
                    for trow in range(nt):
                        if blk is None or c not in blk.blocks:
                            out.append(rational(0))
                        else:
                            out.append(blk.blocks[c][trow, scol])
    return out


# ---------------------------------------------------------------------------
# verification of sigma-pairs


def _apply_gamma(state: CarrierMap, pair: SigmaPair, m: int, pos: int, z: str) -> CarrierMap:
    """Post-compose 1 (x) gamma_[m],z (x) 1 with the carrier at strand pos."""
    spec = state.spec
    blocks: dict = {}
    tgt_words: dict = {}
    hb = pair.braidings[m]
    for (ti, si), mor in state.blocks.items():
        for t2, coup in hb.columns(z, ti):
            new = mor.apply_coupon(pos, coup)
            key = (t2, si)
            blocks[key] = blocks[key] + new if key in blocks else new
            tgt_words[t2] = new.tgt
    tgt = tuple(
        tgt_words[t] if t in tgt_words else _shift_word(state, pair, t, pos, z)
        for t in range(len(pair.words))
    )
    return CarrierMap(spec, state.src, tgt, blocks)


def _shift_word(state: CarrierMap, pair: SigmaPair, t: int, pos: int, z: str):
    # Word of an absent summand: carrier word t with z moved past it.  Every
    # target word is pre + (z,) + carrier word + post, so summand 0 shows both.
    w = state.tgt[0]
    pre, post = w[: pos - 1], w[pos + len(pair.words[0]) :]
    return pre + tuple(pair.words[t]) + (z,) + post


def _hb_unit_ok(pair: SigmaPair) -> bool:
    spec = pair.spec
    u = spec.unit
    for si, w in enumerate(pair.words):
        cols = pair.braidings and [hb.columns(u, si) for hb in pair.braidings] or []
        for col in cols:
            expect = Morphism.identity(spec, (u,) + tuple(w))
            expect = expect.apply(("unit_remove", 1))
            expect = expect.apply(("unit_insert", len(w)))
            for ti, mor in col:
                if ti == si:
                    if mor != expect:
                        return False
                elif not mor.is_zero():
                    return False
    return True


def _hb_matrix(pair: SigmaPair, m: int, z: str):
    """Flattened gamma_[m],z over the tree bases, plus its shape."""
    spec = pair.spec
    src_spaces = []
    tgt_spaces = []
    for w in pair.words:
        src_spaces.append(all_trees(spec, (z,) + tuple(w)))
        tgt_spaces.append(all_trees(spec, tuple(w) + (z,)))
    rows = {c: sum(len(t.get(c, [])) for t in tgt_spaces) for c in spec.labels}
    cols = {c: sum(len(t.get(c, [])) for t in src_spaces) for c in spec.labels}
    mats = {c: ExactMatrix.zeros(rows[c], cols[c]) for c in spec.labels if rows[c] or cols[c]}
    col_off = {}
    off = {c: 0 for c in spec.labels}
    for si, sp in enumerate(src_spaces):
        for c in spec.labels:
            col_off[(si, c)] = off[c]
            off[c] += len(sp.get(c, []))
    row_off = {}
    off = {c: 0 for c in spec.labels}
    for ti, sp in enumerate(tgt_spaces):
        for c in spec.labels:
            row_off[(ti, c)] = off[c]
            off[c] += len(sp.get(c, []))
    hb = pair.braidings[m]
    for si in range(len(pair.words)):
        for ti, mor in hb.columns(z, si):
            for c, blk in mor.blocks.items():
                for i in range(blk.rows):
                    for j in range(blk.cols):
                        if not blk[i, j].is_zero():
                            mats[c][row_off[(ti, c)] + i, col_off[(si, c)] + j] = blk[i, j]
    return mats


def verify_sigma_pair(spec, sigma: Gluing, pair: SigmaPair) -> ValidationReport:
    """Invertibility, unit law, multiplicativity, and :comm, all exact."""
    bad: list[str] = []
    if len(pair.braidings) != sigma.n:
        return ValidationReport([f"expected {sigma.n} half-braidings"])
    if sigma.n == 0:
        return ValidationReport([])
    if not _hb_unit_ok(pair):
        bad.append("gamma at the unit is not the identity")

    for m in range(sigma.n):
        for z in spec.labels:
            for c, mat in _hb_matrix(pair, m, z).items():
                if mat.rows != mat.cols or matrix_rank(mat) != mat.rows:
                    bad.append(f"gamma_[{m}] at {z} is not invertible (charge {c})")
                    break

    # Multiplicativity: gamma respects fusion of the argument.
    for m in range(sigma.n):
        for z1 in spec.labels:
            for z2 in spec.labels:
                for w in spec.channels(z1, z2):
                    for mu in range(spec.N(z1, z2, w)):
                        if not _hexagon_ok(spec, pair, m, z1, z2, w, mu):
                            bad.append(
                                f"gamma_[{m}] multiplicativity fails at "
                                f"({z1},{z2};{w},{mu})"
                            )
    # Pairwise :comm relations.
    orbits = sigma.orbits()
    for i in range(sigma.n):
        for j in range(i + 1, sigma.n):
            case = comm_case(sigma, orbits[i], orbits[j])
            for z1 in spec.labels:
                for z2 in spec.labels:
                    if not _comm_ok(spec, pair, i, j, case, z1, z2):
                        bad.append(
                            f"comm case {case} fails for orbits ({i},{j}) at "
                            f"({z1},{z2})"
                        )
    return ValidationReport(bad)


def _carrier_id_with(spec, pair, prefix, suffix) -> CarrierMap:
    words = tuple(tuple(prefix) + tuple(w) + tuple(suffix) for w in pair.words)
    return CarrierMap.identity(spec, words)


def _hexagon_ok(spec, pair, m, z1, z2, w, mu) -> bool:
    # LHS: split w -> (z1, z2), then gamma at z2, then gamma at z1.
    lhs = _carrier_id_with(spec, pair, (w,), ())
    lhs = CarrierMap(
        spec, lhs.src, tuple(tuple((z1, z2)) + tuple(x) for x in pair.words),
        {k: v.apply(("split", 1, z1, z2, mu)) for k, v in lhs.blocks.items()},
    )
    lhs = _apply_gamma(lhs, pair, m, 2, z2)
    lhs = _apply_gamma(lhs, pair, m, 1, z1)
    # RHS: gamma at w, then split the trailing strand.
    rhs = _carrier_id_with(spec, pair, (w,), ())
    rhs = _apply_gamma(rhs, pair, m, 1, w)
    rhs = CarrierMap(
        spec, rhs.src, tuple(tuple(x) + (z1, z2) for x in pair.words),
        {
            k: v.apply(("split", len(pair.words[k[0]]) + 1, z1, z2, mu))
            for k, v in rhs.blocks.items()
        },
    )
    return lhs == rhs


def _comm_ok(spec, pair, i, j, case, z1, z2) -> bool:
    start = _carrier_id_with(spec, pair, (z2, z1), ())

    def gam(state, orbit, pos, z):
        return _apply_gamma(state, pair, orbit, pos, z)

    def braid_at(state, pos, sense):
        return CarrierMap(
            spec, state.src,
            tuple(
                t[: pos - 1] + (t[pos], t[pos - 1]) + t[pos + 1 :] for t in state.tgt
            ),
            {k: v.apply(("braid", pos, sense)) for k, v in state.blocks.items()},
        )

    def gamma_tilde(state, orbit, pos, z):
        # c_{z,X} c_{X,z} gamma_{orbit,z} : block at strand pos, z to its left.
        st = gam(state, orbit, pos, z)
        # z now right of the block; braid back over the block and forth.
        length = len(pair.words[0])
        # All carrier words in play have equal length for our carriers.
        for p in range(pos + length - 1, pos - 1, -1):
            st = braid_at(st, p, "over")  # c_{X,z}
        for p in range(pos, pos + length):
            st = braid_at(st, p, "over")  # c_{z,X}
        return st

    wlen = len(pair.words[0])
    if any(len(w) != wlen for w in pair.words):
        raise GenusCenterError("mixed-length carriers not supported in comm check")

    if case == 1:
        lhs = gamma_tilde(start, i, 2, z1)
        lhs = gam(lhs, j, 1, z2)
        rhs = braid_at(start, 1, "under")
        rhs = gam(rhs, j, 2, z2)
        rhs = gamma_tilde(rhs, i, 1, z1)
        rhs = braid_at(rhs, wlen + 1, "over")
    elif case == 2:
        lhs = gam(start, i, 2, z1)
        lhs = gam(lhs, j, 1, z2)
        rhs = braid_at(start, 1, "under")
        rhs = gam(rhs, j, 2, z2)
        rhs = gam(rhs, i, 1, z1)
        rhs = braid_at(rhs, wlen + 1, "under")
    else:
        lhs = gam(start, i, 2, z1)
        lhs = gam(lhs, j, 1, z2)
        rhs = braid_at(start, 1, "under")
        rhs = gam(rhs, j, 2, z2)
        rhs = gam(rhs, i, 1, z1)
        rhs = braid_at(rhs, wlen + 1, "over")
    return lhs == rhs


# ---------------------------------------------------------------------------
# leg plumbing: contraction and creation


def _flip(sense: str) -> str:
    return "under" if sense == "over" else "over"


def _move_strand(state: Morphism, tags, src_idx, dst_idx):
    """Braid the leg at list index src_idx to dst_idx; update tags.

    The mover stays in front of other legs (MOVE_SENSE) and behind the
    middle block (MIGRATE_SENSE); braid tokens flip with the direction so
    the geometry is the same either way.
    """
    pos_of = []
    p = 1
    for kind, val in tags:
        pos_of.append(p)
        p += 1 if kind == "leg" else val
    # All movements here act on single leg strands.
    if src_idx < dst_idx:
        cur = src_idx
        while cur < dst_idx:
            nxt = tags[cur + 1]
            width = 1 if nxt[0] == "leg" else nxt[1]
            sense = MOVE_SENSE if nxt[0] == "leg" else MIGRATE_SENSE
            base = pos_of[cur]
            for _ in range(width):
                state = state.apply(("braid", base, sense))
                base += 1
            tags[cur], tags[cur + 1] = tags[cur + 1], tags[cur]
            pos_of[cur + 1] = pos_of[cur] + width
            cur += 1
    else:
        cur = src_idx
        while cur > dst_idx:
            prv = tags[cur - 1]
            width = 1 if prv[0] == "leg" else prv[1]
            sense = _flip(MOVE_SENSE if prv[0] == "leg" else MIGRATE_SENSE)
            base = pos_of[cur - 1] + width - 1
            for _ in range(width):
                state = state.apply(("braid", base, sense))
                base -= 1
            tags[cur], tags[cur - 1] = tags[cur - 1], tags[cur]
            pos_of[cur - 1] = pos_of[cur] - width  # unused afterwards; kept coherent
            cur -= 1
    return state


def _contract(spec, sigma: Gluing, pair: SigmaPair, states, weighted: bool):
    """Contract all leg pairs through the carrier.

    ``states``: dict {(alpha, s): Morphism(src -> legs+word_s+legs)}.
    Returns dict {s: Morphism(src -> word_s)}.
    """
    omega, _ = quantum_dims(spec)
    orbits = sigma.pairs()
    n = sigma.n
    current = states
    for m in range(n):
        lo, hi = orbits[m]
        nxt: dict = {}
        for (alpha, s), mor in current.items():
            a = alpha[m]
            active = list(range(m, n))
            legs = []
            for i in active:
                legs.extend(sigma.pairs()[i])
            left = sorted(x for x in legs if x <= n)
            right = sorted(x for x in legs if x > n)
            tags = [("leg", x) for x in left] + [("mid", len(pair.words[s]))] + [
                ("leg", x) for x in right
            ]
            mid_idx = len(left)
            st = mor

            def idx_of(leg):
                for k, (kind, val) in enumerate(tags):
                    if kind == "leg" and val == leg:
                        return k
                raise AssertionError

            def mid_index():
                for k, (kind, _) in enumerate(tags):
                    if kind == "mid":
                        return k
                raise AssertionError

            if hi <= n:
                st = _move_strand(st, tags, idx_of(hi), mid_index())
            if lo > n:
                st = _move_strand(st, tags, idx_of(lo), mid_index())
            st = _move_strand(st, tags, idx_of(lo), mid_index() - 1)
            st = _move_strand(st, tags, idx_of(hi), mid_index() + 1)
            # strand layout now: ... a, [mid], dual(a) ...
            mi = mid_index()
            pos = 1 + sum(1 for kk in range(mi - 1) if tags[kk][0] == "leg")
            pos += 0  # legs before are single strands
            # compute exact strand position of the 'a' leg
            pos = 0
            for kk in range(mi - 1):
                pos += 1 if tags[kk][0] == "leg" else tags[kk][1]
            a_pos = pos + 1
            hb = pair.braidings[m]
            for s2, coup in hb.columns(a, s):
                st2 = st.apply_coupon(a_pos, coup)
                cap_pos = a_pos + len(pair.words[s2])
                st2 = st2.apply(("cap", cap_pos, a, True))
                if weighted:
                    st2 = st2.scale(omega.weights[a])
                key = (alpha, s2)
                nxt[key] = nxt[key] + st2 if key in nxt else st2
        current = nxt
    out: dict = {}
    for (alpha, s), mor in current.items():
        out[s] = out[s] + mor if s in out else mor
    return out


def _create(spec, sigma: Gluing, pair: SigmaPair, s0: int, mor0: Morphism):
    """Create all leg pairs around the carrier, weaving through the pair.

    ``mor0``: Morphism(src -> word_{s0}).  Returns a dict
    {(alpha, s2): Morphism(src -> legs + word_{s2} + legs)}.
    """
    orbits = sigma.pairs()
    n = sigma.n
    current = {((), s0): mor0}
    for m in range(n - 1, -1, -1):
        lo, hi = orbits[m]
        nxt: dict = {}
        for (alpha_tail, s), mor in current.items():
            active = list(range(m + 1, n))
            legs = []
            for i in active:
                legs.extend(sigma.pairs()[i])
            left = sorted(x for x in legs if x <= n)
            right = sorted(x for x in legs if x > n)
            for a in spec.labels:
                tags = [("leg", x) for x in left] + [("mid", len(pair.words[s]))] + [
                    ("leg", x) for x in right
                ]

                def mid_index():
                    for k, (kind, _) in enumerate(tags):
                        if kind == "mid":
                            return k
                    raise AssertionError

                mi = mid_index()
                gap = 0
                for kk in range(mi):
                    gap += 1 if tags[kk][0] == "leg" else tags[kk][1]
                st = mor.apply(("cup", gap, a, False))
                # strands: ..., a, dual(a), [mid], ...
                tags.insert(mi, ("leg", hi))
                tags.insert(mi, ("leg", lo))
                astar_pos = gap + 2
                hb = pair.braidings[m]
                for s2, coup in hb.columns(spec.dual[a], s):
                    st2 = st.apply_coupon(astar_pos, coup)
                    # after the weave the order is: ..., lo-leg, [mid], hi-leg, ...
                    t2 = list(tags)
                    ai = t2.index(("leg", lo))
                    hi_tag = t2.pop(ai + 1)
                    t2.insert(ai + 2, hi_tag)

                    all_lefts = sorted(
                        x for kind, x in t2 if kind == "leg" and x <= n
                    )
                    all_rights = sorted(
                        x for kind, x in t2 if kind == "leg" and x > n
                    )
                    final = [("leg", x) for x in all_lefts]
                    final.append(next(tv for tv in t2 if tv[0] == "mid"))
                    final.extend(("leg", x) for x in all_rights)

                    def idx_of(leg, tl):
                        for k, tv in enumerate(tl):
                            if tv == ("leg", leg):
                                return k
                        raise AssertionError

                    # Only the two fresh legs can be out of place; move the
                    # left-going one first, then the right-going one.
                    moves = []
                    for leg in (lo, hi):
                        tgt = final.index(("leg", leg))
                        moves.append((tgt - idx_of(leg, t2), tgt, leg))
                    for delta, tgt, leg in sorted(moves):
                        if delta:
                            st2 = _move_strand(st2, t2, idx_of(leg, t2), tgt)
                    key = ((a,) + alpha_tail, s2)
                    nxt[key] = nxt[key] + st2 if key in nxt else st2
        current = nxt
    return {k: v for k, v in current.items()}


def _dim_omega_power(spec, n: int) -> Cyclotomic:
    omega, _ = quantum_dims(spec)
    out = ONE
    for _ in range(n):
        out = out * omega.total
    return out


def project_morphism(spec, sigma: Gluing, px: SigmaPair, py: SigmaPair, f: CarrierMap) -> CarrierMap:
    """The averaging projection onto sigma-morphisms."""
    if f.src != px.words or f.tgt != py.words:
        raise GenusCenterError("morphism shape does not match the pair carriers")
    out_blocks: dict = {}
    n = sigma.n
    mid_pos = n + 1
    for sx0, w in enumerate(px.words):
        created = _create(spec, sigma, px, sx0, Morphism.identity(spec, tuple(w)))
        for (alpha, sx), mor in created.items():
            for (ty, sx2), fb in f.blocks.items():
                if sx2 != sx:
                    continue
                st = mor.apply_coupon(mid_pos, fb)
                res = _contract(spec, sigma, py, {(alpha, ty): st}, weighted=True)
                for ty2, m2 in res.items():
                    key = (ty2, sx0)
                    out_blocks[key] = out_blocks[key] + m2 if key in out_blocks else m2
    scale = _dim_omega_power(spec, sigma.n).inverse()
    return CarrierMap(
        spec, px.words, py.words, {k: v.scale(scale) for k, v in out_blocks.items()}
    )


def hom_Z_dim(spec, sigma: Gluing, px: SigmaPair, py: SigmaPair) -> int:
    basis = carrier_basis(spec, px.words, py.words)
    if not basis:
        return 0
    cols = []
    for b in basis:
        cols.append(flatten_carrier_map(project_morphism(spec, sigma, px, py, b)))
    m = ExactMatrix(len(cols[0]), len(cols), [[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))])
    return matrix_rank(m)


def adjunction_maps(spec, sigma: Gluing, x, py: SigmaPair):
    """(forward, backward) between Hom_C(x, Y) and the sigma-morphism space.

    backward is restriction to the all-units summand of the induced
    carrier; forward is its exact inverse, assembled from averaging
    projections of all-units-supported preimages.  backward o forward is
    the identity on Hom_C(x, Y), and forward o backward fixes every
    sigma-morphism, both exactly.
    """
    fx = _as_formal(spec, x)
    if len(fx.multiplicities) != 1 or fx.multiplicities[0][1] != 1:
        raise GenusCenterError("adjunction_maps expects a simple object")
    lab = fx.multiplicities[0][0]
    ix = induced_half_braidings(spec, sigma, lab)
    n = sigma.n
    all1 = (spec.unit,) * n
    si_all1 = next(i for i, (_l, _c, alpha) in enumerate(ix.meta) if alpha == all1)
    inc = Morphism.identity(spec, (lab,))
    for _ in range(n):
        inc = inc.apply(("unit_insert", 0))
    for _ in range(n):
        inc = inc.apply(("unit_insert", len(inc.tgt)))

    def backward(psi: CarrierMap) -> CarrierMap:
        if psi.src != ix.words or psi.tgt != py.words:
            raise GenusCenterError("backward map input has wrong shape")
        out: dict = {}
        for (ty, si2), blk in psi.blocks.items():
            if si2 != si_all1:
                continue
            out[(ty, 0)] = blk.compose(inc)
        return CarrierMap(spec, ((lab,),), py.words, out)

    phis = carrier_basis(spec, ((lab,),), py.words)
    # Position of the single unit coefficient of each elementary basis map.
    slots = []
    for p in phis:
        flat = flatten_carrier_map(p)
        slots.append(next(k for k, v in enumerate(flat) if not v.is_zero()))

    def coords_of(phi: CarrierMap) -> list:
        flat = flatten_carrier_map(phi)
        return [flat[k] for k in slots]

    key = ("adjmaps", tuple(sigma.pairing), lab, py.words)
    if key in spec._cache:
        columns, minv = spec._cache[key]
    else:
        # Sigma-morphism spanning set: averaging projections of preimages
        # supported on the all-units summand.
        strip = _unit_strip(spec, lab, n)
        columns = []
        for phi in phis:
            pre_blocks = {}
            for (ty, _zero), blk in phi.blocks.items():
                pre_blocks[(ty, si_all1)] = blk.compose(strip)
            pre = CarrierMap(spec, ix.words, py.words, pre_blocks)
            columns.append(project_morphism(spec, sigma, ix, py, pre))
        m = len(phis)
        gram = ExactMatrix(m, m)
        for j, col in enumerate(columns):
            vec = coords_of(backward(col))
            for i in range(m):
                gram[i, j] = vec[i]
        from .exactnum import inverse as matrix_inverse

        minv = matrix_inverse(gram)
        spec._cache[key] = (columns, minv)

    def forward(phi: CarrierMap) -> CarrierMap:
        if phi.src != ((lab,),) or phi.tgt != py.words:
            raise GenusCenterError("forward map input has wrong shape")
        coords = coords_of(phi)
        out = CarrierMap.zero(spec, ix.words, py.words)
        for j, col in enumerate(columns):
            c = rational(0)
            for i in range(len(coords)):
                c = c + minv[j, i] * coords[i]
            if c.is_zero():
                continue
            out = out + col.scale(c)
        return out

    return forward, backward


def _unit_strip(spec, lab: str, n: int) -> Morphism:
    """The canonical map (1^n, lab, 1^n) -> (lab)."""
    m = Morphism.identity(spec, (spec.unit,) * n + (lab,) + (spec.unit,) * n)
    for _ in range(n):
        m = m.apply(("unit_remove", 1))
    for _ in range(n):
        m = m.apply(("unit_remove", 2))
    return m


# ---------------------------------------------------------------------------
# tube algebra


@dataclass
class TubeAlgebra:
    spec: CategorySpec
    sigma: Gluing
    basis: list  # (i, j, alpha, tree)
    index: dict
    mult_table: dict  # (a, b) -> dict {c: coeff}
    unit: dict  # coordinates of the unit

    @property
    def dim(self) -> int:
        return len(self.basis)

    def block_dims(self) -> dict:
        out: dict = {}
        for (i, j, _alpha, _t) in self.basis:
            out[(i, j)] = out.get((i, j), 0) + 1
        return out

    def algebra_data(self) -> AlgebraData:
        return AlgebraData(dim=self.dim, mult=self.mult_table, unit=self.unit)


def tube_algebra(spec, sigma: Gluing) -> TubeAlgebra:
    """Blocks Hom_C(i, T(j)) with the transported composition product."""
    spec.require_braiding()
    key = ("tube", tuple(sigma.pairing))
    if key in spec._cache:
        return spec._cache[key]
    n = sigma.n
    assigns = _assignments(spec, sigma)
    basis = []
    for j in spec.labels:
        for alpha in assigns:
            word = _word_for(spec, sigma, alpha, (j,))
            ts = all_trees(spec, word)
            for i in spec.labels:
                for t in ts.get(i, []):
                    basis.append((i, j, alpha, t))
    index = {b: k for k, b in enumerate(basis)}
    mult: dict = {}
    mid_pos = n + 1
    pairs_cache = {j: induced_half_braidings(spec, sigma, j) for j in spec.labels}

    def elem_morphism(i, j, alpha, t) -> Morphism:
        word = _word_for(spec, sigma, alpha, (j,))
        rows = trees(spec, word, i)
        m = ExactMatrix.zeros(len(rows), 1)
        m[rows.index(t), 0] = ONE
        return Morphism(spec, (i,), word, {i: m})

    # Chains depend on g only; the f-tree enters linearly, so evaluate the
    # chain on the identity of each f-word and read off matrix columns.
    for j in spec.labels:
        for alpha_f in assigns:
            word_f = _word_for(spec, sigma, alpha_f, (j,))
            f_trees = all_trees(spec, word_f)
            for k in spec.labels:
                pk = pairs_cache[k]
                for alpha_g in assigns:
                    word_g = _word_for(spec, sigma, alpha_g, (k,))
                    g_trees = all_trees(spec, word_g).get(j, [])
                    for tg in g_trees:
                        gm = elem_morphism(j, k, alpha_g, tg)
                        st = Morphism.identity(spec, word_f)
                        st = st.apply_coupon(mid_pos, gm)
                        sidx = {a: ai for ai, (labx, _c, a) in enumerate(pk.meta)}
                        res = _contract(
                            spec, sigma, pk,
                            {(alpha_f, sidx[alpha_g]): st},
                            weighted=False,
                        )
                        for s2, mor in res.items():
                            alpha2 = pk.meta[s2][2]
                            word2 = _word_for(spec, sigma, alpha2, (k,))
                            t2s = all_trees(spec, word2)
                            for i in spec.labels:
                                rows2 = t2s.get(i, [])
                                blk = mor.blocks.get(i)
                                if blk is None:
                                    continue
                                cols = f_trees.get(i, [])
                                for ci, tf in enumerate(cols):
                                    a_idx = index[(i, j, alpha_f, tf)]
                                    b_idx = index[(j, k, alpha_g, tg)]
                                    row = mult.setdefault((a_idx, b_idx), {})
                                    for ri, t2 in enumerate(rows2):
                                        v = blk[ri, ci]
                                        if not v.is_zero():
                                            c_idx = index[(i, k, alpha2, t2)]
                                            row[c_idx] = row.get(c_idx, rational(0)) + v
    mult = {k2: {c: v for c, v in row.items() if not v.is_zero()} for k2, row in mult.items()}
    mult = {k2: row for k2, row in mult.items() if row}
    all1 = (spec.unit,) * n
    unit: dict = {}
    for i in spec.labels:
        word = _word_for(spec, sigma, all1, (i,))
        ts = trees(spec, word, i)
        assert len(ts) == 1
        unit[index[(i, i, all1, ts[0])]] = ONE
    out = TubeAlgebra(
        spec=spec, sigma=sigma, basis=basis, index=index, mult_table=mult, unit=unit
    )
    spec._cache[key] = out
    return out


def center_rank(spec, sigma: Gluing):
    """(rank, block_dims) of the center category, via the tube algebra."""
    tube = tube_algebra(spec, sigma)
    rank, dims, _ = decompose(tube.algebra_data(), working_order=spec.field_order())
    return rank, dims


def center_rank_float_oracle(spec, sigma: Gluing):
    tube = tube_algebra(spec, sigma)
    return float_decompose(tube.algebra_data())
