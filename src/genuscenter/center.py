"""Centers of higher genus: induced pairs, the adjunction, tube algebras.

The carrier of the induced pair I(x) of a simple label x is the sum
over the handle labels alpha of the words legs + (x,) + legs.  A
half-braiding is a dict: for each simple argument Z and source summand,
a list of columns (target summand, ``GammaWord``).  A column of the
induced pair is a generator word on (Z, word), "merge, one bend,
braids": braids bring Z to the low leg of its orbit, Z and the leg
merge, one bend turns the high leg into (dual leg, Z) by rotating that
vertex, and braids take Z to the right end.  Columns are applied at any
strand by shifting the word's positions.  Every strand action here (a
column, a braid word of the leg plumbing, a cap, the unit_insert and
unit_remove ops of the unit law and of unit leg pairs, and the coupon of
a basis map, which ``Morphism.apply_coupon`` turns into its merge word
and split word) goes through the cached composed word maps of
``trees``, applied by ``Morphism.apply_all``.  Verification keeps one
gamma table, the identity carrier pushed through gamma_[m] at position 1
for each label, read by the unit law, the invertibility rows
(``_hb_rows``) and the hexagon's right side.  The hexagon's left side and
both sides of :comm apply their gamma words, at position 2 and then at
position 1, to their own start state, so a state at position 2 lives only
until the next word is applied to it and no table at position 2 is kept.
Both relations are monoidal in an argument, so once the unit law holds
they are computed only at the seeds (z1, z2), z1 != 1 and z2 a handle
label (``_handle_labels``); ``verify_sigma_pair`` proves that the seeds
imply the rest, and runs a relation at every label pair once a seed fails.

Leg plumbing has one mechanism.  The strands lie in layers, front to
back the middle strand, then the legs of orbit 0, 1, ..., n - 1, and
each crossing puts the front strand over.  ``_nest_word`` sorts the legs
of a carrier word under that rule so that orbit m's pair sits at
strands n - m and n + 2 + m, nested around the middle; ``_nested`` holds
that identity once per label, and a contraction is a gamma column and a
cap, applied as composed words, or two unit_remove ops at a unit pair.
The adjunction identities and algebra laws check the whole construction.

The adjunction I -| U is one contraction.  ``_forward`` transposes a
basis map phi: x -> U(Y), given by its coordinate, to the sigma-morphism
I(x) -> Y: on each summand of I(x), phi is a coupon on the middle strand
(its split word) and the legs are contracted through Y.  ``adjunction_maps``
builds forward from it, and the tube products are forward images.  No
linear solve and no averaging projection is run; the projection, in
``tests/exact_oracle.py``, creates leg pairs and closes each by a gamma
column and a cap, the reference that forward's images are checked against.

Hom spaces are read and written only through the coordinate map of
``trees``: ``hom_keys`` lists the (charge, target tree, source tree)
coordinates, ``Morphism.elementary`` builds a basis map,
``Morphism.apply_coupon`` applies the basis map at a coordinate as a
coupon, and ``Morphism.entries`` reads a map's nonzero entries.
``carrier_basis`` extends the basis maps blockwise to sum carriers;
forward's coordinates, the tube products and gamma's per-charge matrices
are read off by ``entries``.

The tube algebra is given by its generators.  A basis element of
Hom_C(i, T_alpha(j)) has degree the number of orbits m with alpha_m != 1,
and those of degree <= 1 generate the algebra.  Fewer do: on one orbit,
since C is semisimple, the products of the elements with handle label
alpha_m = a by those with alpha_m = b span the elements with alpha_m = c
for every c in a (x) b.  So the elements of degree 1 whose handle label
lies in a set S whose tensor closure from the unit is every label
(``_handle_labels``), with those of degree 0, generate the algebra; they
are the ``gens`` of the ``AlgebraData`` from ``tube_algebra``.  It gives
only the products e_a e_g with g in ``gens``, and ``algebra.decompose``
closes that table mod p; its certificate part (e) rejects a set that
does not generate.  The elements of degree 0 are the summands u_j of the unit, so
their products are written (e_a u_j is e_a when e_a ends at j, else 0)
and only the products by the elements of degree 1 are contracted.
"""

from __future__ import annotations

from itertools import product as iproduct

from .algebra import AlgebraData, decompose
from .errors import GenusCenterError, IllFormedDiagramError
from .exactnum import rank
from .fusion import CategorySpec
from .gluing import Gluing, comm_case
from .trees import Morphism, cached, hom_dim, hom_keys, trees, word_after

__all__ = [
    "GammaWord",
    "SigmaPair",
    "CarrierMap",
    "induced_half_braidings",
    "verify_sigma_pair",
    "adjunction_maps",
    "tube_algebra",
    "center_rank",
]

# Crossing conventions for the strand plumbing, fixed by the exact test
# battery (hexagon, :comm, adjunction, algebra laws); see tests.  Leg
# crossings follow the layer rule of ``_nest_word``.
GAMMA_LEFT = "under"   # argument strand passing legs left of its orbit
GAMMA_RIGHT = "under"  # argument strand passing legs right of its orbit


def _assignments(spec, sigma: Gluing):
    return tuple(iproduct(spec.labels, repeat=sigma.n))


def _word_for(spec, sigma: Gluing, alpha, middle) -> tuple:
    n = sigma.n
    leg = {}
    for m, (lo, hi) in enumerate(sigma.pairs()):
        leg[lo] = alpha[m]
        leg[hi] = spec.dual[alpha[m]]
    left = tuple(leg[k] for k in range(1, n + 1))
    right = tuple(leg[k] for k in range(n + 1, 2 * n + 1))
    return left + tuple(middle) + right


# ---------------------------------------------------------------------------
# sigma-pairs


class GammaWord:
    """One half-braiding column: a generator word on (Z,) + source word.

    The word acts from strand 1; at strand ``pos`` of a longer word its
    positions shift by pos - 1.
    """

    def __init__(self, ops: tuple):
        self.ops = ops

    def apply_at(self, mor: Morphism, pos: int, then: tuple = ()) -> Morphism:
        """Post-compose the column at strand ``pos``, then the word ``then``."""
        # Every generator's second entry is its strand or gap position.
        shifted = tuple((op[0], op[1] + pos - 1) + op[2:] for op in self.ops)
        return mor.apply_all(shifted + then)


class SigmaPair:
    def __init__(self, words: tuple, alphas: tuple, braidings: list):
        self.words = words  # carrier summand words
        self.alphas = alphas  # handle labels of each summand
        self.braidings = braidings  # per orbit, ascending by low leg: {(z, si): [(ti, GammaWord)]}


def _induced_gamma_column(spec, sigma, alpha, middle, m, z):
    """gamma_[m] at argument z on the alpha summand: [(alpha', GammaWord)]."""
    n = sigma.n
    lo, hi = sigma.pairs()[m]
    word = _word_for(spec, sigma, alpha, middle)
    p = lo if lo <= n else lo + len(middle)
    q = hi if hi <= n else hi + len(middle)
    a = alpha[m]
    to_leg = tuple(("braid", j, GAMMA_LEFT) for j in range(1, p))
    to_end = tuple(("braid", j, GAMMA_RIGHT) for j in range(q + 1, len(word) + 1))
    out = []
    for b in spec.channels(z, a):
        for mu in range(spec.N(z, a, b)):
            # The high leg dual(a) turns into (dual(b), z) by one bend: the
            # cup, split and cap that rotate the merge vertex, in one step.
            ops = to_leg + (("merge", p, b, mu), ("bend", q, a, b, z, mu)) + to_end
            alpha2 = alpha[:m] + (b,) + alpha[m + 1 :]
            out.append((alpha2, GammaWord(ops)))
    return out


def induced_half_braidings(spec, sigma: Gluing, lab) -> SigmaPair:
    """The induced sigma-pair I(lab) of a simple label, with explicit half-braiding blocks."""
    spec.require_braiding()
    if lab not in spec.labels:
        raise GenusCenterError(f"unknown label {lab!r}")
    return _induced(spec, sigma, lab)


@cached
def _induced(spec, sigma: Gluing, lab: str) -> SigmaPair:
    alphas = _assignments(spec, sigma)
    words = tuple(_word_for(spec, sigma, alpha, (lab,)) for alpha in alphas)
    index = {alpha: i for i, alpha in enumerate(alphas)}
    braidings = [
        {
            (z, si): [
                (index[alpha2], col)
                for alpha2, col in _induced_gamma_column(spec, sigma, alpha, (lab,), m, z)
            ]
            for si, alpha in enumerate(alphas)
            for z in spec.labels
        }
        for m in range(sigma.n)
    ]
    return SigmaPair(words, alphas, braidings)


# ---------------------------------------------------------------------------
# maps between sum carriers


class CarrierMap:
    """Morphism between direct sums of words, blockwise."""

    def __init__(self, spec: CategorySpec, src: tuple, tgt: tuple, blocks: dict | None = None):
        self.spec = spec
        self.src = src
        self.tgt = tgt
        self.blocks = {} if blocks is None else blocks  # (ti, si) -> Morphism

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

    def apply_all(self, ops) -> "CarrierMap":
        """Post-compose a generator word, at the same strands, on every summand."""
        return CarrierMap(
            self.spec, self.src, tuple(word_after(self.spec, t, ops) for t in self.tgt),
            {k: m.apply_all(ops) for k, m in self.blocks.items()},
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
    """Elementary CarrierMap basis of Hom(sum src, sum tgt): blocks in turn, ``hom_keys`` within."""
    src, tgt = tuple(map(tuple, src_words)), tuple(map(tuple, tgt_words))
    return [
        CarrierMap(spec, src, tgt, {(ti, si): Morphism.elementary(spec, sw, tw, key)})
        for si, sw in enumerate(src)
        for ti, tw in enumerate(tgt)
        for key in hom_keys(spec, sw, tw)
    ]


# ---------------------------------------------------------------------------
# verification of sigma-pairs


def _apply_gamma(state: CarrierMap, pair: SigmaPair, m: int, pos: int, z: str) -> CarrierMap:
    """Post-compose 1 (x) gamma_[m],z (x) 1 with the carrier at strand pos.

    Source word t is pre + (z,) + carrier word t + post, and target word t
    is pre + carrier word t + (z,) + post.
    """
    blocks: dict = {}
    hb = pair.braidings[m]
    for (ti, si), mor in state.blocks.items():
        for t2, col in hb.get((z, ti), ()):
            new = col.apply_at(mor, pos)
            key = (t2, si)
            blocks[key] = blocks[key] + new if key in blocks else new
    w = state.tgt[0]
    pre, post = w[: pos - 1], w[pos + len(pair.words[0]) :]
    tgt = tuple(pre + tuple(word) + (z,) + post for word in pair.words)
    return CarrierMap(state.spec, state.src, tgt, blocks)


def _hb_rows(gamma: CarrierMap) -> dict:
    """A gamma table entry per charge c: row count, column count and sparse rows,
    over (summand, tree) coordinates."""
    spec = gamma.spec

    def dim(words, c):
        return sum(hom_dim(spec, w, c) for w in words)

    out = {c: (dim(gamma.tgt, c), dim(gamma.src, c), {}) for c in spec.labels}
    for (ti, si), mor in gamma.blocks.items():
        for (c, r, s), v in mor.entries().items():
            out[c][2].setdefault((ti, r), {})[si, s] = v
    return {c: m for c, m in out.items() if m[0] or m[1]}


def verify_sigma_pair(spec, sigma: Gluing, pair: SigmaPair) -> list[str]:
    """Invertibility, unit law, multiplicativity, and :comm, all exact.

    ``gamma[m, z]`` (gamma_[m] at z on the identity of (z,) + carrier) is
    the position-1 table.  The other checks apply their gamma words to
    their own start state, a split or a swap on an identity carrier: as
    post-composing B with a word is (the word on the identity) o B, no
    table at position 2 is needed.  The failures, none on a pass, come in
    loop order: unit, invertibility by (m, z), multiplicativity by
    (m, z1, z2, w, mu), then :comm by (i, j, z1, z2).

    Only what the proofs below cannot derive is computed.  With S =
    ``_handle_labels`` and the unit law holding: invertibility at z != 1,
    and multiplicativity M^m of orbit m at the seeds (z1, z2), z1 != 1
    and z2 in S; :comm C of orbits i < j at the seeds too, once M^j has
    passed.  A failed unit law, a failing seed or a failed M^j runs that
    check at every argument, so every pair gets the list of the full
    sweep (``tests/exact_oracle.py``).

    Precondition: C satisfies the pentagon and the hexagon, as the
    built-in catalogs do (tier-1) and every file ``cli._load_cat``
    accepts.  Extend each Gamma_z to objects by naturality, so both sides
    of each relation are additive and natural in each argument; below,
    juxtaposition is (x) and 1 an identity.
    (U) The unit law implies every check with a unit argument.  The unit
    is strict (``f_block`` and ``r_block`` are the identity on unit legs,
    a split into (1, x) is a unit insertion), so given Gamma_1 = the moved
    identity, both sides of M and C at (1, y) and (x, 1) are one word
    with a unit strand inserted or removed; Gamma_1, a permutation, is
    invertible.
    (M) Let P = {y : M(x, y) for every x}; 1 is in P by (U).  Take y in P
    and s in S; M(x, s) holds for every x, by additivity in x.  Then
    Gamma_{x y s} = (Gamma_{x y} 1)(1 Gamma_s) = (Gamma_x 1 1)(1 Gamma_y 1)
    (1 1 Gamma_s) = (Gamma_x 1)(1 Gamma_{y s}), and naturality in y gives
    M(x, y') for each simple y' in y (x) s.  S closes to every label from
    1, so P holds every label.
    (C) Write C(x, Y) with orbit i at x and orbit j at an object Y.  By
    M^j, LHS(x, y s) = (Gamma^j_y 1)(1_y LHS(x, s)).  Use C(x, s), and
    move its final swap on (x, s) left past Gamma^j_y, on disjoint
    strands: what is left is LHS(x, y) 1_s after the first swap and
    Gamma^j_s of RHS(x, s).  Use C(x, y); then M^j(y, s), and the hexagon
    once for each of the two swaps, give RHS(x, y s).  In case 1 the
    double braid of x around the carrier acts on (carrier, x) inside
    LHS(x, y) and RHS(x, y) and is carried along.  Induct from y = 1, by
    (U), and restrict to simple summands by naturality.
    """
    if len(pair.braidings) != sigma.n:
        return [f"expected {sigma.n} half-braidings"]
    ident = {z: _carrier_id_with(spec, pair, (z,)) for z in spec.labels}
    gamma = {
        (m, z): _apply_gamma(ident[z], pair, m, 1, z)
        for m in range(sigma.n) for z in spec.labels
    }
    # At the unit, gamma is the identity with the unit strand moved to the end.
    wlen = len(pair.words[0])
    moved = ident[spec.unit].apply_all((("unit_remove", 1), ("unit_insert", wlen)))
    unit_law = all(gamma[m, spec.unit] == moved for m in range(sigma.n))
    bad = [] if unit_law else ["gamma at the unit is not the identity"]
    seeds = list(iproduct([z for z in spec.labels if z != spec.unit], _handle_labels(spec)))

    def sweep(reduced: bool, fails, *head) -> list:
        """fails(*head, z1, z2) at every (z1, z2), or [] if reduced and every seed passes."""
        if reduced and not any(fails(*head, *z) for z in seeds):
            return []
        return [f for z in iproduct(spec.labels, repeat=2) for f in fails(*head, *z)]

    for m in range(sigma.n):
        for z in spec.labels:
            if unit_law and z == spec.unit:
                continue
            for c, (nrows, ncols, rows) in _hb_rows(gamma[m, z]).items():
                if nrows != ncols or rank(rows.values(), spec.field) != nrows:
                    bad.append(f"gamma_[{m}] at {z} is not invertible (charge {c})")
                    break

    # Multiplicativity: split w into (z1, z2), then gamma at z2 and at z1,
    # against gamma at w, then split the trailing strand.
    def mult_fails(m, z1, z2) -> list:
        out = []
        for w in spec.channels(z1, z2):
            for mu in range(spec.N(z1, z2, w)):
                split = ident[w].apply_all((("split", 1, z1, z2, mu),))
                lhs = _apply_gamma(_apply_gamma(split, pair, m, 2, z2), pair, m, 1, z1)
                rhs = gamma[m, w].apply_all((("split", wlen + 1, z1, z2, mu),))
                if lhs != rhs:
                    out.append(f"gamma_[{m}] multiplicativity fails at ({z1},{z2};{w},{mu})")
        return out

    def comm_fails(i, j, case, z1, z2) -> list:
        if _comm_ok(spec, pair, i, j, case, z1, z2):
            return []
        return [f"comm case {case} fails for orbits ({i},{j}) at ({z1},{z2})"]

    mult_ok = []
    for m in range(sigma.n):
        got = sweep(unit_law, mult_fails, m)
        mult_ok.append(unit_law and not got)
        bad += got
    pairs = sigma.pairs()
    for i in range(sigma.n):
        for j in range(i + 1, sigma.n):
            bad += sweep(mult_ok[j], comm_fails, i, j, comm_case(pairs[i], pairs[j]))
    return bad


def _carrier_id_with(spec, pair, prefix) -> CarrierMap:
    words = tuple(tuple(prefix) + tuple(w) for w in pair.words)
    return CarrierMap.identity(spec, words)


def _comm_ok(spec, pair, i, j, case, z1, z2) -> bool:
    wlen = len(pair.words[0])

    def braid_back(st, pos):
        if case == 1:
            # c_{z,X} c_{X,z}: z, now right of the block X, braids back over it
            # and forth again.
            back = range(pos + wlen - 1, pos - 1, -1)
            word = tuple(("braid", p, "over") for p in (*back, *range(pos, pos + wlen)))
            st = st.apply_all(word)
        return st

    start = _carrier_id_with(spec, pair, (z2, z1))
    # LHS: gamma_i at z1 at position 2, then gamma_j at z2 at position 1.
    lhs = _apply_gamma(braid_back(_apply_gamma(start, pair, i, 2, z1), 2), pair, j, 1, z2)
    # RHS: swap (z2, z1), gamma_j at z2 at position 2, gamma_i at z1 at
    # position 1, then swap z1 and z2 back.
    swap = start.apply_all((("braid", 1, "under"),))
    rhs = braid_back(_apply_gamma(_apply_gamma(swap, pair, j, 2, z2), pair, i, 1, z1), 1)
    rhs = rhs.apply_all((("braid", wlen + 1, "under" if case == 2 else "over"),))
    return lhs == rhs


# ---------------------------------------------------------------------------
# leg plumbing: nesting and contraction


def _nest_word(sigma: Gluing) -> tuple:
    """Braid word nesting the legs of a carrier word around its middle strand.

    Orbit m's low and high legs end at strands n - m and n + 2 + m.  The
    strands lie in layers, front to back the middle strand, then the legs
    of orbit 0, 1, ..., n - 1, and each crossing puts the front strand
    over, so any sorting order gives the same braid; this one (a bubble
    sort) crosses no two strands twice.
    """
    n = sigma.n
    place = {}  # leg -> (target strand, layer)
    for m, (lo, hi) in enumerate(sigma.pairs()):
        place[lo], place[hi] = (n - m, m + 1), (n + 2 + m, m + 1)
    strands = [place[k] for k in range(1, n + 1)] + [(n + 1, 0)]
    strands += [place[k] for k in range(n + 1, 2 * n + 1)]
    word = []
    for end in range(len(strands) - 1, 0, -1):
        for i in range(end):
            left, right = strands[i], strands[i + 1]
            if left[0] > right[0]:
                word.append(("braid", i + 1, "over" if left[1] < right[1] else "under"))
                strands[i], strands[i + 1] = right, left
    return tuple(word)


def _contract(pair: SigmaPair, alpha, s: int, state: Morphism):
    """Contract the nested leg pairs of the alpha summand through the carrier.

    ``state``: Morphism(src -> legs + word_s + legs), nested as
    ``_nest_word`` leaves them with word_s for the middle strand: orbit
    m's low leg at strand n - m, its high leg m + 1 strands right of
    word_s.  Orbit m, from 0 out, is its gamma column at strand n - m
    followed by the cap; at a unit handle label that is two unit_remove
    ops on the same summand, as gamma at the unit moves the unit strand
    (the unit law) and the unit cap is 1 (strict-unit gauge, pivotal(1)
    = 1).  Returns a dict {s2: Morphism(src -> word_s2)}.
    """
    n, wlen, unit = len(alpha), len(pair.words[0]), state.spec.unit
    current = {s: state}
    for m, (a, hb) in enumerate(zip(alpha, pair.braidings)):
        a_pos = n - m
        nxt: dict = {}
        for si, mor in current.items():
            if a == unit:
                nxt[si] = mor.apply_all((("unit_remove", a_pos), ("unit_remove", a_pos + wlen)))
                continue
            for s2, col in hb.get((a, si), ()):
                st2 = col.apply_at(mor, a_pos, (("cap", a_pos + wlen, a, True),))
                nxt[s2] = nxt[s2] + st2 if s2 in nxt else st2
        current = nxt
    return current


@cached
def _nested(spec, sigma: Gluing, lab: str) -> tuple:
    """The identity of each summand word of I(lab), its legs nested by ``_nest_word``."""
    nest, words = _nest_word(sigma), _induced(spec, sigma, lab).words
    return tuple(Morphism.identity(spec, w).apply_all(nest) for w in words)


def _forward(spec, sigma: Gluing, lab: str, py: SigmaPair, ty: int, key) -> CarrierMap:
    """The adjoint transpose of the basis map at ``key`` = (lab, r, 0) of Hom(lab, py.words[ty]).

    It is a sigma-morphism I(lab) -> py.  On the alpha summand, the map is
    a coupon on the middle strand n + 1 of ``_nested``, whose legs sit at
    strands n - m and n + 2 + m (``apply_coupon`` at ``key`` applies the
    split word of target tree r; the one-strand source needs no merge), and
    the legs are contracted through py into the blocks (ty2, alpha).
    Nesting first is the same as moving each pair behind the coupon and the
    pairs contracted before it, by naturality of the braiding.  ``adjunction_maps`` and the tube products
    both read their maps off this one contraction.
    """
    ix, tw = induced_half_braidings(spec, sigma, lab), py.words[ty]
    blocks: dict = {}
    for sx, (alpha, st) in enumerate(zip(ix.alphas, _nested(spec, sigma, lab))):
        st = st.apply_coupon(sigma.n + 1, (lab,), tw, key)
        for ty2, mor in _contract(py, alpha, ty, st).items():
            blocks[ty2, sx] = mor
    return CarrierMap(spec, ix.words, py.words, blocks)


def adjunction_maps(spec, sigma: Gluing, lab, py: SigmaPair):
    """(forward, backward) between Hom_C(lab, Y) and the sigma-morphism space.

    backward is restriction to the all-units summand of the induced
    carrier.  forward is linear over the basis maps, each passed to
    ``_forward`` as its coordinate, and their images are precomputed.  On
    the all-units summand every leg pair is a unit pair, which
    ``_contract`` removes by unit_remove, so phi comes out with the legs stripped;
    backward puts them back, so backward o forward is the identity on
    Hom_C(lab, Y).  By the adjunction, backward is injective on
    sigma-morphisms, so the sigma-morphism with backward image phi is
    unique: forward(phi) equals D^n P(pre(phi)), the averaging projection
    P of phi on the all-units summand, scaled by D^n with D = dim(C).
    ``adjoint check`` tests backward o forward = 1 and forward o backward
    = 1 on forward's images, both exactly.  The second holds whenever the
    first does, so it is the tests that check forward's images to be
    sigma-morphisms, against the projection.
    """
    ix = induced_half_braidings(spec, sigma, lab)
    n = sigma.n
    si_all1 = ix.alphas.index((spec.unit,) * n)
    inc = Morphism.identity(spec, (lab,)).apply_all(
        (("unit_insert", 0),) * n + tuple(("unit_insert", n + 1 + k) for k in range(n))
    )

    def backward(psi: CarrierMap) -> CarrierMap:
        if psi.src != ix.words or psi.tgt != py.words:
            raise GenusCenterError("backward map input has wrong shape")
        out: dict = {}
        for (ty, si2), blk in psi.blocks.items():
            if si2 != si_all1:
                continue
            out[(ty, 0)] = blk.compose(inc)
        return CarrierMap(spec, ((lab,),), py.words, out)

    # columns[ty, key] is forward of the basis map with a 1 at ``key`` of
    # the block (ty, 0); forward(phi) sums them over phi's nonzero entries.
    columns = {
        (ty, key): _forward(spec, sigma, lab, py, ty, key)
        for ty, tw in enumerate(py.words)
        for key in hom_keys(spec, (lab,), tw)
    }

    def forward(phi: CarrierMap) -> CarrierMap:
        if phi.src != ((lab,),) or phi.tgt != py.words:
            raise GenusCenterError("forward map input has wrong shape")
        out = CarrierMap.zero(spec, ix.words, py.words)
        for (ty, _), mor in phi.blocks.items():
            for key, v in mor.entries().items():
                col = columns[ty, key]
                out = out + (col if v is spec.field.one else col.scale(v))
        return out

    return forward, backward


# ---------------------------------------------------------------------------
# tube algebra


@cached
def _tube_basis(spec, sigma: Gluing):
    """The tube basis: blocks Hom_C(i, T_alpha(j)) with one element per tree.

    Returns the list of (i, j, alpha, tree), and the index of each
    (i, j, alpha, tree index).
    """
    basis = []
    at: dict = {}
    for j in spec.labels:
        for alpha in _assignments(spec, sigma):
            word = _word_for(spec, sigma, alpha, (j,))
            for i in spec.labels:
                for r, tree in enumerate(trees(spec, word, i)):
                    at[i, j, alpha, r] = len(basis)
                    basis.append((i, j, alpha, tree))
    return basis, at


def _tube_products(spec, sigma: Gluing, right) -> dict:
    """The products e_a * e_g for every basis element a and every g in ``right``.

    For g in Hom_C(j, T_alpha(k)), right multiplication by e_g is the
    forward image of e_g in Hom_Z(I(j), I(k)) (``_forward``): its block
    (s2, s) sends the trees of Hom_C(i, T_alpha_s(j)) at charge i, each an
    e_a, to the coordinates of e_a e_g in Hom_C(i, T_alpha_s2(k)).
    Returns {(a, g): {c: v}}.  Each entry is one nonzero entry of one
    block, as ``at`` is one to one, so no entry or row is zero.
    """
    _basis, at = _tube_basis(spec, sigma)
    coords = {b: key for key, b in at.items()}
    mult: dict = {}
    for g in sorted(set(right)):
        j, k, alpha_g, r = coords[g]
        pj = induced_half_braidings(spec, sigma, j)
        pk = induced_half_braidings(spec, sigma, k)
        ty = pk.alphas.index(alpha_g)
        for (s2, s), mor in _forward(spec, sigma, j, pk, ty, (j, r, 0)).blocks.items():
            alpha_f, alpha2 = pj.alphas[s], pk.alphas[s2]
            for (i, ri, ci), v in mor.entries().items():
                mult.setdefault((at[i, j, alpha_f, ci], g), {})[at[i, k, alpha2, ri]] = v
    return mult


def _handle_labels(spec) -> tuple:
    """Non-unit labels S whose tensor closure from the unit is every label.

    The closure holds each channel of x (x) s for x in it and s in S.  S is
    grown greedily by the label that enlarges the closure most, ties going
    to the first in catalog order.
    """

    def closure(labels) -> set:
        reach, todo = {spec.unit}, [spec.unit]
        while todo:
            x = todo.pop()
            for s in labels:
                for c in spec.channels(x, s):
                    if c not in reach:
                        reach.add(c)
                        todo.append(c)
        return reach

    chosen: list = []
    while len(closure(chosen)) < len(spec.labels):
        rest = [s for s in spec.labels if s != spec.unit and s not in chosen]
        chosen.append(max(rest, key=lambda s: len(closure(chosen + [s]))))
    return tuple(chosen)


@cached
def tube_algebra(spec, sigma: Gluing) -> AlgebraData:
    """Blocks Hom_C(i, T(j)) with the transported composition product.

    The basis is that of ``_tube_basis``, and the field is the spec's.

    Only the products by the generators ``gens`` are given: the elements
    of degree 0 and those of degree 1 whose handle label is in
    ``_handle_labels``, where the degree of Hom_C(i, T_alpha(j)) is the
    number of orbits m with alpha_m != 1 and the handle label is that
    alpha_m.  They generate the algebra, and ``algebra.decompose`` closes
    their table mod p (certificate part (e)).  The elements of degree 0
    are the unit's summands u_j in Hom_C(j, T_1(j)), so e_a u_j is
    written, not contracted: e_a when a ends at j, else 0.
    """
    spec.require_braiding()
    basis, at = _tube_basis(spec, sigma)
    handles = set(_handle_labels(spec))
    gens = []
    for b, (_i, _j, alpha, _t) in enumerate(basis):
        labels = [a for a in alpha if a != spec.unit]
        if not labels or (len(labels) == 1 and labels[0] in handles):
            gens.append(b)
    all1 = (spec.unit,) * sigma.n
    units = {j: at[j, j, all1, 0] for j in spec.labels}
    mult = _tube_products(spec, sigma, [g for g in gens if g not in units.values()])
    for a, (_i, j, _alpha, _t) in enumerate(basis):
        mult[a, units[j]] = {a: spec.field.one}
    return AlgebraData(dim=len(basis), mult=mult, unit={u: spec.field.one for u in units.values()},
                       gens=gens, order=spec.field_order())


def center_rank(spec, sigma: Gluing):
    """(rank, block_dims) of the center category, via the tube algebra."""
    return decompose(tube_algebra(spec, sigma))

