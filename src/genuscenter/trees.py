"""Fusion-tree bases and the exact strand-diagram engine.

Morphisms between tensor words of simple labels are stored blockwise:
for each simple charge c, the matrix of the post-composition action
Hom(c, source) -> Hom(c, target) on left-nested splitting trees.  Every
diagram generator (braid, twist, cup, cap, split, merge, coupon) is a
local rewrite of those trees whose coefficients come from F, R, and the
pivotal data.

Tree encoding for a word (w_1, ..., w_m): ``(es, mus)`` where
``es[k-1]`` is the charge after absorbing ``w_k`` (so ``es[0] = w_1``
and ``es[-1]`` is the total charge) and ``mus[k-2]`` indexes the vertex
``es[k-1] -> es[k-2] (x) w_k``.

Every strand action is a generator word, and it acts on a window of the
target word (``_active_window``): a head, the strands 1..s+1 that no op
reads, which acts as one strand of its charge es[s]; the touched strands
up to k; and a tail past k.  The window word is (es[s],) + word[s+1:k] and
the window tree (es[s:k], mus[s:k-1]); the head (es[:s], mus[:s]) and the
tail (es[k:], mus[k-1:]) pass through unchanged.  This is exact on both
sides: F at strand i reads only es[i-2], the total charge to its left, so
no op reads past es[s] into the head; and a generator reads and rewrites
only the charges and vertices at or left of the last strand it touches (a
braid or cap at i reads es[i], a cup at gap g recouples at g+1 over the
old es[g-1]), and keeps the window's total charge es[k-1], on which the
tail's first vertex hangs.

One rule serves single generators and whole words.  ``_local_moves``
holds each generator's action on each window it meets, so ``_apply_tree``
runs once per distinct window per spec; ``_chain_map`` multiplies a word
out through that table on every tree of the word's window, and
``_word_map`` caches the result per window word.  ``apply_all`` takes one
such map per head charge present and moves a block's nonzero rows through
it in one pass (``_push``), carrying each tree's head and tail.  A coupon
``1 (x) f (x) 1`` is linear in f, so it is a sum over the nonzero entries
f_d[r, s], each the word that merges the source strands to d along
source tree s followed by the word that splits d along target tree r.

A Hom space has the coordinates (charge, target tree, source tree) that
``hom_keys`` lists.  Other modules write a map's entries only through
``Morphism.elementary`` and read them only through ``Morphism.entries``, so
the block layout is known here alone.

Every table derived once per category (splitting vertices, tree lists, F
and R blocks indexed by incoming slots, pivotal inverses, generator actions
on windows, composed word maps, twists, induced pairs, tube algebras) is
memoized by ``cached``, the one reader and writer of ``spec._cache``.

Duality normalization: fusion vertices are dual to splitting vertices
(``w o v = id``), cups are plain coevaluations, and cap coefficients are
solved from the zig-zag so that bent strands straighten with no scalar.
Primed cups/caps absorb the pivotal coefficients; closed loops then
evaluate to the quantum dimensions.
"""

from __future__ import annotations

from functools import lru_cache, wraps

from .errors import IllFormedDiagramError, InternalInconsistencyError
from .exactnum import C0, C1, Cyclotomic, ExactMatrix

ONE = C1

Word = tuple[str, ...]
Tree = tuple[tuple[str, ...], tuple[int, ...]]

_MISSING = object()


def cached(fn):
    """Memoize ``fn(spec, *args)`` in ``spec._cache`` under ``(fn.__name__, *args)``.

    Arguments after the spec are positional and hashable.  A table computed
    once stays valid because a spec's F, R and pivotal data never change.
    """
    name = fn.__name__

    @wraps(fn)
    def memo(spec, *args):
        key = (name, *args)
        cache = spec._cache
        out = cache.get(key, _MISSING)
        if out is _MISSING:
            out = cache[key] = fn(spec, *args)
        return out

    return memo


@cached
def _vertices(spec) -> dict:
    """{(a, b): [(c, mu), ...]}: the splitting vertices c -> a (x) b, in label order."""
    labels = spec.labels
    return {
        (a, b): [(c, mu) for c in spec.channels(a, b) for mu in range(spec.N(a, b, c))]
        for a in labels
        for b in labels
    }


@cached
def all_trees(spec, word: Word) -> dict[str, list[Tree]]:
    """Left-nested splitting trees of ``word``, grouped by total charge."""
    if len(word) == 0:
        return {spec.unit: [((), ())]}
    vertices = _vertices(spec)
    partial = [((word[0],), ())]
    for x in word[1:]:
        partial = [
            (es + (c,), mus + (mu,)) for es, mus in partial for c, mu in vertices.get((es[-1], x), ())
        ]
    out: dict[str, list[Tree]] = {}
    for t in partial:
        out.setdefault(t[0][-1], []).append(t)
    for ts in out.values():
        ts.sort()
    return out


def trees(spec, word: Word, charge: str) -> list[Tree]:
    return all_trees(spec, word).get(charge, [])


def hom_dim(spec, word: Word, charge: str) -> int:
    return len(trees(spec, word, charge))


def hom_keys(spec, src: Word, tgt: Word) -> list[tuple[str, int, int]]:
    """Coordinates (charge, target tree, source tree) of Hom(src, tgt).

    Charges come in label order, then source trees, then target trees;
    ``Morphism.entries`` lists a map's nonzero entries in the same order.
    Trees are indices into ``trees(spec, word, charge)``.
    """
    src, tgt = tuple(src), tuple(tgt)
    out = []
    for c in spec.labels:
        n_tgt = hom_dim(spec, tgt, c)
        out.extend((c, r, s) for s in range(hom_dim(spec, src, c)) for r in range(n_tgt))
    return out


# ---------------------------------------------------------------------------
# cap normalization


@cached
def ev_coeff(spec, a: str) -> Cyclotomic:
    """Coefficient of ev_a on the dual fusion vertex, from the zig-zag."""
    astar = spec.dual[a]
    _, _, blk = spec.f_block(a, astar, a, a)
    u = spec.unit
    entry = blk.get(((u, 0, 0), (u, 0, 0)))
    if entry is None or entry.is_zero():
        raise InternalInconsistencyError(
            f"{spec.name}: F[{a},{astar},{a};{a}] unit-unit entry vanishes"
        )
    return entry.inverse()


# ---------------------------------------------------------------------------
# tree-level generator actions


@cached
def _f_moves(spec, a: str, b: str, c: str, d: str, inverse: bool) -> dict:
    """F (or F^-1 if ``inverse``) of (a, b, c; d) as {incoming slots: [(outgoing slots, coeff)]}."""
    _, _, blk = (spec.f_inverse if inverse else spec.f_block)(a, b, c, d)
    out: dict = {}
    for (k, new), v in blk.items():
        out.setdefault(k, []).append((new, v))
    return out


def _recouple(spec, word: Word, tree: Tree, i: int, inverse: bool = False):
    """Rewrite the slots of strands (i, i+1) through F, or F^-1 if ``inverse``.

    F exposes the pair: in the result the slot ``es[i-1]`` holds the pair
    charge f, ``mus[i-2]`` the pair vertex, and ``mus[i-1]`` the spine
    vertex ``es[i] -> es[i-2] (x) f``.  F^-1 turns an exposed tree over the
    (possibly relabeled) word back into a left-nested one.  Position 1 is
    exposed already.
    """
    if i == 1:
        return [(tree, ONE)]
    es, mus = tree
    moves = _f_moves(spec, es[i - 2], word[i - 1], word[i], es[i], inverse)
    return [
        ((es[: i - 1] + (e,) + es[i:], mus[: i - 2] + (nu, rho) + mus[i:]), v)
        for (e, nu, rho), v in moves.get((es[i - 1], mus[i - 2], mus[i - 1]), ())
    ]


def _pair_slots(tree: Tree, i: int):
    es, mus = tree
    if i == 1:
        return es[1], mus[0]
    return es[i - 1], mus[i - 2]


def _op_new_word(spec, word: Word, op) -> Word:
    """The word after ``op``; a cap or unit_remove must find its strands."""
    kind = op[0]
    if kind == "braid":
        _, i, _ = op
        return word[: i - 1] + (word[i], word[i - 1]) + word[i + 1 :]
    if kind == "twist":
        return word
    if kind == "merge":
        _, i, c, _ = op
        return word[: i - 1] + (c,) + word[i + 1 :]
    if kind == "split":
        _, i, a, b, _ = op
        return word[: i - 1] + (a, b) + word[i:]
    if kind == "cup":
        _, g, a, primed = op
        pair = (spec.dual[a], a) if primed else (a, spec.dual[a])
        return word[:g] + pair + word[g:]
    if kind == "cap":
        _, i, a, primed = op
        pair = (a, spec.dual[a]) if primed else (spec.dual[a], a)
        if word[i - 1 : i + 1] != pair:
            raise IllFormedDiagramError(
                f"cap({pair[1]}) expects strands ({','.join(pair)}) at position {i}, "
                f"found ({','.join(word[i - 1 : i + 1])})"
            )
        return word[: i - 1] + word[i + 1 :]
    if kind == "unit_insert":
        _, g = op
        return word[:g] + (spec.unit,) + word[g:]
    if kind == "unit_remove":
        _, i = op
        if word[i - 1 : i] != (spec.unit,):
            raise IllFormedDiagramError(f"strand {i} is not the unit")
        return word[: i - 1] + word[i:]
    raise ValueError(f"unknown op {op!r}")


def _apply_tree(spec, word: Word, tree: Tree, op):
    """Action of a generator on one basis tree: list of (tree', coeff).

    ``_op_new_word`` has checked that a cap or unit_remove fits ``word``.
    """
    kind = op[0]
    es, mus = tree

    if kind == "twist":
        _, i, sign = op
        th = theta(spec, word[i - 1])
        return [(tree, th if sign > 0 else th.inverse())]

    if kind == "braid":
        _, i, direction = op
        a, b = word[i - 1], word[i]
        new_word = _op_new_word(spec, word, op)
        out = []
        for exp, v1 in _recouple(spec, word, tree, i):
            f, nu = _pair_slots(exp, i)
            blk = spec.r_block(a, b, f) if direction == "over" else spec.r_inverse(b, a, f)
            for (nu2, mu), coeff in blk.items():
                if mu != nu:
                    continue
                ees, mmus = exp
                if i == 1:
                    cand = ((new_word[0],) + ees[1:], (nu2,) + mmus[1:])
                else:
                    cand = (ees, mmus[: i - 2] + (nu2,) + mmus[i - 1 :])
                for t2, v2 in _recouple(spec, new_word, cand, i, inverse=True):
                    out.append((t2, v1 * coeff * v2))
        return out

    if kind == "merge":
        _, i, c, nu0 = op
        out = []
        for exp, v1 in _recouple(spec, word, tree, i):
            f, nu = _pair_slots(exp, i)
            if f != c or nu != nu0:
                continue
            ees, mmus = exp
            if i == 1:
                t2 = ((c,) + ees[2:], mmus[1:])
            else:
                t2 = (ees[: i - 1] + ees[i:], mmus[: i - 2] + (mmus[i - 1],) + mmus[i:])
            out.append((t2, v1))
        return out

    if kind == "split":
        _, i, a, b, mu0 = op
        x = word[i - 1]
        if spec.N(a, b, x) <= mu0:
            return []
        new_word = _op_new_word(spec, word, op)
        if i == 1:
            return [(((a, x) + es[1:], (mu0,) + mus), ONE)]
        exp = (es[: i - 1] + (x,) + es[i - 1 :], mus[: i - 2] + (mu0, mus[i - 2]) + mus[i - 1 :])
        return _recouple(spec, new_word, exp, i, inverse=True)

    if kind == "cup":
        _, g, a, primed = op
        if primed:
            scale = _pivotal_inverse(spec, a)
            inner = ("cup", g, spec.dual[a], False)
            return [(t, scale * v) for t, v in _apply_tree(spec, word, tree, inner)]
        new_word = _op_new_word(spec, word, op)
        u = spec.unit
        if g == 0:
            if not es:
                return [(((a, u), (0,)), ONE)]
            return [(((a, u) + es, (0, 0) + mus), ONE)]
        exp = (es[:g] + (u, es[g - 1]) + es[g:], mus[: g - 1] + (0, 0) + mus[g - 1 :])
        return _recouple(spec, new_word, exp, g + 1, inverse=True)

    if kind == "cap":
        _, i, a, primed = op
        if primed:
            scale = spec.pivotal_coeff(a)
            inner = ("cap", i, spec.dual[a], False)
            return [(t, scale * v) for t, v in _apply_tree(spec, word, tree, inner)]
        lam = ev_coeff(spec, a)
        u = spec.unit
        out = []
        for exp, v1 in _recouple(spec, word, tree, i):
            f, _ = _pair_slots(exp, i)
            if f != u:
                continue
            ees, mmus = exp
            if i == 1:
                t2 = (ees[2:], mmus[2:])
            else:
                if ees[i] != ees[i - 2]:
                    continue
                t2 = (ees[: i - 1] + ees[i + 1 :], mmus[: i - 2] + mmus[i:])
            out.append((t2, v1 * lam))
        return out

    if kind == "unit_insert":
        _, g = op
        u = spec.unit
        if g == 0:
            if not es:
                return [(((u,), ()), ONE)]
            return [(((u,) + es, (0,) + mus), ONE)]
        return [((es[:g] + (es[g - 1],) + es[g:], mus[: g - 1] + (0,) + mus[g - 1 :]), ONE)]

    if kind == "unit_remove":
        _, i = op
        if i == 1:
            return [((es[1:], mus[1:]), ONE)]
        return [((es[: i - 1] + es[i:], mus[: i - 2] + mus[i - 1 :]), ONE)]

    raise ValueError(f"unknown op {op!r}")


@cached
def _pivotal_inverse(spec, a: str) -> Cyclotomic:
    return spec.pivotal_coeff(a).inverse()


def word_after(spec, word: Word, ops) -> Word:
    """The word that a generator word turns ``word`` into."""
    for op in ops:
        word = _op_new_word(spec, word, op)
    return word


# ---------------------------------------------------------------------------
# morphisms


class Morphism:
    """Exact morphism between tensor words, stored charge-blockwise."""

    __slots__ = ("spec", "src", "tgt", "blocks")

    def __init__(self, spec, src: Word, tgt: Word, blocks: dict[str, ExactMatrix]):
        self.spec = spec
        self.src = tuple(src)
        self.tgt = tuple(tgt)
        self.blocks = blocks

    @staticmethod
    def identity(spec, word: Word) -> "Morphism":
        word = tuple(word)
        blocks = {
            c: ExactMatrix.identity(len(ts)) for c, ts in all_trees(spec, word).items()
        }
        return Morphism(spec, word, word, blocks)

    @staticmethod
    def zero(spec, src: Word, tgt: Word) -> "Morphism":
        return Morphism(spec, tuple(src), tuple(tgt), {})

    @staticmethod
    def elementary(spec, src: Word, tgt: Word, key) -> "Morphism":
        """The basis map of Hom(src, tgt) with a single 1 at ``key`` (see ``hom_keys``)."""
        c, r, s = key
        src, tgt = tuple(src), tuple(tgt)
        m = ExactMatrix.zeros(hom_dim(spec, tgt, c), hom_dim(spec, src, c))
        m[r, s] = ONE
        return Morphism(spec, src, tgt, {c: m})

    def entries(self) -> dict:
        """The nonzero entries {(charge, target tree, source tree): value}, in ``hom_keys`` order."""
        out = {}
        for c in self.spec.labels:
            m = self.blocks.get(c)
            if m is None:
                continue
            for s in range(m.cols):
                for r, row in enumerate(m.data):
                    if not row[s].is_zero():
                        out[(c, r, s)] = row[s]
        return out

    def block(self, charge: str) -> ExactMatrix:
        got = self.blocks.get(charge)
        if got is not None:
            return got
        return ExactMatrix.zeros(
            hom_dim(self.spec, self.tgt, charge), hom_dim(self.spec, self.src, charge)
        )

    def compose(self, other: "Morphism") -> "Morphism":
        """self o other (other acts first)."""
        if other.tgt != self.src:
            raise IllFormedDiagramError(
                f"cannot compose: middle words {other.tgt} vs {self.src}"
            )
        blocks = {}
        for c in set(self.blocks) & set(other.blocks):
            m = self.blocks[c] @ other.blocks[c]
            if not m.is_zero():
                blocks[c] = m
        return Morphism(self.spec, other.src, self.tgt, blocks)

    def __add__(self, other: "Morphism") -> "Morphism":
        if (self.src, self.tgt) != (other.src, other.tgt):
            raise IllFormedDiagramError("cannot add morphisms of different shapes")
        blocks = dict(self.blocks)
        for c, m in other.blocks.items():
            blocks[c] = blocks[c] + m if c in blocks else m
        return Morphism(self.spec, self.src, self.tgt, blocks)

    def scale(self, s: Cyclotomic) -> "Morphism":
        return Morphism(
            self.spec, self.src, self.tgt, {c: m.scale(s) for c, m in self.blocks.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        if (self.src, self.tgt) != (other.src, other.tgt):
            return False
        return all(self.block(c) == other.block(c) for c in set(self.blocks) | set(other.blocks))

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.blocks.values())

    def scalar(self) -> Cyclotomic:
        """Value of an endomorphism of the empty word."""
        if self.src or self.tgt:
            raise IllFormedDiagramError("scalar() needs an empty-word endomorphism")
        m = self.blocks.get(self.spec.unit)
        return m[0, 0] if m is not None else C0

    def apply(self, op) -> "Morphism":
        """Post-compose one generator acting on the target word."""
        return self.apply_all((op,))

    def apply_all(self, ops) -> "Morphism":
        """Post-compose a generator word (first op acts first) in one pass.

        The word acts on a window (s, k) of the target (``_active_window``):
        its map is composed once per head charge es[s] on the window word,
        and every tree carries its head and tail through unchanged.
        """
        ops = tuple(ops)
        if not ops:
            return self
        spec, tgt = self.spec, self.tgt
        s, k = _active_window(len(tgt), ops)
        local = tuple((op[0], op[1] - s) + op[2:] for op in ops)
        new_word = word_after(spec, tgt, ops)
        old, new = all_trees(spec, tgt), all_trees(spec, new_word)
        blocks = {}
        for c, m in self.blocks.items():
            rows = _push(spec, zip(old.get(c, ()), m.data), tgt[s + 1 : k], s, k, local)
            if rows:
                ts = new.get(c, ())
                blocks[c] = ExactMatrix._adopt(
                    len(ts), m.cols, [rows.get(t) or [C0] * m.cols for t in ts]
                )
        return Morphism(spec, self.src, new_word, blocks)

    def apply_coupon(self, pos: int, f: "Morphism") -> "Morphism":
        """Post-compose ``1 (x) f (x) 1`` with f's source at strand ``pos``.

        f is a sum of its nonzero entries f_d[r, s], and each entry acts as
        two generator words: merge the source strands to d along source tree
        s, then split d along target tree r.  The merged state is shared by
        the entries of column s.
        """
        spec = self.spec
        src_w, tgt_w = f.src, f.tgt
        if self.tgt[pos - 1 : pos - 1 + len(src_w)] != src_w:
            raise IllFormedDiagramError(
                f"coupon source {src_w} does not match strands at {pos} of {self.tgt}"
            )
        new_tgt = self.tgt[: pos - 1] + tgt_w + self.tgt[pos - 1 + len(src_w) :]
        out = Morphism.zero(spec, self.src, new_tgt)
        for d, fm in f.blocks.items():
            s_trees, t_trees = trees(spec, src_w, d), trees(spec, tgt_w, d)
            for s, s_tree in enumerate(s_trees):
                entries = [(r, row[s]) for r, row in enumerate(fm.data) if not row[s].is_zero()]
                if not entries:
                    continue
                merged = self.apply_all(_merge_word(pos, src_w, s_tree))
                for r, x in entries:
                    term = merged.apply_all(_split_word(pos, tgt_w, t_trees[r]))
                    out = out + (term if x == ONE else term.scale(x))
        return out


def _merge_word(pos: int, src_w: Word, tree: Tree) -> tuple:
    """Merge strands ``src_w`` at ``pos`` to one along ``tree``; a unit strand if empty."""
    if not src_w:
        return (("unit_insert", pos - 1),)
    es, mus = tree
    return tuple(("merge", pos, es[k - 1], mus[k - 2]) for k in range(2, len(src_w) + 1))


def _split_word(pos: int, tgt_w: Word, tree: Tree) -> tuple:
    """Split strand ``pos`` into ``tgt_w`` along ``tree``; remove a unit strand if empty."""
    if not tgt_w:
        return (("unit_remove", pos),)
    es, mus = tree
    return tuple(
        ("split", pos, es[k - 2], tgt_w[k - 1], mus[k - 2]) for k in range(len(tgt_w), 1, -1)
    )


def _push(spec, rows, rest: Word, s: int, k: int, ops: tuple) -> dict:
    """Move (tree, row) pairs through ``ops`` acting on the window (s, k).

    A tree (es, mus) is its head (es[:s], mus[:s]), its window (es[s:k],
    mus[s:k-1]) over the word (es[s],) + ``rest``, and its tail (es[k:],
    mus[k-1:]): out[head + window' + tail] += coeff * row for (window',
    coeff) in the window word's map.  Rows are lists of column entries; only
    their nonzero entries move, and a row with none reaches no key.
    """
    maps: dict = {}
    out: dict = {}
    for (es, mus), row in rows:
        charge = es[s : s + 1]
        mapping = maps.get(charge)
        if mapping is None:
            mapping = maps[charge] = _word_map(spec, charge + rest, ops)
        targets = mapping.get((es[s:k], mus[s : k - 1]))
        if not targets:
            continue
        nonzero = [(j, v) for j, v in enumerate(row) if not v.is_zero()]
        if not nonzero:
            continue
        head_es, head_mus, tail_es, tail_mus = es[:s], mus[:s], es[k:], mus[k - 1 :]
        for (es2, mus2), coeff in targets:
            key2 = (head_es + es2 + tail_es, head_mus + mus2 + tail_mus)
            dst = out.get(key2)
            if dst is None:
                dst = out[key2] = [C0] * len(row)
            for j, v in nonzero:
                # A new row holds the shared zero C0: store the first term.
                w = dst[j]
                dst[j] = coeff * v if w is C0 else w + coeff * v
    return out


@cached
def _local_moves(spec, word: Word, tree: Tree, op) -> list:
    """``_apply_tree`` on one window, with equal trees merged and zeros dropped."""
    out: dict = {}
    for t, v in _apply_tree(spec, word, tree, op):
        out[t] = out[t] + v if t in out else v
    return [(t, v) for t, v in out.items() if not v.is_zero()]


def _chain_map(spec, word: Word, ops) -> dict[Tree, dict[Tree, Cyclotomic]]:
    """Compose a generator chain on ``word`` into {tree: {tree': coeff}}.

    Each generator acts through ``_local_moves`` on its own window
    (``_active_window``), and each tree carries its head and tail past it.
    """
    steps = []
    w = word
    for op in ops:
        s, k = _active_window(len(w), (op,))
        steps.append((w[s + 1 : k], s, k, (op[0], op[1] - s) + op[2:]))
        w = _op_new_word(spec, w, op)
    out = {}
    for ts in all_trees(spec, word).values():
        for t in ts:
            vec = {t: ONE}
            for rest, s, k, op in steps:
                nxt: dict = {}
                for (es, mus), c1 in vec.items():
                    window = (es[s:k], mus[s : k - 1])
                    head_es, head_mus, tail_es, tail_mus = es[:s], mus[:s], es[k:], mus[k - 1 :]
                    for (es2, mus2), c2 in _local_moves(spec, es[s : s + 1] + rest, window, op):
                        t2 = (head_es + es2 + tail_es, head_mus + mus2 + tail_mus)
                        v = c2 if c1 is ONE else c1 if c2 is ONE else c1 * c2
                        nxt[t2] = nxt[t2] + v if t2 in nxt else v
                vec = {t2: v for t2, v in nxt.items() if not v.is_zero()}
            out[t] = vec
    return out


@lru_cache(maxsize=None)
def _active_window(n: int, ops: tuple) -> tuple[int, int]:
    """The window (s, k) of an n-strand word that ``ops`` acts inside.

    k: at every step, before and after the op, strands 1..k hold the last
    strand the op touches and at least one strand; the tail keeps its
    length.  s = max(L - 2, 0) for the first strand L that any op reads (g + 1
    for a cup or unit_insert at gap g): no op moves or reads strands 1..s+1
    but through their charge es[s].
    """
    length, tail, first = n, n - 1, n + 1
    for op in ops:
        kind, p = op[0], op[1]
        # The last strand touched before and after the op; their difference
        # is the change in the word's length.
        before, after = {
            "braid": (p + 1, p + 1), "twist": (p, p), "merge": (p + 1, p),
            "split": (p, p + 1), "cup": (p, p + 2), "cap": (p + 1, p - 1),
            "unit_insert": (p, p + 1), "unit_remove": (p, p - 1),
        }[kind]
        tail = min(tail, length - before)
        length += after - before
        tail = min(tail, length - max(after, 1))
        first = min(first, p + 1 if kind in ("cup", "unit_insert") else p)
    return max(first - 2, 0), n - max(tail, 0)


@cached
def _word_map(spec, word: Word, ops: tuple) -> dict:
    """Composed action {tree: [(tree', coeff)]} of a generator word on ``word``."""
    return {t: list(vec.items()) for t, vec in _chain_map(spec, word, ops).items() if vec}


# ---------------------------------------------------------------------------
# traces and closed diagrams


def right_trace(spec, h: Morphism) -> Cyclotomic:
    if h.src != h.tgt:
        raise IllFormedDiagramError("trace needs an endomorphism")
    w = h.src
    m = len(w)
    cups = tuple(("cup", k - 1, w[k - 1], False) for k in range(1, m + 1))
    caps = tuple(("cap", k, w[k - 1], True) for k in range(m, 0, -1))
    state = Morphism.identity(spec, ()).apply_all(cups).apply_coupon(1, h)
    return state.apply_all(caps).scalar()


def left_trace(spec, h: Morphism) -> Cyclotomic:
    if h.src != h.tgt:
        raise IllFormedDiagramError("trace needs an endomorphism")
    w = h.src
    m = len(w)
    cups = tuple(("cup", m - k, w[k - 1], True) for k in range(m, 0, -1))
    caps = tuple(("cap", m - k + 1, w[k - 1], False) for k in range(1, m + 1))
    state = Morphism.identity(spec, ()).apply_all(cups).apply_coupon(m + 1, h)
    return state.apply_all(caps).scalar()


@cached
def loop_value(spec, a: str, side: str) -> Cyclotomic:
    """Closed a-loop, by the right trace if ``side`` is "right", else the left."""
    h = Morphism.identity(spec, (a,))
    return right_trace(spec, h) if side == "right" else left_trace(spec, h)


@cached
def theta(spec, a: str) -> Cyclotomic:
    """Twist scalar from the right-closed positive curl."""
    state = Morphism.identity(spec, (a,)).apply_all(
        (("cup", 1, a, False), ("braid", 1, "over"), ("cap", 2, a, True))
    )
    blk = state.blocks.get(a)
    return blk[0, 0] if blk is not None else C0


def hopf_link_value(spec, a: str, b: str) -> Cyclotomic:
    """Closed double braiding of an a-loop and a b-loop."""
    word = (
        ("cup", 0, a, False),
        ("cup", 2, b, False),
        ("braid", 2, "over"),
        ("braid", 2, "over"),
        ("cap", 1, a, True),
        ("cap", 1, b, True),
    )
    return Morphism.identity(spec, ()).apply_all(word).scalar()
