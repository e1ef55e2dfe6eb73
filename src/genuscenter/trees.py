"""Fusion-tree bases and the exact strand-diagram engine.

Morphisms between tensor words of simple labels are stored blockwise:
for each simple charge c, the post-composition action Hom(c, source) ->
Hom(c, target) on left-nested splitting trees, as sparse rows {target
tree: {source tree index: value}}.  No zero value, empty row or empty
block is stored.  Every diagram generator (braid, merge, split, bend, cup,
cap, unit_insert, unit_remove) is a local rewrite of those trees whose
coefficients come from F, R, and the pivotal data.  A bend ("bend", q, a,
b, z, mu) turns strand dual(a) at q into (dual(b), z): ``_apply_tree``
composes a primed cup, a split and a primed cap on its window, so no word
map is built over the two strands that the cup adds and the cap removes.

Tree encoding for a word (w_1, ..., w_m) grown from a root charge:
``(es, mus)`` where ``es[0]`` is the root, ``es[k]`` is the charge after
absorbing ``w_k`` (so ``es[-1]`` is the total charge) and ``mus[k-1]``
indexes the vertex ``es[k] -> es[k-1] (x) w_k``.  A whole word grows from
the unit, so the empty word has the one tree ((unit,), ()).

Every strand action is a generator word, and it acts on a window of the
target word (``_active_window``): a head, the strands 1..s that no op
reads; the touched strands s+1..k; and a tail past k.  The window is a
tree of word[s:k] grown from the head's charge es[s], namely (es[s:k+1],
mus[s:k]); the head (es[:s], mus[:s]) and the tail (es[k+1:], mus[k:])
pass through unchanged.  This is exact on both sides: F at strand i reads
es[i-1], the total charge to its left, so no op reads past es[s] into the
head; and a generator reads and rewrites only the charges and vertices at
or left of the last strand it touches (a braid or cap at i reads es[i+1],
a cup at gap g recouples at g+1 over es[g]), and keeps the window's total
charge es[k], on which the tail's first vertex hangs.

One row engine, ``_push``, moves sparse rows through a window action and
carries each tree's head and tail.  ``_local_moves`` holds each
generator's action on each window it meets, so ``_apply_tree`` runs once
per distinct window per spec.  ``_word_map`` pushes the identity rows
{t: {t: 1}} of a window word's trees from one root through that table one
generator at a time and reads the map off by columns, once per root and
window word, and ``apply_all`` pushes each block through one such map per
head charge.  A coupon ``1 (x) f (x) 1`` of the basis map f at a Hom
coordinate (d, r, s) is one generator word: merge the source strands to d
along source tree s, then split d along target tree r.  A coupon is linear
in f, so that of any map is the sum over its entries, which the tests form.

Zeros: ``_local_moves`` drops a generator's, once per window.  Past that,
rows are added and scaled only by the field object ``spec.field``, which
drops every entry that is or becomes 0, and a row or block this empties
goes; every other coefficient operation goes through ``spec.field`` too.
A coefficient 1 in ``_local_moves`` or a word map is the shared
``field.one``: a row moved by it is copied, and ``field.axpy`` adds it
with no product.

A Hom space has the coordinates (charge, target tree, source tree) that
``hom_keys`` lists.  Other modules write a map's entries only through
``Morphism.elementary``, read them only through ``Morphism.entries``, and
name a coupon by its coordinate (``Morphism.apply_coupon``), so the block
layout is known here alone.

Every table derived once per category (splitting vertices, tree lists,
cap coefficients, F blocks and the F and F^-1 moves indexed by incoming
slots, R inverses, pivotal inverses, the window of each generator word,
generator actions on windows, composed word maps, the tree registry,
induced pairs, nested carrier identities, tube bases and tube algebras)
is memoized by ``cached``, the one reader and writer of ``spec._cache``,
so none of them outlives its spec.  The tree registry interns the output
trees of the word maps, so an equal tree in two maps is one object; trees
are compared and hashed by value only, so this changes no result.

Duality normalization: fusion vertices are dual to splitting vertices
(``w o v = id``), cups are plain coevaluations, and cap coefficients are
solved from the zig-zag so that bent strands straighten with no scalar.
Primed cups/caps absorb the pivotal coefficients; closed loops then
evaluate to the quantum dimensions.
"""

from __future__ import annotations

from functools import wraps

from .errors import IllFormedDiagramError, InternalInconsistencyError

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


def all_trees(spec, word: Word, root: str | None = None) -> dict[str, list[Tree]]:
    """Left-nested splitting trees of ``word`` grown from ``root``, grouped by total charge.

    The root defaults to the unit, and a unit root is stored as no root, so
    each (word, root) has one table in ``spec._cache``.
    """
    if root is None or root == spec.unit:
        return _grown_trees(spec, word)
    return _grown_trees(spec, word, root)


@cached
def _grown_trees(spec, word: Word, root: str | None = None) -> dict[str, list[Tree]]:
    vertices = _vertices(spec)
    grown = [((spec.unit if root is None else root,), ())]
    for x in word:
        grown = [
            (es + (c,), mus + (mu,)) for es, mus in grown for c, mu in vertices.get((es[-1], x), ())
        ]
    out: dict[str, list[Tree]] = {}
    for t in grown:
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
def ev_coeff(spec, a: str):
    """Coefficient of ev_a on the dual fusion vertex, from the zig-zag."""
    astar, field = spec.dual[a], spec.field
    _, _, blk = spec.f_block(a, astar, a, a)
    u = spec.unit
    entry = blk.get(((u, 0, 0), (u, 0, 0)))
    if entry is None or field.is_zero(entry):
        raise InternalInconsistencyError(
            f"{spec.name}: F[{a},{astar},{a};{a}] unit-unit entry vanishes"
        )
    return field.inverse(entry)


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

    F[es[i-1], w_i, w_(i+1); es[i+1]] exposes the pair: in the result the
    slot ``es[i]`` holds the pair charge f, ``mus[i-1]`` the pair vertex,
    and ``mus[i]`` the spine vertex ``es[i+1] -> es[i-1] (x) f``.  F^-1
    turns an exposed tree over the (possibly relabeled) word back into a
    left-nested one.  At a unit root both are the identity (strict-unit
    gauge).
    """
    es, mus = tree
    moves = _f_moves(spec, es[i - 1], word[i - 1], word[i], es[i + 1], inverse)
    return [
        ((es[:i] + (e,) + es[i + 1 :], mus[: i - 1] + (nu, rho) + mus[i + 1 :]), v)
        for (e, nu, rho), v in moves.get((es[i], mus[i - 1], mus[i]), ())
    ]


def _op_new_word(spec, word: Word, op) -> Word:
    """The word after ``op``; a cap or unit_remove must find its strands."""
    kind = op[0]
    if kind == "braid":
        _, i, _ = op
        return word[: i - 1] + (word[i], word[i - 1]) + word[i + 1 :]
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
    if kind == "bend":
        _, q, a, b, z, _ = op
        if word[q - 1 : q] != (spec.dual[a],):
            raise IllFormedDiagramError(f"bend({a}) expects strand {spec.dual[a]} at position {q}")
        return word[: q - 1] + (spec.dual[b], z) + word[q:]
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

    ``_op_new_word`` has checked that a cap, bend or unit_remove fits ``word``.
    """
    kind, field, mul = op[0], spec.field, spec.field.mul
    es, mus = tree

    if kind == "braid":
        _, i, direction = op
        a, b = word[i - 1], word[i]
        new_word = _op_new_word(spec, word, op)
        out = []
        for (ees, mmus), v1 in _recouple(spec, word, tree, i):
            f, nu = ees[i], mmus[i - 1]
            blk = spec.r_block(a, b, f) if direction == "over" else spec.r_inverse(b, a, f)
            for (nu2, mu), coeff in blk.items():
                if mu != nu:
                    continue
                cand = (ees, mmus[: i - 1] + (nu2,) + mmus[i:])
                for t2, v2 in _recouple(spec, new_word, cand, i, inverse=True):
                    out.append((t2, mul(mul(v1, coeff), v2)))
        return out

    if kind == "merge":
        _, i, c, nu0 = op
        out = []
        for (ees, mmus), v1 in _recouple(spec, word, tree, i):
            if ees[i] == c and mmus[i - 1] == nu0:
                out.append(((ees[:i] + ees[i + 1 :], mmus[: i - 1] + mmus[i:]), v1))
        return out

    if kind == "split":
        _, i, a, b, mu0 = op
        x = word[i - 1]
        if spec.N(a, b, x) <= mu0:
            return []
        new_word = _op_new_word(spec, word, op)
        exp = (es[:i] + (x,) + es[i:], mus[: i - 1] + (mu0, mus[i - 1]) + mus[i:])
        return _recouple(spec, new_word, exp, i, inverse=True)

    if kind == "cup":
        _, g, a, primed = op
        if primed:
            scale = _pivotal_inverse(spec, a)
            inner = ("cup", g, spec.dual[a], False)
            return [(t, mul(scale, v)) for t, v in _apply_tree(spec, word, tree, inner)]
        new_word = _op_new_word(spec, word, op)
        exp = (es[: g + 1] + (spec.unit, es[g]) + es[g + 1 :], mus[:g] + (0, 0) + mus[g:])
        return _recouple(spec, new_word, exp, g + 1, inverse=True)

    if kind == "cap":
        _, i, a, primed = op
        if primed:
            scale = spec.pivotal_coeff(a)
            inner = ("cap", i, spec.dual[a], False)
            return [(t, mul(scale, v)) for t, v in _apply_tree(spec, word, tree, inner)]
        lam = ev_coeff(spec, a)
        out = []
        for (ees, mmus), v1 in _recouple(spec, word, tree, i):
            if ees[i] == spec.unit and ees[i + 1] == ees[i - 1]:
                out.append(((ees[:i] + ees[i + 2 :], mmus[: i - 1] + mmus[i + 1 :]), mul(v1, lam)))
        return out

    if kind == "bend":
        # A primed cup opens (dual(b), b) left of strand q, b splits to
        # (z, a) along mu, and a primed cap closes a with dual(a).
        _, q, a, b, z, mu = op
        out = [(tree, field.one)]
        for sub in (("cup", q - 1, b, True), ("split", q + 1, z, a, mu), ("cap", q + 2, a, True)):
            out = [(t2, mul(v, v2)) for t, v in out for t2, v2 in _apply_tree(spec, word, t, sub)]
            word = _op_new_word(spec, word, sub)
        return out

    if kind == "unit_insert":
        _, g = op
        return [((es[: g + 1] + (es[g],) + es[g + 1 :], mus[:g] + (0,) + mus[g:]), field.one)]

    if kind == "unit_remove":
        _, i = op
        return [((es[:i] + es[i + 1 :], mus[: i - 1] + mus[i:]), field.one)]

    raise ValueError(f"unknown op {op!r}")


@cached
def _pivotal_inverse(spec, a: str):
    return spec.field.inverse(spec.pivotal_coeff(a))


def word_after(spec, word: Word, ops) -> Word:
    """The word that a generator word turns ``word`` into."""
    for op in ops:
        word = _op_new_word(spec, word, op)
    return word


# ---------------------------------------------------------------------------
# morphisms


class Morphism:
    """Exact morphism between tensor words, stored as sparse charge blocks.

    ``blocks`` is {charge: {target tree: {source tree index: value}}} with no
    zero value, empty row or empty block, so equal maps have equal blocks.
    """

    __slots__ = ("spec", "src", "tgt", "blocks")

    def __init__(self, spec, src: Word, tgt: Word, blocks: dict):
        self.spec = spec
        self.src = tuple(src)
        self.tgt = tuple(tgt)
        self.blocks = blocks

    @staticmethod
    def identity(spec, word: Word) -> "Morphism":
        word, one = tuple(word), spec.field.one
        blocks = {
            c: {t: {i: one} for i, t in enumerate(ts)} for c, ts in all_trees(spec, word).items()
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
        return Morphism(spec, src, tgt, {c: {trees(spec, tgt, c)[r]: {s: spec.field.one}}})

    def entries(self) -> dict:
        """The nonzero entries {(charge, target tree, source tree): value}, in ``hom_keys`` order."""
        out = {}
        for c in self.spec.labels:
            blk = self.blocks.get(c, {})
            ts = trees(self.spec, self.tgt, c) if blk else ()
            cells = sorted((s, r, v) for r, t in enumerate(ts) if t in blk for s, v in blk[t].items())
            out.update(((c, r, s), v) for s, r, v in cells)
        return out

    def compose(self, other: "Morphism") -> "Morphism":
        """self o other (other acts first)."""
        if other.tgt != self.src:
            raise IllFormedDiagramError(
                f"cannot compose: middle words {other.tgt} vs {self.src}"
            )
        blocks, field = {}, self.spec.field
        for c, left in self.blocks.items():
            right, mid, out = other.blocks.get(c, {}), trees(self.spec, self.src, c), {}
            for t, row in left.items():
                for k, x in row.items():
                    if mid[k] in right:
                        _add_row(out, t, right[mid[k]], x, field)
            blocks[c] = out
        return Morphism(self.spec, other.src, self.tgt, _pruned(blocks))

    def __add__(self, other: "Morphism") -> "Morphism":
        if (self.src, self.tgt) != (other.src, other.tgt):
            raise IllFormedDiagramError("cannot add morphisms of different shapes")
        blocks, field = {}, self.spec.field
        for m in (self, other):
            for c, blk in m.blocks.items():
                dst = blocks.setdefault(c, {})
                for t, row in blk.items():
                    _add_row(dst, t, row, field.one, field)
        return Morphism(self.spec, self.src, self.tgt, _pruned(blocks))

    def scale(self, s) -> "Morphism":
        blocks = {c: {t: self.spec.field.scaled(s, row) for t, row in blk.items()}
                  for c, blk in self.blocks.items()}
        return Morphism(self.spec, self.src, self.tgt, _pruned(blocks))

    def __eq__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        return (self.src, self.tgt, self.blocks) == (other.src, other.tgt, other.blocks)

    def is_zero(self) -> bool:
        return not self.blocks

    def scalar(self):
        """Value of an endomorphism of the empty word."""
        if self.src or self.tgt:
            raise IllFormedDiagramError("scalar() needs an empty-word endomorphism")
        blk = self.blocks.get(self.spec.unit)
        return blk[(self.spec.unit,), ()][0] if blk else self.spec.field.zero

    def apply_all(self, ops) -> "Morphism":
        """Post-compose a generator word (first op acts first) in one pass.

        The word acts on a window (s, k) of the target (``_active_window``):
        its map on the trees of the window word tgt[s:k] is composed once per
        root, the head charge es[s], and every tree carries its head and
        tail through unchanged.
        """
        ops = tuple(ops)
        if not ops:
            return self
        spec, tgt = self.spec, self.tgt
        s, k = _active_window(spec, len(tgt), ops)
        local = tuple((op[0], op[1] - s) + op[2:] for op in ops)
        new_word = word_after(spec, tgt, ops)
        window_word, maps = tgt[s:k], {}

        def moves(root, window):
            if root not in maps:
                maps[root] = _word_map(spec, root, window_word, local)
            return maps[root].get(window)

        blocks = {c: rows for c, blk in self.blocks.items()
                  if (rows := _push(blk, s, k, moves, spec.field))}
        return Morphism(spec, self.src, new_word, blocks)

    def apply_coupon(self, pos: int, src_w: Word, tgt_w: Word, key) -> "Morphism":
        """Post-compose ``1 (x) f (x) 1`` with f's source at strand ``pos``.

        f is the basis map of Hom(src_w, tgt_w) at ``key`` = (d, r, s) (see
        ``hom_keys``): the word that merges the source strands to d along
        source tree s, then the word that splits d along target tree r,
        applied in one pass.
        """
        if self.tgt[pos - 1 : pos - 1 + len(src_w)] != src_w:
            raise IllFormedDiagramError(
                f"coupon source {src_w} does not match strands at {pos} of {self.tgt}"
            )
        d, r, s = key
        spec = self.spec
        return self.apply_all(_merge_word(pos, src_w, trees(spec, src_w, d)[s])
                              + _split_word(pos, tgt_w, trees(spec, tgt_w, d)[r]))


def _merge_word(pos: int, src_w: Word, tree: Tree) -> tuple:
    """Merge strands ``src_w`` at ``pos`` to one along ``tree``; a unit strand if empty."""
    if not src_w:
        return (("unit_insert", pos - 1),)
    es, mus = tree
    return tuple(("merge", pos, es[k], mus[k - 1]) for k in range(2, len(src_w) + 1))


def _split_word(pos: int, tgt_w: Word, tree: Tree) -> tuple:
    """Split strand ``pos`` into ``tgt_w`` along ``tree``; remove a unit strand if empty."""
    if not tgt_w:
        return (("unit_remove", pos),)
    es, mus = tree
    return tuple(
        ("split", pos, es[k - 1], tgt_w[k - 1], mus[k - 1]) for k in range(len(tgt_w), 1, -1)
    )


def _add_row(out: dict, key, row: dict, coeff, field) -> None:
    """out[key] += coeff * row, in a row of out's own (``field.axpy``)."""
    if coeff is field.one and key not in out:
        out[key] = dict(row)
    else:
        field.axpy(out.setdefault(key, {}), coeff, row)


def _pruned(blocks: dict) -> dict:
    """``blocks`` less the rows that sums emptied, and the blocks left empty."""
    return {c: rows for c, blk in blocks.items() if (rows := {t: r for t, r in blk.items() if r})}


def _push(rows: dict, s: int, k: int, moves, field) -> dict:
    """Move sparse rows {tree: {column: value}} through a window action.

    A tree (es, mus) is its head (es[:s], mus[:s]), its window (es[s:k+1],
    mus[s:k]), which grows strands s+1..k from the root es[s], and its tail
    (es[k+1:], mus[k:]); ``moves(es[s], window)`` lists the (window', coeff)
    it turns into, and out[head + window' + tail] += coeff * row in ``field``.
    Rows that sums emptied are dropped.
    """
    out: dict = {}
    for (es, mus), row in rows.items():
        targets = moves(es[s], (es[s : k + 1], mus[s:k]))
        if not targets:
            continue
        head_es, head_mus, tail_es, tail_mus = es[:s], mus[:s], es[k + 1 :], mus[k:]
        for (es2, mus2), coeff in targets:
            _add_row(out, (head_es + es2 + tail_es, head_mus + mus2 + tail_mus), row, coeff, field)
    return {t: row for t, row in out.items() if row}


@cached
def _local_moves(spec, word: Word, tree: Tree, op) -> list:
    """``_apply_tree`` on one window: equal trees merged, zeros dropped, 1 as ``field.one``."""
    out, field = {}, spec.field
    for t, v in _apply_tree(spec, word, tree, op):
        out[t] = field.add(out[t], v) if t in out else v
    return [(t, field.canonical(v)) for t, v in out.items() if not field.is_zero(v)]


@cached
def _word_map(spec, root: str, word: Word, ops: tuple) -> dict[Tree, list]:
    """Composed action {tree: [(tree', coeff)]} of a generator word on ``word``.

    The trees are those of ``word`` grown from ``root``.  ``_push`` moves
    their identity rows {t: {t: field.one}} through each generator's
    ``_local_moves`` on its own window (``_active_window``); the map is then
    read off by columns, each output tree stored as its ``_tree_registry`` object.
    """
    rows = {t: {t: spec.field.one} for ts in all_trees(spec, word, root).values() for t in ts}
    for op in ops:
        s, k = _active_window(spec, len(word), (op,))
        window_word, local = word[s:k], (op[0], op[1] - s) + op[2:]
        rows = _push(rows, s, k, lambda _, window: _local_moves(spec, window_word, window, local),
                     spec.field)
        word = _op_new_word(spec, word, op)
    out, registry = {}, _tree_registry(spec)
    for t2, row in rows.items():
        t2 = registry.setdefault(t2, t2)
        for t, v in row.items():
            out.setdefault(t, []).append((t2, spec.field.canonical(v)))
    return out


@cached
def _tree_registry(spec) -> dict[Tree, Tree]:
    """One object for each distinct tree that a word map outputs, equal trees being one."""
    return {}


@cached
def _active_window(spec, n: int, ops: tuple) -> tuple[int, int]:
    """The window (s, k) of an n-strand word that ``ops`` acts inside.

    k: at every step, before and after the op, strands 1..k hold the last
    strand the op touches; the tail keeps its length.  s = L - 1 for the
    first strand L that any op reads (g + 1 for a cup or unit_insert at gap
    g): no op moves or reads strands 1..s but through their charge es[s],
    the root of the window.
    """
    length, tail, first = n, n, n + 1
    for op in ops:
        kind, p = op[0], op[1]
        # The last strand touched before and after the op; their difference
        # is the change in the word's length.
        before, after = {
            "braid": (p + 1, p + 1), "merge": (p + 1, p), "split": (p, p + 1),
            "bend": (p, p + 1), "cup": (p, p + 2), "cap": (p + 1, p - 1),
            "unit_insert": (p, p + 1), "unit_remove": (p, p - 1),
        }[kind]
        tail = min(tail, length - before)
        length += after - before
        tail = min(tail, length - after)
        first = min(first, p + 1 if kind in ("cup", "unit_insert") else p)
    return first - 1, n - tail


# ---------------------------------------------------------------------------
# closed diagrams


def loop_value(spec, a: str, side: str):
    """Closed a-loop: a cup and a cap, the cap primed if ``side`` is "right", the cup if "left"."""
    word = (("cup", 0, a, side == "left"), ("cap", 1, a, side == "right"))
    return Morphism.identity(spec, ()).apply_all(word).scalar()


def theta(spec, a: str):
    """Twist scalar from the right-closed positive curl."""
    state = Morphism.identity(spec, (a,)).apply_all(
        (("cup", 1, a, False), ("braid", 1, "over"), ("cap", 2, a, True))
    )
    blk = state.blocks.get(a)
    return blk[(spec.unit, a), (0,)][0] if blk else spec.field.zero


def hopf_link_value(spec, a: str, b: str):
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
