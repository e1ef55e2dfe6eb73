import ast
import random
import sys
import zlib
from itertools import product
from pathlib import Path

import pytest

from genuscenter import catalog, center, trees as trees_module
from genuscenter.center import (
    adjunction_maps,
    carrier_basis,
    center_rank,
    induced_half_braidings,
    tube_algebra,
)
from genuscenter.errors import GenusCenterError, IllFormedDiagramError
from genuscenter.exactnum import C0, CYCLOTOMIC, Cyclotomic, CyclotomicField, rational, zeta
from genuscenter.fusion import (
    CategorySpec,
    check_hexagon,
    check_spherical_ribbon,
    quantum_dims,
    s_matrix_and_transparency,
)
from genuscenter.gluing import parse_cycles
from genuscenter.trees import (
    Morphism,
    _active_window,
    _apply_tree,
    _f_moves,
    _grown_trees,
    _local_moves,
    _op_new_word,
    _pivotal_inverse,
    _tree_registry,
    _vertices,
    _word_map,
    all_trees,
    ev_coeff,
    hom_dim,
    hom_keys,
    loop_value,
    trees,
    word_after,
)

from exact_oracle import ExactMatrix, coupon, inverse, left_trace, r_matrix, right_trace
from test_fusion import global_dim, golden, respec

ALL_KEYS = ("fibonacci", "ising", "rep_s3", "rep_z2", "semion", "vec_z2", "vec_z3_q")


def dense(mor, c):
    """The charge-c block of ``mor`` as a dense matrix: rows are target trees,
    columns source trees, and a missing row or block reads as zeros."""
    spec = mor.spec
    blk = mor.blocks.get(c, {})
    cols = hom_dim(spec, mor.src, c)
    return ExactMatrix(
        hom_dim(spec, mor.tgt, c),
        cols,
        [[blk.get(t, {}).get(j, C0) for j in range(cols)] for t in trees(spec, mor.tgt, c)],
    )


def from_dense(spec, src, tgt, mats):
    """The Morphism whose charge-c block is the dense matrix mats[c]."""
    blocks = {}
    for c, m in mats.items():
        rows = {}
        for t, row in zip(trees(spec, tgt, c), m.data):
            nonzero = {j: v for j, v in enumerate(row) if not v.is_zero()}
            if nonzero:
                rows[t] = nonzero
        if rows:
            blocks[c] = rows
    return Morphism(spec, tuple(src), tuple(tgt), blocks)


def dense_apply(state, op):
    """Reference generator action: each tree's image under the generator,
    accumulated into a dense zero grid."""
    spec = state.spec
    new_word = _op_new_word(spec, state.tgt, op)
    mats = {}
    for c in state.blocks:
        m = dense(state, c)
        index = {t: k for k, t in enumerate(trees(spec, new_word, c))}
        out = ExactMatrix.zeros(len(index), m.cols)
        for t_old, row in zip(trees(spec, state.tgt, c), m.data):
            for t_new, coeff in _apply_tree(spec, state.tgt, t_old, op):
                for j, v in enumerate(row):
                    out[index[t_new], j] = out[index[t_new], j] + coeff * v
        mats[c] = out
    return from_dense(spec, state.src, new_word, mats)


def chain_replay_coupon(state, pos, f):
    """Reference: for each nonzero entry of f, fuse the source strands along
    its source tree, split along its target tree, and add the scaled result."""
    spec = state.spec
    src_w, tgt_w = f.src, f.tgt
    new_tgt = state.tgt[: pos - 1] + tgt_w + state.tgt[pos - 1 + len(src_w) :]
    total = Morphism.zero(spec, state.src, new_tgt)
    src_trees = all_trees(spec, src_w)
    tgt_trees = all_trees(spec, tgt_w)
    for d in f.blocks:
        m = dense(f, d)
        for r, (t_es, t_mus) in enumerate(tgt_trees.get(d, [])):
            for col, (s_es, s_mus) in enumerate(src_trees.get(d, [])):
                coeff = m[r, col]
                if coeff.is_zero():
                    continue
                chain = state
                if not src_w:
                    chain = dense_apply(chain, ("unit_insert", pos - 1))
                for k in range(2, len(src_w) + 1):
                    chain = dense_apply(chain, ("merge", pos, s_es[k], s_mus[k - 1]))
                if not tgt_w:
                    chain = dense_apply(chain, ("unit_remove", pos))
                for k in range(len(tgt_w), 1, -1):
                    op = ("split", pos, t_es[k - 1], tgt_w[k - 1], t_mus[k - 1])
                    chain = dense_apply(chain, op)
                total = total + chain.scale(coeff)
    return total


def rng_for(*parts):
    return random.Random(zlib.crc32(repr(parts).encode()))


def scalars(spec, zero=True):
    n = spec.field_order()
    out = [rational(0)] if zero else []
    out += [rational(1), rational(-2), rational(1, 3)]
    if n > 2:
        out += [zeta(n), rational(2) - zeta(n, n - 1)]
    return out


def random_morphism(spec, src, tgt, rng, charges=None, zero=True):
    pool = scalars(spec, zero)
    mats = {}
    for c in charges if charges is not None else spec.labels:
        rows, cols = hom_dim(spec, tgt, c), hom_dim(spec, src, c)
        if rows and cols:
            mats[c] = ExactMatrix(
                rows, cols, [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)]
            )
    return from_dense(spec, src, tgt, mats)


def random_word(spec, length, rng):
    return tuple(rng.choice(spec.labels) for _ in range(length))


def random_target(spec, src_w, rng):
    """A word of length 1 or 2 sharing a total charge with src_w."""
    charges = set(all_trees(spec, src_w))
    words = [w for k in (1, 2) for w in product(spec.labels, repeat=k)]
    return rng.choice([w for w in words if charges & set(all_trees(spec, w))])


def assert_matches_reference(state, pos, f):
    got = coupon(state, pos, f)
    want = chain_replay_coupon(state, pos, f)
    assert got.tgt == want.tgt
    assert got == want
    return got


class TestApplyCoupon:
    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_matches_chain_replay_at_every_position(self, key):
        spec = catalog.builtin(key)
        cases = nonzero = 0
        for w in range(3 if key in ("vec_z2", "rep_z2", "vec_z3_q") else 2):
            rng = rng_for(key, w)
            word = random_word(spec, 4, rng)
            state = random_morphism(spec, word, word, rng)
            for pos in range(1, len(word) + 1):
                for width in range(1, min(3, len(word) - pos + 1) + 1):
                    src_w = word[pos - 1 : pos - 1 + width]
                    f = random_morphism(spec, src_w, random_target(spec, src_w, rng), rng)
                    cases += 1
                    nonzero += not assert_matches_reference(state, pos, f).is_zero()
        assert 3 * nonzero >= cases

    @pytest.mark.parametrize("key,label", [("fibonacci", "t"), ("ising", "s"), ("rep_s3", "V")])
    def test_many_trees_per_charge(self, key, label):
        # Source and target words with several trees of one charge, so every
        # column and row index of the coupon blocks matters.
        spec = catalog.builtin(key)
        rng = rng_for(key, "dense")
        word = (label,) * 4
        state = random_morphism(spec, word, word, rng)
        shapes = set()
        nonzero = 0
        for pos in range(1, 3):
            for width in (2, 3):
                for out_len in (2, 3):
                    src_w = word[pos - 1 : pos - 1 + width]
                    f = random_morphism(spec, src_w, (label,) * out_len, rng)
                    shapes |= {(m.rows > 1, m.cols > 1) for m in (dense(f, c) for c in f.blocks)}
                    nonzero += not assert_matches_reference(state, pos, f).is_zero()
        assert (True, True) in shapes
        assert nonzero >= 4

    @pytest.mark.parametrize("key", ("fibonacci", "ising", "rep_s3"))
    def test_empty_source_and_target_words(self, key):
        spec = catalog.builtin(key)
        rng = rng_for(key, "unit")
        word = random_word(spec, 3, rng)
        state = random_morphism(spec, word, word, rng)
        for a in spec.labels:
            pair = (a, spec.dual[a])
            for pos in range(1, len(word) + 2):
                cup = random_morphism(spec, (), pair, rng, zero=False)
                after = assert_matches_reference(state, pos, cup)
                assert not after.is_zero()
                cap = random_morphism(spec, pair, (), rng)
                assert_matches_reference(after, pos, cap)

    def test_missing_charge_block(self):
        spec = catalog.builtin("fibonacci")
        rng = rng_for("missing")
        word = ("t", "t", "t")
        state = random_morphism(spec, word, word, rng)
        for charges in (("1",), ("t",), ()):
            # Nonzero entries: a zero block is not stored, and f must hold one
            # block at each of these charges.
            f = random_morphism(spec, ("t", "t"), ("t", "t"), rng, charges, zero=False)
            assert set(f.blocks) == set(charges)
            for pos in (1, 2):
                assert_matches_reference(state, pos, f)

    @pytest.mark.parametrize("key", ("fibonacci", "rep_s3"))
    def test_zero_state(self, key):
        spec = catalog.builtin(key)
        rng = rng_for(key, "zero")
        word = random_word(spec, 3, rng)
        zero = Morphism.zero(spec, word, word)
        f = random_morphism(spec, word[1:], random_target(spec, word[1:], rng), rng, zero=False)
        assert f.blocks
        got = coupon(zero, 2, f)
        assert got.is_zero() and got.tgt == word[:1] + f.tgt
        assert got == chain_replay_coupon(zero, 2, f)

    def test_second_call_adds_no_cache_entries(self):
        spec = catalog.builtin("ising")
        rng = rng_for("cache")
        word = ("s", "s", "f", "s")
        state = random_morphism(spec, word, word, rng)
        f = random_morphism(spec, ("s", "f"), ("f", "s"), rng, zero=False)
        assert f.blocks
        first = coupon(state, 2, f)
        size = len(spec._cache)
        assert coupon(state, 2, f) == first
        assert len(spec._cache) == size

    def test_source_mismatch_raises(self):
        spec = catalog.builtin("fibonacci")
        state = Morphism.identity(spec, ("t", "1"))
        word = ("t", "t")
        for key in hom_keys(spec, word, word):
            with pytest.raises(IllFormedDiagramError):
                state.apply_coupon(1, word, word, key)

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_basis_map_at_every_key_matches_chain_replay(self, key):
        # The coupon of one Hom coordinate, at every position and width, and
        # with an empty source word (a cup) and an empty target word (a cap).
        spec = catalog.builtin(key)
        rng = rng_for(key, "keyed")
        a = spec.labels[-1]
        word = (rng.choice(spec.labels), a, spec.dual[a], rng.choice(spec.labels))
        state = random_morphism(spec, word, word, rng, zero=False)
        shapes = [(pos, word[pos - 1 : pos - 1 + width])
                  for pos in range(1, len(word) + 1)
                  for width in range(1, min(3, len(word) - pos + 1) + 1)]
        cases = [(pos, src_w, random_target(spec, src_w, rng)) for pos, src_w in shapes]
        cases += [(pos, (), (b, spec.dual[b])) for pos in range(1, len(word) + 2)
                  for b in spec.labels]
        cases += [(2, (a, spec.dual[a]), ())]
        keys = nonzero = 0
        for pos, src_w, tgt_w in cases:
            for k in hom_keys(spec, src_w, tgt_w):
                got = state.apply_coupon(pos, src_w, tgt_w, k)
                want = chain_replay_coupon(state, pos, Morphism.elementary(spec, src_w, tgt_w, k))
                assert got.tgt == want.tgt and got == want, (pos, src_w, tgt_w, k)
                keys += 1
                nonzero += not got.is_zero()
        assert keys >= len(cases) and 2 * nonzero >= keys


def random_ops(spec, word, length, rng, low=1):
    """A generator word valid on ``word``: braids, cups, caps, merges, splits.

    Every op reads strand ``low`` or later (a cup at gap g reads strand g + 1).
    """
    ops = []
    while len(ops) < length:
        n = len(word)
        kind = rng.choice(("braid", "braid", "cup", "cap", "merge", "split"))
        primed = rng.random() < 0.5
        caps = [i for i in range(low, n) if word[i - 1] == spec.dual[word[i]]]
        if kind == "braid" and n > low:
            op = ("braid", rng.randint(low, n - 1), rng.choice(("over", "under")))
        elif kind == "cup":
            op = ("cup", rng.randint(low - 1, n), rng.choice(spec.labels), primed)
        elif kind == "cap" and caps:
            i = rng.choice(caps)
            op = ("cap", i, word[i - 1] if primed else word[i], primed)
        elif kind == "merge" and n > low:
            i = rng.randint(low, n - 1)
            op = ("merge", i, rng.choice(spec.channels(word[i - 1], word[i])), 0)
        elif kind == "split" and n >= low:
            i = rng.randint(low, n)
            a = rng.choice(spec.labels)
            op = ("split", i, a, rng.choice([b for b in spec.labels if spec.N(a, b, word[i - 1])]), 0)
        else:
            continue
        ops.append(op)
        word = _op_new_word(spec, word, op)
    return tuple(ops)


def curl(i, a, sign):
    """The twist of strand ``i`` labelled ``a``: a curl over itself if sign > 0, else under."""
    sense = "over" if sign > 0 else "under"
    return (("cup", i, a, False), ("braid", i, sense), ("cap", i + 1, a, True))


MISPLACED_CAP = r"cap\(t\) expects strands \(t,t\) at position 3, found \(t,1\)"


class TestApplyAll:
    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_matches_one_generator_at_a_time(self, key):
        spec = catalog.builtin(key)
        nonzero = 0
        for trial in range(6):
            rng = rng_for(key, "word", trial)
            word = random_word(spec, 3, rng)
            state = random_morphism(spec, word, word, rng)
            ops = random_ops(spec, word, 6, rng)
            want = state
            for op in ops:
                want = dense_apply(want, op)
            got = state.apply_all(ops)
            assert got.tgt == want.tgt and got == want
            nonzero += not got.is_zero()
        assert nonzero >= 3

    def test_empty_word_is_the_identity(self):
        spec = catalog.builtin("fibonacci")
        state = random_morphism(spec, ("t", "t"), ("t", "t"), rng_for("empty"))
        assert state.apply_all(()) is state

    @pytest.mark.parametrize(
        "op,message",
        [
            (("cap", 3, "t", False), MISPLACED_CAP),
            (("cap", 3, "t", True), MISPLACED_CAP),
            (("unit_remove", 3), "strand 3 is not the unit"),
        ],
    )
    def test_a_misplaced_op_names_its_strand_in_the_whole_word(self, op, message):
        # The op reads strand 3, so it acts at strand 2 of its window.
        state = Morphism.identity(catalog.builtin("fibonacci"), ("t", "t", "t", "1"))
        with pytest.raises(IllFormedDiagramError, match=message):
            state.apply_all((op,))

    def test_second_call_adds_no_cache_entries(self):
        spec = catalog.builtin("ising")
        rng = rng_for("word cache")
        word = ("s", "s", "f", "s")
        state = random_morphism(spec, word, word, rng)
        ops = random_ops(spec, word, 5, rng)
        first = state.apply_all(ops)
        size = len(spec._cache)
        assert state.apply_all(ops) == first
        assert len(spec._cache) == size


def full_word_apply(state, ops):
    """Reference: ``_apply_tree`` replayed one generator at a time on whole trees."""
    for op in ops:
        state = dense_apply(state, op)
    return state


def ops_at_every_position(spec, word, rng):
    """One generator of each kind at each position of ``word`` where it applies."""
    n = len(word)
    ops = [("braid", i, rng.choice(("over", "under"))) for i in range(1, n)]
    ops += [("merge", i, rng.choice(spec.channels(word[i - 1], word[i])), 0) for i in range(1, n)]
    for i in range(1, n + 1):
        a = rng.choice(spec.labels)
        b = rng.choice([b for b in spec.labels if spec.N(a, b, word[i - 1])])
        ops.append(("split", i, a, b, 0))
    ops += [("cup", g, rng.choice(spec.labels), rng.random() < 0.5) for g in range(n + 1)]
    for i in range(1, n):
        if word[i - 1] == spec.dual[word[i]]:
            primed = rng.random() < 0.5
            ops.append(("cap", i, word[i - 1] if primed else word[i], primed))
    ops += [("unit_insert", g) for g in range(n + 1)]
    ops += [("unit_remove", i) for i in range(1, n + 1) if word[i - 1] == spec.unit]
    return ops


class TestTrimmedMaps:
    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_trimmed_map_equals_the_full_word_map(self, key):
        # Words of length 3 to 6 that start with the unit strand and end in a
        # pair (a*, a), so that unit_remove at 1 and cap at the last pair
        # apply: one with random labels, one with the label of most channels.
        spec = catalog.builtin(key)
        labels = [a for a in spec.labels if a != spec.unit]
        dense = max(labels, key=lambda a: len(spec.channels(a, a)))
        trimmed = collapsed = 0
        for n in range(3, 7):
            rng = rng_for(key, "trim", n)
            for middle in ([rng.choice(labels) for _ in range(n - 2)], [dense] * (n - 2)):
                word = (spec.unit, *middle[:-1], spec.dual[middle[-1]], middle[-1])
                state = random_morphism(spec, word, word, rng)
                for op in ops_at_every_position(spec, word, rng):
                    ops = (op,) + random_ops(spec, _op_new_word(spec, word, op), 1, rng)
                    for gens in (ops[:1], ops):
                        got = state.apply_all(gens)
                        assert got.tgt == word_after(spec, word, gens)
                        assert got == full_word_apply(state, gens), gens
                        s, k = _active_window(spec, n, gens)
                        trimmed += k < n
                        collapsed += s > 0
        assert trimmed >= 200 and collapsed >= 150

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_collapsed_head_equals_the_dense_replay(self, key):
        # Words of ops that all read strand 3 or later, so that the strands
        # left of them pass as the window's root, their charge; the same words
        # after a cap at strand 1 or a cup or unit_insert at gap 0, whose
        # own windows start at strand 1.
        spec = catalog.builtin(key)
        labels = [a for a in spec.labels if a != spec.unit]
        a = max(labels, key=lambda x: len(spec.channels(x, x)))
        collapsed = nonzero = 0
        for n in range(4, 7):
            rng = rng_for(key, "collapse", n)
            word = (spec.dual[a], a, *random_word(spec, n - 2, rng))
            state = random_morphism(spec, word, word, rng, zero=False)
            cup = ("cup", 0, rng.choice(spec.labels), rng.random() < 0.5)
            for edge in ((), (("cap", 1, a, False),), (cup,), (("unit_insert", 0),)):
                for _ in range(3):
                    ops = edge + random_ops(spec, word_after(spec, word, edge), 3, rng, low=3)
                    for gens in (ops[: len(edge) + 1], ops):
                        got = state.apply_all(gens)
                        assert got.tgt == word_after(spec, word, gens)
                        assert got == full_word_apply(state, gens), gens
                        collapsed += _active_window(spec, n, gens)[0] > 0
                        nonzero += not got.is_zero()
        assert collapsed >= 18 and nonzero >= 60

    @pytest.mark.parametrize(
        "n,ops,s,k",
        [
            (5, (("cup", 0, "t", False),), 0, 0),
            (5, (("unit_insert", 0),), 0, 0),
            (5, (("unit_remove", 1),), 0, 1),
            (5, (("braid", 1, "over"),), 0, 2),
            (5, (("cap", 1, "t", True),), 0, 2),
            (5, (("split", 2, "t", "t", 0),), 1, 2),
            (5, (("bend", 3, "t", "t", "t", 0),), 2, 3),
            (5, (("merge", 4, "t", 0),), 3, 5),
            (5, (("cap", 4, "t", False),), 3, 5),
            (5, (("braid", 4, "under"),), 3, 5),
            (5, curl(5, "t", 1), 4, 5),
            (5, (("cup", 5, "t", False),), 5, 5),
            (5, (("cup", 0, "t", False), ("cap", 1, "t", True)), 0, 0),
            (5, (("braid", 1, "over"), ("braid", 2, "over"), ("braid", 3, "over")), 0, 4),
            (5, (("braid", 4, "over"), ("cup", 2, "t", False), ("cap", 4, "t", True)), 2, 5),
            (0, (("cup", 0, "t", False),), 0, 0),
            (0, (("unit_insert", 0), ("unit_remove", 1)), 0, 0),
        ],
        ids=["cup-at-0", "unit-insert-at-0", "unit-remove-at-1", "braid-at-1",
             "cap-at-1", "split-at-2", "bend-at-3", "merge-last-pair", "cap-last-pair",
             "braid-last-pair", "twist-last-strand", "cup-at-the-end", "cup-then-cap",
             "braid-through", "leftmost-read-sets-the-head", "empty-word-cup",
             "empty-word-unit"],
    )
    def test_active_length(self, n, ops, s, k):
        # The window (s, k): the head ends at strand s, the tail after k.
        assert _active_window(fresh("fibonacci"), n, ops) == (s, k)


class TestRootedTrees:
    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_rooted_trees_are_unit_trees_less_their_first_strand(self, key):
        # A tree of ``word`` grown from r is a tree of (r,) + word grown from
        # the unit with its first charge and vertex dropped.
        spec = fresh(key)
        for r in spec.labels:
            for n in range(4):
                for word in product(spec.labels, repeat=n):
                    want = {
                        c: [(es[1:], mus[1:]) for es, mus in ts]
                        for c, ts in all_trees(spec, (r,) + word).items()
                    }
                    assert all_trees(spec, word, r) == want, (r, word)

    def test_a_unit_root_shares_the_table_of_no_root(self):
        spec = fresh("rep_s3")
        table = all_trees(spec, ("V", "V"))
        size = len(spec._cache)
        assert all_trees(spec, ("V", "V"), spec.unit) is table
        assert len(spec._cache) == size
        assert table["1"] == [(("1", "V", "1"), (0, 0))]


# Hom spaces with several trees per charge (rep_s3 (V,V,V)), and an empty source word.
HOM_CASES = (
    ("fibonacci", ("t", "t", "t"), ("t", "t", "t")),
    ("rep_s3", ("V", "V", "V"), ("V", "V", "V")),
    ("fibonacci", (), ("t", "t")),
)


class TestBend:
    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_bend_equals_its_triple(self, key):
        # ("bend", q, a, b, z, mu) turns strand dual(a) at q into (dual(b), z):
        # a primed cup opens (dual(b), b) left of it, b splits to (z, a) along
        # mu, and a primed cap closes a with dual(a).
        spec = catalog.builtin(key)
        checked = nonzero = 0
        for a in spec.labels:
            ad = spec.dual[a]
            words = [(ad,)] + [(x, ad) for x in spec.labels]
            words += [(x, ad, y) for x in spec.labels for y in spec.labels]
            for z in spec.labels:
                for b in spec.channels(z, a):
                    for mu in range(spec.N(z, a, b)):
                        for word in words:
                            q = min(len(word), 2)
                            bend = ("bend", q, a, b, z, mu)
                            triple = (("cup", q - 1, b, True), ("split", q + 1, z, a, mu),
                                      ("cap", q + 2, a, True))
                            ident = Morphism.identity(spec, word)
                            got, want = ident.apply_all((bend,)), ident.apply_all(triple)
                            after = word[: q - 1] + (spec.dual[b], z) + word[q:]
                            assert word_after(spec, word, (bend,)) == after
                            assert word_after(spec, word, triple) == after
                            assert got.tgt == after and got == want, (word, bend)
                            checked += 1
                            nonzero += not got.is_zero()
        assert nonzero == checked > 0

    @pytest.mark.parametrize("word,q", [(("t", "1"), 2), (("1",), 1), (("t",), 2)],
                             ids=["unit-strand", "only-strand", "past-the-end"])
    def test_bend_refuses_a_strand_that_is_not_dual_a(self, word, q):
        spec = catalog.builtin("fibonacci")
        bend = ("bend", q, "t", "t", "t", 0)
        with pytest.raises(IllFormedDiagramError, match=r"bend\(t\) expects strand t"):
            word_after(spec, word, (bend,))
        with pytest.raises(IllFormedDiagramError, match=rf"at position {q}"):
            Morphism.identity(spec, word).apply_all((bend,))


def omega_ring(spec, label, senses):
    """The dimension-weighted ring around one ``label`` strand, linked by two braids."""
    dims, _ = quantum_dims(spec)
    total = Morphism.zero(spec, (label,), (label,))
    for a in spec.labels:
        ring = (("cup", 1, a, False), ("braid", 1, senses[0]), ("braid", 2, senses[1]),
                ("cap", 1, a, True))
        total = total + Morphism.identity(spec, (label,)).apply_all(ring).scale(dims[a])
    return total


def trace_dual_bases(spec, x, y):
    """Bases (phi_i) of Hom(x, y) and (phi^i) of Hom(y, x) with right_trace(phi^j o phi_i) = delta_ij.

    The phi_i are the elementary maps; the phi^i come from the inverse of
    the trace pairing's Gram matrix.
    """
    fwd = [Morphism.elementary(spec, x, y, key) for key in hom_keys(spec, x, y)]
    bwd = [Morphism.elementary(spec, y, x, key) for key in hom_keys(spec, y, x)]
    n = len(fwd)
    gram = ExactMatrix(len(bwd), n, [[right_trace(spec, psi.compose(phi)) for phi in fwd] for psi in bwd])
    ginv = inverse(gram)
    duals = []
    for i in range(n):
        dual = Morphism.zero(spec, y, x)
        for j, psi in enumerate(bwd):
            dual = dual + psi.scale(ginv[i, j])
        duals.append(dual)
    return fwd, duals


class TestIsotopy:
    """Ribbon identities of the strand engine, each on a whole generator word."""

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_reidemeister_two(self, key):
        spec = catalog.builtin(key)
        for a in spec.labels:
            for b in spec.labels:
                ident = Morphism.identity(spec, (a, b))
                over_under = ident.apply_all((("braid", 1, "over"), ("braid", 1, "under")))
                under_over = ident.apply_all((("braid", 1, "under"), ("braid", 1, "over")))
                assert over_under == ident and under_over == ident, (a, b)

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_zigzags_both_chiralities(self, key):
        spec = catalog.builtin(key)
        for a in spec.labels:
            ident = Morphism.identity(spec, (a,))
            zz1 = ident.apply_all((("cup", 0, a, False), ("cap", 2, a, False)))
            zz2 = ident.apply_all((("cup", 1, a, True), ("cap", 1, a, True)))
            assert zz1 == ident and zz2 == ident, a

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_twist_is_theta_times_the_identity(self, key):
        spec = catalog.builtin(key)
        _, twists = quantum_dims(spec)
        for a in spec.labels:
            ident = Morphism.identity(spec, (a,))
            assert ident.apply_all(curl(1, a, 1)) == ident.scale(twists[a])
            assert ident.apply_all(curl(1, a, -1)) == ident.scale(twists[a].inverse())

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_twist_multiplicative_on_channels(self, key):
        # theta_c = theta_a theta_b R[ba;c] R[ab;c] (the double braiding eigenvalue), blockwise.
        spec = catalog.builtin(key)
        _, twists = quantum_dims(spec)
        for a in spec.labels:
            for b in spec.labels:
                for c in spec.channels(a, b):
                    prod = r_matrix(spec, b, a, c) @ r_matrix(spec, a, b, c)
                    for i in range(prod.rows):
                        for j in range(prod.cols):
                            want = twists[c] if i == j else rational(0)
                            assert prod[i, j] * twists[a] * twists[b] == want, (a, b, c)

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_sphericality_on_random_coupons(self, key):
        spec = catalog.builtin(key)
        rng = rng_for("sphericality", key)
        word = (spec.labels[-1], spec.labels[rng.randrange(len(spec.labels))])
        f = Morphism.zero(spec, word, word)
        for hom_key in hom_keys(spec, word, word):
            f = f + Morphism.elementary(spec, word, word, hom_key).scale(rational(rng.randint(-3, 3)))
        assert left_trace(spec, f) == right_trace(spec, f)

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_loop_value_is_the_trace_of_the_identity(self, key):
        spec = fresh(key)
        for a in spec.labels:
            ident = Morphism.identity(spec, (a,))
            assert loop_value(spec, a, "right") == right_trace(spec, ident), a
            assert loop_value(spec, a, "left") == left_trace(spec, ident), a

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_sliding_makes_omega_transparent(self, key):
        # The linked ring around any strand is independent of which side
        # of the ring the strand passes on.
        spec = catalog.builtin(key)
        for x in spec.labels:
            assert omega_ring(spec, x, ("over", "under")) == omega_ring(spec, x, ("under", "over"))

    def test_transparent_label_ring_factors_out(self):
        # In a symmetric catalog the linked ring equals dim(Omega) times id.
        spec = catalog.builtin("rep_z2")
        dims, _ = quantum_dims(spec)
        ident = Morphism.identity(spec, ("1",))
        assert omega_ring(spec, "1", ("over", "under")) == ident.scale(global_dim(dims))

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_omega_completeness(self, key):
        # Cut a strand to every simple charge and resum with dim weights.
        spec = catalog.builtin(key)
        dims, _ = quantum_dims(spec)
        for word in [(a,) for a in spec.labels] + [(spec.labels[-1], spec.labels[0])]:
            total = Morphism.zero(spec, word, word)
            for i in spec.labels:
                fwd, duals = trace_dual_bases(spec, word, (i,))
                for j, phi in enumerate(fwd):
                    for k, psi in enumerate(duals):
                        want = rational(1 if j == k else 0)
                        assert right_trace(spec, psi.compose(phi)) == want
                    total = total + duals[j].compose(phi).scale(dims[i])
            assert total == Morphism.identity(spec, word), word

    def test_crossing_inverse_pairs(self):
        spec = catalog.builtin("fibonacci")
        ident = Morphism.identity(spec, ("t", "t"))
        assert ident.apply_all((("braid", 1, "over"), ("braid", 1, "under"))) == ident

    def test_zigzag_is_identity(self):
        spec = catalog.builtin("fibonacci")
        ident = Morphism.identity(spec, ("t",))
        assert ident.apply_all((("cup", 0, "t", False), ("cap", 2, "t", False))) == ident

    def test_closed_omega_loop_is_global_dim(self):
        # The dimension-weighted sum of closed loops, each a cup then a cap.
        spec = catalog.builtin("fibonacci")
        dims, _ = quantum_dims(spec)
        total = rational(0)
        for a in spec.labels:
            loop = Morphism.identity(spec, ()).apply_all((("cup", 0, a, False), ("cap", 1, a, True)))
            total = total + loop.scalar() * dims[a]
        assert total == global_dim(dims) == rational(2) + golden()

    def test_unit_pairing(self):
        spec = catalog.builtin("fibonacci")
        (key,) = hom_keys(spec, ("1",), ("1",))
        assert right_trace(spec, Morphism.elementary(spec, ("1",), ("1",), key)) == rational(1)

    def test_tau_pairing_is_golden(self):
        spec = catalog.builtin("fibonacci")
        (key,) = hom_keys(spec, ("t",), ("t",))
        assert right_trace(spec, Morphism.elementary(spec, ("t",), ("t",), key)) == golden()

    def test_dual_basis_orthonormal(self):
        spec = catalog.builtin("fibonacci")
        fwd, duals = trace_dual_bases(spec, ("t", "t"), ("t", "t"))
        assert len(fwd) == 2
        for i, phi in enumerate(fwd):
            for j, psi in enumerate(duals):
                assert right_trace(spec, psi.compose(phi)) == rational(1 if i == j else 0)

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_merge_then_split_is_idempotent(self, key):
        spec = catalog.builtin(key)
        for a in spec.labels:
            for b in spec.labels:
                for c in spec.channels(a, b):
                    for mu in range(spec.N(a, b, c)):
                        ops = (("merge", 1, c, mu), ("split", 1, a, b, mu))
                        p = Morphism.identity(spec, (a, b)).apply_all(ops)
                        assert not p.is_zero() and p.compose(p) == p, (a, b, c, mu)

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_a_concatenated_word_is_the_composite(self, key):
        spec = catalog.builtin(key)
        rng = rng_for("concatenation", key)
        for _ in range(4):
            word = random_word(spec, 3, rng)
            w1 = random_ops(spec, word, 3, rng)
            w2 = random_ops(spec, word_after(spec, word, w1), 3, rng)
            first = Morphism.identity(spec, word).apply_all(w1)
            second = Morphism.identity(spec, first.tgt).apply_all(w2)
            assert Morphism.identity(spec, word).apply_all(w1 + w2) == second.compose(first)


class TestHomKeys:
    @pytest.mark.parametrize("key,src,tgt", HOM_CASES)
    def test_keys_cover_the_hom_space_in_order(self, key, src, tgt):
        spec = catalog.builtin(key)
        keys = hom_keys(spec, src, tgt)
        assert len(keys) == sum(hom_dim(spec, src, c) * hom_dim(spec, tgt, c) for c in spec.labels)
        assert keys == sorted(set(keys), key=lambda k: (spec.labels.index(k[0]), k[2], k[1]))

    @pytest.mark.parametrize("key,src,tgt", HOM_CASES)
    def test_elementary_map_has_one_entry(self, key, src, tgt):
        spec = catalog.builtin(key)
        for k in hom_keys(spec, src, tgt):
            assert Morphism.elementary(spec, src, tgt, k).entries() == {k: rational(1)}

    @pytest.mark.parametrize("key,src,tgt", HOM_CASES)
    def test_entries_give_back_the_coefficients(self, key, src, tgt):
        spec = catalog.builtin(key)
        rng = rng_for(key, "entries", len(src))
        keys = hom_keys(spec, src, tgt)
        coeffs = {k: rational(rng.randint(-2, 2)) for k in keys}
        total = Morphism.zero(spec, src, tgt)
        for k, x in coeffs.items():
            total = total + Morphism.elementary(spec, src, tgt, k).scale(x)
        want = {k: x for k, x in coeffs.items() if not x.is_zero()}
        got = total.entries()
        assert got == want and list(got) == list(want)
        assert Morphism.zero(spec, src, tgt).entries() == {}


def test_equality_reads_a_missing_block_as_zero():
    spec = catalog.builtin("fibonacci")
    word = ("t", "t")
    zero = Morphism.zero(spec, word, word)
    padded = from_dense(spec, word, word, {"1": ExactMatrix.zeros(1, 1)})
    one = Morphism.identity(spec, word)
    assert padded == zero and zero == padded
    assert dense(zero, "1") == ExactMatrix.zeros(1, 1)
    assert one != zero and zero != one
    assert one + padded == one and one.scale(zeta(5)) != one


def assert_sparse(mor):
    """The stored layout: no zero value, no empty row and no empty block."""
    for blk in mor.blocks.values():
        assert blk
        for row in blk.values():
            assert row and not any(v.is_zero() for v in row.values())


@pytest.mark.parametrize("key", catalog.catalog_keys())
def test_every_operation_keeps_the_sparse_layout(key):
    # Random values include 0, 1 and -2, so sums cancel in compose, +, the
    # word maps and the coupons; each result must drop what cancelled.
    spec = catalog.builtin(key)
    results = []
    for trial in range(4):
        rng = rng_for(key, "sparse", trial)
        word = random_word(spec, 3, rng)
        state = random_morphism(spec, word, word, rng)
        other = random_morphism(spec, word, word, rng)
        f = random_morphism(spec, word[1:], random_target(spec, word[1:], rng), rng)
        results += [
            state,
            state.apply_all(random_ops(spec, word, 5, rng)),
            state.compose(other),
            state + other,
            state + other.scale(rational(-1)),
            state.scale(scalars(spec, zero=False)[-1]),
            coupon(state, 2, f),
        ]
    assert sum(not m.is_zero() for m in results) >= len(results) // 2
    for m in results:
        assert_sparse(m)
        zero = m + m.scale(rational(-1))
        assert zero == Morphism.zero(spec, m.src, m.tgt) and zero.blocks == {}


def test_a_row_that_cancels_is_dropped():
    # The braid sends two trees onto one tree t2 with coefficients a and b;
    # rows holding b and -a cancel on t2, by apply_all and by compose.
    spec = catalog.builtin("fibonacci")
    word = ("t", "t", "t")
    ops = (("braid", 2, "over"),)
    image = Morphism.identity(spec, word).apply_all(ops)
    c, t2, row = next(
        (c, t2, row) for c, blk in image.blocks.items() for t2, row in blk.items() if len(row) > 1
    )
    (j1, a), (j2, b) = list(row.items())[:2]
    ts = trees(spec, word, c)
    state = Morphism(spec, (c,), word, {c: {ts[j1]: {0: b}, ts[j2]: {0: -a}}})
    for got in (state.apply_all(ops), image.compose(state)):
        assert t2 not in got.blocks[c]
        assert_sparse(got)
        assert got == full_word_apply(state, ops)


FIELD_OPS = ("axpy", "mul", "add", "inverse", "is_zero")


class CountingField(CyclotomicField):
    """``CYCLOTOMIC`` that counts the calls of each of ``FIELD_OPS``."""

    def __init__(self):
        self.calls = dict.fromkeys(FIELD_OPS, 0)
        for name in FIELD_OPS:
            setattr(self, name, self._counted(name, getattr(CYCLOTOMIC, name)))

    def _counted(self, name, op):
        def counted(*args):
            self.calls[name] += 1
            return op(*args)

        return counted


def test_arithmetic_goes_through_the_spec_field():
    sigma = parse_cycles("(1 3)(2 4)")
    want = tube_algebra(fresh("fibonacci"), sigma)
    spec, field = fresh("fibonacci"), CountingField()
    vars(spec)["field"] = field
    got = tube_algebra(spec, sigma)
    assert all(field.calls.values()), field.calls
    assert (got.dim, got.mult, got.unit, got.gens) == (want.dim, want.mult, want.unit, want.gens)
    # The field is the spec's own: another spec's tube makes no call of it.
    calls = dict(field.calls)
    tube_algebra(fresh("fibonacci"), sigma)
    assert field.calls == calls


def test_trees_applies_no_scalar_operator(monkeypatch):
    # A field's operations are bound when exactnum loads, so a patched
    # operator sees a caller in trees only where trees applies it directly.
    direct = set()
    for name in ("__add__", "__mul__", "__neg__", "inverse", "is_zero", "is_rational"):
        def spy(*args, op=getattr(Cyclotomic, name), name=name):
            if sys._getframe(1).f_code.co_filename == trees_module.__file__:
                direct.add(name)
            return op(*args)

        monkeypatch.setattr(Cyclotomic, name, spy)
    sigma = parse_cycles("(1 3)(2 4)")
    for key in ("fibonacci", "ising", "rep_s3"):
        spec = fresh(key)
        tube_algebra(spec, sigma)
        assert check_spherical_ribbon(spec) == []
        # What ``adjoint check`` runs.
        for x in spec.labels:
            for y in spec.labels:
                py = induced_half_braidings(spec, sigma, y)
                fwd, bwd = adjunction_maps(spec, sigma, x, py)
                for phi in carrier_basis(spec, ((x,),), py.words):
                    assert bwd(fwd(phi)) == phi
    assert not direct, sorted(direct)


def fresh(key):
    """A built-in spec with its own empty cache, not the process-wide one."""
    return respec(catalog.builtin(key))


SIG12 = parse_cycles("(1 2)")

# Every table memoized by ``trees.cached``, with arguments valid for fibonacci.
MEMOIZED = [
    (_vertices, ()),
    (_grown_trees, (("t", "t", "t"),)),
    (_grown_trees, (("t", "t"), "t")),
    (ev_coeff, ("t",)),
    (_f_moves, ("t", "t", "t", "t", False)),
    (_pivotal_inverse, ("t",)),
    (_active_window, (2, (("braid", 1, "under"), ("cap", 1, "t", True)))),
    (_local_moves, (("t", "t"), (("1", "t", "1"), (0, 0)), ("braid", 1, "over"))),
    (_word_map, ("1", ("t", "t"), (("braid", 1, "under"), ("cap", 1, "t", True)))),
    (_tree_registry, ()),
    (CategorySpec.f_block, ("t", "t", "t", "t")),
    (CategorySpec.r_inverse, ("t", "t", "1")),
    (center._induced, (SIG12, "t")),
    (center._nested, (SIG12, "t")),
    (center._tube_basis, (SIG12,)),
    (tube_algebra, (SIG12,)),
]


class TestCached:
    @pytest.mark.parametrize(
        "fn,args",
        MEMOIZED,
        ids=[
            fn.__name__ + ("-rooted" if fn is _grown_trees and len(args) > 1 else "")
            for fn, args in MEMOIZED
        ],
    )
    def test_second_call_returns_the_stored_table(self, fn, args):
        spec = fresh("fibonacci")
        first = fn(spec, *args)
        size = len(spec._cache)
        assert fn(spec, *args) is first
        assert len(spec._cache) == size
        assert spec._cache[(fn.__name__, *args)] is first

    def test_the_memoized_functions_are_those_decorated_in_the_sources(self):
        decorated = set()
        for path in Path(trees_module.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.FunctionDef) and any(
                    isinstance(d, ast.Name) and d.id == "cached" for d in node.decorator_list
                ):
                    decorated.add(node.name)
        assert decorated == {fn.__name__ for fn, _ in MEMOIZED}

    def test_every_key_starts_with_its_function_name(self):
        spec = fresh("fibonacci")
        assert check_spherical_ribbon(spec) == check_hexagon(spec) == []
        s_matrix_and_transparency(spec)
        center_rank(spec, SIG12)
        assert {key[0] for key in spec._cache} == {fn.__name__ for fn, _ in MEMOIZED}

    def test_word_maps_share_the_registry_trees(self):
        spec = fresh("fibonacci")
        tube_algebra(spec, parse_cycles("(1 3)(2 4)"))
        registry = _tree_registry(spec)
        maps = [out for key, out in spec._cache.items() if key[0] == "_word_map"]
        outputs = [t2 for out in maps for targets in out.values() for t2, _ in targets]
        assert maps and outputs and all(registry[t2] is t2 for t2 in outputs)
        assert _tree_registry(fresh("fibonacci")) == {}

    @pytest.mark.parametrize("x", (["t"], "q", 3), ids=("list", "unknown-string", "int"))
    def test_induced_pair_of_a_non_object_raises(self, x):
        spec = fresh("fibonacci")
        with pytest.raises(GenusCenterError):
            induced_half_braidings(spec, SIG12, x)
        with pytest.raises(GenusCenterError):
            adjunction_maps(spec, SIG12, x, induced_half_braidings(spec, SIG12, "t"))
