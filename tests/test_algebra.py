import itertools
import math
import random
import tracemalloc

import pytest

from genuscenter import algebra, catalog, center
from genuscenter.algebra import (
    _PRIME_RANGE, AlgebraData, _classes, _decompose_mod, _is_prime, _minpoly, _primes, decompose,
)
from genuscenter.center import _tube_products, center_rank, tube_algebra
from genuscenter.errors import GenusCenterError, NonSplitError
from genuscenter.exactnum import Echelon, PrimeField, rational, zeta
from genuscenter.gluing import Gluing, enumerate_adm, parse_cycles

from exact_oracle import ExactMatrix, center_basis, matrix_rank
from test_fusion import respec

ONE = rational(1)


def two_dim(square):
    """The algebra with basis 1 = e0, e1 and e1 * e1 = square * e0."""
    mult = {(0, 0): {0: ONE}, (0, 1): {1: ONE}, (1, 0): {1: ONE}}
    if square:
        mult[(1, 1)] = {0: square}
    return AlgebraData(dim=2, mult=mult, unit={0: ONE})


def matrices_over(alg, m=2):
    """M_m(alg) on E_ij (x) b_s, numbered (m i + j) dim + s, from alg's whole table."""
    d = alg.dim
    _index, units, unit = matrix_units((m,))
    mult = {
        (x * d + s, y * d + t): {z * d + c: v for c, v in row.items()}
        for (x, y), prod in units.items() for z in prod
        for (s, t), row in alg.mult.items()
    }
    unit = {u * d + c: v for u in unit for c, v in alg.unit.items()}
    return AlgebraData(m * m * d, mult, unit, order=alg.order)


def power_basis(c, n):
    """Q[x]/(x^n - c) on the powers 1, x, ..., x^(n-1)."""
    mult = {(i, j): {(i + j) % n: ONE if i + j < n else c} for i in range(n) for j in range(n)}
    return AlgebraData(dim=n, mult=mult, unit={0: ONE})


def direct_sum(*algs):
    """The product of algebras given by their whole tables, each basis after the last."""
    mult, unit, shift = {}, {}, 0
    for alg in algs:
        mult.update({(a + shift, b + shift): {c + shift: v for c, v in row.items()}
                     for (a, b), row in alg.mult.items()})
        unit.update({c + shift: v for c, v in alg.unit.items()})
        shift += alg.dim
    return AlgebraData(shift, mult, unit, order=math.lcm(*(alg.order for alg in algs)))


def matrix_units(sizes):
    """M_{m_1} + M_{m_2} + ... on its matrix units E_ij of block b, by their index (b, i, j).

    Returns the index, the whole table and the unit.
    """
    index = {(b, i, j): k for k, (b, i, j) in enumerate(
        (b, i, j) for b, m in enumerate(sizes) for i in range(m) for j in range(m))}
    mult = {
        (index[b, i, j], index[b, j, k]): {index[b, i, k]: ONE}
        for b, i, j in index
        for k in range(sizes[b])
    }
    unit = {index[b, i, i]: ONE for b, i, j in index if i == j}
    return index, mult, unit


def first_prime():
    return next(_primes(1, 2))


class TestCertificate:
    def test_dual_numbers_have_a_degenerate_trace_form(self):
        alg = two_dim(None)  # k[x]/x^2
        with pytest.raises(NonSplitError, match=r"\(b\)"):
            _decompose_mod(alg, first_prime(), random.Random(0))
        with pytest.raises(NonSplitError, match=r"\(b\)"):
            decompose(alg)

    def test_upper_triangular_matrices_fail_b(self):
        # Basis e11, e12, e22 with unit e11 + e22: both corners are separable,
        # but e12 spans a radical, on which the trace form vanishes.
        mult = {(0, 0): {0: ONE}, (0, 1): {1: ONE}, (1, 2): {1: ONE}, (2, 2): {2: ONE}}
        alg = AlgebraData(dim=3, mult=mult, unit={0: ONE, 2: ONE})
        with pytest.raises(NonSplitError, match=r"\(b\)"):
            decompose(alg)

    def test_denominator_divisible_by_the_first_prime_moves_on(self):
        p = first_prime()
        # e1 = x / p in Q[x]/(x^2 - 1): e1 * e1 = e0 / p^2.
        alg = two_dim(rational(1, p * p))
        with pytest.raises(NonSplitError, match=r"\(a\)"):
            _decompose_mod(alg, p, random.Random(0))
        assert decompose(alg) == decompose(two_dim(ONE)) == (2, [1, 1])

    def test_sqrt2_splits_over_c_at_the_first_prime(self):
        # M_2(Q(sqrt 2)): 2 is not a square mod the first prime, so there the
        # centre Q(sqrt 2) has no eigenvalues in F_p, only in its closure; over
        # C it is M_2 x M_2.  Q(sqrt 2) itself is commutative and passes as well.
        alg = matrices_over(two_dim(rational(2)))
        assert _decompose_mod(alg, first_prime(), random.Random(0)) == (2, [2, 2])
        assert decompose(alg) == (2, [2, 2])
        sqrt2 = two_dim(rational(2))
        assert _decompose_mod(sqrt2, first_prime(), random.Random(0)) == (2, [1, 1])
        assert decompose(sqrt2) == (2, [1, 1])

    def test_semion_annulus_and_m2_of_q_i_pass_at_the_first_prime(self):
        # Its structure constants are rational, but its centre needs sqrt(-1),
        # which F_p lacks at the first prime, 3 mod 4.  It is commutative, and
        # M_2(Q(i)) is not; the first prime certifies both.  Over its spec's
        # field Q(i) the primes are 1 mod 4.
        alg = tube_algebra(catalog.builtin("semion"), parse_cycles("(1 2)"))
        over_q = AlgebraData(alg.dim, alg.mult, alg.unit, alg.gens, order=1)
        m2_of_q_i = matrices_over(two_dim(rational(-1)))
        assert _decompose_mod(m2_of_q_i, first_prime(), random.Random(7)) == (2, [2, 2])
        assert decompose(m2_of_q_i) == (2, [2, 2])
        assert _decompose_mod(over_q, first_prime(), random.Random(7)) == (4, [1, 1, 1, 1])
        assert alg.order == 4 and first_prime() % 4 == 3
        assert decompose(over_q) == decompose(alg) == (4, [1, 1, 1, 1])

    @pytest.mark.parametrize("cycles,answer", [
        ("(1 2)", (8, [1] * 5 + [2] * 3)),
        ("(1 3)(2 4)", (24, [1] * 11 + [2] * 10 + [4] * 3)),
    ])
    def test_rep_s3_is_certified_at_each_of_the_first_12_primes(self, cycles, answer):
        # rep_s3's field is Q, but its centre needs zeta_3 (Z(Rep S3) has twists
        # of order 6), which F_p lacks at the primes = 2 (mod 3).  Each tube is
        # one Peirce class.
        tube = tube_algebra(catalog.builtin("rep_s3"), parse_cycles(cycles))
        assert _classes(tube) == one_class(tube)
        primes = list(itertools.islice(_primes(tube.order, tube.dim), 12))
        assert sorted({p % 3 for p in primes}) == [1, 2]
        assert [_decompose_mod(tube, p, random.Random(0)) for p in primes] == [answer] * 12

    @pytest.mark.parametrize("alg,answer", [
        pytest.param(direct_sum(two_dim(rational(2)), matrices_over(power_basis(ONE, 1)),
                                matrices_over(two_dim(rational(-1)), 3)),
                     (5, [1, 1, 2, 3, 3]), id="Q(sqrt2)+M2(Q)+M3(Q(i))"),
        pytest.param(matrices_over(power_basis(rational(2), 3)), (3, [2, 2, 2]),
                     id="M2(Q[x]/(x^3-2))"),
        pytest.param(matrices_over(direct_sum(two_dim(rational(-3)), power_basis(rational(5), 3))),
                     (5, [2, 2, 2, 2, 2]), id="M2(Q(sqrt-3)+Q[x]/(x^3-5))"),
    ])
    def test_an_unsplit_centre_is_read_at_each_of_the_first_8_primes(self, alg, answer):
        # Over F_p the centre is a product of fields F_{p^d}, each of which is
        # d blocks over C; no prime here needs to split it.
        primes = list(itertools.islice(_primes(alg.order, alg.dim), 8))
        assert [_decompose_mod(alg, p, random.Random(0)) for p in primes] == [answer] * 8

    def test_generators_that_do_not_generate_fail_e(self):
        # two_dim(ONE) given by e0 = 1 alone: right multiplication by e0 spans only e0.
        alg = AlgebraData(dim=2, mult={(0, 0): {0: ONE}, (1, 0): {1: ONE}}, unit={0: ONE}, gens=[0])
        with pytest.raises(NonSplitError, match=r"\(e\)"):
            _decompose_mod(alg, first_prime(), random.Random(0))
        with pytest.raises(NonSplitError, match=r"\(e\)"):
            decompose(alg)

    def test_matrix_algebra_is_one_block(self):
        # M_2(Q) on the matrix units e_ij, numbered 2 i + j.
        mult = {
            (2 * i + j, 2 * j + k): {2 * i + k: ONE}
            for i in range(2)
            for j in range(2)
            for k in range(2)
        }
        alg = AlgebraData(dim=4, mult=mult, unit={0: ONE, 3: ONE})
        assert decompose(alg) == (1, [2])

    def test_blocks_are_counted_from_a_generating_subset(self):
        # M_1 + M_2 + M_2 + M_3 on its matrix units, given by the unit of M_1
        # and the units E_{i,i+1}, E_{i+1,i} of the others, so that _close
        # reaches the rest; the repeated size 2 is a gcd of degree 2.  The
        # other diagonal units are not generators, so it is one class.
        sizes = (1, 2, 2, 3)
        index, mult, unit = matrix_units(sizes)
        gens = [index[b, i, j] for b, i, j in index if abs(i - j) == 1 or sizes[b] == 1]
        mult = {(a, g): row for (a, g), row in mult.items() if g in gens}
        alg = AlgebraData(dim=18, mult=mult, unit=unit, gens=gens)
        assert len(gens) == 9
        assert [part for _units, part in _classes(alg)] == [alg]
        assert decompose(alg) == (4, [1, 2, 2, 3])

    def test_a_constant_outside_the_field_is_refused(self):
        # two_dim is over Q; zeta_5 is not in it.
        with pytest.raises(NonSplitError, match=r"\(a\) a structure constant of order 5 is not "
                                                r"in Q\(zeta_1\)$"):
            decompose(two_dim(zeta(5)))

    def test_a_tube_over_too_small_a_field_fails_a(self, monkeypatch):
        # Fibonacci's constants have order 10; read over Q(zeta_5) they fail
        # (a) as a GenusCenterError, before any prime, as no prime mends that.
        tube = tube_algebra(catalog.builtin("fibonacci"), parse_cycles("(1 2)"))
        assert tube.order == 10
        small = AlgebraData(tube.dim, tube.mult, tube.unit, tube.gens, order=5)
        calls = []
        monkeypatch.setattr(algebra, "_decompose_mod", lambda *args: calls.append(args))
        with pytest.raises(NonSplitError, match=r"\(a\) a structure constant of order 10 is not "
                                                r"in Q\(zeta_5\)$") as info:
            decompose(small)
        assert calls == [] and "p = " not in str(info.value)

    def test_powers_of_a_faulty_tube_fail_c_not_a_value_error(self, monkeypatch):
        # With the left crossing of the gamma columns flipped, the commutant
        # of vec_z3_q's torus tube holds no element whose r + 1 powers are
        # dependent.  The faulty tables live on a fresh spec only.
        monkeypatch.setattr(center, "GAMMA_LEFT", "over")
        tube = tube_algebra(respec(catalog.builtin("vec_z3_q")), parse_cycles("(1 3)(2 4)"))
        with pytest.raises(NonSplitError, match=r"p = \d+: \(c\) the \d+ powers of a random central "
                                                r"element are independent$"):
            decompose(tube)

    def test_empty_algebra(self):
        with pytest.raises(NonSplitError, match="empty center"):
            decompose(AlgebraData(dim=0, mult={}, unit={}))


def one_class(alg):
    return [(sorted(alg.unit), alg)]


# Every catalog at every gluing of n <= 2, and at n = 3 the sphere and the
# torus of the catalogs whose n = 3 tubes ``test_center`` builds.
SPLIT_CASES = [
    (key, sigma)
    for key in catalog.catalog_keys()
    for sigma in [Gluing(0, ()), *(s for n in (1, 2) for s in enumerate_adm(n))]
] + [
    (key, parse_cycles(cycles))
    for key in ("semion", "vec_z2", "vec_z3_q", "rep_z2")
    for cycles in ("(1 2)(3 4)(5 6)", "(1 3)(2 4)(5 6)")
] + [("fibonacci", parse_cycles("(1 3)(2 4)(5 6)"))]


def unreadable(change):
    """M_1 + M_2 on its matrix units, its table changed by ``change``."""
    _index, mult, unit = matrix_units((1, 2))
    gens = list(range(5))
    change(mult, unit, gens)
    return AlgebraData(5, mult, unit, gens=gens)


class TestPeirceClasses:
    @pytest.mark.parametrize("key,cycles,dims", [
        ("ising", "(1 2)", [8, 4]), ("ising", "(1 3)(2 4)", [32, 16]),
        ("vec_z3_q", "(1 2)(3 4)", [9, 9, 9]), ("vec_z3_q", "(1 3)(2 4)", [9, 9, 9]),
        ("semion", "(1 2)", [2, 2]), ("rep_z2", "(1 2)", [2, 2]), ("vec_z2", "(1 2)", [2, 2]),
        ("fibonacci", "(1 2)", [7]), ("rep_s3", "(1 2)", [17]),
    ])
    def test_class_dimensions_of_tubes(self, key, cycles, dims):
        tube = tube_algebra(catalog.builtin(key), parse_cycles(cycles))
        assert [part.dim for _units, part in _classes(tube)] == dims

    @pytest.mark.parametrize("key,sigma", SPLIT_CASES,
                             ids=[f"{key}-{sigma.cycle_string()}" for key, sigma in SPLIT_CASES])
    def test_split_matches_one_class(self, key, sigma, monkeypatch):
        tube = tube_algebra(catalog.builtin(key), sigma)
        split = decompose(tube)
        monkeypatch.setattr(algebra, "_classes", one_class)
        assert decompose(tube) == split

    def test_whole_matrix_units_split_by_block(self):
        _index, mult, unit = matrix_units((1, 2, 2, 3))
        alg = AlgebraData(18, mult, unit)
        classes = _classes(alg)
        assert [units for units, _part in classes] == [[0], [1, 4], [5, 8], [9, 13, 17]]
        assert [part.dim for _units, part in classes] == [1, 4, 4, 9]
        assert [part.unit for _units, part in classes][1:3] == [{0: ONE, 3: ONE}] * 2
        assert decompose(alg) == (4, [1, 2, 2, 3])

    def test_f_refuses_a_product_across_classes(self):
        # M_2 + M_2: E_01 of the first block times E_01 of the second.
        index, mult, unit = matrix_units((2, 2))
        mult[index[0, 0, 1], index[1, 0, 1]] = {index[1, 0, 1]: ONE}
        with pytest.raises(NonSplitError, match=r"\(f\) e_1 e_5 is not 0, but e_1 ends at e_3 "
                                                r"and e_5 starts at e_4, in the class with unit "
                                                r"e_0 \+ e_3$"):
            decompose(AlgebraData(8, mult, unit))

    def test_f_refuses_a_product_that_leaves_its_class(self):
        # M_2 + M_2: E_01 E_10 = E_00 of the first block, plus E_00 of the second.
        index, mult, unit = matrix_units((2, 2))
        mult[index[0, 0, 1], index[0, 1, 0]][index[1, 0, 0]] = ONE
        with pytest.raises(NonSplitError, match=r"\(f\) e_1 e_2 leaves the class with unit "
                                                r"e_0 \+ e_3$"):
            decompose(AlgebraData(8, mult, unit))

    @pytest.mark.parametrize("change", [
        pytest.param(lambda mult, unit, gens: unit.update({0: rational(2)}), id="unit-coefficient"),
        pytest.param(lambda mult, unit, gens: gens.remove(4), id="unit-summand-not-a-generator"),
        pytest.param(lambda mult, unit, gens: mult.pop((2, 4)), id="no-end"),
        pytest.param(lambda mult, unit, gens: mult.update({(2, 0): {2: ONE}}), id="two-ends"),
        pytest.param(lambda mult, unit, gens: mult.update({(2, 4): {2: rational(2)}}),
                     id="unit-scales"),
        pytest.param(lambda mult, unit, gens: mult.pop((1, 2)), id="no-start"),
        pytest.param(lambda mult, unit, gens: mult.update({(0, 2): {2: ONE}}), id="two-starts"),
    ])
    def test_a_table_the_split_cannot_read_is_one_class(self, change):
        assert len(_classes(unreadable(lambda mult, unit, gens: None))) == 2
        alg = unreadable(change)
        assert _classes(alg) == one_class(alg) and _classes(alg)[0][1] is alg

    @pytest.mark.parametrize("key,cycles,calls", [
        ("vec_z3_q", "(1 2)(3 4)", 0), ("ising", "(1 2)", 1),
    ])
    def test_minpoly_runs_only_for_a_class_that_is_not_commutative(
        self, key, cycles, calls, monkeypatch
    ):
        seen = []

        def counted(powers, p):
            seen.append(p)
            return _minpoly(powers, p)

        monkeypatch.setattr(algebra, "_minpoly", counted)
        decompose(tube_algebra(catalog.builtin(key), parse_cycles(cycles)))
        assert len(seen) == calls

    def test_decompose_stores_no_table_of_every_product(self):
        # The certificate reads each e_a e_b through the closed elements, so no
        # dim x dim table is built.  Building the whole table of this tube
        # (dim 90) took decompose to a peak of about 3.6 MB; it now needs about
        # 1.3 MB.  tracemalloc traces this process only.
        tube = tube_algebra(catalog.builtin("fibonacci"), parse_cycles("(1 3)(2 4)(5 6)"))
        assert tube.dim == 90
        tracemalloc.start()
        try:
            assert decompose(tube) == (4, [3, 4, 4, 7])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_vec_z3_q_five_punctured_sphere(self):
        # Modular with r = 3 simple objects: rank 3^5, every block of size 1.
        sigma = parse_cycles("(1 2)(3 4)(5 6)(7 8)")
        tube = tube_algebra(catalog.builtin("vec_z3_q"), sigma)
        assert [part.dim for _units, part in _classes(tube)] == [81, 81, 81]
        assert center_rank(catalog.builtin("vec_z3_q"), sigma) == (243, [1] * 243)


@pytest.mark.parametrize(
    "order,first", [(1, 33554467), (5, 33554501), (8, 33554473), (16, 33554593)]
)
def test_first_prime_is_the_smallest_one_mod_the_order_above_2_25(order, first):
    assert next(_primes(order, 10)) == first
    assert next(_primes(order, first)) > first  # p > dim


def by_trial_division(n):
    return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division_below_200000():
    # The range holds the Carmichael numbers 561, 1105, ... and the base-2
    # strong pseudoprimes 2047, 3277, 4033, 4681, 8321, ...
    assert [n for n in range(200_000) if _is_prime(n) != by_trial_division(n)] == []
    assert not any(map(_is_prime, (561, 1105, 2047, 3277, 4033, 4681, 8321)))


def test_is_prime_is_exact_on_the_prime_range():
    # 3,215,031,751 is the least composite that passes all four bases.
    assert _PRIME_RANGE[1] < 3_215_031_751
    assert _is_prime(3_215_031_751) and not by_trial_division(3_215_031_751)


@pytest.mark.parametrize("order", (1, 2, 3, 4, 5, 8, 10, 12, 16, 20, 24))
@pytest.mark.parametrize("dim", (1, 10, 5_000))
def test_primes_are_those_of_trial_division(order, dim):
    lo, hi = _PRIME_RANGE
    want = (n for n in range(max(lo, dim + 1), hi)
            if n % order == 1 % order and by_trial_division(n))
    assert list(itertools.islice(_primes(order, dim), 8)) == list(itertools.islice(want, 8))


def test_exact_center_refuses_a_table_of_generator_products():
    alg = tube_algebra(catalog.builtin("semion"), parse_cycles("(1 3)(2 4)"))
    with pytest.raises(GenusCenterError, match="every basis element"):
        center_basis(alg)


@pytest.mark.parametrize("key", catalog.catalog_keys())
def test_exact_center_matches_the_rank_mod_p(key):
    spec, sigma = catalog.builtin(key), parse_cycles("(1 2)")
    tube = tube_algebra(spec, sigma)
    exact = AlgebraData(tube.dim, _tube_products(spec, sigma, range(tube.dim)), tube.unit)
    assert len(center_basis(exact)) == decompose(tube)[0]


# Gluings of n = 2, where the generators are a proper subset of the basis.
PROPER_GENERATOR_CASES = [
    (key, cycles)
    for key in ("semion", "rep_z2", "vec_z2")
    for cycles in ("(1 3)(2 4)", "(1 2)(3 4)")
]


@pytest.mark.parametrize("key,cycles", PROPER_GENERATOR_CASES)
def test_exact_center_matches_the_commutant_of_the_generators(key, cycles):
    spec, sigma = catalog.builtin(key), parse_cycles(cycles)
    tube = tube_algebra(spec, sigma)
    assert len(tube.gens) < tube.dim
    exact = AlgebraData(tube.dim, _tube_products(spec, sigma, range(tube.dim)), tube.unit)
    rank, _blocks = decompose(tube)
    assert len(center_basis(exact)) == rank, f"{key} at {cycles}"


def small_matrix(seed):
    """Rows of a random small integer matrix, some of them sums of earlier rows."""
    rng = random.Random(seed)
    ncols = rng.randint(1, 6)
    rows = []
    for _ in range(rng.randint(1, 7)):
        if rows and rng.random() < 0.4:
            picks = rng.sample(rows, rng.randint(1, len(rows)))
            rows.append([sum(col) for col in zip(*picks)])
        else:
            rows.append([rng.randint(-3, 3) for _ in range(ncols)])
    return ncols, rows


def sparse(row):
    return {c: x for c, x in enumerate(row) if x}


class TestEchelon:
    @pytest.mark.parametrize("seed", range(20))
    def test_kept_rows_are_the_rank_over_q(self, seed):
        ncols, rows = small_matrix(seed)
        echelon = Echelon(PrimeField(first_prime()))
        kept = [echelon.add(sparse(row), k) is None for k, row in enumerate(rows)]
        exact = ExactMatrix(len(rows), ncols, [[rational(x) for x in row] for row in rows])
        assert sum(kept) == len(echelon.rows) == matrix_rank(exact)

    @pytest.mark.parametrize("seed", range(20))
    def test_kernel_is_annihilated_by_every_added_row(self, seed):
        ncols, rows = small_matrix(seed)
        p = first_prime()
        echelon = Echelon(PrimeField(p))
        for row in rows:
            echelon.add(sparse(row))
        kernel = echelon.kernel(ncols)
        assert len(kernel) == ncols - len(echelon.rows)
        for v in kernel:
            assert all(sum(row[c] * x for c, x in v.items()) % p == 0 for row in rows)

    @pytest.mark.parametrize("seed", range(20))
    def test_a_tail_is_a_combination_that_vanishes(self, seed):
        ncols, rows = small_matrix(seed)
        p = first_prime()
        echelon = Echelon(PrimeField(p))
        for k, row in enumerate(rows):
            tail = echelon.add(sparse(row), k)
            if tail is not None:
                assert tail[k] == 1 and max(tail) == k
                combo = [sum(t * rows[j][c] for j, t in tail.items()) % p for c in range(ncols)]
                assert combo == [0] * ncols

    def test_a_dependent_row_returns_its_tail(self):
        p = first_prime()
        echelon = Echelon(PrimeField(p))
        assert echelon.add({0: 1, 1: 2}, "a") is None
        assert echelon.add({1: 1}, "b") is None
        # (2, 7) = 2 (1, 2) + 3 (0, 1)
        assert echelon.add({0: 2, 1: 7}, "c") == {"a": p - 2, "b": p - 3, "c": 1}


@pytest.mark.parametrize(
    "matrix,mu",
    [
        ([[2, 1, 0], [0, 2, 0], [0, 0, 3]], [-12, 16, -7, 1]),  # (x - 2)^2 (x - 3)
        ([[2, 0, 0], [0, 2, 0], [0, 0, 3]], [6, -5, 1]),  # (x - 2) (x - 3)
        ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [0, 0, 0, 1]),  # x^3
    ],
)
def test_minpoly_of_a_3_by_3_matrix(matrix, mu):
    p = first_prime()
    power = [[int(i == j) for j in range(3)] for i in range(3)]
    powers = []
    for _ in range(4):
        powers.append(sparse([x for row in power for x in row]))
        power = [
            [sum(power[i][k] * matrix[k][j] for k in range(3)) % p for j in range(3)]
            for i in range(3)
        ]
    assert _minpoly(powers, p) == [c % p for c in mu]
