import dataclasses
import itertools
import math
import random

import pytest

from genuscenter import catalog
from genuscenter.algebra import (
    _PRIME_RANGE, AlgebraData, _decompose_mod, _is_prime, _minpoly, _primes, decompose,
)
from genuscenter.center import _tube_products, tube_algebra
from genuscenter.errors import GenusCenterError, NonSplitError
from genuscenter.exactnum import Echelon, PrimeField, rational, zeta
from genuscenter.gluing import parse_cycles

from exact_oracle import ExactMatrix, center_basis, matrix_rank

ONE = rational(1)


def two_dim(square):
    """The algebra with basis 1 = e0, e1 and e1 * e1 = square * e0."""
    mult = {(0, 0): {0: ONE}, (0, 1): {1: ONE}, (1, 0): {1: ONE}}
    if square:
        mult[(1, 1)] = {0: square}
    return AlgebraData(dim=2, mult=mult, unit={0: ONE})


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

    def test_sqrt2_splits_over_c_after_the_first_prime_fails_c(self):
        # Q(sqrt 2): 2 is not a square mod the first prime, so there the
        # centre has no eigenvalues in F_p; over C the algebra is C x C.
        alg = two_dim(rational(2))
        with pytest.raises(NonSplitError, match=r"\(c\)"):
            _decompose_mod(alg, first_prime(), random.Random(0))
        assert decompose(alg) == (2, [1, 1])

    def test_semion_annulus_fails_c_at_the_first_prime(self):
        # Its structure constants are rational, but its centre needs sqrt(-1),
        # which F_p lacks at the first prime, 3 mod 4.  Over its spec's field
        # Q(i) the primes are 1 mod 4, where it is there.
        alg = tube_algebra(catalog.builtin("semion"), parse_cycles("(1 2)"))
        over_q = dataclasses.replace(alg, order=1)
        with pytest.raises(NonSplitError, match=r"\(c\)"):
            _decompose_mod(over_q, first_prime(), random.Random(7))
        assert alg.order == 4 and first_prime() % 4 == 3
        assert decompose(over_q) == decompose(alg) == (4, [1, 1, 1, 1])

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
        # reaches the rest; the repeated size 2 is a gcd of degree 2.
        sizes = (1, 2, 2, 3)
        units = [(b, i, j) for b, m in enumerate(sizes) for i in range(m) for j in range(m)]
        index = {u: k for k, u in enumerate(units)}
        gens = [index[b, i, j] for b, i, j in units if abs(i - j) == 1 or sizes[b] == 1]
        mult = {}
        for b, i, j in units:
            for k in range(sizes[b]):
                if index[b, j, k] in gens:
                    mult[index[b, i, j], index[b, j, k]] = {index[b, i, k]: ONE}
        unit = {index[b, i, i]: ONE for b, i, j in units if i == j}
        alg = AlgebraData(dim=18, mult=mult, unit=unit, gens=gens)
        assert len(gens) == 9
        assert decompose(alg) == (4, [1, 2, 2, 3])

    def test_a_constant_outside_the_field_is_refused(self):
        # two_dim is over Q; zeta_5 is not in it.
        with pytest.raises(ValueError, match=r"order 5 is not in Q\(zeta_1\)"):
            decompose(two_dim(zeta(5)))

    def test_empty_algebra(self):
        with pytest.raises(NonSplitError, match="empty center"):
            decompose(AlgebraData(dim=0, mult={}, unit={}))


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
