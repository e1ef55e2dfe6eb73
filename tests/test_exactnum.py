import cmath
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest

from genuscenter.errors import (
    DivisionByZeroError,
    InternalInconsistencyError,
    MalformedRationalError,
    SingularMatrixError,
)
from genuscenter.exactnum import (
    C0,
    C1,
    CYCLOTOMIC,
    Cyclotomic,
    Echelon,
    PrimeField,
    _int_poly_div,
    invert,
    rank,
    rational,
    zeta,
)

from exact_oracle import ExactMatrix, inverse, matrix_rank, nullspace, solve


def embed(v: Cyclotomic) -> complex:
    """Numerical embedding zeta_N -> exp(2 pi i / N), the float oracle of the tests."""
    return sum(
        ((x / v.den) * cmath.exp(2j * cmath.pi * e / v.order) for e, x in enumerate(v.num) if x),
        0j,
    )


MIXED_ORDERS = [(3, 4), (5, 8), (2, 10, 16), (1, 20), (4, 6, 12)]


def phi_degree(order):
    return sum(1 for k in range(order) if math.gcd(k, order) == 1)


def golden():
    # phi = 1 + z5 + z5^4 is the golden ratio.
    return rational(1) + zeta(5, 1) + zeta(5, 4)


class TestNormalize:
    def test_zeta4_squared_is_minus_one(self):
        assert Cyclotomic.from_terms(4, [(2, 1, 1)]) == rational(-1)
        assert zeta(4) * zeta(4) == rational(-1)

    def test_zeta6_squared_reduces(self):
        # Phi_6 = x^2 - x + 1, so z6^2 = z6 - 1.
        assert zeta(6) ** 2 == zeta(6) - rational(1)

    def test_non_exact_polynomial_division_raises_a_package_error(self):
        # (x^2 - 1) / (x + 1) = x - 1, but (x^2 + 1) / (x + 1) leaves the
        # remainder 2; the check must hold under python -O too, so it is no
        # assert.
        assert _int_poly_div([-1, 0, 1], [1, 1]) == [-1, 1]
        with pytest.raises(InternalInconsistencyError, match="non-exact"):
            _int_poly_div([1, 0, 1], [1, 1])

    def test_golden_ratio_quadratic(self):
        phi = golden()
        assert phi * phi - phi - rational(1) == rational(0)
        assert abs(embed(phi) - (1 + math.sqrt(5)) / 2) < 1e-12

    def test_idempotent(self):
        v = Cyclotomic.from_terms(12, [(7, 2, 3), (19, 1, 3), (0, -1, 1)])
        again = Cyclotomic.from_terms(v.order, v.terms())
        assert again == v and again.terms() == v.terms()

    def test_zero_denominator_rejected(self):
        with pytest.raises(MalformedRationalError):
            Cyclotomic.from_terms(4, [(1, 1, 0)])


class TestFieldOps:
    def test_sqrt2_squares_to_two(self):
        s = zeta(8) + zeta(8, 7)
        assert s * s == rational(2)

    def test_division_by_sqrt2(self):
        s = zeta(8) + zeta(8, 7)
        got = rational(1) / s
        assert got == s / rational(2)
        assert got * s == rational(1)

    def test_conjugate_of_zeta5(self):
        assert zeta(5).galois(5 - 1) == zeta(5, 4)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZeroError):
            rational(1) / Cyclotomic.zero(5)

    def test_cross_order_equality(self):
        assert zeta(2) == rational(-1)
        assert zeta(6, 3) == rational(-1)
        assert zeta(4, 2) == zeta(6, 3)

    @pytest.mark.parametrize(
        "order",
        [1, 2, 3, 4, 5, 8, 12, 10, 16, 20]
        + [pytest.param(o, id="+".join(map(str, o))) for o in MIXED_ORDERS],
    )
    def test_field_axioms_random(self, order):
        # A tuple of orders draws each operand from one of them at random,
        # then lifts it to their lcm: arithmetic stays in one field.
        orders = order if isinstance(order, tuple) else (order,)
        rng = random.Random(sum(orders) * 7919 + len(orders) - 1)

        def rand_cyc():
            o = orders[0] if len(orders) == 1 else rng.choice(orders)
            return Cyclotomic(
                o,
                {
                    rng.randrange(o): Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                    for _ in range(3)
                },
            ).lift(math.lcm(*orders))

        for _ in range(25):
            a, b, c = rand_cyc(), rand_cyc(), rand_cyc()
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert a - b == -(b - a)
            assert abs(embed(a * b) - embed(a) * embed(b)) < 1e-9
            assert abs(embed(a + b) - (embed(a) + embed(b))) < 1e-9
            if not a.is_zero():
                assert a * a.inverse() == rational(1)
                assert b / a * a == b

    def test_canonical_form(self):
        rng = random.Random(3)
        for order in (1, 2, 3, 5, 8, 10, 12, 16, 20):
            assert Cyclotomic.zero(order).num == (0,) * phi_degree(order)
            assert Cyclotomic.zero(order).den == 1
            for _ in range(10):
                a = Cyclotomic.from_terms(order, [
                    (rng.randrange(order), rng.randint(-6, 6), rng.randint(1, 12))
                    for _ in range(3)
                ])
                b = a.lift(4 * order) * zeta(4 * order, rng.randrange(4 * order))
                for v in (a, b, a * a, a + a, -a, a.galois(order - 1)):
                    assert len(v.num) == phi_degree(v.order)
                    assert v.den > 0 and math.gcd(v.den, *v.num) == 1
                for v in (a - a, b * Cyclotomic.zero(order).lift(4 * order), (a + 1) - (1 + a)):
                    assert v.is_zero() and v.num == (0,) * phi_degree(v.order)
                    assert v.den == 1

    @pytest.mark.parametrize(
        "a,b",
        [(zeta(5), zeta(10, 3)), (zeta(4), zeta(8)), (golden(), zeta(8) + zeta(8, 7))],
        ids=["5-10", "4-8", "5-8"],
    )
    def test_mixed_orders_raise(self, a, b):
        # One field per computation: only a rational operand crosses orders.
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for x, y in ((a, b), (b, a)):
                with pytest.raises(ValueError) as err:
                    op(x, y)
                assert f"order {x.order}" in str(err.value)
                assert f"order {y.order}" in str(err.value)
        for r in (zeta(2), rational(-1)):
            assert a * r == -a and (a * r).order == a.order
            assert a + r == a - 1 and (a + r).order == a.order

    def test_scalars_are_unhashable_and_compare_across_orders(self):
        # Nothing keys a dict or set by a scalar; == lifts across orders.
        for v in (zeta(5), rational(3, 2), golden()):
            with pytest.raises(TypeError):
                hash(v)
        assert zeta(2) == rational(-1) and zeta(4, 2) == zeta(6, 3)
        assert rational(3, 2) == Fraction(3, 2) and rational(5) == 5
        for v in (golden(), zeta(8) + zeta(8, 7), zeta(12, 5) * rational(2, 3)):
            assert v.lift(v.order * 6) == v

    def test_int_and_fraction_operands(self):
        third = Fraction(1, 3)
        for x in (golden(), zeta(8) + rational(1, 2), rational(4, 9)):
            assert x + 2 == 2 + x == x + rational(2)
            assert x - 2 == -(2 - x) == x - rational(2)
            assert x * third == third * x == x * rational(1, 3)
            assert x * 0 == 0 * x == rational(0)
            assert x / 2 == x * rational(1, 2)
            assert third / x == rational(1, 3) * x.inverse()
            assert 2 / x == rational(2) / x
            assert x + third == third + x == x + rational(1, 3)
            assert (x + 2).order == (2 * x).order == x.order

    def test_terms_pinned(self):
        phi = golden()
        assert phi.terms() == [(2, -1, 1), (3, -1, 1)]
        assert phi.inverse().terms() == [(0, -1, 1), (2, -1, 1), (3, -1, 1)]
        sqrt2_inv = (zeta(8) + zeta(8, 7)).inverse()
        assert (sqrt2_inv.order, sqrt2_inv.terms()) == (8, [(1, 1, 2), (3, -1, 2)])
        mixed = zeta(10, 3) * rational(3, 4) + zeta(5).lift(10)
        assert (mixed.order, mixed.terms()) == (10, [(2, 1, 1), (3, 3, 4)])
        v16 = (zeta(16, 3) + rational(1, 2)) * zeta(16, 15) / 3
        assert v16.terms() == [(2, 1, 3), (7, -1, 6)]
        v20 = zeta(4).lift(20) * zeta(5, 2).lift(20) - Fraction(2, 7)
        assert (v20.order, v20.terms()) == (20, [(0, -2, 7), (3, -1, 1)])
        assert rational(-6, 4).terms() == [(0, -3, 2)]

    def test_embed_matches_float_recompute(self):
        rng = random.Random(11)
        for order in (3, 5, 8, 12):
            for _ in range(20):
                terms = [
                    (rng.randrange(order), rng.randint(-3, 3), rng.randint(1, 4))
                    for _ in range(3)
                ]
                v = Cyclotomic.from_terms(order, terms)
                direct = sum(
                    (n / d) * np.exp(2j * np.pi * e / order) for e, n, d in terms
                )
                assert abs(embed(v) - direct) < 1e-9


def sparse_rows(m: ExactMatrix) -> list[dict]:
    """The rows of a dense matrix as {column: x}, without zero entries."""
    return [{j: v for j, v in enumerate(row) if not v.is_zero()} for row in m.data]


def densify(v: dict, n: int) -> list:
    return [v.get(j, C0) for j in range(n)]


def echelon_inverse(m: ExactMatrix) -> ExactMatrix:
    inv = ExactMatrix.zeros(m.rows, m.rows)
    for ij, x in invert(dict(enumerate(sparse_rows(m))), CYCLOTOMIC).items():
        inv[ij] = x
    return inv


class TestLinearSolve:
    def test_identity_rank(self):
        assert rank([{i: rational(1)} for i in range(3)], CYCLOTOMIC) == 3

    def test_constructor_copies_and_checks_the_grid(self):
        with pytest.raises(ValueError):
            ExactMatrix(2, 2, [[rational(1), rational(2)], [rational(3)]])
        with pytest.raises(ValueError):
            ExactMatrix(1, 2, [[rational(1), rational(2)], [rational(3), rational(4)]])
        grid = [[rational(1), rational(2)], [rational(3), rational(4)]]
        m = ExactMatrix(2, 2, grid)
        grid[0][0] = rational(9)
        grid[1] = [rational(0), rational(0)]
        grid.append([rational(5), rational(6)])
        assert m == ExactMatrix(2, 2, [[rational(1), rational(2)], [rational(3), rational(4)]])
        assert m.rows == 2 and len(m.data) == 2

    def test_golden_rank_one(self):
        phi = golden()
        rows = [{0: rational(1), 1: phi}, {0: phi, 1: phi + rational(1)}]
        echelon = Echelon(CYCLOTOMIC)
        for row in rows:
            echelon.add(row)
        assert len(echelon.rows) == 1
        null = echelon.kernel(2)
        assert len(null) == 1
        for row in rows:
            acc = Cyclotomic.zero()
            for j, x in null[0].items():
                acc = acc + row[j] * x
            assert acc.is_zero()

    def test_solve_half(self):
        echelon = Echelon(CYCLOTOMIC)
        assert echelon.add({0: rational(2)}, 0) is None
        assert echelon.add({0: rational(1)}, 1) == {0: rational(-1, 2), 1: C1}

    def test_inverse_roundtrip(self):
        m = ExactMatrix(
            2, 2, [[zeta(4).lift(8), rational(1)], [rational(0), zeta(8) + zeta(8, 7)]]
        )
        assert (m @ echelon_inverse(m)) == ExactMatrix.identity(2)

    def test_singular_inverse_raises(self):
        with pytest.raises(SingularMatrixError):
            invert({0: {0: rational(1), 1: rational(1)}, 1: {0: rational(1), 1: rational(1)}},
                   CYCLOTOMIC)

    def test_rank_matches_float(self):
        rng = random.Random(5)
        for trial in range(12):
            rows = rng.randint(2, 12)
            cols = rng.randint(2, 12)
            rank_target = rng.randint(1, min(rows, cols))
            # Build rows as random combinations of rank_target generators so the
            # exact rank is known to be at most rank_target (floats confirm it).
            gens = [
                [rational(rng.randint(-3, 3)) for _ in range(cols)]
                for _ in range(rank_target)
            ]
            data = []
            for _ in range(rows):
                coeffs = [rng.randint(-2, 2) for _ in range(rank_target)]
                row = []
                for j in range(cols):
                    acc = Cyclotomic.zero()
                    for g, cf in zip(gens, coeffs):
                        acc = acc + g[j] * rational(cf)
                    row.append(acc)
                data.append(row)
            m = ExactMatrix(rows, cols, data)
            exact = rank(sparse_rows(m), CYCLOTOMIC)
            embedded = np.array([[embed(v) for v in row] for row in data])
            float_rank = np.linalg.matrix_rank(embedded, tol=1e-9)
            assert exact == float_rank


def random_scalar(order: int, rng: random.Random) -> Cyclotomic:
    """A random element of Q(zeta_order), zero about one time in ten."""
    if rng.random() < 0.1:
        return Cyclotomic.zero(order)
    terms = [(rng.randrange(order), rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)]
    return Cyclotomic.from_terms(order, terms)


def planted_matrix(order: int, rows: int, cols: int, rank_target: int, rng) -> ExactMatrix:
    """Rows that are random combinations of rank_target random rows: rank <= rank_target."""
    gens = [[random_scalar(order, rng) for _ in range(cols)] for _ in range(rank_target)]
    data = []
    for _ in range(rows):
        coeffs = [random_scalar(order, rng) for _ in gens]
        row = []
        for j in range(cols):
            acc = Cyclotomic.zero(order)
            for g, c in zip(gens, coeffs):
                acc = acc + c * g[j]
            row.append(acc)
        data.append(row)
    return ExactMatrix(rows, cols, data)


def outcome(fn, *args):
    try:
        return fn(*args)
    except SingularMatrixError:
        return SingularMatrixError


ORDERS = (1, 5, 16)  # Q, Q(zeta_5), Q(zeta_16)


class TestEchelonAgainstDense:
    """``Echelon`` over Q(zeta_N) against the dense reference and the float rank."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("order", ORDERS)
    def test_rank_and_kernel(self, order, seed):
        rng = random.Random(f"rank {order} {seed}")
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = planted_matrix(order, rows, cols, rng.randint(1, min(rows, cols)), rng)
        echelon = Echelon(CYCLOTOMIC)
        for row in sparse_rows(m):
            echelon.add(row)
        embedded = np.array([[embed(v) for v in row] for row in m.data])
        assert len(echelon.rows) == matrix_rank(m) == np.linalg.matrix_rank(embedded, tol=1e-9)
        kernel = [densify(v, cols) for v in echelon.kernel(cols)]
        assert kernel == nullspace(m)
        for v in kernel:
            assert (m @ ExactMatrix(cols, 1, [[x] for x in v])).is_zero()

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("order", ORDERS)
    def test_solve(self, order, seed):
        rng = random.Random(f"solve {order} {seed}")
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = planted_matrix(order, rows, cols, rng.randint(1, min(rows, cols)), rng)
        echelon = Echelon(CYCLOTOMIC)
        tails = [echelon.add(row, k) for k, row in enumerate(sparse_rows(m))]
        assert tails.count(None) == matrix_rank(m)
        for k, tail in enumerate(tails):
            if tail is not None:
                assert tail[k] == C1 and max(tail) == k
                assert (ExactMatrix(1, rows, [densify(tail, rows)]) @ m).is_zero()
        # Sum x_k B_k over the independent rows B, added last, has the tail
        # {own: 1, k: -x_k}: its x is the one solution of B^T x = target.
        kept = [k for k, tail in enumerate(tails) if tail is None]
        basis = ExactMatrix(cols, len(kept), [[m.data[k][j] for k in kept] for j in range(cols)])
        x = [random_scalar(order, rng) for _ in kept]
        target = [row[0] for row in (basis @ ExactMatrix(len(kept), 1, [[v] for v in x])).data]
        tail = echelon.add({j: v for j, v in enumerate(target) if not v.is_zero()}, rows)
        assert tail == {rows: C1, **{k: -v for k, v in zip(kept, x) if not v.is_zero()}}
        assert [-tail.get(k, C0) for k in kept] == x == solve(basis, target)
        # A random vector is outside the span, and kept, exactly when it raises the rank.
        vec = [random_scalar(order, rng) for _ in range(cols)]
        outside = echelon.add({j: v for j, v in enumerate(vec) if not v.is_zero()}) is None
        assert outside == (matrix_rank(ExactMatrix(rows + 1, cols, m.data + [vec])) > len(kept))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("order", ORDERS)
    def test_inverse(self, order, seed):
        rng = random.Random(f"inverse {order} {seed}")
        n = rng.randint(1, 5)
        # Seeds 0-2 plant a rank deficiency; the others are almost surely invertible.
        m = planted_matrix(order, n, n, n - 1 if seed < 3 else n, rng)
        got = outcome(echelon_inverse, m)
        want = outcome(inverse, m)
        assert got == want
        if got is SingularMatrixError:
            assert matrix_rank(m) < n
        else:
            assert m @ got == ExactMatrix.identity(n)

    def test_add_leaves_its_input_unchanged(self):
        rows = [{0: rational(2), 1: zeta(5)}, {0: rational(4), 1: zeta(5) * 2, 2: rational(1)}]
        copies = [dict(row) for row in rows]
        echelon = Echelon(CYCLOTOMIC)
        for row in rows:
            echelon.add(row)
        assert rows == copies
        assert all(row is not stored for row in rows for stored, _tail in echelon.rows.values())


class TestFieldObject:
    def test_zero_add_and_mul_are_the_operators(self):
        x, y = zeta(5), zeta(5, 2) + rational(1, 3)
        assert CYCLOTOMIC.zero is C0 and CYCLOTOMIC.one is C1
        assert CYCLOTOMIC.add(x, y) == x + y and CYCLOTOMIC.add(CYCLOTOMIC.zero, x) == x
        assert CYCLOTOMIC.mul(x, y) == x * y and CYCLOTOMIC.mul(CYCLOTOMIC.one, y) == y

    @pytest.mark.parametrize("x", [rational(-2, 3), zeta(5) + rational(1, 3), zeta(16, 3)],
                             ids=["rational", "zeta5", "zeta16"])
    def test_inverse_and_is_zero(self, x):
        assert CYCLOTOMIC.mul(CYCLOTOMIC.inverse(x), x) == C1
        assert not CYCLOTOMIC.is_zero(x)
        assert CYCLOTOMIC.is_zero(CYCLOTOMIC.add(x, -x))
        assert CYCLOTOMIC.is_zero(C0) and CYCLOTOMIC.is_zero(Cyclotomic.zero(5))
        with pytest.raises(DivisionByZeroError):
            CYCLOTOMIC.inverse(Cyclotomic.zero(x.order))

    def test_canonical_one_is_the_shared_one(self):
        one = zeta(5, 5)
        assert one == C1 and one is not C1
        assert CYCLOTOMIC.canonical(one) is C1

    @pytest.mark.parametrize("v", [rational(-1), rational(2), zeta(5)], ids=["-1", "2", "zeta5"])
    def test_canonical_keeps_every_other_value(self, v):
        assert CYCLOTOMIC.canonical(v) is v

    def test_axpy_by_one_adds_the_values_themselves(self):
        y = {0: zeta(5), 1: rational(3), 2: zeta(5, 2), 3: rational(3)}
        x = {1: rational(-3), 2: zeta(5)}
        CYCLOTOMIC.axpy(x, C1, y)
        assert x[0] is y[0] and x[3] is y[3]
        assert 1 not in x
        assert x[2] == zeta(5) + zeta(5, 2)

    def test_axpy_by_one_drops_the_zeros_of_y(self):
        x: dict = {}
        CYCLOTOMIC.axpy(x, C1, {0: C0, 1: Cyclotomic.zero(5), 2: zeta(5)})
        assert x == {2: zeta(5)}

    @pytest.mark.parametrize("field,f,y,want", [
        (CYCLOTOMIC, zeta(8), {0: zeta(8, 3), 4: C0, 5: rational(2, 3)},
         {0: rational(-1), 5: zeta(8) * rational(2, 3)}),
        (CYCLOTOMIC, C1, {0: zeta(8, 3), 4: C0}, {0: zeta(8, 3)}),
        (PrimeField(7), 3, {0: 5, 1: 0, 2: 7}, {0: 1}),
    ], ids=["cyclotomic", "cyclotomic-one", "prime"])
    def test_scaled_is_a_new_dict_and_leaves_y_unchanged(self, field, f, y, want):
        copy = dict(y)
        got = field.scaled(f, y)
        assert got == want and got is not y and y == copy
