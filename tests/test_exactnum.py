import math
import random
from fractions import Fraction

import numpy as np
import pytest

from genuscenter.errors import (
    DivisionByZeroError,
    MalformedRationalError,
    SingularMatrixError,
)
from genuscenter.exactnum import (
    Cyclotomic,
    ExactMatrix,
    cyc_normalize,
    inverse,
    linear_solve,
    matrix_rank,
    nullspace,
    rational,
    solve,
    zeta,
)


MIXED_ORDERS = [(3, 4), (5, 8), (2, 10, 16), (1, 20), (4, 6, 12)]


def phi_degree(order):
    return sum(1 for k in range(order) if math.gcd(k, order) == 1)


def golden():
    # phi = 1 + z5 + z5^4 is the golden ratio.
    return rational(1) + zeta(5, 1) + zeta(5, 4)


class TestNormalize:
    def test_zeta4_squared_is_minus_one(self):
        assert cyc_normalize(4, [(2, 1, 1)]) == rational(-1)
        assert zeta(4) * zeta(4) == rational(-1)

    def test_zeta6_squared_reduces(self):
        # Phi_6 = x^2 - x + 1, so z6^2 = z6 - 1.
        assert zeta(6) ** 2 == zeta(6) - rational(1)

    def test_golden_ratio_quadratic(self):
        phi = golden()
        assert phi * phi - phi - rational(1) == rational(0)
        assert abs(phi.embed() - (1 + math.sqrt(5)) / 2) < 1e-12

    def test_idempotent(self):
        v = cyc_normalize(12, [(7, 2, 3), (19, 1, 3), (0, -1, 1)])
        again = cyc_normalize(v.order, v.terms())
        assert again == v and again.terms() == v.terms()

    def test_zero_denominator_rejected(self):
        with pytest.raises(MalformedRationalError):
            cyc_normalize(4, [(1, 1, 0)])


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
        assert zeta(5).conjugate() == zeta(5, 4)

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
        # A tuple of orders draws each operand from one of them at random.
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
            )

        for _ in range(25):
            a, b, c = rand_cyc(), rand_cyc(), rand_cyc()
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert a - b == -(b - a)
            assert abs((a * b).embed() - a.embed() * b.embed()) < 1e-9
            assert abs((a + b).embed() - (a.embed() + b.embed())) < 1e-9
            if not a.is_zero():
                assert a * a.inverse() == rational(1)
                assert b / a * a == b

    def test_canonical_form(self):
        rng = random.Random(3)
        for order in (1, 2, 3, 5, 8, 10, 12, 16, 20):
            assert Cyclotomic.zero(order).num == (0,) * phi_degree(order)
            assert Cyclotomic.zero(order).den == 1
            for _ in range(10):
                a = cyc_normalize(order, [
                    (rng.randrange(order), rng.randint(-6, 6), rng.randint(1, 12))
                    for _ in range(3)
                ])
                b = a.lift(2 * order) * zeta(4 * order, rng.randrange(4 * order))
                for v in (a, b, a * a, a + a, -a, a.galois(order - 1)):
                    assert len(v.num) == phi_degree(v.order)
                    assert v.den > 0 and math.gcd(v.den, *v.num) == 1
                for v in (a - a, b * Cyclotomic.zero(order), (a + 1) - (1 + a)):
                    assert v.is_zero() and v.num == (0,) * phi_degree(v.order)
                    assert v.den == 1

    def test_hash_agrees_with_cross_order_equality(self):
        assert zeta(2) == rational(-1) and hash(zeta(2)) == hash(rational(-1))
        assert hash(zeta(4, 2)) == hash(zeta(6, 3))
        assert hash(rational(3, 2)) == hash(Fraction(3, 2))
        assert hash(rational(5)) == hash(5)
        assert len({zeta(4, 2), zeta(6, 3), rational(-1), zeta(2)}) == 1
        for v in (golden(), zeta(8) + zeta(8, 7), zeta(12, 5) * rational(2, 3)):
            lifted = v.lift(v.order * 6)
            assert lifted == v and hash(lifted) == hash(v)

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
        mixed = zeta(10, 3) * rational(3, 4) + zeta(5)
        assert (mixed.order, mixed.terms()) == (10, [(2, 1, 1), (3, 3, 4)])
        v16 = (zeta(16, 3) + rational(1, 2)) * zeta(16, 15) / 3
        assert v16.terms() == [(2, 1, 3), (7, -1, 6)]
        v20 = zeta(4) * zeta(5, 2) - Fraction(2, 7)
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
                v = cyc_normalize(order, terms)
                direct = sum(
                    (n / d) * np.exp(2j * np.pi * e / order) for e, n, d in terms
                )
                assert abs(v.embed() - direct) < 1e-9


class TestLinearSolve:
    def test_identity_rank(self):
        assert linear_solve(ExactMatrix.identity(3), "rank") == 3

    def test_golden_rank_one(self):
        phi = golden()
        m = ExactMatrix(2, 2, [[rational(1), phi], [phi, phi + rational(1)]])
        assert matrix_rank(m) == 1
        null = nullspace(m)
        assert len(null) == 1
        for row in m.data:
            acc = Cyclotomic.zero()
            for a, x in zip(row, null[0]):
                acc = acc + a * x
            assert acc.is_zero()

    def test_solve_half(self):
        m = ExactMatrix(1, 1, [[rational(2)]])
        assert solve(m, [rational(1)]) == [rational(1, 2)]

    def test_inverse_roundtrip(self):
        m = ExactMatrix(
            2, 2, [[zeta(4), rational(1)], [rational(0), zeta(8) + zeta(8, 7)]]
        )
        inv = inverse(m)
        assert (m @ inv) == ExactMatrix.identity(2)

    def test_singular_inverse_raises(self):
        m = ExactMatrix(2, 2, [[rational(1), rational(1)], [rational(1), rational(1)]])
        with pytest.raises(SingularMatrixError):
            inverse(m)

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
            exact = matrix_rank(m)
            float_rank = np.linalg.matrix_rank(m.embed(), tol=1e-9)
            assert exact == float_rank
