"""Exact arithmetic in cyclotomic fields and exact dense linear algebra.

A ``Cyclotomic`` is an element of Q(zeta_N), N = ``order``, held in the
power basis 1, zeta, ..., zeta^(phi(N)-1) as a tuple ``num`` of phi(N)
integer numerators over one integer denominator ``den``:

    value = (num[0] + num[1] zeta + ... ) / den.

The form is canonical: ``den > 0`` and gcd(den, *num) == 1, so zero is
all zeros over 1 and two equal values of one order have equal fields.
The N-th cyclotomic polynomial is monic, so every power of zeta reduces
to an integer vector (the cached tables below), and sums, products,
lifts and Galois maps stay in integers; one gcd per result restores the
canonical form.  Gaussian elimination over these values never loses
exactness.

One field per computation: the operands of ``+ - * /`` are of one order
N, or one of them is rational (order 1 or 2) and scales or shifts the
other in place; any other pair raises ``ValueError``.  A ``CategorySpec``
stores its scalars in Q(zeta_N), N = ``field_order()``, so everything
derived from it stays in that field.  Only ``==``, ``hash`` and ``lift``
compare or move values across orders.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import (
    DivisionByZeroError,
    MalformedRationalError,
    SingularMatrixError,
)

__all__ = [
    "Cyclotomic",
    "ExactMatrix",
    "zeta",
    "rational",
    "matrix_rank",
    "nullspace",
    "solve",
    "inverse",
]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, low degree first."""
    # x^n - 1 = prod_{d | n} Phi_d; divide out the proper divisors.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            q = cyclotomic_polynomial(d)
            poly = _int_poly_div(poly, list(q))
    return tuple(poly)


def _int_poly_div(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1] // den[-1]
        out[k] = c
        for j, dj in enumerate(den):
            num[k + j] -= c * dj
    assert all(v == 0 for v in num), "non-exact polynomial division"
    return out


@lru_cache(maxsize=None)
def _phi_degree(n: int) -> int:
    if n < 1:
        raise MalformedRationalError(f"cyclotomic order must be >= 1, got {n}")
    return len(cyclotomic_polynomial(n)) - 1


@lru_cache(maxsize=None)
def _overflow(n: int) -> tuple[tuple[int, int], ...]:
    """zeta_n^phi(n) = sum c_j zeta_n^j, as the nonzero pairs (j, c_j)."""
    poly = cyclotomic_polynomial(n)
    return tuple((j, -c) for j, c in enumerate(poly[:-1]) if c)


@lru_cache(maxsize=None)
def _power_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row e, 0 <= e < n: zeta_n^e in the power basis, as nonzero (j, c_j)."""
    phi = _phi_degree(n)
    dense = [[int(j == k) for j in range(phi)] for k in range(phi)]
    for _ in range(phi, n):
        # zeta^k = zeta * zeta^(k-1): shift, then fold the overflow term back.
        prev = dense[-1]
        row = [0] + prev[:-1]
        for j, c in _overflow(n):
            row[j] += prev[-1] * c
        dense.append(row)
    return tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in dense[:n])


def _combine(phi: int, coeffs, rows) -> tuple[int, ...]:
    """sum(c * row) over paired integer coeffs and sparse rows, as phi ints."""
    out = [0] * phi
    for c, row in zip(coeffs, rows):
        if c:
            for j, r in row:
                out[j] += c * r
    return tuple(out)


@lru_cache(maxsize=None)
def _traces(n: int) -> tuple[int, ...]:
    """Tr(zeta_n^k) over Q for k < phi(n): the sum of its Galois conjugates."""
    rows = _power_rows(n)
    units = [a for a in range(n) if gcd(a, n) == 1]
    return tuple(
        sum(c for a in units for j, c in rows[a * k % n] if j == 0)
        for k in range(_phi_degree(n))
    )


_new = object.__new__


def _make(order: int, num: tuple, den: int) -> "Cyclotomic":
    """Wrap fields that are already canonical."""
    x = _new(Cyclotomic)
    x.order = order
    x.num = num
    x.den = den
    return x


def _canon(order: int, num: list, den: int) -> "Cyclotomic":
    """Divide integer numerators and a positive denominator by their gcd."""
    if den == 1:
        return _make(order, tuple(num), 1)
    g = gcd(den, *num)
    if g == 1:
        return _make(order, tuple(num), den)
    return _make(order, tuple(v // g for v in num), den // g)


def _coerce(other):
    if isinstance(other, int):
        return _make(1, (int(other),), 1)
    if isinstance(other, Fraction):
        return _make(1, (other.numerator,), other.denominator)
    return None


class Cyclotomic:
    """An exact element of Q(zeta_order): integer numerators ``num`` over ``den``."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs: dict[int, Fraction]):
        """Build sum(q * zeta^e for e, q in coeffs) for any integers e."""
        fracs = [(e, Fraction(q)) for e, q in coeffs.items() if q]
        den = lcm(*(q.denominator for _, q in fracs))
        rows = _power_rows(order)
        num = _combine(
            _phi_degree(order),
            [q.numerator * (den // q.denominator) for _, q in fracs],
            [rows[e % order] for e, _ in fracs],
        )
        g = gcd(den, *num)
        self.order = order
        self.num = tuple(v // g for v in num)
        self.den = den // g

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_terms(order: int, terms) -> "Cyclotomic":
        """Build from (exponent, numerator, denominator) triples."""
        coeffs: dict[int, Fraction] = {}
        for exp, num, den in terms:
            if den == 0:
                raise MalformedRationalError(
                    f"zero denominator in term (exp={exp}, num={num}, den=0)"
                )
            coeffs[exp % order] = coeffs.get(exp % order, Fraction(0)) + Fraction(num, den)
        return Cyclotomic(order, coeffs)

    @staticmethod
    def zero(order: int = 1) -> "Cyclotomic":
        return _make(order, (0,) * _phi_degree(order), 1)

    @staticmethod
    def one(order: int = 1) -> "Cyclotomic":
        return _make(order, (1,) + (0,) * (_phi_degree(order) - 1), 1)

    # -- canonical form ----------------------------------------------

    def lift(self, order: int) -> "Cyclotomic":
        """Rewrite in Q(zeta_order); order must be a multiple of self.order."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"cannot lift order {self.order} into order {order}")
        # Power bases are integral bases and Z[zeta_order] meets Q(zeta_m) in
        # Z[zeta_m], so the lifted numerators keep gcd 1 with den.
        rows = _power_rows(order)[:: order // self.order]
        return _make(order, _combine(_phi_degree(order), self.num, rows), self.den)

    def terms(self):
        """Canonical serialization: sorted (exponent, numerator, denominator)."""
        d = self.den
        out = []
        for e, x in enumerate(self.num):
            if x:
                g = gcd(x, d)
                out.append((e, x // g, d // g))
        return out

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not Cyclotomic:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if other.order <= 2:
            return _shift(self, other)
        if self.order <= 2:
            return _shift(other, self)
        n = self.order
        if other.order != n:
            raise ValueError(f"cannot add order {n} and order {other.order}")
        ad, bd = self.den, other.den
        if ad == bd:
            num = [x + y for x, y in zip(self.num, other.num)]
            if ad == 1:
                return _make(n, tuple(num), 1)
            return _canon(n, num, ad)
        return _canon(n, [x * bd + y * ad for x, y in zip(self.num, other.num)], ad * bd)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        if type(other) is not Cyclotomic:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Cyclotomic:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if other.order <= 2:
            return _scale(self, other)
        if self.order <= 2:
            return _scale(other, self)
        n = self.order
        if other.order != n:
            raise ValueError(f"cannot multiply order {n} and order {other.order}")
        an = self.num
        phi = len(an)
        # Integer convolution over the nonzero entries, then fold degrees
        # >= phi back with Phi_n.
        conv = [0] * (2 * phi - 1)
        bn = other.num
        for i, x in enumerate(an):
            if x:
                for k, y in enumerate(bn, i):
                    if y:
                        conv[k] += x * y
        over = _overflow(n)
        for k in range(2 * phi - 2, phi - 1, -1):
            c = conv[k]
            if c:
                base = k - phi
                for j, p in over:
                    conv[base + j] += c * p
        del conv[phi:]
        return _canon(n, conv, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise DivisionByZeroError("inverse of zero cyclotomic")
        n, num = self.order, self.num
        if self.is_rational():
            p = num[0]
            sign = 1 if p > 0 else -1
            return _make(n, (sign * self.den,) + num[1:], abs(p))
        # 1/x = prod_{a != 1} sigma_a(x) / N(x), and the norm N(x) is rational.
        x = _make(n, num, 1)
        rest = Cyclotomic.one(n)
        for a in range(2, n):
            if gcd(a, n) == 1:
                rest = rest * x.galois(a)
        norm = (x * rest).num[0]
        sign = 1 if norm > 0 else -1
        return _canon(n, [sign * self.den * v for v in rest.num], abs(norm))

    def __truediv__(self, other):
        if type(other) is not Cyclotomic:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyclotomic.one(self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def galois(self, a: int) -> "Cyclotomic":
        """The automorphism zeta -> zeta^a for gcd(a, order) = 1."""
        n = self.order
        if gcd(a, n) != 1:
            raise ValueError(f"{a} is not coprime to {n}")
        # An automorphism of Z[zeta]: the numerators keep their gcd with den.
        rows = _power_rows(n)
        gal = [rows[k * a % n] for k in range(len(self.num))]
        return _make(n, _combine(len(self.num), self.num, gal), self.den)

    # -- comparisons / conversions -------------------------------------

    def __eq__(self, other):
        if type(other) is not Cyclotomic:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b = self, other
        if a.order != b.order:
            n = lcm(a.order, b.order)
            a, b = a.lift(n), b.lift(n)
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        # Tr(x) / phi(order) does not change under lift, so values equal
        # across orders (and equal ints and Fractions) hash alike.
        tr = sum(x * t for x, t in zip(self.num, _traces(self.order)))
        return hash(Fraction(tr, len(self.num) * self.den))

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for e, x in enumerate(self.num):
            if not x:
                continue
            q = Fraction(x, self.den)
            if e == 0:
                bits.append(f"{q}")
            elif q == 1:
                bits.append(f"z{self.order}^{e}")
            else:
                bits.append(f"{q}*z{self.order}^{e}")
        return " + ".join(bits)


def _scale(x: Cyclotomic, r: Cyclotomic) -> Cyclotomic:
    """x * r for r of order 1 or 2, whose value is the rational r.num[0] / r.den."""
    p, q = r.num[0], r.den
    if p == q:
        return x
    return _canon(x.order, [v * p for v in x.num], x.den * q)


def _shift(x: Cyclotomic, r: Cyclotomic) -> Cyclotomic:
    """x + r for r of order 1 or 2, whose value is the rational r.num[0] / r.den."""
    p, q = r.num[0], r.den
    if not p:
        return x
    num = [v * q for v in x.num]
    num[0] += p * x.den
    return _canon(x.order, num, x.den * q)


def zeta(order: int, exp: int = 1) -> Cyclotomic:
    """The root of unity zeta_order^exp."""
    row = _power_rows(order)[exp % order]
    return _make(order, _combine(_phi_degree(order), (1,), (row,)), 1)


def rational(num, den=1) -> Cyclotomic:
    if den == 0:
        raise MalformedRationalError(f"zero denominator in rational {num}/0")
    q = Fraction(num, den)
    return _make(1, (q.numerator,), q.denominator)


C0 = Cyclotomic.zero()
C1 = Cyclotomic.one()


class ExactMatrix:
    """Dense matrix over Cyclotomic with exact Gaussian elimination."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[C0 for _ in range(cols)] for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("entry grid does not match declared shape")
            self.data = [list(r) for r in data]

    @staticmethod
    def _adopt(rows: int, cols: int, data: list) -> "ExactMatrix":
        """Wrap a rows x cols grid of fresh row lists without copying or checking it."""
        m = _new(ExactMatrix)
        m.rows = rows
        m.cols = cols
        m.data = data
        return m

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        m = ExactMatrix.zeros(n, n)
        for i in range(n):
            m.data[i][i] = C1
        return m

    @staticmethod
    def zeros(rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix._adopt(rows, cols, [[C0] * cols for _ in range(rows)])

    def __getitem__(self, ij):
        return self.data[ij[0]][ij[1]]

    def __setitem__(self, ij, value):
        self.data[ij[0]][ij[1]] = value

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.data == other.data

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        return ExactMatrix._adopt(
            self.rows,
            self.cols,
            [[v + w for v, w in zip(a, b)] for a, b in zip(self.data, other.data)],
        )

    def __neg__(self):
        return ExactMatrix._adopt(self.rows, self.cols, [[-v for v in row] for row in self.data])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s: Cyclotomic) -> "ExactMatrix":
        if s.is_zero():
            return ExactMatrix.zeros(self.rows, self.cols)
        return ExactMatrix._adopt(
            self.rows,
            self.cols,
            [[v if v.is_zero() else v * s for v in row] for row in self.data],
        )

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch in matrix product: {self.rows}x{self.cols} @ "
                f"{other.rows}x{other.cols}"
            )
        out = ExactMatrix(self.rows, other.cols)
        for i in range(self.rows):
            row = self.data[i]
            for k in range(self.cols):
                a = row[k]
                if a.is_zero():
                    continue
                brow = other.data[k]
                orow = out.data[i]
                for j in range(other.cols):
                    b = brow[j]
                    if not b.is_zero():
                        orow[j] = orow[j] + a * b
        return out

    def is_zero(self) -> bool:
        return all(v.is_zero() for row in self.data for v in row)

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"


def _echelon(m: ExactMatrix):
    """Row-reduce a copy; returns (echelon data, pivot column list)."""
    data = [list(row) for row in m.data]
    pivots = []
    row = 0
    for col in range(m.cols):
        p = next((r for r in range(row, m.rows) if not data[r][col].is_zero()), None)
        if p is None:
            continue
        data[row], data[p] = data[p], data[row]
        inv = data[row][col].inverse()
        prow = data[row]
        support = [j for j, w in enumerate(prow) if not w.is_zero()]
        for j in support:
            prow[j] = prow[j] * inv
        for r in range(m.rows):
            if r != row and not data[r][col].is_zero():
                f = data[r][col]
                target = data[r]
                for j in support:
                    target[j] = target[j] - f * prow[j]
        pivots.append(col)
        row += 1
        if row == m.rows:
            break
    return data, pivots


def matrix_rank(m: ExactMatrix) -> int:
    return len(_echelon(m)[1])


def nullspace(m: ExactMatrix) -> list[list[Cyclotomic]]:
    """Basis vectors v (length cols) with M v = 0, exactly."""
    data, pivots = _echelon(m)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [C0] * m.cols
        v[fc] = C1
        for r, pc in enumerate(pivots):
            v[pc] = -data[r][fc]
        basis.append(v)
    return basis


def solve(m: ExactMatrix, rhs: list[Cyclotomic]) -> list[Cyclotomic]:
    """One exact solution of M x = rhs; raises if inconsistent."""
    aug = ExactMatrix(m.rows, m.cols + 1, [list(m.data[i]) + [rhs[i]] for i in range(m.rows)])
    data, pivots = _echelon(aug)
    if m.cols in pivots:
        raise SingularMatrixError("inconsistent linear system")
    x = [C0] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = data[r][m.cols]
    return x

def inverse(m: ExactMatrix) -> "ExactMatrix":
    if m.rows != m.cols:
        raise SingularMatrixError("inverse of a non-square matrix")
    n = m.rows
    aug = ExactMatrix(n, 2 * n, [list(m.data[i]) + list(ExactMatrix.identity(n).data[i]) for i in range(n)])
    data, pivots = _echelon(aug)
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return ExactMatrix(n, n, [row[n:] for row in data[:n]])
