"""Exact arithmetic in cyclotomic fields, and one sparse row echelon over a field.

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
derived from it stays in that field.  Only ``==`` and ``lift`` compare or
move values across orders.

A field object, ``CYCLOTOMIC`` for Q(zeta_N) or a ``PrimeField``, is the one
code that adds (``axpy``) and scales (``scaled``) sparse rows {column: x},
and drops every zero entry; at f = ``C1`` ``CYCLOTOMIC`` adds y's own values.
``Echelon`` (over Q(zeta_N) for the category data, over F_p for ``algebra``)
takes ``one`` and ``inverse`` from it; ``trees`` also takes ``zero``, ``add``,
``mul``, ``is_zero`` and ``canonical`` from ``spec.field``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import (
    DivisionByZeroError,
    InternalInconsistencyError,
    MalformedRationalError,
    SingularMatrixError,
)

__all__ = [
    "Cyclotomic",
    "CYCLOTOMIC",
    "Echelon",
    "PrimeField",
    "invert",
    "rank",
    "rows_of",
    "rational",
    "zeta",
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
    if any(num):
        raise InternalInconsistencyError(f"non-exact polynomial division by {den}")
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


class _Field:
    def scaled(self, f, y: dict) -> dict:
        """A new dict f y, without zero entries; y is left as it is."""
        out: dict = {}
        self.axpy(out, f, y)
        return out


class PrimeField(_Field):
    """F_p, p prime, for ``Echelon``: entries are the residues 0 < x < p."""

    one = 1

    def __init__(self, p: int):
        self.p = p

    def axpy(self, x: dict, f, y: dict) -> None:
        """x += f y mod p, in place, dropping the entries that become 0."""
        p = self.p
        for k, v in y.items():
            if s := (x.get(k, 0) + f * v) % p:
                x[k] = s
            else:
                x.pop(k, None)

    def inverse(self, x: int) -> int:
        return pow(x, -1, self.p)


class CyclotomicField(_Field):
    """Q(zeta_N): entries are ``Cyclotomic`` and combine by their operators."""

    zero, one = C0, C1
    add, mul = staticmethod(Cyclotomic.__add__), staticmethod(Cyclotomic.__mul__)
    inverse, is_zero = staticmethod(Cyclotomic.inverse), staticmethod(Cyclotomic.is_zero)

    @staticmethod
    def canonical(v: Cyclotomic) -> Cyclotomic:
        """``one`` if v is 1, else v; read off the fields, as == would lift v across orders."""
        return C1 if v.den == 1 and v.num[0] == 1 and v.is_rational() else v

    def axpy(self, x: dict, f: Cyclotomic, y: dict) -> None:
        """x += f y in place, without zero entries; at f = ``C1`` y's own values are added."""
        for k, v in y.items():
            if f is not C1:
                v = f * v
            if (old := x.get(k)) is not None:
                v = old + v
            if v.is_zero():
                x.pop(k, None)
            else:
                x[k] = v


CYCLOTOMIC = CyclotomicField()


class Echelon:
    """Sparse rows over a field in reduced echelon form, grown one row at a time.

    ``rows`` maps each pivot column to (row, tail): the row {column: x}
    holds 1 there and 0 at every other pivot column, and the tail
    {tag: coeff} is the combination of the tagged added vectors it equals.
    A row's pivot is its least column, so the rows are the reduced echelon
    form of the span of the added vectors, whatever order they came in,
    over the field object it is given.

    The rank is ``len(rows)``.  The tail of a dependent vector writes it in
    the vectors added before it.  The tails of an invertible matrix's rows,
    each added with its index as tag, are the rows of its inverse (``invert``).
    """

    def __init__(self, field, vectors=()):
        self.field = field
        self.rows: dict = {}
        for vec in vectors:
            self.add(vec)

    def add(self, vec: dict, tag=None) -> dict | None:
        """Keep vec, reduced, and return None if it is independent of the rows.

        Otherwise return the tail {tag: coeff} of a combination of the
        added vectors that is 0, with coefficient 1 at vec's own tag.
        """
        field, rows = self.field, self.rows
        axpy = field.axpy
        row = field.scaled(field.one, vec)
        tail = {} if tag is None else {tag: field.one}
        # Pivot rows are 0 at the other pivots, so these entries stay as read.
        for f, q in [(row[q], q) for q in row if q in rows]:
            axpy(row, -f, rows[q][0])
            axpy(tail, -f, rows[q][1])
        if not row:
            return tail
        q0 = min(row)
        inv = field.inverse(row[q0])
        row, tail = field.scaled(inv, row), field.scaled(inv, tail)
        for other, otail in rows.values():
            if f := other.get(q0):
                axpy(other, -f, row)
                axpy(otail, -f, tail)
        rows[q0] = (row, tail)
        return None

    def kernel(self, ncols: int) -> list[dict]:
        """A basis of the vectors {column: x}, on columns 0..ncols-1, that the rows annihilate."""
        field, out = self.field, []
        for f in range(ncols):
            if f not in self.rows:
                v = {q: -row[f] for q, (row, _tail) in self.rows.items() if f in row}
                out.append(field.scaled(field.one, {f: field.one, **v}))
        return out


def rows_of(block: dict, keys) -> dict:
    """Entries {(row, column): x} as sparse rows {row: {column: x}}, one for each row in keys."""
    rows: dict = {k: {} for k in keys}
    for (r, c), x in block.items():
        rows[r][c] = x
    return rows


def rank(rows, field) -> int:
    """The rank of the sparse rows {column: x}."""
    return len(Echelon(field, rows).rows)


def invert(rows: dict, field) -> dict:
    """The inverse, as entries {(column, tag): x}, of the square matrix with rows {tag: {column: x}}.

    Raises SingularMatrixError when the rows are dependent.
    """
    echelon = Echelon(field)
    for tag, row in rows.items():
        if echelon.add(row, tag) is not None:
            raise SingularMatrixError("matrix is singular")
    return {(q, t): x for q, (_row, tail) in echelon.rows.items() for t, x in tail.items()}
