"""Semisimple decomposition of a finite-dimensional algebra, certified mod p.

An algebra A over K = Q(zeta_N), N = ``order``, is given by a set S of
basis elements that generates it, its unit, and the structure constants
e_a e_g = sum_c M[a,g][c] e_c for every a and every g in S.  ``decompose``
returns its rank r (the dimension of its centre, the number of simple
blocks over C) and the block sizes m_i, with
A (x) C = M_{m_1}(C) (+) ... (+) M_{m_r}(C).

Peirce classes.  When the unit is a sum of elements u_j of S, the table
shows where each element starts and ends: e_a ends at the u with
e_a u = e_a, every other e_a u being absent, and g in S starts at the u
with u e_g = e_g.  Linking start(g) to end(g) for every g in S gives the
classes J, and A_J is spanned by the e_a that end in J (``_classes``).
Part (f) checks, exactly, that a nonzero e_a e_g has end(a) = start(g)
and that its columns end in the class of a.  Each A_J is then decomposed
on its own, as below, and the ranks and block sizes are joined.  A table
that does not show the classes (a unit coefficient other than 1, a unit
summand outside S, an element with no end or two, a generator with no
start or two) is one class, A itself.

Method.  Take a prime p = 1 (mod N) in [2^25, 2^26), p > dim A, and send
zeta_N to a primitive N-th root w in F_p: a ring map onto F_p from the
elements of K that are integral at a prime P above p.  Over F_p, the span
of the e_g is closed under right multiplication by S, each new element
w = w' g coming with its right action v w = (v w') g; once it spans A,
each e_b = sum_k t_bk w_k is a combination of the closed elements w_k, so
each M[a,b] below, e_a e_b = sum_k t_bk e_a w_k, is read from the chain of
the e_a w_k (``_close``), and no table of every product is stored.  Then:
- t(e_c) = sum_b M[c,b][b] is the regular trace, and the trace form has
  Gram matrix G_ij = t(e_i e_j) = sum_c M[i,j][c] t(e_c); with W the
  coordinates of the e_g and the w_k, (b) reads G W^T, of entries t(e_i w_k);
- the centre Z_p is the commutant of S: it solves
  sum_a z_a (M[a,g][c] - M[g,a][c]) = 0 for g in S only; r = dim Z_p;
- a random z in Z_p has minimal polynomial mu = sum_m c_m x^m (from 1, z,
  ..., z^r); with tau_k = t(z^k), let
  h(x) = sum_{l<r} x^l sum_{m>l} c_m tau_{m-l-1};
- the number of blocks of size m is deg gcd(mu, h - m^2 mu'), for
  m = 1, ..., floor(sqrt(dim A)).
Every row reduction is ``exactnum.Echelon`` over F_p, the sparse reduced
echelon that also checks the category data over Q(zeta_N); its rows
remember which added vectors, by tag, they combine: ``_close``
adds the e_g and then each new element, tagged with its number;
part (b) adds the Gram rows; the centre adds the commutator equations and
takes the kernel; and ``_minpoly`` adds z^k tagged with k, so the first
dependent power gives the coefficients of mu.
The answer at p is accepted only if (a) the unit and the given structure
constants lie in K and are p-integral, (e) the closure reaches dim A mod p,
(b) G W^T, and so G, is nonsingular mod p, (c) deg mu = r, and (d) the
counts of blocks add up to r and sum_m m^2 count_m = dim A.  Otherwise the
next prime is tried.  F_p need not split the centre.  That the constants lie
in K is checked once per class, before any prime, as no prime mends it.

Why the split is exact.  The u_j are orthogonal idempotents, as their
own products are in the table.  By (f), e_a e_g = e_a u u' e_g is 0 for
u = end(a) != u' = start(g), so a product of generators from two classes
is 0, and right multiplication by a generator of J keeps A_J.  So once
(e) holds in every class, each A_J is spanned by products of its own
generators, A_J A_J' = 0 for J != J', and A = (+)_J A_J as algebras,
with centre, trace form and blocks those of the A_J.  If the generators
do not generate A, (e) fails in some class.

Why it is exact.  First, every product the certificate reads is
p-integral and reduces to what the closure gives.  Each closed element
w_k is a product of elements of S, reached as an integral right action
R_g on an earlier one, so by (a) the matrix W of the coordinates of the
e_g and the w_k is integral at P, and by (e) det W is a unit.  So they
form an O_P-basis of the lattice spanned by the basis, and each R_{w_k}
is a product of integral R_g.  Every e_b is then the same
O_P-combination sum_k t_bk w_k of them, so by associativity
v e_b = sum_k t_bk v w_k, and each F_p number read is the reduction of
the same linear combination that the whole table would give; and
det G W^T = det G det W is a unit exactly when det G is.  Part (e) holds
at once when S is the whole basis.
A tube's S is smaller at n >= 2, and at n = 1 too when some non-unit
label is not a handle label (see ``center``); there (e) is a real
check.  By (e) the e_g also generate A mod p, so an element that
commutes with each e_g commutes with all of A mod p: their commutant is
Z_p.

By (a) and (e) the basis spans an order L over O_P, the completed local
ring at P, and by (b) its discriminant det G is a unit, so L is separable:
Azumaya over an etale centre Z(L), whose formation commutes with reduction.
So dim_K Z(A) = dim Z_p = r, which is also the rank over C.  By (b) the
trace form of A_p = L/PL is nondegenerate, so A_p is semisimple, since a
nilpotent element has trace 0.  So Z_p is a product of finite fields, mu is
squarefree, and by (c) F_p[z] = Z_p.  Over the algebraic closure F of F_p,
Z_p (x) F = F^r: with e_i the block idempotents, z = sum lambda_i e_i with
distinct lambda_i, and t(e_i) = k_i = m_i^2.  So tau_k = sum_i k_i
lambda_i^k, h = sum_i k_i mu / (x - lambda_i), and h(lambda_i) =
k_i mu'(lambda_i) with mu'(lambda_i) != 0.  So lambda_i is a root of
h - m^2 mu' exactly when k_i = m^2 mod p, and since the m^2 <= dim A < p
are distinct mod p, the gcd for m, of the same degree over F_p as over F,
has one linear factor per block of size m over F.  By (d) every block is
counted once.  These are the blocks over C: by Hensel, Z(L) = prod_j O_j,
one unramified O_j of degree deg q_j over O_P for each irreducible factor
q_j of mu, and the block L_j over O_j is Azumaya, with
Br(O_j) = Br(F_{p^deg q_j}) = 0, so L_j = M_{m_j}(O_j).  Over an algebraic
closure of K_P, as over C, L_j gives deg q_j blocks of size m_j; over F,
one for each of the deg q_j roots of q_j, each with t(e_i) = m_j^2.  So
the sizes are exact even when F_p does not split the centre.  But when
r = dim A, (a), (e) and (b) give dim_K Z(A) = dim A: A is commutative and
separable over K, A (x) C = C^r, and mu, (c) and (d) are skipped.
"""

from __future__ import annotations

import itertools
import math
import random

from .errors import NonSplitError
from .exactnum import Echelon, PrimeField, rank

__all__ = ["AlgebraData", "decompose"]

# The primes tried: p in this range with p > dim A and p = 1 (mod N), smallest first.
_PRIME_RANGE = (1 << 25, 1 << 26)
_MAX_PRIMES = 8
_SEED = 7


class AlgebraData:
    """Structure constants e_a e_g = sum_c mult[(a,g)][c] e_c for g in gens, over Q(zeta_order)."""

    def __init__(self, dim: int, mult: dict, unit: dict, gens: list | None = None, order: int = 1):
        self.dim = dim
        self.mult = mult  # (a, g) -> {c: coeff}, for every a and every g in gens
        self.unit = unit  # coordinates of the unit element
        # right factors of mult, which generate A; None: the whole basis
        self.gens = list(range(dim)) if gens is None else gens
        self.order = order  # N of the field K = Q(zeta_N): each constant's order divides N or is <= 2


def decompose(alg: AlgebraData) -> tuple[int, list[int]]:
    """(rank, sorted block sizes) of a semisimple algebra over C.

    For each Peirce class A_J (``_classes``), tries primes p = 1 (mod N)
    from 2^25 up, smallest first, and takes the first answer whose
    certificate holds (see the module docstring).  Raises NonSplitError
    naming the part that failed, and the class by its unit summands once
    primes have been tried.
    """
    rank, sizes = 0, []
    for units, part in _classes(alg):
        for v in (v for row in (*part.mult.values(), part.unit) for v in row.values()):
            if v.order > 2 and part.order % v.order:
                raise NonSplitError(f"(a) a structure constant of order {v.order} is not in "
                                    f"Q(zeta_{part.order})")
        rng, failure = random.Random(_SEED), None
        for p in itertools.islice(_primes(part.order, part.dim), _MAX_PRIMES):
            try:
                r, blocks = _decompose_mod(part, p, rng)
                break
            except NonSplitError as exc:
                failure = f"p = {p}: {exc}"
        else:
            raise NonSplitError(
                f"no certificate for the class with unit {_name(units)} at the first "
                f"{_MAX_PRIMES} primes = 1 (mod {alg.order}); last, {failure}"
            )
        rank += r
        sizes += blocks
    return rank, sorted(sizes)


def _name(units) -> str:
    return " + ".join(f"e_{u}" for u in units) or "0"


def _classes(alg: AlgebraData) -> list[tuple[list[int], AlgebraData]]:
    """[(unit summands of J, A_J renumbered)] for the Peirce classes J of A.

    A itself is the one class when the table does not show the classes or
    shows one.  Raises NonSplitError when (f) fails; see the module docstring.
    """
    whole = [(sorted(alg.unit), alg)]
    units = set(alg.unit)
    if any(v != 1 for v in alg.unit.values()) or not units <= set(alg.gens):
        return whole
    end: dict = {}  # a -> the u with e_a u = e_a
    start: dict = {}  # g -> the u with u e_g = e_g
    for (a, g), row in alg.mult.items():
        if g in units and (row != {a: 1} or end.setdefault(a, g) != g):
            return whole
        if a in units and (row != {g: 1} or start.setdefault(g, a) != a):
            return whole
    if len(end) < alg.dim or any(g not in start for g in alg.gens):
        return whole
    label = {u: u for u in units}  # unit summand -> its class
    for g in alg.gens:
        if (x := label[start[g]]) != (y := label[end[g]]):
            label = {u: x if j == y else j for u, j in label.items()}
    members: dict = {}  # class -> its basis, ascending
    for a in range(alg.dim):
        members.setdefault(label[end[a]], []).append(a)
    if len(members) < 2:
        return whole
    cls = {a: j for j, basis in members.items() for a in basis}
    pos = {a: k for basis in members.values() for k, a in enumerate(basis)}
    summands = {j: sorted(u for u in units if cls[u] == j) for j in members}
    mults: dict = {j: {} for j in members}
    for (a, g), row in alg.mult.items():
        j = cls[a]
        if end[a] != start[g] and row:
            raise NonSplitError(
                f"(f) e_{a} e_{g} is not 0, but e_{a} ends at e_{end[a]} and e_{g} starts "
                f"at e_{start[g]}, in the class with unit {_name(summands[j])}"
            )
        if any(cls[c] != j for c in row):
            raise NonSplitError(f"(f) e_{a} e_{g} leaves the class with unit {_name(summands[j])}")
        if row:
            mults[j][pos[a], pos[g]] = {pos[c]: v for c, v in row.items()}
    return [(summands[j], AlgebraData(len(basis), mults[j],
                                      {pos[u]: alg.unit[u] for u in summands[j]},
                                      [pos[g] for g in alg.gens if cls[g] == j], alg.order))
            for j, basis in members.items()]


def _decompose_mod(alg: AlgebraData, p: int, rng: random.Random):
    """(rank, block sizes) read from A mod p; NonSplitError names a failed part.

    v e_b = sum_k t_bk v w_k comes from one chain of v (``_close``): the
    chain of e_i gives row i of G W^T, t(e_i w_k) for every k, and for i in
    gens also the commutant's e_i e_a; one chain of z gives z e_b.
    """
    dim = alg.dim
    field = PrimeField(p)
    mult, unit = _reduce(alg, p)
    chain, uses, trace = _close(mult, alg.gens, dim, p)

    def times_basis(vws: list) -> dict:
        """{b: v e_b} from the chain [v w_k] of v."""
        out: dict = {}
        for k, vw in enumerate(vws):
            for b, t in uses.get(k, {}).items():
                field.axpy(out.setdefault(b, {}), t, vw)
        return out

    gram: dict = {}  # i -> {k: t(e_i w_k)}, the rows of G W^T
    commutators: dict = {}  # (g, c) -> {a: [e_a e_g - e_g e_a]_c}
    for i in range(dim):
        vws = chain(i)
        gram[i] = {k: x for k, vw in enumerate(vws)
                   if (x := sum(v * trace[c] for c, v in vw.items()) % p)}
        if i in alg.gens:  # by (e) the e_g generate A mod p, so the centre is their commutant
            left = times_basis(vws)  # a -> e_i e_a
            for a in range(dim):
                diff = dict(mult.get((a, i), {}))
                field.axpy(diff, -1, left.get(a, {}))
                for c, v in diff.items():
                    commutators.setdefault((i, c), {})[a] = v
    if rank(gram.values(), field) != dim:
        raise NonSplitError("(b) the trace form is degenerate mod p")
    basis = Echelon(field, commutators.values()).kernel(dim)
    r = len(basis)
    if not r:
        raise NonSplitError("algebra has empty center; not unital?")
    if r == dim:  # commutative: by (a), (e) and (b), A (x) C = C^r
        return r, [1] * r

    z: dict = {}
    for v in basis:
        field.axpy(z, rng.randrange(p), v)
    left_z = times_basis(chain(z))  # b -> z e_b
    powers = [unit]
    for _ in range(r):
        zx: dict = {}
        for b, x in powers[-1].items():
            field.axpy(zx, x, left_z.get(b, {}))
        powers.append(zx)
    mu = _minpoly(powers, p)
    if len(mu) - 1 != r:
        raise NonSplitError(f"(c) a random central element does not have {r} distinct eigenvalues")

    # h = sum_i k_i mu / (x - lambda_i), so h(lambda_i) = k_i mu'(lambda_i), and the
    # blocks of size m are the roots of gcd(mu, h - m^2 mu').
    traces = [sum(x * trace[c] for c, x in zk.items()) % p for zk in powers[:r]]
    h = [sum(mu[m] * traces[m - l - 1] for m in range(l + 1, r + 1)) % p for l in range(r)]
    dmu = [k * c % p for k, c in enumerate(mu)][1:]
    sizes: list = []
    for m in range(1, math.isqrt(dim) + 1):
        if len(sizes) == r:
            break
        f = _trim([(x - m * m * y) % p for x, y in zip(h, dmu)])
        sizes += [m] * (len(_gcd(mu, f, p)) - 1)
    total = sum(m * m for m in sizes)
    if len(sizes) != r or total != dim:
        raise NonSplitError(
            f"(d) {len(sizes)} of {r} blocks found, of dimensions adding to {total} of {dim}"
        )
    return r, sizes


def _reduce(alg: AlgebraData, p: int):
    """The structure constants {(a, b): {c: residue}} and the unit {c: residue}, mod p."""
    order = alg.order
    w = _root_of_unity(order, p)
    w_powers = [pow(w, k, p) for k in range(order)]

    def residue(v) -> int:
        if v.den % p == 0:
            raise NonSplitError("(a) a structure constant has a denominator divisible by p")
        step = order // v.order
        return sum(x * w_powers[e * step] for e, x in enumerate(v.num)) * pow(v.den, -1, p) % p

    mult = {}
    for ab, row in alg.mult.items():
        mult[ab] = {c: x for c, v in row.items() if (x := residue(v))}
    unit = {c: x for c, v in alg.unit.items() if (x := residue(v))}
    return mult, unit


def _close(mult: dict, gens: list, dim: int, p: int):
    """(chain, uses, trace): the closure of the e_g, g in gens, mod p; part (e).

    The echelon takes the e_g, tagged 0..len(gens)-1, then each new product
    w_k = w' g of a closed element by a generator, on all coordinates,
    tagged k.  With dim rows, each row is an e_b whose tail writes
    e_b = sum_k t w_k, and uses[k] = {b: t}.  chain(v) is [v w_k for every
    k], from v w = (v w') g; chain(i), of e_i, reads e_i e_g off the table.
    The regular trace t(e_c) = sum_b [e_c e_b]_b is sum_k <e_c w_k, uses[k]>,
    and <v g, y> = <v, R_g^T y> for the right action R_g, so one sweep from
    the last element back, y_k = uses[k] + sum R_g^T y_j over the children
    w_j = w_k g, gives t = sum_g R_g^T y_(e_g), with no chain per element.
    """
    right: dict = {g: {} for g in gens}  # g -> {a: e_a e_g}
    for (a, g), row in mult.items():
        right[g][a] = row

    def times(vec: dict, g) -> dict:
        """vec e_g mod p; not an axpy: the products add up unreduced, then one % p per entry."""
        out: dict = {}
        rows = right[g]
        for c, x in vec.items():
            for d, y in rows.get(c, {}).items():
                out[d] = out.get(d, 0) + x * y
        return {d: r for d, v in out.items() if (r := v % p)}

    # (parent, g) of each closed element: the e_g have no parent, the rest w_parent g.
    steps: list = [(None, g) for g in gens]
    elems = [{g: 1} for g in gens]
    echelon = Echelon(PrimeField(p))
    for k, e in enumerate(elems):
        echelon.add(e, k)
    k = 0
    while k < len(elems) and len(echelon.rows) < dim:
        for g in gens:
            v = times(elems[k], g)
            if echelon.add(v, len(elems)) is None:
                steps.append((k, g))
                elems.append(v)
                if len(echelon.rows) == dim:
                    break
        k += 1
    if (closed := len(echelon.rows)) < dim:
        raise NonSplitError(f"(e) the generators close on {closed} of {dim} dimensions mod p")
    uses: dict = {}  # k -> {b: coeff of w_k in e_b}
    for b, (_row, tail) in echelon.rows.items():
        for k, t in tail.items():
            uses.setdefault(k, {})[b] = t

    def chain(v: dict | int) -> list[dict]:
        out = [right[g].get(v, {}) if type(v) is int else times(v, g) for g in gens]
        for parent, g in steps[len(gens):]:
            out.append(times(out[parent], g))
        return out

    ys = [dict(uses.get(k, {})) for k in range(len(steps))]
    trace: dict = {}
    for parent, g in reversed(steps):  # a parent comes before its children
        y = {d: r for d, x in ys.pop().items() if (r := x % p)}
        dst = trace if parent is None else ys[parent]
        for c, row in right[g].items():
            if x := sum(v * y[d] for d, v in row.items() if d in y):
                dst[c] = dst.get(c, 0) + x
    return chain, uses, [trace.get(c, 0) % p for c in range(dim)]


def _primes(order: int, dim: int):
    """Primes p = 1 (mod order) with p > dim in the range _PRIME_RANGE, smallest first."""
    lo, hi = _PRIME_RANGE
    start = max(lo, dim + 1)
    start += (1 - start) % order
    return (n for n in range(start, hi, order) if _is_prime(n))


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the bases 2, 3, 5 and 7, which is exact for n < 3,215,031,751."""
    if n < 11 or n % 2 == 0:
        return n in (2, 3, 5, 7)
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    for a in (2, 3, 5, 7):
        chain = [pow(a, (n - 1) >> (s - i), n) for i in range(s)]  # a^d, a^2d, ..., a^((n-1)/2)
        if chain[0] != 1 and n - 1 not in chain:
            return False
    return True


def _root_of_unity(order: int, p: int) -> int:
    """A primitive order-th root of unity mod p, for p = 1 (mod order)."""
    divisors = [q for q in range(2, order + 1) if order % q == 0]
    for x in range(2, p):
        w = pow(x, (p - 1) // order, p)
        if all(pow(w, order // q, p) != 1 for q in divisors):
            return w
    raise ValueError(f"no primitive {order}-th root of unity mod {p}")


def _minpoly(powers: list[dict], p: int) -> list[int]:
    """Monic minimal polynomial, low degree first, of z given 1, z, z^2, ... mod p."""
    seen = Echelon(PrimeField(p))
    for k, zk in enumerate(powers):
        tail = seen.add(zk, k)
        if tail is not None:
            return [tail.get(j, 0) for j in range(k + 1)]
    raise NonSplitError(f"(c) the {len(powers)} powers of a random central element are independent")


# -- polynomials over F_p: lists of residues, low degree first, no zero leading term


def _trim(f: list[int]) -> list[int]:
    while f and not f[-1]:
        f.pop()
    return f


def _rem(f: list[int], g: list[int], p: int) -> list[int]:
    """The remainder of f by a nonzero g."""
    f = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    for k in range(len(f) - dg - 1, -1, -1):
        if c := f[k + dg] * inv % p:
            for j, gj in enumerate(g):
                f[k + j] = (f[k + j] - c * gj) % p
    return _trim(f[:dg])


def _gcd(f: list[int], g: list[int], p: int) -> list[int]:
    """Monic gcd of f and g, not both zero."""
    while g:
        f, g = g, _rem(f, g, p)
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]
