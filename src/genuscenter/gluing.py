"""Admissible gluings, orbit bookkeeping, and surface classification.

A gluing of rank n is a fixed-point-free involution of {1, ..., 2n}.  It
presents an open surface: a disk grows 2n boundary legs, leg ends are
glued in pairs with the surface orientation preserved, and the boundary
is removed.  The classification below models the glued disk as a single
4n-gon whose sides alternate leg-sides and gap-sides.
"""

from __future__ import annotations

import re
from functools import cached_property

from .errors import GluingFormatError, InternalInconsistencyError

__all__ = [
    "Gluing",
    "MAX_ENUM_RANK",
    "enumerate_adm",
    "comm_case",
    "surface_type",
    "parse_cycles",
]


class Gluing:
    """Fixed-point-free involution on {1, ..., 2n}, stored as a pair map.

    Immutable, and equal and hashed by (n, pairing): a spec's cache keys on it.
    """

    def __init__(self, n: int, pairing: tuple[int, ...]):
        vars(self).update(n=n, pairing=pairing)  # pairing[i-1] = sigma(i)
        if len(self.pairing) != 2 * self.n:
            raise GluingFormatError(
                f"pairing has {len(self.pairing)} entries for rank {self.n}"
            )
        for i in range(1, 2 * self.n + 1):
            j = self(i)
            if not 1 <= j <= 2 * self.n:
                raise GluingFormatError(f"sigma({i}) = {j} out of range")
            if j == i:
                raise GluingFormatError(f"sigma fixes {i}")
            if self(j) != i:
                raise GluingFormatError(f"sigma is not an involution at {i}")

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot set or delete {name!r} of an immutable Gluing")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if not isinstance(other, Gluing):
            return NotImplemented
        return (self.n, self.pairing) == (other.n, other.pairing)

    def __hash__(self):
        return hash((self.n, self.pairing))

    def __call__(self, i: int) -> int:
        return self.pairing[i - 1]

    @staticmethod
    def from_pairs(pairs) -> "Gluing":
        pairs = [tuple(p) for p in pairs]
        size = 2 * len(pairs)
        mapping = [0] * size
        seen = set()
        for a, b in pairs:
            for v in (a, b):
                if v in seen:
                    raise GluingFormatError(f"index {v} appears twice")
                seen.add(v)
            if not (1 <= a <= size and 1 <= b <= size):
                raise GluingFormatError(f"pair ({a} {b}) out of range for {size} legs")
            mapping[a - 1] = b
            mapping[b - 1] = a
        return Gluing(len(pairs), tuple(mapping))

    @cached_property
    def _pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i, j in enumerate(self.pairing, 1) if i < j)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Orbits as (low, high), sorted by low member; kept on the instance."""
        return self._pairs

    def cycle_string(self) -> str:
        if self.n == 0:
            return "()"
        return "".join(f"({a} {b})" for a, b in self.pairs())

    def __str__(self):
        return self.cycle_string()


# Largest rank that enumerate_adm lists.  `gluing enum --n 7 --json` lists
# 13!! = 135,135 gluings in about 9 s and 191 MB; rank 8 has 15 times as
# many, and rank 12 has 23!! = 316,234,143,225.
MAX_ENUM_RANK = 7


def enumerate_adm(n: int) -> list[Gluing]:
    """All fixed-point-free involutions of S_2n; (2n-1)!! of them."""
    if n < 0:
        raise GluingFormatError(f"rank must be nonnegative, got {n}")
    if n > MAX_ENUM_RANK:
        raise GluingFormatError(
            f"rank {n} has ({2 * n - 1})!! gluings; enumeration is limited to rank {MAX_ENUM_RANK}"
        )
    out: list[Gluing] = []

    def rec(remaining: tuple[int, ...], acc):
        if not remaining:
            out.append(Gluing.from_pairs(acc))
            return
        first = remaining[0]
        rest = remaining[1:]
        for k, partner in enumerate(rest):
            rec(rest[:k] + rest[k + 1 :], acc + [(first, partner)])

    rec(tuple(range(1, 2 * n + 1)), [])
    return out


def comm_case(oi: tuple[int, int], oj: tuple[int, int]) -> int:
    """1 disjoint, 2 interleaved, 3 nested, for two (low, high) orbits of ``pairs()``."""
    if oi == oj:
        raise ValueError("comm_case needs two distinct orbits")
    (_, a_high), (b_low, b_high) = sorted((oi, oj))
    if a_high < b_low:
        return 1
    if a_high < b_high:
        return 2
    return 3


def surface_type(sigma: Gluing) -> tuple[int, int]:
    """(genus, punctures) of the glued surface, via its one-cell CW structure.

    The 4n-gon reads L1 G1 L2 G2 ... L2n G2n around the boundary; leg-side
    Li is identified with L_sigma(i) reversed.  Punctures k are traced
    along gap-sides, and the Euler characteristic is 1 - n.  The genus
    follows from chi = 2 - 2g - k, so 1 + n - k must be even and
    non-negative.
    """
    n = sigma.n
    if n == 0:
        return 0, 1

    # Boundary circles: walking gap i, the next gap is sigma(i+1).
    def next_gap(i: int) -> int:
        return sigma(i % (2 * n) + 1)

    seen = set()
    punctures = 0
    for start in range(1, 2 * n + 1):
        if start in seen:
            continue
        punctures += 1
        cur = start
        while cur not in seen:
            seen.add(cur)
            cur = next_gap(cur)

    # Each orbit (i, sigma(i)) joins its four corners into two vertices and
    # no two orbits share a corner, so V = 2n: with one face, 2n gap-edges
    # and n glued leg-edges, chi = 2n - 3n + 1 (n bands on a disk).
    chi = 1 - n
    genus2 = 2 - punctures - chi
    if genus2 < 0 or genus2 % 2:
        raise InternalInconsistencyError(
            f"inconsistent classification for {sigma}: chi={chi}, k={punctures}"
        )
    return genus2 // 2, punctures


_CYCLE_RE = re.compile(r"\(\s*(\d+)[\s,]+(\d+)\s*\)")


def parse_cycles(text: str) -> Gluing:
    """Parse cycle notation like ``(1 3)(2 4)``; whitespace-insensitive."""
    s = text.strip()
    if s in ("", "()"):
        return Gluing(0, ())
    stripped = _CYCLE_RE.sub("", s)
    if stripped.strip():
        raise GluingFormatError(
            f"could not parse {text!r} as a product of transpositions"
        )
    pairs = [(int(a), int(b)) for a, b in _CYCLE_RE.findall(s)]
    labels = sorted(v for p in pairs for v in p)
    if labels != list(range(1, len(labels) + 1)):
        raise GluingFormatError(
            f"legs must be exactly 1..2n; got {labels} in {text!r}"
        )
    return Gluing.from_pairs(pairs)
