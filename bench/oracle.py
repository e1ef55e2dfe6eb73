"""Rank predictions for Z_sigma(C) that share no code with genuscenter.

The surface of a gluing sigma is read off the ribbon graph with one
vertex (the disk) and n untwisted bands: the punctures are the cycles of
i -> sigma(i) + 1 (mod 2n), the Euler characteristic is 1 - n, and the
fundamental group is free of rank n = 2g + k - 1.

Two predictions follow:

* modular C with r simple objects: rank = r^k (Mueger 2003 gives
  Z(C) = C boxtimes C^rev; every modular run of the seed fits r^k);
* Rep(G): the untwisted Dijkgraaf-Witten count, i.e. the sum, over the
  orbits of G acting by simultaneous conjugation on G^n, of the number of
  conjugacy classes of the orbit's stabilizer.
"""

from __future__ import annotations

import itertools
import re

_PAIR = re.compile(r"\(\s*(\d+)[\s,]+(\d+)\s*\)")


def _perm_group(degree: int) -> list[tuple[int, ...]]:
    return list(itertools.permutations(range(degree)))


# Catalog key -> ("modular", number of simple objects) or ("group", G).
# vec_z2 is Vec(Z/2) with the trivial braiding, which is Rep(Z/2).
CATALOGS = {
    "semion": ("modular", 2),
    "fibonacci": ("modular", 2),
    "ising": ("modular", 3),
    "vec_z3_q": ("modular", 3),
    "rep_z2": ("group", _perm_group(2)),
    "vec_z2": ("group", _perm_group(2)),
    "rep_s3": ("group", _perm_group(3)),
}


def parse_sigma(text: str) -> dict[int, int]:
    """The involution of "(1 3)(2 4)" as a dict on 1..2n."""
    pairs = [(int(a), int(b)) for a, b in _PAIR.findall(text)]
    sigma = {}
    for a, b in pairs:
        sigma[a], sigma[b] = b, a
    if sorted(sigma) != list(range(1, len(sigma) + 1)) or len(sigma) != 2 * len(pairs):
        raise ValueError(f"not a fixed-point-free involution of 1..2n: {text!r}")
    return sigma


def surface(text: str) -> tuple[int, int]:
    """(genus, punctures) of the surface presented by a gluing."""
    sigma = parse_sigma(text)
    n2 = len(sigma)
    if n2 == 0:
        return 0, 1
    seen, faces = set(), 0
    for start in sigma:
        if start in seen:
            continue
        faces += 1
        cur = start
        while cur not in seen:
            seen.add(cur)
            cur = sigma[cur] % n2 + 1
    euler = 1 - n2 // 2
    return (2 - euler - faces) // 2, faces


def _compose(p, q):
    return tuple(p[i] for i in q)


def _inv(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _class_count(group) -> int:
    seen, classes = set(), 0
    for x in group:
        if x in seen:
            continue
        classes += 1
        seen.update(_compose(_compose(g, x), _inv(g)) for g in group)
    return classes


def dijkgraaf_witten(group, n: int) -> int:
    """Sum over G-orbits on G^n of the class number of the stabilizer."""
    seen, total = set(), 0
    for tup in itertools.product(group, repeat=n):
        if tup in seen:
            continue
        for g in group:
            gi = _inv(g)
            seen.add(tuple(_compose(_compose(g, x), gi) for x in tup))
        stab = [g for g in group if all(_compose(g, x) == _compose(x, g) for x in tup)]
        total += _class_count(stab)
    return total


def predicted_rank(cat: str, sigma: str) -> int:
    genus, punctures = surface(sigma)
    kind, data = CATALOGS[cat]
    if kind == "modular":
        return data**punctures
    return dijkgraaf_witten(data, 2 * genus + punctures - 1)
