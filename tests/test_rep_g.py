"""Block sizes of Z_sigma(Rep(G)) for G = Z/2 and S3, against group theory.

For C = Rep(G) the simples of the centre at a gluing with n orbits are the
pairs (x, rho): x an orbit of G acting on G^n by simultaneous conjugation,
rho an irreducible of the stabilizer Stab(x) of a point of x.  The block
of (x, rho) has size

    m_{x,rho} = <Res_{Stab(x)} psi, rho>,   psi = sum_j chi_j,

the sum over the irreducible characters of G.  For S3, psi takes 4, 0 and
1 on e, the transpositions and the 3-cycles; for Z/2 it takes 2 and 0.

This file shares no code with the engine: it reads the engine through the
CLI only, and carries its own character tables, in floats, for the
subgroups of S3 (orders 1, 2, 3 and 6).
"""

import cmath
import json
from itertools import permutations, product

import pytest

from genuscenter.cli import main

# G as permutations of range(k): Rep(Z/2) is Rep(S2).
GROUPS = {"rep_z2": tuple(permutations(range(2))), "rep_s3": tuple(permutations(range(3)))}

# Characters of S3 on the classes of e, the transpositions and the 3-cycles,
# which its elements' numbers of fixed points (3, 1, 0) tell apart.
S3_TABLE = {3: (1, 1, 2), 1: (1, -1, 0), 0: (1, 1, -1)}

GLUINGS = {
    "rep_z2": ("(1 2)", "(1 3)(2 4)", "(1 2)(3 4)", "(1 4)(2 3)", "(1 3)(2 4)(5 6)", "(1 2)(3 4)(5 6)",
               "(1 2)(3 6)(4 5)", "(1 4)(2 3)(5 6)", "(1 6)(2 3)(4 5)", "(1 6)(2 5)(3 4)",
               "(1 2)(3 5)(4 6)", "(1 3)(2 5)(4 6)", "(1 3)(2 6)(4 5)", "(1 4)(2 5)(3 6)",
               "(1 4)(2 6)(3 5)", "(1 5)(2 3)(4 6)", "(1 5)(2 4)(3 6)", "(1 5)(2 6)(3 4)",
               "(1 6)(2 4)(3 5)"),
    # rep_s3 at n = 3 also matches (84 blocks at (1 3)(2 4)(5 6)) but takes about 5 s.
    "rep_s3": ("(1 2)", "(1 3)(2 4)", "(1 2)(3 4)", "(1 4)(2 3)"),
}


def mul(p, q):
    """p after q."""
    return tuple(p[i] for i in q)


def inv(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def fixed_points(p) -> int:
    return sum(i == j for i, j in enumerate(p))


def irreducible_characters(group):
    """The irreducible characters of a subgroup of S3, each a dict element -> value."""
    if len(group) == 6:
        return [{g: S3_TABLE[fixed_points(g)][j] for g in group} for j in range(3)]
    # Orders 1, 2 and 3 are cyclic: chi_j(c^k) = exp(2 pi i jk / m).
    m = len(group)
    unit = tuple(range(len(group[0])))
    for c in group:
        powers = [unit]
        while len(powers) < m:
            powers.append(mul(c, powers[-1]))
        if len(set(powers)) == m:
            return [{h: cmath.exp(2j * cmath.pi * j * k / m) for k, h in enumerate(powers)} for j in range(m)]
    raise AssertionError("a subgroup of S3 of order 1, 2 or 3 is cyclic")


def as_count(v: complex) -> int:
    assert abs(v.imag) < 1e-6 and abs(v.real - round(v.real)) < 1e-6, v
    return round(v.real)


def psi(group) -> dict:
    """The sum of the irreducible characters of the group."""
    return {g: sum(chi[g] for chi in irreducible_characters(group)) for g in group}


def group_blocks(key: str, n: int) -> list[int]:
    """Sorted nonzero m_{x,rho} over the orbits x of G on G^n and the irreducibles rho of Stab(x)."""
    group = GROUPS[key]
    psi_g = psi(group)
    seen, out = set(), []
    for x in product(group, repeat=n):
        if x in seen:
            continue
        seen.update(tuple(mul(mul(g, xi), inv(g)) for xi in x) for g in group)
        stab = [g for g in group if all(mul(g, xi) == mul(xi, g) for xi in x)]
        for rho in irreducible_characters(stab):
            m = as_count(sum(psi_g[h] * complex(rho[h]).conjugate() for h in stab) / len(stab))
            if m:
                out.append(m)
    return sorted(out)


def test_psi_takes_the_stated_values():
    assert {fixed_points(g): as_count(v) for g, v in psi(GROUPS["rep_s3"]).items()} == {3: 4, 1: 0, 0: 1}
    assert {fixed_points(g): as_count(v) for g, v in psi(GROUPS["rep_z2"]).items()} == {2: 2, 0: 0}


def test_the_counts_at_n_1_and_2():
    assert group_blocks("rep_s3", 1) == [1] * 5 + [2] * 3
    assert group_blocks("rep_s3", 2) == [1] * 11 + [2] * 10 + [4] * 3
    assert group_blocks("rep_z2", 3) == [1] * 16


@pytest.mark.parametrize("key, sigma", [(key, s) for key, gluings in GLUINGS.items() for s in gluings])
def test_block_dims_match_the_group_count(capsys, key, sigma):
    n = sigma.count("(")
    code = main(["center", "rank", "--cat", key, "--sigma", sigma, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0, (key, sigma)
    want = group_blocks(key, n)
    assert sorted(doc["block_dims"]) == want, (key, sigma)
    assert doc["rank"] == len(want), (key, sigma)
