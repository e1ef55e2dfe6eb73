"""Block sizes of Z_sigma(C) for modular C, against the Verlinde formula.

For modular C the simples of the centre are the k-tuples a = (a_1..a_k)
of labels, and the block of a has size

    m_a = sum_j dim V(Sigma_{g,k+1}; a_1..a_k, j)
        = sum_j sum_x S_0x^(2-2g-(k+1)) prod_i S_{a_i x} S_{j x}.

This file shares no code with the engine: it reads the engine through the
CLI only, and carries its own S matrices, in floats, and its own (g, k)
of a gluing.
"""

import cmath
import json
import math
import re
from itertools import product

import pytest

from genuscenter.cli import main

PHI = (1 + math.sqrt(5)) / 2
W = cmath.exp(2j * cmath.pi / 3)

# Unitary modular S matrices, the unit first.  The multiset of block sizes
# does not depend on the order of the other labels.
S_MATRICES = {
    "semion": [[x / math.sqrt(2) for x in row] for row in [[1, 1], [1, -1]]],
    "fibonacci": [
        [x / math.sqrt(2 + PHI) for x in row] for row in [[1, PHI], [PHI, -1]]
    ],
    "ising": [
        [x / 2 for x in row]
        for row in [[1, math.sqrt(2), 1], [math.sqrt(2), 0, -math.sqrt(2)], [1, -math.sqrt(2), 1]]
    ],
    "vec_z3_q": [[W ** (a * b) / math.sqrt(3) for b in range(3)] for a in range(3)],
}

GLUINGS = (
    "(1 2)",
    "(1 3)(2 4)",
    "(1 2)(3 4)",
    "(1 4)(2 3)",
    "(1 3)(2 4)(5 6)",
    "(1 2)(3 4)(5 6)",
    "(1 2)(3 6)(4 5)",
    "(1 4)(2 3)(5 6)",
    "(1 6)(2 3)(4 5)",
    "(1 6)(2 5)(3 4)",
    # The other nine n = 3 gluings, all of (g, k) = (1, 2).
    "(1 2)(3 5)(4 6)",
    "(1 3)(2 5)(4 6)",
    "(1 3)(2 6)(4 5)",
    "(1 4)(2 5)(3 6)",
    "(1 4)(2 6)(3 5)",
    "(1 5)(2 3)(4 6)",
    "(1 5)(2 4)(3 6)",
    "(1 5)(2 6)(3 4)",
    "(1 6)(2 4)(3 5)",
)


def genus_and_punctures(sigma: str) -> tuple[int, int]:
    """(g, k) of the disk with a band glued between legs i and sigma(i).

    One disk and n bands give chi = 1 - n.  The boundary circles are the
    cycles of the gap walk: past the gap after leg i the boundary runs over
    the band of leg i + 1 (mod 2n) and on past the gap after its partner.
    """
    partner = {}
    for i, j in re.findall(r"\((\d+)\s+(\d+)\)", sigma):
        partner[int(i)], partner[int(j)] = int(j), int(i)
    legs = len(partner)
    seen, k = set(), 0
    for start in range(1, legs + 1):
        if start in seen:
            continue
        k += 1
        gap = start
        while gap not in seen:
            seen.add(gap)
            gap = partner[gap % legs + 1]
    two_g = legs // 2 + 1 - k
    assert two_g >= 0 and two_g % 2 == 0, sigma
    return two_g // 2, k


def verlinde_blocks(key: str, g: int, k: int) -> list[int]:
    """Sorted nonzero m_a over the k-tuples a, each a float checked to be an integer."""
    s = S_MATRICES[key]
    r = len(s)
    power = 2 - 2 * g - (k + 1)
    out = []
    for a in product(range(r), repeat=k):
        v = sum(
            s[0][x] ** power * math.prod(s[ai][x] for ai in a) * s[j][x]
            for j in range(r)
            for x in range(r)
        )
        v = complex(v)
        assert abs(v.imag) < 1e-6 and abs(v.real - round(v.real)) < 1e-6, (key, a, v)
        if round(v.real):
            out.append(round(v.real))
    return sorted(out)


@pytest.mark.parametrize("sigma", GLUINGS)
@pytest.mark.parametrize("key", sorted(S_MATRICES))
def test_block_dims_match_verlinde(capsys, key, sigma):
    g, k = genus_and_punctures(sigma)
    code = main(["center", "rank", "--cat", key, "--sigma", sigma, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0, (key, sigma)
    assert (doc["surface"]["g"], doc["surface"]["k"]) == (g, k), (key, sigma)
    want = verlinde_blocks(key, g, k)
    assert sorted(doc["block_dims"]) == want, (key, sigma)
    assert doc["rank"] == len(want) == len(S_MATRICES[key]) ** k, (key, sigma)
