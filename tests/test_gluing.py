import gc
import weakref

import pytest

from genuscenter import catalog
from genuscenter.center import tube_algebra
from genuscenter.errors import GluingFormatError, InternalInconsistencyError
from genuscenter.gluing import Gluing, comm_case, enumerate_adm, parse_cycles, surface_type
from test_fusion import respec


def g(text):
    return parse_cycles(text)


def sigma_gk(g: int, k: int) -> Gluing:
    """The standard gluing presenting a genus-g surface with k punctures."""
    if g < 0 or k < 1:
        raise ValueError("need g >= 0 and k >= 1")
    pairs = []
    for h in range(g):
        base = 4 * h
        pairs.append((base + 1, base + 3))
        pairs.append((base + 2, base + 4))
    for p in range(k - 1):
        base = 4 * g + 2 * p
        pairs.append((base + 1, base + 2))
    return Gluing.from_pairs(pairs)


class TestEnumerate:
    def test_counts(self):
        assert [len(enumerate_adm(n)) for n in range(5)] == [1, 1, 3, 15, 105]

    def test_n1_is_the_transposition(self):
        (only,) = enumerate_adm(1)
        assert only.pairs() == ((1, 2),)

    def test_no_duplicates_and_involutive(self):
        for n in range(5):
            seen = set()
            for sig in enumerate_adm(n):
                key = tuple(sig.pairing)
                assert key not in seen
                seen.add(key)
                for i in range(1, 2 * n + 1):
                    assert sig(sig(i)) == i and sig(i) != i


class TestOrbits:
    def test_orbit_examples(self):
        assert g("(1 3)(2 4)").pairs() == ((1, 3), (2, 4))
        assert g("(2 4)(3 1)").pairs() == ((1, 3), (2, 4))
        assert g("(2 1)").pairs() == ((1, 2),)

    def test_distinct_orbit_count(self):
        for sig in enumerate_adm(3):
            pairs = sig.pairs()
            assert len(set(pairs)) == 3 and all(lo < hi for lo, hi in pairs)
            assert pairs == tuple(sorted(pairs))
            assert {leg for p in pairs for leg in p} == set(range(1, 7))

    def test_pairs_are_kept_on_the_gluing_and_freed_with_it(self):
        sig = g("(1 3)(2 4)")
        assert sig.pairs() is sig.pairs() and isinstance(sig.pairs(), tuple)
        ref = weakref.ref(sig)
        sig.cycle_string()
        del sig
        gc.collect()
        assert ref() is None

    def test_equal_gluings_are_one_cache_key(self):
        # A spec's cache keys on the gluing, so equal gluings built apart must
        # find one entry, and a gluing must not change under its key.
        a, b = g("(2 4)(1 3)"), g("(1 3)(2 4)")
        assert a is not b and a == b and hash(a) == hash(b)
        spec = respec(catalog.builtin("semion"))
        assert tube_algebra(spec, a) is tube_algebra(spec, b)
        assert [key for key in spec._cache if key[0] == "tube_algebra"] == [("tube_algebra", a)]
        with pytest.raises(AttributeError):
            a.n = 3
        with pytest.raises(AttributeError):
            del a.pairing
        assert (a.n, a.pairing) == (2, (3, 4, 1, 2))

    @pytest.mark.parametrize(
        "n, pairing, message",
        (
            (2, (2, 1), "pairing has 2 entries for rank 2"),
            (1, (3, 1), r"sigma\(1\) = 3 out of range"),
            (1, (1, 2), "sigma fixes 1"),
            (2, (2, 3, 4, 1), "sigma is not an involution at 1"),
        ),
    )
    def test_constructor_refuses_a_non_gluing(self, n, pairing, message):
        with pytest.raises(GluingFormatError, match=message):
            Gluing(n, pairing)


class TestCommCase:
    def test_three_cases(self):
        for cycles, case in (("(1 2)(3 4)", 1), ("(1 3)(2 4)", 2), ("(1 4)(2 3)", 3)):
            sig = g(cycles)
            assert comm_case(*sig.pairs()) == case

    def test_symmetric_and_exclusive(self):
        for n in (2, 3, 4):
            for sig in enumerate_adm(n):
                pairs = sig.pairs()
                for a in range(n):
                    for b in range(a + 1, n):
                        c1 = comm_case(pairs[a], pairs[b])
                        c2 = comm_case(pairs[b], pairs[a])
                        assert c1 == c2 and c1 in (1, 2, 3)

    def test_identical_orbits_rejected(self):
        (orbit,) = g("(1 2)").pairs()
        with pytest.raises(ValueError):
            comm_case(orbit, orbit)


class TestSigmaGK:
    def test_known_values(self):
        assert sigma_gk(1, 1).pairs() == ((1, 3), (2, 4))
        assert sigma_gk(2, 1).pairs() == ((1, 3), (2, 4), (5, 7), (6, 8))
        assert sigma_gk(0, 3).pairs() == ((1, 2), (3, 4))
        assert sigma_gk(0, 1).n == 0

    def test_roundtrip(self):
        for genus in range(4):
            for punct in range(1, 4):
                assert surface_type(sigma_gk(genus, punct)) == (genus, punct)


class TestSurfaceType:
    def test_paper_examples(self):
        assert surface_type(g("(1 2)")) == surface_type(sigma_gk(0, 2)) == (0, 2)
        assert surface_type(g("(1 2)(3 4)")) == (0, 3)
        assert surface_type(g("(1 3)(2 4)")) == (1, 1)

    def test_disk(self):
        assert surface_type(Gluing(0, ())) == (0, 1)

    def test_inconsistent_classification_raises_a_package_error(self):
        # sigma(i) = i is no gluing; it slips past the parser as a stub and
        # walks to k = 1, with chi = 1 - n = 0, so 2g = 1: the parity check
        # fires as a GenusCenterError, not as an AssertionError.
        class Identity:
            n = 1

            def __call__(self, i):
                return i

        with pytest.raises(InternalInconsistencyError, match="inconsistent classification"):
            surface_type(Identity())

    def test_euler_consistency_up_to_rank_4(self):
        for n in range(5):
            for sig in enumerate_adm(n):
                genus, punctures = surface_type(sig)
                assert 2 - 2 * genus - punctures == 1 - sig.n
                assert genus >= 0 and punctures >= 1


class TestParser:
    def test_whitespace_insensitive(self):
        assert parse_cycles(" ( 1   3 ) (2,4) ").pairs() == ((1, 3), (2, 4))

    def test_rejects_non_involution(self):
        with pytest.raises(GluingFormatError):
            parse_cycles("(1 2)(2 3)")
        with pytest.raises(GluingFormatError):
            parse_cycles("(1 1)")
        with pytest.raises(GluingFormatError):
            parse_cycles("(1 4)")  # gap in leg labels
        with pytest.raises(GluingFormatError):
            parse_cycles("(1 2 3)")

    def test_format(self):
        assert parse_cycles("(2 4)(1 3)").cycle_string() == "(1 3)(2 4)"
