import gc
from itertools import product as iproduct
import math
from collections import Counter
import random
import weakref

import numpy as np
import pytest

from genuscenter import catalog, center
from genuscenter.algebra import AlgebraData, _close, _primes, _reduce, decompose
from genuscenter.errors import GenusCenterError, IllFormedDiagramError, NonSplitError
from genuscenter.center import (
    CarrierMap,
    SigmaPair,
    adjunction_maps,
    carrier_basis,
    center_rank,
    induced_half_braidings,
    tube_algebra,
    verify_sigma_pair,
)
from genuscenter.exactnum import C1, Cyclotomic, rational, zeta
from genuscenter.fusion import quantum_dims
from genuscenter.gluing import Gluing, enumerate_adm, parse_cycles, surface_type
from genuscenter.trees import Morphism, hom_dim, hom_keys
from exact_oracle import (
    _create, compose, contract_by_columns, coupon, flatten_carrier_map, full_sweep, hom_Z_dim,
    product, project_morphisms,
)
from test_exactnum import embed
from test_fusion import respec


N2_GLUINGS = ("(1 3)(2 4)", "(1 2)(3 4)", "(1 4)(2 3)")


class ScaledColumn(center.GammaWord):
    """A half-braiding column whose action is scaled by ``factor``."""

    def __init__(self, ops, factor: Cyclotomic):
        super().__init__(ops)
        self.factor = factor

    def apply_at(self, mor, pos, then=()):
        return super().apply_at(mor, pos, then).scale(self.factor)


def twisted(spec, pair, edits):
    """A copy of ``pair`` whose columns of gamma_[m] at z on the given source
    summands first twist the argument z: they are scaled by theta_z ** sign,
    for each (m, z, sign, summands)."""
    _, twists = quantum_dims(spec)
    braidings = [dict(blocks) for blocks in pair.braidings]
    for m, z, sign, summands in edits:
        factor = twists[z] if sign > 0 else twists[z].inverse()
        for si in summands:
            braidings[m][z, si] = [(ti, ScaledColumn(col.ops, factor))
                                   for ti, col in braidings[m][z, si]]
    return SigmaPair(pair.words, pair.alphas, braidings)


def perturbed(pair, key, s, m=0):
    """A copy of ``pair`` whose half-braiding of orbit m has its block ``key`` scaled by s."""
    braidings = list(pair.braidings)
    blocks = braidings[m] = dict(braidings[m])
    blocks[key] = [(ti, ScaledColumn(col.ops, s)) for ti, col in blocks[key]]
    return SigmaPair(pair.words, pair.alphas, braidings)

# Tube products of semion at the n=2 gluings, as pinned values: they depend on
# crossing conventions of the leg plumbing that no rank detects.  An entry
# "ab>c:v" says that e_a * e_b has coefficient v at e_c.
SEMION_N2_PRODUCTS = {
    "(1 2)(3 4)": (
        "00>0:1 01>1:1 02>2:1 03>3:1 10>1:1 11>0:1 12>3:1 13>2:1",
        "20>2:1 21>3:1 22>0:1 23>1:1 30>3:1 31>2:1 32>1:1 33>0:1",
        "44>4:1 45>5:1 46>6:1 47>7:1 54>5:1 55>4:1 56>7:1 57>6:1",
        "64>6:1 65>7:1 66>4:1 67>5:1 74>7:1 75>6:1 76>5:1 77>4:1",
    ),
    "(1 3)(2 4)": (
        "00>0:1 01>1:1 02>2:1 03>3:1 10>1:1 11>0:1 12>3:i 13>2:-i",
        "20>2:1 21>3:-i 22>0:1 23>1:i 30>3:1 31>2:i 32>1:-i 33>0:1",
        "44>4:1 45>5:1 46>6:1 47>7:1 54>5:1 55>4:-1 56>7:i 57>6:i",
        "64>6:1 65>7:-i 66>4:-1 67>5:-i 74>7:1 75>6:-i 76>5:i 77>4:1",
    ),
    "(1 4)(2 3)": (
        "00>0:1 01>1:1 02>2:1 03>3:1 10>1:1 11>0:1 12>3:-1 13>2:-1",
        "20>2:1 21>3:-1 22>0:1 23>1:-1 30>3:1 31>2:-1 32>1:-1 33>0:1",
        "44>4:1 45>5:1 46>6:1 47>7:1 54>5:1 55>4:-1 56>7:-1 57>6:1",
        "64>6:1 65>7:-1 66>4:-1 67>5:1 74>7:1 75>6:1 76>5:1 77>4:1",
    ),
}
UNITS = {"1": rational(1), "-1": rational(-1), "i": zeta(4), "-i": -zeta(4)}

# Tube products of fibonacci at (1 2), pinned the same way over Q(zeta_5),
# where p = -(zeta_5^2 + zeta_5^3) is the golden ratio.
PHI = -(zeta(5, 2) + zeta(5, 3))
GOLDEN = {
    "1": rational(1), "-1": rational(-1), "p": PHI, "1-p": rational(1) - PHI,
    "2-p": rational(2) - PHI, "p-1": PHI - rational(1), "p-2": PHI - rational(2),
}
FIBONACCI_N1_PRODUCTS = (
    "00>0:1 01>1:1 04>4:1 10>1:1 11>0:1 11>1:1 14>4:1-p",
    "20>2:1 21>2:1-p 24>3:1 24>5:1 24>6:2-p 32>2:1 33>3:1",
    "35>5:1 36>6:1 42>0:p 42>1:-1 43>4:1 45>4:1 46>4:p-1",
    "52>2:1 53>5:1 55>3:p-1 55>6:p-1 56>3:1 56>6:1-p 62>2:p-1",
    "63>6:1 65>3:1 65>6:1-p 66>3:-1 66>5:p 66>6:p-2",
)


def pinned_products(table, values) -> dict:
    """{(a, b): {c: v}} from tokens "ab>c:v", with v a key of ``values``."""
    want: dict = {}
    for tok in " ".join(table).split():
        ab, cv = tok.split(">")
        c, v = cv.split(":")
        want.setdefault((int(ab[0]), int(ab[1])), {})[int(c)] = values[v]
    return want


def sig12():
    return parse_cycles("(1 2)")


def rand_map(spec, px, py, rng):
    acc = CarrierMap.zero(spec, px.words, py.words)
    for b in carrier_basis(spec, px.words, py.words):
        acc = acc + b.scale(rational(rng.randint(-3, 3)))
    return acc




def block_dims(spec, sigma) -> dict:
    """{(i, j): number of tube basis elements from block (i, j)}."""
    out: dict = {}
    for i, j, _alpha, _t in center._tube_basis(spec, sigma)[0]:
        out[(i, j)] = out.get((i, j), 0) + 1
    return out


def induce_object(spec, sigma, x) -> dict:
    """Multiplicities of the simples in the carrier of I(x), over its words."""
    out: dict = {}
    for word in induced_half_braidings(spec, sigma, x).words:
        for b in spec.labels:
            if d := hom_dim(spec, word, b):
                out[b] = out.get(b, 0) + d
    return out


class TestInduceObject:
    def test_vec_z2_unit(self):
        spec = catalog.builtin("vec_z2")
        assert induce_object(spec, sig12(), "0") == {"0": 2}

    def test_fibonacci_unit(self):
        spec = catalog.builtin("fibonacci")
        assert induce_object(spec, sig12(), "1") == {"1": 2, "t": 1}

    def test_empty_gluing_is_identity(self):
        for key in ("fibonacci", "ising"):
            spec = catalog.builtin(key)
            for lab in spec.labels:
                assert induce_object(spec, Gluing(0, ()), lab) == {lab: 1}, f"{key}: {lab}"


def _mult(m, *cases):
    return [f"gamma_[{m}] multiplicativity fails at ({c})" for c in cases]


def _comm(case, *args, orbits="0,1"):
    return [f"comm case {case} fails for orbits ({orbits}) at ({a})" for a in args]


# verify_sigma_pair(...) of perturbed induced pairs: (catalog, sigma,
# label, orbit m, block (z, summand) of gamma_[m] scaled, scale, entries).
# Between them they reach the invertibility check and all three :comm cases.
BROKEN_REPORTS = [
    ("fibonacci", "(1 2)", "t", 0, ("t", 0), 2, _mult(0, "t,t;1,0", "t,t;t,0")),
    ("fibonacci", "(1 3)(2 4)", "t", 1, ("t", 0), 2,
     _mult(1, "t,t;1,0", "t,t;t,0") + _comm(2, "t,t")),
    ("ising", "(1 3)(2 4)", "s", 1, ("s", 0), 2,
     _mult(1, "s,s;1,0", "s,s;f,0", "s,f;s,0") + _comm(2, "s,s", "f,s")),
    ("ising", "(1 3)(2 4)", "1", 1, ("f", 1), 2,
     _mult(1, "s,s;f,0", "s,f;s,0", "f,s;s,0", "f,f;1,0") + _comm(2, "s,f", "f,f")),
    ("ising", "(1 2)(3 4)", "s", 0, ("s", 0), 2,
     _mult(0, "s,s;1,0", "s,s;f,0", "s,f;s,0") + _comm(1, "s,s", "s,f")),
    ("fibonacci", "(1 4)(2 3)", "t", 1, ("t", 0), 2,
     _mult(1, "t,t;1,0", "t,t;t,0") + _comm(3, "t,t")),
    ("ising", "(1 3)(2 4)", "s", 1, ("s", 0), 0,
     ["gamma_[1] at s is not invertible (charge 1)"]
     + _mult(1, "s,s;1,0", "s,s;f,0", "s,f;s,0") + _comm(2, "s,s", "f,s")),
]


class TestInducedPairs:
    @pytest.mark.parametrize("key", ("rep_z2", "vec_z3_q", "fibonacci", "ising"))
    def test_n1_induced_pairs_verify(self, key):
        spec = catalog.builtin(key)
        for lab in spec.labels:
            pair = induced_half_braidings(spec, sig12(), lab)
            assert verify_sigma_pair(spec, sig12(), pair) == []

    @pytest.mark.parametrize(
        "key,cycles,lab",
        [("fibonacci", c, "1") for c in ("(1 3)(2 4)", "(1 2)(3 4)", "(1 4)(2 3)")]
        # :comm case 1 with a middle strand other than the unit.
        + [("ising", "(1 2)(3 4)", "s"), ("rep_s3", "(1 2)(3 4)", "V")],
        ids=("(1 3)(2 4)", "(1 2)(3 4)", "(1 4)(2 3)", "ising-(1 2)(3 4)-s", "rep_s3-(1 2)(3 4)-V"),
    )
    def test_n2_induced_pairs_verify(self, key, cycles, lab):
        spec = catalog.builtin(key)
        sig = parse_cycles(cycles)
        pair = induced_half_braidings(spec, sig, lab)
        assert verify_sigma_pair(spec, sig, pair) == []

    def test_a_pair_with_the_wrong_number_of_half_braidings_is_refused(self):
        # An n = 1 pair checked at an n = 2 gluing: one half-braiding for two orbits.
        spec = catalog.builtin("fibonacci")
        pair = induced_half_braidings(spec, sig12(), "t")
        report = verify_sigma_pair(spec, parse_cycles("(1 3)(2 4)"), pair)
        assert report == ["expected 2 half-braidings"]

    def test_single_orbit_has_no_comm_constraints(self):
        spec = catalog.builtin("semion")
        pair = induced_half_braidings(spec, sig12(), "1")
        report = verify_sigma_pair(spec, sig12(), pair)
        assert report == [] and len(pair.braidings) == 1

    def test_perturbed_block_fails(self):
        spec = catalog.builtin("fibonacci")
        pair = perturbed(induced_half_braidings(spec, sig12(), "1"), ("t", 0), rational(-1))
        assert verify_sigma_pair(spec, sig12(), pair)

    def test_perturbed_copy_fails_right_after_the_induced_pair_verifies(self):
        # gamma at w is built once per (orbit, w) inside one verification;
        # a second call on another pair must not reuse it.
        spec = catalog.builtin("fibonacci")
        induced = induced_half_braidings(spec, sig12(), "t")
        assert verify_sigma_pair(spec, sig12(), induced) == []
        pair = perturbed(induced, ("t", 0), rational(2))
        report = verify_sigma_pair(spec, sig12(), pair)
        assert any("multiplicativity" in e for e in report)

    @pytest.mark.parametrize(
        "key,cycles,lab,m,block,s,want", BROKEN_REPORTS,
        ids=[f"{c[0]}-{c[1]}-{c[2]}-orbit{c[3]}-x{c[5]}" for c in BROKEN_REPORTS],
    )
    def test_broken_pair_reports_are_pinned(self, key, cycles, lab, m, block, s, want):
        # Every verdict and message, in order, as the checks read them when
        # each gamma was pushed through its own state, with no shared table.
        spec = catalog.builtin(key)
        sig = parse_cycles(cycles)
        pair = perturbed(induced_half_braidings(spec, sig, lab), block, rational(s), m)
        assert verify_sigma_pair(spec, sig, pair) == want == full_sweep(spec, sig, pair)

    def test_failures_found_pair_by_pair_are_reported_in_check_order(self):
        # Twisted columns on both orbits fail multiplicativity at (s, s) and
        # at (s, f) on both orbits, and :comm at (f, s); the report lists
        # orbit 0's multiplicativity first, then orbit 1's, then :comm.
        spec = catalog.builtin("ising")
        sig = parse_cycles("(1 3)(2 4)")
        pair = induced_half_braidings(spec, sig, "s")
        edits = ((1, "s", 1, range(len(pair.words))), (0, "f", -1, range(0, len(pair.words), 2)))
        pair = twisted(spec, pair, edits)
        report = verify_sigma_pair(spec, sig, pair)
        assert report == full_sweep(spec, sig, pair) == (
            _mult(0, "s,s;f,0", "s,f;s,0", "f,s;s,0") + _mult(1, "s,s;1,0", "s,s;f,0")
            + _comm(2, "f,s")
        )

    def test_failures_on_three_orbits_are_reported_in_check_order(self):
        # Failures on two orbits and on all three orbit pairs come out in the
        # order of the loops over (m, z1, z2, w, mu), then (i, j, z1, z2):
        # orbits (0,1) at (1,2) before orbits (0,2) at (1,1).
        spec = catalog.builtin("vec_z3_q")
        sig = parse_cycles("(1 3)(2 4)(5 6)")
        pair = induced_half_braidings(spec, sig, "1")
        edits = ((0, "1", 1, range(0, len(pair.words), 2)),
                 (1, "2", -1, range(0, len(pair.words), 3)))
        pair = twisted(spec, pair, edits)
        report = verify_sigma_pair(spec, sig, pair)
        assert report == full_sweep(spec, sig, pair)
        mult = ("1,1;2,0", "1,2;0,0", "2,1;0,0", "2,2;1,0")
        assert report == (
            _mult(0, *mult) + _mult(1, *mult) + _comm(2, "1,1", "1,2")
            + _comm(1, "1,1", "1,2", orbits="0,2") + _comm(1, "2,1", "2,2", orbits="1,2")
        )

    def test_at_most_2n_position_2_tables_are_alive(self, monkeypatch):
        # Each check applies its gamma words to its own start state, so a
        # state at position 2 is dropped once gamma at position 1 is applied
        # to it: at most 2 alive for any n.  On a passing pair only the seeds
        # are computed.  Built: n sum_{z1 != 1, s in S} sum_w N_{z1 s}^w for
        # multiplicativity and 2 C(n,2) (L - 1) |S| for :comm, for L labels
        # and the handle labels S.
        apply_gamma, count = center._apply_gamma, {"live": 0, "built": 0, "peak": 0}

        def dropped():
            count["live"] -= 1

        def tracked(state, pair, m, pos, z):
            out = apply_gamma(state, pair, m, pos, z)
            if pos == 2:
                count["live"] += 1
                count["built"] += 1
                count["peak"] = max(count["peak"], count["live"])
                weakref.finalize(out, dropped)
            return out

        monkeypatch.setattr(center, "_apply_gamma", tracked)
        for key, cycles, built in (("rep_s3", "(1 3)(2 4)", 12), ("rep_z2", "(1 3)(2 4)(5 6)", 9),
                                   ("vec_z3_q", "(1 3)(2 4)(5 6)", 18),
                                   ("fibonacci", "(1 3)(2 4)", 6), ("ising", "(1 3)(2 4)", 10)):
            spec, sig = catalog.builtin(key), parse_cycles(cycles)
            count.update(built=0, peak=0)
            assert verify_sigma_pair(spec, sig, induced_half_braidings(spec, sig, "1")) == []
            assert count["live"] == 0 and count["built"] == built, key
            assert count["peak"] <= 2, key

    @pytest.mark.parametrize("edit", ("dropped", "doubled"))
    def test_unit_column_dropped_or_doubled_fails_the_unit_law(self, edit):
        # Each remaining column is the identity on its own, so only the sum
        # over the columns of the unit block shows the fault.
        spec = catalog.builtin("fibonacci")
        pair = induced_half_braidings(spec, sig12(), "t")
        blocks = dict(pair.braidings[0])
        cols = blocks[spec.unit, 0]
        blocks[spec.unit, 0] = [] if edit == "dropped" else cols + cols
        bad = SigmaPair(pair.words, pair.alphas, [blocks])
        report = verify_sigma_pair(spec, sig12(), bad)
        assert "gamma at the unit is not the identity" in report
        assert report == full_sweep(spec, sig12(), bad)

    @pytest.mark.parametrize("key", catalog.catalog_keys())
    def test_valid_pairs_match_the_full_sweep(self, key):
        # Every label at every gluing with n <= 2: the seeds pass, and so
        # does every check that they imply.
        spec = catalog.builtin(key)
        for cycles in ("(1 2)",) + N2_GLUINGS:
            sig = parse_cycles(cycles)
            for lab in spec.labels:
                pair = induced_half_braidings(spec, sig, lab)
                assert verify_sigma_pair(spec, sig, pair) == full_sweep(spec, sig, pair) == []

    def test_a_failing_multiplicativity_seed_reports_the_whole_orbit(self):
        # Doubling gamma_[1] at f on one summand fails the seeds (s, s) and
        # (f, s), and also (s, f) and (f, f), whose z2 = f is not a handle
        # label: only the sweep at every label pair reports those.
        spec = catalog.builtin("ising")
        sig = parse_cycles("(1 3)(2 4)")
        pair = perturbed(induced_half_braidings(spec, sig, "1"), ("f", 1), rational(2), 1)
        report = verify_sigma_pair(spec, sig, pair)
        assert center._handle_labels(spec) == ("s",)
        assert report == full_sweep(spec, sig, pair)
        assert _mult(1, "s,f;s,0", "f,f;1,0") == [e for e in report if ",f;" in e]

    def test_crossing_flips_match_the_full_sweep(self, monkeypatch):
        # With a gamma crossing flipped, :comm fails in 27 of these cases
        # with multiplicativity passing, at a z2 outside the handle labels
        # too, so only the fallback to every label pair reports it.
        outside = 0
        for left, right in (("under", "over"), ("over", "under"), ("over", "over")):
            monkeypatch.setattr(center, "GAMMA_LEFT", left)
            monkeypatch.setattr(center, "GAMMA_RIGHT", right)
            for key, cycles in iproduct(("ising", "vec_z3_q"), ("(1 3)(2 4)", "(1 4)(2 3)")):
                spec, sig = respec(catalog.builtin(key)), parse_cycles(cycles)
                handles = center._handle_labels(spec)
                for lab in spec.labels:
                    pair = induced_half_braidings(spec, sig, lab)
                    report = verify_sigma_pair(spec, sig, pair)
                    assert report == full_sweep(spec, sig, pair), (left, right, key, cycles, lab)
                    comm = [e.rsplit(",", 1)[1][:-1] for e in report if e.startswith("comm")]
                    if comm and not any("multiplicativity" in e for e in report):
                        outside += bool(set(comm) - set(handles))
        assert outside == 27

    def test_empty_gluing_pair(self):
        spec = catalog.builtin("fibonacci")
        sig = Gluing(0, ())
        pair = induced_half_braidings(spec, sig, "t")
        assert pair.braidings == [] and verify_sigma_pair(spec, sig, pair) == []


class TestCarrierMaps:
    def test_add_rejects_different_shapes(self):
        spec = catalog.builtin("fibonacci")
        p1 = induced_half_braidings(spec, sig12(), "1")
        pt = induced_half_braidings(spec, sig12(), "t")
        elem = carrier_basis(spec, p1.words, pt.words)[0]
        with pytest.raises(IllFormedDiagramError):
            CarrierMap.zero(spec, p1.words, p1.words) + elem
        total = CarrierMap.zero(spec, p1.words, pt.words) + elem
        assert total == elem and (total.src, total.tgt) == (elem.src, elem.tgt)

    def test_compose_rejects_a_middle_mismatch(self):
        spec = catalog.builtin("fibonacci")
        p1 = induced_half_braidings(spec, sig12(), "1")
        pt = induced_half_braidings(spec, sig12(), "t")
        elem = carrier_basis(spec, p1.words, pt.words)[0]
        with pytest.raises(IllFormedDiagramError):
            compose(elem, elem)
        assert compose(CarrierMap.identity(spec, pt.words), elem) == elem

    @pytest.mark.parametrize("key", ("fibonacci", "ising"))
    def test_apply_gamma_on_zero_state(self, key):
        spec = catalog.builtin(key)
        pair = induced_half_braidings(spec, sig12(), spec.labels[-1])
        for z in spec.labels:
            ident = center._carrier_id_with(spec, pair, (z,))
            zero = CarrierMap.zero(spec, ident.src, ident.tgt)
            want = center._apply_gamma(ident, pair, 0, 1, z)
            got = center._apply_gamma(zero, pair, 0, 1, z)
            assert got.is_zero() and not want.is_zero()
            assert (got.src, got.tgt) == (want.src, want.tgt)


class TestProjection:
    def test_identity_is_fixed(self):
        cases = [("fibonacci", sig12())]
        cases += [("semion", parse_cycles(c)) for c in N2_GLUINGS]
        for key, sig in cases:
            spec = catalog.builtin(key)
            px = induced_half_braidings(spec, sig, "1")
            ident = CarrierMap.identity(spec, px.words)
            assert project_morphisms(spec, sig, px, px, [ident])[0] == ident

    def test_idempotent_on_random_maps(self):
        spec = catalog.builtin("fibonacci")
        rng = random.Random(5)
        px = induced_half_braidings(spec, sig12(), "1")
        py = induced_half_braidings(spec, sig12(), "t")
        for _ in range(3):
            f = rand_map(spec, px, py, rng)
            p1 = project_morphisms(spec, sig12(), px, py, [f])[0]
            assert project_morphisms(spec, sig12(), px, py, [p1])[0] == p1
        # n = 2: semion I(1) -> I(1), where creation moves legs past legs
        spec = catalog.builtin("semion")
        for cycles in N2_GLUINGS:
            sig = parse_cycles(cycles)
            px = induced_half_braidings(spec, sig, "1")
            f = rand_map(spec, px, px, rng)
            p1 = project_morphisms(spec, sig, px, px, [f])[0]
            assert p1 != f and project_morphisms(spec, sig, px, px, [p1])[0] == p1

    def test_projected_maps_compose_projectedly(self):
        sig = sig12()
        for key, labels in (("vec_z3_q", ("0", "1", "2")), ("fibonacci", ("1", "t", "1"))):
            spec = catalog.builtin(key)
            rng = random.Random(9)
            px, py, pz = (induced_half_braidings(spec, sig, lab) for lab in labels)
            if key == "vec_z3_q":
                # Graded: every word of I(a) has degree a, so Hom(I(0), I(1)) = 0.
                assert hom_Z_dim(spec, sig, px, py) == 0
            else:
                assert hom_Z_dim(spec, sig, px, py) > 0
                assert hom_Z_dim(spec, sig, py, pz) > 0
            for _ in range(2):
                f = rand_map(spec, px, py, rng)
                g = rand_map(spec, py, pz, rng)
                pf = project_morphisms(spec, sig, px, py, [f])[0]
                pg = project_morphisms(spec, sig, py, pz, [g])[0]
                if key == "fibonacci":
                    assert not compose(pg, pf).is_zero()
                # mixing a raw morphism with a projected one projects cleanly
                assert project_morphisms(spec, sig, px, pz, [compose(pg, f)])[0] == compose(pg, pf)
                assert project_morphisms(spec, sig, px, pz, [compose(g, pf)])[0] == compose(pg, pf)
                # sigma-morphisms are closed under composition
                assert project_morphisms(spec, sig, px, pz, [compose(pg, pf)])[0] == compose(pg, pf)

    @pytest.mark.parametrize("key, x, y", (("fibonacci", "1", "t"), ("vec_z3_q", "2", "2")))
    @pytest.mark.parametrize("cycles", ("(1 2)", "(1 3)(2 4)"))
    def test_batch_equals_one_by_one(self, key, x, y, cycles):
        spec = catalog.builtin(key)
        sig = parse_cycles(cycles)
        px = induced_half_braidings(spec, sig, x)
        py = induced_half_braidings(spec, sig, y)
        basis = carrier_basis(spec, px.words, py.words)
        if key == "fibonacci" and sig.n == 2:
            basis = basis[::12]  # 7 of 75 maps, from every source summand
        batch = [CarrierMap.zero(spec, px.words, py.words)] + basis
        got = project_morphisms(spec, sig, px, py, batch)
        assert got[0].is_zero() and not all(g.is_zero() for g in got)
        assert got == [project_morphisms(spec, sig, px, py, [f])[0] for f in batch]
        assert project_morphisms(spec, sig, px, py, []) == []

    def test_batch_rejects_a_misshapen_map(self):
        spec = catalog.builtin("fibonacci")
        p1 = induced_half_braidings(spec, sig12(), "1")
        pt = induced_half_braidings(spec, sig12(), "t")
        good = carrier_basis(spec, p1.words, pt.words)[0]
        with pytest.raises(GenusCenterError):
            project_morphisms(spec, sig12(), p1, pt, [good, CarrierMap.zero(spec, p1.words, p1.words)])

    @pytest.mark.parametrize("cycles", ("(1 2)", "(1 3)(2 4)"))
    def test_create_keeps_exactly_the_needed_summands(self, cycles):
        spec = catalog.builtin("fibonacci")
        sig = parse_cycles(cycles)
        px = induced_half_braidings(spec, sig, "t")
        count = len(px.words)
        for s0, w in enumerate(px.words):
            mor0 = Morphism.identity(spec, w)
            full = _create(spec, sig, px, s0, mor0, set(range(count)))
            assert {s for _alpha, s in full} == set(range(count))
            for need in ({0}, {count - 1}, {1, count - 1}, set()):
                want = {k: v for k, v in full.items() if k[1] in need}
                assert _create(spec, sig, px, s0, mor0, need) == want


class TestHomZDim:
    def test_n0_dim_is_plain_hom(self):
        spec = catalog.builtin("fibonacci")
        sig = Gluing(0, ())
        px = induced_half_braidings(spec, sig, "t")
        assert hom_Z_dim(spec, sig, px, px) == 1

    def test_matches_adjunction_count(self):
        spec = catalog.builtin("fibonacci")
        sig = sig12()
        from genuscenter.center import _assignments, _word_for

        for i in spec.labels:
            for j in spec.labels:
                pi = induced_half_braidings(spec, sig, i)
                pj = induced_half_braidings(spec, sig, j)
                got = hom_Z_dim(spec, sig, pi, pj)
                want = 0
                for alpha in _assignments(spec, sig):
                    want += hom_dim(spec, _word_for(spec, sig, alpha, (j,)), i)
                assert got == want

    def test_vec_z2_unit_dim(self):
        spec = catalog.builtin("vec_z2")
        sig = sig12()
        p0 = induced_half_braidings(spec, sig, "0")
        # dim Hom_Z(I(0), I(0)) = dim Hom_C(0, T(0)) = 2 by adjunction.
        assert hom_Z_dim(spec, sig, p0, p0) == 2


class TestCarrierBasis:
    @pytest.mark.parametrize(
        "key,cycles,x,y",
        [("fibonacci", "(1 2)", "t", "t"), ("rep_s3", "(1 2)", "V", "V"), ("ising", "(1 3)(2 4)", "s", "s")],
    )
    def test_flattened_basis_maps_are_unit_vectors(self, key, cycles, x, y):
        # flatten_carrier_map, the oracle's coordinates for hom_Z_dim, reads
        # the basis maps of carrier_basis in their own order.
        spec = catalog.builtin(key)
        sig = parse_cycles(cycles)
        py = induced_half_braidings(spec, sig, y)
        for src in (((x,),), induced_half_braidings(spec, sig, x).words):
            basis = carrier_basis(spec, src, py.words)
            assert basis
            for k, phi in enumerate(basis):
                want = [rational(int(i == k)) for i in range(len(basis))]
                assert flatten_carrier_map(phi) == want


ADJUNCTION_CASES = [pytest.param(key, "(1 2)", id=key) for key in catalog.catalog_keys()] + [
    pytest.param(key, cycles, id=f"{key}-{cycles}")
    for key, cycles in (
        ("ising", "(1 3)(2 4)"),
        ("vec_z3_q", "(1 3)(2 4)"),
        # A leg crosses the middle strand; three orbits nest.
        ("semion", "(1 2)(3 4)"),
        ("vec_z3_q", "(1 2)(3 4)"),
        ("rep_z2", "(1 2)(3 5)(4 6)"),
        ("rep_z2", "(1 6)(2 5)(3 4)"),
        ("vec_z2", "(1 2)(3 5)(4 6)"),
        ("vec_z2", "(1 6)(2 5)(3 4)"),
    )
]


class TestAdjunction:
    @pytest.mark.parametrize("key,cycles", ADJUNCTION_CASES)
    def test_gf_and_fg_identities(self, key, cycles):
        # forward is a contraction, not an inverse of backward, so
        # backward o forward = 1 is a check of the construction.
        spec = catalog.builtin(key)
        sig = parse_cycles(cycles)
        for x in spec.labels:
            for y in spec.labels:
                py = induced_half_braidings(spec, sig, y)
                fwd, bwd = adjunction_maps(spec, sig, x, py)
                for phi in carrier_basis(spec, ((x,),), py.words):
                    img = fwd(phi)
                    assert bwd(img) == phi
                    assert fwd(bwd(img)) == img

    @pytest.mark.parametrize("key,cycles", ADJUNCTION_CASES)
    def test_forward_is_linear_on_a_map_that_is_not_a_basis_map(self, key, cycles):
        # forward reads phi's entries: a value 1 that is not the shared C1
        # scales its column like any other value.
        spec = catalog.builtin(key)
        sig = parse_cycles(cycles)
        n = spec.field_order()
        pool = [rational(2), rational(1), rational(-1), zeta(n)]
        pairs = [(x, induced_half_braidings(spec, sig, y))
                 for x in spec.labels for y in spec.labels]
        # The first Hom of dimension 4 or more, so that each value of pool
        # appears; else the largest.
        x, py = max(pairs, key=lambda p: min(len(carrier_basis(spec, ((p[0],),), p[1].words)), 4))
        fwd, bwd = adjunction_maps(spec, sig, x, py)
        basis = carrier_basis(spec, ((x,),), py.words)
        assert len(basis) >= 2
        phi = CarrierMap.zero(spec, ((x,),), py.words)
        want = CarrierMap.zero(spec, induced_half_braidings(spec, sig, x).words, py.words)
        for k, b in enumerate(basis):
            c = pool[k % len(pool)]
            # 2 * (c / 2): at c = 1 a fresh value 1, where C1 * 1 is C1.
            phi = phi + b.scale(rational(2)).scale(c / rational(2))
            want = want + fwd(b).scale(c)
        ones = [v for m in phi.blocks.values() for v in m.entries().values() if v == 1]
        assert ones and all(v is not C1 for v in ones)
        img = fwd(phi)
        assert img == want and not img.is_zero()
        assert bwd(img) == phi

    def test_a_map_of_the_wrong_shape_is_refused(self):
        spec = catalog.builtin("fibonacci")
        sig = sig12()
        py = induced_half_braidings(spec, sig, "t")
        fwd, bwd = adjunction_maps(spec, sig, "t", py)
        # Each direction is given a map from the other's source.
        phi = carrier_basis(spec, (("t",),), py.words)[0]
        psi = fwd(phi)
        with pytest.raises(GenusCenterError, match="forward map input has wrong shape"):
            fwd(psi)
        with pytest.raises(GenusCenterError, match="backward map input has wrong shape"):
            bwd(phi)

    def test_maps_follow_the_half_braidings_of_the_pair(self):
        # Two pairs on the same carrier words but different half-braidings
        # must get different maps: nothing is kept between calls.
        spec = catalog.builtin("fibonacci")
        sig = sig12()
        induced = induced_half_braidings(spec, sig, "t")
        fwd, _bwd = adjunction_maps(spec, sig, "t", induced)
        other = perturbed(induced, ("t", 0), rational(2))
        fwd2, _bwd2 = adjunction_maps(spec, sig, "t", other)
        basis = carrier_basis(spec, (("t",),), other.words)
        assert any(fwd(phi) != fwd2(phi) for phi in basis)

    @pytest.mark.parametrize("key,cycles", ADJUNCTION_CASES)
    def test_forward_lands_in_sigma_morphisms(self, key, cycles):
        # The averaging projection fixes each image.  backward is injective
        # on sigma-morphisms, so with backward o forward = 1 this pins
        # forward(phi) to D^n times the projection of phi on the all-units
        # summand.
        spec = catalog.builtin(key)
        sig = parse_cycles(cycles)
        for x in spec.labels:
            px = induced_half_braidings(spec, sig, x)
            for y in spec.labels:
                py = induced_half_braidings(spec, sig, y)
                fwd, _bwd = adjunction_maps(spec, sig, x, py)
                images = [fwd(phi) for phi in carrier_basis(spec, ((x,),), py.words)]
                assert project_morphisms(spec, sig, px, py, images) == images


def check_unit(alg) -> bool:
    for a in range(alg.dim):
        basis_vec = {a: rational(1)}
        if product(alg, alg.unit, basis_vec) != basis_vec:
            return False
        if product(alg, basis_vec, alg.unit) != basis_vec:
            return False
    return True


def check_associative(alg) -> bool:
    for a in range(alg.dim):
        ea = {a: rational(1)}
        for b in range(alg.dim):
            eb = {b: rational(1)}
            ab = product(alg, ea, eb)
            for c in range(alg.dim):
                ec = {c: rational(1)}
                if product(alg, ab, ec) != product(alg, ea, product(alg, eb, ec)):
                    return False
    return True


# Gluings at which the table closed from the generators mod p is checked
# against the exact table of all products.
CLOSURE_CASES = [
    *[(key, cycles) for cycles in ("(1 2)", "(1 3)(2 4)") for key in catalog.catalog_keys()],
    ("semion", "(1 2)(3 4)"),
    ("ising", "(1 2)(3 4)"),
    ("rep_z2", "(1 4)(2 5)(3 6)"),
]


class TestTubeAlgebra:
    def test_vec_z2_blocks(self):
        spec = catalog.builtin("vec_z2")
        tube = tube_algebra(spec, sig12())
        assert tube.dim == 4
        dims = block_dims(spec, sig12())
        assert dims[("0", "0")] == 2 and dims[("1", "1")] == 2
        assert ("0", "1") not in dims

    def test_fibonacci_unit_block(self):
        spec = catalog.builtin("fibonacci")
        assert block_dims(spec, sig12())[("1", "1")] == 2
        assert tube_algebra(spec, sig12()).dim == 7

    @pytest.mark.parametrize("key", ("vec_z2", "fibonacci", "vec_z3_q"))
    def test_kleisli_laws(self, key):
        # On the contracted products: tube_algebra writes its right-unit rows.
        spec = catalog.builtin(key)
        tube = tube_algebra(spec, sig12())
        alg = AlgebraData(tube.dim, center._tube_products(spec, sig12(), range(tube.dim)), tube.unit)
        assert check_unit(alg)
        assert check_associative(alg)

    @pytest.mark.parametrize("key,cycles", [
        (key, cycles) for cycles in ("(1 2)", "(1 3)(2 4)") for key in catalog.catalog_keys()
    ])
    def test_written_unit_products_are_the_contracted_ones(self, key, cycles):
        spec, sigma = catalog.builtin(key), parse_cycles(cycles)
        tube = tube_algebra(spec, sigma)
        contracted = center._tube_products(spec, sigma, tube.unit)
        for a in range(tube.dim):
            for u in tube.unit:
                got = tube.mult.get((a, u))
                assert contracted.get((a, u)) == got, f"{key} at {cycles}: e_{a} e_{u}"

    @pytest.mark.parametrize("cycles", N2_GLUINGS)
    def test_semion_n2_products_pinned(self, cycles):
        # Pins the layer rule of center._nest_word: with the middle strand
        # behind the legs instead, e5 * e4 = -e5 at (1 2)(3 4).
        want = pinned_products(SEMION_N2_PRODUCTS[cycles], UNITS)
        spec, sigma = catalog.builtin("semion"), parse_cycles(cycles)
        table = center._tube_products(spec, sigma, range(8))
        assert tube_algebra(spec, sigma).dim == 8 and len(want) == 32
        assert table == want

    def test_fibonacci_n1_products_pinned(self):
        # Pins the read-off of tube products from blocks with several trees
        # per charge, over a field wider than Q(i).
        want = pinned_products(FIBONACCI_N1_PRODUCTS, GOLDEN)
        spec = catalog.builtin("fibonacci")
        table = center._tube_products(spec, sig12(), range(7))
        assert tube_algebra(spec, sig12()).dim == 7 and len(want) == 25
        assert table == want

    @pytest.mark.parametrize("key,cycles", CLOSURE_CASES)
    def test_generators_close_to_the_exact_table_mod_p(self, key, cycles):
        spec, sigma = catalog.builtin(key), parse_cycles(cycles)
        tube = tube_algebra(spec, sigma)
        handles = set(center._handle_labels(spec))
        basis = center._tube_basis(spec, sigma)[0]
        labels = [[a for a in alpha if a != spec.unit] for _i, _j, alpha, _t in basis]
        want = [b for b, ls in enumerate(labels) if len(ls) <= 1 and set(ls) <= handles]
        assert tube.gens == want
        order = spec.field_order()
        table = center._tube_products(spec, sigma, range(tube.dim))
        exact = AlgebraData(tube.dim, table, tube.unit, order=order)
        p = next(_primes(order, tube.dim))
        want, _unit = _reduce(exact, p)
        got, _unit = _reduce(tube, p)
        chain, uses, trace = _close(got, tube.gens, tube.dim, p)
        # e_a e_b = sum_k t e_a w_k over uses[k] = {b: t}, from one chain of e_a.
        full: dict = {}
        for a in range(tube.dim):
            for k, aw in enumerate(chain({a: 1})):
                for b, t in uses.get(k, {}).items():
                    row = full.setdefault((a, b), {})
                    for c, x in aw.items():
                        row[c] = (row.get(c, 0) + t * x) % p
        full = {ab: nz for ab, row in full.items() if (nz := {c: x for c, x in row.items() if x})}
        assert full == {ab: row for ab, row in want.items() if row}
        regular = [0] * tube.dim
        for (a, b), row in want.items():
            regular[a] += row.get(b, 0)
        assert trace == [x % p for x in regular]

    @pytest.mark.parametrize("key,cycles", CLOSURE_CASES[:3] + CLOSURE_CASES[-3:])
    def test_a_basis_chain_reads_the_table(self, key, cycles):
        # chain(i) takes e_i e_g from the reduced table, chain({i: 1}) multiplies.
        tube = tube_algebra(catalog.builtin(key), parse_cycles(cycles))
        p = next(_primes(tube.order, tube.dim))
        chain, _uses, _trace = _close(_reduce(tube, p)[0], tube.gens, tube.dim, p)
        assert all(chain(i) == chain({i: 1}) for i in range(tube.dim))

    @pytest.mark.parametrize("key,want", [
        ("fibonacci", ("t",)), ("ising", ("s",)), ("rep_s3", ("V",)), ("vec_z3_q", ("1",)),
        ("semion", ("1",)), ("rep_z2", ("1",)), ("vec_z2", ("1",)),
    ])
    def test_handle_labels_generate_every_label(self, key, want):
        spec = catalog.builtin(key)
        assert center._handle_labels(spec) == want
        reach = {spec.unit}
        for _ in spec.labels:
            reach |= {c for x in reach for s in want for c in spec.channels(x, s)}
        assert reach == set(spec.labels)

    @pytest.mark.parametrize("cycles,closed", [
        pytest.param("(1 2)", "2 of 4", id="(1 2)"),
        pytest.param("(1 3)(2 4)", "4 of 16", id="(1 3)(2 4)"),
    ])
    def test_handle_label_f_alone_does_not_generate_ising(self, cycles, closed):
        # f (x) f = 1, so handles labelled f never reach the s-handle elements.
        # They link no two unit summands, so each summand is its own class,
        # and (e) fails first in the class of the unit's summand at label 1.
        spec, sigma = catalog.builtin("ising"), parse_cycles(cycles)
        tube = tube_algebra(spec, sigma)
        basis = center._tube_basis(spec, sigma)[0]
        labels = [[a for a in alpha if a != spec.unit] for _i, _j, alpha, _t in basis]
        handles = [b for b, ls in enumerate(labels) if ls == ["f"]]
        mult = center._tube_products(spec, sigma, handles)
        mult.update({(a, u): row for (a, u), row in tube.mult.items() if u in tube.unit})
        gens = sorted([*tube.unit, *handles])
        alg = AlgebraData(tube.dim, mult, tube.unit, gens=gens, order=spec.field_order())
        unit1 = min(tube.unit)
        assert basis[unit1][:2] == ("1", "1")
        with pytest.raises(NonSplitError, match=rf"class with unit e_{unit1} at .*"
                                                rf"\(e\) the generators close on {closed} "):
            decompose(alg)

    @pytest.mark.parametrize("key,cycles", [
        (key, cycles) for cycles in ("(1 2)", "(1 3)(2 4)") for key in catalog.catalog_keys()
    ])
    def test_algebra_data_carries_the_spec_field_order(self, key, cycles):
        spec = catalog.builtin(key)
        alg = tube_algebra(spec, parse_cycles(cycles))
        assert alg.order == spec.field_order(), f"{key} at {cycles}"

    def test_empty_gluing_tube(self):
        spec = catalog.builtin("fibonacci")
        tube = tube_algebra(spec, Gluing(0, ()))
        assert tube.dim == len(spec.labels)
        rank, dims = center_rank(spec, Gluing(0, ()))
        assert rank == len(spec.labels) and dims == [1] * rank


class TestCenterRank:
    @pytest.mark.parametrize(
        "key,want",
        [("vec_z2", 4), ("rep_z2", 4), ("fibonacci", 4), ("vec_z3_q", 9), ("semion", 4)],
    )
    def test_n1_ranks(self, key, want):
        spec = catalog.builtin(key)
        rank, dims = center_rank(spec, sig12())
        assert rank == want
        tube = tube_algebra(spec, sig12())
        assert sum(m * m for m in dims) == tube.dim
        # independent float decomposition of the same algebra, from its whole table
        table = center._tube_products(spec, sig12(), range(tube.dim))
        frank, fdims = float_decompose(AlgebraData(tube.dim, table, tube.unit))
        assert (frank, fdims) == (rank, dims)

    def test_fibonacci_punctured_torus_collapses(self):
        spec = catalog.builtin("fibonacci")
        rank, dims = center_rank(spec, parse_cycles("(1 3)(2 4)"))
        assert rank == 2
        assert sum(m * m for m in dims) == tube_algebra(
            spec, parse_cycles("(1 3)(2 4)")
        ).dim


# Ranks of the 3-punctured sphere, pinned: the modular ones are r^k with k = 3.
SPHERE3_RANKS = {"fibonacci": 8, "ising": 27, "vec_z3_q": 27}


def assert_n3_gluings_agree_by_surface(key):
    """All 15 gluings at n=3 give one (rank, blocks) per surface; a failure names them.

    Returns {(g, k): {(rank, blocks): [gluings]}}.
    """
    spec = catalog.builtin(key)
    by_surface: dict = {}
    for sig in enumerate_adm(3):
        rank, dims = center_rank(spec, sig)
        results = by_surface.setdefault(surface_type(sig), {})
        results.setdefault((rank, tuple(dims)), []).append(sig.cycle_string())
    for surface, results in by_surface.items():
        assert len(results) == 1, f"{key} at (g, k) = {surface}: {results}"
    return by_surface


class TestSurfaceInvariance:
    @pytest.mark.parametrize("key", catalog.catalog_keys())
    def test_both_n2_spheres_agree(self, key):
        spec = catalog.builtin(key)
        first, second = (center_rank(spec, parse_cycles(s)) for s in ("(1 2)(3 4)", "(1 4)(2 3)"))
        assert first == second, f"{key}: (1 2)(3 4) gives {first}, (1 4)(2 3) gives {second}"
        if key in SPHERE3_RANKS:
            assert first[0] == SPHERE3_RANKS[key]

    def test_semion_n3_gluings_agree_by_surface(self):
        assert_n3_gluings_agree_by_surface("semion")

    def test_vec_z2_n3_gluings_agree_by_surface(self):
        assert_n3_gluings_agree_by_surface("vec_z2")

    def test_vec_z3_q_n3_gluings_agree_by_surface_with_rank_3_to_the_k(self):
        # Modular C with r = 3 simple objects: rank r^k on every surface.
        for (g, k), results in assert_n3_gluings_agree_by_surface("vec_z3_q").items():
            for (rank, _dims), gluings in results.items():
                assert rank == 3**k, f"vec_z3_q at {gluings}, (g, k) = ({g}, {k}): rank {rank}"

    def test_rep_z2_n3_gluings_give_the_dijkgraaf_witten_count(self):
        # Symmetric pointed C with |A| = 2: every surface of rank n has
        # |A|^(n+1) simple objects, each with a one-dimensional block.
        spec = catalog.builtin("rep_z2")
        for sig in enumerate_adm(3):
            assert center_rank(spec, sig) == (16, [1] * 16), sig.cycle_string()

    def test_fibonacci_n3_torus_is_r_to_the_k(self):
        # Genus 1 with k = 2 punctures: rank r^k = 4 for modular C.
        rank, dims = center_rank(catalog.builtin("fibonacci"), parse_cycles("(1 3)(2 4)(5 6)"))
        assert (rank, dims) == (4, [3, 4, 4, 7]), "fibonacci at (1 3)(2 4)(5 6)"


def dense_gamma_column(spec, sigma, alpha, middle, m, z):
    """Reference gamma_[m] at z on the alpha summand, built as dense morphisms.

    The argument strand braids to the low leg and merges with it; the high
    leg turns into (dual(b), z) by a coupon rho built on one strand from a
    cup, a split and a cap; then the argument braids to the right end.
    """
    n = sigma.n
    lo, hi = sigma.pairs()[m]
    word = center._word_for(spec, sigma, alpha, middle)
    p = lo if lo <= n else lo + len(middle)
    q = hi if hi <= n else hi + len(middle)
    a = alpha[m]
    base = Morphism.identity(spec, (z,) + word)
    for j in range(1, p):
        base = base.apply_all((("braid", j, center.GAMMA_LEFT),))
    out = []
    for b in spec.channels(z, a):
        for mu in range(spec.N(z, a, b)):
            rho = Morphism.identity(spec, (spec.dual[a],))
            for op in (("cup", 0, b, True), ("split", 2, z, a, mu), ("cap", 3, a, True)):
                rho = rho.apply_all((op,))
            st = coupon(base.apply_all((("merge", p, b, mu),)), q, rho)
            for j in range(q + 1, len(word) + 1):
                st = st.apply_all((("braid", j, center.GAMMA_RIGHT),))
            out.append((alpha[:m] + (b,) + alpha[m + 1 :], st))
    return out


GAMMA_CASES = [
    (key, cycles) for key in catalog.catalog_keys() for cycles in ("(1 2)", "(1 3)(2 4)")
] + [("semion", "(1 3)(2 4)(5 6)"), ("fibonacci", "(1 3)(2 4)(5 6)")]


class TestGammaWords:
    @pytest.mark.parametrize("key,cycles", GAMMA_CASES)
    def test_columns_equal_the_dense_construction(self, key, cycles):
        spec = catalog.builtin(key)
        sig = parse_cycles(cycles)
        for x in spec.labels:
            pair = induced_half_braidings(spec, sig, x)
            for m, hb in enumerate(pair.braidings):
                for si, (word, alpha) in enumerate(zip(pair.words, pair.alphas)):
                    for z in spec.labels:
                        want = dense_gamma_column(spec, sig, alpha, (x,), m, z)
                        got = hb[z, si]
                        assert [pair.alphas[ti] for ti, _ in got] == [a2 for a2, _ in want]
                        for (_ti, col), (_a2, ref) in zip(got, want):
                            mor = col.apply_at(Morphism.identity(spec, (z,) + word), 1)
                            assert mor.tgt == ref.tgt and mor == ref


def float_decompose(alg, rng_seed=11):
    """Independent numeric oracle: (rank, block_dims) via the regular representation."""
    n = alg.dim
    t = np.zeros((n, n, n), dtype=complex)
    for (a, b), row in alg.mult.items():
        for c, v in row.items():
            t[a, b, c] = embed(v)
    rows = []
    for b in range(n):
        lb = t[:, b, :].T  # left mult by e_b
        rb = t[b, :, :].T  # right mult by e_b
        rows.append(lb - rb)
    stack = np.vstack(rows)
    _, s, vh = np.linalg.svd(stack)
    tol = max(stack.shape) * np.finfo(float).eps * (s[0] if len(s) else 1.0)
    null = vh[np.sum(s > max(tol, 1e-9)) :].conj()
    rank = null.shape[0]
    rng = np.random.default_rng(rng_seed)
    coeffs = rng.normal(size=rank)
    z = coeffs @ null
    lz = np.einsum("a,abc->cb", z, t)
    evals = np.linalg.eigvals(lz)
    evals = sorted(evals, key=lambda w: (round(w.real, 6), round(w.imag, 6)))
    clusters: list[list[complex]] = []
    for ev in evals:
        if clusters and abs(ev - clusters[-1][-1]) < 1e-6:
            clusters[-1].append(ev)
        else:
            clusters.append([ev])
    dims = []
    for cl in clusters:
        m = math.isqrt(len(cl))
        assert m * m == len(cl), f"float oracle: eigenvalue multiplicity {len(cl)} is not a square"
        dims.append(m)
    assert len(clusters) == rank, f"float oracle: {len(clusters)} clusters vs center dim {rank}"
    return rank, sorted(dims)


def replay_layout(layout, width, word):
    """Layout after a braid word: each braid swaps two strands; the block is width strands."""
    strands = [x for item in layout for x in ([None] * width if item is None else [item])]
    for _kind, i, _sense in word:
        strands[i - 1], strands[i] = strands[i], strands[i - 1]
    out = []
    for x in strands:
        if x is not None or not out or out[-1] is not None:
            out.append(x)
    assert out.count(None) == 1, f"block strands split apart: {strands}"
    return tuple(out)


CONTRACT_CASES = [
    (key, cycles)
    for key in catalog.catalog_keys()
    for cycles in ("(1 2)", "(1 3)(2 4)", "(1 2)(3 4)", "(1 4)(2 3)")
] + [(key, "(1 3)(2 4)(5 6)") for key in ("rep_z2", "vec_z3_q")]


class TestLegPlumbing:
    @pytest.mark.parametrize("key,cycles", CONTRACT_CASES)
    def test_contract_matches_the_column_and_cap_contraction(self, key, cycles):
        # ``_contract`` removes a unit pair by two unit_remove ops; the
        # oracle closes every pair by its gamma column and a cap.  The states
        # are forward's: each basis map lab -> py.words[ty] as a coupon on
        # each nested summand of I(lab).
        spec, sigma = respec(catalog.builtin(key)), parse_cycles(cycles)
        unit_pairs = 0
        for lab in spec.labels:
            alphas = induced_half_braidings(spec, sigma, lab).alphas
            nested = center._nested(spec, sigma, lab)
            for y in spec.labels:
                py = induced_half_braidings(spec, sigma, y)
                for ty, tw in enumerate(py.words):
                    for k in hom_keys(spec, (lab,), tw):
                        for alpha, st in zip(alphas, nested):
                            st = st.apply_coupon(sigma.n + 1, (lab,), tw, k)
                            got = center._contract(py, alpha, ty, st)
                            assert got == contract_by_columns(py, alpha, ty, st)
                            unit_pairs += alpha.count(spec.unit)
        assert unit_pairs

    def test_each_nested_identity_is_built_once(self, monkeypatch):
        spec, sigma = respec(catalog.builtin("fibonacci")), parse_cycles("(1 3)(2 4)")
        nest, apply_all, built = center._nest_word(sigma), Morphism.apply_all, Counter()
        assert nest

        def counting(self, ops):
            ops = tuple(ops)
            if ops == nest:
                built[self.src] += 1
            return apply_all(self, ops)

        monkeypatch.setattr(Morphism, "apply_all", counting)
        center_rank(spec, sigma)
        # A summand word names its label and its summand, so each is counted once.
        words = [w for lab in spec.labels for w in induced_half_braidings(spec, sigma, lab).words]
        assert len(set(words)) == len(words) and built == Counter(words)

    def test_forward_applies_one_keyed_coupon_per_summand(self, monkeypatch):
        # ``_forward`` names its basis map by the coordinate: it builds no
        # elementary map and applies one coupon on each summand of I(lab).
        spec, sigma = respec(catalog.builtin("fibonacci")), parse_cycles("(1 3)(2 4)")
        forward, apply_coupon = center._forward, Morphism.apply_coupon
        elementary, calls = Morphism.elementary, Counter()

        def counted_forward(spec, sigma, lab, *args):
            calls["summands"] += len(induced_half_braidings(spec, sigma, lab).words)
            return forward(spec, sigma, lab, *args)

        def counted_coupon(self, *args):
            calls["coupons"] += 1
            return apply_coupon(self, *args)

        def counted_elementary(*args):
            calls["elementary"] += 1
            return elementary(*args)

        monkeypatch.setattr(center, "_forward", counted_forward)
        monkeypatch.setattr(Morphism, "apply_coupon", counted_coupon)
        monkeypatch.setattr(Morphism, "elementary", staticmethod(counted_elementary))
        center_rank(spec, sigma)
        assert calls["summands"] and calls["coupons"] == calls["summands"]
        assert calls["elementary"] == 0

    def test_contract_applies_no_gamma_column_at_the_unit(self, monkeypatch):
        spec, sigma = respec(catalog.builtin("ising")), parse_cycles("(1 2)(3 4)")
        contract, apply_at = center._contract, center.GammaWord.apply_at
        inside, applied = [], []

        def tracked_contract(*args):
            inside.append(True)
            try:
                return contract(*args)
            finally:
                inside.pop()

        def tracked_apply_at(self, *args):
            if inside:
                applied.append(self)
            return apply_at(self, *args)

        monkeypatch.setattr(center, "_contract", tracked_contract)
        monkeypatch.setattr(center.GammaWord, "apply_at", tracked_apply_at)
        center_rank(spec, sigma)
        at_unit = {
            id(col)
            for lab in spec.labels
            for hb in induced_half_braidings(spec, sigma, lab).braidings
            for (z, _si), cols in hb.items() if z == spec.unit
            for _t, col in cols
        }
        assert applied and at_unit and not any(id(col) in at_unit for col in applied)

    @pytest.mark.parametrize("n", (0, 1, 2, 3, 4))
    def test_nest_word_nests_the_legs_by_layers(self, n):
        for sigma in enumerate_adm(n):
            word = center._nest_word(sigma)
            pairs = sigma.pairs()
            start = (*range(1, n + 1), None, *range(n + 1, 2 * n + 1))
            want = tuple(lo for lo, _ in reversed(pairs)) + (None,) + tuple(hi for _, hi in pairs)
            assert replay_layout(start, 1, word) == want
            # Front to back: the middle strand, then the legs of orbit 0, 1, ...
            layer = {leg: m + 1 for m, pair in enumerate(pairs) for leg in pair}
            layer[None] = 0
            strands, crossed = list(start), set()
            for _kind, i, sense in word:
                left, right = strands[i - 1], strands[i]
                assert frozenset((left, right)) not in crossed
                crossed.add(frozenset((left, right)))
                assert (sense == "over") == (layer[left] < layer[right])
                strands[i - 1], strands[i] = right, left
            if n == 0:
                assert word == ()

    def test_a_dropped_gluing_is_freed(self):
        # The nesting word is built per call and every memo of the tube and
        # the adjunction lives in the spec's cache, so nothing else holds the
        # gluing.
        spec = respec(catalog.builtin("vec_z2"))
        sigma = parse_cycles("(1 3)(2 4)")
        center_rank(spec, sigma)
        lab = spec.labels[-1]
        adjunction_maps(spec, sigma, lab, induced_half_braidings(spec, sigma, lab))
        ref = weakref.ref(sigma)
        del spec, sigma
        gc.collect()
        assert ref() is None
