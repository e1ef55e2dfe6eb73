import random
from itertools import product

import pytest

import exact_oracle
from genuscenter import catalog, fusion
from genuscenter.errors import PremodularRequiredError, SingularMatrixError
from genuscenter.exactnum import rational, zeta

ALL_KEYS = ("fibonacci", "ising", "rep_s3", "rep_z2", "semion", "vec_z2", "vec_z3_q")


def respec(spec, **changes):
    """A copy of spec with the given fields changed; the copy starts with its own empty cache."""
    fields = {name: value for name, value in vars(spec).items() if name != "_cache"}
    return fusion.CategorySpec(**{**fields, **changes})


def test_a_copied_spec_starts_with_its_own_cache():
    spec = catalog.builtin("fibonacci")
    spec.f_block("t", "t", "t", "t")
    copy = respec(spec)
    assert spec._cache and copy._cache == {}
    assert (copy.labels, copy.F, copy.R, copy.pivotal) == (spec.labels, spec.F, spec.R, spec.pivotal)
    copy.f_block("t", "t", "t", "t")
    assert copy._cache.keys() <= spec._cache.keys() and copy._cache is not spec._cache


def golden():
    return rational(1) + zeta(5) + zeta(5, 4)


class TestStructure:
    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_catalogs_structurally_valid(self, key):
        assert fusion.validate_structure(catalog.builtin(key)) == []

    def test_singular_f_block_is_named(self):
        spec = catalog.builtin("fibonacci")
        block = spec.F["t", "t", "t", "t"]
        # Row (t,0,0) becomes a copy of row (1,0,0).
        copied = {(("t", 0, 0), col): v for (row, col), v in block.items() if row == ("1", 0, 0)}
        kept = {k: v for k, v in block.items() if k[0] != ("t", 0, 0)}
        F = {**spec.F, ("t", "t", "t", "t"): {**kept, **copied}}
        bad = respec(spec, F=F)
        assert fusion.validate_structure(bad) == ["F block (t,t,t;t) is singular"]
        named = r"^fibonacci: F block \(t,t,t;t\) is singular$"
        with pytest.raises(SingularMatrixError, match=named):
            bad.f_inverse("t", "t", "t", "t")

    def test_broken_dual_reported(self):
        spec = catalog.builtin("fibonacci")
        broken = fusion.CategorySpec(
            name="broken",
            labels=spec.labels,
            unit=spec.unit,
            dual={"1": "1", "t": "1"},
            fusion=spec.fusion,
            F=spec.F,
            R=spec.R,
            pivotal=spec.pivotal,
        )
        rep = fusion.validate_structure(broken)
        assert any("involutive" in e or "dual rule" in e for e in rep)

    def test_unknown_label_is_report_entry_not_exception(self):
        spec = catalog.builtin("rep_z2")
        bad = fusion.CategorySpec(
            name="bad",
            labels=spec.labels,
            unit=spec.unit,
            dual=dict(spec.dual),
            fusion={**spec.fusion, ("0", "ghost", "0"): 1},
            F=spec.F,
            R=spec.R,
            pivotal=spec.pivotal,
        )
        rep = fusion.validate_structure(bad)
        assert any("unknown label" in e for e in rep)

    def test_vec_z3_group_law_valid(self):
        assert fusion.validate_structure(catalog.builtin("vec_z3_q")) == []


def rep_a4_ring():
    """Rep(A4)'s fusion rules, 3 (x) 3 = 1 + a + b + 2 3, with no F or R data."""
    labels = ("1", "a", "b", "3")
    power = {"1": 0, "a": 1, "b": 2}
    fusion_rules = {}
    for x, y in product(labels, repeat=2):
        if "3" not in (x, y):
            fusion_rules[x, y, labels[(power[x] + power[y]) % 3]] = 1
        elif (x, y) != ("3", "3"):
            fusion_rules[x, y, "3"] = 1
    fusion_rules.update({("3", "3", "1"): 1, ("3", "3", "a"): 1, ("3", "3", "b"): 1,
                         ("3", "3", "3"): 2})
    return fusion.CategorySpec(name="rep_a4_ring", labels=labels, unit="1",
                               dual={"1": "1", "a": "b", "b": "a", "3": "3"},
                               fusion=fusion_rules, F={}, R=None, pivotal={})


def slot_rule_block(spec, a, b, c, d):
    """The strict-unit F block by slot rules: the vertex of the two other legs
    keeps its index, be = mu at a unit a, be = nu at a unit b, al = nu at a unit c."""
    if a == spec.unit:
        hit = lambda row, col: row[2] == col[1]  # noqa: E731
    elif b == spec.unit:
        hit = lambda row, col: row[2] == col[2]  # noqa: E731
    else:
        hit = lambda row, col: row[1] == col[2]  # noqa: E731
    return {(row, col): spec.field.one for row in spec.f_rows(a, b, c, d)
            for col in spec.f_cols(a, b, c, d) if hit(row, col)}


class TestUnitLegBlocks:
    def test_rep_a4_ring_fails_only_for_its_missing_f_data(self):
        (entry,) = fusion.validate_structure(rep_a4_ring())
        assert entry.startswith("rep_a4_ring: missing F entry for admissible channel")

    def test_each_unit_leg_block_is_the_slot_rule_identity(self):
        spec = rep_a4_ring()
        checked, multiple = 0, []
        for a, b, c, d in product(spec.labels, repeat=4):
            if spec.unit not in (a, b, c):
                continue
            rows, cols, block = spec.f_block(a, b, c, d)
            want = slot_rule_block(spec, a, b, c, d)
            assert list(block.items()) == list(want.items()), (a, b, c, d)
            assert (rows, cols) == (spec.f_rows(a, b, c, d), spec.f_cols(a, b, c, d))
            checked += 1
            if len(block) > 1:
                multiple.append((a, b, c, d))
        assert checked == 148
        assert multiple == [("1", "3", "3", "3"), ("3", "1", "3", "3"), ("3", "3", "1", "3")]


class TestPentagon:
    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_catalogs_pass_exactly(self, key):
        spec = catalog.builtin(key)
        assert fusion.check_pentagon(spec) == []

    def test_perturbed_entry_fails(self):
        spec = catalog.builtin("fibonacci")
        tainted = {
            k: dict(v) for k, v in spec.F.items()
        }
        key = ("t", "t", "t", "t")
        rk = (("1", 0, 0), ("t", 0, 0))
        tainted[key][rk] = -tainted[key][rk]
        bad = fusion.CategorySpec(
            name="perturbed",
            labels=spec.labels,
            unit=spec.unit,
            dual=spec.dual,
            fusion=spec.fusion,
            F=tainted,
            R=spec.R,
            pivotal=spec.pivotal,
        )
        assert fusion.check_pentagon(bad)


class TestHexagon:
    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_catalogs_pass_exactly(self, key):
        spec = catalog.builtin(key)
        assert fusion.check_hexagon(spec) == []

    def test_trivialized_braiding_fails_for_fibonacci(self):
        spec = catalog.builtin("fibonacci")
        bad_r = {k: dict(v) for k, v in spec.R.items()}
        bad_r[("t", "t", "t")] = {(0, 0): rational(1)}
        bad = fusion.CategorySpec(
            name="badR",
            labels=spec.labels,
            unit=spec.unit,
            dual=spec.dual,
            fusion=spec.fusion,
            F=spec.F,
            R=bad_r,
            pivotal=spec.pivotal,
        )
        assert fusion.check_hexagon(bad)

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_r_inverse_inverts_r_matrix(self, key):
        spec = catalog.builtin(key)
        assert spec.R is not None
        for a, b in product(spec.labels, repeat=2):
            for c in spec.channels(a, b):
                n = spec.N(a, b, c)
                inv = exact_oracle.ExactMatrix.zeros(n, n)
                for (nu, mu), v in spec.r_inverse(a, b, c).items():
                    inv[nu, mu] = v
                eye = exact_oracle.ExactMatrix.identity(n)
                assert (exact_oracle.r_matrix(spec, a, b, c) @ inv - eye).is_zero()

    def test_missing_braiding_gate(self):
        spec = catalog.builtin("rep_z2")
        gated = fusion.CategorySpec(
            name="gated",
            labels=spec.labels,
            unit=spec.unit,
            dual=spec.dual,
            fusion=spec.fusion,
            F=spec.F,
            R=None,
            pivotal=spec.pivotal,
        )
        with pytest.raises(PremodularRequiredError):
            fusion.check_hexagon(gated)


def scaled_entry(spec, rng):
    """A copy of spec with one F or R entry scaled by -1, 2 or zeta_N, N = field_order()."""
    entries = [("F", key, k) for key, blk in spec.F.items() for k in blk]
    entries += [("R", key, k) for key, blk in spec.R.items() for k in blk]
    table, key, k = rng.choice(entries)
    n = spec.field_order()
    factor = rng.choice([rational(-1), rational(2)] + ([zeta(n)] if n > 2 else []))
    data = {key2: dict(blk) for key2, blk in getattr(spec, table).items()}
    data[key][k] = data[key][k] * factor
    return respec(spec, **{table: data})


def reports(check, spec):
    """check(spec), or SingularMatrixError if it inverts a singular block."""
    try:
        return check(spec)
    except SingularMatrixError:  # a scaled F block may be singular
        return SingularMatrixError


class TestAgainstReference:
    """The word-identity checks against the hand-built moves of ``exact_oracle``.

    Reports must agree entry by entry and in order, on each catalog and on
    24 copies of it with one scaled F or R entry (168 copies in all).
    """

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_reports_match_the_reference(self, key):
        rng = random.Random(key)
        specs = [catalog.builtin(key)] + [scaled_entry(catalog.builtin(key), rng) for _ in range(24)]
        outcomes = []
        for spec in specs:
            got = [reports(check, spec) for check in (fusion.check_pentagon, fusion.check_hexagon)]
            want = [reports(check, spec) for check in (exact_oracle.check_pentagon, exact_oracle.check_hexagon)]
            assert got == want
            outcomes.append(got != [[], []])
        assert not outcomes[0] and sum(outcomes) >= 12  # the scaled copies do break the axioms


def global_dim(dims):
    """The sum of d_a^2 over the simples."""
    return sum((d * d for d in dims.values()), rational(0))


class TestQuantumDims:
    def test_vec_z2(self):
        dims, _ = fusion.quantum_dims(catalog.builtin("vec_z2"))
        assert dims["0"] == rational(1)
        assert dims["1"] == rational(1)
        assert global_dim(dims) == rational(2)

    def test_fibonacci_golden(self):
        dims, twists = fusion.quantum_dims(catalog.builtin("fibonacci"))
        phi = golden()
        assert dims["t"] == phi
        assert global_dim(dims) == phi + rational(2)
        # tau twist is a primitive fifth root squared
        assert twists["t"] == zeta(5, 2)

    def test_ising_dims(self):
        dims, twists = fusion.quantum_dims(catalog.builtin("ising"))
        assert dims["s"] == zeta(8) + zeta(8, 7)
        assert dims["f"] == rational(1)
        assert global_dim(dims) == rational(4)
        assert twists["s"] == zeta(16)
        assert twists["f"] == rational(-1)

    def test_rep_s3_dims(self):
        dims, twists = fusion.quantum_dims(catalog.builtin("rep_s3"))
        assert dims["V"] == rational(2)
        assert global_dim(dims) == rational(6)
        assert all(v == rational(1) for v in twists.values())

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_unit_normalization(self, key):
        spec = catalog.builtin(key)
        dims, twists = fusion.quantum_dims(spec)
        assert dims[spec.unit] == rational(1)
        assert twists[spec.unit] == rational(1)
        assert list(dims) == list(twists) == list(spec.labels)

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_twist_matches_braid_eigenvalue_sum(self, key):
        # Independent ribbon formula: theta_a = sum_c (d_c/d_a) tr R[aa->c].
        spec = catalog.builtin(key)
        dims, twists = fusion.quantum_dims(spec)
        for a in spec.labels:
            acc = rational(0)
            for c in spec.channels(a, a):
                rm = exact_oracle.r_matrix(spec, a, a, c)
                tr = rational(0)
                for i in range(rm.rows):
                    tr = tr + rm[i, i]
                acc = acc + dims[c] * tr / dims[a]
            assert acc == twists[a]


class TestSphericalRibbon:
    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_catalogs_pass(self, key):
        assert fusion.check_spherical_ribbon(catalog.builtin(key)) == []

    def test_inconsistent_pivotal_fails(self):
        spec = catalog.builtin("vec_z3_q")
        bad = fusion.CategorySpec(
            name="badpiv",
            labels=spec.labels,
            unit=spec.unit,
            dual=spec.dual,
            fusion=spec.fusion,
            F=spec.F,
            R=spec.R,
            pivotal={"0": rational(1), "1": rational(-1), "2": rational(1)},
        )
        assert fusion.check_spherical_ribbon(bad)


class TestSMatrix:
    def test_rep_z2_symmetric(self):
        spec = catalog.builtin("rep_z2")
        _s, transparent, modular = fusion.s_matrix_and_transparency(spec)
        assert transparent == {"0", "1"}
        assert not modular

    def test_vec_z2_symmetric(self):
        spec = catalog.builtin("vec_z2")
        _s, transparent, modular = fusion.s_matrix_and_transparency(spec)
        assert transparent == {"0", "1"}
        assert not modular

    def test_rep_s3_symmetric(self):
        spec = catalog.builtin("rep_s3")
        _s, transparent, modular = fusion.s_matrix_and_transparency(spec)
        assert transparent == {"1", "e", "V"}
        assert not modular

    @pytest.mark.parametrize("key", ("fibonacci", "ising", "semion", "vec_z3_q"))
    def test_modular_catalogs(self, key):
        spec = catalog.builtin(key)
        _s, transparent, modular = fusion.s_matrix_and_transparency(spec)
        assert transparent == {spec.unit}
        assert modular

    def test_fibonacci_s_entries(self):
        spec = catalog.builtin("fibonacci")
        s, _t, _m = fusion.s_matrix_and_transparency(spec)
        phi = golden()
        assert s[0, 0] == rational(1)
        assert s[0, 1] == phi and s[1, 0] == phi
        assert s[1, 1] == rational(-1)
