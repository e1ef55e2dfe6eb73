import pytest

from genuscenter import catalog, fusion
from genuscenter.errors import (
    GenusCenterError,
    InternalInconsistencyError,
    KeyNotFoundError,
    PremodularRequiredError,
)
from genuscenter.exactnum import rational, zeta


class TestBuiltin:
    def test_keys(self):
        assert catalog.catalog_keys() == [
            "fibonacci", "ising", "rep_s3", "rep_z2", "semion", "vec_z2", "vec_z3_q",
        ]

    def test_unknown_key_lists_available(self):
        with pytest.raises(KeyNotFoundError) as err:
            catalog.builtin("nope")
        assert "fibonacci" in str(err.value)

    def test_spec_is_frozen(self):
        spec = catalog.builtin("fibonacci")
        with pytest.raises(AttributeError):
            spec.R = None
        with pytest.raises(AttributeError):
            del spec.R
        assert spec.R is not None
        with pytest.raises(TypeError):
            hash(spec)

    def test_rep_z2_shape(self):
        spec = catalog.builtin("rep_z2")
        dims, _ = fusion.quantum_dims(spec)
        assert len(spec.labels) == 2
        assert all(v == rational(1) for v in dims.values())
        _s, transparent, _m = fusion.s_matrix_and_transparency(spec)
        assert transparent == set(spec.labels)

    def test_rep_s3_fusion_pattern(self):
        spec = catalog.builtin("rep_s3")
        assert spec.N("V", "V", "1") == 1
        assert spec.N("V", "V", "e") == 1
        assert spec.N("V", "V", "V") == 1
        assert spec.N("e", "e", "1") == 1
        # rational 6j-symbols by construction
        for block in spec.F.values():
            for v in block.values():
                assert v.order == 1

    def test_symmetric_flags(self):
        for key in ("rep_z2", "rep_s3", "vec_z2"):
            spec = catalog.builtin(key)
            _s, transparent, modular = fusion.s_matrix_and_transparency(spec)
            assert transparent == set(spec.labels) and not modular
        for key in ("fibonacci", "ising", "semion", "vec_z3_q"):
            spec = catalog.builtin(key)
            _s, transparent, modular = fusion.s_matrix_and_transparency(spec)
            assert transparent == {spec.unit} and modular


class TestRepS3Builder:
    def test_braiding_scalar_of_proportional_intertwiners(self):
        ref = {0: {0: rational(1)}, 2: {1: rational(2)}}
        lhs = {0: {0: rational(-3)}, 2: {1: rational(-6)}}
        assert catalog._coefficients(lhs, {0: ref}) == {0: rational(-3)}

    def test_a_map_outside_the_span_gives_none(self):
        ref = {0: {0: rational(1)}, 2: {1: rational(2)}}
        lhs = {0: {0: rational(1)}, 2: {1: rational(3)}}
        assert catalog._coefficients(lhs, {0: ref}) is None

    def test_intertwiners_that_are_not_proportional_are_named(self, monkeypatch):
        # V -> V (x) e replaced by the identity, which intertwines V with V and
        # not with V (x) e: its flip is no multiple of the vertex (e,V;V).
        vertex = catalog._s3_vertex
        perturbed = {0: {0: rational(1)}, 1: {1: rational(1)}}
        monkeypatch.setattr(catalog, "_s3_vertex",
                            lambda a, b, c: perturbed if (a, b, c) == ("V", "e", "V")
                            else vertex(a, b, c))
        with pytest.raises(InternalInconsistencyError, match=r"\(V,e;V\)"):
            catalog._rep_s3()


class TestOneField:
    @pytest.mark.parametrize("key", catalog.catalog_keys())
    def test_scalars_live_in_one_field(self, key):
        spec = catalog.builtin(key)
        blocks = [*spec.F.values(), *(spec.R or {}).values(), spec.pivotal]
        assert {v.order for b in blocks for v in b.values()} <= {1, spec.field_order()}

    def test_a_hand_built_spec_stores_order_5_at_order_10(self):
        fib = catalog.builtin("fibonacci")
        r5, r10 = zeta(5, 3), zeta(10, 3)
        spec = fusion.CategorySpec(
            name="fibonacci by hand",
            labels=fib.labels,
            unit=fib.unit,
            dual=fib.dual,
            fusion=fib.fusion,
            F=fib.F,
            R={("t", "t", "1"): {(0, 0): r5}, ("t", "t", "t"): {(0, 0): r10}},
            pivotal={"1": rational(1), "t": zeta(5, 0)},
        )
        assert spec.field_order() == 10
        stored = spec.R[("t", "t", "1")][(0, 0)]
        assert stored.order == 10 and stored == r5
        assert spec.R[("t", "t", "t")][(0, 0)] is r10
        assert spec.pivotal["t"].order == 10 and spec.pivotal["t"] == rational(1)
        assert spec.pivotal["1"].order == 1
        assert fusion.check_hexagon(spec) == []


class TestRoundTrip:
    @pytest.mark.parametrize("key", catalog.catalog_keys())
    def test_save_load_identity(self, key, tmp_path):
        spec = catalog.builtin(key)
        path = tmp_path / f"{key}.json"
        catalog.save_spec(spec, path)
        loaded = catalog.load_spec(path)
        assert loaded.labels == spec.labels
        assert loaded.unit == spec.unit
        assert loaded.dual == spec.dual
        assert loaded.fusion == spec.fusion
        assert set(loaded.F) == set(spec.F)
        for k in spec.F:
            assert set(loaded.F[k]) == set(spec.F[k])
            for idx in spec.F[k]:
                assert loaded.F[k][idx] == spec.F[k][idx]
        assert (loaded.R is None) == (spec.R is None)
        if spec.R is not None:
            assert set(loaded.R) == set(spec.R)
            for k in spec.R:
                for idx in spec.R[k]:
                    assert loaded.R[k][idx] == spec.R[k][idx]
        for a in spec.labels:
            assert loaded.pivotal_coeff(a) == spec.pivotal_coeff(a)

    def test_zero_order_scalar_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"name": "x", "labels": ["0"], "unit": "0", "dual": {"0": "0"},'
            ' "fusion": [["0","0","0",1]],'
            ' "F": [{"labels": ["0","0","0","0"], "row": ["0",0,0],'
            ' "col": ["0",0,0], "value": {"order": 0, "terms": []}}],'
            ' "pivotal": {}}'
        )
        with pytest.raises(GenusCenterError) as err:
            catalog.load_spec(path)
        assert "order" in str(err.value)

    def test_missing_field_diagnostic(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text('{"name": "x", "labels": ["0"]}')
        with pytest.raises(GenusCenterError) as err:
            catalog.load_spec(path)
        assert "missing mandatory field" in str(err.value)

    def test_directory_is_an_error(self, tmp_path):
        with pytest.raises(GenusCenterError, match="cannot be read"):
            catalog.load_spec(tmp_path)

    def test_top_level_not_an_object_is_an_error(self, tmp_path):
        path = tmp_path / "five.json"
        path.write_text("5")
        with pytest.raises(GenusCenterError, match="not a JSON object"):
            catalog.load_spec(path)

    def test_file_not_utf8_is_an_error(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"name": "\u00e9"}'.encode("latin-1"))
        with pytest.raises(GenusCenterError, match="not valid JSON"):
            catalog.load_spec(path)

    def test_labels_given_as_a_string_are_rejected(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text(
            '{"name": "x", "labels": "1", "unit": "1",'
            ' "dual": {"1": "1"}, "fusion": [], "F": [], "pivotal": {}}'
        )
        with pytest.raises(GenusCenterError, match="'labels'"):
            catalog.load_spec(path)

    def test_name_not_a_string_is_rejected(self, tmp_path):
        path = tmp_path / "name.json"
        path.write_text(
            '{"name": 5, "labels": ["1"], "unit": "1",'
            ' "dual": {"1": "1"}, "fusion": [], "F": [], "pivotal": {}}'
        )
        with pytest.raises(GenusCenterError, match="'name'"):
            catalog.load_spec(path)

    def test_non_involutive_dual_rejected(self, tmp_path):
        path = tmp_path / "dual.json"
        path.write_text(
            '{"name": "x", "labels": ["0", "1"], "unit": "0",'
            ' "dual": {"0": "0", "1": "0"}, "fusion": [], "F": [], "pivotal": {}}'
        )
        with pytest.raises(GenusCenterError) as err:
            catalog.load_spec(path)
        assert "involutive" in str(err.value)

    def test_spherical_only_spec_gates_center_ops(self, tmp_path):
        spec = catalog.builtin("rep_z2")
        path = tmp_path / "noR.json"
        catalog.save_spec(
            fusion.CategorySpec(
                name="noR",
                labels=spec.labels,
                unit=spec.unit,
                dual=spec.dual,
                fusion=spec.fusion,
                F=spec.F,
                R=None,
                pivotal=spec.pivotal,
            ),
            path,
        )
        loaded = catalog.load_spec(path)
        assert loaded.R is None
        from genuscenter import center
        from genuscenter.gluing import parse_cycles

        with pytest.raises(PremodularRequiredError):
            center.tube_algebra(loaded, parse_cycles("(1 2)"))

    def test_loading_does_not_validate(self, tmp_path):
        # A structurally wrong file loads fine; validation is explicit.
        path = tmp_path / "notvalid.json"
        path.write_text(
            '{"name": "x", "labels": ["0", "1"], "unit": "0",'
            ' "dual": {"0": "0", "1": "1"}, "fusion": [["0","0","0",1]],'
            ' "F": [], "pivotal": {}}'
        )
        loaded = catalog.load_spec(path)
        assert fusion.validate_structure(loaded)
