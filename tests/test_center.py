import random

import pytest

from genuscenter import catalog, center
from genuscenter.errors import IllFormedDiagramError
from genuscenter.algebra import decompose, float_decompose
from genuscenter.center import (
    CarrierMap,
    FormalObject,
    adjunction_maps,
    carrier_basis,
    center_rank,
    hom_Z_dim,
    induce_object,
    induced_half_braidings,
    project_morphism,
    tube_algebra,
    verify_sigma_pair,
)
from genuscenter.exactnum import rational
from genuscenter.gluing import Gluing, parse_cycles
from genuscenter.trees import Morphism, hom_dim


def sig12():
    return parse_cycles("(1 2)")


def rand_map(spec, px, py, rng):
    acc = CarrierMap.zero(spec, px.words, py.words)
    for b in carrier_basis(spec, px.words, py.words):
        acc = acc + b.scale(rational(rng.randint(-3, 3)))
    return acc


class TestInduceObject:
    def test_vec_z2_unit(self):
        spec = catalog.builtin("vec_z2")
        got = induce_object(spec, sig12(), "0")
        assert got.as_dict() == {"0": 2}

    def test_fibonacci_unit(self):
        spec = catalog.builtin("fibonacci")
        got = induce_object(spec, sig12(), "1")
        assert got.as_dict() == {"1": 2, "t": 1}

    def test_empty_gluing_is_identity(self):
        spec = catalog.builtin("fibonacci")
        x = FormalObject.from_dict({"t": 2, "1": 1})
        assert induce_object(spec, Gluing(0, ()), x).as_dict() == {"1": 1, "t": 2}

    def test_formal_object_additive(self):
        spec = catalog.builtin("fibonacci")
        a = induce_object(spec, sig12(), "1").as_dict()
        b = induce_object(spec, sig12(), "t").as_dict()
        both = induce_object(spec, sig12(), FormalObject.from_dict({"1": 1, "t": 1}))
        assert both.as_dict() == {
            k: a.get(k, 0) + b.get(k, 0) for k in set(a) | set(b)
        }


class TestInducedPairs:
    @pytest.mark.parametrize("key", ("rep_z2", "vec_z3_q", "fibonacci", "ising"))
    def test_n1_induced_pairs_verify(self, key):
        spec = catalog.builtin(key)
        for lab in spec.labels:
            pair = induced_half_braidings(spec, sig12(), lab)
            assert verify_sigma_pair(spec, sig12(), pair).ok

    @pytest.mark.parametrize(
        "cycles", ("(1 3)(2 4)", "(1 2)(3 4)", "(1 4)(2 3)")
    )
    def test_n2_induced_pairs_verify(self, cycles):
        spec = catalog.builtin("fibonacci")
        sig = parse_cycles(cycles)
        pair = induced_half_braidings(spec, sig, "1")
        assert verify_sigma_pair(spec, sig, pair).ok

    def test_single_orbit_has_no_comm_constraints(self):
        spec = catalog.builtin("semion")
        pair = induced_half_braidings(spec, sig12(), "1")
        report = verify_sigma_pair(spec, sig12(), pair)
        assert report.ok and len(pair.braidings) == 1

    def test_perturbed_block_fails(self):
        spec = catalog.builtin("fibonacci")
        pair = induced_half_braidings(spec, sig12(), "1", _cache=False)
        hb = pair.braidings[0]
        key = ("t", 0)
        hb.blocks[key] = [(ti, m.scale(rational(-1))) for ti, m in hb.blocks[key]]
        assert not verify_sigma_pair(spec, sig12(), pair).ok

    def test_empty_gluing_pair(self):
        spec = catalog.builtin("fibonacci")
        sig = Gluing(0, ())
        pair = induced_half_braidings(spec, sig, "t")
        assert pair.braidings == [] and verify_sigma_pair(spec, sig, pair).ok


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

    @pytest.mark.parametrize("key", ("fibonacci", "ising"))
    def test_apply_gamma_on_zero_state(self, key):
        spec = catalog.builtin(key)
        pair = induced_half_braidings(spec, sig12(), spec.labels[-1])
        for z in spec.labels:
            ident = center._carrier_id_with(spec, pair, (z,), ())
            zero = CarrierMap.zero(spec, ident.src, ident.tgt)
            want = center._apply_gamma(ident, pair, 0, 1, z)
            got = center._apply_gamma(zero, pair, 0, 1, z)
            assert got.is_zero() and not want.is_zero()
            assert (got.src, got.tgt) == (want.src, want.tgt)


class TestProjection:
    def test_identity_is_fixed(self):
        spec = catalog.builtin("fibonacci")
        px = induced_half_braidings(spec, sig12(), "1")
        ident = CarrierMap.identity(spec, px.words)
        assert project_morphism(spec, sig12(), px, px, ident) == ident

    def test_idempotent_on_random_maps(self):
        spec = catalog.builtin("fibonacci")
        rng = random.Random(5)
        px = induced_half_braidings(spec, sig12(), "1")
        py = induced_half_braidings(spec, sig12(), "t")
        for _ in range(3):
            f = rand_map(spec, px, py, rng)
            p1 = project_morphism(spec, sig12(), px, py, f)
            assert project_morphism(spec, sig12(), px, py, p1) == p1

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
                pf = project_morphism(spec, sig, px, py, f)
                pg = project_morphism(spec, sig, py, pz, g)
                if key == "fibonacci":
                    assert not pg.compose(pf).is_zero()
                # mixing a raw morphism with a projected one projects cleanly
                assert project_morphism(spec, sig, px, pz, pg.compose(f)) == pg.compose(pf)
                assert project_morphism(spec, sig, px, pz, g.compose(pf)) == pg.compose(pf)
                # sigma-morphisms are closed under composition
                assert project_morphism(spec, sig, px, pz, pg.compose(pf)) == pg.compose(pf)


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


class TestAdjunction:
    @pytest.mark.parametrize("key", ("rep_z2", "fibonacci"))
    def test_gf_and_fg_identities(self, key):
        spec = catalog.builtin(key)
        sig = sig12()
        for x in spec.labels:
            for y in spec.labels:
                py = induced_half_braidings(spec, sig, y)
                fwd, bwd = adjunction_maps(spec, sig, x, py)
                for phi in carrier_basis(spec, ((x,),), py.words):
                    img = fwd(phi)
                    assert bwd(img) == phi
                    assert fwd(bwd(img)) == img

    def test_forward_lands_in_sigma_morphisms(self):
        spec = catalog.builtin("fibonacci")
        sig = sig12()
        px = induced_half_braidings(spec, sig, "t")
        py = induced_half_braidings(spec, sig, "1")
        fwd, _bwd = adjunction_maps(spec, sig, "t", py)
        for phi in carrier_basis(spec, (("t",),), py.words):
            img = fwd(phi)
            assert project_morphism(spec, sig, px, py, img) == img


class TestTubeAlgebra:
    def test_vec_z2_blocks(self):
        spec = catalog.builtin("vec_z2")
        tube = tube_algebra(spec, sig12())
        assert tube.dim == 4
        dims = tube.block_dims()
        assert dims[("0", "0")] == 2 and dims[("1", "1")] == 2
        assert ("0", "1") not in dims

    def test_fibonacci_unit_block(self):
        spec = catalog.builtin("fibonacci")
        tube = tube_algebra(spec, sig12())
        assert tube.block_dims()[("1", "1")] == 2
        assert tube.dim == 7

    @pytest.mark.parametrize("key", ("vec_z2", "fibonacci", "vec_z3_q"))
    def test_kleisli_laws(self, key):
        spec = catalog.builtin(key)
        alg = tube_algebra(spec, sig12()).algebra_data()
        assert alg.check_unit()
        assert alg.check_associative()

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
        # independent float decomposition of the same algebra
        frank, fdims = float_decompose(tube.algebra_data())
        assert (frank, fdims) == (rank, dims)

    def test_fibonacci_punctured_torus_collapses(self):
        spec = catalog.builtin("fibonacci")
        rank, dims = center_rank(spec, parse_cycles("(1 3)(2 4)"))
        assert rank == 2
        assert sum(m * m for m in dims) == tube_algebra(
            spec, parse_cycles("(1 3)(2 4)")
        ).dim
