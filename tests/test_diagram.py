import random
import zlib

import pytest

from genuscenter import catalog, diagram, fusion
from genuscenter.diagram import (
    BoundaryWord,
    Diagram,
    dual_basis,
    elementary_basis,
    eval_diagram,
    hom_basis,
    hom_pairing,
    omega_expand,
    parse_diagram,
)
from genuscenter.errors import IllFormedDiagramError, InternalInconsistencyError
from genuscenter.exactnum import rational, zeta
from genuscenter.trees import Morphism, left_trace, loop_value, right_trace, theta

from exact_oracle import r_matrix

ALL_KEYS = ("fibonacci", "ising", "rep_s3", "rep_z2", "semion", "vec_z2", "vec_z3_q")


def fib():
    return catalog.builtin("fibonacci")


def golden():
    return rational(1) + zeta(5) + zeta(5, 4)


class TestHomBasis:
    def test_fibonacci_dims(self):
        spec = fib()
        b = hom_basis(spec, BoundaryWord.plus(("1",)), BoundaryWord.plus(("t", "t")))
        assert b.dim == 1
        b = hom_basis(spec, BoundaryWord.plus(("t",)), BoundaryWord.plus(("t",) * 3))
        assert b.dim == 2
        b = hom_basis(spec, BoundaryWord.plus(("1",)), BoundaryWord.plus(("1",)))
        assert b.dim == 1

    def test_orientation_dualizes(self):
        spec = catalog.builtin("vec_z3_q")
        # Hom(1, 1 (x) 1-) = Hom(1, 1 (x) 2) has dimension 1 there.
        b = hom_basis(
            spec,
            BoundaryWord([("0", "+")]),
            BoundaryWord([("1", "+"), ("1", "-")]),
        )
        assert b.dim == 1

    def test_deterministic_order(self):
        spec = fib()
        w1 = BoundaryWord.plus(("t", "t", "t"))
        b1 = hom_basis(spec, BoundaryWord.plus(("t",)), w1)
        b2 = hom_basis(spec, BoundaryWord.plus(("t",)), w1)
        assert b1.trees == b2.trees


class TestEvalDiagram:
    def test_crossing_inverse_pairs(self):
        spec = fib()
        d = parse_diagram(
            """
            src: t+ t+
            x:over
            x:under
            """
        )
        got = eval_diagram(spec, d)
        ident = Morphism.identity(spec, ("t", "t"))
        assert got == ident

    def test_zigzag_is_identity(self):
        spec = fib()
        d = parse_diagram(
            """
            src: t+
            cup:t id:t+
            id:t+ cap:t
            """
        )
        assert eval_diagram(spec, d) == Morphism.identity(spec, ("t",))

    def test_twist_loop_matches_quantum_dims(self):
        spec = fib()
        _omega, twists = fusion.quantum_dims(spec)
        d = parse_diagram(
            """
            src: t+
            twist:t+
            """
        )
        got = eval_diagram(spec, d)
        expect = Morphism.identity(spec, ("t",)).scale(twists["t"])
        assert got == expect

    def test_slice_mismatch_reports_index(self):
        spec = fib()
        cases = (
            ("src: t+ t+\nmerge:t,t>1\nx:over\n", "slice 2"),
            # tokens that need strands past the end of the word
            ("src: t+\nid:t+ twist:t+\n", "slice 1"),
            ("src: t+\ncap:t\n", "slice 1"),
            ("src: t+\nid:t+ split:t>t,t\n", "slice 1"),
            # unknown labels, bad multiplicities and mismatched twists
            ("src: t+\nid:t+ cup:q\n", "slice 1"),
            ("src: t+\ncup':q id:t+\n", "slice 1"),
            ("src: t+ t+\ncap:q\n", "slice 1"),
            ("src: t+ t+\nx:over\ncap':q\n", "slice 2"),
            ("src: t+ t+\nmerge:t,t>t:x\n", "slice 1"),
            ("src: t+ t+\nmerge:t,t>q\n", "slice 1"),
            ("src: t+ t+\nmerge:t,t>t:5\n", "slice 1"),
            ("src: t+ t+\nmerge:t,t>1:-1\n", "slice 1"),
            ("src: t+\nsplit:t>t,t:3\n", "slice 1"),
            ("src: t+\nsplit:t>q,t\n", "slice 1"),
            ("src: t+\ntwist:q+\n", "slice 1"),
            ("src: t+\ntwist:1-\n", "slice 1"),
        )
        for text, where in cases:
            with pytest.raises(IllFormedDiagramError) as err:
                eval_diagram(spec, parse_diagram(text))
            assert where in str(err.value)

    def test_stacking_is_composition(self):
        spec = fib()
        rng = random.Random(3)
        top = parse_diagram("src: t+ t+\nx:over\n")
        bottom = parse_diagram("src: t+ t+\nx:under\nid:t+ twist:t+\n")
        stacked = top.stack(bottom)
        lhs = eval_diagram(spec, stacked)
        rhs = eval_diagram(spec, bottom).compose(eval_diagram(spec, top))
        assert lhs == rhs

    def test_merge_then_split_projects(self):
        spec = fib()
        d = parse_diagram(
            """
            src: t+ t+
            merge:t,t>1
            split:1>t,t
            """
        )
        got = eval_diagram(spec, d)
        # The composite is the projection onto the unit channel: idempotent.
        again = got.compose(got)
        assert again == got


class TestOmega:
    def test_closed_omega_loop_is_global_dim(self):
        spec = fib()
        omega, _ = fusion.quantum_dims(spec)
        d = parse_diagram(
            """
            src:
            cup:@0
            cap':@0
            """
        )
        got = omega_expand(spec, d)
        assert got.scalar() == omega.total

    def test_eval_refuses_markers(self):
        spec = fib()
        d = parse_diagram("src:\ncup:@0\ncap':@0\n")
        with pytest.raises(IllFormedDiagramError):
            eval_diagram(spec, d)

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_omega_completeness(self, key):
        # Cut a strand to every simple charge and resum with dim weights.
        spec = catalog.builtin(key)
        omega, _ = fusion.quantum_dims(spec)
        for w in [(a,) for a in spec.labels] + [(spec.labels[-1], spec.labels[0])]:
            word = BoundaryWord.plus(w)
            total = None
            for i in spec.labels:
                iw = BoundaryWord.plus((i,))
                fwd, dual = dual_basis(spec, word, iw)
                for phi, phi_dual in zip(fwd, dual):
                    term = phi_dual.compose(phi).scale(omega.weights[i])
                    total = term if total is None else total + term
            ident = Morphism.identity(spec, tuple(w))
            assert total == ident

    def test_transparent_label_ring_factors_out(self):
        # In a symmetric catalog the linked ring equals dim(Omega) times id.
        spec = catalog.builtin("rep_z2")
        omega, _ = fusion.quantum_dims(spec)
        got = _omega_ring(spec, "1", ("over", "under"))
        expect = Morphism.identity(spec, ("1",)).scale(omega.total)
        assert got == expect


def _omega_ring(spec, label, senses):
    """Dimension-weighted ring around a single strand, linked via senses."""
    omega, _ = fusion.quantum_dims(spec)
    total = None
    for a in spec.labels:
        m = Morphism.identity(spec, (label,))
        m = m.apply(("cup", 1, a, False))
        m = m.apply(("braid", 1, senses[0]))
        m = m.apply(("braid", 2, senses[1]))
        m = m.apply(("cap", 1, a, True))
        term = m.scale(omega.weights[a])
        total = term if total is None else total + term
    return total


class TestIsotopySuite:
    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_reidemeister_two(self, key):
        spec = catalog.builtin(key)
        labels = spec.labels
        for a in labels:
            for b in labels:
                ident = Morphism.identity(spec, (a, b))
                over_under = ident.apply(("braid", 1, "over")).apply(("braid", 1, "under"))
                under_over = ident.apply(("braid", 1, "under")).apply(("braid", 1, "over"))
                assert over_under == ident and under_over == ident

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_zigzags_both_chiralities(self, key):
        spec = catalog.builtin(key)
        for a in spec.labels:
            ident = Morphism.identity(spec, (a,))
            zz1 = ident.apply(("cup", 0, a, False)).apply(("cap", 2, a, False))
            zz2 = ident.apply(("cup", 1, a, True)).apply(("cap", 1, a, True))
            assert zz1 == ident and zz2 == ident

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_twist_multiplicative_on_channels(self, key):
        # theta_c = theta_a theta_b (double braiding eigenvalue) blockwise.
        spec = catalog.builtin(key)
        omega, twists = fusion.quantum_dims(spec)
        for a in spec.labels:
            for b in spec.labels:
                for c in spec.channels(a, b):
                    rab = r_matrix(spec, a, b, c)
                    rba = r_matrix(spec, b, a, c)
                    prod = rba @ rab
                    n = prod.rows
                    for i in range(n):
                        for j in range(n):
                            want = twists[c] if i == j else rational(0)
                            got = prod[i, j] * twists[a] * twists[b]
                            assert got == want

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_sphericality_on_random_coupons(self, key):
        spec = catalog.builtin(key)
        rng = random.Random(zlib.crc32(key.encode()))
        word = (spec.labels[-1], spec.labels[rng.randrange(len(spec.labels))])
        basis = elementary_basis(
            spec, BoundaryWord.plus(word), BoundaryWord.plus(word)
        )
        f = None
        for b in basis:
            term = b.scale(rational(rng.randint(-3, 3)))
            f = term if f is None else f + term
        assert left_trace(spec, f) == right_trace(spec, f)

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_sliding_makes_omega_transparent(self, key):
        # The linked ring around any strand is independent of which side
        # of the ring the strand passes on.
        spec = catalog.builtin(key)
        for x in spec.labels:
            front_back = _omega_ring(spec, x, ("over", "under"))
            back_front = _omega_ring(spec, x, ("under", "over"))
            assert front_back == back_front


class TestPairing:
    def test_unit_pairing(self):
        spec = fib()
        unit = BoundaryWord.plus(("1",))
        fwd = elementary_basis(spec, unit, unit)
        assert hom_pairing(spec, fwd[0], fwd[0]) == rational(1)

    def test_tau_pairing_is_golden(self):
        spec = fib()
        t = BoundaryWord.plus(("t",))
        (idt,) = elementary_basis(spec, t, t)
        assert hom_pairing(spec, idt, idt) == golden()

    def test_zero_pairing_is_degenerate(self, monkeypatch):
        monkeypatch.setattr(diagram, "hom_pairing", lambda spec, f, g: rational(0))
        x = BoundaryWord.plus(("t", "t"))
        with pytest.raises(InternalInconsistencyError, match="degenerate Hom pairing"):
            dual_basis(fib(), x, x)

    def test_other_pairing_errors_are_not_wrapped(self, monkeypatch):
        def broken(spec, f, g):
            raise KeyError("no pairing")

        monkeypatch.setattr(diagram, "hom_pairing", broken)
        x = BoundaryWord.plus(("t", "t"))
        with pytest.raises(KeyError):
            dual_basis(fib(), x, x)

    def test_dual_basis_orthonormal(self):
        spec = fib()
        x = BoundaryWord.plus(("t", "t"))
        fwd, dual = dual_basis(spec, x, x)
        assert len(fwd) == 2
        for i, phi in enumerate(fwd):
            for j, psi in enumerate(dual):
                want = rational(1 if i == j else 0)
                assert hom_pairing(spec, phi, psi) == want


class TestSerialization:
    def test_parse_requires_src(self):
        with pytest.raises(IllFormedDiagramError):
            parse_diagram("id:t+\n")

    def test_comments_and_blanks(self):
        d = parse_diagram(
            """
            # a loop
            src: t+   # one strand in

            id:t+
            """
        )
        assert d.source.points == (("t", "+"),)
        assert d.slices == [["id:t+"]]
