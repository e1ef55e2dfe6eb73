"""Planar ribbon diagrams: Hom bases, exact evaluation, and the Omega color.

Text format for fixtures (one slice per line, read top source to bottom
target; a leading ``src:`` line declares the source boundary word):

    src: t+ t-
    id:t+ x:over id:t-      # tokens act left to right on the running word

Tokens:
  ``id:L+`` / ``id:L-``      identity strand (minus means the dual label)
  ``x:over`` / ``x:under``   crossing of the two strands at the cursor
  ``twist:L+`` / ``twist:L-``  twist or its inverse
  ``cup:L`` / ``cup':L``     1 -> (L, L*) and the pivotal-primed 1 -> (L*, L)
  ``cap:L`` / ``cap':L``     (L*, L) -> 1 and the primed (L, L*) -> 1
  ``merge:A,B>C`` / ``merge:A,B>C:m``   fusion vertex (multiplicity m)
  ``split:C>A,B`` / ``split:C>A,B:m``   splitting vertex
  ``@k`` in place of a label colors the strand by the Omega loop k,
  expanded by :func:`omega_expand` into a dimension-weighted sum.

Coupons (arbitrary precomputed morphisms) are available on ``Diagram``
objects built in code, not in the text format.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IllFormedDiagramError, InternalInconsistencyError, SingularMatrixError
from .exactnum import C1, Cyclotomic, invert
from .trees import Morphism, hom_keys, right_trace, trees

__all__ = [
    "BoundaryWord",
    "HomBasis",
    "Diagram",
    "hom_basis",
    "eval_diagram",
    "omega_expand",
    "hom_pairing",
    "dual_basis",
    "parse_diagram",
]


class BoundaryWord:
    """Ordered (label, orientation) pairs; minus points carry the dual label."""

    def __init__(self, points):
        self.points = tuple((lab, orient) for lab, orient in points)
        for lab, orient in self.points:
            if orient not in ("+", "-"):
                raise IllFormedDiagramError(f"bad orientation {orient!r} on {lab!r}")

    def internal(self, spec) -> tuple[str, ...]:
        out = []
        for lab, orient in self.points:
            if lab not in spec.dual:
                raise IllFormedDiagramError(f"unknown label {lab!r}")
            out.append(lab if orient == "+" else spec.dual[lab])
        return tuple(out)

    @staticmethod
    def plus(word) -> "BoundaryWord":
        return BoundaryWord([(lab, "+") for lab in word])

    def __repr__(self):
        return " ".join(f"{lab}{orient}" for lab, orient in self.points) or "(empty)"


@dataclass
class HomBasis:
    """Canonical basis of Hom(source, target): charge-matched tree pairs."""

    source: BoundaryWord
    target: BoundaryWord
    trees: list  # (charge, source_tree, target_tree), in ``hom_keys`` order

    @property
    def dim(self) -> int:
        return len(self.trees)


def hom_basis(spec, source: BoundaryWord, target: BoundaryWord) -> HomBasis:
    src = source.internal(spec)
    tgt = target.internal(spec)
    entries = [
        (c, trees(spec, src, c)[s], trees(spec, tgt, c)[r]) for c, r, s in hom_keys(spec, src, tgt)
    ]
    return HomBasis(source=source, target=target, trees=entries)


@dataclass
class Diagram:
    """Slices of generator tokens plus optional in-code coupons."""

    source: BoundaryWord
    slices: list  # list of slice; a slice is a list of tokens / coupon objects

    def stack(self, other: "Diagram") -> "Diagram":
        return Diagram(source=self.source, slices=self.slices + other.slices)


@dataclass
class Coupon:
    value: Morphism


def parse_diagram(text: str) -> Diagram:
    src = None
    slices = []
    for raw in text.strip().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("src:"):
            pts = []
            for tok in line[4:].split():
                lab, orient = tok[:-1], tok[-1]
                pts.append((lab, orient))
            src = BoundaryWord(pts)
            continue
        slices.append(line.split())
    if src is None:
        raise IllFormedDiagramError("diagram text needs a 'src:' line")
    return Diagram(source=src, slices=slices)


def _label(spec, lab: str) -> str:
    if lab not in spec.dual:
        raise IllFormedDiagramError(f"unknown label {lab!r}")
    return lab


def _resolve(spec, lab: str, orient: str) -> str:
    if orient not in ("+", "-"):
        raise IllFormedDiagramError(f"bad orientation {orient!r} on {lab!r}")
    lab = _label(spec, lab)
    return lab if orient == "+" else spec.dual[lab]


def _need_strands(word, pos: int, count: int, what: str) -> None:
    if pos + count - 1 > len(word):
        raise IllFormedDiagramError(f"{what} at strand {pos} runs past the boundary word")


def _expect(word, pos: int, want: tuple, what: str) -> None:
    """Raise unless the strands from ``pos`` on carry the labels ``want``."""
    got = word[pos - 1 : pos - 1 + len(want)]
    if got != want:
        raise IllFormedDiagramError(f"{what} expects {want} at strand {pos}, found {got}")


def _vertex(spec, tok: str, n_in: int, n_out: int):
    """(a, b, c, m) of ``merge:a,b>c[:m]`` (n_in=2) or ``split:c>a,b[:m]`` (n_out=2)."""
    parts = tok.split(":")
    sides = parts[1].split(">")
    if len(parts) > 3 or len(sides) != 2:
        raise IllFormedDiagramError(f"malformed vertex token {tok!r}")
    ins, outs = (tuple(_label(spec, lab) for lab in side.split(",")) for side in sides)
    if (len(ins), len(outs)) != (n_in, n_out):
        raise IllFormedDiagramError(f"malformed vertex token {tok!r}")
    (a, b), (c,) = (ins, outs) if n_in == 2 else (outs, ins)
    mu = parts[2] if len(parts) == 3 else "0"
    if not (mu.isdecimal() and int(mu) < spec.N(a, b, c)):
        raise IllFormedDiagramError(f"{tok!r}: no vertex {mu} of {a} (x) {b} -> {c}")
    return a, b, c, int(mu)


def _apply_token(spec, state: Morphism, pos: int, tok) -> tuple[Morphism, int]:
    """Apply one token at strand position ``pos``; return (state, new pos)."""
    word = state.tgt
    if isinstance(tok, Coupon):
        f = tok.value
        return state.apply_coupon(pos, f), pos + len(f.tgt)
    if tok.startswith("id:"):
        _expect(word, pos, (_resolve(spec, tok[3:-1], tok[-1]),), "id")
        return state, pos + 1
    if tok in ("x:over", "x:under"):
        _need_strands(word, pos, 2, "crossing")
        return state.apply(("braid", pos, tok[2:])), pos + 2
    if tok.startswith("twist:"):
        if tok[-1] not in ("+", "-"):
            raise IllFormedDiagramError(f"twist token {tok!r} needs a sign")
        _expect(word, pos, (_label(spec, tok[6:-1]),), "twist")
        return state.apply(("twist", pos, 1 if tok[-1] == "+" else -1)), pos + 1
    if tok.startswith("cup':"):
        return state.apply(("cup", pos - 1, _label(spec, tok[5:]), True)), pos + 2
    if tok.startswith("cup:"):
        return state.apply(("cup", pos - 1, _label(spec, tok[4:]), False)), pos + 2
    if tok.startswith(("cap:", "cap':")):
        _need_strands(word, pos, 2, "cap")
        head, lab = tok.split(":", 1)
        return state.apply(("cap", pos, _label(spec, lab), head == "cap'")), pos
    if tok.startswith("merge:"):
        a, b, c, mu = _vertex(spec, tok, 2, 1)
        _expect(word, pos, (a, b), "merge")
        return state.apply(("merge", pos, c, mu)), pos + 1
    if tok.startswith("split:"):
        a, b, c, mu = _vertex(spec, tok, 1, 2)
        _expect(word, pos, (c,), "split")
        return state.apply(("split", pos, a, b, mu)), pos + 2
    raise IllFormedDiagramError(f"unknown token {tok!r}")


def _has_omega(d: Diagram) -> bool:
    for sl in d.slices:
        for tok in sl:
            if isinstance(tok, str) and "@" in tok:
                return True
    return False


def eval_diagram(spec, d: Diagram) -> Morphism:
    """Exact morphism of a diagram; Omega markers must be expanded first."""
    if _has_omega(d):
        raise IllFormedDiagramError(
            "diagram contains Omega markers; call omega_expand instead"
        )
    state = Morphism.identity(spec, d.source.internal(spec))
    for k, sl in enumerate(d.slices, start=1):
        pos = 1
        try:
            for tok in sl:
                state, pos = _apply_token(spec, state, pos, tok)
        except IllFormedDiagramError as exc:
            raise IllFormedDiagramError(f"slice {k}: {exc}") from exc
        if pos != len(state.tgt) + 1:
            raise IllFormedDiagramError(
                f"slice {k}: consumed {pos - 1} strands of {len(state.tgt)}"
            )
    return state


def omega_expand(spec, d: Diagram) -> Morphism:
    """Expand Omega markers into dimension-weighted sums over the simples."""
    from .fusion import quantum_dims

    markers = set()
    for sl in d.slices:
        for tok in sl:
            if isinstance(tok, str) and "@" in tok:
                frag = tok.split("@", 1)[1]
                idx = ""
                for ch in frag:
                    if ch.isdigit():
                        idx += ch
                    else:
                        break
                markers.add(idx)
    if not markers:
        return eval_diagram(spec, d)
    markers = sorted(markers)
    omega, _ = quantum_dims(spec)
    total: Morphism | None = None
    from itertools import product

    for assign in product(spec.labels, repeat=len(markers)):
        table = dict(zip(markers, assign))
        weight = C1
        for m in markers:
            weight = weight * omega.weights[table[m]]
        sub = Diagram(
            source=BoundaryWord(
                [
                    (table[lab[1:]] if lab.startswith("@") else lab, o)
                    for lab, o in d.source.points
                ]
            ),
            slices=[
                [
                    _substitute(tok, table) if isinstance(tok, str) else tok
                    for tok in sl
                ]
                for sl in d.slices
            ],
        )
        term = eval_diagram(spec, sub).scale(weight)
        total = term if total is None else total + term
    return total


def _substitute(tok: str, table: dict) -> str:
    out = tok
    for idx, lab in table.items():
        out = out.replace(f"@{idx}", lab)
    return out


def hom_pairing(spec, f: Morphism, g: Morphism) -> Cyclotomic:
    """Nondegenerate pairing: spherical trace of g o f."""
    return right_trace(spec, g.compose(f))


def elementary_basis(spec, source: BoundaryWord, target: BoundaryWord):
    """Hom-space basis as morphisms (unit coefficient each), in ``hom_basis`` order."""
    src = source.internal(spec)
    tgt = target.internal(spec)
    return [Morphism.elementary(spec, src, tgt, key) for key in hom_keys(spec, src, tgt)]


def dual_basis(spec, x: BoundaryWord, y: BoundaryWord):
    """Paired bases (phi_i, phi^i) of Hom(x,y) and Hom(y,x), pairing delta_ij."""
    fwd = elementary_basis(spec, x, y)
    bwd = elementary_basis(spec, y, x)
    if len(fwd) != len(bwd):
        raise InternalInconsistencyError("Hom spaces of mismatched dimension")
    n = len(fwd)
    if n == 0:
        return [], []
    gram = {
        j: {i: hom_pairing(spec, phi, psi) for i, phi in enumerate(fwd)}
        for j, psi in enumerate(bwd)
    }
    try:
        ginv = invert(gram)  # {(i, j): x}
    except SingularMatrixError as exc:
        raise InternalInconsistencyError(
            f"degenerate Hom pairing between {x} and {y}: {exc}"
        ) from exc
    duals = [None] * n
    for (i, j), v in sorted(ginv.items()):
        term = bwd[j].scale(v)
        duals[i] = term if duals[i] is None else duals[i] + term
    return fwd, duals
