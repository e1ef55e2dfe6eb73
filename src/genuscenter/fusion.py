"""Skeletal premodular category data and exact axiom validators.

A ``CategorySpec`` holds labels, fusion multiplicities N_{ab}^c, F and R
recoupling data, and pivotal coefficients, all in one cyclotomic field.
The F convention, on splitting trees read top-down, is

    (v[e->ab]_alpha (x) 1_c) o v[d->ec]_beta
      = sum_{f,mu,nu} F[abc;d][(e,alpha,beta),(f,mu,nu)]
                      (1_a (x) v[f->bc]_mu) o v[d->af]_nu

and the R convention is  c_{a,b} o v[c->ab]_mu = sum_nu R[ab;c][nu,mu] v[c->ba]_nu.
Unit-leg F and R blocks are the identity (strict-unit gauge); catalogs
store only the non-unit blocks.

Only ``trees`` reads these index conventions: this module stores and
serves the blocks, and the pentagon and hexagon checks are identities
between generator words of that engine, so an axiom is checked through the
same code that computes with it.  F and R are inverted and ranked over
the spec's field object, ``CategorySpec.field``.
"""

from __future__ import annotations

import math
from itertools import product

from .errors import IncompleteDataError, PremodularRequiredError, SingularMatrixError
from .exactnum import C0, CYCLOTOMIC, Cyclotomic, invert, rank, rows_of
from .trees import Morphism, cached, hopf_link_value, loop_value, theta

__all__ = [
    "CategorySpec",
    "validate_structure",
    "check_pentagon",
    "check_hexagon",
    "quantum_dims",
    "check_spherical_ribbon",
    "s_matrix_and_transparency",
]


class CategorySpec:
    """Skeletal premodular (or spherical-fusion-only when R is None) data.

    A spec holds its scalars in Q(zeta_N), N = ``field_order()``: on
    construction every F, R and pivotal scalar that is not of order 1 is
    lifted to order N, so what the engine derives from them is rational
    or of order N, and no product or sum has to find a common field.  The
    engine combines them through ``field``, a class attribute a spec mod p will override.

    Frozen: ``_cache`` holds the tables derived from F, R and the pivotal
    data that the ``trees`` docstring lists, so those fields never change
    after construction; only ``trees.cached`` fills it, and each spec has its own.
    """

    field = CYCLOTOMIC
    # Specs hold dicts, so they are not hashable.
    __hash__ = None

    def __init__(
        self,
        name: str,
        labels: tuple[str, ...],
        unit: str,
        dual: dict[str, str],
        fusion: dict[tuple[str, str, str], int],
        F: dict[tuple[str, str, str, str], dict],
        R: dict[tuple[str, str, str], dict] | None,
        pivotal: dict[str, Cyclotomic],
        provenance: str = "",
    ):
        fields = vars(self)
        fields.update(name=name, labels=labels, unit=unit, dual=dual, fusion=fusion,
                      F=F, R=R, pivotal=pivotal, provenance=provenance, _cache={})
        n = self.field_order()

        def lifted(block):
            return {k: v if v.order == 1 else v.lift(n) for k, v in block.items()}

        fields["F"] = {key: lifted(b) for key, b in F.items()}
        if R is not None:
            fields["R"] = {key: lifted(b) for key, b in R.items()}
        fields["pivotal"] = lifted(pivotal)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot set or delete {name!r} of a frozen CategorySpec")

    __delattr__ = __setattr__

    # -- fusion combinatorics -----------------------------------------

    def N(self, a: str, b: str, c: str) -> int:
        return self.fusion.get((a, b, c), 0)

    def channels(self, a: str, b: str):
        """Labels c with N_{ab}^c > 0, in catalog label order."""
        return [c for c in self.labels if self.N(a, b, c) > 0]

    def require_braiding(self):
        if self.R is None:
            raise PremodularRequiredError(
                f"category {self.name!r} has no braiding data; "
                "a premodular spec is required"
            )

    # -- F / R block access ---------------------------------------------

    def f_rows(self, a, b, c, d):
        """Row keys (e, alpha, beta) of the F block for (a,b,c;d)."""
        keys = []
        for e in self.labels:
            n1, n2 = self.N(a, b, e), self.N(e, c, d)
            for alpha in range(n1):
                for beta in range(n2):
                    keys.append((e, alpha, beta))
        return keys

    def f_cols(self, a, b, c, d):
        """Column keys (f, mu, nu) of the F block for (a,b,c;d)."""
        keys = []
        for f in self.labels:
            n1, n2 = self.N(b, c, f), self.N(a, f, d)
            for mu in range(n1):
                for nu in range(n2):
                    keys.append((f, mu, nu))
        return keys

    @cached
    def f_block(self, a, b, c, d):
        """The F block as {(row_key, col_key): Cyclotomic}; identity on unit legs."""
        rows = self.f_rows(a, b, c, d)
        cols = self.f_cols(a, b, c, d)
        if self.unit in (a, b, c):
            # Strict-unit gauge: rows and columns both enumerate the vertex
            # space of the two other legs, in the same order.
            block = {key: self.field.one for key in zip(rows, cols)}
        else:
            block = self.F.get((a, b, c, d))
            if block is None:
                if rows:
                    raise IncompleteDataError(
                        f"{self.name}: missing F entry for admissible channel "
                        f"({a},{b},{c};{d})"
                    )
                block = {}
        return rows, cols, block

    def f_inverse(self, a, b, c, d):
        """Inverse block as {(col_key, row_key): Cyclotomic}."""
        rows, cols, block = self.f_block(a, b, c, d)
        if len(rows) != len(cols):
            raise IncompleteDataError(
                f"{self.name}: F block ({a},{b},{c};{d}) is not square "
                f"({len(rows)}x{len(cols)}); fusion rules are inconsistent"
            )
        try:
            return cols, rows, invert(rows_of(block, rows), self.field)
        except SingularMatrixError:
            raise SingularMatrixError(
                f"{self.name}: F block ({a},{b},{c};{d}) is singular"
            ) from None

    def r_block(self, a, b, c):
        """{(nu, mu): Cyclotomic} for c_{a,b} on channel c; identity on unit legs."""
        self.require_braiding()
        n = self.N(a, b, c)
        if a == self.unit or b == self.unit:
            return {(i, i): self.field.one for i in range(n)}
        block = self.R.get((a, b, c))
        if block is None:
            if n:
                raise IncompleteDataError(
                    f"{self.name}: missing R entry for admissible channel ({a},{b};{c})"
                )
            return {}
        return block

    @cached
    def r_inverse(self, a, b, c):
        """c_{a,b}^-1 on channel c, the inverse of ``r_block``, as {(nu, mu): Cyclotomic}."""
        return invert(rows_of(self.r_block(a, b, c), range(self.N(a, b, c))), self.field)

    def pivotal_coeff(self, a: str) -> Cyclotomic:
        return self.pivotal.get(a, self.field.one)

    def field_order(self) -> int:
        """lcm of the orders of every stored scalar."""
        blocks = [*self.F.values(), *(self.R or {}).values(), self.pivotal]
        return math.lcm(*(v.order for block in blocks for v in block.values()))


def validate_structure(spec: CategorySpec) -> list[str]:
    """Unit, dual, and fusion-consistency invariants; label hygiene.

    Like every check here, returns its failures; an empty list means pass.
    """
    bad: list[str] = []
    labels = set(spec.labels)
    if len(labels) != len(spec.labels):
        return ["duplicate labels"]
    if spec.unit not in labels:
        return [f"unknown unit label {spec.unit!r}"]

    for a, b in spec.dual.items():
        if a not in labels or b not in labels:
            bad.append(f"dual table references unknown label in {a!r} -> {b!r}")
    for a in spec.labels:
        da = spec.dual.get(a)
        if da is None:
            bad.append(f"dual missing for label {a!r}")
        elif spec.dual.get(da) != a:
            bad.append(f"dual is not involutive at {a!r}")

    for (a, b, c), n in spec.fusion.items():
        if n < 0:
            bad.append(f"negative multiplicity N({a},{b};{c})")
        for x in (a, b, c):
            if x not in labels:
                bad.append(f"fusion table references unknown label {x!r}")

    unit = spec.unit
    for a in spec.labels:
        for b in spec.labels:
            if spec.N(unit, a, b) != (1 if a == b else 0):
                bad.append(f"unit rule fails: N({unit},{a};{b}) = {spec.N(unit, a, b)}")
            # At a = unit the right rule reads the left rule's entry.
            if a != unit and spec.N(a, unit, b) != (1 if a == b else 0):
                bad.append(f"unit rule fails: N({a},{unit};{b}) = {spec.N(a, unit, b)}")
            want = 1 if spec.dual.get(a) == b else 0
            if spec.N(a, b, unit) != want:
                bad.append(f"dual rule fails: N({a},{b};{unit}) = {spec.N(a, b, unit)}")

    # Associativity of multiplicities: F blocks must be square.
    for a in spec.labels:
        for b in spec.labels:
            for c in spec.labels:
                for d in spec.labels:
                    lhs = sum(spec.N(a, b, e) * spec.N(e, c, d) for e in spec.labels)
                    rhs = sum(spec.N(b, c, f) * spec.N(a, f, d) for f in spec.labels)
                    if lhs != rhs:
                        bad.append(
                            f"fusion not associative at ({a},{b},{c};{d}): {lhs} != {rhs}"
                        )

    if spec.pivotal_coeff(unit) != spec.field.one:
        bad.append("pivotal coefficient of the unit must be 1")
    for a, v in spec.pivotal.items():
        if a not in labels:
            bad.append(f"pivotal table references unknown label {a!r}")
        if v.is_zero():
            bad.append(f"pivotal coefficient of {a!r} is zero")

    # Every multiplicity index of an entry with known labels lies in [0, N) for its vertex.
    for (a, b, c, d), block in spec.F.items():
        unknown = [x for x in (a, b, c, d) if x not in labels]
        bad.extend(f"F table references unknown label {x!r}" for x in unknown)
        for (e, al, be), (f, mu, nu) in () if unknown else block:
            ns = (spec.N(a, b, e), spec.N(e, c, d), spec.N(b, c, f), spec.N(a, f, d))
            if not all(0 <= i < n for i, n in zip((al, be, mu, nu), ns)):
                bad.append(f"F entry ({a},{b},{c};{d}) has a multiplicity index out of range")
                break
    for (a, b, c), block in (spec.R or {}).items():
        unknown = [x for x in (a, b, c) if x not in labels]
        bad.extend(f"R table references unknown label {x!r}" for x in unknown)
        if not unknown and any(not (0 <= i < spec.N(a, b, c)) for key in block for i in key):
            bad.append(f"R entry ({a},{b};{c}) has a multiplicity index out of range")

    if not bad:
        # Invertible F blocks (square, by the checks above), and R at every admissible channel.
        try:
            for a, b, c, d in product(spec.labels, repeat=4):
                rows, _cols, block = spec.f_block(a, b, c, d)
                if spec.F.get((a, b, c, d), block) != block:  # only a unit-leg block differs
                    bad.append(f"F block ({a},{b},{c};{d}) is on a unit leg but not the identity")
                if rank(rows_of(block, rows).values(), spec.field) != len(rows):
                    bad.append(f"F block ({a},{b},{c};{d}) is singular")
            if spec.R is not None:
                for a, b, c in product(spec.labels, repeat=3):
                    block = spec.r_block(a, b, c)
                    if spec.R.get((a, b, c), block) != block:
                        bad.append(f"R block ({a},{b};{c}) is on a unit leg but not the identity")
        except IncompleteDataError as exc:
            bad.append(str(exc))
    return bad


def _differing_charges(f: Morphism, g: Morphism) -> set:
    """The charges at which the blocks of f and g differ."""
    return set((f + g.scale(-f.spec.field.one)).blocks)


def check_pentagon(spec: CategorySpec) -> list[str]:
    """Exactly evaluate every pentagon instance.

    On the strands (a, b, c, d), merging c d to x along rho and then b x to
    y along sigma must equal the F[bcd;y] combination of the (bc)d merges:

        merge(3, x, rho) merge(2, y, sigma)
          = sum_{p,mu,nu} F[bcd;y][(p,mu,nu),(x,rho,sigma)] merge(2, p, mu) merge(2, y, nu)

    The engine expands the left side through F[(ab)cd] and F[ab(cd)], the
    right through F[abc] and F[a(bc)d]: the two pentagon paths from
    ((ab)c)d to a(b(cd)), read at the target vertices (x, rho, y, sigma).
    The charge-e block of each side holds exactly the entries of the
    instance at total charge e, and the columns (x, rho, sigma) of every
    F[bcd;y] reach every target vertex, so the blocks at e agree for all
    of them exactly when the instance at (a, b, c, d; e) holds.
    """
    bad: list[str] = []
    L = spec.labels
    for a, b, c, d in product(L, repeat=4):
        one = Morphism.identity(spec, (a, b, c, d))
        differ: set = set()
        for y in L:
            _, cols, blk = spec.f_block(b, c, d, y)
            right = {ck: Morphism.zero(spec, one.src, (a, y)) for ck in cols}
            for ((p, mu, nu), ck), v in blk.items():
                merged = one.apply_all((("merge", 2, p, mu), ("merge", 2, y, nu)))
                right[ck] = right[ck] + merged.scale(v)
            for (x, rho, sigma), rhs in right.items():
                lhs = one.apply_all((("merge", 3, x, rho), ("merge", 2, y, sigma)))
                differ |= _differing_charges(lhs, rhs)
        bad.extend(f"pentagon fails at ({a},{b},{c},{d};{e})" for e in L if e in differ)
    return bad


def check_hexagon(spec: CategorySpec) -> list[str]:
    """Both hexagon families (for c and its reverse), exactly.

    On the strands (a, b, c), braiding a past b and then past c must equal
    braiding a past the fused pair:

        braid(1, s) braid(2, s)
          = sum_{p,mu} merge(2, p, mu) braid(1, s) split(1, b, c, mu)

    with s = "over" for c_{a,b(x)c} and s = "under" for its reverse
    c^-1_{b(x)c,a}.  The right side is the braiding of a with b (x) c, as the
    merges and splits sum to the identity of b (x) c.  Read on the ((ab)c)
    basis at total charge d, the left side is F^-1[bca] R F[bac] R and the
    right side R F[abc]; the hexagon at (a; b, c; d) differs from this
    equation only by the invertible F[abc;d] on the right, so it holds
    exactly when the charge-d blocks agree.
    """
    spec.require_braiding()
    bad: list[str] = []
    L = spec.labels
    for a, b, c in product(L, repeat=3):
        one = Morphism.identity(spec, (a, b, c))
        differ = {}
        for sense in ("over", "under"):
            lhs = one.apply_all((("braid", 1, sense), ("braid", 2, sense)))
            rhs = Morphism.zero(spec, one.src, (b, c, a))
            for p in spec.channels(b, c):
                for mu in range(spec.N(b, c, p)):
                    word = (("merge", 2, p, mu), ("braid", 1, sense), ("split", 1, b, c, mu))
                    rhs = rhs + one.apply_all(word)
            differ[sense] = _differing_charges(lhs, rhs)
        for d in L:
            if d in differ["over"]:
                bad.append(f"hexagon(c) fails at ({a};{b},{c};{d})")
            if d in differ["under"]:
                bad.append(f"hexagon(c^-1) fails at ({a};{b},{c};{d})")
    return bad


def quantum_dims(spec: CategorySpec):
    """(dims, twists): loop-evaluated dimensions and curl-evaluated twists by label.

    twists is empty when R is None.  The loop and curl are evaluated by
    ``trees``; the ribbon-sum formula for twists is kept in the test suite
    as an independent check.
    """
    dims = {a: loop_value(spec, a, "right") for a in spec.labels}
    twists = {a: theta(spec, a) for a in spec.labels} if spec.R is not None else {}
    return dims, twists


def check_spherical_ribbon(spec: CategorySpec) -> list[str]:
    """dim(a) = dim(a*) in both trace orders, nonzero, and a fusion character:
    dim(a) dim(b) = sum_c N_ab^c dim(c); theta(a) = theta(a*)."""
    bad: list[str] = []
    dim, twists = quantum_dims(spec)
    for a in spec.labels:
        left = loop_value(spec, a, "left")
        if dim[a] != left:
            bad.append(f"left and right traces differ on {a!r}")
        if dim[a] != dim[spec.dual[a]]:
            bad.append(f"dim({a}) != dim(dual {a})")
        if dim[a].is_zero():
            bad.append(f"dim({a}) is zero")
    if spec.R is not None:
        for a in spec.labels:
            if twists[a] != twists[spec.dual[a]]:
                bad.append(f"twist({a}) != twist(dual {a})")
        if twists[spec.unit] != spec.field.one:
            bad.append("twist of the unit is not 1")
    if dim[spec.unit] != spec.field.one:
        bad.append("dim of the unit is not 1")
    for a, b in product(spec.labels, repeat=2):
        if dim[a] * dim[b] != sum((spec.N(a, b, c) * dim[c] for c in spec.labels), C0):
            bad.append(f"dim({a}) dim({b}) != sum of N({a},{b};c) dim(c)")
    return bad


def s_matrix_and_transparency(spec: CategorySpec):
    """Unnormalized S-matrix, transparent labels, and the modular flag."""
    spec.require_braiding()
    dim, _ = quantum_dims(spec)
    n = len(spec.labels)
    s = {
        (i, j): hopf_link_value(spec, a, b)
        for i, a in enumerate(spec.labels)
        for j, b in enumerate(spec.labels)
    }
    transparent = set()
    for j, b in enumerate(spec.labels):
        if all(
            s[i, j] == dim[a] * dim[b]
            for i, a in enumerate(spec.labels)
        ):
            transparent.add(b)
    modular = rank(rows_of(s, range(n)).values(), spec.field) == n
    return s, transparent, modular
