"""Exact references for the tests: the whole product, the centre, Hom dimensions over K,
the averaging projection onto sigma-morphisms, the composition of carrier maps, the
sigma-pair checks at every label, and the pentagon and hexagon checks.

The package applies a coupon only for a basis map, by its Hom coordinate;
``coupon`` takes any map, as the sum over its entries, and the traces
close an endomorphism through it.  The projection's coupons are general
maps, and the tests' pairings and sphericality checks are traces.

``decompose`` works mod p from the products by a generating set, and
``center_rank`` never forms a Hom space of sigma-pairs; these compute the
same quantities exactly, over the field of the structure constants, so
the tests can compare against them.

The projection averages a map over created leg pairs.  Each pair is
opened already nested around the carrier, orbit m's legs m + 1 strands
out on either side, where ``contract_by_columns`` closes it after the
coupon.  No braid word routes a leg: a word that took the created legs
to their sorted places behind the carrier would be undone, through the
coupon by naturality of the braiding, by ``center._nest_word`` before
the contraction.
``adjunction_maps.forward`` builds sigma-morphisms by contraction alone,
and the tests check its images against this projection.  The projection
closes every pair, a unit pair too, by its gamma column and a cap, so it
does not share the unit-pair shortcut of ``center._contract``.

``full_sweep`` runs every sigma-pair check at every label pair, where
``center.verify_sigma_pair`` computes the seeds and derives the rest; the
tests compare the two failure lists.

The pentagon and hexagon references apply the F and R index convention
by hand: each recoupling move is a sparse matrix {(row, col): scalar} over
labelled trees, and the two sides of an instance are products of moves.
``fusion`` checks the same instances as identities of generator words in
``trees``, and the tests compare the two reports entry by entry.

Dense exact linear algebra over Q(zeta_N), ``ExactMatrix`` and Gaussian
elimination on a copy of its grid, is the reference for the sparse
``exactnum.Echelon`` that the package runs.
"""

from itertools import product as iproduct

from genuscenter import center
from genuscenter.center import CarrierMap, SigmaPair, carrier_basis
from genuscenter.errors import GenusCenterError, IllFormedDiagramError, SingularMatrixError
from genuscenter.exactnum import C0, C1, rank
from genuscenter.fusion import CategorySpec, quantum_dims
from genuscenter.gluing import Gluing, comm_case
from genuscenter.trees import Morphism, hom_keys


class ExactMatrix:
    """Dense matrix over Cyclotomic."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[C0] * cols for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("entry grid does not match declared shape")
            self.data = [list(r) for r in data]

    @staticmethod
    def zeros(rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix(rows, cols)

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        m = ExactMatrix(n, n)
        for i in range(n):
            m.data[i][i] = C1
        return m

    def __getitem__(self, ij):
        return self.data[ij[0]][ij[1]]

    def __setitem__(self, ij, value):
        self.data[ij[0]][ij[1]] = value

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix subtraction")
        data = [[v - w for v, w in zip(a, b)] for a, b in zip(self.data, other.data)]
        return ExactMatrix(self.rows, self.cols, data)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = ExactMatrix(self.rows, other.cols)
        for i, row in enumerate(self.data):
            for k, a in enumerate(row):
                if not a.is_zero():
                    for j, b in enumerate(other.data[k]):
                        out.data[i][j] = out.data[i][j] + a * b
        return out

    def is_zero(self) -> bool:
        return all(v.is_zero() for row in self.data for v in row)


def _echelon(m: ExactMatrix):
    """Row-reduce a copy; returns (echelon data, pivot column list)."""
    data = [list(row) for row in m.data]
    pivots = []
    row = 0
    for col in range(m.cols):
        p = next((r for r in range(row, m.rows) if not data[r][col].is_zero()), None)
        if p is None:
            continue
        data[row], data[p] = data[p], data[row]
        inv = data[row][col].inverse()
        data[row] = prow = [w * inv for w in data[row]]
        for r in range(m.rows):
            if r != row and not data[r][col].is_zero():
                f = data[r][col]
                data[r] = [x - f * y for x, y in zip(data[r], prow)]
        pivots.append(col)
        row += 1
        if row == m.rows:
            break
    return data, pivots


def matrix_rank(m: ExactMatrix) -> int:
    return len(_echelon(m)[1])


def nullspace(m: ExactMatrix) -> list[list]:
    """Basis vectors v (length cols) with M v = 0, one per free column, in order."""
    data, pivots = _echelon(m)
    basis = []
    for fc in range(m.cols):
        if fc not in pivots:
            v = [C0] * m.cols
            v[fc] = C1
            for r, pc in enumerate(pivots):
                v[pc] = -data[r][fc]
            basis.append(v)
    return basis


def solve(m: ExactMatrix, rhs: list) -> list:
    """The solution of M x = rhs that is 0 at the free columns; raises if inconsistent."""
    aug = ExactMatrix(m.rows, m.cols + 1, [row + [b] for row, b in zip(m.data, rhs)])
    data, pivots = _echelon(aug)
    if m.cols in pivots:
        raise SingularMatrixError("inconsistent linear system")
    x = [C0] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = data[r][m.cols]
    return x


def inverse(m: ExactMatrix) -> ExactMatrix:
    n = m.rows
    if m.cols != n:
        raise SingularMatrixError("inverse of a non-square matrix")
    eye = ExactMatrix.identity(n).data
    data, pivots = _echelon(ExactMatrix(n, 2 * n, [r + e for r, e in zip(m.data, eye)]))
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return ExactMatrix(n, n, [row[n:] for row in data[:n]])


def r_matrix(spec, a, b, c) -> ExactMatrix:
    """R[ab;c] as a dense matrix, entry (nu, mu) at row nu and column mu."""
    n = spec.N(a, b, c)
    m = ExactMatrix(n, n)
    for (nu, mu), v in spec.r_block(a, b, c).items():
        m[nu, mu] = v
    return m


def product(alg, x: dict, y: dict) -> dict:
    """x y in the algebra ``alg``, whose table holds the products by every basis element."""
    if len(alg.gens) != alg.dim:
        raise GenusCenterError("the exact product needs the products by every basis element")
    out: dict = {}
    for a, va in x.items():
        if va.is_zero():
            continue
        for b, vb in y.items():
            if vb.is_zero():
                continue
            row = alg.mult.get((a, b))
            if not row:
                continue
            coeff = va * vb
            for c, w in row.items():
                acc = out.get(c)
                val = coeff * w
                out[c] = val if acc is None else acc + val
    return {c: v for c, v in out.items() if not v.is_zero()}


def center_basis(alg) -> list[dict]:
    """Exact basis of the center, by iterative commutant refinement."""
    basis = [{a: C1} for a in range(alg.dim)]
    for b in range(alg.dim):
        if not basis:
            break
        eb = {b: C1}
        rows = []
        for vec in basis:
            diff_ = product(alg, vec, eb)
            for c, v in product(alg, eb, vec).items():
                diff_[c] = diff_.get(c, C0) - v
            rows.append(diff_)
        coords = sorted({c for r in rows for c in r})
        if not coords:
            continue
        m = ExactMatrix(len(coords), len(basis))
        for k, r in enumerate(rows):
            for ci, c in enumerate(coords):
                if c in r:
                    m[ci, k] = r[c]
        null = nullspace(m)
        new_basis = []
        for t in null:
            vec: dict = {}
            for k, tk in enumerate(t):
                if tk.is_zero():
                    continue
                for c, v in basis[k].items():
                    vec[c] = vec.get(c, C0) + tk * v
            vec = {c: v for c, v in vec.items() if not v.is_zero()}
            if vec:
                new_basis.append(vec)
        basis = new_basis
    return basis


def coupon(state: Morphism, pos: int, f: Morphism) -> Morphism:
    """Post-compose ``1 (x) f (x) 1`` with f's source at strand ``pos``, for any map f.

    A coupon is linear in f: this is the sum over f's entries x at key of
    x times the coupon of the basis map at key (``Morphism.apply_coupon``).
    """
    new_tgt = state.tgt[: pos - 1] + f.tgt + state.tgt[pos - 1 + len(f.src) :]
    total = Morphism.zero(state.spec, state.src, new_tgt)
    for key, x in f.entries().items():
        total = total + state.apply_coupon(pos, f.src, f.tgt, key).scale(x)
    return total


def right_trace(spec, h: Morphism):
    """The closure of an endomorphism h on the right: cups, h as a coupon, primed caps."""
    if h.src != h.tgt:
        raise IllFormedDiagramError("trace needs an endomorphism")
    w = h.src
    m = len(w)
    cups = tuple(("cup", k - 1, w[k - 1], False) for k in range(1, m + 1))
    caps = tuple(("cap", k, w[k - 1], True) for k in range(m, 0, -1))
    state = Morphism.identity(spec, ()).apply_all(cups)
    return coupon(state, 1, h).apply_all(caps).scalar()


def left_trace(spec, h: Morphism):
    """The closure of an endomorphism h on the left: primed cups, h as a coupon, caps."""
    if h.src != h.tgt:
        raise IllFormedDiagramError("trace needs an endomorphism")
    w = h.src
    m = len(w)
    cups = tuple(("cup", m - k, w[k - 1], True) for k in range(m, 0, -1))
    caps = tuple(("cap", m - k + 1, w[k - 1], False) for k in range(1, m + 1))
    state = Morphism.identity(spec, ()).apply_all(cups)
    return coupon(state, m + 1, h).apply_all(caps).scalar()


def flatten_carrier_map(f: CarrierMap):
    """Coefficient vector over carrier_basis(src, tgt), in matching order."""
    out = []
    for si, sw in enumerate(f.src):
        for ti, tw in enumerate(f.tgt):
            vals = f.block(ti, si).entries()
            out.extend(vals.get(key, C0) for key in hom_keys(f.spec, sw, tw))
    return out


def hom_Z_dim(spec, sigma, px, py) -> int:
    """dim of the sigma-morphisms px -> py: the rank of the projected basis maps."""
    basis = carrier_basis(spec, px.words, py.words)
    if not basis:
        return 0
    rows = [flatten_carrier_map(p) for p in project_morphisms(spec, sigma, px, py, basis)]
    return matrix_rank(ExactMatrix(len(rows), len(rows[0]), rows))


def _create(spec, sigma: Gluing, pair: SigmaPair, s0: int, mor0: Morphism, need):
    """Create all leg pairs around the carrier, nested, weaving through the pair.

    Orbit m, from n - 1 in, opens as a cup at gap n - m - 1 followed by
    the gamma column at strand n - m + 1, which carries the cup's right
    leg through the carrier; its legs end m + 1 strands out on either
    side of the carrier, as ``contract_by_columns`` reads them.

    ``mor0``: Morphism(src -> word_{s0}).  Returns a dict
    {(alpha, s2): Morphism(src -> legs + word_{s2} + legs)} over the
    summands s2 in ``need``.  ``reach[m + 1]`` holds the summands from
    which orbits m, ..., 0 can still lead into ``need``; a branch outside
    it is dropped before its cup is applied.
    """
    n = sigma.n
    reach = [set(need)]
    for hb in pair.braidings:
        reach.append({
            s for s in range(len(pair.words))
            if any(s2 in reach[-1] for z in spec.labels for s2, _ in hb[z, s])
        })
    current = {((), s0): mor0} if s0 in reach[n] else {}
    for m in range(n - 1, -1, -1):
        nxt: dict = {}
        for (alpha_tail, s), mor in current.items():
            for a in spec.labels:
                cols = pair.braidings[m][spec.dual[a], s]
                cols = [(s2, col) for s2, col in cols if s2 in reach[m]]
                if not cols:
                    continue
                st = mor.apply_all((("cup", n - m - 1, a, False),))
                for s2, col in cols:
                    st2 = col.apply_at(st, n - m + 1)
                    key = ((a,) + alpha_tail, s2)
                    nxt[key] = nxt[key] + st2 if key in nxt else st2
        current = nxt
    return current


def contract_by_columns(pair: SigmaPair, alpha, s: int, state: Morphism) -> dict:
    """Contract the nested leg pairs of the alpha summand, each by a gamma column and a cap.

    ``state``: Morphism(src -> legs + word_s + legs), orbit m's low leg at
    strand n - m and its high leg m + 1 strands right of word_s.  Orbit m,
    from 0 out, is its gamma column at strand n - m followed by the primed
    cap, whatever its handle label.  Returns {s2: Morphism(src -> word_s2)}.
    """
    n = len(alpha)
    current = {s: state}
    for m, (a, hb) in enumerate(zip(alpha, pair.braidings)):
        a_pos = n - m
        nxt: dict = {}
        for si, mor in current.items():
            for s2, col in hb.get((a, si), ()):
                st2 = col.apply_at(mor, a_pos, (("cap", a_pos + len(pair.words[s2]), a, True),))
                nxt[s2] = nxt[s2] + st2 if s2 in nxt else st2
        current = nxt
    return current


def project_morphisms(spec, sigma: Gluing, px: SigmaPair, py: SigmaPair, fs) -> list:
    """The averaging projection onto sigma-morphisms of each map in fs.

    The leg pairs are created once per source summand of px for the whole
    batch, and only toward the summands that some map of the batch reads.
    The contraction of created entry alpha carries the weight
    prod_m d(alpha_m) / dim(C), with dim(C) = sum_a d(a)^2.
    """
    if any(f.src != px.words or f.tgt != py.words for f in fs):
        raise GenusCenterError("morphism shape does not match the pair carriers")
    dims, _ = quantum_dims(spec)
    inv_total = sum((d * d for d in dims.values()), C0).inverse()
    need = {sx for f in fs for (_ty, sx) in f.blocks}
    outs: list = [{} for _ in fs]
    mid_pos = sigma.n + 1
    for sx0, w in enumerate(px.words):
        created = _create(spec, sigma, px, sx0, Morphism.identity(spec, tuple(w)), need)
        for (alpha, sx), mor in created.items():
            weight = C1
            for a in alpha:
                weight = weight * dims[a] * inv_total
            for f, out_blocks in zip(fs, outs):
                for (ty, sx2), fb in f.blocks.items():
                    if sx2 != sx:
                        continue
                    st = coupon(mor, mid_pos, fb)
                    for ty2, m2 in contract_by_columns(py, alpha, ty, st).items():
                        m2 = m2.scale(weight)
                        key = (ty2, sx0)
                        out_blocks[key] = out_blocks[key] + m2 if key in out_blocks else m2
    return [CarrierMap(spec, px.words, py.words, ob) for ob in outs]


def compose(later: CarrierMap, earlier: CarrierMap) -> CarrierMap:
    """later o earlier (earlier acts first), through the middle summands."""
    if earlier.tgt != later.src:
        raise IllFormedDiagramError("cannot compose carrier maps: middle words differ")
    blocks: dict = {}
    for (ti, ki), left in later.blocks.items():
        for (kj, si), right in earlier.blocks.items():
            if ki == kj:
                new = left.compose(right)
                blocks[ti, si] = blocks[ti, si] + new if (ti, si) in blocks else new
    return CarrierMap(later.spec, earlier.src, later.tgt, blocks)


def full_sweep(spec, sigma: Gluing, pair: SigmaPair) -> list[str]:
    """The failure list of ``center.verify_sigma_pair``, with every check run at every label.

    Invertibility at every z, multiplicativity at every (z1, z2) and :comm
    at every (z1, z2), each computed, in the order and with the messages
    of ``verify_sigma_pair``, which derives the checks that its docstring's
    proofs imply.  The two lists must be equal on every pair.
    """
    if len(pair.braidings) != sigma.n:
        return [f"expected {sigma.n} half-braidings"]
    bad: list = []
    ident = {z: center._carrier_id_with(spec, pair, (z,)) for z in spec.labels}
    gamma = {
        (m, z): center._apply_gamma(ident[z], pair, m, 1, z)
        for m in range(sigma.n) for z in spec.labels
    }
    wlen = len(pair.words[0])
    moved = ident[spec.unit].apply_all((("unit_remove", 1), ("unit_insert", wlen)))
    if any(gamma[m, spec.unit] != moved for m in range(sigma.n)):
        bad.append("gamma at the unit is not the identity")
    for m in range(sigma.n):
        for z in spec.labels:
            for c, (nrows, ncols, rows) in center._hb_rows(gamma[m, z]).items():
                if nrows != ncols or rank(rows.values(), spec.field) != nrows:
                    bad.append(f"gamma_[{m}] at {z} is not invertible (charge {c})")
                    break
    for m in range(sigma.n):
        for z1, z2 in iproduct(spec.labels, repeat=2):
            for w in spec.channels(z1, z2):
                for mu in range(spec.N(z1, z2, w)):
                    split = ident[w].apply_all((("split", 1, z1, z2, mu),))
                    lhs = center._apply_gamma(center._apply_gamma(split, pair, m, 2, z2),
                                              pair, m, 1, z1)
                    rhs = gamma[m, w].apply_all((("split", wlen + 1, z1, z2, mu),))
                    if lhs != rhs:
                        bad.append(f"gamma_[{m}] multiplicativity fails at ({z1},{z2};{w},{mu})")
    pairs = sigma.pairs()
    for i in range(sigma.n):
        for j in range(i + 1, sigma.n):
            case = comm_case(pairs[i], pairs[j])
            for z1, z2 in iproduct(spec.labels, repeat=2):
                if not center._comm_ok(spec, pair, i, j, case, z1, z2):
                    bad.append(f"comm case {case} fails for orbits ({i},{j}) at ({z1},{z2})")
    return bad


def _compose_sparse(later: dict, earlier: dict) -> dict:
    """Compose sparse {(row, col): scalar} maps: (later o earlier)."""
    by_row: dict = {}
    for (r, c), v in later.items():
        by_row.setdefault(c, []).append((r, v))
    out: dict = {}
    for (mid, col), v in earlier.items():
        for r, w in by_row.get(mid, ()):
            key = (r, col)
            acc = out.get(key)
            out[key] = w * v if acc is None else acc + w * v
    return {k: v for k, v in out.items() if not v.is_zero()}


def check_pentagon(spec: CategorySpec) -> list[str]:
    """Every pentagon instance, by hand-built moves; an empty list means pass.

    Both recoupling paths from (((ab)c)d -> e) to (a(b(cd)) -> e) are
    assembled as sparse matrices over labeled-tree bases and compared.
    """
    bad: list[str] = []
    L = spec.labels
    for a in L:
        for b in L:
            for c in L:
                for d in L:
                    for e in L:
                        if not _pentagon_instance(spec, a, b, c, d, e):
                            bad.append(f"pentagon fails at ({a},{b},{c},{d};{e})")
    return bad


def _pentagon_instance(spec, a, b, c, d, e) -> bool:
    # Basis T1: (x,alpha,beta,gamma) with vertices (ab->x), (xc->y), (yd->e).
    # Path A: T1 -> T2 -> T3 -> T4; Path B: T1 -> T5 -> T4.
    move1: dict = {}
    for x in spec.channels(a, b):
        for y in spec.channels(x, c):
            if spec.N(y, d, e) == 0:
                continue
            _, _, blk = spec.f_block(a, b, c, y)
            for ((xx, al, be), (p, mu, nu)), v in blk.items():
                if xx != x:
                    continue
                for ga in range(spec.N(y, d, e)):
                    move1_key = ((p, mu, y, nu, ga), (x, al, y, be, ga))
                    move1[move1_key] = move1.get(move1_key, C0) + v

    move2: dict = {}
    for p in spec.labels:
        for q in spec.channels(a, p):
            if spec.N(q, d, e) == 0:
                continue
            _, _, blk = spec.f_block(a, p, d, e)
            for ((qq, nu, ga), (r, rho, tau)), v in blk.items():
                if qq != q:
                    continue
                for mu in range(spec.N(b, c, p)):
                    key = ((p, mu, r, rho, tau), (p, mu, q, nu, ga))
                    move2[key] = move2.get(key, C0) + v

    move3: dict = {}
    for r in spec.labels:
        if spec.N(a, r, e) == 0:
            continue
        _, _, blk = spec.f_block(b, c, d, r)
        for ((p, mu, rho), (s, sg, ka)), v in blk.items():
            for tau in range(spec.N(a, r, e)):
                key = ((s, sg, r, ka, tau), (p, mu, r, rho, tau))
                move3[key] = move3.get(key, C0) + v

    move4: dict = {}
    for x in spec.channels(a, b):
        _, _, blk = spec.f_block(x, c, d, e)
        for ((y, be, ga), (s, sg, de)), v in blk.items():
            for al in range(spec.N(a, b, x)):
                key = ((x, al, s, sg, de), (x, al, y, be, ga))
                move4[key] = move4.get(key, C0) + v

    move5: dict = {}
    for s in spec.labels:
        _, _, blk = spec.f_block(a, b, s, e)
        for ((x, al, de), (t, ka, tau)), v in blk.items():
            for sg in range(spec.N(c, d, s)):
                key = ((s, sg, t, ka, tau), (x, al, s, sg, de))
                move5[key] = move5.get(key, C0) + v

    path_a = _compose_sparse(move3, _compose_sparse(move2, move1))
    path_b = _compose_sparse(move5, move4)
    keys = set(path_a) | set(path_b)
    return all((path_a.get(k, C0) - path_b.get(k, C0)).is_zero() for k in keys)


def check_hexagon(spec: CategorySpec) -> list[str]:
    """Both hexagon families (for c and its reverse), by hand-built moves.

    On the a(bc) basis: braiding a past the fused pair against
    F^-1, braid (a, b), F, braid (a, c), F^-1.
    """
    spec.require_braiding()
    bad: list[str] = []
    L = spec.labels
    for a in L:
        for b in L:
            for c in L:
                for d in L:
                    if not _hexagon_instance(spec, a, b, c, d, inverse=False):
                        bad.append(f"hexagon(c) fails at ({a};{b},{c};{d})")
                    if not _hexagon_instance(spec, a, b, c, d, inverse=True):
                        bad.append(f"hexagon(c^-1) fails at ({a};{b},{c};{d})")
    return bad


def _r_entries(spec, a, b, c, inverse):
    """R or reverse-braiding entries as {(nu, mu): value} for channel c."""
    return spec.r_inverse(b, a, c) if inverse else spec.r_block(a, b, c)


def _hexagon_instance(spec, a, b, c, d, inverse) -> bool:
    # LHS: braid a across the fused pair (bc): diagonal R on the a(bc) basis.
    lhs: dict = {}
    for p in spec.channels(b, c):
        ent = _r_entries(spec, a, p, d, inverse)
        for (nu2, nu), v in ent.items():
            for mu in range(spec.N(b, c, p)):
                lhs[((p, mu, nu2), (p, mu, nu))] = v

    # RHS: F^{-1}, braid (a,b), F, braid (a,c), F^{-1}.
    m1: dict = {}
    _, _, blk = spec.f_inverse(a, b, c, d)
    for ((f, mu, nu), (e, al, be)), v in blk.items():
        m1[((e, al, be), (f, mu, nu))] = v

    m2: dict = {}
    for e in spec.channels(a, b):
        ent = _r_entries(spec, a, b, e, inverse)
        for (al2, al), v in ent.items():
            for be in range(spec.N(e, c, d)):
                m2[((e, al2, be), (e, al, be))] = v

    m3: dict = {}
    for key_pair, v in spec.f_block(b, a, c, d)[2].items():
        (e, al, be), (g, rho, tau) = key_pair
        m3[((g, rho, tau), (e, al, be))] = v

    m4: dict = {}
    for g in spec.channels(a, c):
        ent = _r_entries(spec, a, c, g, inverse)
        for (rho2, rho), v in ent.items():
            for tau in range(spec.N(b, g, d)):
                m4[((g, rho2, tau), (g, rho, tau))] = v

    m5: dict = {}
    _, _, blk = spec.f_inverse(b, c, a, d)
    for (ck, rk), v in blk.items():
        # ck is the b(ca)-shape key, rk the (bc)a-shape key.
        m5[(rk, ck)] = v

    rhs = _compose_sparse(m5, _compose_sparse(m4, _compose_sparse(m3, _compose_sparse(m2, m1))))
    keys = set(lhs) | set(rhs)
    return all((lhs.get(k, C0) - rhs.get(k, C0)).is_zero() for k in keys)
