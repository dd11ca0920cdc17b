"""Chevalley-Eilenberg calculus and the Cech layer on top of it.

Two levels live here.  The finite-dimensional level: Lie algebras by
structure constants, modules by action matrices, the alternating cochain
differential, and the obstruction class of a perturbed subalgebra inclusion.
The cover level: abstract Cech data whose simplices carry finite rows of a
cochain complex, with restriction maps between simplices, a total complex
mixing both differentials, and the four compatibility equations an
obstruction triple has to satisfy.

Cover-level matrices and flat cochains share one layout: a list of
bidegrees (p, q) is laid out bidegree by bidegree in the order given, and
within a bidegree simplex by simplex in nerve order, each simplex taking
its row-q coordinates.  Total degree n uses total_components(n), which is
ordered by q.

Everything is exact over Q.  Covers stop at triple overlaps; fourfold
intersections are taken to be empty, so Cech degree 3 is the zero space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg


def _freeze_mat(rows):
    return tuple(tuple(linalg.frac(x) for x in row) for row in rows)


def _freeze_vec(row):
    return tuple(linalg.frac(x) for x in row)


def _mul(a, b, rows, cols):
    """mat_mul with the output shape pinned; empty factors give zeros."""
    out = linalg.mat_mul(a, b)
    if len(out) == rows and (rows == 0 or len(out[0]) == cols):
        return out
    return linalg.zeros(rows, cols)


def _insert_sorted(value, rest):
    """Prepend value to the sorted tuple rest and resort.

    Returns (sorted tuple, sign of the permutation); duplicates give sign 0.
    """
    if value in rest:
        return None, 0
    before = sum(1 for x in rest if x < value)
    merged = tuple(sorted(rest + (value,)))
    return merged, (-1) ** before


# --- finite-dimensional Lie algebras and modules ---


@dataclass(frozen=True)
class LieAlgebra:
    """Lie algebra over Q given by structure constants.

    structure[i][j] holds the coordinates of the bracket of the i-th and
    j-th basis vectors.  Antisymmetry and the Jacobi identity are checked
    on construction.
    """

    structure: tuple

    def __post_init__(self):
        st = tuple(tuple(_freeze_vec(v) for v in row) for row in self.structure)
        object.__setattr__(self, "structure", st)
        n = len(st)
        if any(len(row) != n or any(len(v) != n for v in row) for row in st):
            raise ValueError("structure constants must form an n x n table of n-vectors")
        for i in range(n):
            for j in range(n):
                if any(st[i][j][k] + st[j][i][k] != 0 for k in range(n)):
                    raise ValueError("structure constants are not antisymmetric")
        # Jacobi in the cyclic form [[j,k],i] + [[k,i],j] + [[i,j],k] = 0
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    s = self.bracket(list(st[j][k]), self._basis(i))
                    s = linalg.vec_add(s, self.bracket(list(st[k][i]), self._basis(j)))
                    s = linalg.vec_add(s, self.bracket(list(st[i][j]), self._basis(k)))
                    if not linalg.is_zero_vec(s):
                        raise ValueError("structure constants violate the Jacobi identity")

    @property
    def dim(self):
        return len(self.structure)

    def _basis(self, i):
        v = [Fraction(0)] * self.dim
        v[i] = Fraction(1)
        return v

    def bracket(self, x, y):
        out = [Fraction(0)] * self.dim
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                c = xi * yj
                for k, s in enumerate(self.structure[i][j]):
                    if s:
                        out[k] += c * s
        return out

    def adjoint_matrix(self, x):
        """Matrix of bracketing with x on the left."""
        cols = [self.bracket(x, self._basis(j)) for j in range(self.dim)]
        return linalg.transpose(cols)


def abelian_algebra(n):
    zero = tuple(Fraction(0) for _ in range(n))
    return LieAlgebra(tuple(tuple(zero for _ in range(n)) for _ in range(n)))


@dataclass(frozen=True)
class LieModuleData:
    """A module over a finite-dimensional Lie algebra.

    action[i] is the matrix by which the i-th basis vector acts.  The
    commutator condition rho([x, y]) = rho(x) rho(y) - rho(y) rho(x) is
    checked on construction.
    """

    algebra: LieAlgebra
    action: tuple

    def __post_init__(self):
        act = tuple(_freeze_mat(a) for a in self.action)
        object.__setattr__(self, "action", act)
        n = self.algebra.dim
        if len(act) != n:
            raise ValueError("need one action matrix per basis vector")
        m = self.dim
        for a in act:
            if len(a) != m or any(len(row) != m for row in a):
                raise ValueError("action matrices must be square of a common size")
        for i in range(n):
            for j in range(n):
                lhs = self.act_by(list(self.algebra.structure[i][j]))
                comm = linalg.mat_mul(act[i], act[j])
                comm2 = linalg.mat_mul(act[j], act[i])
                rhs = [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(comm, comm2)]
                if m and not all(
                    lhs[r][c] == rhs[r][c] for r in range(m) for c in range(m)
                ):
                    raise ValueError("action does not respect the bracket")

    @property
    def dim(self):
        return len(self.action[0]) if self.action else 0

    def act_by(self, x):
        m = self.dim
        out = linalg.zeros(m, m)
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            a = self.action[i]
            for r in range(m):
                for c in range(m):
                    if a[r][c]:
                        out[r][c] += xi * a[r][c]
        return out


def adjoint_module(algebra: LieAlgebra) -> LieModuleData:
    return LieModuleData(
        algebra,
        tuple(algebra.adjoint_matrix(algebra._basis(i)) for i in range(algebra.dim)),
    )


def ce_basis(n, k):
    """Ordered k-subsets of range(n) indexing the degree-k cochain spaces."""
    return list(itertools.combinations(range(n), k))


def ce_differential(module: LieModuleData, k):
    """Matrix of the cochain differential from degree k to degree k + 1.

    Cochains are alternating maps on tuples of basis vectors with values in
    the module; coordinates are ordered by lexicographic k-subset, then
    module coordinate.  On a (k+1)-tuple the value is the alternating sum of
    module actions on omit-one evaluations plus the alternating sum of
    evaluations at pairwise brackets.
    """
    n = module.algebra.dim
    m = module.dim
    src = ce_basis(n, k)
    dst = ce_basis(n, k + 1)
    src_index = {t: a for a, t in enumerate(src)}
    out = linalg.zeros(len(dst) * m, len(src) * m)
    for row_t, s in enumerate(dst):
        for i, si in enumerate(s):
            rest = s[:i] + s[i + 1 :]
            a = src_index[rest]
            sign = (-1) ** i
            act = module.action[si]
            for r in range(m):
                for c in range(m):
                    if act[r][c]:
                        out[row_t * m + r][a * m + c] += sign * act[r][c]
        for i in range(len(s)):
            for j in range(i + 1, len(s)):
                rest = s[:i] + s[i + 1 : j] + s[j + 1 :]
                coords = module.algebra.structure[s[i]][s[j]]
                base = (-1) ** (i + j)
                for l, cl in enumerate(coords):
                    if cl == 0:
                        continue
                    merged, sgn = _insert_sorted(l, rest)
                    if sgn == 0:
                        continue
                    a = src_index[merged]
                    for r in range(m):
                        out[row_t * m + r][a * m + r] += base * sgn * cl
    return out


# --- obstruction class of a perturbed subalgebra inclusion ---


@dataclass(frozen=True)
class FinLieData:
    """A subalgebra with a first-order perturbation of its inclusion.

    sub_basis spans the subalgebra inside the ambient algebra; perturbation
    gives the image of each spanning vector under the linear correction of
    the inclusion; mu is the antisymmetric first-order correction of the
    bracket, one ambient vector per ordered pair of spanning vectors.
    """

    algebra: LieAlgebra
    sub_basis: tuple
    perturbation: tuple
    mu: tuple

    def __post_init__(self):
        n = self.algebra.dim
        sb = _freeze_mat(self.sub_basis)
        pert = _freeze_mat(self.perturbation)
        mu = tuple(tuple(_freeze_vec(v) for v in row) for row in self.mu)
        object.__setattr__(self, "sub_basis", sb)
        object.__setattr__(self, "perturbation", pert)
        object.__setattr__(self, "mu", mu)
        h = len(sb)
        if any(len(v) != n for v in sb):
            raise ValueError("sub basis vectors must live in the ambient algebra")
        if len(pert) != h or any(len(v) != n for v in pert):
            raise ValueError("need one ambient perturbation vector per sub basis vector")
        if len(mu) != h or any(len(row) != h or any(len(v) != n for v in row) for row in mu):
            raise ValueError("mu must be an h x h table of ambient vectors")
        for a in range(h):
            for b in range(h):
                if any(mu[a][b][k] + mu[b][a][k] != 0 for k in range(n)):
                    raise ValueError("mu is not antisymmetric")
        if linalg.rank(sb) != h:
            raise ValueError("sub basis is linearly dependent")


@dataclass(frozen=True)
class LieObstruction:
    quotient_dim: int
    cocycle: tuple
    is_cocycle: bool
    vanishes: bool
    corrector: tuple


def _sub_structure(algebra, sub_basis):
    """Structure constants of the span, or an error if it is not closed."""
    h = len(sub_basis)
    cols = linalg.transpose(sub_basis)
    table = []
    for a in range(h):
        row = []
        for b in range(h):
            br = algebra.bracket(list(sub_basis[a]), list(sub_basis[b]))
            coeffs = linalg.solve(cols, br) if h else None
            if coeffs is None:
                raise ValueError("sub basis does not span a subalgebra")
            row.append(tuple(coeffs))
        table.append(tuple(row))
    return LieAlgebra(tuple(table))


def _quotient_maps(sub_basis, n):
    r, pivots = linalg.rref(sub_basis) if sub_basis else ([], [])
    free = [j for j in range(n) if j not in pivots]

    def project(v):
        w = list(v)
        for i, p in enumerate(pivots):
            c = w[p]
            if c:
                w = [x - c * y for x, y in zip(w, r[i])]
        return [w[j] for j in free]

    def lift(u):
        w = [Fraction(0)] * n
        for idx, j in enumerate(free):
            w[j] = u[idx]
        return w

    return project, lift, free


def lie_subalgebra_obstruction(data: FinLieData) -> LieObstruction:
    """Obstruction to correcting a perturbed inclusion back to a subalgebra.

    The defect of the perturbed bracket, reduced modulo the subalgebra, is a
    quotient-valued 2-cochain over the subalgebra.  When the input data is
    coherent it is a cocycle; it vanishes in cohomology exactly when some
    degree-one corrector absorbs it, and a corrector is returned in that
    case.  Raises ValueError when mu fails the linearized Jacobi identity,
    since then no obstruction class is defined at all.
    """
    algebra = data.algebra
    n = algebra.dim
    sub = data.sub_basis
    h = len(sub)

    sub_algebra = _sub_structure(algebra, sub)

    # linearized Jacobi for mu, inside the ambient-valued complex
    ambient_action = tuple(
        _freeze_mat(algebra.adjoint_matrix(list(v))) for v in sub
    )
    ambient_module = LieModuleData(sub_algebra, ambient_action)
    pairs = ce_basis(h, 2)
    mu_vec = []
    for (a, b) in pairs:
        mu_vec.extend(data.mu[a][b])
    d2_ambient = ce_differential(ambient_module, 2)
    if not linalg.is_zero_vec(linalg.mat_vec(d2_ambient, mu_vec)):
        raise ValueError("mu violates the linearized Jacobi identity")

    project, lift, free = _quotient_maps(sub, n)
    q = len(free)
    quot_action = []
    for v in sub:
        cols = [project(algebra.bracket(list(v), lift(e))) for e in linalg.identity(q)]
        quot_action.append(_freeze_mat(linalg.transpose(cols)) if q else ())
    quot_module = LieModuleData(sub_algebra, tuple(quot_action))

    cocycle = []
    flat = []
    for (a, b) in pairs:
        value = list(data.mu[a][b])
        value = linalg.vec_add(value, algebra.bracket(list(data.perturbation[a]), list(sub[b])))
        value = linalg.vec_add(value, algebra.bracket(list(sub[a]), list(data.perturbation[b])))
        coeffs = sub_algebra.structure[a][b]
        for k, c in enumerate(coeffs):
            if c:
                value = linalg.vec_sub(value, linalg.vec_scale(c, list(data.perturbation[k])))
        reduced = project(value)
        cocycle.append(tuple(reduced))
        flat.extend(reduced)

    d2 = ce_differential(quot_module, 2)
    is_cocycle = linalg.is_zero_vec(linalg.mat_vec(d2, flat)) if flat else True

    d1 = ce_differential(quot_module, 1)
    sol = linalg.solve(d1, flat) if (flat or d1) else []
    if sol is None:
        vanishes = False
        corrector = None
    else:
        vanishes = True
        corrector = tuple(tuple(sol[i * q : (i + 1) * q]) for i in range(h))
    return LieObstruction(
        quotient_dim=q,
        cocycle=tuple(cocycle),
        is_cocycle=is_cocycle,
        vanishes=vanishes,
        corrector=corrector,
    )


# --- abstract Cech data over a finite cover ---


@dataclass(frozen=True)
class CechLeafData:
    """Rows of cochain complexes spread over the nerve of a finite cover.

    opens names the cover members; pairs and triples list the nonempty
    overlaps by sorted index tuples.  dims maps each simplex to the tuple of
    row dimensions, one per cochain row, the same number of rows everywhere.
    restrictions maps (face, simplex) to the per-row matrices realizing the
    restriction of sections; ce maps each simplex to its per-row differential
    matrices.  Construction checks that restrictions compose coherently, that
    each row differential squares to zero, and that restrictions are chain
    maps, which together make the total differential square to zero.
    """

    opens: tuple
    pairs: tuple
    triples: tuple
    dims: dict
    restrictions: dict
    ce: dict

    def __post_init__(self):
        object.__setattr__(self, "opens", tuple(str(o) for o in self.opens))
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in self.pairs))
        object.__setattr__(self, "triples", tuple(tuple(t) for t in self.triples))
        dims = {tuple(k): tuple(int(d) for d in v) for k, v in self.dims.items()}
        restrictions = {
            (tuple(f), tuple(s)): tuple(_freeze_mat(m) for m in mats)
            for (f, s), mats in self.restrictions.items()
        }
        ce = {tuple(k): tuple(_freeze_mat(m) for m in mats) for k, mats in self.ce.items()}
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "restrictions", restrictions)
        object.__setattr__(self, "ce", ce)
        self._validate()

    # -- shape bookkeeping --

    def simplices(self, p):
        if p == 0:
            return [(i,) for i in range(len(self.opens))]
        if p == 1:
            return list(self.pairs)
        if p == 2:
            return list(self.triples)
        return []

    @property
    def n_rows(self):
        first = self.dims[(0,)]
        return len(first)

    def row_dim(self, simplex, q):
        if q < 0 or q >= self.n_rows:
            return 0
        return self.dims[simplex][q]

    def space_dim(self, p, q):
        if q < 0 or q >= self.n_rows:
            return 0
        return sum(self.row_dim(s, q) for s in self.simplices(p))

    def total_dim(self, n):
        return sum(self.space_dim(n - q, q) for q in range(self.n_rows))

    def _slots(self, components):
        """Offset of each (simplex, q) block in the flat layout, and the size.

        Blocks come bidegree by bidegree in the order given, then simplex
        by simplex in nerve order.
        """
        slots = {}
        pos = 0
        for p, q in components:
            for s in self.simplices(p):
                slots[(s, q)] = pos
                pos += self.row_dim(s, q)
        return slots, pos

    def split(self, flat, components):
        """Cut a flat cochain into per-simplex tuples, one tuple per bidegree."""
        slots, _ = self._slots(components)
        return tuple(
            tuple(
                tuple(flat[slots[(s, q)] : slots[(s, q)] + self.row_dim(s, q)])
                for s in self.simplices(p)
            )
            for p, q in components
        )

    def restriction(self, face, simplex, q):
        return self.restrictions[(face, simplex)][q]

    # -- validation --

    def _validate(self):
        n_opens = len(self.opens)
        if n_opens == 0:
            raise ValueError("empty cover")
        for p in self.pairs:
            if len(p) != 2 or not (0 <= p[0] < p[1] < n_opens):
                raise ValueError("pairs must be sorted index pairs into the cover")
        if len(set(self.pairs)) != len(self.pairs):
            raise ValueError("duplicate pair")
        pair_set = set(self.pairs)
        for t in self.triples:
            if len(t) != 3 or not (0 <= t[0] < t[1] < t[2] < n_opens):
                raise ValueError("triples must be sorted index triples into the cover")
            for f in itertools.combinations(t, 2):
                if f not in pair_set:
                    raise ValueError("triple %r lacks the pair %r" % (t, f))
        if len(set(self.triples)) != len(self.triples):
            raise ValueError("duplicate triple")

        all_simplices = self.simplices(0) + self.simplices(1) + self.simplices(2)
        rows = None
        for s in all_simplices:
            if s not in self.dims:
                raise ValueError("missing dims for simplex %r" % (s,))
            if rows is None:
                rows = len(self.dims[s])
            elif len(self.dims[s]) != rows:
                raise ValueError("all simplices need the same number of rows")
        if rows == 0:
            raise ValueError("need at least one row")

        for s in all_simplices:
            mats = self.ce.get(s)
            if mats is None or len(mats) != rows - 1:
                raise ValueError("simplex %r needs %d differential matrices" % (s, rows - 1))
            for q in range(rows - 1):
                self._check_shape(mats[q], self.row_dim(s, q + 1), self.row_dim(s, q), "ce", s)
            for q in range(rows - 2):
                comp = _mul(mats[q + 1], mats[q], self.row_dim(s, q + 2), self.row_dim(s, q))
                if not linalg.is_zero_mat(comp):
                    raise ValueError("row differential does not square to zero on %r" % (s,))

        expected = []
        for p in self.pairs:
            expected.append(((p[0],), p))
            expected.append(((p[1],), p))
        for t in self.triples:
            for f in itertools.combinations(t, 2):
                expected.append((f, t))
        for key in expected:
            face, simplex = key
            mats = self.restrictions.get(key)
            if mats is None or len(mats) != rows:
                raise ValueError("missing restriction %r -> %r" % (face, simplex))
            for q in range(rows):
                self._check_shape(
                    mats[q], self.row_dim(simplex, q), self.row_dim(face, q), "restriction", simplex
                )
        extra = set(self.restrictions) - set(expected)
        if extra:
            raise ValueError("restriction given for a non-face %r" % (sorted(extra)[0],))

        # restrictions must be chain maps
        for (face, simplex), mats in self.restrictions.items():
            for q in range(rows - 1):
                left = _mul(
                    self.ce[simplex][q], mats[q], self.row_dim(simplex, q + 1), self.row_dim(face, q)
                )
                right = _mul(
                    mats[q + 1], self.ce[face][q], self.row_dim(simplex, q + 1), self.row_dim(face, q)
                )
                if left != right:
                    raise ValueError(
                        "restriction %r -> %r does not commute with the differential"
                        % (face, simplex)
                    )

        # two-step restrictions through different intermediate pairs agree
        for t in self.triples:
            i, j, k = t
            routes = [
                ((i,), (i, j), (i, k)),
                ((j,), (i, j), (j, k)),
                ((k,), (i, k), (j, k)),
            ]
            for vertex, via_a, via_b in routes:
                for q in range(rows):
                    ra = _mul(
                        self.restriction(via_a, t, q),
                        self.restriction(vertex, via_a, q),
                        self.row_dim(t, q),
                        self.row_dim(vertex, q),
                    )
                    rb = _mul(
                        self.restriction(via_b, t, q),
                        self.restriction(vertex, via_b, q),
                        self.row_dim(t, q),
                        self.row_dim(vertex, q),
                    )
                    if ra != rb:
                        raise ValueError(
                            "restrictions to %r from %r disagree between routes" % (t, vertex)
                        )

    @staticmethod
    def _check_shape(m, r, c, what, where):
        if len(m) != r or any(len(row) != c for row in m):
            raise ValueError("%s matrix on %r has the wrong shape" % (what, where))

    # -- the two differentials and their total ---

    def _blocks(self, p, q):
        """Blocks (target, source, sign, matrix) of the total differential
        leaving bidegree (p, q), with target and source as (simplex, q) slots.

        A restriction to a coface carries (-1)^omit, omit being the position
        of the vertex the face leaves out; the row differential carries (-1)^p.
        """
        if p < 0 or not 0 <= q < self.n_rows:
            return
        for simplex in self.simplices(p + 1):
            for omit in range(len(simplex)):
                face = simplex[:omit] + simplex[omit + 1 :]
                yield (simplex, q), (face, q), (-1) ** omit, self.restriction(face, simplex, q)
        if q + 1 < self.n_rows:
            for simplex in self.simplices(p):
                yield (simplex, q + 1), (simplex, q), (-1) ** p, self.ce[simplex][q]

    def _matrix(self, src, dst, scale=1):
        """The blocks leaving the src bidegrees that land in the dst ones,
        placed by _slots and multiplied by scale."""
        col_at, cols = self._slots(src)
        row_at, rows = self._slots(dst)
        out = linalg.zeros(rows, cols)
        for p, q in src:
            for target, source, sign, mat in self._blocks(p, q):
                r0 = row_at.get(target)
                if r0 is None:
                    continue
                c0 = col_at[source]
                for r, row in enumerate(mat):
                    for c, x in enumerate(row):
                        if x:
                            out[r0 + r][c0 + c] += scale * sign * x
        return out

    def cech_matrix(self, p, q):
        """Alternating difference of restrictions, Cech degree p to p + 1."""
        return self._matrix([(p, q)], [(p + 1, q)])

    def ce_matrix(self, p, q):
        """Blockwise row differential in Cech degree p, row q to q + 1, unsigned."""
        return self._matrix([(p, q)], [(p, q + 1)], scale=(-1) ** p)

    def total_components(self, n):
        """Bidegrees (p, q) contributing to total degree n, in order of q."""
        out = []
        for q in range(self.n_rows):
            p = n - q
            if 0 <= p <= 2:
                out.append((p, q))
        return out

    def total_matrix(self, n):
        """Total differential on degree n; the row part carries sign (-1)^p."""
        return self._matrix(self.total_components(n), self.total_components(n + 1))

    @property
    def max_total_degree(self):
        return 2 + self.n_rows - 1


def leaf_complex_hypercohomology(data: CechLeafData):
    """Dimensions of the cohomology of the total complex, degree by degree."""
    top = data.max_total_degree
    ranks = []
    for n in range(top + 1):
        ranks.append(linalg.rank(data.total_matrix(n)))
    out = []
    for n in range(top + 1):
        below = ranks[n - 1] if n > 0 else 0
        out.append(data.total_dim(n) - ranks[n] - below)
    return tuple(out)


# --- obstruction triples over a cover ---


@dataclass(frozen=True)
class ObstructionReport:
    equations: tuple
    is_cocycle: bool
    is_coboundary: bool
    corrector: tuple


def verify_obstruction_cocycle(data: CechLeafData, theta, gbar, bbar):
    """Check the four compatibility equations of an obstruction triple.

    theta is a row-0 cochain on triples, gbar a row-1 cochain on pairs,
    bbar a row-2 cochain on the opens.  The four equations are the graded
    components of the total differential applied to the triple; the report
    also says whether the triple is a total coboundary and, if so, returns
    correcting cochains (a row-0 cochain on pairs and a row-1 cochain on
    the opens).
    """
    if data.n_rows < 3:
        raise ValueError("need at least three rows to place an obstruction triple")
    theta = [_freeze_vec(v) for v in theta]
    gbar = [_freeze_vec(v) for v in gbar]
    bbar = [_freeze_vec(v) for v in bbar]
    if len(theta) != len(data.triples) or any(
        len(v) != data.row_dim(t, 0) for v, t in zip(theta, data.triples)
    ):
        raise ValueError("theta must give a row-0 vector per triple")
    if len(gbar) != len(data.pairs) or any(
        len(v) != data.row_dim(p, 1) for v, p in zip(gbar, data.pairs)
    ):
        raise ValueError("gbar must give a row-1 vector per pair")
    if len(bbar) != len(data.opens) or any(
        len(v) != data.row_dim((i,), 2) for i, v in enumerate(bbar)
    ):
        raise ValueError("bbar must give a row-2 vector per open")

    flat = [x for v in theta + gbar + bbar for x in v]

    # fourfold overlaps are empty, so the first equation has nothing to say;
    # with three rows the image has no (0, 3) part and the fourth holds too
    degree3 = data.total_components(3)
    image = dict(zip(degree3, data.split(linalg.mat_vec(data.total_matrix(2), flat), degree3)))
    equations = (True,) + tuple(
        all(map(linalg.is_zero_vec, image.get(pq, ()))) for pq in ((2, 1), (1, 2), (0, 3))
    )
    is_cocycle = all(equations)

    sol = linalg.solve(data.total_matrix(1), flat)
    if sol is None:
        return ObstructionReport(equations, is_cocycle, False, None)
    return ObstructionReport(
        equations, is_cocycle, True, data.split(sol, data.total_components(1))
    )


def coboundary_triple(data: CechLeafData, rho, hbar):
    """Total differential of a degree-one pair, split into the three layers.

    rho is a row-0 cochain on pairs, hbar a row-1 cochain on the opens; the
    result (theta, gbar, bbar) satisfies all four obstruction equations.
    """
    if data.n_rows < 3:
        raise ValueError("need at least three rows")
    rho_flat = [x for v in rho for x in _freeze_vec(v)]
    hbar_flat = [x for v in hbar for x in _freeze_vec(v)]
    if len(rho_flat) != data.space_dim(1, 0) or len(hbar_flat) != data.space_dim(0, 1):
        raise ValueError("component sizes do not match the cover")
    image = linalg.mat_vec(data.total_matrix(1), rho_flat + hbar_flat)
    return data.split(image, data.total_components(2))


# --- builders for concrete covers ---


def constant_cover(ce_mats, n_opens=3):
    """Cover with all overlaps, identity restrictions, one shared row complex.

    ce_mats lists the row differentials; consecutive ones must compose to
    zero.  Good for exercising the total complex where the Cech direction
    carries all the interesting kernels.
    """
    mats = [_freeze_mat(m) for m in ce_mats]
    if not mats:
        raise ValueError("need at least one differential to fix the row dimensions")
    dims = [len(mats[0][0]) if mats[0] else 0]
    for m in mats:
        dims.append(len(m))
    opens = tuple("U%d" % i for i in range(n_opens))
    pairs = tuple(itertools.combinations(range(n_opens), 2))
    triples = tuple(itertools.combinations(range(n_opens), 3))
    simplices = [(i,) for i in range(n_opens)] + list(pairs) + list(triples)
    dim_map = {s: tuple(dims) for s in simplices}
    ce = {s: tuple(mats) for s in simplices}
    restrictions = {}
    eye = [_freeze_mat(linalg.identity(d)) for d in dims]
    for p in pairs:
        restrictions[((p[0],), p)] = tuple(eye)
        restrictions[((p[1],), p)] = tuple(eye)
    for t in triples:
        for f in itertools.combinations(t, 2):
            restrictions[(f, t)] = tuple(eye)
    return CechLeafData(opens, pairs, triples, dim_map, restrictions, ce)


def _window_mult(poly, src, dst):
    """Multiplication by poly between degree windows, exact by assumption."""
    a1, b1 = src
    a2, b2 = dst
    rows = b2 - a2 + 1
    cols = b1 - a1 + 1
    out = linalg.zeros(rows, cols)
    for c, deg in enumerate(range(a1, b1 + 1)):
        for k, coeff in enumerate(poly):
            if coeff:
                out[deg + k - a2][c] += coeff
    return out


def p1_window_cover(degrees, window, polys=()):
    """Two-chart cover of the projective line with polynomial row maps.

    Row q holds truncated sections of the degree degrees[q] line bundle:
    the first chart keeps monomial degrees from 0 up, the second keeps them
    from the top down, both windows of the given size, and the overlap keeps
    the hull.  polys[q] multiplies row q into row q + 1; its degree must not
    exceed the degree gap so that all windows map into windows.
    """
    degrees = tuple(int(d) for d in degrees)
    if not degrees:
        raise ValueError("need at least one row")
    e0 = degrees[0]
    if any(d < e0 for d in degrees):
        raise ValueError("the first row must have the smallest degree")
    if window < 1:
        raise ValueError("window must be positive")
    polys = tuple(tuple(Fraction(c) for c in p) for p in polys)
    if len(polys) != len(degrees) - 1:
        raise ValueError("need one multiplier polynomial per adjacent row pair")
    for q, p in enumerate(polys):
        nonzero = [k for k, c in enumerate(p) if c]
        if nonzero and max(nonzero) > degrees[q + 1] - degrees[q]:
            raise ValueError("multiplier degree exceeds the row degree gap")

    def win0(q):
        return (0, window + degrees[q] - e0)

    def win1(q):
        return (e0 - window, degrees[q])

    def win01(q):
        return (min(0, e0 - window), max(window + degrees[q] - e0, degrees[q]))

    wins = {(0,): win0, (1,): win1, (0, 1): win01}
    simplices = [(0,), (1,), (0, 1)]
    dim_map = {
        s: tuple(wins[s](q)[1] - wins[s](q)[0] + 1 for q in range(len(degrees)))
        for s in simplices
    }
    ce = {
        s: tuple(
            _window_mult(polys[q], wins[s](q), wins[s](q + 1))
            for q in range(len(degrees) - 1)
        )
        for s in simplices
    }
    restrictions = {
        ((0,), (0, 1)): tuple(
            _window_mult((1,), win0(q), win01(q)) for q in range(len(degrees))
        ),
        ((1,), (0, 1)): tuple(
            _window_mult((1,), win1(q), win01(q)) for q in range(len(degrees))
        ),
    }
    return CechLeafData(("U0", "U1"), ((0, 1),), (), dim_map, restrictions, ce)
