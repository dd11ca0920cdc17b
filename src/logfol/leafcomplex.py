"""Chevalley-Eilenberg calculus and the Cech layer on top of it.

Two levels live here.  The finite-dimensional level: Lie algebras by
structure constants, modules by action matrices, the alternating cochain
differential, and the obstruction class of a perturbed subalgebra inclusion.
The cover level: abstract Cech data whose simplices carry finite rows of a
cochain complex, with restriction maps between simplices, a total complex
mixing both differentials, and the four compatibility equations an
obstruction triple has to satisfy.

Both levels are sparse.  Vectors are {index: value} dicts of their nonzero
entries and matrices are blocks, tuples of {column: value} rows; values are
read by linalg's rule, ints where integral, so integral covers and algebras
are checked and eliminated in int arithmetic.  Dense rows are read only on
the way in, from scenes, and checked there.  The cochain differential and the
Cech, row and total matrices, more than 99% zeros, are lists of such rows,
and a corrector is solved from their rows with the cochain appended as the
right-hand side.

Cover-level matrices and flat cochains share one layout: a list of
bidegrees (p, q) is laid out bidegree by bidegree in the order given, and
within a bidegree simplex by simplex in nerve order, each simplex taking
its row-q coordinates.  Total degree n uses total_components(n), which is
ordered by q.

The cover level costs what its distinct blocks and its nonzeros cost, not
what its faces do: validation converts and checks each distinct tuple of
blocks once, so a cover that shares them, like constant_cover, is checked
about as fast as one simplex; the coface incidence of the nerve, with its
signs and restrictions, is laid out once at construction; and assembly
copies each entry once, straight into its row.

Everything is exact over Q.  Covers stop at triple overlaps; fourfold
intersections are taken to be empty, so Cech degree 3 is the zero space.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction

from . import linalg
from .jets import _set, _Value
from .linalg import _exact, _integer


def _sparse(row):
    """row as an {index: value} dict of its nonzero entries, each read by
    _exact; a dict row is taken to be one already and returned as it is."""
    if isinstance(row, dict):
        return row
    return {j: v for j, v in ((j, _exact(x)) for j, x in enumerate(row) if x) if v}


def _combine(terms):
    """The sum of c v over (c, v) pairs of sparse vectors, without zeros."""
    acc = {}
    for c, v in terms:
        for j, x in v.items():
            acc[j] = acc.get(j, 0) + c * x
    return {j: x for j, x in acc.items() if x}


def _dense(v, n):
    """The sparse vector v as a dense list of n values."""
    return [v.get(j, 0) for j in range(n)]


def _block(m, rows, cols, error, *args):
    """m as a rows x cols block: a tuple of {column: value} rows.

    Dict rows, as the builders make them, are kept, and so is the object
    that holds them; dense rows are read by _sparse, which drops the entries
    that are zero once read, such as "0".
    Raises ValueError(error % args) on a wrong shape; the text is made only
    then.
    """
    if all(isinstance(row, dict) for row in m):
        fits = all(0 <= j < cols for row in m for j in row)
    else:
        fits = all(len(row) == cols for row in m)
        m = tuple(map(_sparse, m))
    if not fits or len(m) != rows:
        raise ValueError(error % args)
    return m


def _from_columns(columns, rows):
    """The block whose c-th column is the sparse vector columns[c]."""
    out = tuple({} for _ in range(rows))
    for c, column in enumerate(columns):
        for r, x in column.items():
            out[r][c] = x
    return out


def _augmented(a, b, n):
    """The rows of [a | b]: the row a[i] with b[i] at column n."""
    return [{**row, n: x} for row, x in zip(a, b)]


def _antisymmetric(table):
    """Whether table[a][b] = -table[b][a] for every pair of sparse entries."""
    return all(table[a][b] == {k: -v for k, v in table[b][a].items()}
               for a, b in itertools.product(range(len(table)), repeat=2))


def _faces(pairs, triples):
    """The (face, simplex) pairs of the nerve, each needing a restriction."""
    return [((i,), p) for p in pairs for i in p] + [
        (f, t) for t in triples for f in itertools.combinations(t, 2)]


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


class LieAlgebra(namedtuple("LieAlgebra", "structure")):
    """Lie algebra over Q given by structure constants.

    structure[i][j] holds the coordinates of the bracket of the i-th and
    j-th basis vectors, dense on the way in and sparse once checked.
    Antisymmetry and the Jacobi identity are checked on construction.
    Antisymmetry is checked first, over every ordered pair, the diagonal
    included; once it holds, the bracket is alternating, and so is the
    Jacobiator [[y,z],x] + [[z,x],y] + [[x,y],z]: it is trilinear, cyclic,
    and vanishes when two arguments agree.  It is then zero on all basis
    triples exactly when it is zero on the strictly increasing ones, which
    are all that Jacobi is checked on.
    """

    __slots__ = ()

    def __new__(cls, structure):
        n = len(structure)
        if any(len(row) != n or any(len(v) != n for v in row) for row in structure):
            raise ValueError("structure constants must form an n x n table of n-vectors")
        st = tuple(tuple(map(_sparse, row)) for row in structure)
        self = tuple.__new__(cls, (st,))
        if not _antisymmetric(st):
            raise ValueError("structure constants are not antisymmetric")
        # Jacobi in the cyclic form [[j,k],i] + [[k,i],j] + [[i,j],k] = 0
        for i, j, k in itertools.combinations(range(n), 3):
            cyclic = ((st[j][k], i), (st[k][i], j), (st[i][j], k))
            if _combine((1, self.bracket(v, {m: 1})) for v, m in cyclic):
                raise ValueError("structure constants violate the Jacobi identity")
        return self

    @property
    def dim(self):
        return len(self.structure)

    def bracket(self, x, y):
        """[x, y] of dense or sparse vectors, as an {index: value} dict."""
        y = _sparse(y)
        return _combine((a * b, self.structure[i][j])
                        for i, a in _sparse(x).items() for j, b in y.items())

    def adjoint_matrix(self, x):
        """Block of bracketing with x on the left."""
        x = _sparse(x)
        return _from_columns([self.bracket(x, {j: 1}) for j in range(self.dim)], self.dim)


class LieModuleData(namedtuple("LieModuleData", "algebra action")):
    """A module over a finite-dimensional Lie algebra.

    action[i] is the matrix, dense or a block, by which the i-th basis
    vector acts.  The commutator condition
    rho([x, y]) = rho(x) rho(y) - rho(y) rho(x) is checked on construction,
    on the basis pairs i < j only: the algebra's bracket is alternating, so
    rho([x, y]) - [rho x, rho y] is bilinear and alternating too, and it
    vanishes on every pair once it vanishes on those.
    """

    __slots__ = ()

    def __new__(cls, algebra: LieAlgebra, action):
        n = algebra.dim
        if len(action) != n:
            raise ValueError("need one action matrix per basis vector")
        m = len(action[0]) if action else 0
        act = tuple(_block(a, m, m, "action matrices must be square of a common size")
                    for a in action)
        self = tuple.__new__(cls, (algebra, act))
        for i, j in itertools.combinations(range(n), 2):
            ab = linalg.product(act[i], act[j])
            ba = linalg.product(act[j], act[i])
            commutator = tuple(_combine(((1, x), (-1, y))) for x, y in zip(ab, ba))
            if self.act_by(algebra.structure[i][j]) != commutator:
                raise ValueError("action does not respect the bracket")
        return self

    @property
    def dim(self):
        return len(self.action[0]) if self.action else 0

    def act_by(self, x):
        """Block of the action of the dense or sparse vector x."""
        x = _sparse(x)
        return tuple(_combine((c, self.action[i][r]) for i, c in x.items())
                     for r in range(self.dim))


def ce_basis(n, k):
    """Ordered k-subsets of range(n) indexing the degree-k cochain spaces."""
    return list(itertools.combinations(range(n), k))


def ce_differential(module: LieModuleData, k):
    """The cochain differential from degree k to degree k + 1, as a list of
    {column: value} rows over the len(ce_basis(n, k)) * m source coordinates.

    Cochains are alternating maps on tuples of basis vectors with values in
    the module; coordinates are ordered by lexicographic k-subset, then
    module coordinate.  On a (k+1)-tuple the value is the alternating sum of
    module actions on omit-one evaluations plus the alternating sum of
    evaluations at pairwise brackets.
    """
    n = module.algebra.dim
    m = module.dim
    src_index = {t: a for a, t in enumerate(ce_basis(n, k))}
    dst = ce_basis(n, k + 1)
    out = [{} for _ in range(len(dst) * m)]

    def add(r, c, v):
        out[r][c] = out[r].get(c, 0) + v

    for t, s in enumerate(dst):
        for i, si in enumerate(s):
            a = src_index[s[:i] + s[i + 1 :]]
            for r, row in enumerate(module.action[si]):
                for c, v in row.items():
                    add(t * m + r, a * m + c, (-1) ** i * v)
        for i, j in itertools.combinations(range(len(s)), 2):
            rest = s[:i] + s[i + 1 : j] + s[j + 1 :]
            for l, cl in module.algebra.structure[s[i]][s[j]].items():
                merged, sign = _insert_sorted(l, rest)
                if sign:
                    a = src_index[merged]
                    for r in range(m):
                        add(t * m + r, a * m + r, (-1) ** (i + j) * sign * cl)
    return [{c: v for c, v in row.items() if v} for row in out]


# --- obstruction class of a perturbed subalgebra inclusion ---


class FinLieData(namedtuple("FinLieData", "algebra sub_basis perturbation mu sub_algebra")):
    """A subalgebra with a first-order perturbation of its inclusion.

    sub_basis spans the subalgebra inside the ambient algebra; perturbation
    gives the image of each spanning vector under the linear correction of
    the inclusion; mu is the antisymmetric first-order correction of the
    bracket, one ambient vector per ordered pair of spanning vectors.  All
    three are dense on the way in and sparse once checked.  sub_algebra is
    derived: the structure constants of the span in the sub basis.
    Construction refuses, with ValueError, a span that is no subalgebra
    and a mu that fails the linearized Jacobi identity, since then no
    obstruction class is defined at all.
    """

    __slots__ = ()

    def __new__(cls, algebra: LieAlgebra, sub_basis, perturbation, mu):
        n = algebra.dim
        h = len(sub_basis)
        if any(len(v) != n for v in sub_basis):
            raise ValueError("sub basis vectors must live in the ambient algebra")
        if len(perturbation) != h or any(len(v) != n for v in perturbation):
            raise ValueError("need one ambient perturbation vector per sub basis vector")
        if len(mu) != h or any(len(row) != h or any(len(v) != n for v in row) for row in mu):
            raise ValueError("mu must be an h x h table of ambient vectors")
        sub = tuple(map(_sparse, sub_basis))
        pert = tuple(map(_sparse, perturbation))
        mu = tuple(tuple(map(_sparse, row)) for row in mu)
        if not _antisymmetric(mu):
            raise ValueError("mu is not antisymmetric")
        if linalg.rank(sub) != h:
            raise ValueError("sub basis is linearly dependent")
        sub_algebra = _sub_structure(algebra, sub)
        # linearized Jacobi for mu, inside the ambient-valued complex
        ambient_module = LieModuleData(sub_algebra, tuple(map(algebra.adjoint_matrix, sub)))
        mu_flat = [x for a, b in ce_basis(h, 2) for x in _dense(mu[a][b], n)]
        if any(linalg.mat_vec(ce_differential(ambient_module, 2), mu_flat)):
            raise ValueError("mu violates the linearized Jacobi identity")
        return tuple.__new__(cls, (algebra, sub, pert, mu, sub_algebra))


LieObstruction = namedtuple("LieObstruction", "quotient_dim cocycle is_cocycle vanishes corrector")


def _sub_structure(algebra, sub_basis):
    """Structure constants of the span, or an error if it is not closed.

    One echelon of [B | every bracket], B's h columns the sub basis and the
    bracket of sub basis vectors a and b at column h + k, k = h a + b,
    decides them all.  The span is closed exactly when no bracket column
    holds a pivot, and then solution(basis, h + k) solves B x = bracket k,
    the brackets before it being unknowns left at 0.
    """
    n = algebra.dim
    h = len(sub_basis)
    brackets = [algebra.bracket(x, y) for x in sub_basis for y in sub_basis]
    basis = linalg.echelon(_from_columns([*sub_basis, *brackets], n))
    if any(col >= h for col in basis):
        raise ValueError("sub basis does not span a subalgebra")
    table = [linalg.solution(basis, h + k)[:h] for k in range(h * h)]
    return LieAlgebra([table[a * h : (a + 1) * h] for a in range(h)])


def lie_subalgebra_obstruction(data: FinLieData) -> LieObstruction:
    """Obstruction to correcting a perturbed inclusion back to a subalgebra.

    The defect of the perturbed bracket, mu + [p_a, s_b] + [s_a, p_b] -
    sum_k c_ab^k p_k on the sub basis s with perturbation p, is mu + d1(p)
    in the ambient-valued complex.  Reduced modulo the subalgebra h it is a
    2-cochain with values in g/h, and the projection is an h-module map, as
    h is a subalgebra: the cocycle is pi(mu) + d1(pi(p)), with d1 the
    differential of the quotient complex the corrector is solved in.  It is
    always a cocycle: d2(pi(mu) + d1(pi(p))) = pi(d2(mu)) = 0, since
    FinLieData refuses any mu with d2(mu) != 0, so is_cocycle is True.  It
    vanishes in cohomology exactly when some degree-one corrector absorbs
    it, and a corrector is returned in that case, re-checked first: d1 must
    map it to the cocycle, and RuntimeError says it does not.
    """
    algebra = data.algebra
    n = algebra.dim
    sub = data.sub_basis
    h = len(sub)

    # modulo the subalgebra: subtract the reduced row of every pivot, made
    # monic, which leaves the free columns, renumbered from 0
    reduced = {p: {j: Fraction(x, row[p]) for j, x in row.items()}
               for p, row in linalg.echelon(sub).items()}
    free = {j: f for f, j in enumerate(j for j in range(n) if j not in reduced)}
    q = len(free)

    def project(v):
        w = _combine([(1, v)] + [(-v[p], reduced[p]) for p in reduced if p in v])
        return {free[j]: x for j, x in w.items()}

    quot_module = LieModuleData(data.sub_algebra, tuple(
        _from_columns([project(algebra.bracket(v, {j: 1})) for j in free], q) for v in sub))
    d1 = ce_differential(quot_module, 1)
    pert = [x for v in data.perturbation for x in _dense(project(v), q)]
    cocycle = tuple(
        tuple(x + sum(c * pert[j] for j, c in d1[t * q + i].items())
              for i, x in enumerate(_dense(project(data.mu[a][b]), q)))
        for t, (a, b) in enumerate(ce_basis(h, 2)))
    flat = [x for v in cocycle for x in v]

    sol = linalg.solution(linalg.echelon(_augmented(d1, flat, h * q)), h * q)
    if sol is not None and linalg.mat_vec(d1, sol) != flat:
        raise RuntimeError("Lie corrector certificate failed: the differential does not "
                           "map the corrector to the cocycle")
    return LieObstruction(
        quotient_dim=q,
        cocycle=cocycle,
        is_cocycle=True,
        vanishes=sol is not None,
        corrector=None if sol is None else tuple(
            tuple(sol[i * q : (i + 1) * q]) for i in range(h)),
    )


# --- abstract Cech data over a finite cover ---


class CechLeafData(_Value):
    """Rows of cochain complexes spread over the nerve of a finite cover.

    opens names the cover members; pairs and triples list the nonempty
    overlaps by sorted index tuples.  dims maps each simplex to the tuple of
    row dimensions, one per cochain row, the same number of rows everywhere.
    restrictions maps (face, simplex) to the per-row matrices realizing the
    restriction of sections; ce maps each simplex to its per-row differential
    matrices, dense or as blocks (_block).  Construction checks that
    restrictions compose coherently, that each row differential squares to
    zero, and that restrictions are chain maps, which together make the
    total differential square to zero.  A _Value, not a tuple; _cofaces
    is derived from the fields.
    """

    __slots__ = ("opens", "pairs", "triples", "dims", "restrictions", "ce", "_cofaces")

    def __init__(self, opens, pairs, triples, dims, restrictions, ce):
        _set(self, "opens", tuple(str(o) for o in opens))
        _set(self, "pairs", tuple(tuple(p) for p in pairs))
        _set(self, "triples", tuple(tuple(t) for t in triples))
        _set(self, "dims", {tuple(k): tuple(map(_integer, v)) for k, v in dims.items()})
        _set(self, "restrictions",
             {(tuple(f), tuple(s)): tuple(m) for (f, s), m in restrictions.items()})
        _set(self, "ce", {tuple(k): tuple(mats) for k, mats in ce.items()})
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
        return self.dims[simplex][q]

    def space_dim(self, p, q):
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
        dims = self.dims
        for p, q in components:
            if 0 <= q < self.n_rows:
                for s in self.simplices(p):
                    slots[(s, q)] = pos
                    pos += dims[s][q]
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

    # -- validation --

    def _validate(self):
        """Check the cover, replace every matrix by its block and lay out the
        coface incidence that the differentials are assembled from.

        The cost follows the distinct block tuples, not the simplices and
        faces.  Each distinct tuple of row differentials or restrictions is
        converted and checked once, memoised on its id and the dims it is
        read at, so a tuple shared on the way in stays shared afterwards;
        each chain-map check of a (simplex ce, restriction, face ce) triple
        of tuples and each comparison of two routes through four
        restriction tuples is made once.  A cover that shares its tuples,
        like constant_cover, therefore converts one ce tuple and one
        restriction tuple and makes one chain-map check and one route
        comparison; the loops still visit every simplex, face and triple in
        the same order, so the first failure and its message do not depend
        on the sharing.
        """
        tuples = {}
        wrong_shape = "%s matrix on %r has the wrong shape"

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

        dims = self.dims
        all_simplices = self.simplices(0) + self.simplices(1) + self.simplices(2)
        rows = None
        for s in all_simplices:
            ds = dims.get(s)
            if ds is None:
                raise ValueError("missing dims for simplex %r" % (s,))
            if ds and min(ds) < 0:
                raise ValueError("negative dimension for simplex %r" % (s,))
            if rows is None:
                rows = len(ds)
            elif len(ds) != rows:
                raise ValueError("all simplices need the same number of rows")
        if rows == 0:
            raise ValueError("need at least one row")

        # a converted tuple is kept with its input so that the input's id is not reused
        for s in all_simplices:
            mats = self.ce.get(s)
            if mats is None or len(mats) != rows - 1:
                raise ValueError("simplex %r needs %d differential matrices" % (s, rows - 1))
            ds = dims[s]
            key = (id(mats), ds)
            if key not in tuples:
                out = tuple(_block(mats[q], ds[q + 1], ds[q], wrong_shape, "ce", s)
                            for q in range(rows - 1))
                for q in range(rows - 2):
                    if any(linalg.product(out[q + 1], out[q])):
                        raise ValueError("row differential does not square to zero on %r" % (s,))
                tuples[key] = mats, out
            self.ce[s] = tuples[key][1]

        expected = _faces(self.pairs, self.triples)
        for face_key in expected:
            face, simplex = face_key
            mats = self.restrictions.get(face_key)
            if mats is None or len(mats) != rows:
                raise ValueError("missing restriction %r -> %r" % (face, simplex))
            ds, df = dims[simplex], dims[face]
            key = (id(mats), ds, df)
            if key not in tuples:
                tuples[key] = mats, tuple(
                    _block(m, ds[q], df[q], wrong_shape, "restriction", simplex)
                    for q, m in enumerate(mats))
            self.restrictions[face_key] = tuples[key][1]
        extra = set(self.restrictions) - set(expected)
        if extra:
            raise ValueError("restriction given for a non-face %r" % (sorted(extra)[0],))

        # restrictions must be chain maps
        chain_maps = set()
        for (face, simplex), mats in self.restrictions.items():
            ce_s, ce_f = self.ce[simplex], self.ce[face]
            key = (id(ce_s), id(mats), id(ce_f))
            if key in chain_maps:
                continue
            for q in range(rows - 1):
                if linalg.product(ce_s[q], mats[q]) != linalg.product(mats[q + 1], ce_f[q]):
                    raise ValueError("restriction %r -> %r does not commute with the differential"
                                     % (face, simplex))
            chain_maps.add(key)

        # two-step restrictions through different intermediate pairs agree
        restrictions = self.restrictions
        routes = set()
        for t in self.triples:
            i, j, k = t
            for vertex, via_a, via_b in (((i,), (i, j), (i, k)), ((j,), (i, j), (j, k)),
                                         ((k,), (i, k), (j, k))):
                a_t, v_a = restrictions[(via_a, t)], restrictions[(vertex, via_a)]
                b_t, v_b = restrictions[(via_b, t)], restrictions[(vertex, via_b)]
                key = (id(a_t), id(v_a), id(b_t), id(v_b))
                if key in routes:
                    continue
                for q in range(rows):
                    if linalg.product(a_t[q], v_a[q]) != linalg.product(b_t[q], v_b[q]):
                        raise ValueError(
                            "restrictions to %r from %r disagree between routes" % (t, vertex)
                        )
                routes.add(key)

        # the coface incidence of Cech degrees 0 and 1, in nerve order: each
        # simplex with the face that leaves out its vertex at position omit,
        # the sign (-1)^omit and the restriction tuple between them
        cofaces = ([], [])
        for p, simplices in enumerate((self.pairs, self.triples)):
            for simplex in simplices:
                for omit in range(p + 2):
                    face = simplex[:omit] + simplex[omit + 1 :]
                    cofaces[p].append((simplex, face, (-1) ** omit, restrictions[(face, simplex)]))
        _set(self, "_cofaces", cofaces)

    # -- the two differentials and their total ---

    def _blocks(self, p, q):
        """Blocks (target, source, sign, matrix) of the total differential
        leaving bidegree (p, q), with target and source as (simplex, q) slots.

        A restriction to a coface carries (-1)^omit, omit being the position
        of the vertex the face leaves out, as laid out once by _validate; the
        row differential carries (-1)^p.
        """
        if p < 0 or not 0 <= q < self.n_rows:
            return
        for simplex, face, sign, mats in self._cofaces[p] if p < 2 else ():
            yield (simplex, q), (face, q), sign, mats[q]
        if q + 1 < self.n_rows:
            for simplex in self.simplices(p):
                yield (simplex, q + 1), (simplex, q), (-1) ** p, self.ce[simplex][q]

    def _matrix(self, src, dst, scale=1):
        """The blocks leaving the src bidegrees that land in the dst ones,
        placed by _slots and multiplied by scale, as a list of {column:
        value} rows.  No two blocks share a cell.  scale and every block
        sign are +1 or -1, so entries are copied or negated, never
        multiplied, each straight into its output row."""
        col_at, _ = self._slots(src)
        row_at, rows = self._slots(dst)
        out = [{} for _ in range(rows)]
        for p, q in src:
            for target, source, sign, block in self._blocks(p, q):
                r0 = row_at.get(target)
                if r0 is None:
                    continue
                c0 = col_at[source]
                negate = scale * sign < 0
                for r, row in enumerate(block, r0):
                    out_row = out[r]
                    for j, x in row.items():
                        out_row[c0 + j] = -x if negate else x
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


ObstructionReport = namedtuple("ObstructionReport", "equations is_cocycle is_coboundary corrector")


def verify_obstruction_cocycle(data: CechLeafData, theta, gbar, bbar):
    """Check the four compatibility equations of an obstruction triple.

    theta is a row-0 cochain on triples, gbar a row-1 cochain on pairs,
    bbar a row-2 cochain on the opens, one vector per simplex of its row
    dimension, on a cover of at least three rows: the scene reader checks
    these shapes (Scene.cochains).  The four equations are the graded
    components of the total differential applied to the triple; the report
    also says whether the triple is a total coboundary and, if so, returns
    correcting cochains (a row-0 cochain on pairs and a row-1 cochain on
    the opens).  The corrector is re-checked before it is returned: the
    total differential it was solved from must map it to the triple, and
    RuntimeError says it does not.
    """
    theta, gbar, bbar = ([list(map(_exact, v)) for v in vecs] for vecs in (theta, gbar, bbar))
    flat = [x for v in theta + gbar + bbar for x in v]

    # fourfold overlaps are empty, so the first equation has nothing to say;
    # with three rows the image has no (0, 3) part and the fourth holds too
    degree3 = data.total_components(3)
    image = dict(zip(degree3, data.split(linalg.mat_vec(data.total_matrix(2), flat), degree3)))
    equations = (True,) + tuple(
        not any(map(any, image.get(pq, ()))) for pq in ((2, 1), (1, 2), (0, 3))
    )
    is_cocycle = all(equations)
    if not is_cocycle:
        # the total differential squares to zero (_validate), so no
        # coboundary fails an equation, and no solve is needed to say so
        return ObstructionReport(equations, False, False, None)

    t1 = data.total_matrix(1)
    n = data.total_dim(1)
    sol = linalg.solution(linalg.echelon(_augmented(t1, flat, n)), n)
    if sol is None:
        return ObstructionReport(equations, True, False, None)
    if linalg.mat_vec(t1, sol) != flat:
        raise RuntimeError("obstruction certificate failed: the total differential does not "
                           "map the corrector to the triple")
    return ObstructionReport(
        equations, is_cocycle, True, data.split(sol, data.total_components(1))
    )


# --- builders for concrete covers ---


def constant_cover(ce_mats, n_opens):
    """Cover of n_opens opens with all overlaps, identity restrictions and
    one shared row complex.

    ce_mats lists the row differentials; consecutive ones must compose to
    zero.  Good for exercising the total complex where the Cech direction
    carries all the interesting kernels.
    """
    if not ce_mats:
        raise ValueError("need at least one differential to fix the row dimensions")
    dims = [len(ce_mats[0][0]) if ce_mats[0] else 0] + [len(m) for m in ce_mats]
    # one tuple of differential blocks and one of identities, shared by every
    # simplex and every face, so validation converts and checks each once
    mats = tuple(_block(m, len(m), c, "ce matrix on (0,) has the wrong shape")
                 for m, c in zip(ce_mats, dims))
    opens = tuple("U%d" % i for i in range(n_opens))
    pairs = tuple(itertools.combinations(range(n_opens), 2))
    triples = tuple(itertools.combinations(range(n_opens), 3))
    simplices = [(i,) for i in range(n_opens)] + list(pairs) + list(triples)
    dim_map = {s: tuple(dims) for s in simplices}
    ce = {s: mats for s in simplices}
    eye = tuple(tuple({i: 1} for i in range(d)) for d in dims)
    restrictions = {key: eye for key in _faces(pairs, triples)}
    return CechLeafData(opens, pairs, triples, dim_map, restrictions, ce)


def _window_mult(poly, src, dst):
    """Multiplication by poly between degree windows, exact by assumption,
    as a block."""
    a1, b1 = src
    a2, b2 = dst
    out = tuple({} for _ in range(b2 - a2 + 1))
    for c, deg in enumerate(range(a1, b1 + 1)):
        for k, coeff in enumerate(poly):
            if coeff:
                out[deg + k - a2][c] = coeff
    return out


def p1_window_cover(degrees, window, polys):
    """Two-chart cover of the projective line with polynomial row maps.

    Row q holds truncated sections of the degree degrees[q] line bundle:
    the first chart keeps monomial degrees from 0 up, the second keeps them
    from the top down, both windows of the given size, and the overlap keeps
    the hull.  polys[q] multiplies row q into row q + 1; its degree must not
    exceed the degree gap so that all windows map into windows.
    """
    degrees = tuple(map(_integer, degrees))
    window = _integer(window)
    if not degrees:
        raise ValueError("need at least one row")
    e0 = degrees[0]
    if any(d < e0 for d in degrees):
        raise ValueError("the first row must have the smallest degree")
    if window < 1:
        raise ValueError("window must be positive")
    polys = tuple(tuple(map(_exact, p)) for p in polys)
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
