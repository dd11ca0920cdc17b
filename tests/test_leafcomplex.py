"""Chevalley-Eilenberg calculus and the two-level obstruction complex."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from logfol import linalg
from logfol.leafcomplex import (
    CechLeafData,
    FinLieData,
    LieAlgebra,
    LieModuleData,
    ce_basis,
    ce_differential,
    constant_cover,
    leaf_complex_hypercohomology,
    lie_subalgebra_obstruction,
    p1_window_cover,
    verify_obstruction_cocycle,
)

from exact_rule import follows_the_rule
from reference import abelian_algebra, adjoint_module, coboundary_triple


def sl2():
    # basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h
    z = (0, 0, 0)
    s = [[z, z, z] for _ in range(3)]
    s[0][1] = (0, 2, 0)
    s[1][0] = (0, -2, 0)
    s[0][2] = (0, 0, -2)
    s[2][0] = (0, 0, 2)
    s[1][2] = (1, 0, 0)
    s[2][1] = (-1, 0, 0)
    return LieAlgebra(tuple(map(tuple, s)))


def borel_in_sl2():
    return ((1, 0, 0), (0, 1, 0))    # span(h, e)


def solvable3():
    # [e0, e1] = e1, [e0, e2] = e2: the ambient algebra for the rigid example
    z = (0, 0, 0)
    s = [[z, z, z] for _ in range(3)]
    s[0][1] = (0, 1, 0)
    s[1][0] = (0, -1, 0)
    s[0][2] = (0, 0, 1)
    s[2][0] = (0, 0, -1)
    return LieAlgebra(tuple(map(tuple, s)))


# -- Lie algebra layer ---------------------------------------------------------


def test_structure_validation_rejects_non_jacobi():
    z = (0, 0, 0)
    s = [[z, z, z] for _ in range(3)]
    # [e0,e1] = e0 and [e0,e2] = e1 leave the cyclic sum on (e0,e1,e2) at -e1
    s[0][1] = (1, 0, 0)
    s[1][0] = (-1, 0, 0)
    s[0][2] = (0, 1, 0)
    s[2][0] = (0, -1, 0)
    with pytest.raises(ValueError):
        LieAlgebra(tuple(map(tuple, s)))


def test_bracket_and_adjoint_agree():
    g = sl2()
    x = [1, 2, -1]
    y = [0, 1, 3]
    direct = g.bracket(x, y)
    via_adjoint = linalg.mat_vec(g.adjoint_matrix(x), [Fraction(c) for c in y])
    assert direct == {k: v for k, v in enumerate(via_adjoint) if v}
    assert follows_the_rule(direct.values(), read=False)
    assert g.bracket({0: 1, 1: 2, 2: -1}, {1: 1, 2: 3}) == direct


def test_module_validation_checks_equivariance():
    g = abelian_algebra(2)
    # rho(e0), rho(e1) must commute for an abelian algebra
    bad = (((0, 1), (0, 0)), ((0, 0), (1, 0)))
    with pytest.raises(ValueError):
        LieModuleData(g, bad)
    good = (((1, 0), (0, 2)), ((3, 0), (0, 4)))
    LieModuleData(g, good)


def _dense_bracket(table, x, y):
    n = len(table)
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[k] += x[i] * y[j] * table[i][j][k]
    return out


def _unit(n, i):
    return [Fraction(int(k == i)) for k in range(n)]


def _is_lie_oracle(table):
    """Antisymmetry over every ordered pair, then Jacobi over all n^3
    ordered triples, with dense arithmetic."""
    n = len(table)
    if any(table[a][b] != [-x for x in table[b][a]]
           for a, b in itertools.product(range(n), repeat=2)):
        return False
    for i, j, k in itertools.product(range(n), repeat=3):
        terms = [_dense_bracket(table, table[b][c], _unit(n, a))
                 for a, b, c in ((i, j, k), (j, k, i), (k, i, j))]
        if any(map(sum, zip(*terms))):
            return False
    return True


def _dense_mul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _respects_bracket_oracle(table, action):
    """rho([e_i, e_j]) = [rho e_i, rho e_j] over all n^2 ordered pairs."""
    n, m = len(table), len(action[0])
    for i, j in itertools.product(range(n), repeat=2):
        lhs = [[sum(table[i][j][k] * action[k][r][c] for k in range(n)) for c in range(m)]
               for r in range(m)]
        ab, ba = _dense_mul(action[i], action[j]), _dense_mul(action[j], action[i])
        if lhs != [[x - y for x, y in zip(u, v)] for u, v in zip(ab, ba)]:
            return False
    return True


def _table(n, entries):
    """An n x n table of n-vectors from {(i, j): vector} for i < j, made
    antisymmetric."""
    t = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j), v in entries.items():
        t[i][j] = [Fraction(x) for x in v]
        t[j][i] = [-Fraction(x) for x in v]
    return t


LIE_TABLES = [
    _table(1, {}),
    _table(2, {(0, 1): (0, 1)}),
    _table(3, {(0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0)}),      # sl2
    _table(3, {(0, 1): (0, 0, 1)}),                                             # Heisenberg
    _table(3, {(0, 1): (0, 1, 0), (0, 2): (0, 0, 1)}),
    _table(4, {(0, 1): (0, 2, 0, 0), (0, 2): (0, 0, -2, 0), (1, 2): (1, 0, 0, 0)}),
    _table(4, {}),
]


def _change_basis(table, rng):
    """The same algebra in the basis f_i = e_i + c e_j, for random i != j
    and c: one elementary basis change."""
    n = len(table)
    i, j = rng.sample(range(n), 2)
    c = rng.choice((-2, -1, 1, 2))

    def f(a):   # f_a in e coordinates
        v = _unit(n, a)
        if a == i:
            v[j] += c
        return v

    def to_f(x):   # e coordinates to f coordinates
        y = list(x)
        y[j] -= c * x[i]
        return y

    return [[to_f(_dense_bracket(table, f(a), f(b))) for b in range(n)] for a in range(n)]


def _adjoint(table):
    n = len(table)
    return [[[table[i][c][r] for c in range(n)] for r in range(n)] for i in range(n)]


def test_sorted_lie_checks_decide_as_the_full_loops():
    # The constructors check Jacobi on i < j < k and the module bracket on
    # i < j only.  On random antisymmetric tables and actions, Lie and not,
    # they must accept and reject exactly what the n^3 and n^2 loops do.
    rng = random.Random(16)
    seen = set()
    for _ in range(150):
        if rng.random() < 0.25:
            n = rng.randint(1, 4)
            table = _table(n, {(i, j): [rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)]
                               for i, j in itertools.combinations(range(n), 2)})
        else:
            table = [[list(v) for v in row] for row in rng.choice(LIE_TABLES)]
            n = len(table)
            for _ in range(rng.randint(0, 3) if n > 1 else 0):
                table = _change_basis(table, rng)
            if n > 2 and rng.random() < 0.4:
                a, b = rng.sample(range(n), 2)
                bump = [Fraction(rng.choice((0, 1, -1))) for _ in range(n)]
                table[a][b] = [x + y for x, y in zip(table[a][b], bump)]
                table[b][a] = [x - y for x, y in zip(table[b][a], bump)]
        expected = _is_lie_oracle(table)
        try:
            algebra = LieAlgebra(tuple(tuple(map(tuple, row)) for row in table))
        except ValueError as exc:
            assert not expected and "Jacobi" in str(exc)
            seen.add(("algebra", False))
            continue
        assert expected
        seen.add(("algebra", True))

        if rng.random() < 0.5:
            action = _adjoint(table)
        else:
            # powers of one matrix commute, so they respect the bracket
            # only where rho of every bracket is zero, as on abelian algebras
            m = rng.randint(1, 3)
            base = [[Fraction(rng.randint(-2, 2)) for _ in range(m)] for _ in range(m)]
            action, power = [], [[Fraction(int(r == c)) for c in range(m)] for r in range(m)]
            for _ in range(n):
                power = _dense_mul(power, base)
                action.append(power)
        if rng.random() < 0.5:
            k, r, c = rng.randrange(n), rng.randrange(len(action[0])), rng.randrange(len(action[0]))
            action = [[list(row) for row in mat] for mat in action]
            action[k][r][c] += rng.choice((-1, 1))
        expected = _respects_bracket_oracle(table, action)
        try:
            LieModuleData(algebra, tuple(tuple(map(tuple, mat)) for mat in action))
        except ValueError as exc:
            assert not expected and "respect the bracket" in str(exc)
            seen.add(("module", False))
            continue
        assert expected
        seen.add(("module", True))
    assert seen == {(kind, ok) for kind in ("algebra", "module") for ok in (False, True)}


def test_ce_basis_is_lexicographic():
    assert ce_basis(3, 2) == [(0, 1), (0, 2), (1, 2)]
    assert ce_basis(2, 0) == [()]
    assert ce_basis(2, 3) == []


def test_ce_differential_shapes_and_square():
    m = adjoint_module(sl2())
    dims = [3 * len(ce_basis(3, k)) for k in range(4)]
    assert dims == [3, 9, 9, 3]
    for k in range(3):
        d_k = ce_differential(m, k)
        assert len(d_k) == dims[k + 1]
        assert d_k.ncols == dims[k]
        assert all(0 <= j < dims[k] for row in d_k for j in row)
    assert not any(linalg.product(ce_differential(m, 1), ce_differential(m, 0)))


def test_sl2_adjoint_cohomology_vanishes():
    # semisimple with nontrivial irreducible coefficients: all degrees die
    m = adjoint_module(sl2())
    ranks = [linalg.rank(ce_differential(m, k)) for k in range(3)]
    assert ranks == [3, 6, 3]
    dims = [3, 9, 9, 3]
    h = [
        dims[0] - ranks[0],
        dims[1] - ranks[0] - ranks[1],
        dims[2] - ranks[1] - ranks[2],
        dims[3] - ranks[2],
    ]
    assert h == [0, 0, 0, 0]


def test_trivial_module_over_abelian_has_zero_differentials():
    g = abelian_algebra(3)
    zero = ((0, 0), (0, 0))
    m = LieModuleData(g, (zero, zero, zero))
    for k in range(3):
        assert linalg.rank(ce_differential(m, k)) == 0


# -- subalgebra obstruction -------------------------------------------------------


def zero_mu(h, n):
    return tuple(tuple((0,) * n for _ in range(h)) for _ in range(h))


def test_unperturbed_inclusion_has_zero_obstruction():
    data = FinLieData(solvable3(), ((1, 0, 0), (0, 1, 0)),
                      ((0, 0, 0), (0, 0, 0)), zero_mu(2, 3))
    res = lie_subalgebra_obstruction(data)
    assert res.quotient_dim == 1
    assert res.is_cocycle and res.vanishes
    assert res.cocycle == ((0,),)
    assert res.corrector == ((0,), (0,))


def test_rigid_pair_blocks_the_obstruction():
    # H = span(e0, e1) in the solvable algebra; the quotient action makes
    # every 1-cochain closed, so a nonzero class can never be absorbed
    mu = [[(0, 0, 0)] * 2 for _ in range(2)]
    mu[0][1] = (0, 0, 1)
    mu[1][0] = (0, 0, -1)
    data = FinLieData(solvable3(), ((1, 0, 0), (0, 1, 0)),
                      ((0, 0, 0), (0, 0, 0)), tuple(map(tuple, mu)))
    res = lie_subalgebra_obstruction(data)
    assert res.is_cocycle
    assert res.cocycle == ((1,),)
    assert not res.vanishes
    assert res.corrector is None


def test_perturbation_cannot_rescue_the_rigid_pair():
    mu = [[(0, 0, 0)] * 2 for _ in range(2)]
    mu[0][1] = (0, 0, 1)
    mu[1][0] = (0, 0, -1)
    data = FinLieData(solvable3(), ((1, 0, 0), (0, 1, 0)),
                      ((0, 0, 1), (0, 0, 2)), tuple(map(tuple, mu)))
    res = lie_subalgebra_obstruction(data)
    assert not res.vanishes


def test_borel_pair_absorbs_the_obstruction():
    g = sl2()
    mu = [[(0, 0, 0)] * 2 for _ in range(2)]
    mu[0][1] = (0, 0, 1)     # mu(h, e) = f
    mu[1][0] = (0, 0, -1)
    data = FinLieData(g, borel_in_sl2(), ((0, 0, 0), (0, 0, 0)),
                      tuple(map(tuple, mu)))
    res = lie_subalgebra_obstruction(data)
    assert res.quotient_dim == 1
    assert res.cocycle == ((1,),)
    assert res.is_cocycle and res.vanishes
    # delta(corrector)(h, e) = -4 * corrector(e) must hit the class
    assert res.corrector == ((0,), (Fraction(-1, 4),))


def test_one_dimensional_subalgebra_gets_a_zero_corrector_of_full_width():
    # no pairs, so no cocycle; the corrector is still one quotient vector
    data = FinLieData(sl2(), ((0, 1, 0),), ((0, 0, 0),), zero_mu(1, 3))
    res = lie_subalgebra_obstruction(data)
    assert res.quotient_dim == 2
    assert res.cocycle == ()
    assert res.is_cocycle and res.vanishes
    assert res.corrector == ((0, 0),)


def test_full_subalgebra_gives_trivial_quotient():
    g = sl2()
    data = FinLieData(g, ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                      ((0, 0, 0),) * 3, zero_mu(3, 3))
    res = lie_subalgebra_obstruction(data)
    assert res.quotient_dim == 0
    assert res.vanishes


def test_non_subalgebra_is_rejected():
    g = sl2()
    with pytest.raises(ValueError, match="sub basis does not span a subalgebra"):
        FinLieData(g, ((0, 1, 0), (0, 0, 1)), ((0, 0, 0),) * 2, zero_mu(2, 3))


def test_non_antisymmetric_mu_is_rejected():
    mu = [[(0, 0, 0)] * 2 for _ in range(2)]
    mu[0][1] = (0, 0, 1)
    with pytest.raises(ValueError):
        FinLieData(solvable3(), ((1, 0, 0), (0, 1, 0)),
                   ((0, 0, 0),) * 2, tuple(map(tuple, mu)))


def test_mu_must_satisfy_linearized_jacobi():
    g = sl2()
    h = 3
    mu = [[(0, 0, 0)] * h for _ in range(h)]
    mu[0][1] = (1, 0, 0)     # mu(h, e) = h fails the identity on (h, e, f)
    mu[1][0] = (-1, 0, 0)
    with pytest.raises(ValueError, match="mu violates the linearized Jacobi identity"):
        FinLieData(g, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 0, 0),) * h, tuple(map(tuple, mu)))


# -- Cech leaf data: construction and matrices --------------------------------------


def triangle_data():
    m0 = [[1, 0], [0, 1], [1, 1]]
    m1 = [[1, 1, -1]]
    return constant_cover([m0, m1], n_opens=3)


def zeros(rows, cols):
    return [[Fraction(0)] * cols for _ in range(rows)]


def dense(m):
    """A cover matrix (linalg.SparseRows) as dense rows."""
    return [[row.get(j, Fraction(0)) for j in range(m.ncols)] for row in m]


def test_constant_cover_shape():
    data = triangle_data()
    assert data.opens == ("U0", "U1", "U2")
    assert data.pairs == ((0, 1), (0, 2), (1, 2))
    assert data.triples == ((0, 1, 2),)
    assert data.n_rows == 3
    assert data.dims[(0,)] == (2, 3, 1)


def test_cech_matrix_signs():
    data = triangle_data()
    # row 2 has one coordinate per simplex, so the matrices are the plain
    # simplicial difference maps of the full triangle
    d0 = data.cech_matrix(0, 2)
    assert d0 == [{0: -1, 1: 1}, {0: -1, 2: 1}, {1: -1, 2: 1}]
    assert d0.ncols == 3
    d1 = data.cech_matrix(1, 2)
    assert d1 == [{0: 1, 1: -1, 2: 1}]
    assert not any(linalg.product(d1, d0))


def test_total_square_is_zero():
    data = triangle_data()
    for n in range(data.max_total_degree):
        a = data.total_matrix(n + 1)
        b = data.total_matrix(n)
        if a and b:
            assert not any(linalg.product(a, b))


def test_total_components_ordering():
    data = triangle_data()
    comps = data.total_components(2)
    assert comps == [(2, 0), (1, 1), (0, 2)]


def test_validation_missing_restriction():
    data = triangle_data()
    restr = dict(data.restrictions)
    del restr[((0,), (0, 1))]
    with pytest.raises(ValueError):
        CechLeafData(data.opens, data.pairs, data.triples, data.dims, restr, data.ce)


def test_validation_rejects_non_chain_map_restrictions():
    data = triangle_data()
    restr = dict(data.restrictions)
    bad = [[dict(row) for row in m] for m in restr[((0,), (0, 1))]]
    bad[0][0][0] = Fraction(2)   # breaks ce . R = R . ce in row 0
    restr[((0,), (0, 1))] = tuple(tuple(m) for m in bad)
    with pytest.raises(ValueError, match="does not commute"):
        CechLeafData(data.opens, data.pairs, data.triples, data.dims, restr, data.ce)


def test_validation_rejects_restrictions_that_disagree_between_routes():
    # one row and no differential, so every restriction is a chain map
    pairs = ((0, 1), (0, 2), (1, 2))
    triples = ((0, 1, 2),)
    dims = {s: (1,) for s in ((0,), (1,), (2,)) + pairs + triples}
    ce = {s: () for s in dims}
    restr = {((i,), p): ([[1]],) for p in pairs for i in p}
    restr.update({(f, (0, 1, 2)): ([[1]],) for f in pairs})
    CechLeafData(("U0", "U1", "U2"), pairs, triples, dims, restr, ce)
    # U0 -> U0|U1 -> U0|U1|U2 now doubles, U0 -> U0|U2 -> U0|U1|U2 does not
    restr[((0, 1), (0, 1, 2))] = ([[2]],)
    with pytest.raises(ValueError, match=r"to \(0, 1, 2\) from \(0,\) disagree between routes"):
        CechLeafData(("U0", "U1", "U2"), pairs, triples, dims, restr, ce)


def test_validation_multiplies_each_distinct_block_object():
    # a face given its own copy of the shared identity tuple keeps the copy's
    # dict rows as its blocks, and a doubled copy is caught on the routes
    data = triangle_data()
    shared = data.restrictions[((0,), (0, 1))][0]
    assert all(mats[0] is shared for mats in data.restrictions.values())
    restr = dict(data.restrictions)
    face = ((0, 1), (0, 1, 2))
    restr[face] = tuple(tuple(dict(row) for row in block) for block in restr[face])
    again = CechLeafData(data.opens, data.pairs, data.triples, data.dims, restr, data.ce)
    assert again.restrictions[face][0] is restr[face][0]
    # twice the identity commutes with every differential but breaks the routes
    restr[face] = tuple(tuple({j: 2 * x for j, x in row.items()} for row in block)
                        for block in restr[face])
    with pytest.raises(ValueError, match="disagree between routes"):
        CechLeafData(data.opens, data.pairs, data.triples, data.dims, restr, data.ce)


def test_constant_cover_keeps_one_ce_tuple_and_one_restriction_tuple():
    # a tuple shared on the way in is converted once and stays shared
    for n in range(3, 7):
        data = constant_cover(ROW_COMPLEXES[0], n)
        ce = data.ce[(0,)]
        assert all(data.ce[s] is ce for p in range(3) for s in data.simplices(p)), n
        eye = data.restrictions[((0,), (0, 1))]
        assert all(mats is eye for mats in data.restrictions.values()), n


def test_constant_cover_validation_multiplies_as_often_for_every_size(monkeypatch):
    # one ce tuple and one restriction tuple, each checked once, whatever the
    # number of opens: the count of products does not grow with the cover
    counts = []
    for n in range(3, 7):
        calls = []
        product = linalg.product
        monkeypatch.setattr(linalg, "product", lambda a, b: calls.append(1) or product(a, b))
        constant_cover(ROW_COMPLEXES[0], n)
        monkeypatch.undo()
        counts.append(len(calls))
    assert counts[0] > 0 and len(set(counts)) == 1, counts


def test_validation_refuses_a_negative_dimension_before_reading_blocks():
    # an empty block fits any shape check, so only the dims can refuse these;
    # the second simplex has no matrices at all, and its dims are read first
    for dims in ((-2,), (-1, 0), (0, -1)):
        ce = {(0,): ((),) * (len(dims) - 1)}
        with pytest.raises(ValueError, match=r"negative dimension for simplex \(0,\)"):
            CechLeafData(("U0",), (), (), {(0,): dims}, {}, ce)
    dims = {(0,): (1,), (1,): (-1,), (0, 1): (1,)}
    with pytest.raises(ValueError, match=r"negative dimension for simplex \(1,\)"):
        CechLeafData(("U0", "U1"), ((0, 1),), (), dims, {}, {})


def test_validation_finds_the_one_wrong_face_among_shared_blocks():
    # every face of a 5-open constant cover shares one identity per row, so
    # the comparisons repeat; one face with its own wrong block must still
    # be found, and named, wherever it sits in the loop
    data = constant_cover(ROW_COMPLEXES[0], 5)
    faces = list(data.restrictions)
    eye = data.restrictions[faces[0]]
    assert all(data.restrictions[f][q] is eye[q] for f in faces for q in range(3))
    for face in (faces[0], faces[len(faces) // 2], faces[-1]):
        restr = dict(data.restrictions)
        # twice the identity in row 0 only: the differential out of row 0
        # no longer commutes, every other row block is the shared one
        restr[face] = (tuple({j: 2 * x for j, x in row.items()} for row in eye[0]),) + eye[1:]
        with pytest.raises(ValueError, match=r"restriction %s -> %s does not commute" % tuple(
                map(re.escape, map(repr, face)))):
            CechLeafData(data.opens, data.pairs, data.triples, data.dims, restr, data.ce)


def test_validation_finds_the_one_wrong_route_among_shared_blocks():
    # twice the identity in every row commutes with the differentials, so
    # only the routes through that face disagree; the first triple checked
    # that uses it is named, with the vertex the face starts from
    data = constant_cover(ROW_COMPLEXES[0], 5)
    eye = data.restrictions[((0,), (0, 1))]
    twice = tuple(tuple({j: 2 * x for j, x in row.items()} for row in block) for block in eye)
    for face, triple, vertex in ((((0, 1), (0, 1, 2)), "(0, 1, 2)", "(0,)"),
                                 (((1, 3), (1, 3, 4)), "(1, 3, 4)", "(1,)"),
                                 (((3, 4), (2, 3, 4)), "(2, 3, 4)", "(3,)")):
        restr = dict(data.restrictions)
        restr[face] = twice
        with pytest.raises(ValueError, match=r"to %s from %s disagree between routes" % (
                re.escape(triple), re.escape(vertex))):
            CechLeafData(data.opens, data.pairs, data.triples, data.dims, restr, data.ce)


def test_validation_rejects_broken_row_complex():
    m0 = [[1, 0], [0, 1], [1, 1]]
    m1 = [[1, 0, 0]]   # m1 . m0 != 0
    with pytest.raises(ValueError):
        constant_cover([m0, m1], n_opens=3)


def test_validation_names_the_simplex_of_a_bad_row_complex():
    m0 = [[1, 0], [0, 1], [1, 1]]
    with pytest.raises(ValueError, match=r"row differential does not square to zero on \(0,\)"):
        constant_cover([m0, [[1, 1, 1]]], 3)
    with pytest.raises(ValueError, match=r"ce matrix on \(0,\) has the wrong shape"):
        constant_cover([m0, [[1, 1]]], 3)


def test_validation_checks_a_shared_block_at_each_shape():
    # one row and no differential; U1 has two coordinates, the others one
    dims = {(0,): (1,), (1,): (2,), (0, 1): (1,)}
    ce = {s: () for s in dims}
    inclusion = [[1]]   # fits U0 -> U0|U1, not U1 -> U0|U1
    restr = {((0,), (0, 1)): (inclusion,), ((1,), (0, 1)): ([[1, 0]],)}
    data = CechLeafData(("U0", "U1"), ((0, 1),), (), dims, restr, ce)
    assert data.restrictions[((0,), (0, 1))][0] == ({0: 1},)
    restr[((1,), (0, 1))] = (inclusion,)
    with pytest.raises(ValueError, match=r"restriction matrix on \(0, 1\) has the wrong shape"):
        CechLeafData(("U0", "U1"), ((0, 1),), (), dims, restr, ce)


def block_values(data):
    """Every entry of every ce and restriction block of a cover."""
    blocks = [m for mats in data.ce.values() for m in mats]
    blocks += [m for mats in data.restrictions.values() for m in mats]
    return [x for m in blocks for row in m for x in row.values()]


def test_constant_cover_keeps_integral_entries_as_ints():
    ints = [[[1, 0], [0, 1], [1, 1]], [[1, 1, -1]]]
    covers = [constant_cover(mats, 4) for mats in (
        ints,
        [[[Fraction(x) for x in row] for row in m] for m in ints],
        [[[str(x) for x in row] for row in m] for m in ints],   # "0" is dropped
    )]
    for data in covers:
        assert data == covers[0]
        assert all(type(x) is int for x in block_values(data))
        for n in range(-1, data.max_total_degree + 2):
            assert data.total_matrix(n) == covers[0].total_matrix(n)
            assert all(type(x) is int for row in data.total_matrix(n) for x in row.values())
    halves = constant_cover([[[Fraction(1, 2)], ["2/2"]], [["-4/1", 2]]], 3)
    assert follows_the_rule(block_values(halves))
    assert halves.ce[(0,)] == (({0: Fraction(1, 2)}, {0: 1}), ({0: -4, 1: 2},))


def test_window_cover_mixes_int_and_fraction_blocks():
    for window in (2, 4, 8):
        half = p1_window_cover((0, 2), window, [[Fraction(1, 2), 1, 1]])
        whole = p1_window_cover((0, 2), window, [[1, 2, 2]])
        # the cokernel of a quadric, a length-2 torsion sheaf, in degree 1
        assert leaf_complex_hypercohomology(half) == leaf_complex_hypercohomology(whole) == (
            0, 2, 0, 0)
        assert follows_the_rule(block_values(half))
        assert Fraction(1, 2) in block_values(half)
        assert all(type(x) is int for x in block_values(whole))


# -- hypercohomology -----------------------------------------------------------------


def test_contractible_nerve_sees_only_the_row_complex():
    # the triangle nerve is contractible and the row complex is exact
    assert leaf_complex_hypercohomology(triangle_data()) == (0, 0, 0, 0, 0)


def test_row_complex_with_kernel_and_cokernel():
    data = constant_cover([[[0, 0]]], n_opens=3)
    assert leaf_complex_hypercohomology(data) == (2, 1, 0, 0)


def test_twisted_tangent_windows_are_window_independent():
    for w in (2, 3, 4):
        data = p1_window_cover((2,), w, ())
        assert leaf_complex_hypercohomology(data) == (3, 0, 0)


def test_negative_line_bundle_window():
    data = p1_window_cover((-3,), 4, ())
    assert leaf_complex_hypercohomology(data) == (0, 2, 0)


def test_two_row_multiplication_complex():
    for poly in ([0, 1], [1, 1]):
        data = p1_window_cover((0, 1), 3, [poly])
        assert leaf_complex_hypercohomology(data) == (0, 1, 0, 0)


def test_three_row_window_complex():
    data = p1_window_cover((0, 0, 1), 3, [[0], [0, 1]])
    assert leaf_complex_hypercohomology(data) == (1, 0, 1, 0, 0)


def test_window_cover_validation():
    with pytest.raises(ValueError):
        p1_window_cover((1, 0), 3, [[0]])      # first degree not minimal
    with pytest.raises(ValueError):
        p1_window_cover((0, 1), 0, [[1]])      # window too small
    with pytest.raises(ValueError):
        p1_window_cover((0, 1), 3, [[0, 0, 5]])  # multiplier degree above gap
    with pytest.raises(ValueError):
        p1_window_cover((0, 1), 3, [])         # missing multiplier


# -- obstruction triples ---------------------------------------------------------------


RHO = [[1, 2], [0, 1], [3, -1]]
HBAR = [[1, 0, 2], [0, 0, 1], [1, 1, 1]]


def test_coboundary_triples_satisfy_all_equations():
    data = triangle_data()
    theta, gbar, bbar = coboundary_triple(data, RHO, HBAR)
    report = verify_obstruction_cocycle(data, theta, gbar, bbar)
    assert report.equations == (True, True, True, True)
    assert report.is_cocycle and report.is_coboundary
    rho2, hbar2 = report.corrector
    again = coboundary_triple(data, rho2, hbar2)
    assert again == (theta, gbar, bbar)


def test_single_entry_perturbations_are_detected():
    data = triangle_data()
    theta, gbar, bbar = coboundary_triple(data, RHO, HBAR)
    layers = [list(map(list, theta)), list(map(list, gbar)), list(map(list, bbar))]
    for li, layer in enumerate(layers):
        for si, vec in enumerate(layer):
            for ci in range(len(vec)):
                bumped = [list(map(list, l)) for l in layers]
                bumped[li][si][ci] += 1
                report = verify_obstruction_cocycle(data, *bumped)
                assert not report.is_cocycle, (li, si, ci)


def test_perturbed_gbar_breaks_the_two_middle_equations():
    data = triangle_data()
    theta, gbar, bbar = coboundary_triple(data, RHO, HBAR)
    bad = list(map(list, gbar))
    bad[1][0] += 1
    report = verify_obstruction_cocycle(data, theta, bad, bbar)
    assert report.equations == (True, False, False, True)


def test_a_triple_that_fails_an_equation_is_no_coboundary_without_a_solve(monkeypatch):
    # a coboundary satisfies every equation, so a failed one decides
    # is_coboundary; only cocycles reach linalg.solve
    data = triangle_data()
    theta, gbar, bbar = coboundary_triple(data, RHO, HBAR)
    bad = list(map(list, gbar))
    bad[1][0] += 1

    def no_solve(*args):
        raise AssertionError("solved a system the equations already decide")

    monkeypatch.setattr(linalg, "solve", no_solve)
    report = verify_obstruction_cocycle(data, theta, bad, bbar)
    assert report.equations == (True, False, False, True)
    assert (report.is_cocycle, report.is_coboundary, report.corrector) == (False, False, None)
    layers = [list(map(list, theta)), list(map(list, gbar)), list(map(list, bbar))]
    for li, layer in enumerate(layers):
        for si, vec in enumerate(layer):
            for ci in range(len(vec)):
                bumped = [list(map(list, l)) for l in layers]
                bumped[li][si][ci] += 1
                report = verify_obstruction_cocycle(data, *bumped)
                assert (report.is_cocycle, report.is_coboundary, report.corrector) == (
                    False, False, None), (li, si, ci)
    with pytest.raises(AssertionError, match="already decide"):
        verify_obstruction_cocycle(data, theta, gbar, bbar)


def test_verify_rejects_short_complexes():
    data = p1_window_cover((0, 1), 3, [[0, 1]])
    with pytest.raises(ValueError):
        verify_obstruction_cocycle(data, [], [[0] * data.row_dim((0, 1), 1)], [[0], [0]])


def test_verify_rejects_wrong_shapes():
    data = triangle_data()
    theta, gbar, bbar = coboundary_triple(data, RHO, HBAR)
    with pytest.raises(ValueError):
        verify_obstruction_cocycle(data, theta, gbar[:-1], bbar)
    with pytest.raises(ValueError):
        verify_obstruction_cocycle(data, theta, gbar, [v[:-1] for v in bbar])


def test_non_coboundary_cocycle_is_reported():
    # a 2-row x constant complex cannot host triples, so build 3 rows with a
    # nontrivial total H^2 and pick a cocycle outside the image
    m0 = [[0, 0]]
    m1 = [[0]]
    data = constant_cover([m0, m1], n_opens=3)
    dims = leaf_complex_hypercohomology(data)
    assert dims[2] > 0
    # assemble D2 and pick a kernel vector not in the image of D1
    d2 = data.total_matrix(2)
    d1 = data.total_matrix(1)
    kernel = linalg.nullspace(d2)
    target = None
    for v in kernel:
        if linalg.solve(d1, v) is None:
            target = v
            break
    assert target is not None
    t_dim = data.space_dim(2, 0)
    g_dim = data.space_dim(1, 1)
    theta = []
    pos = 0
    for t in data.triples:
        d = data.row_dim(t, 0)
        theta.append(target[pos:pos + d])
        pos += d
    gbar = []
    for p in data.pairs:
        d = data.row_dim(p, 1)
        gbar.append(target[pos:pos + d])
        pos += d
    bbar = []
    for i in range(len(data.opens)):
        d = data.row_dim((i,), 2)
        bbar.append(target[pos:pos + d])
        pos += d
    report = verify_obstruction_cocycle(data, theta, gbar, bbar)
    assert report.is_cocycle
    assert not report.is_coboundary
    assert report.corrector is None


def test_equation_four_sees_the_top_row():
    data = constant_cover([[[1, 0], [0, 1], [1, 1]], [[0, 0, 0]], [[1]]], 3)
    theta, gbar, bbar = coboundary_triple(data, RHO, HBAR)
    # a constant section keeps the Cech part at zero but leaves row 2 -> 3
    bumped = [[x + 1 for x in v] for v in bbar]
    report = verify_obstruction_cocycle(data, theta, gbar, bumped)
    assert report.equations == (True, True, True, False)
    assert not report.is_cocycle


def test_cover_without_triples():
    data = p1_window_cover((0, 1, 2), 3, [[0, 1], [0]])
    rho = [[1] * data.row_dim((0, 1), 0)]
    hbar = [[1] * data.row_dim((0,), 1), [2] * data.row_dim((1,), 1)]
    theta, gbar, bbar = coboundary_triple(data, rho, hbar)
    assert theta == ()
    report = verify_obstruction_cocycle(data, theta, gbar, bbar)
    assert report.equations == (True, True, True, True)
    assert report.is_coboundary
    assert coboundary_triple(data, *report.corrector) == (theta, gbar, bbar)


# -- the block assembler against the placement loops it replaced -------------------


def _ref_offsets(data, p, q):
    out = {}
    pos = 0
    for s in data.simplices(p):
        out[s] = pos
        pos += data.row_dim(s, q)
    return out


def _ref_cech_matrix(data, p, q):
    rows = data.space_dim(p + 1, q)
    cols = data.space_dim(p, q)
    out = zeros(rows, cols)
    if rows == 0 or cols == 0:
        return out
    src_off = _ref_offsets(data, p, q)
    dst_off = _ref_offsets(data, p + 1, q)
    for simplex in data.simplices(p + 1):
        for omit in range(len(simplex)):
            face = simplex[:omit] + simplex[omit + 1:]
            sign = (-1) ** omit
            mat = data.restrictions[(face, simplex)][q]
            r0 = dst_off[simplex]
            c0 = src_off[face]
            for r, row in enumerate(mat):
                for c, x in row.items():
                    out[r0 + r][c0 + c] += sign * x
    return out


def _ref_ce_matrix(data, p, q):
    rows = data.space_dim(p, q + 1)
    cols = data.space_dim(p, q)
    out = zeros(rows, cols)
    if rows == 0 or cols == 0:
        return out
    src_off = _ref_offsets(data, p, q)
    dst_off = _ref_offsets(data, p, q + 1)
    for simplex in data.simplices(p):
        mat = data.ce[simplex][q]
        r0 = dst_off[simplex]
        c0 = src_off[simplex]
        for r, row in enumerate(mat):
            for c, x in row.items():
                out[r0 + r][c0 + c] = x
    return out


def _ref_total_matrix(data, n):
    src = data.total_components(n)
    dst = data.total_components(n + 1)
    out = zeros(data.total_dim(n + 1), data.total_dim(n))
    col_off = {}
    pos = 0
    for (p, q) in src:
        col_off[(p, q)] = pos
        pos += data.space_dim(p, q)
    row_off = {}
    pos = 0
    for (p, q) in dst:
        row_off[(p, q)] = pos
        pos += data.space_dim(p, q)
    for (p, q) in src:
        blocks = []
        if (p + 1, q) in row_off:
            blocks.append(((p + 1, q), _ref_cech_matrix(data, p, q), 1))
        if (p, q + 1) in row_off:
            blocks.append(((p, q + 1), _ref_ce_matrix(data, p, q), (-1) ** p))
        for key, mat, sign in blocks:
            r0 = row_off[key]
            c0 = col_off[(p, q)]
            for r in range(len(mat)):
                for c in range(len(mat[0]) if mat else 0):
                    if mat[r][c]:
                        out[r0 + r][c0 + c] += sign * mat[r][c]
    return out


ROW_COMPLEXES = [
    [[[1, 0], [0, 1], [1, 1]], [[1, 1, -1]]],
    [[[0, 0]], [[0]]],
    [[[1, 0], [0, 1], [1, 1]], [[0, 0, 0]], [[1]]],
    [[[1], [2]], [[2, -1], [4, -2]], [[2, -1]]],
]


def assembler_covers():
    for mats in ROW_COMPLEXES:
        for n_opens in (3, 4, 5):
            yield constant_cover(mats, n_opens)
    yield p1_window_cover((0, 1, 2), 3, [[0, 1], [0]])
    yield p1_window_cover((0, 0, 1), 3, [[0], [0, 1]])
    yield p1_window_cover((-1, 1, 2, 2), 2, [[1, 0, 1], [0], [2]])


def test_assembler_matches_the_placement_loops():
    for data in assembler_covers():
        rows = data.n_rows
        for p in range(-1, 4):
            for q in range(-1, rows + 1):
                assert dense(data.cech_matrix(p, q)) == _ref_cech_matrix(data, p, q), (p, q)
                assert dense(data.ce_matrix(p, q)) == _ref_ce_matrix(data, p, q), (p, q)
        for n in range(-1, data.max_total_degree + 2):
            assert dense(data.total_matrix(n)) == _ref_total_matrix(data, n), n


def test_ordered_rank_matches_lowest_column_first_on_covers():
    covers = [p1_window_cover((0, 3), w, [[1, 0, 2, 1]]) for w in (4, 8, 16, 32, 64, 128, 256)]
    covers += [constant_cover(ROW_COMPLEXES[0], n) for n in range(2, 7)]
    for data in covers:
        for n in range(data.max_total_degree + 1):
            m = data.total_matrix(n)
            assert linalg.rank(m) == len(linalg.echelon(m, m.ncols, reduced=False)), n


def test_split_inverts_the_flat_layout():
    data = p1_window_cover((0, 1, 2), 3, [[0, 1], [0]])
    comps = data.total_components(2)
    flat = [Fraction(k) for k in range(data.total_dim(2))]
    parts = data.split(flat, comps)
    assert len(parts) == len(comps)
    assert [x for part in parts for v in part for x in v] == flat
    for (p, q), part in zip(comps, parts):
        assert len(part) == len(data.simplices(p))
        assert [len(v) for v in part] == [data.row_dim(s, q) for s in data.simplices(p)]
