"""Chevalley-Eilenberg calculus and the two-level obstruction complex."""

import itertools
from fractions import Fraction

import pytest

from logfol import linalg
from logfol.leafcomplex import (
    CechLeafData,
    FinLieData,
    LieAlgebra,
    LieModuleData,
    abelian_algebra,
    adjoint_module,
    ce_basis,
    ce_differential,
    coboundary_triple,
    constant_cover,
    leaf_complex_hypercohomology,
    lie_subalgebra_obstruction,
    p1_window_cover,
    verify_obstruction_cocycle,
)


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
    assert [Fraction(c) for c in direct] == via_adjoint


def test_module_validation_checks_equivariance():
    g = abelian_algebra(2)
    # rho(e0), rho(e1) must commute for an abelian algebra
    bad = (((0, 1), (0, 0)), ((0, 0), (1, 0)))
    with pytest.raises(ValueError):
        LieModuleData(g, bad)
    good = (((1, 0), (0, 2)), ((3, 0), (0, 4)))
    LieModuleData(g, good)


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
        assert all(len(row) == dims[k] for row in d_k)
    comp = linalg.mat_mul(ce_differential(m, 1), ce_differential(m, 0))
    assert linalg.is_zero_mat(comp)


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
    m = LieModuleData(g, (linalg.zeros(2, 2), linalg.zeros(2, 2), linalg.zeros(2, 2)))
    for k in range(3):
        assert linalg.is_zero_mat(ce_differential(m, k))


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


def test_full_subalgebra_gives_trivial_quotient():
    g = sl2()
    data = FinLieData(g, ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                      ((0, 0, 0),) * 3, zero_mu(3, 3))
    res = lie_subalgebra_obstruction(data)
    assert res.quotient_dim == 0
    assert res.vanishes


def test_non_subalgebra_is_rejected():
    g = sl2()
    with pytest.raises(ValueError):
        lie_subalgebra_obstruction(
            FinLieData(g, ((0, 1, 0), (0, 0, 1)), ((0, 0, 0),) * 2, zero_mu(2, 3))
        )


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
    data = FinLieData(g, ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                      ((0, 0, 0),) * h, tuple(map(tuple, mu)))
    with pytest.raises(ValueError):
        lie_subalgebra_obstruction(data)


# -- Cech leaf data: construction and matrices --------------------------------------


def triangle_data():
    m0 = [[1, 0], [0, 1], [1, 1]]
    m1 = [[1, 1, -1]]
    return constant_cover([m0, m1], n_opens=3)


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
    assert d0 == [
        [Fraction(-1), Fraction(1), Fraction(0)],
        [Fraction(-1), Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(-1), Fraction(1)],
    ]
    d1 = data.cech_matrix(1, 2)
    assert d1 == [[Fraction(1), Fraction(-1), Fraction(1)]]
    assert linalg.is_zero_mat(linalg.mat_mul(d1, d0))


def test_total_square_is_zero():
    data = triangle_data()
    for n in range(data.max_total_degree):
        a = data.total_matrix(n + 1)
        b = data.total_matrix(n)
        if a and b:
            assert linalg.is_zero_mat(linalg.mat_mul(a, b))


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
    bad = [list(map(list, m)) for m in restr[((0,), (0, 1))]]
    bad[0][0][0] = Fraction(2)   # breaks ce . R = R . ce in row 0
    restr[((0,), (0, 1))] = tuple(tuple(map(tuple, m)) for m in bad)
    with pytest.raises(ValueError):
        CechLeafData(data.opens, data.pairs, data.triples, data.dims, restr, data.ce)


def test_validation_rejects_broken_row_complex():
    m0 = [[1, 0], [0, 1], [1, 1]]
    m1 = [[1, 0, 0]]   # m1 . m0 != 0
    with pytest.raises(ValueError):
        constant_cover([m0, m1], n_opens=3)


# -- hypercohomology -----------------------------------------------------------------


def test_contractible_nerve_sees_only_the_row_complex():
    # the triangle nerve is contractible and the row complex is exact
    assert leaf_complex_hypercohomology(triangle_data()) == (0, 0, 0, 0, 0)


def test_row_complex_with_kernel_and_cokernel():
    data = constant_cover([[[0, 0]]], n_opens=3)
    assert leaf_complex_hypercohomology(data) == (2, 1, 0, 0)


def test_twisted_tangent_windows_are_window_independent():
    for w in (2, 3, 4):
        data = p1_window_cover((2,), w)
        assert leaf_complex_hypercohomology(data) == (3, 0, 0)


def test_negative_line_bundle_window():
    data = p1_window_cover((-3,), 4)
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
    out = linalg.zeros(rows, cols)
    if rows == 0 or cols == 0:
        return out
    src_off = _ref_offsets(data, p, q)
    dst_off = _ref_offsets(data, p + 1, q)
    for simplex in data.simplices(p + 1):
        for omit in range(len(simplex)):
            face = simplex[:omit] + simplex[omit + 1:]
            sign = (-1) ** omit
            mat = data.restriction(face, simplex, q)
            r0 = dst_off[simplex]
            c0 = src_off[face]
            for r in range(len(mat)):
                for c in range(len(mat[0]) if mat else 0):
                    if mat[r][c]:
                        out[r0 + r][c0 + c] += sign * mat[r][c]
    return out


def _ref_ce_matrix(data, p, q):
    rows = data.space_dim(p, q + 1)
    cols = data.space_dim(p, q)
    out = linalg.zeros(rows, cols)
    if rows == 0 or cols == 0:
        return out
    src_off = _ref_offsets(data, p, q)
    dst_off = _ref_offsets(data, p, q + 1)
    for simplex in data.simplices(p):
        mat = data.ce[simplex][q]
        r0 = dst_off[simplex]
        c0 = src_off[simplex]
        for r in range(len(mat)):
            for c in range(len(mat[0]) if mat else 0):
                if mat[r][c]:
                    out[r0 + r][c0 + c] = mat[r][c]
    return out


def _ref_total_matrix(data, n):
    src = data.total_components(n)
    dst = data.total_components(n + 1)
    out = linalg.zeros(data.total_dim(n + 1), data.total_dim(n))
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
                assert data.cech_matrix(p, q) == _ref_cech_matrix(data, p, q), (p, q)
                assert data.ce_matrix(p, q) == _ref_ce_matrix(data, p, q), (p, q)
        for n in range(-1, data.max_total_degree + 2):
            assert data.total_matrix(n) == _ref_total_matrix(data, n), n


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
