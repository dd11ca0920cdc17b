"""Exact linear algebra over the rationals and integer lattices.

linalg takes matrices as {column: value} rows only.  Its sparse
elimination engine is checked against the dense Gauss-Jordan elimination it
replaced, kept below as a reference that works on dense rows, and against
sympy's rref where sympy is installed: echelon's reduced basis, one
primitive integer row per pivot, is the reduced row echelon form once each
row is divided by its pivot.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from logfol import linalg

from reference import inverse, nullspace, solve


# -- dense reference elimination -----------------------------------------


def nonzeros(row):
    """The {column: value} row of the nonzero entries of a dense row."""
    return {j: v for j, v in enumerate(row) if v}


def exact(rows):
    """A dense matrix of Fractions from rows of ints or strings."""
    return [[Fraction(x) for x in row] for row in rows]


def as_basis(r, pivots):
    """A dense (R, pivots) reduced form as echelon's {pivot: row} basis."""
    return {col: nonzeros(r[i]) for i, col in enumerate(pivots)}


def width(a):
    return len(a[0]) if a else 0


def sparse(a):
    """A dense matrix as {column: value} rows."""
    return [nonzeros(row) for row in a]


def monic(basis):
    """echelon's basis with each row divided by its pivot, as Fractions."""
    return {col: {j: Fraction(v, row[col]) for j, v in row.items()}
            for col, row in basis.items()}


def assert_primitive(basis):
    """Every basis row holds ints with gcd 1 and a positive pivot, its least column."""
    for col, row in basis.items():
        assert all(type(v) is int for v in row.values())
        assert min(row) == col and row[col] > 0
        assert math.gcd(*row.values()) == 1


def dense_rref(a):
    """Dense Gauss-Jordan elimination over Fraction. Returns (R, pivots)."""
    r = [row[:] for row in a]
    m = len(r)
    n = len(r[0]) if m else 0
    pivots = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        sel = None
        for i in range(row, m):
            if r[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        r[row], r[sel] = r[sel], r[row]
        inv = Fraction(1) / r[row][col]
        r[row] = [x * inv for x in r[row]]
        for i in range(m):
            if i != row and r[i][col] != 0:
                c = r[i][col]
                r[i] = [x - c * y for x, y in zip(r[i], r[row])]
        pivots.append(col)
        row += 1
    return r, pivots


def dense_solve(a, b):
    n = len(a[0]) if a else 0
    r, pivots = dense_rref([a[i][:] + [Fraction(b[i])] for i in range(len(a))])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        x[col] = r[i][n]
    return x


def dense_nullspace(a):
    n = len(a[0]) if a else 0
    r, pivots = dense_rref(a)
    basis = []
    for f in (j for j in range(n) if j not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, col in enumerate(pivots):
            v[col] = -r[i][f]
        basis.append(v)
    return basis


@st.composite
def sparse_matrix(draw, max_rows=7, max_cols=7, min_rows=0, min_cols=0):
    """m x n rationals, each entry zero with a drawn probability up to 95%."""
    m = draw(st.integers(min_rows, max_rows))
    n = draw(st.integers(min_cols, max_cols))
    zero_pct = draw(st.sampled_from([0, 30, 60, 80, 90, 95]))
    nonzero = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool)
    return [[draw(nonzero) if draw(st.integers(0, 99)) >= zero_pct else Fraction(0)
             for _ in range(n)] for _ in range(m)]


fractions = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
)


def small_matrix(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(fractions, min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )


def det3(a):
    # cofactor expansion, used as an independent oracle for small inverses
    n = len(a)
    if n == 1:
        return a[0][0]
    total = Fraction(0)
    sign = 1
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        total += sign * a[0][j] * det3(minor)
        sign = -sign
    return total


# -- reduced echelon form / rank / solve ------------------------------------------------


def test_rref_known_matrix():
    a = sparse(exact([[1, 2, 3], [2, 4, 7], [1, 2, 4]]))
    basis = linalg.echelon(a)
    assert monic(basis) == {0: {0: 1, 1: 2}, 2: {2: 1}}
    assert_primitive(basis)


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_rref_is_idempotent(a):
    basis = linalg.echelon(sparse(a))
    assert linalg.echelon(basis.values()) == basis


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_rank_bounded_and_transpose_invariant(a):
    a = exact(a)
    rk = linalg.rank(sparse(a))
    assert 0 <= rk <= min(len(a), len(a[0]))
    assert rk == linalg.rank(sparse([list(col) for col in zip(*a)]))


@settings(max_examples=60, deadline=None)
@given(small_matrix(), st.lists(fractions, min_size=1, max_size=4))
def test_solve_returns_actual_solutions(a, x):
    # make a consistent system by construction
    n = width(a)
    a = sparse(exact(a))
    x = (x * n)[:n]
    b = linalg.mat_vec(a, [Fraction(v) for v in x])
    sol = solve(a, b, n)
    assert sol is not None
    assert linalg.mat_vec(a, sol) == b


def test_solve_inconsistent_returns_none():
    a = sparse(exact([[1, 1], [1, 1]]))
    assert solve(a, [Fraction(0), Fraction(1)], 2) is None


def test_solve_picks_zero_for_free_variables():
    a = sparse(exact([[1, 1]]))
    assert solve(a, [Fraction(5)], 2) == [Fraction(5), Fraction(0)]


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_nullspace_vectors_are_in_kernel(a):
    n = width(a)
    a = sparse(exact(a))
    basis = nullspace(a, n)
    assert len(basis) == n - linalg.rank(a)
    for v in basis:
        assert not any(linalg.mat_vec(a, v))


# -- sparse engine against the dense reference ----------------------------


@settings(max_examples=150, deadline=None)
@given(sparse_matrix())
def test_rref_rank_nullspace_match_dense_reference(a):
    basis = linalg.echelon(sparse(a))
    assert monic(basis) == as_basis(*dense_rref(a))
    assert_primitive(basis)
    assert linalg.rank(sparse(a)) == len(dense_rref(a)[1])
    assert nullspace(sparse(a), width(a)) == dense_nullspace(a)


@settings(max_examples=150, deadline=None)
@given(sparse_matrix(), st.data())
def test_solve_matches_dense_reference(a, data):
    rhs = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    b = [data.draw(rhs) for _ in a]
    assert solve(sparse(a), b, width(a)) == dense_solve(a, b)


@settings(max_examples=100, deadline=None)
@given(sparse_matrix(min_rows=1, min_cols=1), st.data())
def test_solve_detects_inconsistent_augmented_systems(a, data):
    # a consistent system plus one combination of its rows with the
    # right-hand side shifted by 1 has no solution
    n = len(a[0])
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    x = [data.draw(small) for _ in range(n)]
    b = linalg.mat_vec(sparse(a), x)
    c = [data.draw(small) for _ in a]
    a = a + [[sum((ci * row[j] for ci, row in zip(c, a)), Fraction(0)) for j in range(n)]]
    b = b + [sum((ci * bi for ci, bi in zip(c, b)), Fraction(0)) + 1]
    assert dense_solve(a, b) is None
    assert solve(sparse(a), b, n) is None


@settings(max_examples=150, deadline=None)
@given(sparse_matrix(), st.data())
def test_mat_vec_matches_the_dense_product(a, data):
    n = len(a[0]) if a else data.draw(st.integers(0, 4))
    x = [data.draw(fractions) for _ in range(n)]
    got = linalg.mat_vec(sparse(a), x)
    assert got == [sum((c * v for c, v in zip(row, x)), Fraction(0)) for row in a]
    assert all(type(y) is Fraction for y in got)
    # int entries, as the cover level holds them, against x of mixed
    # denominators: the sums run in ints, the results are still Fractions
    ints = [[data.draw(st.integers(-6, 6)) if v else 0 for v in row] for row in a]
    mixed = [data.draw(st.sampled_from([Fraction(v), int(v), Fraction(v.numerator, 7)]))
             for v in x]
    got = linalg.mat_vec(sparse(ints), mixed)
    assert got == [sum((c * v for c, v in zip(row, mixed)), Fraction(0)) for row in ints]
    assert all(type(y) is Fraction for y in got)


def test_product_mat_vec_and_echelon_leave_dict_rows_alone():
    a = [{0: 2, 2: Fraction(1, 3)}, {}, {1: -1}]
    b = [{1: 1, 0: 0}, {0: Fraction(3, 2)}, {0: 4, 1: -2}]
    copies = [dict(row) for row in a], [dict(row) for row in b]
    assert linalg.product(a, b) == [{0: Fraction(4, 3), 1: Fraction(4, 3)}, {},
                                    {0: Fraction(-3, 2)}]
    assert linalg.mat_vec(a, [Fraction(1, 2), 3, Fraction(-3, 4)]) == [
        Fraction(3, 4), 0, -3]
    assert linalg.rank(b) == 2
    # echelon and rank hand the elimination core rows of their own, which it
    # reduces in place: the rows they were given stay as they were
    assert solve(a, [Fraction(1, 2), 0, Fraction(-3, 4)], 3) == [
        Fraction(1, 4), Fraction(3, 4), 0]
    assert linalg.rank(a) == 2
    ints = [{0: 2, 1: 4}, {1: 3, 2: 0}]
    int_copies = [dict(row) for row in ints]
    assert linalg.echelon(ints) == {0: {0: 1}, 1: {1: 1}}
    assert solve(ints, [Fraction(2), Fraction(-3, 2)], 3) == [
        Fraction(2), Fraction(-1, 2), 0]
    assert linalg.rank(ints) == 2
    assert ([dict(row) for row in a], [dict(row) for row in b]) == copies
    assert ints == int_copies and list(map(len, ints)) == [2, 2]


@settings(max_examples=150, deadline=None)
@given(sparse_matrix(max_rows=12, max_cols=12))
def test_ordered_rank_matches_lowest_column_first_echelon(a):
    n = len(a[0]) if a else 0
    rows = [nonzeros(row) for row in a]
    lowest_first = len(linalg.echelon(rows, reduced=False))
    assert linalg.rank(rows) == lowest_first == len(dense_rref(a)[1])


@settings(max_examples=100, deadline=None)
@given(sparse_matrix(), st.data())
def test_sparse_rows_give_the_dense_answers(a, data):
    n = len(a[0]) if a else 0
    rows = sparse(a)
    b = [data.draw(fractions) for _ in a]
    x = [data.draw(fractions) for _ in range(n)]
    assert monic(linalg.echelon(rows)) == as_basis(*dense_rref(a))
    assert solve(rows, b, n) == dense_solve(a, b)
    assert nullspace(rows, n) == dense_nullspace(a)
    assert linalg.mat_vec(rows, x) == [sum((c * v for c, v in zip(row, x)), Fraction(0)) for row in a]
    at = [list(col) for col in zip(*a)]
    dense_product = [[sum((row[t] * a[t][j] for t in range(len(a))), Fraction(0)) for j in range(n)]
                     for row in at]
    assert linalg.product(sparse(at), rows) == [nonzeros(row) for row in dense_product]


def test_mat_vec_keeps_fractions_on_zero_rows_and_empty_shapes():
    assert linalg.mat_vec([], [1, 2]) == []
    got = linalg.mat_vec([{0: 0, 1: 0}, {}, {1: 2}], [5, 3])
    assert got == [0, 0, 6]
    assert all(type(y) is Fraction for y in got)


def test_empty_shapes():
    assert linalg.echelon([]) == linalg.echelon([{}, {}]) == {}
    assert linalg.rank([]) == linalg.rank([{}, {}]) == 0
    assert nullspace([], 0) == nullspace([{}], 0) == []
    assert solve([], [], 0) == []
    assert solve([{}, {}], [0, 0], 0) == []
    assert solve([{}, {}], [0, 1], 0) is None
    assert nullspace([{0: 0, 1: 0}], 2) == [[1, 0], [0, 1]]
    assert inverse([]) == []


@settings(max_examples=60, deadline=None)
@given(sparse_matrix(min_rows=1, min_cols=1), st.randoms(use_true_random=False), st.data())
def test_echelon_is_independent_of_row_order_and_batching(a, rng, data):
    n = len(a[0])
    rows = [{j: v for j, v in enumerate(row) if v} for row in a]
    whole = linalg.echelon(rows)
    rng.shuffle(rows)
    cut = data.draw(st.integers(0, len(rows)))
    basis = linalg.echelon(rows[:cut], reduced=False)
    assert linalg.echelon(rows[cut:], basis) is basis
    assert basis == whole
    assert all(row[col] == 1 and min(row) == col for col, row in monic(whole).items())
    assert_primitive(whole)


def test_echelon_leaves_its_input_alone_and_drops_zeros():
    rows = [{0: Fraction(2), 1: Fraction(0), 2: Fraction(4)}, {2: Fraction(3)}]
    copy = [dict(row) for row in rows]
    basis = linalg.echelon(rows)
    assert monic(basis) == {0: {0: 1}, 2: {2: 1}}
    assert_primitive(basis)
    assert rows == copy


wide = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=1000)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 7), st.data())
def test_echelon_extended_in_batches_matches_dense_reference(m, n, data):
    # large numerators and denominators, eliminated over several calls that
    # extend one basis in place before the final reduced pass
    zero_pct = data.draw(st.sampled_from([0, 40, 80]))
    a = [[data.draw(wide) if data.draw(st.integers(0, 99)) >= zero_pct else Fraction(0)
          for _ in range(n)] for _ in range(m)]
    cuts = sorted(data.draw(st.lists(st.integers(0, m), max_size=3)))
    rows = sparse(a)
    basis = {}
    for lo, hi in zip([0] + cuts, cuts + [m]):
        assert linalg.echelon(rows[lo:hi], basis, reduced=False) is basis
    assert linalg.echelon([], basis) is basis
    assert monic(basis) == as_basis(*dense_rref(a))
    assert_primitive(basis)


def test_no_equation_leaves_every_unknown_free():
    def solve(rows, n):
        return linalg.solution(linalg.echelon(rows.values()), n)

    # no equation at all: every unknown is free, and the solution has them all
    assert solve({}, 3) == [0, 0, 0]
    rows = {"x": {0: Fraction(1), 1: Fraction(1)}, "y": {1: Fraction(0), 2: Fraction(1)}}
    assert solve(rows, 2) is None
    rows["y"][2] -= 1
    rows["x"][2] = Fraction(5)
    assert solve(rows, 2) == [5, 0]


def test_rref_matches_sympy():
    sympy = pytest.importorskip("sympy")

    @settings(max_examples=40, deadline=None)
    @given(sparse_matrix(max_rows=5, max_cols=5, min_rows=1, min_cols=1))
    def check(a):
        r, pivots = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                                  for row in a]).rref()
        expected = [[Fraction(int(x.p), int(x.q)) for x in r.row(i)] for i in range(r.rows)]
        basis = linalg.echelon(sparse(a))
        assert monic(basis) == as_basis(expected, pivots)
        assert_primitive(basis)

    check()


# -- inverse, the reference in tests/reference.py -----------------------


def test_inverse_known_2x2():
    a = sparse(exact([[2, 1], [1, 1]]))
    inv = inverse(a)
    assert inv == [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]]


def test_inverse_of_the_hilbert_matrix_is_its_known_integer_matrix():
    # coefficient growth: the 8 x 8 Hilbert matrix has denominators up to 15
    # and an inverse with entries up to ~4.2e9
    n = 8
    hilbert = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    c = math.comb
    known = [[(-1) ** (i + j) * (i + j + 1) * c(n + i, n - j - 1) * c(n + j, n - i - 1)
              * c(i + j, i) ** 2 for j in range(n)] for i in range(n)]
    inv = inverse(sparse(hilbert))
    assert inv == known
    assert all(type(x) is Fraction for row in inv for x in row)


def test_inverse_checks_its_shape():
    with pytest.raises(ValueError, match="not square"):
        inverse(sparse([[1, 2]]))


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        inverse(sparse(exact([[1, 2], [2, 4]])))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_inverse_agrees_with_cofactor_oracle(rows):
    a = exact(rows)
    d = det3(a)
    if d == 0:
        with pytest.raises(ValueError):
            inverse(sparse(a))
        return
    inv = inverse(sparse(a))
    eye = [{i: 1} for i in range(3)]
    assert linalg.product(sparse(a), sparse(inv)) == eye
    assert linalg.product(sparse(inv), sparse(a)) == eye
    assert det3(inv) * d == 1


# -- Hermite normal form ------------------------------------------------


def test_hnf_examples():
    assert linalg.hermite_normal_form([[1, 1], [1, -1]]) == [(1, 1), (0, 2)]
    assert linalg.hermite_normal_form([[2], [3]]) == [(1,)]
    assert linalg.hermite_normal_form([[0, 0]]) == []


def test_hnf_shape_and_pivot_reduction():
    h = linalg.hermite_normal_form([[4, 6, 2], [2, 0, 8], [0, 6, -6]])
    cols = [next(j for j, v in enumerate(row) if v) for row in h]
    assert cols == sorted(cols)
    for i, row in enumerate(h):
        p = row[cols[i]]
        assert p > 0
        for k in range(i):
            assert 0 <= h[k][cols[i]] < p


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_hnf_preserves_rational_row_span(rows):
    # same rational row span: stacking either onto the other adds no rank
    h = linalg.hermite_normal_form(rows)
    assert linalg.rank(sparse(h)) == linalg.rank(sparse(rows)) == linalg.rank(sparse(h + rows))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                min_size=1, max_size=4),
       st.randoms(use_true_random=False))
def test_hnf_canonical_under_row_shuffle(rows, rng):
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert linalg.hermite_normal_form(rows) == linalg.hermite_normal_form(shuffled)
