"""Exact linear algebra over Fraction, plus a few integer lattice routines.

Gauss-Jordan elimination over the rationals has one engine, echelon(),
whose rows are {column: value} dicts holding only their nonzero entries,
with the column count given explicitly.  The jet systems built by
span_membership and find_flat_unit are more than 99% zeros, so its work
follows the nonzeros, not rows x columns.  Those builders fill a RowBuilder
and call the engine directly; rref, rank, solve, nullspace and inverse take
the dense list-of-lists matrices the rest of the package builds and convert
them once on entry.  The integer Hermite form keeps its own small dense
tableau.
"""

from __future__ import annotations

from fractions import Fraction

Vector = "list[Fraction]"
Matrix = "list[list[Fraction]]"


def frac(x) -> Fraction:
    """Coerce int / str ("3/2") / Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError("cannot interpret %r as an exact rational" % (x,))


def mat(rows):
    return [[frac(x) for x in row] for row in rows]


def zeros(m, n):
    return [[Fraction(0)] * n for _ in range(m)]


def identity(n):
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        oi[j] += c * bt[j]
    return out


def mat_vec(a, x):
    """a x as Fractions; the zero coefficients of the (mostly sparse) rows are skipped."""
    return [sum((c * v for c, v in zip(row, x) if c), Fraction(0)) for row in a]


def vec_add(x, y):
    return [a + b for a, b in zip(x, y)]

def vec_sub(x, y):
    return [a - b for a, b in zip(x, y)]

def vec_scale(c, x):
    return [c * a for a in x]

def is_zero_vec(x):
    return all(v == 0 for v in x)


def echelon(rows, ncols, basis=None, reduced=True):
    """Sparse exact row echelon form, the elimination engine of this module.

    rows is an iterable of {column: value} dicts with columns in
    range(ncols); zero values are dropped and the dicts are not modified.
    basis is the result of an earlier call, extended in place by the new
    rows, or None to start empty.  The result maps each pivot column to its
    row, scaled to pivot 1 and with no entry left of the pivot.

    Each new row is reduced against the pivot rows, lowest column first,
    and joins them if anything is left.  With reduced=True one
    back-substitution pass then clears every pivot column from the other
    rows.  That is the reduced row echelon form, which depends only on the
    row space: not on the order of the rows, nor on how many calls built it.
    """
    if basis is None:
        basis = {}
    one = Fraction(1)
    for row in rows:
        r = {j: v for j, v in row.items() if v}
        if r and not (0 <= min(r) and max(r) < ncols):
            raise ValueError("column index outside range(%d)" % ncols)
        while r:
            col = min(r)
            pivot_row = basis.get(col)
            if pivot_row is None:
                inv = one / r[col]
                basis[col] = {j: v * inv for j, v in r.items()}
                break
            c = r[col]
            for j, v in pivot_row.items():
                w = r.get(j, 0) - c * v
                if w:
                    r[j] = w
                else:
                    del r[j]
    if reduced:
        # descending pivots: every row used to clear a column is already reduced
        for col in sorted(basis, reverse=True):
            row = basis[col]
            for j in [j for j in row if j != col and j in basis]:
                c = row.pop(j)
                for k, v in basis[j].items():
                    if k != j:
                        w = row.get(k, 0) - c * v
                        if w:
                            row[k] = w
                        else:
                            del row[k]
    return basis


def solution(basis, n):
    """The solution of a reduced augmented system with free variables 0.

    basis comes from echelon over rows [A | b] with b in column n; the
    result is None when the system is inconsistent (a pivot lands on b).
    """
    if n in basis:
        return None
    x = [Fraction(0)] * n
    for col, row in basis.items():
        if n in row:
            x[col] = row[n]
    return x


class RowBuilder:
    """Sparse rows of an augmented system [A | b], made on first use of a key.

    Builders that walk their equations term by term add each coefficient
    where it lands, so a row holds only the entries it receives.  b is
    column ncols.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = {}

    def add(self, key, col, value):
        row = self.rows.get(key)
        if row is None:
            self.rows[key] = {col: value}
        elif col in row:
            row[col] += value
        else:
            row[col] = value

    def add_rhs(self, key, value):
        self.add(key, self.ncols, value)

    def solve(self):
        """solution() of all rows, or None if inconsistent."""
        return solution(echelon(self.rows.values(), self.ncols + 1), self.ncols)


def _sparse(row):
    return {j: v for j, v in enumerate(row) if v}


def _width(a):
    return len(a[0]) if a else 0


def rref(a):
    """Reduced row echelon form of a dense matrix. Returns (R, pivot_columns)."""
    n = _width(a)
    basis = echelon(map(_sparse, a), n)
    pivots = sorted(basis)
    r = []
    for col in pivots:
        dense = [Fraction(0)] * n
        for j, v in basis[col].items():
            dense[j] = v
        r.append(dense)
    r += [[Fraction(0)] * n for _ in range(len(a) - len(pivots))]
    return r, pivots


def rank(a):
    return len(echelon(map(_sparse, a), _width(a), reduced=False))


def solve(a, b):
    """One solution of a x = b, or None if the system is inconsistent.

    Free variables are set to zero.
    """
    n = _width(a)
    rows = [_sparse(row) for row in a]
    for row, bi in zip(rows, b):
        row[n] = frac(bi)
    return solution(echelon(rows, n + 1), n)


def nullspace(a):
    """Basis of the kernel of a, as a list of vectors, one per free column."""
    n = _width(a)
    basis = echelon(map(_sparse, a), n)
    out = {}
    for f in range(n):
        if f not in basis:
            out[f] = [Fraction(0)] * n
            out[f][f] = Fraction(1)
    for col, row in basis.items():
        for j, v in row.items():
            if j != col:
                out[j][col] = -v
    return list(out.values())


def inverse(a):
    n = len(a)
    rows = [_sparse(row) for row in a]
    for i, row in enumerate(rows):
        row[n + i] = Fraction(1)
    basis = echelon(rows, 2 * n)
    if sorted(basis) != list(range(n)):
        raise ValueError("matrix is singular")
    return [[basis[i].get(n + j, Fraction(0)) for j in range(n)] for i in range(n)]


def is_zero_mat(a):
    return all(all(x == 0 for x in row) for row in a)


# --- integer lattice routines ---

def hermite_normal_form(rows):
    """Row-style Hermite normal form of an integer matrix.

    Output rows are the nonzero rows of the canonical form: echelon shape,
    positive pivots, entries above each pivot reduced into [0, pivot).
    """
    a = [list(map(int, row)) for row in rows if any(row)]
    if not a:
        return []
    m = len(a)
    k = len(a[0])
    r = 0
    for c in range(k):
        while True:
            nz = [i for i in range(r, m) if a[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(a[i][c]))
            if i0 != r:
                a[r], a[i0] = a[i0], a[r]
            done = True
            for i in range(r + 1, m):
                if a[i][c] != 0:
                    q = a[i][c] // a[r][c]
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    if a[i][c] != 0:
                        done = False
            if done:
                break
        if a[r][c] != 0:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
            for i in range(r):
                q = a[i][c] // a[r][c]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
            r += 1
            if r == m:
                break
    return [tuple(row) for row in a[:r] if any(row)]
