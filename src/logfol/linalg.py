"""Exact linear algebra over Fraction, plus a few integer lattice routines.

The package's one rule for exact numbers: ints or Fractions, never floats.
The one reader, _exact, takes ints, Fractions and strings of an integer or
"p/q" (no decimal point or exponent), and stores an int where the value is
integral, else a Fraction; arithmetic keeps whatever Python returns, and a
quotient is built as a Fraction, never by / on two ints.  Integers
(degrees, exponents, dimensions, ranks, lattice vectors) are read by
_integer, which takes an int alone and truncates nothing.

A matrix is its {column: value} rows, holding its nonzero entries, and
nothing else: no column count travels with it.  A linear system a x = b in
n unknowns is the rows of [a | b], the right-hand sides at columns n and
up, and its one solve is solution(echelon(rows), n).  Vectors, the x of
mat_vec, are dense.  Entries are ints or Fractions.

Elimination has one engine, whose work follows the nonzeros, not rows x
columns: the jet and cover systems are more than 99% zeros.  Its reader,
echelon(), copies each row it is given once, scaled to integers (an int row
as it is), and leaves the rows it was given alone; its core, _echelon(),
reduces integer rows that it owns in place.  rank builds its own
column-ordered integer rows and hands them to the core, so each row is
copied once on its way in.  The engine is fraction-free: every basis row
is a primitive {column: int} row (gcd 1, positive pivot), so a step is a
few int multiplies where a Fraction step would normalise every entry with
a gcd.  Its reduced basis, one row per pivot, is the reduced row echelon
form with each row scaled to a primitive integer row.  Values are divided
by the pivot only where they are read: solution returns Fractions, as
mat_vec does from sums taken in ints; product keeps int rows int.  echelon
runs the engine lowest column first, the order that picks the particular
solution that gets printed; rank first orders the columns by ascending
nonzero count, which keeps the cover matrices sparse.  The integer Hermite
form keeps its own small dense tableau.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

# an optional sign, decimal digits (\d is str.isdecimal, the digits int()
# reads) and an optional "/" and denominator: no decimal point, exponent,
# underscore or inner space
_RATIONAL = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def _exact(x):
    """x, an int, a Fraction or a string of an integer or "p/q", as an int
    where integral, else a Fraction; ValueError for anything else, bools,
    floats and decimal strings such as "0.5" too."""
    if type(x) is not Fraction:
        if type(x) is int:
            return x
        if isinstance(x, str):
            m = _RATIONAL.fullmatch(x.strip())
            try:
                if m[2] is None:
                    return int(m[1])
                x = Fraction(int(m[1]), int(m[2]))
            except (TypeError, ValueError, ZeroDivisionError):
                # no match, more digits than int() reads, or a zero denominator
                raise ValueError("cannot read %r as a rational" % (x,)) from None
        elif isinstance(x, bool):
            raise ValueError("expected a rational, got a boolean")
        elif isinstance(x, float):
            raise ValueError('floating point is not allowed; write rationals as "p/q"')
        elif not isinstance(x, (int, Fraction)):
            raise ValueError("expected a rational, got %s" % type(x).__name__)
    return x.numerator if x.denominator == 1 else x


def _integer(x):
    """x, an int, as it is; ValueError for anything else, bools, floats,
    strings and Fractions too: nothing is truncated."""
    if type(x) is int:
        return x
    raise ValueError("expected an integer")


def product(a, b):
    """The rows of a b as {column: value} dicts without zeros; the rows of b
    are read as they are."""
    out = []
    for row in a:
        acc = {}
        for t, c in row.items():
            for j, v in b[t].items():
                acc[j] = acc.get(j, 0) + c * v
        out.append({j: v for j, v in acc.items() if v})
    return out


def mat_vec(a, x):
    """a x as Fractions, summed over the nonzero entries of each row in
    ints where the row is integral: x is scaled once by the lcm of its
    denominators, and each row makes one Fraction that divides it out."""
    den = lcm(*[v.denominator for v in x])
    x = [v.numerator * (den // v.denominator) for v in x]
    return [Fraction(sum(c * x[j] for j, c in row.items()), den) for row in a]


def _integer_row(r):
    """The row r, a dict of nonzero entries that the caller owns, as a
    {column: int} row scaled by the lcm of its denominators.  A row of ints
    is returned as it is, and the test for one stops at the first entry that
    is not an int; any other row becomes a new dict."""
    for v in r.values():
        if type(v) is not int:
            break
    else:
        return r
    den = lcm(*[v.denominator for v in r.values()])
    return {j: v.numerator * (den // v.denominator) for j, v in r.items()}


def _divide(r, g):
    """Divide every entry of the integer row r in place by g, which divides
    them all (g is 0 only for an empty row)."""
    if g != 1:
        for j in r:
            r[j] //= g


def _eliminate(r, pivot_row, col):
    """Clear column col from the integer row r in place with a basis row.

    With pivot entry a and r's entry c, g = gcd(a, c): r becomes
    (a/g) r - (c/g) pivot_row, and its content is divided out when a != 1.
    A pivot of 1 skips the multiply and the gcds.
    """
    a = pivot_row[col]
    c = r[col]
    scaled = a != 1
    if scaled:
        g = gcd(a, c)
        a //= g
        c //= g
        if a != 1:
            for j in r:
                r[j] *= a
    for j, v in pivot_row.items():
        w = r.get(j, 0) - c * v
        if w:
            r[j] = w
        else:
            del r[j]
    if scaled:
        _divide(r, gcd(*r.values()))


def echelon(rows, basis=None, reduced=True):
    """Sparse fraction-free row echelon form: the reader of the elimination
    engine of this module.

    rows is an iterable of {column: value} rows of ints or Fractions; zero
    values are dropped and the rows are not modified: each is copied once
    and scaled to integers as it is reached.  basis is the result of an
    earlier call, extended in place by the new rows, or None to start
    empty.  The result maps each pivot column to its row, a primitive
    {column: int} row: the gcd of its entries is 1, its pivot is positive
    and no entry lies left of it.  Callers divide by the pivot where they
    read a value (solution).
    """
    rows = (_integer_row({j: v for j, v in row.items() if v}) for row in rows)
    return _echelon(rows, {} if basis is None else basis, reduced)


def _echelon(rows, basis, reduced):
    """The core of echelon on {column: int} rows without zeros, which it
    owns: it reduces them in place and keeps them as basis rows.

    Each row is reduced against the pivot rows, lowest column first, by
    _eliminate, and joins them if anything is left.  With reduced=True one
    back-substitution pass then clears every pivot column from the other
    rows with the same step.  That is the reduced row echelon form with each
    row scaled to a primitive integer row, which depends only on the row
    space: not on the order of the rows, nor on how many calls built it.  No
    Fraction arithmetic happens here.
    """
    for r in rows:
        while r:
            col = min(r)
            pivot_row = basis.get(col)
            if pivot_row is None:
                g = gcd(*r.values())
                _divide(r, -g if r[col] < 0 else g)
                basis[col] = r
                break
            _eliminate(r, pivot_row, col)
    if reduced:
        # descending pivots: every row used to clear a column is already reduced
        for col in sorted(basis, reverse=True):
            row = basis[col]
            hits = [j for j in row if j != col and j in basis]
            for j in hits:
                _eliminate(row, basis[j], j)
            if hits:
                _divide(row, gcd(*row.values()))
    return basis


def solution(basis, n):
    """The solution of a reduced augmented system with free variables 0.

    basis comes from echelon over rows [A | b] with b in column n, and any
    further right-hand sides past it, which are not read; the result is
    None when the system is inconsistent (a pivot lands on b).
    Callers that build their equations term by term keep the rows in a
    {row key: {column: value}} dict and pass its values.
    """
    if n in basis:
        return None
    x = [Fraction(0)] * n
    for col, row in basis.items():
        if n in row:
            x[col] = Fraction(row[n], row[col])
    return x


def rank(a):
    """Rank, eliminating the columns in ascending order of nonzero count.

    A static fill-reducing order (Markowitz 1957; COLAMD, Davis, Gilbert,
    Larimore and Ng 2004): the sparse cover matrices keep their few
    nonzeros under it, where lowest column first fills their basis in.
    """
    count = {}
    for row in a:
        for j, v in row.items():
            if v:
                count[j] = count.get(j, 0) + 1
    order = {j: k for k, j in enumerate(sorted(count, key=count.__getitem__))}
    ordered = [_integer_row({order[j]: v for j, v in row.items() if v}) for row in a]
    return len(_echelon(ordered, {}, False))


# --- integer lattice routines ---

def hermite_normal_form(rows):
    """Row-style Hermite normal form of an integer matrix.

    Output rows are the nonzero rows of the canonical form: echelon shape,
    positive pivots, entries above each pivot reduced into [0, pivot).
    """
    a = [row for row in (list(map(_integer, row)) for row in rows) if any(row)]
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
