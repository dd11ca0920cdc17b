"""Independent reference mathematics for the benchmark.

Nothing here imports logfol: every expected answer and every certificate
check is computed from the benchmark's own code, so a defect in the package
cannot hide by agreeing with itself.  The routines are small and slow on
purpose; they run outside the timed region.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

# --- polynomials: dict exponent-tuple -> Fraction ---


def parse_poly(text, names):
    """Parse a sum of monomials such as "1 - 2/3*x1^2*x3 + y".

    Only the flat syntax the benchmark writes and the package prints is
    accepted: signed terms, each a product of rational literals and names
    with optional integer powers.  No parentheses.
    """
    index = {name: i for i, name in enumerate(names)}
    out = {}
    sign = 1
    for piece in re.split(r"([+-])", text):
        piece = piece.strip()
        if piece in ("+", "-"):
            sign = -sign if piece == "-" else sign
            continue
        if not piece:
            continue
        coef = Fraction(sign)
        expo = [0] * len(names)
        for factor in piece.split("*"):
            base, _, power = factor.strip().partition("^")
            if base[:1].isdigit():
                coef *= Fraction(base)
            elif base in index:
                expo[index[base]] += int(power or 1)
            else:
                raise ValueError("unknown factor %r in %r" % (factor, text))
        e = tuple(expo)
        out[e] = out.get(e, 0) + coef
        if out[e] == 0:
            del out[e]
        sign = 1
    return out


def poly_add(p, q, scale=1):
    out = dict(p)
    for e, c in q.items():
        v = out.get(e, 0) + scale * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def poly_partial(p, i):
    out = {}
    for e, c in p.items():
        if e[i]:
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = c * e[i]
    return out


def parse_field(text, names):
    """Coefficient polynomial of each plain partial d/d(name) in a field."""
    n = len(names)
    raw = parse_poly(text, list(names) + ["d" + s for s in names])
    coeffs = [dict() for _ in range(n)]
    for e, c in raw.items():
        d_part = e[n:]
        if sum(d_part) != 1:
            raise ValueError("every term needs exactly one derivation in %r" % text)
        coeffs[d_part.index(1)][e[:n]] = c
    return coeffs


def flat_unit_certified(field_texts, names, r, order, unit_text):
    """Does g = unit satisfy nabla_v g = 0 in T1 through degree order - 1?

    nabla_v g = v(g) - (b_1 + ... + b_r) g, where b_i = c_i / x_i for the
    coefficient c_i of d/dx_i.  T1 kills every monomial with fewer than two
    vanishing crossing exponents.
    """
    g = parse_poly(unit_text, names)
    if g.get((0,) * len(names)) != 1:
        return False
    for text in field_texts:
        coeffs = parse_field(text, names)
        vg = {}
        for i, c in enumerate(coeffs):
            vg = poly_add(vg, poly_mul(c, poly_partial(g, i)))
        trace = {}
        for i in range(r):
            for e, c in coeffs[i].items():
                if e[i] < 1:
                    return False
                e2 = list(e)
                e2[i] -= 1
                trace = poly_add(trace, {tuple(e2): c})
        residual = poly_add(vg, poly_mul(trace, g), scale=-1)
        for e in residual:
            alive = sum(1 for i in range(r) if e[i] == 0) >= 2
            if alive and sum(e) <= order - 1:
                return False
    return True


# --- exact rational and integer linear algebra ---


def solve_square(a, b):
    """Unique solution of a x = b for an invertible square matrix, else None."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [row[n] for row in m]


def _egcd(a, b):
    """(g, s, t) with s a + t b = g = gcd(a, b) >= 0."""
    s0, t0, s1, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        a, s0, t0 = -a, -s0, -t0
    return a, s0, t0


def hermite_rows(rows):
    """Row Hermite normal form by extended-gcd row operations.

    Echelon shape, positive pivots, entries above a pivot in [0, pivot).
    The form is unique for the lattice the rows span.
    """
    a = [list(map(int, row)) for row in rows if any(row)]
    if not a:
        return []
    m, k = len(a), len(a[0])
    r = 0
    for c in range(k):
        for i in range(r + 1, m):
            if a[i][c]:
                x, y = a[r][c], a[i][c]
                g, s, t = _egcd(x, y)
                top = [s * u + t * v for u, v in zip(a[r], a[i])]
                low = [(x // g) * v - (y // g) * u for u, v in zip(a[r], a[i])]
                a[r], a[i] = top, low
        if a[r][c] == 0:
            continue
        if a[r][c] < 0:
            a[r] = [-u for u in a[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [u - q * v for u, v in zip(a[i], a[r])]
        r += 1
        if r == m:
            break
    return [tuple(row) for row in a[:r]]


def cone_coords(rays, x):
    """Coordinates of x in the basis of simplicial cone rays (rows)."""
    k = len(rays)
    transposed = [[rays[j][i] for j in range(k)] for i in range(k)]
    return solve_square(transposed, list(x))


def in_simplicial_cone(rays, x):
    t = cone_coords(rays, x)
    return t is not None and all(c >= 0 for c in t)


def hilbert_basis_simplicial(rays):
    """Hilbert basis of cone(rays) intersected with Z^k, rays independent.

    Every irreducible element is a ray or lies in the half-open
    fundamental parallelepiped; an element x is reducible exactly when
    x - y is a nonzero cone element for some such candidate y.
    """
    k = len(rays)
    lo = [sum(min(0, r[i]) for r in rays) for i in range(k)]
    hi = [sum(max(0, r[i]) for r in rays) for i in range(k)]
    cands = {tuple(r) for r in rays}
    for p in itertools.product(*(range(lo[i], hi[i] + 1) for i in range(k))):
        if not any(p):
            continue
        t = cone_coords(rays, p)
        if t is not None and all(0 <= c < 1 for c in t):
            cands.add(p)
    basis = set()
    for x in cands:
        reducible = False
        for y in cands:
            if y == x:
                continue
            z = tuple(a - b for a, b in zip(x, y))
            if any(z) and in_simplicial_cone(rays, z):
                reducible = True
                break
        if not reducible:
            basis.add(x)
    return basis


# --- line bundles on P^1 and on two lines glued at a node ---


def h_p1(d):
    return max(0, d + 1), max(0, -d - 1)


def h_snc_identity_glue(left, right):
    """(h0, h1) of a split bundle on the nodal curve, identity glue.

    The node-evaluation map hits summand k exactly when one side has a
    section nonzero at the node, i.e. when its degree there is >= 0.
    """
    h0 = sum(h_p1(d)[0] for d in left + right)
    h1 = sum(h_p1(d)[1] for d in left + right)
    hit = sum(1 for a, b in zip(left, right) if a >= 0 or b >= 0)
    return h0 - hit, h1 + len(left) - hit


# --- constant Cech covers: total differential of a degree-one pair ---


def mat_vec(m, v):
    return [sum((Fraction(c) * x for c, x in zip(row, v)), Fraction(0)) for row in m]


def constant_cover_coboundary(m0, m1, n_opens, rho, hbar):
    """D(rho, hbar) on the constant cover with all pairs and triples.

    theta = Cech(rho) on triples, gbar = -M0 rho + Cech(hbar) on pairs,
    bbar = M1 hbar on opens; faces are listed by omitted vertex with sign
    (-1)^omit, and the row differential carries the sign (-1)^p.
    """
    pairs = list(itertools.combinations(range(n_opens), 2))
    triples = list(itertools.combinations(range(n_opens), 3))
    rho_of = dict(zip(pairs, rho))
    theta = []
    for (i, j, k) in triples:
        theta.append([a - b + c for a, b, c in zip(rho_of[(j, k)], rho_of[(i, k)], rho_of[(i, j)])])
    gbar = []
    for (i, j), r in zip(pairs, rho):
        mr = mat_vec(m0, r)
        gbar.append([hj - hi - x for hj, hi, x in zip(hbar[j], hbar[i], mr)])
    bbar = [mat_vec(m1, h) for h in hbar]
    return theta, gbar, bbar
