"""Log derivations and log one-forms on a normal crossing germ.

The tangent sheaf of the germ is free on x_1 d_1, ..., x_r d_r (logarithmic
directions along the crossing variables) and d_{r+1}, ..., d_n (the smooth
directions). A LogDerivation stores the coefficients in that basis: b_i for
x_i d_i and a_j for d_j. The standard-log-point structure singles out the
relative fields, those v with v(u) = (b_1 + ... + b_r) u for the chart unit u.

One-forms dual to this basis are a_1 dx_1/x_1 + ... + a_r dx_r/x_r + eta with
eta regular; the single relation dx_1/x_1 + ... + dx_r/x_r = du/u makes the
dlog coefficients unique only up to a common additive term.  They are kept
as given: the Camacho-Sad index reads only their differences.  The pairing
with a vector field is representative-independent exactly on relative
fields.  Coefficients are jets, and scalars follow the rule in linalg's
docstring: ints where integral, else Fractions.
"""

from __future__ import annotations

from .exprs import parse_polynomial
from .jets import Jet, _set, _Value, name_table
from .linalg import _exact


def _check_ctx(ctx, jets_, what):
    for j in jets_:
        if j.ctx != ctx:
            raise ValueError("%s has mismatched context" % what)


class LogDerivation(_Value):
    """b_1 x_1 d_1 + ... + b_r x_r d_r + a_{r+1} d_{r+1} + ... + a_n d_n.

    A _Value, and not a tuple, like Jet.
    """

    __slots__ = ("ctx", "b", "a")

    def __init__(self, ctx, b, a):
        b = tuple(b)
        a = tuple(a)
        if len(b) != ctx.r or len(a) != ctx.n - ctx.r:
            raise ValueError("coefficient counts do not match the context")
        _check_ctx(ctx, b + a, "derivation coefficient")
        _set(self, "ctx", ctx)
        _set(self, "b", b)
        _set(self, "a", a)

    def apply(self, f):
        """Value on a jet. Valid to order-1 in general (exact when no smooth
        coefficient meets a top-degree term).  Only a nonzero coefficient
        against a nonzero partial of f is multiplied and added."""
        if f.ctx != self.ctx:
            raise ValueError("jet context mismatch")
        _, r, order = self.ctx
        out = Jet.zero(self.ctx)
        for k, c in enumerate(self.b + self.a):
            if c.terms:
                partial = f.scaled_partial(k) if k < r else f.partial(k)
                if partial.terms:
                    out = out + c.mul_to(partial, order)
        return out

    def log_trace(self):
        """Sum of the crossing coefficients b_1 + ... + b_r."""
        return sum(self.b, Jet.zero(self.ctx))

    def constant_vector(self):
        """Coefficients at the origin, (b_1(0), ..., b_r(0), a_{r+1}(0), ...)."""
        return tuple(c.constant_term() for c in self.b + self.a)

    def components(self):
        return self.b + self.a


def lie_bracket(v, w):
    """Bracket of two log derivations, again a log derivation.

    Componentwise: the x_k d_k coefficient of [v, w] is v(b_k(w)) - w(b_k(v)),
    and likewise for the smooth coefficients. Coefficients come out valid to
    one order below the inputs.
    """
    if v.ctx != w.ctx:
        raise ValueError("derivation context mismatch")
    b = tuple(v.apply(bw) - w.apply(bv) for bv, bw in zip(v.b, w.b))
    a = tuple(v.apply(aw) - w.apply(av) for av, aw in zip(v.a, w.a))
    return LogDerivation(v.ctx, b, a)


class LogOneForm(_Value):
    """a_1 dx_1/x_1 + ... + a_r dx_r/x_r + c_{r+1} dx_{r+1} + ... + c_n dx_n.

    The dlog coefficients are kept as given: the relation
    sum_i dx_i/x_i = du/u ties them only up to a common additive term, and
    the index reads their differences.  A _Value, and not a tuple, like Jet.
    """

    __slots__ = ("ctx", "dlog", "reg")

    def __init__(self, ctx, dlog, reg):
        dlog = tuple(dlog)
        reg = tuple(reg)
        if ctx.r < 1:
            raise ValueError("a log one-form needs at least one crossing variable")
        _check_ctx(ctx, dlog + reg, "form coefficient")
        _set(self, "ctx", ctx)
        _set(self, "dlog", dlog)
        _set(self, "reg", reg)


def derivation_table(ctx, names):
    """name_table(ctx, names) plus the derivation token "d" + name of every
    accepted name, indexing the partials after the n variables.  A token
    that is itself an accepted name raises ValueError."""
    table = name_table(ctx, names)
    tokens = {"d" + nm: ctx.n + idx for nm, idx in table.items()}
    if not tokens.keys().isdisjoint(table):
        nm, idx = next((nm, idx) for nm, idx in table.items() if "d" + nm in table)
        raise ValueError("%r names variable %d and is the derivation token of %r, variable %d"
                         % ("d" + nm, table["d" + nm] + 1, nm, idx + 1))
    table.update(tokens)
    return table


def derivation_from_string(ctx, text, table, params=None):
    """Parse vector-field syntax into a LogDerivation.

    The derivation tokens d1..dn (and dx, dy, ... for named variables) stand
    for the plain partials. Coefficients of a crossing partial d_i must be
    divisible by x_i, i.e. the field must be tangent to the crossing locus;
    the quotient becomes the stored b_i. Example: "lam1*y*dy + z*dz" with
    names x, y, z and a rational parameter lam1.  table maps every accepted
    name and token to its slot, as derivation_table builds it: a scene
    builds it once for all the fields read on a germ.

    The text is read through total degree order + 2 in the variables and
    tokens (x-degree order + 1, as b_i is divided by x_i, plus one token),
    keeping crossing monomials: x1*x2*dx1 at r = 2 is b_1 = x2.  A term past
    that vanishes, as truncation is a ring map, even one refused within it
    (no token, two tokens, a non-tangent coefficient).  Each term goes to
    its b_i or a_j, past the order or on the crossing it is dropped there,
    and each jet is built with the bare constructor (see jets' docstring).
    """
    n, r, order = ctx
    raw = parse_polynomial(text, table, width=2 * n, consts=params, bound=(order + 2, 0))

    b = [{} for _ in range(r)]
    a = [{} for _ in range(n - r)]
    for e, c in raw.items():
        d_part = e[n:]
        if sum(d_part) != 1:
            raise ValueError(
                "each term must contain exactly one derivation token d1..dn"
            )
        i = d_part.index(1)
        e = e[:n]
        if i < r:
            if e[i] < 1:
                raise ValueError(
                    "coefficient of d%d must vanish on {x%d = 0}; "
                    "the field is not tangent to the crossing locus" % (i + 1, i + 1)
                )
            e = e[:i] + (e[i] - 1,) + e[i + 1:]
            terms = b[i]
        else:
            terms = a[i - r]
        if sum(e) <= order and (r < 2 or 0 in e[:r]):  # jets._on_crossing, inlined
            terms[e] = c if type(c) is int else _exact(c)
    b = tuple(Jet(ctx, terms) for terms in b)
    a = tuple(Jet(ctx, terms) for terms in a)
    return LogDerivation(ctx, b, a)
