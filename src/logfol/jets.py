"""Truncated exact-coefficient function germs on a normal crossing singularity.

The coordinate ring is Q[x_1, ..., x_n] / (x_1 * ... * x_r), with everything
cut off above a fixed total degree (the "order" of the context). With r = 0
this degenerates to a plain truncated polynomial ring, which is what
restrictions of an r = 1 germ and the classical surface residue computations
live in.

Invariant: the terms of a Jet are always in normal form.  Every key is a
tuple of n nonnegative ints of total degree at most the order, not divisible
by the full crossing product x_1...x_r when r >= 2, and every value is a
nonzero int or Fraction.  Jet.make is the boundary for raw terms: it reads
the coefficients (linalg's rule: ints where integral) and checks the
exponents; constant and scale read one scalar.  Every other operation takes
normal jets and builds its normal result directly, dropping only the terms
its own arithmetic can push past the order or onto the crossing.
Jet(ctx, terms) trusts its caller to keep it.  The two text readers,
jet_from_string and logcalc.derivation_from_string, are such callers: the
expression reader's terms are already exact nonzero values with int
exponents of the right width, so they store an integral Fraction as its int
and build with the bare constructor.  derivation_from_string reads past the
order, as it divides b_i by x_i, so it first drops the terms past the order
or on the crossing; jet_from_string reads through them (below) and has
nothing to drop.

This is the one jet calculus under the solvers: they read a jet's terms
directly to build their rows (skipping, with _on_crossing, a product that
lands past the order or on the crossing), and their certificates, the unit
pivots and the residues multiply and invert only through mul_to and invert.
The sum and the truncated product are the parser's (exprs._sum and
exprs._product), and jet_from_string reads its text through the order and
the crossing: a term past them never forms, even inside a large power.

Coefficients are exact throughout; nothing here is approximate.
Variable indices are 0-based in code; printed names default to x1..xn.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .exprs import _product, _sum, parse_polynomial
from .linalg import _exact, _integer


_set = object.__setattr__  # how a _Value's __init__ fills its slots


class _Value:
    """Base of the read-only value types: Jet, logcalc's LogDerivation and
    LogOneForm, and leafcomplex's CechLeafData.  Assignment raises
    AttributeError, and two values are equal when they have the same class
    and equal fields: the slots whose names do not start with "_" (such a
    slot holds data derived from the fields).  Values are unhashable."""

    __slots__ = ()
    __hash__ = None

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__ if f[0] != "_")


class GermContext(namedtuple("GermContext", "n r order")):
    """Shape of the germ: n variables, the first r of them crossing."""

    __slots__ = ()

    def __new__(cls, n, r, order):
        n, r, order = _integer(n), _integer(r), _integer(order)
        if n < 1:
            raise ValueError("need at least one variable")
        if not 0 <= r <= n:
            raise ValueError("crossing count r must satisfy 0 <= r <= n")
        return tuple.__new__(cls, (n, r, order))

    def component(self, i):
        """Context of the component {x_i = 0}, for a crossing index i."""
        if not 0 <= i < self.r:
            raise ValueError("component index %d is not a crossing variable" % i)
        if self.n == 1:
            raise ValueError("cannot restrict a one-variable germ")
        return GermContext(self.n - 1, self.r - 1, self.order)

    def default_names(self):
        return tuple("x%d" % (i + 1) for i in range(self.n))


def _normal_terms(ctx, terms):
    """Coerced, validated normal form of raw {exponent: coefficient} terms."""
    out = {}
    r = ctx.r
    for e, c in terms.items():
        c = _exact(c)
        if c == 0:
            continue
        if len(e) != ctx.n:
            raise ValueError("exponent %r does not match %d variables" % (e, ctx.n))
        e = tuple(map(_integer, e))
        if any(v < 0 for v in e):
            raise ValueError("negative exponent in %r" % (e,))
        if sum(e) > ctx.order or _on_crossing(e, r):
            continue
        out[e] = c
    return out


def _on_crossing(e, r):
    """Is x^e divisible by the crossing product, hence zero?

    A single marked branch is a smooth germ; only a true crossing (r >= 2)
    imposes the product relation.
    """
    return r >= 2 and 0 not in e[:r]


class Jet(_Value):
    """Element of the truncated crossing-germ ring, in normal form.

    A _Value; not a tuple, so it has no length, indexing or concatenation
    to confuse with its ring operations.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        _set(self, "ctx", ctx)
        _set(self, "terms", terms)

    @classmethod
    def make(cls, ctx, terms):
        return cls(ctx, _normal_terms(ctx, dict(terms)))

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, {})

    @classmethod
    def constant(cls, ctx, c):
        c = _exact(c)
        return cls(ctx, {(0,) * ctx.n: c} if c else {})

    @classmethod
    def one(cls, ctx):
        return cls.constant(ctx, 1)

    # -- ring structure --

    def _check(self, other):
        if not isinstance(other, Jet):
            raise TypeError("expected a Jet")
        if other.ctx != self.ctx:
            raise ValueError(
                "jets live in different contexts: %r vs %r" % (self.ctx, other.ctx)
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Jet.constant(self.ctx, other)
        self._check(other)
        return Jet(self.ctx, _sum(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        """c times this jet, for a rational scalar c (int, Fraction or "p/q")."""
        c = _exact(c)
        if c == 0:
            return Jet.zero(self.ctx)
        return Jet(self.ctx, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        return self.mul_to(other, self.ctx.order)

    def mul_to(self, other, degree):
        """The product with another jet of this context, through total degree
        degree (at most the order): terms of higher degree are never formed."""
        return Jet(self.ctx, _product(self.terms, other.terms, degree, self.ctx.r))

    __rmul__ = __mul__

    # -- queries --

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        return self.terms.get((0,) * self.ctx.n, 0)

    def truncate(self, order):
        return Jet(self.ctx, {e: c for e, c in self.terms.items() if sum(e) <= order})

    # -- calculus --

    def partial(self, i):
        """d/dx_i. Valid one order below the order of the input."""
        return Jet(self.ctx, {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                              for e, c in self.terms.items() if e[i]})

    def scaled_partial(self, i):
        """x_i d/dx_i, the logarithmic derivative along x_i. Degree-preserving."""
        return Jet(self.ctx, {e: c * e[i] for e, c in self.terms.items() if e[i]})

    def set_zero(self, i):
        """Substitute x_i = 0, staying in the same context."""
        return Jet(self.ctx, {e: c for e, c in self.terms.items() if e[i] == 0})

    def restrict_to_component(self, i):
        """Image in the component {x_i = 0}, i a crossing index.

        The surviving variables keep their order and are reindexed; the
        output context has n - 1 variables and r - 1 crossing ones.
        """
        ctx2 = self.ctx.component(i)
        out = {}
        for e, c in self.terms.items():
            if e[i] != 0:
                continue
            # degrees are unchanged; only the smaller crossing can kill a term
            e2 = e[:i] + e[i + 1:]
            if not _on_crossing(e2, ctx2.r):
                out[e2] = c
        return Jet(ctx2, out)

    def invert(self, degree):
        """Multiplicative inverse through total degree degree (at most the
        order), by Newton iteration; a constant is inverted directly."""
        c = self.constant_term()
        if c == 0:
            raise ValueError("jet has zero constant term, not invertible")
        inv = Jet.constant(self.ctx, Fraction(1) / c)
        if len(self.terms) == 1:
            return inv
        correct = 0
        while correct < degree:
            inv = inv.mul_to(2 - self.mul_to(inv, degree), degree)
            correct = 2 * correct + 1
        return inv

    def univariate(self, i):
        """Coefficient dict {degree: coefficient} if only x_i occurs, else error."""
        out = {}
        for e, c in self.terms.items():
            if any(v != 0 for j, v in enumerate(e) if j != i):
                raise ValueError("jet is not univariate in variable %d" % i)
            out[e[i]] = c
        return out

    # -- presentation --

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))


def format_jet(jet, names):
    """The nonzero jet as text in the variable names, lowest degree first."""
    parts = []
    for e, c in jet.sorted_terms():
        syms = []
        for i, v in enumerate(e):
            if v == 1:
                syms.append(names[i])
            elif v > 1:
                syms.append("%s^%d" % (names[i], v))
        mono = "*".join(syms)
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = "%s*%s" % (abs(c), mono)
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += " %s %s" % (sign, body)
    return text


def name_table(ctx, names):
    """Mapping from accepted variable names to indices.

    The names, one per variable, are accepted alongside the positional
    x1..xn aliases as long as they do not clash.
    """
    defaults = ctx.default_names()
    table = {nm: i for i, nm in enumerate(defaults)}
    for i, nm in enumerate(names):
        j = table.setdefault(nm, i)
        if j != i:
            raise ValueError("%r, the name of variable %d, is %s name of variable %d" % (
                nm, i + 1, "the default" if nm == defaults[j] else "the", j + 1))
    return table


def jet_from_string(ctx, text, table, params=None):
    """Parse polynomial syntax like "3/2*x1^2*x3 - 1" into a Jet, computed
    only through the order and off the crossing.  table maps every accepted
    name to its variable, as name_table builds it."""
    raw = parse_polynomial(text, table, width=ctx.n, consts=params, bound=(ctx.order, ctx.r))
    return Jet(ctx, {e: c if type(c) is int else _exact(c) for e, c in raw.items()})

