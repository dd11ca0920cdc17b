"""Truncated exact-coefficient function germs on a normal crossing singularity.

The coordinate ring is Q[x_1, ..., x_n] / (x_1 * ... * x_r), with everything
cut off above a fixed total degree (the "order" of the context). A Jet stores
the normal form: monomials divisible by the full crossing product x_1...x_r
are deleted, as is anything of total degree above the order. With r = 0 this
degenerates to a plain truncated polynomial ring, which is what restrictions
of an r = 1 germ and the classical surface residue computations live in.

Coefficients are Fraction throughout; nothing here is approximate.
Variable indices are 0-based in code; printed names default to x1..xn.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exprs import parse_polynomial
from .linalg import frac


class ContextMismatchError(ValueError):
    pass


class NonUnitError(ValueError):
    pass


@dataclass(frozen=True)
class GermContext:
    """Shape of the germ: n variables, the first r of them crossing."""

    n: int
    r: int
    order: int = 6

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one variable")
        if not 0 <= self.r <= self.n:
            raise ValueError("crossing count r must satisfy 0 <= r <= n")
        if self.order < 1:
            raise ValueError("truncation order must be >= 1")

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
    out = {}
    r = ctx.r
    for e, c in terms.items():
        c = frac(c)
        if c == 0:
            continue
        if len(e) != ctx.n:
            raise ValueError("exponent %r does not match %d variables" % (e, ctx.n))
        if sum(e) > ctx.order:
            continue
        # a single marked branch is a smooth germ; only a true crossing
        # (r >= 2) imposes the product relation
        if r >= 2 and all(e[i] >= 1 for i in range(r)):
            continue
        e = tuple(int(v) for v in e)
        if any(v < 0 for v in e):
            raise ValueError("negative exponent in %r" % (e,))
        out[e] = c
    return out


@dataclass(frozen=True)
class Jet:
    """Element of the truncated crossing-germ ring, in normal form."""

    ctx: GermContext
    terms: dict

    @classmethod
    def make(cls, ctx, terms):
        return cls(ctx, _normal_terms(ctx, dict(terms)))

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, {})

    @classmethod
    def constant(cls, ctx, c):
        return cls.make(ctx, {(0,) * ctx.n: frac(c)})

    @classmethod
    def one(cls, ctx):
        return cls.constant(ctx, 1)

    @classmethod
    def variable(cls, ctx, i):
        if not 0 <= i < ctx.n:
            raise ValueError("no variable with index %d" % i)
        e = [0] * ctx.n
        e[i] = 1
        return cls.make(ctx, {tuple(e): 1})

    # -- ring structure --

    def _check(self, other):
        if not isinstance(other, Jet):
            raise TypeError("expected a Jet")
        if other.ctx != self.ctx:
            raise ContextMismatchError(
                "jets live in different contexts: %r vs %r" % (self.ctx, other.ctx)
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction, str)):
            other = Jet.constant(self.ctx, other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            c2 = out.get(e, Fraction(0)) + c
            if c2 == 0:
                out.pop(e, None)
            else:
                out[e] = c2
        return Jet(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, str)):
            other = Jet.constant(self.ctx, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, str)):
            c = frac(other)
            if c == 0:
                return Jet.zero(self.ctx)
            return Jet(self.ctx, {e: c * v for e, v in self.terms.items()})
        self._check(other)
        ctx = self.ctx
        out = {}
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            for e2, c2 in other.terms.items():
                if d1 + sum(e2) > ctx.order:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                c = out.get(e, Fraction(0)) + c1 * c2
                if c == 0:
                    out.pop(e, None)
                else:
                    out[e] = c
        return Jet(ctx, _normal_terms(ctx, out))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("use invert() for negative powers")
        out = Jet.one(self.ctx)
        for _ in range(k):
            out = out * self
        return out

    # -- queries --

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        return self.terms.get((0,) * self.ctx.n, Fraction(0))

    def total_degree(self):
        """Largest total degree present, or -1 for the zero jet."""
        return max((sum(e) for e in self.terms), default=-1)

    def truncate(self, order):
        return Jet(self.ctx, {e: c for e, c in self.terms.items() if sum(e) <= order})

    def equal_to_order(self, other, order):
        self._check(other)
        return (self - other).truncate(order).is_zero()

    # -- calculus --

    def partial(self, i):
        """d/dx_i. Valid one order below the order of the input."""
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = c * e[i]
        return Jet(self.ctx, _normal_terms(self.ctx, out))

    def scaled_partial(self, i):
        """x_i d/dx_i, the logarithmic derivative along x_i. Degree-preserving."""
        out = {e: c * e[i] for e, c in self.terms.items() if e[i] != 0}
        return Jet(self.ctx, out)

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
            out[e[:i] + e[i + 1:]] = c
        return Jet(ctx2, _normal_terms(ctx2, out))

    def invert(self):
        """Multiplicative inverse, by Newton iteration; exact at the order."""
        c = self.constant_term()
        if c == 0:
            raise NonUnitError("jet has zero constant term, not invertible")
        inv = Jet.constant(self.ctx, Fraction(1) / c)
        correct = 0
        while correct < self.ctx.order:
            inv = inv * (2 - self * inv)
            correct = 2 * correct + 1
        return inv

    def univariate(self, i):
        """Coefficient dict {degree: Fraction} if only x_i occurs, else error."""
        out = {}
        for e, c in self.terms.items():
            if any(v != 0 for j, v in enumerate(e) if j != i):
                raise ValueError("jet is not univariate in variable %d" % i)
            out[e[i]] = c
        return out

    # -- presentation --

    def __str__(self):
        return format_jet(self)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))


def format_jet(jet, names=None):
    if jet.is_zero():
        return "0"
    names = names or jet.ctx.default_names()
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


def name_table(ctx, names=None):
    """Mapping from accepted variable names to indices.

    Custom names are accepted alongside the positional x1..xn aliases as long
    as they do not clash.
    """
    table = {}
    for i, nm in enumerate(ctx.default_names()):
        table[nm] = i
    if names is not None:
        if len(names) != ctx.n:
            raise ValueError("expected %d variable names" % ctx.n)
        for i, nm in enumerate(names):
            if nm in table and table[nm] != i:
                raise ValueError("variable name %r collides with %r" % (nm, nm))
            table[nm] = i
    return table


def jet_from_string(ctx, text, names=None, params=None):
    """Parse polynomial syntax like "3/2*x1^2*x3 - 1" into a Jet."""
    table = name_table(ctx, names)
    consts = {k: frac(v) for k, v in (params or {}).items()}
    raw = parse_polynomial(text, table, width=ctx.n, consts=consts)
    return Jet.make(ctx, raw)


def monomials(ctx, max_degree):
    """All normal-form exponent tuples of total degree <= max_degree."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            e = tuple(prefix)
            if ctx.r <= 1 or not all(e[i] >= 1 for i in range(ctx.r)):
                out.append(e)
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, slots - 1)

    rec([], max_degree, ctx.n)
    out.sort(key=lambda e: (sum(e), e))
    return out
