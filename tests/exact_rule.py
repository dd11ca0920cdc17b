"""The rule for exact numbers that logfol.linalg's docstring states, as the
tests check it."""

from fractions import Fraction


def follows_the_rule(values, read=True):
    """Whether every value is an int or a Fraction, never a float; with read,
    for what a reader stores, also an int wherever the value is integral."""
    return all(type(x) is int or type(x) is Fraction and not (read and x.denominator == 1)
               for x in values)
