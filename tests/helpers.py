"""Helpers shared by the test modules; pytest collects no tests from here."""

import contextlib
import inspect
import sys
from fractions import Fraction


def mutant(fn, old, new):
    """`fn` recompiled from its own source with `old` replaced by `new`."""
    source = inspect.getsource(fn)
    assert source.count(old) == 1
    namespace = dict(fn.__globals__)
    exec(compile(source.replace(old, new), inspect.getsourcefile(fn), "exec"), namespace)
    return namespace[fn.__name__]


@contextlib.contextmanager
def digit_limit(limit):
    """Sets the int <-> str digit limit inside the block; 0 lifts it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def as_pair(x):
    """(numerator, denominator) of a value that is a `Fraction`, not a subclass or an int."""
    assert type(x) is Fraction, type(x)
    return x.numerator, x.denominator
