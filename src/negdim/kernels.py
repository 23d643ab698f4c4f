"""Term-arithmetic kernels for sparse polynomials.

A polynomial is a dict mapping exponent tuples (all the same length) to
nonzero coefficients, each an int when it is integral and a Fraction only
when its denominator is greater than 1.  The kernels take polynomials in
that form and return polynomials in that form, so integral polynomials
stay in int arithmetic throughout.  These four functions are the inner
loops of MultiPoly arithmetic (add, subtract, scale, multiply) and of
poly_exact_div, their only callers; the Casimir ladders and the Jack solve
in one symbol run on exact_algebra's dense int lists instead.  Callers
reach them as ``kernels.poly_*`` so that the module attributes stay the
single point to wrap for tracing.

The multiply defers normalisation: it sums products as raw integer
numerator/denominator pairs per output term and builds at most one reduced
Fraction per surviving term, instead of one gcd per intermediate addition.
"""

from fractions import Fraction
from operator import add


# The benchmark records these two in its environment facts.
def active_backend():
    return "python"


def available_backends():
    return ["python"]


def poly_add(a, b):
    out = dict(a)
    for exps, coeff in b.items():
        acc = out.get(exps)
        if acc is None:
            out[exps] = coeff
        else:
            acc = acc + coeff
            if acc:
                out[exps] = (acc if type(acc) is int or acc.denominator != 1
                             else acc.numerator)
            else:
                del out[exps]
    return out


def poly_sub(a, b):
    out = dict(a)
    for exps, coeff in b.items():
        acc = out.get(exps)
        if acc is None:
            out[exps] = -coeff
        else:
            acc = acc - coeff
            if acc:
                out[exps] = (acc if type(acc) is int or acc.denominator != 1
                             else acc.numerator)
            else:
                del out[exps]
    return out


def poly_mul(a, b):
    if len(a) > len(b):
        a, b = b, a
    flat_b = [(eb, cb.numerator, cb.denominator) for eb, cb in b.items()]
    acc = {}
    for ea, ca in a.items():
        na = ca.numerator
        da = ca.denominator
        for eb, nb, db in flat_b:
            key = tuple(map(add, ea, eb))
            n = na * nb
            d = da * db
            cell = acc.get(key)
            if cell is None:
                acc[key] = [n, d]
            elif cell[1] == d:
                cell[0] += n
            else:
                cell[0] = cell[0] * d + n * cell[1]
                cell[1] *= d
    out = {}
    for key, (n, d) in acc.items():
        if n:
            if d != 1:
                n = Fraction(n, d)
                if n.denominator == 1:
                    n = n.numerator
            out[key] = n
    return out


def poly_scale(a, c):
    if c.denominator == 1:
        c = c.numerator
    if not c:
        return {}
    out = {}
    for exps, coeff in a.items():
        p = coeff * c
        out[exps] = p if type(p) is int or p.denominator != 1 else p.numerator
    return out
