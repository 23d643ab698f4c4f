"""Term-arithmetic kernels for sparse polynomials.

A polynomial is a dict mapping exponent tuples (all the same length) to
nonzero Fraction coefficients.  These four functions are the hot inner
loops of the whole package.  Callers reach them as ``kernels.poly_*`` so
that the module attributes stay the single point to wrap for tracing.

The multiply defers normalisation: it sums products as raw integer
numerator/denominator pairs per output term and builds one reduced
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
                out[exps] = acc
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
                out[exps] = acc
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
    return {key: Fraction(n, d) for key, (n, d) in acc.items() if n}


def poly_scale(a, c):
    c = Fraction(c)
    if not c:
        return {}
    return {exps: coeff * c for exps, coeff in a.items()}
