"""Casimir-spectrum generating functions for the classical group series.

For each family the spectrum of the trace-form Casimir operators on the
irreducible tensor representation lambda is packaged into one rational
function C(lambda, z) = sum_p C_p z^p.  It is computed two ways:

* row product: a finite product over the weight ladder at a concrete
  integer rank n (ground truth, defined only for n >= #rows);
* block product: the same function assembled from the run-length
  coordinates of the diagram, polynomial in a formal rank symbol n, which
  is what makes evaluation at negated rank meaningful.

The rank-negation identities verified here: the symplectic and even
orthogonal series exchange under {n -> -n, transpose, z -> -z}, and the
unitary series is fixed by that involution.

Every factor of both products and of the prefactor is 1 - z*m; a ladder
(below) maps each value m to its exponent, and every check is decided on
ladders.  Both ranks run on one engine of flat int lists (see the
expansion section).  Each factor is 1 - x*v in x = z/D, with v = D*m an
int: at an integer rank n, D = 2n and v the key K = 2n*m (_at_rank,
_row_factors); at the symbolic rank, D = d*n with d the keys' common
denominator, and v = d*(a + b*n + c*n^2) is taken at n = 2**W, with W
wide enough (_width) that every polynomial in n the engine meets is read
back from its balanced base-2**W digits (Kronecker substitution).  A
ladder's product is then a flat int list in x with constant term 1
(_expand), C = prefactor * (1 - product) / z stays on one such list, with
a trial division from the low end and no gcd (_gf), and x = z/D is put
back once, for the printed function (_in_z).

The Taylor coefficients C_p (spectrum_coefficients) are those of
C = (F - G)/z, with F the series of the prefactor ladder and G = F times
the series of the product ladder: truncated power series multiplied out
factor by factor on the same int keys, one Python int per power of x at
both ranks.  They never expand the generating function, divide a series
or take a gcd.  exact_algebra.series_expand of generating_function is
their test oracle.

Convention notes, forced by cross-checking against the row product:

* the prefactor is 1 + beta*z/(2 - (2*alpha+1)*z); writing the inner
  coefficient as 2*(2*alpha+1) reproduces none of the per-family entries;
* for the traceless unitary series (su) every weight is shifted by -t/n
  (t = diagram size), so the rows beyond the diagram are no longer inert:
  they telescope to a residual factor n/(n + z*t) which a bare run-length
  product misses.  The block product here includes it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

from negdim.exact_algebra import (
    ExactDivisionError,
    MultiPoly,
    RatFunc,
    Scalar,
    _coeff,
    _grlex,
    _trim,
    ratfunc_equal,
)
from negdim.partitions import (
    Partition,
    block_param,
    check_partition,
    format_partition,
    partitions_up_to_weight,
    rectangle,
    transpose,
    weight,
)
from negdim.reporting import CheckResult, VerificationReport


class GroupSpec(NamedTuple):
    """Weight-ladder data for one classical family.

    alpha and the index shift are linear in the rank: alpha = a1*n + a0,
    shift_i = sign(i)*(c1*n + c0) - i.  Negative indices mirror the
    positive ladder (l_{-i} = -l_i) and the odd orthogonal family carries
    an extra self-paired index 0.
    """

    family: str
    alpha: Tuple[Fraction, Fraction]
    beta: Fraction
    shift: Tuple[Fraction, Fraction]
    mirrored: bool
    has_zero_index: bool
    traceless: bool = False


FAMILIES: Dict[str, GroupSpec] = {
    "u": GroupSpec("u", (Fraction(1, 2), Fraction(-1, 2)), Fraction(0),
                   (Fraction(1, 2), Fraction(1, 2)), False, False),
    "su": GroupSpec("su", (Fraction(1, 2), Fraction(-1, 2)), Fraction(0),
                    (Fraction(1, 2), Fraction(1, 2)), False, False,
                    traceless=True),
    "b": GroupSpec("b", (Fraction(1), Fraction(-1, 2)), Fraction(1),
                   (Fraction(1), Fraction(1, 2)), True, True),
    "c": GroupSpec("c", (Fraction(1), Fraction(0)), Fraction(-1),
                   (Fraction(1), Fraction(1)), True, False),
    "d": GroupSpec("d", (Fraction(1), Fraction(-1)), Fraction(1),
                   (Fraction(1), Fraction(0)), True, False),
}

BLOCK_FAMILIES = ("u", "su", "c", "d")

# display names for reports and the CLI
FAMILY_NAMES = {
    "u": "U(n)", "su": "SU(n)", "b": "O(2n+1)", "c": "Sp(2n)", "d": "O(2n)",
}


def group_spec(family: str) -> GroupSpec:
    try:
        return FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(FAMILIES))
        raise ValueError(f"unknown family {family!r} (expected one of {known})") from None


# -- ladders ------------------------------------------------------------------
#
# Every factor of the spectral products and of the prefactor is 1 - z*m with
# m = a/n + b + c*n.  A ladder is a map from the triple (a, b, c) to a signed
# exponent, standing for prod (1 - z*m)**e.  Over Q(n) each factor has degree
# 1 in z and constant term 1, so distinct values are distinct, non-associate
# irreducibles: two ladders are the same function exactly when they are the
# same map, and cancellation is adding exponents.  At an integer rank n the
# key is the int K = 2n*m instead (_at_rank), with the same meaning.

Key = Tuple[Scalar, Scalar, Scalar]
Ladder = Dict[Key, int]
# a ladder keyed by ints: K = 2n*m at an integer rank n, or the value at
# n = 2**W of d*n*m at the symbolic rank (_keyed)
RankLadder = Dict[int, int]


def _mul(ladder, key, exp: int = 1):
    """ladder times (1 - z*m)**exp in place, m keyed by key; the value 0,
    keyed 0 or (0, 0, 0), is the factor 1 and is dropped.  Returns ladder."""
    if key and key != (0, 0, 0):
        e = ladder.get(key, 0) + exp
        if e:
            ladder[key] = e
        else:
            del ladder[key]
    return ladder


def _quotient(x: int, y: int) -> Scalar:
    """x/y as a canonical Scalar, for y != 0."""
    return x // y if x % y == 0 else Fraction(x, y)


def _cleared(key: Key, d: int) -> Tuple[int, int, int]:
    """d*(a, b, c) as ints, for d a common denominator of the key."""
    a, b, c = key
    return (a.numerator * (d // a.denominator), b.numerator * (d // b.denominator),
            c.numerator * (d // c.denominator))


def _at_rank(ladder: Ladder, n: int) -> RankLadder:
    """The ladder with the rank set to the integer n, keyed by
    K = 2n*m = 2a + (2b + 2c*n)*n, equal values merged: an int for every
    block and prefactor key, whose a, b and c are halves of ints."""
    out: RankLadder = {}
    for key, e in ladder.items():
        a, b, c = _cleared(key, 2)
        _mul(out, a + (b + c * n) * n, e)
    return out


# -- expansion ----------------------------------------------------------------
#
# One engine serves both ranks.  Each factor 1 - z*m is 1 - x*v in x = z/D
# with v = D*m: at an integer rank n, D = 2n and v is the int K = 2n*m; at
# the symbolic rank, D = d*n with d the keys' common denominator, and
# v = d*(a + b*n + c*n^2) in Z[n] is taken at n = 2**W (_keyed).  Each factor
# is integer-primitive with constant term 1, and distinct keys give distinct
# irreducibles.  A product of them is one int list in x, lowest power first,
# multiplied in place factor by factor (_line_times) and divided by a factor
# from the low end with no integer division (_line_over).  At the symbolic
# rank every entry is the value at 2**W of an integer polynomial in n with
# coefficients inside the digit range (_width): an entry is 0 exactly when
# its polynomial is, and the polynomial is read back from the entry's
# balanced digits (_digits).  x = z/D is put back once, for the printed
# function (_in_z).


def _width(order: Optional[int], *ladders) -> int:
    """A digit width W such that every integer coefficient, in n, of the
    x-coefficients [x^k], k <= order + 1, of a product of at most E factors
    (1 - x*v)**(+-1) of the ladders, or of a difference of two such, lies
    strictly inside (-2**(W-1), 2**(W-1)), so it is read back from its
    value at n = 2**W by its balanced digits (_digits).  The ladders are
    keyed by (A, B, C) = d*(a, b, c), d the keys' common denominator, and
    E is the sum of |e| over them; order None is E.

    Each factor value is v(n) = A + B*n + C*n^2.  Replacing every
    coefficient of every v by its absolute value majorizes coefficientwise
    in x and n: 1 - x*v by 1 + x*|v|, itself majorized by (1 - x*|v|)**-1,
    and (1 - x*v)**-1 by (1 - x*|v|)**-1.  A polynomial with nonnegative
    coefficients bounds each of them by its value at n = 1, and
    |v|(1) = |A| + |B| + |C| <= U, the largest over the keys.  So every
    n-coefficient of [x^k] of such a product is at most
    [x^k] (1 - x*U)**-E = C(E+k-1, k) * U^k, which does not decrease with
    k, and of a difference of two at most 2 * C(E+order, order+1) *
    U^(order+1) for k <= order + 1.  That covers the numerators N_p of
    spectrum_coefficients and, with E as the order, every entry _gf and
    _expand compute: each is [x^k], k <= E, of N, M or (M - N)/x, times
    and over factors of the prefactor, a trial quotient and its remainder
    included.  W >= 2, the narrowest base with a balanced digit for 1.
    """
    E = sum(abs(e) for ladder in ladders for e in ladder.values())
    U = max((abs(a) + abs(b) + abs(c) for ladder in ladders for a, b, c in ladder),
            default=0)
    order = E if order is None else order
    bound = 2 * math.comb(E + order, order + 1) * U ** (order + 1)
    return max(bound.bit_length() + 1, 2)


def _digits(value: int, width: int) -> List[int]:
    """The balanced base-2**width digits of value, lowest first: value =
    sum digits[i] * 2**(width*i), each digit in [-2**(width-1), 2**(width-1)),
    the last one nonzero; [] for 0.  width >= 2: in base 2 the digits
    -1 and 0 reach no positive value."""
    mask, half = (1 << width) - 1, 1 << (width - 1)
    digits = []
    while value:
        r = ((value + half) & mask) - half
        digits.append(r)
        value = (value - r) >> width
    return digits


def _keyed(n: Optional[int], *ladders, order: Optional[int] = None):
    """(ladders, scale, width): the ladders keyed by ints, and x = z/D as
    _in_z puts it back.  At an integer rank n the ladders come keyed by
    K = 2n*m already, D = scale = 2n and width is 0.  At the symbolic rank
    each key (a, b, c) becomes d*n*m = A + (B + C*n)*n at n = 2**width,
    with (A, B, C) = d*(a, b, c) and d the keys' common denominator, so
    D = d*n and scale = d; the width is _width's at the order."""
    if n is not None:
        return ladders, 2 * n, 0
    d = math.lcm(*(x.denominator for ladder in ladders for key in ladder
                   for x in key))
    if d > 1:  # keys are canonical: with d = 1 they are ints already
        ladders = [{_cleared(key, d): e for key, e in ladder.items()}
                   for ladder in ladders]
    width = _width(order, *ladders)
    X = 1 << width
    return ([{a + (b + c * X) * X: e for (a, b, c), e in ladder.items()}
             for ladder in ladders], d, width)


def _line_times(line: List[int], v: int) -> None:
    """line times 1 - x*v, in place."""
    line.append(0)
    for j in range(len(line) - 1, 0, -1):
        line[j] -= v * line[j - 1]


def _line_over(line: List[int], v: int) -> Optional[List[int]]:
    """line / (1 - x*v) for a trimmed nonzero line, from the low end:
    q_k = p_k + v*q_(k-1); None when the remainder p_top + v*q_(top-1) is
    not 0.  The factor has constant term 1, so no step divides."""
    quot = [0]
    for x in line[:-1]:
        quot.append(x + v * quot[-1])
    return quot[1:] if line[-1] + v * quot[-1] == 0 else None


def _products(ladder: RankLadder) -> Tuple[List[int], List[int]]:
    """(N, M): the products of (1 - x*v)**|e| over the keys v with e > 0
    and with e < 0, coprime int lists in x with constant term 1."""
    num, den = [1], [1]
    for v, e in ladder.items():
        line = num if e > 0 else den
        for _ in range(abs(e)):
            _line_times(line, v)
    return num, den


def _lowest_n_power(line: List[int], width: int) -> int:
    """The lowest power of n in D**t * line(z/D), for a line of degree t at
    the symbolic rank: entry j brings n**(t - j) times its polynomial,
    whose digits start at the entry's lowest set bit over the width, each
    digit being under 2**(width-1) in size."""
    t = len(line) - 1
    return min(t - j + ((x & -x).bit_length() - 1) // width
               for j, x in enumerate(line) if x)


def _z_terms(line: List[int], scale: int, width: int, offset: int) -> dict:
    """The terms of D**t * line(z/D) for a line of degree t, entry j times
    scale**(t - j): keyed (j,) by the power of z at an integer rank, and
    (k, j) with n**(t - j) at the symbolic rank, times n**offset."""
    t = len(line) - 1
    if not width:
        return {(j,): x * scale ** (t - j) for j, x in enumerate(line) if x}
    terms = {}
    for j, x in enumerate(line):
        power = scale ** (t - j)
        for k, c in enumerate(_digits(x, width), offset + t - j):
            if c:
                terms[k, j] = c * power
    return terms


def _in_z(num: List[int], den: List[int], scale: int, width: int,
          shift: int = 0) -> RatFunc:
    """The canonical RatFunc D**shift * num(x)/den(x) at x = z/D, for
    trimmed int lists num and den coprime over Q(n), num nonzero, with D,
    scale and width as _keyed gives them: D = scale = 2n at an integer
    rank (width 0), and D = scale*n at the symbolic rank, where each entry
    is the value at n = 2**width of a polynomial in n, read back from its
    balanced digits.

    A list of degree t with entry j times D**(t - j) is D**t times its
    value at z/D, a polynomial in z (and n).  The two sides then share no
    factor but the lowest power of n on both, which is divided out; den's
    signed content in grlex order and the powers of scale become num's
    scale."""
    shift += len(den) - len(num)
    low = 0
    if width:
        low = min(_lowest_n_power(num, width) + shift, _lowest_n_power(den, width))
    bottom = _z_terms(den, scale, width, -low)
    content = math.gcd(*bottom.values())
    if bottom[max(bottom, key=_grlex)] < 0:
        content = -content
    if content != 1:
        bottom = {e: c // content for e, c in bottom.items()}
    p, q = (scale ** shift, content) if shift >= 0 else (1, content * scale ** -shift)
    top = _z_terms(num, scale, width, shift - low)
    if p != 1 or q != 1:
        top = {e: _quotient(p * c, q) for e, c in top.items()}
    symbols = ("n", "z") if width else ("z",)
    return RatFunc._raw(MultiPoly._raw(symbols, top), MultiPoly._raw(symbols, bottom))


def _expand(ladder, n: Optional[int] = None) -> RatFunc:
    """The canonical RatFunc of a ladder: at the integer rank n, keyed by
    K = 2n*m, when one is given, and at the symbolic rank otherwise."""
    (ladder,), scale, width = _keyed(n, ladder)
    return _in_z(*_products(ladder), scale, width)


@lru_cache(maxsize=None)
def _first_multiplier(family: str) -> Ladder:
    # shared by every caller, which must copy it before changing it
    # 1 + beta*z/(2 - (2*alpha+1)*z) = (1 - z*(m - beta/2)) / (1 - z*m)
    # with m = alpha + 1/2
    spec = group_spec(family)
    a1, a0 = spec.alpha
    m, c = a0 + Fraction(1, 2), _coeff(a1)
    return _mul(_mul({}, (0, _coeff(m - spec.beta / 2), c)), (0, _coeff(m), c), -1)


def first_multiplier(family: str) -> RatFunc:
    """Prefactor 1 + beta*z/(2 - (2*alpha+1)*z) as a function of (n, z)."""
    return _expand(_first_multiplier(family))


def row_m_values(family: str, lam: Partition, n: int) -> List[Scalar]:
    """The shifted-weight ladder m_i at integer rank n, in index order.

    m_i = base + lambda_i - i with base = c1*n + c0 + alpha (less t/n for
    su), and a mirrored index has 2*alpha - m_i.  Each value is an int when
    integral: always for u, c and d; b's self-paired index 0 has the
    half-integer alpha, and su's values are Fractions where t/n is not an
    integer.
    """
    return _row_values(family, lam, n, 1)


@lru_cache(maxsize=None)
def _row_origin(family: str, n: int, scale: int) -> Tuple[Scalar, Scalar, Scalar]:
    """scale times (c1*n + c0 + alpha, alpha, 2*alpha) at the rank n: the
    base of the values before su's shift, l_0 and the mirror's offset.
    Each parameter is half an int, so they are worked out in ints, twice
    over."""
    spec = FAMILIES[family]
    a1, a0, c1, c0 = (x.numerator * (2 // x.denominator)
                      for x in (*spec.alpha, *spec.shift))
    alpha = scale * (a1 * n + a0)  # twice scale*alpha
    return (_quotient(scale * (c1 * n + c0) + alpha, 2), _quotient(alpha, 2),
            alpha)


def _check_rank(lam: Partition, n: int) -> None:
    """Refuse a rank below 1 or below the number of rows of lam."""
    if n < 1:
        raise ValueError("rank must be a positive integer")
    if len(lam) > n:
        raise ValueError(
            f"partition {format_partition(lam)} has more than n={n} parts")


def _row_values(family: str, lam: Partition, n: int, scale: int) -> List[Scalar]:
    """scale * m_i for each value of row_m_values, in the same order.  With
    scale = 2n the half-integer alpha and su's shift t/n become ints, so
    every value of every family is an int."""
    spec = group_spec(family)
    lam = check_partition(lam)
    _check_rank(lam, n)
    base, alpha, twice_alpha = _row_origin(family, n, scale)
    if spec.traceless:
        t = scale * weight(lam)
        base -= _quotient(t, n)
    values: List[Scalar] = []
    if spec.has_zero_index:
        values.append(alpha)  # l_0 = 0
    for i in range(1, n + 1):
        m = base + scale * ((lam[i - 1] if i <= len(lam) else 0) - i)
        values.append(m)
        if spec.mirrored:
            values.append(twice_alpha - m)
    return values


def _row_factors(family: str, lam: Partition, n: int) -> RankLadder:
    """The row ladder at rank n, keyed by K = 2n*m as _at_rank keys; it
    telescopes on the values m."""
    D = 2 * n
    ladder: RankLadder = {}
    for K in _row_values(family, lam, n, D):
        _mul(ladder, K + D)
        _mul(ladder, K, -1)
    return ladder


def row_product(family: str, lam: Partition, n: int) -> RatFunc:
    """Product of (1 - z(m_i+1))/(1 - z m_i) over the full ladder at rank n."""
    return _expand(_row_factors(family, lam, n), n)


def _block_factors(family: str, lam: Partition) -> Ladder:
    group_spec(family)  # an unknown family gets its own message
    if family not in BLOCK_FAMILIES:
        raise ValueError(f"no block form for family {family!r}")
    lam = check_partition(lam)
    bp = block_param(lam)
    k, A, B = bp.count, bp.A, bp.B
    pi: Ladder = {}

    if family in ("u", "su"):
        # su shifts every value by -t/n, and its empty rows telescope to the
        # residual n/(n + z t) = 1/(1 + z t/n); the empty diagram has t = 0
        s = -weight(lam) if family == "su" else 0
        for a in range(k + 1):
            _mul(pi, (s, B[k - a] - A[a], 1))
        for a in range(1, k + 1):
            _mul(pi, (s, B[k - a + 1] - A[a], 1), -1)
        return _mul(pi, (s, 0, 0), -1)

    # symplectic / even orthogonal: s = 2n + sigma
    sigma = 1 if family == "c" else -1
    for a in range(k + 1):
        _mul(pi, (0, B[k - a] - A[a] + sigma, 2))
        _mul(pi, (0, A[a] - B[k - a], 0), -1)
    for a in range(1, k + 1):
        _mul(pi, (0, B[k - a + 1] - A[a] + sigma, 2), -1)
        _mul(pi, (0, A[a] - B[k - a + 1], 0))
    _mul(pi, (0, 0, 1))              # 1 - z n
    return _mul(pi, (0, sigma, 1), -1)  # 1 - z (n + sigma)


def block_product(family: str, lam: Partition) -> RatFunc:
    """Run-length form of the spectral product, polynomial in the rank symbol.

    Valid for the families with paired-index telescoping (u, su, c, d); the
    odd orthogonal ladder has no such form here.
    """
    return _expand(_block_factors(family, lam))


def _rectangle_factors(family: str, p: int, q: int) -> Ladder:
    if p < 1 or q < 1:
        raise ValueError("rectangle sides must be positive integers")
    if family in ("u", "su"):
        s = -p * q if family == "su" else 0
        pi = {(s, p, 1): 1, (s, -q, 1): 1, (s, p - q, 1): -1}
        return _mul(pi, (s, 0, 0), -1)
    if family in ("c", "d"):
        sigma = 1 if family == "c" else -1
        pi: Ladder = {}
        for key in ((0, p + sigma, 2), (0, sigma - q, 2), (0, q - p, 0),
                    (0, 0, 1)):
            _mul(pi, key)
        for key in ((0, p - q + sigma, 2), (0, sigma, 1), (0, -p, 0),
                    (0, q, 0)):
            _mul(pi, key, -1)
        return pi
    raise ValueError(f"no rectangle closed form for family {family!r}")


def rectangle_product(family: str, p: int, q: int) -> RatFunc:
    """Closed form of the block product on a q-row, p-column rectangle."""
    return _expand(_rectangle_factors(family, p, q))


class CasimirGF(NamedTuple):
    """Generating function together with the query it answers."""

    family: str
    lam: Partition
    mode: str
    n: Optional[int]
    gf: RatFunc


def _gf(fm, pi, n: Optional[int] = None) -> RatFunc:
    """fm * (1 - pi) / z, expanded in canonical form without a gcd: at the
    integer rank n, both ladders keyed by K = 2n*m, when one is given, and
    at the symbolic rank otherwise.

    With the ladders keyed by ints (_keyed) and pi = N/M from _products,
    C = fm * (M - N) / (D*x*M), and M - N has no constant term.  N/M is
    reduced, so gcd(M - N, M) = 1: fm's numerator factors cancel only
    against M, by matching keys, and its denominator factors only against
    M - N, by trial division (_line_over).  fm's factors left over
    multiply the two lists."""
    (fm, pi), scale, width = _keyed(n, fm, pi)
    num, den = _products(pi)
    diff = den + [0] * (len(num) - len(den))
    for j, x in enumerate(num):
        diff[j] -= x
    diff = _trim(diff)[1:]  # divided by x
    if not diff:
        return RatFunc.const(0)
    for v, e in fm.items():
        if e > 0:
            for _ in range(min(e, -pi.get(v, 0))):
                den, e = _line_over(den, v), e - 1
                if den is None:
                    raise ExactDivisionError("a cancelled factor must divide M")
        else:
            while e and (quot := _line_over(diff, v)) is not None:
                diff, e = quot, e + 1
        for _ in range(abs(e)):
            _line_times(diff if e > 0 else den, v)
    return _in_z(diff, den, scale, width, -1)


def _ladders(family: str, lam: Partition, mode: str, n: Optional[int]):
    """(fm, pi): the prefactor and spectral-product ladders of a family,
    after every argument check: keyed by (a, b, c) at the symbolic rank,
    and by K = 2n*m (_at_rank) when an integer rank n is given.

    mode "blocks" keeps the rank symbolic, or evaluates at n when one is
    given; mode "rows" needs an integer rank n >= #rows.
    """
    lam = check_partition(lam)
    if mode == "blocks":
        pi = _block_factors(family, lam)
        if n is not None:
            _check_rank(lam, n)
            pi = _at_rank(pi, n)
    elif mode == "rows":
        if n is None:
            raise ValueError("rows mode needs an integer rank n")
        pi = _row_factors(family, lam, n)
    else:
        raise ValueError(f"unknown mode {mode!r} (expected blocks or rows)")
    fm = _first_multiplier(family)
    return (fm, pi) if n is None else (_at_rank(fm, n), pi)


def generating_function(family: str, lam: Partition, mode: str = "blocks",
                        n: Optional[int] = None) -> CasimirGF:
    """C(lambda, z) = prefactor * (1 - product) / z, exactly.

    mode "blocks" keeps the rank symbolic, or evaluates at n when one is
    given; mode "rows" needs an integer rank n >= #rows and returns a
    function of z alone.
    """
    lam = check_partition(lam)
    return CasimirGF(family, lam, mode, n, _gf(*_ladders(family, lam, mode, n), n))


def _series(ladder: RankLadder, s: List[int]) -> List[int]:
    """The power series s_0..s_order in x, each s_k an int, times
    prod (1 - x*v)**e over the ladder's keys v, truncated at
    order = len(s) - 1; s is updated in place factor by factor."""
    order = len(s) - 1
    for v, e in ladder.items():
        if e > 0:  # times 1 - x*v: s_k -= v*s_(k-1), k descending
            v, steps = -v, range(order, 0, -1)
        else:  # over 1 - x*v: s_k += v*s_(k-1), k ascending
            steps = range(1, order + 1)
        for _ in range(abs(e)):
            for k in steps:
                s[k] += v * s[k - 1]
    return s


def _in_n(a: List[int], scale: int = 1) -> MultiPoly:
    """The MultiPoly sum a[k] * n**k / scale, for a list a empty or with
    a nonzero last entry: a polynomial in n exactly when a has two entries
    or more, so the symbol needs no pruning scan."""
    terms = {(k,): _quotient(x, scale) for k, x in enumerate(a) if x}
    if len(a) > 1:
        return MultiPoly._raw(("n",), terms, prune=False)
    return MultiPoly._raw((), {(): x for x in terms.values()}, prune=False)


def spectrum_coefficients(family: str, lam: Partition, order: int,
                          mode: str = "blocks", n: Optional[int] = None) -> List[RatFunc]:
    """[C_0, ..., C_order] of the generating function, read off the ladders.

    With F the series of fm and G = F times the series of pi, continued
    from a copy of F, C = fm*(1 - pi)/z = (F - G)/z, so
    C_p = F_(p+1) - G_(p+1).  The ladders are keyed by ints (_keyed), and
    the series run in x = z/D on the keys, so C_p = N_p / D^(p+1) with N_p
    the int coefficient of x^(p+1) in F - G.  At an integer rank n,
    D = 2n.  At the symbolic rank D = d*n, with d the common denominator
    of the keys, N_p is an integer polynomial in n, and its int is the
    value at n = 2**W, with W from _width at the query's order, from which
    N_p is read back as balanced digits (Kronecker substitution).  The
    only factor of the denominator N_p can share is a power of n, so
    cancelling it gives the canonical form: no gcd and no series division.
    """
    fm, pi = _ladders(family, lam, mode, n)
    if order < 0:
        raise ValueError("series order must be nonnegative")
    (fm, pi), scale, width = _keyed(n, fm, pi, order=order)
    f = _series(fm, [1] + [0] * (order + 1))
    g = _series(pi, list(f))
    coeffs, power = [], 1
    for p in range(order + 1):
        power *= scale
        if not width:
            coeffs.append(RatFunc.const(_quotient(f[p + 1] - g[p + 1], power)))
            continue
        digits = _digits(f[p + 1] - g[p + 1], width)  # N_p at n = 2**W
        # cancel the lowest power of n, at most the p+1 of the denominator
        low = min(next((k for k, x in enumerate(digits) if x), p + 1), p + 1)
        coeffs.append(RatFunc._raw(_in_n(digits[low:], power),
                                   _in_n([0] * (p + 1 - low) + [1])))
    return coeffs


def _mirror(ladder: Ladder) -> Ladder:
    """The ladder under {n -> -n, z -> -z}: 1 - z*m(a, b, c) becomes
    1 - z*m(a, -b, c)."""
    return {(a, -b, c): e for (a, b, c), e in ladder.items()}


def _first_difference(left: Ladder, right: Ladder) -> Key:
    """The key, smallest by b, whose exponents in two unequal ladders differ."""
    return min((k for k in left.keys() | right.keys()
                if left.get(k) != right.get(k)),
               key=lambda k: (k[1], k[2], k[0]))


def _format_value(key: Key) -> str:
    """m = a/n + b + c*n as text."""
    a, b, c = key
    if a:
        return f"({MultiPoly(('n',), {(2,): c, (1,): b, (0,): a})})/n"
    return str(MultiPoly(("n",), {(1,): c, (0,): b}))


def _witness(lhs: Ladder, rhs: Ladder) -> str:
    """The first value whose exponents in two unequal ladders differ."""
    key = _first_difference(lhs, rhs)
    return (f"m={_format_value(key)} has exponent {lhs.get(key, 0)} "
            f"in lhs and {rhs.get(key, 0)} in rhs")


def _ladder_check(check_id: str, inputs: Tuple[Tuple[str, str], ...],
                  lhs: Ladder, rhs: Ladder, text: Optional[str] = None) -> CheckResult:
    """Two ladders as functions: equal exactly when equal maps.  The printed
    sides are the ladders expanded (_expand), once for a check that holds,
    since equal functions have one canonical form; text, when given, is
    the lhs's expansion printed already."""
    holds = lhs == rhs
    if text is None:
        text = str(_expand(lhs))
    return CheckResult(check_id=check_id, holds=holds, inputs=inputs,
                       lhs=text, rhs=text if holds else str(_expand(rhs)),
                       notes="" if holds else _witness(lhs, rhs))


def _negation_check(name: str, left: str, right: str,
                    lam: Partition) -> CheckResult:
    """C_left(lam, z) against -C_right(lam', -z) at negated rank.

    With C = fm * (1 - pi) / z, negating n and z mirrors both ladders and
    the sign of z cancels the outer sign, so the rhs is
    mirror(fm) * (1 - mirror(pi)) / z.  Equal ladder pairs are the same
    function and expand once; unequal ones are expanded and compared
    exactly, and a failure names the first value where they differ.
    """
    lam = check_partition(lam)
    fm, pi = _first_multiplier(left), _block_factors(left, lam)
    fm_r = _mirror(_first_multiplier(right))
    pi_r = _mirror(_block_factors(right, transpose(lam)))
    lhs = _gf(fm, pi)
    holds, rhs, notes = True, lhs, ""
    if (fm, pi) != (fm_r, pi_r):
        rhs = _gf(fm_r, pi_r)
        holds = ratfunc_equal(lhs, rhs)
        if not holds:
            notes = (f"product: {_witness(pi, pi_r)}" if pi != pi_r
                     else f"prefactor: {_witness(fm, fm_r)}")
    return CheckResult(
        check_id=f"casimir/{name}/{format_partition(lam)}",
        holds=holds,
        inputs=(("lambda", format_partition(lam)),),
        lhs=str(lhs),
        rhs=str(rhs),
        notes=notes,
    )


def check_sp_so_duality(lam: Partition) -> CheckResult:
    """C_sp(lambda, z) against -C_so(lambda', -z) at negated rank."""
    return _negation_check("sp-so", "c", "d", lam)


def check_u_selfduality(lam: Partition) -> CheckResult:
    """C_u(lambda, z) against -C_u(lambda', -z) at negated rank."""
    return _negation_check("u-self", "u", "u", lam)


def check_su_rectangle_invariance(p: int, q: int) -> CheckResult:
    """The traceless rectangle product is fixed by {n -> -n, p <-> q, z -> -z}:
    the rhs is the mirrored (q, p) ladder."""
    return _su_rectangle_check(p, q)


def _su_rectangle_check(p: int, q: int, text: Optional[str] = None) -> CheckResult:
    """check_su_rectangle_invariance, with the printed expansion of the
    (p, q) block ladder when the caller has it."""
    return _ladder_check(
        f"casimir/su-rect/{p}x{q}", (("p", str(p)), ("q", str(q))),
        _block_factors("su", rectangle(p, q)),
        _mirror(_block_factors("su", rectangle(q, p))), text)


def check_rows_vs_blocks(family: str, lam: Partition, ranks) -> CheckResult:
    """Block product specialized at several integer ranks against row
    products, compared as ladders: equal maps exactly when equal functions.
    Both ladders are keyed by K = 2n*m (_at_rank), an int for every
    family."""
    lam = check_partition(lam)
    blocks = _block_factors(family, lam)
    bad = []
    witness = ""
    for n in ranks:
        specialized = _at_rank(blocks, n)
        rows = _row_factors(family, lam, n)
        if specialized != rows:
            if not bad:
                key = min(k for k in specialized.keys() | rows.keys()
                          if specialized.get(k) != rows.get(k))
                witness = (f"; at n={n}, m={_quotient(key, 2 * n)} has exponent "
                           f"{specialized.get(key, 0)} in blocks and "
                           f"{rows.get(key, 0)} in rows")
            bad.append(n)
    return CheckResult(
        check_id=f"casimir/rows-blocks/{family}/{format_partition(lam)}",
        holds=not bad,
        inputs=(("family", family), ("lambda", format_partition(lam)),
                ("ranks", ",".join(str(n) for n in ranks))),
        notes=f"mismatch at n={bad}{witness}" if bad else "",
    )


def check_rectangle_closed_form(family: str, p: int, q: int) -> CheckResult:
    """Closed rectangle form against the general block product, symbolically."""
    return _ladder_check(
        f"casimir/rect-closed/{family}/{p}x{q}",
        (("family", family), ("p", str(p)), ("q", str(q))),
        _rectangle_factors(family, p, q),
        _block_factors(family, rectangle(p, q)))

# -- sweep drivers -----------------------------------------------------------


def verify_sp_so(max_weight: int = 6) -> VerificationReport:
    """Symplectic/orthogonal rank-negation duality for all diagrams up to
    the weight bound, as identities in both the rank and z."""
    report = VerificationReport(suite="casimir-sp-so",
                                config={"maxWeight": max_weight})
    for lam in partitions_up_to_weight(max_weight):
        report.add(check_sp_so_duality(lam))
    report.sort()
    return report


def verify_u_self(max_weight: int = 6) -> VerificationReport:
    report = VerificationReport(suite="casimir-u-self",
                                config={"maxWeight": max_weight})
    for lam in partitions_up_to_weight(max_weight):
        report.add(check_u_selfduality(lam))
    report.sort()
    return report


def verify_duality(max_weight: int = 6) -> VerificationReport:
    """Both rank-negation sweeps in one report (CLI entry point)."""
    report = VerificationReport(suite="casimir-duality",
                                config={"maxWeight": max_weight})
    report.extend(verify_sp_so(max_weight).cases)
    report.extend(verify_u_self(max_weight).cases)
    report.sort()
    return report


def verify_consistency(max_weight: int = 6, max_rect: int = 4) -> VerificationReport:
    """Rows against blocks at 5 consecutive ranks for every block family and
    diagram, the closed rectangle forms symbolically, and the traceless
    rectangle invariance."""
    report = VerificationReport(
        suite="casimir-consistency",
        config={"maxWeight": max_weight, "maxRect": max_rect})
    for family in BLOCK_FAMILIES:
        for lam in partitions_up_to_weight(max_weight):
            start = max(len(lam), 1)
            report.add(check_rows_vs_blocks(family, lam,
                                            range(start, start + 5)))
    # the rhs of rect-closed/su/pxq is the expanded su block ladder of the
    # rectangle, which su-rect/pxq prints as its lhs
    su_blocks = {}
    for family in BLOCK_FAMILIES:
        for p in range(1, max_rect + 1):
            for q in range(1, max_rect + 1):
                result = check_rectangle_closed_form(family, p, q)
                if family == "su":
                    su_blocks[p, q] = result.rhs
                report.add(result)
    for p in range(1, max_rect + 1):
        for q in range(1, max_rect + 1):
            report.add(_su_rectangle_check(p, q, su_blocks[p, q]))
    report.sort()
    return report
