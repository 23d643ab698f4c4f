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
ladders.  The data format follows the rank.  At the symbolic rank a
ladder expands into its canonical RatFunc straight from its keys, on rows
of dense int lists in n with no gcd (see _expand), and builds one
MultiPoly per side at the end; each key's linear form is computed once
(_linear).  C = prefactor * (1 - product) / z stays on those rows too,
starting from the product's rows: one subtraction, a trial division by
the prefactor's denominator factor, the product's denominator divided by
what the prefactor cancels, and one MultiPoly per side of C alone (see
_gf_from_factors).  At an integer rank n every value times D = 2n is an
int, so a ladder there is keyed by that int K (_at_rank, _row_factors)
and each factor 1 - z*m is 1 - x*K in x = z/D: the products are flat int
lists in x with constant term 1, C stays on one such list (_gf_at_rank),
and x = z/D is put back once, for the printed function (_in_z).

The Taylor coefficients C_p (spectrum_coefficients) are those of
C = (F - G)/z, with F the series of the prefactor ladder and G = F times
the series of the product ladder: truncated power series multiplied out
factor by factor, one Python int per power of z at both ranks.  At an
integer rank they run in x = z/D on the keys K themselves.  At the
symbolic rank each int is the value at n = 2**W of a polynomial in n,
with W wide enough (_width) that the polynomial is read back from its
balanced base-2**W digits (Kronecker substitution).  They never expand
the generating function, divide a series or take a gcd.
exact_algebra.series_expand of generating_function is their test oracle.

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
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from negdim.exact_algebra import (
    ExactDivisionError,
    MultiPoly,
    RatFunc,
    Scalar,
    _coeff,
    _dense_div,
    _dense_primitive,
    _madd,
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
# a ladder at an integer rank n, keyed by K = 2n*m
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
# Each factor is 1 - z*m = s * (alpha*n**i + z*B(n)) / n**i, with i = 1 when
# a != 0 and 0 otherwise, s rational, alpha an integer and B a dense integer
# list in n, lowest degree first.  alpha*n**i + z*B is 1 - z*(b + c*n), or
# n - z*(a + b*n + c*n^2), made integer-primitive with a positive leading
# coefficient in grlex order.  It is linear in z with coprime coefficients
# in Z[n], so irreducible; distinct values give distinct ones, none of them
# n.  A product of them is held as rows by power of z, each row a dense int
# list in n, and each factor multiplies the rows in place.  The product of
# the e > 0 factors is coprime to that of the others, which is
# integer-primitive with positive leading coefficient (Gauss's lemma): the
# canonical form.

Rows = List[List[int]]


@lru_cache(maxsize=None)
def _linear(key: Key) -> Tuple[int, int, int, int, Tuple[int, ...]]:
    """(u, v, i, alpha, B) with 1 - z*m = (u/v) * (alpha*n**i + z*B) / n**i."""
    a, b, c = key
    i = 1 if a else 0
    B = [-a, -b, -c] if a else [-b, -c]
    while B and not B[-1]:
        B.pop()
    u = v = 1
    if any(type(x) is not int for x in B):
        for x in B:
            v = math.lcm(v, x.denominator)
        B = [x.numerator * (v // x.denominator) for x in B]
        u = math.gcd(v, *B)
        B = [x // u for x in B]
    # alpha*n**i has total degree i and z*n**j degree j + 1; on a tie grlex
    # leads with the higher power of n, so alpha leads when i >= len(B)
    if i < len(B) and B[-1] < 0:
        return -u, v, i, -v // u, tuple(-x for x in B)
    return u, v, i, v // u, tuple(B)


def _times(rows: Rows, i: int, alpha: int, B: Tuple[int, ...]) -> None:
    """rows times alpha*n**i + z*B(n), in place."""
    rows.append([])
    for j in range(len(rows) - 1, -1, -1):
        out = [0] * i + [alpha * x for x in rows[j]]
        if j:
            _madd(out, B, rows[j - 1])
        rows[j] = out


def _rows(ladder: Ladder) -> Tuple[Scalar, int, Rows, Rows]:
    """(s, d, num, den) with the ladder's product s * n**d * num/den, num
    and den the products of the primitive alpha*n**i + z*B over the keys
    with e > 0 and e < 0."""
    p = q = 1
    d = 0
    num: Rows = [[1]]
    den: Rows = [[1]]
    for key, e in ladder.items():
        u, v, i, alpha, B = _linear(key)
        if e > 0:
            p, q, rows = p * u ** e, q * v ** e, num
        else:
            p, q, rows = p * v ** -e, q * u ** -e, den
        d -= i * e
        for _ in range(abs(e)):
            _times(rows, i, alpha, B)
    return _quotient(p, q), d, num, den


def _poly(rows: Rows, shift: int = 0) -> MultiPoly:
    """The MultiPoly n**shift * sum_j rows[j] * z**j."""
    terms = {(k, j): x for j, row in enumerate(rows)
             for k, x in enumerate(row, shift) if x}
    return MultiPoly._raw(("n", "z"), terms)


def _ratfunc(s: Scalar, d: int, num: Rows, den: Rows) -> RatFunc:
    """The canonical RatFunc s * n**d * num/den, from the rows of coprime
    num and den, den integer-primitive with positive leading coefficient."""
    return RatFunc._raw(_poly(num, max(d, 0))._scaled(s),
                        _poly(den, max(-d, 0)))


def _expand(ladder: Ladder) -> RatFunc:
    """The canonical RatFunc of a ladder."""
    return _ratfunc(*_rows(ladder))


# -- expansion at an integer rank ----------------------------------------------
#
# At an integer rank n a ladder is keyed by K = D*m with D = 2n, and each
# factor 1 - z*m is 1 - x*K in x = z/D: integer-primitive with constant
# term 1, so distinct keys give distinct irreducibles.  A product of them is
# one dense int list in x, lowest power first, multiplied in place factor by
# factor, and x = z/D is put back once, for the printed function.


def _line_times(line: List[int], K: int) -> None:
    """line times 1 - x*K, in place."""
    line.append(0)
    for j in range(len(line) - 1, 0, -1):
        line[j] -= K * line[j - 1]


def _products(ladder: RankLadder) -> Tuple[List[int], List[int]]:
    """(N, M): the products of (1 - x*K)**|e| over the keys with e > 0 and
    with e < 0, coprime int lists in x with constant term 1."""
    num, den = [1], [1]
    for K, e in ladder.items():
        line = num if e > 0 else den
        for _ in range(abs(e)):
            _line_times(line, K)
    return num, den


def _z_poly(coeffs: List[Scalar]) -> MultiPoly:
    """The MultiPoly sum coeffs[j] * z**j."""
    return MultiPoly._raw(("z",), {(j,): c for j, c in enumerate(coeffs) if c})


def _in_z(num: List[int], den: List[int], D: int, shift: int = 0) -> RatFunc:
    """The canonical RatFunc D**shift * num(x)/den(x) at x = z/D, for
    coprime trimmed int lists num and den, num nonzero.

    A list of degree d with coefficient j times D**(d - j) is D**d times
    its value at z/D, an int list in z.  den's is made integer-primitive
    with a positive leading coefficient, and its signed content and the
    powers of D become num's scale."""
    top, low = len(num) - 1, len(den) - 1
    powers = [D ** k for k in range(max(top, low) + 1)]
    content, den = _dense_primitive([x * powers[low - j] for j, x in enumerate(den)])
    shift += low - top
    p, q = (D ** shift, content) if shift >= 0 else (1, content * D ** -shift)
    return RatFunc._raw(
        _z_poly([_quotient(p * x * powers[top - j], q) for j, x in enumerate(num)]),
        _z_poly(den))


def _expand_at(ladder: RankLadder, n: int) -> RatFunc:
    """The canonical RatFunc of a ladder at the integer rank n."""
    return _in_z(*_products(ladder), 2 * n)


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
    return _expand_at(_row_factors(family, lam, n), n)


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


def _divide(rows: Rows, i: int, alpha: int, B: Tuple[int, ...]) -> Optional[Rows]:
    """rows / (alpha*n**i + z*B) from the low end in z, each step an exact
    division by alpha*n**i; None when a step is not exact or a remainder
    is left past the top row.  The factor is integer-primitive, so the
    quotient of int rows is int rows (Gauss's lemma) and None proves that
    it does not divide."""
    minus_B, lead = [-x for x in B], [0] * i + [alpha]
    quot: Rows = [[]]
    for row in rows:
        r = list(row)
        _madd(r, minus_B, quot[-1])
        q = _dense_div(_trim(r), lead)
        if q is None:
            return None
        quot.append(q)
    return None if quot.pop() else quot[1:]


def _gf_from_factors(fm: Ladder, pi: Ladder) -> RatFunc:
    """fm * (1 - pi) / z, expanded in canonical form without a gcd.

    With pi = N/D reduced, gcd(D - N, D) = 1.  So the factors of D cancel
    only against the numerator factors of fm, and a denominator factor of
    fm only against D - N.  With pi = (p/q) * n**d * num/den from _rows,
    q*(D - N) is held as int rows and trial-divided by fm's denominator
    factors (_divide); fm's other numerator factors multiply it.  den, the
    rows of D, is divided exactly by the factors that fm's numerator
    cancels and multiplied by fm's denominator factors left over.  The
    scale is fm's over q, and the power of n fm's less that of D.  No
    factor vanishes at z = 0, so a failure of the division by z means the
    spectral product lost its regularity.
    """
    s, d, num, den = _rows(pi)
    p, q, lower = 1, s.denominator, max(-d, 0)
    diff = [[0] * lower + [q * x for x in row] for row in den]
    minus_p = [0] * max(d, 0) + [-s.numerator]
    for j, row in enumerate(num):
        if j == len(diff):
            diff.append([])
        _madd(diff[j], minus_p, row)
    if not any(map(any, diff)):
        return RatFunc.const(0)
    d = -lower
    for key, e in fm.items():
        u, v, i, alpha, B = _linear(key)
        d -= i * e
        if e > 0:
            p, q = p * u ** e, q * v ** e
            for _ in range(min(e, -pi.get(key, 0))):
                den, e = _divide(den, i, alpha, B), e - 1
                if den is None:
                    raise ExactDivisionError("a cancelled factor must divide D")
        else:
            p, q = p * v ** -e, q * u ** -e
            while e and (quot := _divide(diff, i, alpha, B)) is not None:
                diff, e = quot, e + 1
        for _ in range(abs(e)):
            _times(diff if e > 0 else den, i, alpha, B)
    if any(diff[0]):
        raise ExactDivisionError(
            "generating function is not regular at z = 0; "
            "the z-constant term of 1 - product failed to cancel")
    return _ratfunc(_coeff(Fraction(p, q)), d, diff[1:], den)


def _gf_at_rank(fm: RankLadder, pi: RankLadder, n: int) -> RatFunc:
    """fm * (1 - pi) / z at the integer rank n, on flat int lists in x = z/D
    with D = 2n, expanded in canonical form without a gcd.

    With pi = N/M from _products, C = fm * (M - N) / (D*x*M), and M - N has
    no constant term.  As in _gf_from_factors gcd(M - N, M) = 1, so fm's
    numerator factors cancel against M by matching and its denominator
    factors against M - N by trial division (_dense_div); fm's factors left
    over multiply the two lists."""
    num, den = _products(pi)
    diff = den + [0] * (len(num) - len(den))
    for j, x in enumerate(num):
        diff[j] -= x
    diff = _trim(diff)[1:]  # divided by x
    if not diff:
        return RatFunc.const(0)
    for K, e in fm.items():
        if e > 0:
            for _ in range(min(e, -pi.get(K, 0))):
                den, e = _dense_div(den, [1, -K]), e - 1
                if den is None:
                    raise ExactDivisionError("a cancelled factor must divide M")
        else:
            while e and (quot := _dense_div(diff, [1, -K])) is not None:
                diff, e = quot, e + 1
        for _ in range(abs(e)):
            _line_times(diff if e > 0 else den, K)
    return _in_z(diff, den, 2 * n, -1)


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
    fm, pi = _ladders(family, lam, mode, n)
    gf = _gf_from_factors(fm, pi) if n is None else _gf_at_rank(fm, pi, n)
    return CasimirGF(family, lam, mode, n, gf)


def _denominator(*ladders: Ladder) -> int:
    """The least common denominator of the a, b and c of every key."""
    return math.lcm(*(x.denominator for ladder in ladders
                      for key in ladder for x in key))


def _series(ladder, s: List[int],
            value: Optional[Callable[[Key], int]] = None) -> List[int]:
    """The power series s_0..s_order in x, each s_k an int, times
    prod (1 - x*v)**e over the ladder with v = value(key), or v the key
    itself when no value is given, truncated at order = len(s) - 1; s is
    updated in place factor by factor."""
    order = len(s) - 1
    for key, e in ladder.items():
        v = value(key) if value else key
        if e > 0:  # times 1 - x*v: s_k -= v*s_(k-1), k descending
            v, steps = -v, range(order, 0, -1)
        else:  # over 1 - x*v: s_k += v*s_(k-1), k ascending
            steps = range(1, order + 1)
        for _ in range(abs(e)):
            for k in steps:
                s[k] += v * s[k - 1]
    return s


def _cleared(key: Key, d: int) -> Tuple[int, int, int]:
    """d*(a, b, c) as ints, for d a common denominator of the key."""
    a, b, c = key
    return (a.numerator * (d // a.denominator), b.numerator * (d // b.denominator),
            c.numerator * (d // c.denominator))


def _width(d: int, order: int, *ladders: Ladder) -> int:
    """A digit width W such that every integer coefficient, in n, of the
    numerators N_0..N_order of spectrum_coefficients lies strictly inside
    (-2**(W-1), 2**(W-1)), so each N_p is read back from its value at
    n = 2**W by its balanced digits (_digits).

    Each factor value is v(n) = A + B*n + C*n^2 with (A, B, C) = d*(a, b, c)
    of its key, and E is the sum of |e| over the ladders.  Replacing every
    coefficient of every v by its absolute value majorizes the series
    coefficientwise in x and n: (1 - x*v)**e by (1 + x*|v|)**e, itself
    majorized by (1 - x*|v|)**-e, and (1 - x*v)**-e by (1 - x*|v|)**-e.  A
    polynomial with nonnegative coefficients bounds each of them by its
    value at n = 1, and |v|(1) = |A| + |B| + |C| <= U, the largest over the
    keys.  So every n-coefficient of F_k and of G_k, whose factors are
    among those of the ladders, is at most [x^k] (1 - x*U)**-E =
    C(E+k-1, k) * U^k, which does not decrease with k, and every one of
    N_p = F_(p+1) - G_(p+1) is at most 2 * C(E+order, order+1) * U^(order+1)
    for p <= order.  W is at least 2, the narrowest base with a balanced
    digit for 1.
    """
    E = sum(abs(e) for ladder in ladders for e in ladder.values())
    U = max((sum(map(abs, _cleared(key, d))) for ladder in ladders
             for key in ladder), default=0)
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
        r = value & mask
        if r >= half:
            r -= mask + 1
        digits.append(r)
        value = (value - r) >> width
    return digits


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
    C_p = F_(p+1) - G_(p+1).  At an integer rank n the ladders are keyed
    by K = D*m with D = 2n, the series run in x = z/D on the keys, and
    C_p = N_p / D^(p+1) with N_p the int coefficient of x^(p+1) in F - G.
    At the symbolic rank, with d the common denominator of the keys, the
    series run in x = z/(d*n), where every factor is 1 - x*v with
    v = d*(a + b*n + c*n^2), so N_p is an integer polynomial in n and
    C_p = N_p / (d*n)^(p+1).  Every series coefficient is one Python int,
    its value at n = X = 2**W, with W from _width, from which N_p is read
    back as balanced base-X digits (Kronecker substitution).  The only
    factor of the denominator N_p can share is a power of n, so cancelling
    it gives the canonical form: no gcd and no series division.
    """
    fm, pi = _ladders(family, lam, mode, n)
    if order < 0:
        raise ValueError("series order must be nonnegative")
    if n is not None:
        f = _series(fm, [1] + [0] * (order + 1))
        g = _series(pi, list(f))
        coeffs, scale = [], 1
        for p in range(order + 1):
            scale *= 2 * n
            coeffs.append(RatFunc.const(_quotient(f[p + 1] - g[p + 1], scale)))
        return coeffs
    d = _denominator(fm, pi)
    width = _width(d, order, fm, pi)
    X = 1 << width

    def value(key: Key) -> int:  # d*n*m at n = X
        a, b, c = _cleared(key, d)
        return a + (b + c * X) * X

    f = _series(fm, [1] + [0] * (order + 1), value)
    g = _series(pi, list(f), value)
    coeffs = []
    for p in range(order + 1):
        digits = _digits(f[p + 1] - g[p + 1], width)  # N_p at n = X
        # cancel the lowest power of n, at most the p+1 of the denominator
        low = min(next((k for k, x in enumerate(digits) if x), p + 1), p + 1)
        coeffs.append(RatFunc._raw(_in_n(digits[low:], d ** (p + 1)),
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
                  lhs: Ladder, rhs: Ladder) -> CheckResult:
    """Two ladders as functions: equal exactly when equal maps.  The printed
    sides are the ladders expanded on integer rows (_expand), once for a
    check that holds, since equal functions have one canonical form."""
    holds = lhs == rhs
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
    lhs = _gf_from_factors(fm, pi)
    holds, rhs, notes = True, lhs, ""
    if (fm, pi) != (fm_r, pi_r):
        rhs = _gf_from_factors(fm_r, pi_r)
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
    return _ladder_check(
        f"casimir/su-rect/{p}x{q}", (("p", str(p)), ("q", str(q))),
        _block_factors("su", rectangle(p, q)),
        _mirror(_block_factors("su", rectangle(q, p))))


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
    for family in BLOCK_FAMILIES:
        for p in range(1, max_rect + 1):
            for q in range(1, max_rect + 1):
                report.add(check_rectangle_closed_form(family, p, q))
    for p in range(1, max_rect + 1):
        for q in range(1, max_rect + 1):
            report.add(check_su_rectangle_invariance(p, q))
    report.sort()
    return report
