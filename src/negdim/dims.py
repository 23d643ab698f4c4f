"""Dimension polynomials of tensor representations and their rank-negation pairing.

The dimension of the irreducible tensor representation lambda of each
classical series is a polynomial in the rank N of degree at most |lambda|.
It is produced here by exact interpolation of the Weyl product at |lambda|+1
consecutive admissible ranks, then confirmed at one extra rank; that keeps
the construction anchored to a formula that can be tested independently.

The pairing verified by king_check: the symplectic dimension at rank N
equals (-1)^|lambda| times the even orthogonal dimension of the transposed
diagram at rank -N.  The sign is forced already by the fundamental pair
(both dimensions are 2N, and 2N = -(-2N)).

The universal three-parameter dimension formula and the parameter triples
of the classical algebras live here too; triples are projective and
unordered, so equivalence testing scales and permutes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from negdim.exact_algebra import MultiPoly, RatFunc, ratfunc_equal
from negdim.partitions import (
    Partition,
    check_partition,
    format_partition,
    transpose,
    weight,
)
from negdim.reporting import CheckResult, VerificationReport

VogelTriple = Tuple[RatFunc, RatFunc, RatFunc]


def weyl_dim(family: str, lam: Partition, n: int) -> int:
    """Weyl-product dimension at integer rank n.

    Families: a = U(n), b = SO(2n+1), c = Sp(2n), d = O(2n).  For the even
    orthogonal series at full rank (#rows = n) the two mirror-image highest
    weights are counted together; that convention is what keeps the
    dimension a single polynomial in the rank.
    """
    family = family.lower()
    lam = check_partition(lam)
    if n < 0:
        raise ValueError("rank must be nonnegative")
    if len(lam) > n:
        raise ValueError(
            f"partition {format_partition(lam)} needs rank >= {len(lam)}, got {n}")
    padded = list(lam) + [0] * (n - len(lam))

    num = den = 1
    if family == "a":
        for i in range(n):
            for j in range(i + 1, n):
                num *= padded[i] - padded[j] + j - i
                den *= j - i
    elif family in ("b", "c", "d"):
        # rho and ell doubled, so the half-integral b-series rho stays an
        # int; each factor below is a ratio unchanged by the doubling
        rho = [2 * (n - i) + {"b": 1, "c": 2, "d": 0}[family]
               for i in range(1, n + 1)]
        ell = [2 * padded[i] + rho[i] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                num *= ell[i] ** 2 - ell[j] ** 2
                den *= rho[i] ** 2 - rho[j] ** 2
        if family != "d":
            for i in range(n):
                num *= ell[i]
                den *= rho[i]
        elif n and padded[n - 1] != 0:
            num *= 2
    else:
        raise ValueError(f"unknown family {family!r} (expected a, b, c or d)")

    result, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"non-integer dimension {Fraction(num, den)} for "
                              f"({family}, {format_partition(lam)}, {n})")
    return result


def _interpolate(points) -> MultiPoly:
    """Lagrange interpolation through integer points, exact."""
    var = MultiPoly.symbol("N")
    total = MultiPoly.const(0)
    for j, (xj, yj) in enumerate(points):
        basis = MultiPoly.const(1)
        denom = Fraction(1)
        for i, (xi, _) in enumerate(points):
            if i != j:
                basis = basis * (var - xi)
                denom *= xj - xi
        total = total + basis * (Fraction(yj) / denom)
    return total


def dim_poly(family: str, lam: Partition) -> MultiPoly:
    """Dimension as a polynomial in the formal rank symbol N.

    Interpolates weyl_dim at N = #rows .. #rows + |lambda| and verifies the
    degree bound at one further rank; a mismatch there would mean the
    dimension is not a polynomial of degree <= |lambda| and aborts loudly.
    """
    family = family.lower()
    lam = check_partition(lam)
    if not lam:
        return MultiPoly.const(1)
    start = len(lam)
    w = weight(lam)
    points = [(n, weyl_dim(family, lam, n)) for n in range(start, start + w + 1)]
    poly = _interpolate(points)
    probe = start + w + 1
    predicted = poly.eval_fractions({"N": Fraction(probe)})
    actual = weyl_dim(family, lam, probe)
    if predicted != actual:
        raise ArithmeticError(
            f"degree bound failed for ({family}, {format_partition(lam)}): "
            f"interpolant gives {predicted} at N={probe}, Weyl product gives {actual}")
    return poly


def king_check(lam: Partition) -> CheckResult:
    """Symplectic dimension vs sign-corrected orthogonal dimension at -N."""
    lam = check_partition(lam)
    lhs = RatFunc(dim_poly("c", lam))
    rhs = RatFunc(dim_poly("d", transpose(lam))).substitute({"N": -RatFunc.symbol("N")})
    if weight(lam) % 2:
        rhs = -rhs
    holds = lhs == rhs
    return CheckResult(
        check_id=f"dims/king/{format_partition(lam)}",
        holds=holds,
        inputs=(("lambda", format_partition(lam)),),
        lhs=str(lhs),
        rhs=str(rhs),
    )


# -- universal dimension formula ------------------------------------------


def vogel_classical(family: str) -> VogelTriple:
    """Parameter triples of the classical series, rank formal."""
    n = RatFunc.symbol("n")
    table = {
        "sp2n": (RatFunc.const(-2), RatFunc.const(1), n + 2),
        "sln": (RatFunc.const(-2), RatFunc.const(2), n),
        "son": (RatFunc.const(-2), RatFunc.const(4), n - 4),
    }
    try:
        return table[family]
    except KeyError:
        known = ", ".join(sorted(table))
        raise ValueError(f"unknown family {family!r} (expected one of {known})") from None


def vogel_dim(triple: VogelTriple) -> RatFunc:
    """dim = (a-2t)(b-2t)(c-2t)/(abc) with t = a+b+c."""
    a, b, c = (RatFunc.const(x) for x in triple)
    t = a + b + c
    den = a * b * c
    if den.is_zero():
        raise ZeroDivisionError("universal dimension needs all three parameters nonzero")
    return (a - 2 * t) * (b - 2 * t) * (c - 2 * t) / den


def vogel_equiv(a: VogelTriple, b: VogelTriple) -> bool:
    """Equality of parameter triples up to permutation and a common nonzero scale."""
    from itertools import permutations

    a = tuple(RatFunc.const(x) for x in a)
    b = tuple(RatFunc.const(x) for x in b)
    for perm in permutations(a):
        scale = None
        for pi, bi in zip(perm, b):
            if not bi.is_zero():
                if pi.is_zero():
                    break
                scale = bi / pi
                break
            if not pi.is_zero():
                break
        else:
            # b is all zero; match only against all-zero perm (excluded by contract)
            scale = RatFunc.const(0)
        if scale is None or scale.is_zero():
            continue
        if all(ratfunc_equal(scale * pi, bi) for pi, bi in zip(perm, b)):
            return True
    return False


def check_vogel_dims() -> List[CheckResult]:
    """The three classical triples reproduce their dimension polynomials."""
    n = RatFunc.symbol("n")
    expected = {
        "sp2n": n * (2 * n + 1),
        "sln": n * n - 1,
        "son": n * (n - 1) / 2,
    }
    results = []
    for family in ("sln", "son", "sp2n"):
        value = vogel_dim(vogel_classical(family))
        holds = ratfunc_equal(value, expected[family])
        results.append(CheckResult(
            check_id=f"dims/vogel-dim/{family}",
            holds=holds,
            inputs=(("family", family),),
            lhs=str(value),
            rhs=str(expected[family]),
        ))
    return results


def check_vogel_sp_so() -> CheckResult:
    """Scaling the symplectic triple by -2 (first two entries swapped) lands on
    the orthogonal triple at doubled negated rank."""
    a, b, c = vogel_classical("sp2n")
    scaled = (-2 * b, -2 * a, -2 * c)
    son = vogel_classical("son")
    minus_2n = {"n": -2 * RatFunc.symbol("n")}
    son_neg = tuple(x.substitute(minus_2n) for x in son)
    holds = vogel_equiv(scaled, son_neg)
    return CheckResult(
        check_id="dims/vogel-sp-so",
        holds=holds,
        inputs=(),
        lhs="(" + ", ".join(str(x) for x in scaled) + ")",
        rhs="(" + ", ".join(str(x) for x in son_neg) + ")",
        notes="sp triple scaled by -2 vs orthogonal triple at n -> -2n",
    )

# -- sweep drivers -----------------------------------------------------------


def check_vogel_invariance() -> CheckResult:
    """The universal dimension is unchanged by permuting the triple and by a
    common nonzero rescaling, with all four quantities formal."""
    a, b, c = (RatFunc.symbol(s) for s in ("va", "vb", "vc"))
    s = RatFunc.symbol("vs")
    base = vogel_dim((a, b, c))
    holds = all(
        ratfunc_equal(base, vogel_dim(perm))
        for perm in ((b, a, c), (c, b, a), (a, c, b), (b, c, a), (c, a, b))
    ) and ratfunc_equal(base, vogel_dim((s * a, s * b, s * c)))
    return CheckResult(
        check_id="dims/vogel-invariance",
        holds=holds,
        inputs=(),
        lhs="dim(permuted / rescaled triple)",
        rhs="dim(triple)",
    )


def verify_king(max_weight: int = 6) -> VerificationReport:
    from negdim.partitions import partitions_up_to_weight

    report = VerificationReport(suite="dims-king",
                                config={"maxWeight": max_weight})
    for lam in partitions_up_to_weight(max_weight):
        report.add(king_check(lam))
    report.sort()
    return report


def verify_vogel() -> VerificationReport:
    report = VerificationReport(suite="dims-vogel", config={})
    report.extend(check_vogel_dims())
    report.add(check_vogel_invariance())
    report.add(check_vogel_sp_so())
    report.sort()
    return report


def verify_fundamental_constants() -> VerificationReport:
    """The empty-diagram generating function is the constant n (unitary) or
    2n (symplectic, even orthogonal), cross-checked against the Weyl-product
    dimension of the defining representation at 5 integer ranks."""
    from negdim.casimir import generating_function

    n = RatFunc.symbol("n")
    expectations = (
        ("u", n, "a"),
        ("c", 2 * n, "c"),
        ("d", 2 * n, "d"),
    )
    report = VerificationReport(suite="dims-fundamental", config={})
    for family, expected, weyl_family in expectations:
        gf = generating_function(family, ()).gf
        symbolic_ok = ratfunc_equal(gf, expected)
        points_ok = True
        for rank in range(1, 6):
            value = gf.eval_fractions({"n": Fraction(rank)})
            if value != weyl_dim(weyl_family, (1,), rank):
                points_ok = False
                break
        report.add(CheckResult(
            check_id=f"dims/fundamental/{family}",
            holds=symbolic_ok and points_ok,
            inputs=(("family", family),),
            lhs=str(gf),
            rhs=str(expected),
            notes="matches the defining-representation dimension at ranks 1..5"
                  if points_ok else "integer-rank cross-check failed",
        ))
    report.sort()
    return report
