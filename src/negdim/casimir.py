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

Convention notes, forced by cross-checking against the row product:

* the prefactor is 1 + beta*z/(2 - (2*alpha+1)*z); writing the inner
  coefficient as 2*(2*alpha+1) reproduces none of the per-family entries;
* for the traceless unitary series (su) every weight is shifted by -t/n
  (t = diagram size), so the rows beyond the diagram are no longer inert:
  they telescope to a residual factor n/(n + z*t) which a bare run-length
  product misses.  The block product here includes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from negdim.exact_algebra import (
    ExactDivisionError,
    MultiPoly,
    RatFunc,
    _coeff,
    _Factored,
    poly_exact_div,
    ratfunc_equal,
    series_expand,
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


@dataclass(frozen=True)
class GroupSpec:
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


def _linear_nz(const, n_coeff=0, z_coeff=0, nz_coeff=0, n2z_coeff=0) -> MultiPoly:
    """Helper: const + n_coeff*n + z_coeff*z + nz_coeff*n*z + n2z_coeff*n^2*z."""
    terms = {}
    for exps, c in (((0, 0), const), ((1, 0), n_coeff), ((0, 1), z_coeff),
                    ((1, 1), nz_coeff), ((2, 1), n2z_coeff)):
        c = _coeff(c)
        if c:
            terms[exps] = c
    return MultiPoly._raw(("n", "z"), terms)


def _one_minus_z(c, n_mult=0) -> MultiPoly:
    """1 - z*(c + n_mult*n)."""
    return _linear_nz(1, z_coeff=-c, nz_coeff=-n_mult)


_N = MultiPoly.symbol("n")


def _first_multiplier(family: str) -> _Factored:
    spec = group_spec(family)
    fm = _Factored()
    if spec.beta:
        a1, a0 = spec.alpha
        # 2 - (2*alpha + 1)*z
        den = _linear_nz(2, z_coeff=-(2 * a0 + 1), nz_coeff=-2 * a1)
        fm.mul(den + _linear_nz(0, z_coeff=spec.beta)).mul(den, -1)
    return fm


def first_multiplier(family: str) -> RatFunc:
    """Prefactor 1 + beta*z/(2 - (2*alpha+1)*z) as a function of (n, z)."""
    return _first_multiplier(family).expand()


def row_m_values(family: str, lam: Partition, n: int) -> List[Fraction]:
    """The shifted-weight ladder m_i at integer rank n, in index order."""
    spec = group_spec(family)
    lam = check_partition(lam)
    if n < 1:
        raise ValueError("rank must be a positive integer")
    if len(lam) > n:
        raise ValueError(
            f"partition {format_partition(lam)} has more than n={n} parts")
    a1, a0 = spec.alpha
    c1, c0 = spec.shift
    alpha = a1 * n + a0
    trace_shift = Fraction(weight(lam), n) if spec.traceless else Fraction(0)
    values: List[Fraction] = []
    if spec.has_zero_index:
        values.append(alpha)  # l_0 = 0
    for i in range(1, n + 1):
        part = Fraction(lam[i - 1] if i <= len(lam) else 0) - trace_shift
        l_i = part + (c1 * n + c0) - i
        values.append(l_i + alpha)
        if spec.mirrored:
            values.append(-l_i + alpha)
    return values


def _row_factors(family: str, lam: Partition, n: int) -> _Factored:
    # 1 - z*m determines m, so the ladder telescopes on the values m
    exps: Dict[Fraction, int] = {}
    for m in row_m_values(family, lam, n):
        exps[m + 1] = exps.get(m + 1, 0) + 1
        exps[m] = exps.get(m, 0) - 1
    pi = _Factored()
    for m, e in exps.items():
        if e:
            pi.mul(_one_minus_z(m), e)
    return pi


def row_product(family: str, lam: Partition, n: int) -> RatFunc:
    """Product of (1 - z(m_i+1))/(1 - z m_i) over the full ladder at rank n."""
    return _row_factors(family, lam, n).expand()


def _mul_su_factor(pi: _Factored, c: int, t: int, exp: int) -> None:
    """pi *= (1 - z*(c + n - t/n))**exp, carried as the irreducible
    n - c*n*z - n^2*z + t*z (t > 0) over the factor n."""
    pi.mul(_linear_nz(0, n_coeff=1, z_coeff=t, nz_coeff=-c, n2z_coeff=-1), exp)
    pi.mul(_N, -exp)


def _su_tail(pi: _Factored, t: int) -> _Factored:
    """pi times the residual n/(n + z t) of the shifted empty rows."""
    return pi.mul(_N).mul(_linear_nz(0, n_coeff=1, z_coeff=t), -1)


def _block_factors(family: str, lam: Partition) -> _Factored:
    group_spec(family)  # an unknown family gets its own message
    if family not in BLOCK_FAMILIES:
        raise ValueError(f"no block form for family {family!r}")
    lam = check_partition(lam)
    bp = block_param(lam)
    k, A, B = bp.count, bp.A, bp.B
    pi = _Factored()

    t = weight(lam)
    if family == "u" or (family == "su" and not t):
        # the empty diagram has no trace shift, so su agrees with u there
        for a in range(k + 1):
            pi.mul(_one_minus_z(B[k - a] - A[a], 1))
        for a in range(1, k + 1):
            pi.mul(_one_minus_z(B[k - a + 1] - A[a], 1), -1)
        return pi

    if family == "su":
        for a in range(k + 1):
            _mul_su_factor(pi, B[k - a] - A[a], t, 1)
        for a in range(1, k + 1):
            _mul_su_factor(pi, B[k - a + 1] - A[a], t, -1)
        return _su_tail(pi, t)

    # symplectic / even orthogonal: s = 2n + sigma
    sigma = 1 if family == "c" else -1
    for a in range(k + 1):
        pi.mul(_one_minus_z(B[k - a] - A[a] + sigma, 2))
        pi.mul(_one_minus_z(A[a] - B[k - a]), -1)
    for a in range(1, k + 1):
        pi.mul(_one_minus_z(B[k - a + 1] - A[a] + sigma, 2), -1)
        pi.mul(_one_minus_z(A[a] - B[k - a + 1]))
    pi.mul(_one_minus_z(0, 1))              # 1 - z n
    pi.mul(_one_minus_z(sigma, 1), -1)      # 1 - z (n + sigma)
    return pi


def block_product(family: str, lam: Partition) -> RatFunc:
    """Run-length form of the spectral product, polynomial in the rank symbol.

    Valid for the families with paired-index telescoping (u, su, c, d); the
    odd orthogonal ladder has no such form here.
    """
    return _block_factors(family, lam).expand()


def rectangle_product(family: str, p: int, q: int) -> RatFunc:
    """Closed form of the block product on a q-row, p-column rectangle."""
    if p < 1 or q < 1:
        raise ValueError("rectangle sides must be positive integers")
    pi = _Factored()
    if family == "u":
        pi.mul(_one_minus_z(p, 1)).mul(_one_minus_z(-q, 1))
        return pi.mul(_one_minus_z(p - q, 1), -1).expand()
    if family == "su":
        t = p * q
        _mul_su_factor(pi, p, t, 1)
        _mul_su_factor(pi, -q, t, 1)
        _mul_su_factor(pi, p - q, t, -1)
        return _su_tail(pi, t).expand()
    if family in ("c", "d"):
        sigma = 1 if family == "c" else -1
        for f in (_one_minus_z(p + sigma, 2), _one_minus_z(sigma - q, 2),
                  _one_minus_z(q - p), _one_minus_z(0, 1)):
            pi.mul(f)
        for f in (_one_minus_z(p - q + sigma, 2), _one_minus_z(sigma, 1),
                  _one_minus_z(-p), _one_minus_z(q)):
            pi.mul(f, -1)
        return pi.expand()
    raise ValueError(f"no rectangle closed form for family {family!r}")


@dataclass(frozen=True)
class CasimirGF:
    """Generating function together with the spectral product it came from."""

    family: str
    lam: Partition
    mode: str
    n: Optional[int]
    pi: RatFunc
    gf: RatFunc


def _gf_from_factors(fm: _Factored, pi: _Factored, product: RatFunc) -> RatFunc:
    """fm * (1 - pi) / z in canonical form, without a gcd.

    With pi = N/D reduced, gcd(D - N, D) = gcd(N, D) = 1.  So the factors of
    D cancel only against the numerator factors of fm, which merging the two
    factored forms does, and a denominator factor of fm only against D - N,
    which trial division settles.  product is pi expanded.  A failure of
    either division by z means the spectral product lost its regularity.
    """
    num = product.den - product.num
    if not num:
        return RatFunc._raw(num, MultiPoly.const(1))
    rest = _Factored(fm.scale)
    for f, e in pi.factors.items():
        if e < 0:
            rest.mul(f, e)
    for g, e in fm.factors.items():
        while e < 0:
            try:
                num = poly_exact_div(num, g)
            except ExactDivisionError:
                break
            e += 1
        if e:
            rest.mul(g, e)
    rest_num, den = rest.split()
    den_const = den.coeff_map("z").get(0)
    if den_const is None or den_const.is_zero():
        raise ExactDivisionError("denominator vanishes at z = 0")
    try:
        num = num.shift_down("z")
    except ExactDivisionError:
        raise ExactDivisionError(
            "generating function is not regular at z = 0; "
            "the z-constant term of 1 - product failed to cancel") from None
    return RatFunc._raw((num * rest_num)._scaled(rest.scale), den)


def generating_function(family: str, lam: Partition, mode: str = "blocks",
                        n: Optional[int] = None) -> CasimirGF:
    """C(lambda, z) = prefactor * (1 - product) / z, exactly.

    mode "blocks" keeps the rank symbolic, or evaluates at n when one is
    given; mode "rows" needs an integer rank n >= #rows and returns a
    function of z alone.
    """
    lam = check_partition(lam)
    if mode == "blocks":
        pi = _block_factors(family, lam)
        fm = _first_multiplier(family)
        if n is not None:
            if len(lam) > n:
                raise ValueError(
                    f"partition {format_partition(lam)} has more than n={n} parts")
            pi, fm = pi.at("n", n), fm.at("n", n)
    elif mode == "rows":
        if n is None:
            raise ValueError("rows mode needs an integer rank n")
        pi = _row_factors(family, lam, n)
        fm = _first_multiplier(family).at("n", n)
    else:
        raise ValueError(f"unknown mode {mode!r} (expected blocks or rows)")
    product = pi.expand()
    return CasimirGF(family=family, lam=lam, mode=mode, n=n, pi=product,
                     gf=_gf_from_factors(fm, pi, product))


def spectrum_coefficients(family: str, lam: Partition, order: int,
                          mode: str = "blocks", n: Optional[int] = None) -> List[RatFunc]:
    """[C_0, ..., C_order] of the generating function."""
    gf = generating_function(family, lam, mode=mode, n=n).gf
    return list(series_expand(gf, "z", order))


_NEGATE = {
    "n": -RatFunc.symbol("n"),
    "z": -RatFunc.symbol("z"),
}


def check_sp_so_duality(lam: Partition) -> CheckResult:
    """C_sp(lambda, z) against -C_so(lambda', -z) at negated rank."""
    lam = check_partition(lam)
    lhs = generating_function("c", lam).gf
    rhs = -generating_function("d", transpose(lam)).gf.substitute(_NEGATE)
    holds = ratfunc_equal(lhs, rhs)
    return CheckResult(
        check_id=f"casimir/sp-so/{format_partition(lam)}",
        holds=holds,
        inputs=(("lambda", format_partition(lam)),),
        lhs=str(lhs),
        rhs=str(rhs),
    )


def check_u_selfduality(lam: Partition) -> CheckResult:
    """C_u(lambda, z) against -C_u(lambda', -z) at negated rank."""
    lam = check_partition(lam)
    lhs = generating_function("u", lam).gf
    rhs = -generating_function("u", transpose(lam)).gf.substitute(_NEGATE)
    holds = ratfunc_equal(lhs, rhs)
    return CheckResult(
        check_id=f"casimir/u-self/{format_partition(lam)}",
        holds=holds,
        inputs=(("lambda", format_partition(lam)),),
        lhs=str(lhs),
        rhs=str(rhs),
    )


def check_su_rectangle_invariance(p: int, q: int) -> CheckResult:
    """The traceless rectangle product is fixed by {n -> -n, p <-> q, z -> -z}."""
    lhs = block_product("su", rectangle(p, q))
    rhs = block_product("su", rectangle(q, p)).substitute(_NEGATE)
    holds = ratfunc_equal(lhs, rhs)
    return CheckResult(
        check_id=f"casimir/su-rect/{p}x{q}",
        holds=holds,
        inputs=(("p", str(p)), ("q", str(q))),
        lhs=str(lhs),
        rhs=str(rhs),
    )


def check_rows_vs_blocks(family: str, lam: Partition, ranks) -> CheckResult:
    """Block product specialized at several integer ranks against row products."""
    lam = check_partition(lam)
    blocks = _block_factors(family, lam)
    bad = []
    for n in ranks:
        specialized = blocks.at("n", n).expand()
        rows = row_product(family, lam, n)
        if not ratfunc_equal(specialized, rows):
            bad.append(n)
    return CheckResult(
        check_id=f"casimir/rows-blocks/{family}/{format_partition(lam)}",
        holds=not bad,
        inputs=(("family", family), ("lambda", format_partition(lam)),
                ("ranks", ",".join(str(n) for n in ranks))),
        notes=f"mismatch at n={bad}" if bad else "",
    )


def check_rectangle_closed_form(family: str, p: int, q: int) -> CheckResult:
    """Closed rectangle form against the general block product, symbolically."""
    lhs = rectangle_product(family, p, q)
    rhs = block_product(family, rectangle(p, q))
    holds = ratfunc_equal(lhs, rhs)
    return CheckResult(
        check_id=f"casimir/rect-closed/{family}/{p}x{q}",
        holds=holds,
        inputs=(("family", family), ("p", str(p)), ("q", str(q))),
        lhs=str(lhs),
        rhs=str(rhs),
    )

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
