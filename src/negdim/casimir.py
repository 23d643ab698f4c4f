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
    terms = {
        (0, 0): Fraction(const),
        (1, 0): Fraction(n_coeff),
        (0, 1): Fraction(z_coeff),
        (1, 1): Fraction(nz_coeff),
        (2, 1): Fraction(n2z_coeff),
    }
    return MultiPoly(("n", "z"), terms)


def first_multiplier(family: str) -> RatFunc:
    """Prefactor 1 + beta*z/(2 - (2*alpha+1)*z) as a function of (n, z)."""
    spec = group_spec(family)
    a1, a0 = spec.alpha
    # 2 - (2*alpha + 1)*z
    den = _linear_nz(2, z_coeff=-(2 * a0 + 1), nz_coeff=-2 * a1)
    num = den + _linear_nz(0, z_coeff=spec.beta)
    return RatFunc(num, den)


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


def row_product(family: str, lam: Partition, n: int) -> RatFunc:
    """Product of (1 - z(m_i+1))/(1 - z m_i) over the full ladder at rank n."""
    num = MultiPoly.const(1)
    den = MultiPoly.const(1)
    z = MultiPoly.symbol("z")
    for m in row_m_values(family, lam, n):
        num = num * (MultiPoly.const(1) - (m + 1) * z)
        den = den * (MultiPoly.const(1) - m * z)
    return RatFunc(num, den)


def _one_minus_z(c, n_mult=0) -> MultiPoly:
    """1 - z*(c + n_mult*n)."""
    return _linear_nz(1, z_coeff=-Fraction(c), nz_coeff=-Fraction(n_mult))


def _su_factor(c: int, t: int) -> RatFunc:
    """1 - z*(c + n - t/n), cleared of the 1/n."""
    num = MultiPoly(("n", "z"), {
        (1, 0): Fraction(1),
        (1, 1): Fraction(-c),
        (2, 1): Fraction(-1),
        (0, 1): Fraction(t),
    })
    return RatFunc(num, MultiPoly.symbol("n"))


def block_product(family: str, lam: Partition) -> RatFunc:
    """Run-length form of the spectral product, polynomial in the rank symbol.

    Valid for the families with paired-index telescoping (u, su, c, d); the
    odd orthogonal ladder has no such form here.
    """
    spec = group_spec(family)
    if family not in BLOCK_FAMILIES:
        raise ValueError(f"no block form for family {family!r}")
    lam = check_partition(lam)
    bp = block_param(lam)
    k, A, B = bp.count, bp.A, bp.B

    if family == "u":
        num = MultiPoly.const(1)
        for a in range(k + 1):
            num = num * _one_minus_z(B[k - a] - A[a], 1)
        den = MultiPoly.const(1)
        for a in range(1, k + 1):
            den = den * _one_minus_z(B[k - a + 1] - A[a], 1)
        return RatFunc(num, den)

    if family == "su":
        t = weight(lam)
        result = RatFunc.const(1)
        for a in range(k + 1):
            result = result * _su_factor(B[k - a] - A[a], t)
        for a in range(1, k + 1):
            result = result / _su_factor(B[k - a + 1] - A[a], t)
        # residual of the shifted empty rows: n/(n + z t)
        tail = RatFunc(MultiPoly.symbol("n"),
                       _linear_nz(0, n_coeff=1, z_coeff=t))
        return result * tail

    # symplectic / even orthogonal: s = 2n + sigma
    sigma = 1 if family == "c" else -1
    num = MultiPoly.const(1)
    den = MultiPoly.const(1)
    for a in range(k + 1):
        num = num * _linear_nz(1, z_coeff=-(B[k - a] - A[a] + sigma),
                               nz_coeff=-2)
        den = den * _one_minus_z(A[a] - B[k - a])
    for a in range(1, k + 1):
        den = den * _linear_nz(1, z_coeff=-(B[k - a + 1] - A[a] + sigma),
                               nz_coeff=-2)
        num = num * _one_minus_z(A[a] - B[k - a + 1])
    num = num * _one_minus_z(0, 1)          # 1 - z n
    den = den * _one_minus_z(sigma, 1)      # 1 - z (n + sigma)
    return RatFunc(num, den)


def rectangle_product(family: str, p: int, q: int) -> RatFunc:
    """Closed form of the block product on a q-row, p-column rectangle."""
    if p < 1 or q < 1:
        raise ValueError("rectangle sides must be positive integers")
    if family == "u":
        num = _one_minus_z(p, 1) * _one_minus_z(-q, 1)
        return RatFunc(num, _one_minus_z(p - q, 1))
    if family == "su":
        t = p * q
        tail = RatFunc(MultiPoly.symbol("n"), _linear_nz(0, n_coeff=1, z_coeff=t))
        return (_su_factor(p, t) * _su_factor(-q, t) / _su_factor(p - q, t)) * tail
    if family in ("c", "d"):
        sigma = 1 if family == "c" else -1
        num = (_linear_nz(1, z_coeff=-(p + sigma), nz_coeff=-2)
               * _linear_nz(1, z_coeff=-(sigma - q), nz_coeff=-2)
               * _one_minus_z(q - p)
               * _one_minus_z(0, 1))
        den = (_linear_nz(1, z_coeff=-(p - q + sigma), nz_coeff=-2)
               * _one_minus_z(sigma, 1)
               * _one_minus_z(-p)
               * _one_minus_z(q))
        return RatFunc(num, den)
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


def _divide_by_z(f: RatFunc) -> RatFunc:
    """Exact division by z.  The caller guarantees f vanishes at z = 0;
    a failure here means the spectral product lost its regularity."""
    den_const = f.den.coeff_map("z").get(0)
    if den_const is None or den_const.is_zero():
        raise ExactDivisionError("denominator vanishes at z = 0")
    try:
        num = f.num.shift_down("z")
    except ExactDivisionError:
        raise ExactDivisionError(
            "generating function is not regular at z = 0; "
            "the z-constant term of 1 - product failed to cancel") from None
    return RatFunc._raw(num, f.den)


def generating_function(family: str, lam: Partition, mode: str = "blocks",
                        n: Optional[int] = None) -> CasimirGF:
    """C(lambda, z) = prefactor * (1 - product) / z, exactly.

    mode "blocks" keeps the rank symbolic, or evaluates at n when one is
    given; mode "rows" needs an integer rank n >= #rows and returns a
    function of z alone.
    """
    lam = check_partition(lam)
    if mode == "blocks":
        pi = block_product(family, lam)
        fm = first_multiplier(family)
        if n is not None:
            if len(lam) > n:
                raise ValueError(
                    f"partition {format_partition(lam)} has more than n={n} parts")
            sub = {"n": RatFunc.const(Fraction(n))}
            pi = pi.substitute(sub)
            fm = fm.substitute(sub)
    elif mode == "rows":
        if n is None:
            raise ValueError("rows mode needs an integer rank n")
        pi = row_product(family, lam, n)
        fm = first_multiplier(family).substitute(
            {"n": RatFunc.const(Fraction(n))})
    else:
        raise ValueError(f"unknown mode {mode!r} (expected blocks or rows)")
    gf = _divide_by_z(fm * (RatFunc.const(1) - pi))
    return CasimirGF(family=family, lam=lam, mode=mode, n=n, pi=pi, gf=gf)


def spectrum_coefficients(family: str, lam: Partition, order: int,
                          mode: str = "blocks", n: Optional[int] = None) -> List[RatFunc]:
    """[C_0, ..., C_order] of the generating function."""
    gf = generating_function(family, lam, mode=mode, n=n).gf
    return list(series_expand(gf, "z", order).coefficients)


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
    blocks = block_product(family, lam)
    bad = []
    for n in ranks:
        specialized = blocks.substitute({"n": RatFunc.const(Fraction(n))})
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
