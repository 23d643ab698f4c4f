"""Dimension polynomials of tensor representations and their rank-negation pairing.

The dimension of the irreducible tensor representation lambda of each
classical series is prod (alpha*N + t) / h over the boxes of lambda, h the
hook length, alpha = 1 for U(N) and 2 otherwise (El Samra and King 1979,
J. Phys. A 12, 2317).  It is held as the map {t: e} and proved against the
Weyl product at |lambda|+2 ranks, enough for a polynomial of degree |lambda|.

The pairing verified by king_check: the symplectic dimension at rank N
equals (-1)^|lambda| times the even orthogonal dimension of the transposed
diagram at rank -N.  Box by box, each Sp factor 2N + t of lambda is minus an
O factor 2N - t of the transpose (King 1971, J. Phys. A 4, 2305).

The universal three-parameter dimension formula (Vogel; Landsberg and
Manivel 2006, Adv. Math. 201) and the parameter triples of the classical
algebras live here too.  Every factor of (a-2t)(b-2t)(c-2t)/(abc) is a
linear form in the triple, so the formula is held as a factor map, a scale
times linear forms with signed exponents, and expanded once with no gcd;
permuting or rescaling the triple is checked by comparing maps.  Triples
are projective and unordered, so equivalence testing scales and permutes,
by cross-multiplication; the rank negation n -> -2n of the sp/so check
scales each term of a linear form, with no substitution.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations
from typing import Dict, List, Tuple

from negdim.exact_algebra import (MultiPoly, RatFunc, Scalar, _coeff, _dense_poly,
                                  _dense_product, _expand_factors, ratfunc_equal)
from negdim.partitions import (
    Partition,
    check_partition,
    format_partition,
    partitions_up_to_weight,
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


def _shift(family: str, lam: Partition, conj: Partition, i: int, j: int) -> int:
    """t of the box (i, j), 1-indexed: the content j - i for a, r(i, j) of
    El Samra and King for c, their s(i, j) for d and s(i, j) + 1 for b."""
    if family == "a":
        return j - i
    if family == "c":
        return (lam[i - 1] + lam[j - 1] - i - j + 2 if i > j
                else i + j - conj[i - 1] - conj[j - 1])
    return (family == "b") + (lam[i - 1] + lam[j - 1] - i - j if i >= j
                              else i + j - conj[i - 1] - conj[j - 1] - 2)


def _shift_map(family: str, lam: Partition) -> Tuple[int, Dict[int, int]]:
    """(hooks, {t: e}) with dim = prod (alpha*N + t)^e / hooks, checked as
    prod (alpha*n + t)^e == hooks * weyl_dim(n) at the |lam| + 2 ranks
    n = len(lam) .. len(lam) + |lam| + 1; a mismatch aborts loudly."""
    ranks = range(len(lam), len(lam) + weight(lam) + 2)
    weyl = [weyl_dim(family, lam, n) for n in ranks]  # rejects a bad family
    alpha, conj = 2 - (family == "a"), transpose(lam)
    hooks, shifts = 1, {}
    for i, row in enumerate(lam, 1):
        for j in range(1, row + 1):
            hooks *= row - j + conj[j - 1] - i + 1
            t = _shift(family, lam, conj, i, j)
            shifts[t] = shifts.get(t, 0) + 1
    for n, value in zip(ranks, weyl):
        product = math.prod((alpha * n + t) ** e for t, e in shifts.items())
        if product != hooks * value:
            raise ArithmeticError(f"shift map of ({family}, {format_partition(lam)}) "
                                  f"fails at N={n}: the product gives "
                                  f"{Fraction(product, hooks)}, the Weyl product {value}")
    return hooks, shifts


def _expand(alpha: int, hooks: int, shifts: Dict[int, int]) -> MultiPoly:
    """prod (alpha*N + t)^e / hooks as a polynomial in N: the factors [t,
    alpha] multiplied out on one dense int list, then each coefficient
    divided by hooks, an int when the quotient is integral."""
    return _dense_poly("N", _dense_product({(t, alpha): e for t, e in shifts.items()}),
                       Fraction(1, hooks))


def dim_poly(family: str, lam: Partition) -> MultiPoly:
    """Dimension as a polynomial in the formal rank symbol N, expanded from
    the checked shift map; an unknown family raises ValueError."""
    family, lam = family.lower(), check_partition(lam)
    return _expand(2 - (family == "a"), *_shift_map(family, lam))


def king_check(lam: Partition) -> CheckResult:
    """Symplectic dimension vs sign-corrected orthogonal dimension at -N.

    (-1)^|lam| prod (-2N + s)^e = prod (2N - s)^e: the rhs is the negated O
    map of the transpose.  Distinct shifts are distinct irreducible factors,
    so equal functions are equal (hooks, map) pairs.  A check that holds
    expands once; a failure names the first differing factor."""
    lam = check_partition(lam)
    hooks, sp = _shift_map("c", lam)
    hooks_t, o = _shift_map("d", transpose(lam))
    mirrored = {-t: e for t, e in o.items()}
    lhs = str(_expand(2, hooks, sp))
    holds, rhs, notes = True, lhs, ""
    if (hooks, sp) != (hooks_t, mirrored):
        holds, rhs = False, str(_expand(2, hooks_t, mirrored))
        t = min((t for t in sp.keys() | mirrored.keys()
                 if sp.get(t) != mirrored.get(t)), default=None)
        notes = (f"hooks {hooks} in lhs and {hooks_t} in rhs" if t is None else
                 f"factor {MultiPoly.linear(t, N=2)} has exponent "
                 f"{sp.get(t, 0)} in lhs and {mirrored.get(t, 0)} in rhs")
    return CheckResult(
        check_id=f"dims/king/{format_partition(lam)}",
        holds=holds,
        inputs=(("lambda", format_partition(lam)),),
        lhs=lhs,
        rhs=rhs,
        notes=notes,
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
    if family not in table:
        known = ", ".join(sorted(table))
        raise ValueError(f"unknown family {family!r} (expected one of {known})")
    return table[family]


def _poly(x) -> MultiPoly:
    """A parameter as a polynomial: the universal formula is homogeneous of
    degree 0, so a triple of rational functions can always be scaled to one
    of polynomials first."""
    if isinstance(x, MultiPoly):
        return x
    x = RatFunc.const(x)
    if not x.den.is_const():
        raise ValueError(f"Vogel parameter {x} is not a polynomial")
    return x.num


def _factor_map(p: MultiPoly) -> Tuple[Scalar, Dict[MultiPoly, int]]:
    """(c, {f: e}) with p = c * prod f^e for a nonzero p that is a monomial
    times a linear form: each symbol dividing every term is a factor, and so
    is the rest unless it is constant.  Every f is linear, hence irreducible,
    and integer-primitive with a positive leading coefficient."""
    low = tuple(map(min, zip(*p.terms)))
    factors = {MultiPoly.symbol(s): e for s, e in zip(p.symbols, low) if e}
    rest = MultiPoly._raw(p.symbols, {tuple(a - b for a, b in zip(e, low)): c
                                      for e, c in p.terms.items()})
    c, rest = rest.primitive()
    if not rest.is_const():
        if any(sum(e) > 1 for e in rest.terms):
            raise ValueError(f"Vogel factor {p} is not a monomial times a linear form")
        factors[rest] = 1
    return c, factors


def _vogel_map(triple: VogelTriple) -> Tuple[Scalar, Dict[MultiPoly, int]]:
    """(scale, {f: e}) with dim = scale * prod f^e over linear forms f: each
    x - 2t adds its factors, each x takes its own away, and a factor whose
    exponents cancel is dropped.  Equal maps are equal functions (unique
    factorisation); a zero dimension is (0, {})."""
    xs = [_poly(x) for x in triple]
    if any(x.is_zero() for x in xs):
        raise ZeroDivisionError("universal dimension needs all three parameters nonzero")
    t = xs[0] + xs[1] + xs[2]
    tops = [x - 2 * t for x in xs]
    if any(y.is_zero() for y in tops):
        return 0, {}
    scale, exps = Fraction(1), {}
    for ys, sign in ((tops, 1), (xs, -1)):
        for y in ys:
            c, factors = _factor_map(y)
            scale = scale * c if sign > 0 else scale / c
            for f, e in factors.items():
                exps[f] = exps.get(f, 0) + sign * e
    return _coeff(scale), {f: e for f, e in exps.items() if e}


def vogel_dim(triple: VogelTriple) -> RatFunc:
    """dim = (a-2t)(b-2t)(c-2t)/(abc) with t = a+b+c, expanded once from
    its factor map.  Each entry is a linear form, or a monomial times one
    (a common scale of the triple)."""
    scale, factors = _vogel_map(triple)
    return _expand_factors(scale, factors) if scale else RatFunc.const(0)


def vogel_equiv(a: VogelTriple, b: VogelTriple) -> bool:
    """Equality of parameter triples up to permutation and a common nonzero
    scale: with (p, q) the first pair where either is nonzero, y = x*q/p for
    every pair (x, y), compared as x*q == y*p by cross-multiplication."""
    a = tuple(RatFunc.const(x) for x in a)
    b = tuple(RatFunc.const(x) for x in b)
    for perm in permutations(a):
        p, q = next(((p, q) for p, q in zip(perm, b) if p or q), (None, None))
        if p and q and all(x.num * q.num * y.den * p.den == y.num * p.num * x.den * q.den
                           for x, y in zip(perm, b)):
            return True
    return False


def check_vogel_dims() -> List[CheckResult]:
    """The three classical triples reproduce their dimension polynomials."""
    n = RatFunc.symbol("n")
    expected = {"sln": n * n - 1, "son": n * (n - 1) / 2, "sp2n": n * (2 * n + 1)}
    values = {family: vogel_dim(vogel_classical(family)) for family in expected}
    return [CheckResult(check_id=f"dims/vogel-dim/{family}",
                        holds=value == expected[family],
                        inputs=(("family", family),),
                        lhs=str(value),
                        rhs=str(expected[family]))
            for family, value in values.items()]


def _scale_symbol(x: RatFunc, sym: str, factor: int) -> RatFunc:
    """x with sym -> factor*sym, for a polynomial x: each term is scaled by
    factor to its degree in sym, so no substitution is made."""
    p = _poly(x)
    if sym not in p.symbols:
        return RatFunc.const(p)
    i = p.symbols.index(sym)
    return RatFunc.const(MultiPoly._raw(
        p.symbols, {e: _coeff(c * factor ** e[i]) for e, c in p.terms.items()},
        prune=False))


def check_vogel_sp_so() -> CheckResult:
    """Scaling the symplectic triple by -2 (first two entries swapped) lands on
    the orthogonal triple at doubled negated rank."""
    a, b, c = vogel_classical("sp2n")
    scaled = (-2 * b, -2 * a, -2 * c)
    son_neg = tuple(_scale_symbol(x, "n", -2) for x in vogel_classical("son"))
    return CheckResult(
        check_id="dims/vogel-sp-so",
        holds=vogel_equiv(scaled, son_neg),
        inputs=(),
        lhs="(" + ", ".join(str(x) for x in scaled) + ")",
        rhs="(" + ", ".join(str(x) for x in son_neg) + ")",
        notes="sp triple scaled by -2 vs orthogonal triple at n -> -2n",
    )


def check_vogel_invariance() -> CheckResult:
    """The universal dimension is unchanged by permuting the triple and by a
    common nonzero rescaling, with all four quantities formal: every factor
    map equals that of (va, vb, vc).  The scale vs is a factor of its own,
    with exponent 3 - 3."""
    a, b, c = (MultiPoly.symbol(s) for s in ("va", "vb", "vc"))
    s = MultiPoly.symbol("vs")
    base = _vogel_map((a, b, c))
    holds = all(
        _vogel_map(triple) == base
        for triple in ((b, a, c), (c, b, a), (a, c, b), (b, c, a), (c, a, b),
                       (s * a, s * b, s * c)))
    return CheckResult(
        check_id="dims/vogel-invariance",
        holds=holds,
        inputs=(),
        lhs="dim(permuted / rescaled triple)",
        rhs="dim(triple)",
    )


# -- sweep drivers -----------------------------------------------------------


def verify_king(max_weight: int = 6) -> VerificationReport:
    report = VerificationReport(suite="dims-king",
                                config={"maxWeight": max_weight})
    report.extend(king_check(lam) for lam in partitions_up_to_weight(max_weight))
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
    report = VerificationReport(suite="dims-fundamental", config={})
    for family, expected, weyl_family in (("u", n, "a"), ("c", 2 * n, "c"),
                                          ("d", 2 * n, "d")):
        gf = generating_function(family, ()).gf
        symbolic_ok = ratfunc_equal(gf, expected)
        points_ok = all(gf.eval_fractions({"n": Fraction(rank)})
                        == weyl_dim(weyl_family, (1,), rank) for rank in range(1, 6))
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
