"""Exact multivariate rational-function arithmetic over the rationals.

Everything downstream (Casimir generating functions, Jack coefficient
fields, dimension polynomials) runs on two types defined here:

* MultiPoly  -- sparse polynomial over the rationals with named symbols.
  Canonical form: symbols sorted, unused symbols pruned, no zero terms.
  The canonical term order is graded lexicographic.
* RatFunc    -- quotient of two MultiPoly in reduced canonical form:
  gcd(num, den) = 1 and den integer-primitive with positive leading
  coefficient, so structural equality is mathematical equality.

series_expand gives the truncated Taylor coefficients of a RatFunc in one
symbol, by series division with a normal form per step.  It is a public
helper and the test oracle for the Casimir coefficients, which are read
off their factored form instead; no command runs it.

No floating point anywhere.  A coefficient is an int when it is integral
and a fractions.Fraction (re-exported as Rational; gcd-reduced with positive
denominator) only when its denominator is greater than 1.  Nearly every
polynomial here is integral, and sums, products and exact quotients by
integer-primitive divisors (Gauss's lemma) of integral polynomials stay
integral, so the hot loops run in int arithmetic.  Values
handed out as rationals (as_fraction, eval_fractions) are always Fraction.

The normal form rests on poly_gcd, one algorithm on integer images: an
integer remainder sequence for one symbol; for several, a degree bound read
off images at integer points, which proves most pairs coprime at once, and
otherwise Brown's evaluation/interpolation gcd, whose interpolated candidate
is certified by exact division of both inputs.  The one gcd-free path is
the factor form, a scale times known irreducible factors with signed
exponents: _expand_factors multiplies it out into the canonical RatFunc.
The universal dimension formula (linear forms in its triple) takes it.
The same form runs on dense int lists in one symbol (_dense_cancel,
_dense_product and the other helpers of that section), for the Jack solve
(eigenvalue gaps, one-entry lists at a number), the Jack duality scalar
(linear factors in k) and the one-symbol exact division.  The Casimir
ladders, whose factors are all 1 - z*m, run the same form on their own
flat int lists in z/D (casimir._expand and casimir._gf), at the symbolic
rank by Kronecker substitution, with none of these helpers.
Only RatFunc(num, den) and RatFunc arithmetic reach poly_gcd and the
general poly_exact_div, and no command does while its checks hold.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple, Union

from negdim import kernels

Rational = Fraction

Exponents = Tuple[int, ...]
Scalar = Union[int, Fraction]
Terms = Dict[Exponents, Scalar]


class ExactDivisionError(ArithmeticError):
    """Polynomial division left a nonzero remainder where exactness was required."""


def _grlex(exps: Exponents):
    return (sum(exps), exps)


def _coeff(value) -> Scalar:
    """The canonical coefficient: an int when integral, else a Fraction."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected an integer or Fraction, got {type(value).__name__}")


def _all_int(terms: Terms) -> bool:
    return all(type(c) is int for c in terms.values())


# the text of each monomial rendered, by (symbols, exponents)
_MONOMIALS: Dict[Tuple[Tuple[str, ...], Exponents], str] = {}


class MultiPoly:
    """Sparse exact polynomial in named symbols."""

    __slots__ = ("symbols", "terms")

    def __init__(self, symbols: Iterable[str], terms: Mapping[Exponents, Scalar]):
        syms = tuple(symbols)
        clean: Terms = {}
        for exps, coeff in terms.items():
            coeff = _coeff(coeff)
            if not coeff:
                continue
            exps = tuple(exps)
            if len(exps) != len(syms):
                raise ValueError("exponent tuple length does not match symbol count")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent in polynomial")
            clean[exps] = clean.get(exps, 0) + coeff
        clean = {e: _coeff(c) for e, c in clean.items() if c}

        # prune symbols that never occur, then sort the rest
        if syms:
            used = [i for i in range(len(syms))
                    if any(e[i] for e in clean)]
            if len(used) != len(syms):
                syms = tuple(syms[i] for i in used)
                clean = {tuple(e[i] for i in used): c for e, c in clean.items()}
        if len(set(syms)) != len(syms):
            raise ValueError(f"duplicate symbols: {syms}")
        if list(syms) != sorted(syms):
            order = sorted(range(len(syms)), key=lambda i: syms[i])
            syms = tuple(syms[i] for i in order)
            clean = {tuple(e[i] for i in order): c for e, c in clean.items()}

        object.__setattr__(self, "symbols", syms)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def _raw(cls, symbols: Tuple[str, ...], terms: Terms,
             prune: bool = True) -> "MultiPoly":
        """Internal: trusts that terms are clean for the given sorted symbols,
        but still prunes unused symbols for canonical form.  prune=False
        skips that scan, for terms known to use every symbol (those of a
        canonical polynomial on the same symbols, rescaled or negated)."""
        self = object.__new__(cls)
        if prune and symbols:
            used = [i for i in range(len(symbols)) if any(e[i] for e in terms)]
            if len(used) != len(symbols):
                symbols = tuple(symbols[i] for i in used)
                terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def const(cls, value: Scalar) -> "MultiPoly":
        value = _coeff(value)
        return cls._raw((), {(): value} if value else {})

    @classmethod
    def symbol(cls, name: str) -> "MultiPoly":
        return cls._raw((name,), {(1,): 1})

    @classmethod
    def linear(cls, const: Scalar, **coeffs: Scalar) -> "MultiPoly":
        """Convenience builder for c0 + c1*x + c2*y + ..."""
        poly = cls.const(const)
        for name, c in coeffs.items():
            poly = poly + cls._raw((name,), {(1,): _coeff(c)} if c else {})
        return poly

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.symbols

    def as_fraction(self) -> Fraction:
        if self.symbols:
            raise ValueError(f"polynomial {self} is not constant")
        return Fraction(self.terms.get((), 0))

    def degree(self, sym: str) -> int:
        """Degree in one symbol; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        if sym not in self.symbols:
            return 0
        i = self.symbols.index(sym)
        return max(e[i] for e in self.terms)

    def leading(self) -> Tuple[Exponents, Scalar]:
        """Leading (exponents, coefficient) in graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=_grlex)
        return exps, self.terms[exps]

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.symbols == other.symbols and self.terms == other.terms

    def __hash__(self):
        return hash((self.symbols, frozenset(self.terms.items())))

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _aligned(a: "MultiPoly", b: "MultiPoly"):
        if a.symbols == b.symbols:
            return a.symbols, a.terms, b.terms
        merged = tuple(sorted(set(a.symbols) | set(b.symbols)))

        def remap(poly: "MultiPoly") -> Terms:
            idx = [poly.symbols.index(s) if s in poly.symbols else -1 for s in merged]
            out = {}
            for e, c in poly.terms.items():
                out[tuple(e[i] if i >= 0 else 0 for i in idx)] = c
            return out

        return merged, remap(a), remap(b)

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        syms, ta, tb = self._aligned(self, other)
        return MultiPoly._raw(syms, kernels.poly_add(ta, tb))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        syms, ta, tb = self._aligned(self, other)
        return MultiPoly._raw(syms, kernels.poly_sub(ta, tb))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return MultiPoly._raw(self.symbols, {e: -c for e, c in self.terms.items()},
                              prune=False)

    def _scaled(self, c: Scalar) -> "MultiPoly":
        """self * c for a constant c; a nonzero c loses no symbol."""
        if c == 1:
            return self
        if not c:
            return MultiPoly._raw((), {})
        return MultiPoly._raw(self.symbols, kernels.poly_scale(self.terms, c),
                              prune=False)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_const():
            return self._scaled(other.terms.get((), 0))
        if self.is_const():
            return other._scaled(self.terms.get((), 0))
        syms, ta, tb = self._aligned(self, other)
        return MultiPoly._raw(syms, kernels.poly_mul(ta, tb))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = MultiPoly.const(1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base if exponent > 1 else base
            exponent >>= 1
        return result

    # -- structure --------------------------------------------------------

    def signed_content(self) -> Scalar:
        """Rational c with self/c integer-primitive and positive leading
        coefficient, an int exactly when every coefficient is one.  Zero
        polynomial has content 0."""
        if not self.terms:
            return 0
        if _all_int(self.terms):
            content = math.gcd(*self.terms.values())
        else:
            num_gcd = 0
            den_lcm = 1
            for c in self.terms.values():
                num_gcd = math.gcd(num_gcd, c.numerator)
                den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
            content = Fraction(num_gcd, den_lcm)
        _, lead = self.leading()
        return content if lead > 0 else -content

    def _div_content(self, c: Scalar) -> "MultiPoly":
        """self / c for a nonzero c whose quotient is integral, such as the
        content: exact floor division when c is an int."""
        if type(c) is int:
            terms = {e: x // c for e, x in self.terms.items()}
            return MultiPoly._raw(self.symbols, terms, prune=False)
        return self._scaled(1 / c)

    def primitive(self) -> Tuple[Scalar, "MultiPoly"]:
        """Split into (signed content, primitive part)."""
        c = self.signed_content()
        if not c or c == 1:
            return c, self
        return c, self._div_content(c)

    def coeff_map(self, sym: str) -> Dict[int, "MultiPoly"]:
        """View as a univariate polynomial in sym: degree -> coefficient
        polynomial in the remaining symbols."""
        if sym not in self.symbols:
            return {0: self} if self.terms else {}
        i = self.symbols.index(sym)
        rest = self.symbols[:i] + self.symbols[i + 1:]
        buckets: Dict[int, Terms] = {}
        for e, c in self.terms.items():
            buckets.setdefault(e[i], {})[e[:i] + e[i + 1:]] = c
        return {d: MultiPoly._raw(rest, t) for d, t in buckets.items()}

    # -- evaluation -------------------------------------------------------

    def eval_fractions(self, bindings: Mapping[str, Scalar]) -> Fraction:
        missing = [s for s in self.symbols if s not in bindings]
        if missing:
            raise ValueError(f"no value supplied for symbols {missing}")
        vals = [_coeff(bindings[s]) for s in self.symbols]
        total = 0  # an int while every value and coefficient is one
        for e, c in self.terms.items():
            term = c
            for v, p in zip(vals, e):
                if p:
                    term *= v ** p
            total += term
        return Fraction(total)

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        # graded lex, descending: the stable sort by degree keeps the
        # descending lex order of the first sort among equal degrees
        text = ""
        for exps in sorted(sorted(terms, reverse=True), key=sum, reverse=True):
            coeff = terms[exps]
            key = (self.symbols, exps)
            mono = _MONOMIALS.get(key)
            if mono is None:
                mono = _MONOMIALS[key] = "*".join(
                    sym if p == 1 else f"{sym}^{p}"
                    for sym, p in zip(self.symbols, exps) if p)
            mag = abs(coeff)
            body = f"{mag}*{mono}" if mono and mag != 1 else mono or str(mag)
            text += f" - {body}" if coeff < 0 else f" + {body}"
        return text[3:] if text[1] == "+" else f"-{text[3:]}"

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


# -- dense integer lists ---------------------------------------------------------
#
# An integer polynomial in one symbol is also held as the list of its
# coefficients, lowest degree first: the numerators and gaps of the Jack
# solve in its coupling's symbol, and poly_exact_div in one symbol.  These helpers are the one toolkit for all
# of them, and none calls a kernel.  A list is trimmed when its last entry
# is nonzero; the zero polynomial is the empty list.


def _dense(terms: Terms) -> list:
    """The dense list of integral one-symbol terms."""
    out = [0] * (max(e for (e,) in terms) + 1)
    for (e,), c in terms.items():
        out[e] = c
    return out


def _trim(a: list) -> list:
    """a without its trailing zeros, in place; returns a."""
    while a and not a[-1]:
        a.pop()
    return a


def _madd(out: list, a: list, b: list) -> None:
    """out += a*b in place; out grows to hold the product."""
    # one flat step, as every step of the Jack solve at a number
    if len(a) == 1 == len(b):
        if out:
            out[0] += a[0] * b[0]
        else:
            out.append(a[0] * b[0])
        return
    if len(a) > len(b):
        a, b = b, a
    short = len(a) + len(b) - 1 - len(out)
    if short > 0:
        out += [0] * short
    for k, y in enumerate(a):
        if y:
            for l, x in enumerate(b, k):
                out[l] += y * x


def _dense_primitive(a: list) -> Tuple[int, list]:
    """(signed content, primitive part) of a trimmed nonzero list: the
    primitive part has coprime entries and a positive leading entry."""
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return g, [c // g for c in a]


def _dense_div(a: list, b: list):
    """The quotient a/b by long division, for trimmed lists and b nonzero;
    None when an integer remainder is left.  For integral a and
    integer-primitive b the quotient over Q is integral (Gauss's lemma), so
    None proves that b does not divide a."""
    m = len(b) - 1
    if len(a) <= m:
        return None if a else []
    rem, lead = list(a), b[-1]
    quot = [0] * (len(a) - m)
    for i in range(len(quot) - 1, -1, -1):
        q, r = divmod(rem[i + m], lead)
        if r:
            return None
        if q:
            quot[i] = q
            for j in range(m):
                rem[i + j] -= q * b[j]
    return None if any(rem[:m]) else quot


def _dense_cancel(num: list, factors: Mapping[tuple, int]) -> Tuple[list, Dict[tuple, int]]:
    """(num', left) with num / prod f^e over factors = num' / prod f^e over
    left, by trial division alone, each f integer-primitive and dividing num
    wholly or coprime to it."""
    left: Dict[tuple, int] = {}
    for f, e in factors.items():
        for i in range(e):
            quot = _dense_div(num, f)
            if quot is None:
                left[f] = e - i
                break
            num = quot
    return num, left


def _dense_mul(a: list, b: list) -> list:
    """a*b, trimmed for trimmed a and b."""
    if not (a and b):
        return []
    if len(a) == 1 or len(b) == 1:
        y, b = (a[0], b) if len(a) == 1 else (b[0], a)
        return [y * x for x in b]
    out: list = []
    _madd(out, a, b)
    return out


def _dense_product(factors: Mapping[tuple, int]) -> list:
    """prod f^e over {f: e}, for e >= 0."""
    out = [1]
    for f, e in factors.items():
        for _ in range(e):
            out = _dense_mul(out, f)
    return out


def _dense_poly(symbol: str, a: list, scale: Scalar = 1) -> MultiPoly:
    """The MultiPoly scale * sum a[i] * symbol^i."""
    if scale == 1:
        terms = {(i,): c for i, c in enumerate(a) if c}
    else:
        terms = {(i,): _coeff(c * scale) for i, c in enumerate(a) if c}
    return MultiPoly._raw((symbol,), terms)


# -- gcd machinery ------------------------------------------------------------


def _int_image(p: MultiPoly, sym: str, values: Mapping[str, int]) -> list:
    """Dense integer coefficients (lowest degree first) of p as a polynomial
    in sym, every other symbol set to its value in `values`, denominators
    cleared.  The leading entry is zero exactly when the sym-leading
    coefficient of p vanishes at that point."""
    terms = p.terms
    if not _all_int(terms):
        den = math.lcm(*(c.denominator for c in terms.values()))
        terms = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
    i = p.symbols.index(sym)
    others = [(j, values[s]) for j, s in enumerate(p.symbols) if j != i]
    coeffs = [0] * (p.degree(sym) + 1)
    for e, k in terms.items():
        for j, v in others:
            if e[j]:
                k *= v ** e[j]
        coeffs[e[i]] += k
    return coeffs


def _int_prs(f: list, g: list) -> list:
    """Primitive pseudo-remainder sequence (Collins 1967, Brown 1971) on two
    integer-primitive dense coefficient lists with positive leading entries.

    Returns their gcd over Q[x], integer-primitive with a positive leading
    entry; a constant gcd comes back as [1].  Every pseudo-remainder is
    computed over int and divided by its integer content before the next
    step, so coefficients do not swell as they do in Euclid over Fraction.
    """
    while len(g) > 1:
        # f := pseudo-remainder of f by g.  Each step scales f by an integer
        # and cancels its leading term, so the result is a rational multiple
        # of the remainder over Q.
        lg = g[-1]
        while len(f) >= len(g):
            lf = f[-1]
            h = math.gcd(lf, lg)
            scale, factor = lg // h, lf // h
            if scale != 1:
                f = [c * scale for c in f]
            shift = len(f) - len(g)
            for i in range(len(g) - 1):
                f[i + shift] -= factor * g[i]
            f.pop()
            while f and not f[-1]:
                f.pop()
        if not f:
            break
        f, g = g, _dense_primitive(f)[1]
    return g if len(g) > 1 else [1]


def _gcd_univariate(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """gcd of nonconstant polynomials in a single shared symbol, by the
    integer remainder sequence of _int_prs.  The result keeps the poly_gcd
    contract: integer-primitive with positive leading coefficient, and a
    constant gcd collapses to 1."""
    sym = (a.symbols or b.symbols)[0]
    g = _int_prs(_dense_primitive(_int_image(a, sym, {}))[1],
                 _dense_primitive(_int_image(b, sym, {}))[1])
    if len(g) == 1:
        return MultiPoly.const(1)
    return MultiPoly._raw((sym,), {(i,): c for i, c in enumerate(g) if c})


# Evaluation points of the degree bound: the primes from 1009 up.  Small
# values are unlucky here (factors such as 1 - z*(n - 2) coincide at small
# ranks).  Try t gives the j-th other symbol the prime at (t + j) mod 16,
# so values repeat within a try only past 16 symbols; soundness rests on
# the leading-coefficient check alone.
_POINTS = (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049,
           1051, 1061, 1063, 1069, 1087, 1091, 1093, 1097)
_POINT_TRIES = 3


def _gcd_degree_bound(a: MultiPoly, b: MultiPoly, sym: str) -> int:
    """Upper bound on the sym-degree of gcd(a, b), for a symbol of both.

    Every other symbol is set to its own prime; a point where the
    sym-leading coefficient of a or b vanishes is skipped.  At the first
    point that keeps both, the bound is the degree of the gcd of the two
    integer images (see poly_gcd for why).  Without such a point among
    _POINT_TRIES the bound is the smaller input degree.
    """
    others = sorted((set(a.symbols) | set(b.symbols)) - {sym})
    for t in range(_POINT_TRIES):
        values = {s: _POINTS[(t + j) % len(_POINTS)] for j, s in enumerate(others)}
        f, g = _int_image(a, sym, values), _int_image(b, sym, values)
        if f[-1] and g[-1]:
            return len(_int_prs(_dense_primitive(f)[1], _dense_primitive(g)[1])) - 1
    return min(a.degree(sym), b.degree(sym))


def _content(p: MultiPoly, sym: str) -> MultiPoly:
    """Content of p as a univariate polynomial in sym (1 when constant)."""
    coeffs = list(p.coeff_map(sym).values())
    content = coeffs[0]
    for c in coeffs[1:]:
        if content.is_const():
            break
        content = poly_gcd(content, c)
    if content.is_const():
        return MultiPoly.const(1)
    return content


def _leading_coeff(p: MultiPoly, sym: str) -> MultiPoly:
    coeffs = p.coeff_map(sym)
    return coeffs[max(coeffs)]


def _at(p: MultiPoly, sym: str, v: int) -> MultiPoly:
    """p with sym set to the integer v."""
    if sym not in p.symbols:
        return p
    i = p.symbols.index(sym)
    terms: Terms = {}
    for e, c in p.terms.items():
        rest = e[:i] + e[i + 1:]
        terms[rest] = terms.get(rest, 0) + c * v ** e[i]
    return MultiPoly(p.symbols[:i] + p.symbols[i + 1:], terms)


def _gcd_interpolated(a: MultiPoly, b: MultiPoly, x: str) -> MultiPoly:
    """Primitive part in x of gcd(a, b), for a and b of positive degree in x
    with a second symbol y between them (Brown's evaluation/interpolation
    gcd; see poly_gcd for why the result is correct).

    With gamma = gcd(lc_x a, lc_x b), which lc_x(gcd) divides, the target is
    P = gamma/lc_x(gcd) * gcd.  At y = v = 1, 2, 3, ... where neither
    leading coefficient vanishes, the gcd of the images (by _gcd_univariate
    for two symbols, else poly_gcd) scaled to leading coefficient gamma(v)
    is P(v) unless v is unlucky: a larger x-degree or an inexact scaling
    drops v, a smaller x-degree drops every earlier point.  The images are
    Newton-interpolated in y, and the primitive part in x of the
    interpolant is the candidate once an image agrees with the interpolant
    already or the points reach the y-degree bound of P; it is returned
    when it divides both a and b.
    """
    symbols = set(a.symbols) | set(b.symbols)
    y = max(symbols - {x})
    image_gcd = _gcd_univariate if len(symbols) == 2 else poly_gcd
    gamma = poly_gcd(_leading_coeff(a, x), _leading_coeff(b, x))
    needed = gamma.degree(y) + min(a.degree(y), b.degree(y)) + 1
    deg, v = math.inf, 0
    while True:
        v += 1
        a_v, b_v = _at(a, y, v), _at(b, y, v)
        if a_v.degree(x) < a.degree(x) or b_v.degree(x) < b.degree(x):
            continue
        g = image_gcd(a_v, b_v)
        if g.degree(x) > deg:
            continue
        if g.degree(x) == 0:
            return MultiPoly.const(1)
        try:
            g = g * poly_exact_div(_at(gamma, y, v), _leading_coeff(g, x))
        except ExactDivisionError:
            continue
        if g.degree(x) < deg:
            deg, points = g.degree(x), []
            interp, basis = MultiPoly.const(0), MultiPoly.const(1)
        diff = g - _at(interp, y, v)
        if diff:
            interp = interp + basis * diff._scaled(
                Fraction(1, math.prod(v - u for u in points)))
        basis = basis * (MultiPoly.symbol(y) - v)
        points.append(v)
        if diff and len(points) < needed:
            continue
        _, candidate = poly_exact_div(interp, _content(interp, x)).primitive()
        try:
            poly_exact_div(a, candidate)
            poly_exact_div(b, candidate)
        except ExactDivisionError:
            continue
        return candidate


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Greatest common divisor, integer-primitive with positive leading
    coefficient (constants collapse to 1).

    One algorithm, on integer images (Brown 1971; Geddes, Czapor & Labahn
    1992, ch. 7).  One symbol: the integer remainder sequence of _int_prs.
    Several, with main symbol x = max(shared symbols), first a degree-bound
    certificate that settles most pairs at once.  For a shared symbol y, set
    every other symbol to an integer where the y-leading coefficients of a
    and b do not vanish.  lc_y(gcd) divides lc_y(a), so the image of the
    gcd keeps its y-degree, and it divides both images; the degree of the
    images' gcd therefore bounds deg_y gcd(a, b) from above
    (_gcd_degree_bound).  If every bound is 0 the gcd is 1; if the bound in
    x is 0 the gcd is free of x, so it is the gcd of the contents in x.

    Otherwise the gcd is gcd(cont_x a, cont_x b) times its primitive part in
    x, which _gcd_interpolated interpolates from images.  Its candidate C is
    primitive in x and divides a and b, so it divides that primitive part;
    C has the x-degree of images at points where the x-leading coefficients
    do not vanish, which is at least the gcd's by the argument above.  So C
    is the primitive part.  Only finitely many points are unlucky, so the
    interpolation ends.
    """
    if a.is_zero():
        _, prim = b.primitive()
        return prim if b else MultiPoly.const(0)
    if b.is_zero() or a == b:
        _, prim = a.primitive()
        return prim
    if a.is_const() or b.is_const():
        return MultiPoly.const(1)
    shared = set(a.symbols) & set(b.symbols)
    if not shared:
        return MultiPoly.const(1)
    if set(a.symbols) == set(b.symbols) and len(a.symbols) == 1:
        return _gcd_univariate(a, b)
    sym = max(shared)
    if _gcd_degree_bound(a, b, sym) == 0:
        if all(_gcd_degree_bound(a, b, y) == 0 for y in shared - {sym}):
            return MultiPoly.const(1)
        prim = MultiPoly.const(1)
    else:
        prim = _gcd_interpolated(a, b, sym)
    return poly_gcd(_content(a, sym), _content(b, sym)) * prim


def poly_exact_div(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Exact polynomial quotient a/b; raises ExactDivisionError otherwise.

    When a is integral and b integer-primitive, the quotient is integral
    (Gauss's lemma), so each quotient coefficient is an exact int division
    and a nonzero remainder there already proves a/b inexact over Q.  In
    one symbol that division runs on dense coefficient lists.
    """
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return a
    if b.is_const():
        return a._scaled(1 / b.as_fraction())
    syms, ta, tb = MultiPoly._aligned(a, b)
    over_int = _all_int(ta) and _all_int(tb) and math.gcd(*tb.values()) == 1
    if over_int and len(syms) == 1:
        quot = _dense_div(_dense(ta), _dense(tb))
        if quot is None:
            raise ExactDivisionError("inexact polynomial division")
        return MultiPoly._raw(syms, {(i,): c for i, c in enumerate(quot) if c})
    blead = max(tb, key=_grlex)
    bcoeff = tb[blead]
    quot: Terms = {}
    rem = dict(ta)
    while rem:
        e = max(rem, key=_grlex)
        diff = tuple(x - y for x, y in zip(e, blead))
        if any(d < 0 for d in diff):
            raise ExactDivisionError("inexact polynomial division")
        if over_int:
            q, r = divmod(rem[e], bcoeff)
            if r:
                raise ExactDivisionError("inexact polynomial division")
        else:
            q = _coeff(Fraction(rem[e], bcoeff))
        quot[diff] = q
        rem = kernels.poly_sub(rem, kernels.poly_mul({diff: q}, tb))
    return MultiPoly._raw(syms, quot)


# -- the factor form ------------------------------------------------------------


def _expand_factors(scale: Scalar, factors: Mapping[MultiPoly, int]) -> "RatFunc":
    """The canonical RatFunc of scale * prod f^e over {f: e}, with no gcd.

    The factors are distinct irreducibles, integer-primitive with positive
    leading coefficients, and scale is nonzero.  Those with e > 0 make a
    numerator coprime to the product of the others, which is
    integer-primitive with positive leading coefficient (Gauss's lemma).
    """
    num, den = MultiPoly.const(1), MultiPoly.const(1)
    for f, e in factors.items():
        if e > 0:
            num = num * (f if e == 1 else f ** e)
        elif e < 0:
            den = den * (f if e == -1 else f ** -e)
    return RatFunc._raw(num._scaled(scale), den)


def _eval_over_common_den(p: MultiPoly, values: Mapping[str, "RatFunc"]
                          ) -> Tuple[MultiPoly, MultiPoly]:
    """p with each symbol s of `values` set to values[s] = a_s/b_s, as an
    unreduced quotient over the common denominator prod_s b_s^d_s,
    d_s = deg_s p:  num = sum_e c_e * prod_s a_s^e_s * b_s^(d_s - e_s).
    Other symbols stay as they are.  The substitution is simultaneous: no
    value is substituted into again."""
    bound = [i for i, s in enumerate(p.symbols) if s in values]
    free = [i for i, s in enumerate(p.symbols) if s not in values]
    # terms grouped by their bound exponents, each group a polynomial in the rest
    groups: Dict[Exponents, Terms] = {}
    for e, c in p.terms.items():
        groups.setdefault(tuple(e[i] for i in bound), {})[tuple(e[i] for i in free)] = c
    den, factors = MultiPoly.const(1), []
    for i in bound:
        v, d = values[p.symbols[i]], p.degree(p.symbols[i])
        factors.append([v.num ** k * v.den ** (d - k) for k in range(d + 1)])
        den = den * v.den ** d
    num = MultiPoly.const(0)
    for ks, terms in groups.items():
        term = MultiPoly._raw(tuple(p.symbols[i] for i in free), terms)
        for f, k in zip(factors, ks):
            term = term * f[k]
        num = num + term
    return num, den


# -- rational functions --------------------------------------------------------


class RatFunc:
    """Reduced quotient of two MultiPoly.  Immutable; structural equality is
    mathematical equality thanks to the canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = MultiPoly.const(num)
        if den is None:
            den = MultiPoly.const(1)
        elif isinstance(den, (int, Fraction)):
            den = MultiPoly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in rational function")
        if num.is_zero():
            num, den = MultiPoly.const(0), MultiPoly.const(1)
        else:
            # the gcd with a constant is 1, so only the content is left
            if not (num.is_const() or den.is_const()):
                g = poly_gcd(num, den)
                if g.symbols or g.terms[()] != 1:
                    num = poly_exact_div(num, g)
                    den = poly_exact_div(den, g)
            c = den.signed_content()
            if c != 1:
                num = num._scaled(Fraction(1, c))
                den = den._div_content(c)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def _raw(cls, num: MultiPoly, den: MultiPoly) -> "RatFunc":
        """Internal: skips normal-form reduction.  The caller guarantees
        num and den are coprime, den is nonzero with signed content 1
        (integer-primitive, positive leading coefficient), and a zero num
        comes with den = 1."""
        self = object.__new__(cls)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    @classmethod
    def const(cls, value) -> "RatFunc":
        if isinstance(value, RatFunc):
            return value
        if isinstance(value, MultiPoly):
            return cls(value)
        # a constant over 1 is already in normal form
        return cls._raw(MultiPoly.const(value), MultiPoly.const(1))

    @classmethod
    def symbol(cls, name: str) -> "RatFunc":
        return cls(MultiPoly.symbol(name))

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def as_fraction(self) -> Fraction:
        return self.num.as_fraction() / self.den.as_fraction()

    def symbols(self) -> Tuple[str, ...]:
        return tuple(sorted(set(self.num.symbols) | set(self.den.symbols)))

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = RatFunc.const(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction, MultiPoly)):
            return RatFunc.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den - other.num * self.den,
                       self.den * other.den)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return RatFunc._raw(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # a nonzero constant is a unit, so it keeps the other quotient reduced
        if other.is_const() and other:
            return RatFunc._raw(self.num._scaled(other.num.terms[()]), self.den)
        if self.is_const() and self:
            return RatFunc._raw(other.num._scaled(self.num.terms[()]), other.den)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)) and other and self:
            # a unit over a reduced quotient is reduced: only the signed
            # content of the new denominator moves to the numerator
            c, den = self.num.primitive()
            return RatFunc._raw(self.den._scaled(_coeff(Fraction(other) / c)), den)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise ValueError("rational function powers must be integers")
        if exponent < 0:
            return (RatFunc.const(1) / self) ** (-exponent)
        return RatFunc(self.num ** exponent, self.den ** exponent)

    # -- substitution / evaluation -------------------------------------------

    def substitute(self, bindings: Mapping[str, "RatFunc"]) -> "RatFunc":
        """Simultaneous substitution symbol -> RatFunc (or MultiPoly, int,
        Fraction).  Both halves are evaluated over a common denominator and
        the quotient is reduced once; without a binding for a symbol of
        self, self is returned as it is."""
        syms = self.symbols()
        values = {s: RatFunc.const(v) for s, v in bindings.items() if s in syms}
        if not values:
            return self
        num_num, num_den = _eval_over_common_den(self.num, values)
        den_num, den_den = _eval_over_common_den(self.den, values)
        if den_num.is_zero():
            raise ZeroDivisionError("substitution makes the denominator vanish")
        return RatFunc(num_num * den_den, num_den * den_num)

    def eval_fractions(self, bindings: Mapping[str, Scalar]) -> Fraction:
        den = self.den.eval_fractions(bindings)
        if not den:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        num = self.num.eval_fractions(bindings)
        return num if den == 1 else num / den

    # -- rendering -------------------------------------------------------------

    def __str__(self) -> str:
        den = self.den  # a polynomial free of symbols has at most the term ()
        if not den.symbols and den.terms.get(()) == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def ratfunc_equal(a: RatFunc, b: RatFunc) -> bool:
    """Exact equality by cross-multiplication (independent of reduction)."""
    if not isinstance(a, RatFunc):
        a = RatFunc.const(a)
    if not isinstance(b, RatFunc):
        b = RatFunc.const(b)
    return a.num * b.den == b.num * a.den


def series_expand(f: RatFunc, var: str, order: int) -> Tuple[RatFunc, ...]:
    """Taylor coefficients of f at var = 0 up to the requested order; entry
    p multiplies var**p.

    Requires the denominator to be invertible at var = 0, i.e. its var-free
    part must be a nonzero polynomial in the remaining symbols.
    """
    if order < 0:
        raise ValueError("series order must be nonnegative")
    a = f.num.coeff_map(var)
    b = f.den.coeff_map(var)
    b0 = b.get(0)
    if b0 is None or b0.is_zero():
        raise ZeroDivisionError(f"denominator of {f} vanishes at {var} = 0")
    inv_b0 = RatFunc.const(1) / RatFunc(b0)
    coeffs = []
    for p in range(order + 1):
        acc = RatFunc(a.get(p, MultiPoly.const(0)))
        for j in range(1, p + 1):
            bj = b.get(j)
            if bj is not None:
                acc = acc - RatFunc(bj) * coeffs[p - j]
        coeffs.append(acc * inv_b0)
    return tuple(coeffs)
