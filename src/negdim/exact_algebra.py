"""Exact multivariate rational-function arithmetic over the rationals.

Everything downstream (Casimir generating functions, Jack coefficient
fields, dimension polynomials) runs on three types defined here:

* MultiPoly  -- sparse polynomial over Fraction with named symbols.
  Canonical form: symbols sorted, unused symbols pruned, no zero terms.
  The canonical term order is graded lexicographic.
* RatFunc    -- quotient of two MultiPoly in reduced canonical form:
  gcd(num, den) = 1 and den integer-primitive with positive leading
  coefficient, so structural equality is mathematical equality.
* FormalSeries -- truncated Taylor expansion of a RatFunc in one symbol.

No floating point anywhere; coefficients are fractions.Fraction, which is
re-exported as Rational (already gcd-reduced with positive denominator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple, Union

from negdim import kernels

Rational = Fraction

Exponents = Tuple[int, ...]
Terms = Dict[Exponents, Fraction]
Scalar = Union[int, Fraction]


class ExactDivisionError(ArithmeticError):
    """Polynomial division left a nonzero remainder where exactness was required."""


def _grlex(exps: Exponents):
    return (sum(exps), exps)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an integer or Fraction, got {type(value).__name__}")


class MultiPoly:
    """Sparse exact polynomial in named symbols."""

    __slots__ = ("symbols", "terms")

    def __init__(self, symbols: Iterable[str], terms: Mapping[Exponents, Scalar]):
        syms = tuple(symbols)
        clean: Terms = {}
        for exps, coeff in terms.items():
            coeff = _as_fraction(coeff)
            if not coeff:
                continue
            exps = tuple(exps)
            if len(exps) != len(syms):
                raise ValueError("exponent tuple length does not match symbol count")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent in polynomial")
            clean[exps] = clean.get(exps, Fraction(0)) + coeff
        clean = {e: c for e, c in clean.items() if c}

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
    def _raw(cls, symbols: Tuple[str, ...], terms: Terms) -> "MultiPoly":
        """Internal: trusts that terms are clean for the given sorted symbols,
        but still prunes unused symbols for canonical form."""
        self = object.__new__(cls)
        if symbols:
            used = [i for i in range(len(symbols)) if any(e[i] for e in terms)]
            if len(used) != len(symbols):
                symbols = tuple(symbols[i] for i in used)
                terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def const(cls, value: Scalar) -> "MultiPoly":
        value = _as_fraction(value)
        return cls._raw((), {(): value} if value else {})

    @classmethod
    def symbol(cls, name: str) -> "MultiPoly":
        return cls._raw((name,), {(1,): Fraction(1)})

    @classmethod
    def linear(cls, const: Scalar, **coeffs: Scalar) -> "MultiPoly":
        """Convenience builder for c0 + c1*x + c2*y + ..."""
        poly = cls.const(const)
        for name, c in coeffs.items():
            poly = poly + cls._raw((name,), {(1,): _as_fraction(c)} if c else {})
        return poly

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.symbols

    def as_fraction(self) -> Fraction:
        if self.symbols:
            raise ValueError(f"polynomial {self} is not constant")
        return self.terms.get((), Fraction(0))

    def degree(self, sym: str) -> int:
        """Degree in one symbol; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        if sym not in self.symbols:
            return 0
        i = self.symbols.index(sym)
        return max(e[i] for e in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading(self) -> Tuple[Exponents, Fraction]:
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
        return MultiPoly._raw(self.symbols, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_const():
            return MultiPoly._raw(
                self.symbols, kernels.poly_scale(self.terms, other.as_fraction()))
        if self.is_const():
            return MultiPoly._raw(
                other.symbols, kernels.poly_scale(other.terms, self.as_fraction()))
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

    def signed_content(self) -> Fraction:
        """Rational c with self/c integer-primitive and positive leading
        coefficient.  Zero polynomial has content 0."""
        if not self.terms:
            return Fraction(0)
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            num_gcd = math.gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        content = Fraction(num_gcd, den_lcm)
        _, lead = self.leading()
        return content if lead > 0 else -content

    def primitive(self) -> Tuple[Fraction, "MultiPoly"]:
        """Split into (signed content, primitive part)."""
        c = self.signed_content()
        if not c:
            return Fraction(0), self
        inv = 1 / c
        return c, MultiPoly._raw(self.symbols, kernels.poly_scale(self.terms, inv))

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

    @staticmethod
    def from_coeff_map(sym: str, coeffs: Mapping[int, "MultiPoly"]) -> "MultiPoly":
        total = MultiPoly.const(0)
        x = MultiPoly.symbol(sym)
        for d, poly in coeffs.items():
            total = total + poly * x ** d
        return total

    def shift_down(self, sym: str) -> "MultiPoly":
        """Exact division by one power of sym; every term must contain it."""
        if sym not in self.symbols:
            if self.is_zero():
                return self
            raise ExactDivisionError(f"{self} has terms free of {sym}")
        i = self.symbols.index(sym)
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                raise ExactDivisionError(f"{self} has terms free of {sym}")
            out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c
        return MultiPoly._raw(self.symbols, out)

    # -- evaluation / substitution -----------------------------------------

    def eval_fractions(self, bindings: Mapping[str, Scalar]) -> Fraction:
        missing = [s for s in self.symbols if s not in bindings]
        if missing:
            raise ValueError(f"no value supplied for symbols {missing}")
        vals = [_as_fraction(bindings[s]) for s in self.symbols]
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for v, p in zip(vals, e):
                if p:
                    term *= v ** p
            total += term
        return total

    def substitute_rf(self, bindings: Mapping[str, "RatFunc"]) -> "RatFunc":
        """Evaluate with RatFunc values; unbound symbols map to themselves."""
        args = []
        for s in self.symbols:
            v = bindings.get(s)
            if v is None:
                v = RatFunc.symbol(s)
            elif not isinstance(v, RatFunc):
                v = RatFunc.const(v)
            args.append(v)
        power_cache = [{0: RatFunc.const(1), 1: a} for a in args]

        def power(i: int, p: int) -> "RatFunc":
            cache = power_cache[i]
            if p not in cache:
                cache[p] = cache[p - 1] * cache[1] if p - 1 in cache else power(i, p - 1) * cache[1]
            return cache[p]

        total = RatFunc.const(0)
        for e, c in self.terms.items():
            term = RatFunc.const(c)
            for i, p in enumerate(e):
                if p:
                    term = term * power(i, p)
            total = total + term
        return total

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exps in sorted(self.terms, key=_grlex, reverse=True):
            coeff = self.terms[exps]
            factors = []
            for sym, p in zip(self.symbols, exps):
                if p == 1:
                    factors.append(sym)
                elif p > 1:
                    factors.append(f"{sym}^{p}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            pieces.append(("-" if coeff < 0 else "+", body))
        sign, body = pieces[0]
        text = body if sign == "+" else f"-{body}"
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


# -- gcd machinery ------------------------------------------------------------


def _int_primitive(coeffs: list) -> list:
    """Divide a dense integer coefficient list (lowest degree first, nonzero
    leading entry) by its content, signed so the leading entry is positive."""
    g = math.gcd(*coeffs)
    if coeffs[-1] < 0:
        g = -g
    return [c // g for c in coeffs]


def _int_image(p: MultiPoly, sym: str, values: Mapping[str, int]) -> list:
    """Dense integer coefficients (lowest degree first) of p as a polynomial
    in sym, every other symbol set to its value in `values`, denominators
    cleared.  The leading entry is zero exactly when the sym-leading
    coefficient of p vanishes at that point."""
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    i = p.symbols.index(sym)
    others = [(j, values[s]) for j, s in enumerate(p.symbols) if j != i]
    coeffs = [0] * (p.degree(sym) + 1)
    for e, c in p.terms.items():
        k = c.numerator * (den // c.denominator)
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
        f, g = g, _int_primitive(f)
    return g if len(g) > 1 else [1]


def _gcd_univariate(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """gcd of nonconstant polynomials in a single shared symbol, by the
    integer remainder sequence of _int_prs.  The result keeps the poly_gcd
    contract: integer-primitive with positive leading coefficient, and a
    constant gcd collapses to 1."""
    sym = (a.symbols or b.symbols)[0]
    g = _int_prs(_int_primitive(_int_image(a, sym, {})),
                 _int_primitive(_int_image(b, sym, {})))
    if len(g) == 1:
        return MultiPoly.const(1)
    return MultiPoly._raw((sym,), {(i,): Fraction(c) for i, c in enumerate(g) if c})


# Evaluation points of the degree bound: the primes from 1009 up.  Small
# values are unlucky here (factors such as 1 - z*(n - 2) coincide at small
# ranks).  The values wrap around past 14 symbols; soundness rests on the
# leading-coefficient check alone.
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
            return len(_int_prs(_int_primitive(f), _int_primitive(g))) - 1
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


def _content_wrt(p: MultiPoly, sym: str) -> Tuple[MultiPoly, MultiPoly]:
    """(content, primitive part) of p as a univariate polynomial in sym."""
    content = _content(p, sym)
    if content.is_const():
        return content, p
    return content, poly_exact_div(p, content)


def _pseudo_rem(f: Dict[int, MultiPoly], g: Dict[int, MultiPoly]) -> Dict[int, MultiPoly]:
    """Pseudo-remainder of univariate-view polynomials (scalar-in-sym factors
    are irrelevant because the caller re-primitivises every step)."""
    dg = max(g)
    lg = g[dg]
    f = dict(f)
    while f:
        df = max(f)
        if df < dg:
            break
        lf = f[df]
        # f := lg*f - lf*x^(df-dg)*g; the two leading terms cancel by
        # construction, so both are skipped explicitly.
        new: Dict[int, MultiPoly] = {}
        for d, c in f.items():
            if d != df:
                new[d] = c * lg
        for d, c in g.items():
            if d == dg:
                continue
            shift = d + df - dg
            acc = new.get(shift, MultiPoly.const(0)) - lf * c
            if acc:
                new[shift] = acc
            elif shift in new:
                del new[shift]
        f = new
    return f


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Greatest common divisor, integer-primitive with positive leading
    coefficient (constants collapse to 1).

    One symbol: the integer remainder sequence of _int_prs.  Several: before
    the remainder sequence in the main symbol x = max(shared symbols), a
    degree-bound certificate (the first step of Brown's modular gcd, Brown
    1971; Geddes, Czapor & Labahn 1992, ch. 7) settles most pairs at once.
    For a shared symbol y, set every other symbol to an integer where the
    y-leading coefficients of a and b do not vanish.  lc_y(gcd) divides
    lc_y(a), so the image of the gcd keeps its y-degree, and it divides both
    images; the degree of the images' gcd therefore bounds deg_y gcd(a, b)
    from above (_gcd_degree_bound).  If every bound is 0 the gcd is 1.  If
    only the bound in x is 0, the gcd is free of x and so equals the gcd of
    the contents in x.  Otherwise the full remainder sequence runs.
    """
    if a.is_zero():
        _, prim = b.primitive()
        return prim if b else MultiPoly.const(0)
    if b.is_zero():
        _, prim = a.primitive()
        return prim
    if a.is_const() or b.is_const():
        return MultiPoly.const(1)
    shared = set(a.symbols) & set(b.symbols)
    if not shared:
        return MultiPoly.const(1)
    if set(a.symbols) == set(b.symbols) and len(a.symbols) == 1:
        return _gcd_univariate(a, b)
    sym = sorted(shared)[-1]
    if _gcd_degree_bound(a, b, sym) == 0:
        if all(_gcd_degree_bound(a, b, y) == 0 for y in shared - {sym}):
            return MultiPoly.const(1)
        return poly_gcd(_content(a, sym), _content(b, sym))

    cont_a, prim_a = _content_wrt(a, sym)
    cont_b, prim_b = _content_wrt(b, sym)
    cont = poly_gcd(cont_a, cont_b)

    f, g = prim_a.coeff_map(sym), prim_b.coeff_map(sym)
    if max(f) < max(g):
        f, g = g, f
    while True:
        r = _pseudo_rem(f, g)
        if not r:
            gp = MultiPoly.from_coeff_map(sym, g)
            break
        if max(r) == 0:
            gp = MultiPoly.const(1)
            break
        _, rp = _content_wrt(MultiPoly.from_coeff_map(sym, r), sym)
        f, g = g, rp.coeff_map(sym)
    _, gp = gp.primitive()
    result = cont * gp
    _, result = result.primitive()
    return result


def poly_exact_div(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Exact polynomial quotient a/b; raises ExactDivisionError otherwise."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return a
    if b.is_const():
        inv = 1 / b.as_fraction()
        return MultiPoly._raw(a.symbols, kernels.poly_scale(a.terms, inv))
    syms, ta, tb = MultiPoly._aligned(a, b)
    blead = max(tb, key=_grlex)
    bcoeff = tb[blead]
    quot: Terms = {}
    rem = dict(ta)
    while rem:
        e = max(rem, key=_grlex)
        diff = tuple(x - y for x, y in zip(e, blead))
        if any(d < 0 for d in diff):
            raise ExactDivisionError("inexact polynomial division")
        q = rem[e] / bcoeff
        quot[diff] = quot.get(diff, Fraction(0)) + q
        rem = kernels.poly_sub(rem, kernels.poly_mul({diff: q}, tb))
    return MultiPoly._raw(syms, {e: c for e, c in quot.items() if c})


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
            g = poly_gcd(num, den)
            if not g.is_const() or g.as_fraction() != 1:
                num = poly_exact_div(num, g)
                den = poly_exact_div(den, g)
            c = den.signed_content()
            if c != 1:
                inv = 1 / c
                num = MultiPoly._raw(num.symbols, kernels.poly_scale(num.terms, inv))
                den = MultiPoly._raw(den.symbols, kernels.poly_scale(den.terms, inv))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def const(cls, value) -> "RatFunc":
        if isinstance(value, RatFunc):
            return value
        if isinstance(value, MultiPoly):
            return cls(value)
        return cls(MultiPoly.const(value))

    @classmethod
    def symbol(cls, name: str) -> "RatFunc":
        return cls(MultiPoly.symbol(name))

    @classmethod
    def linear(cls, const: Scalar, **coeffs: Scalar) -> "RatFunc":
        return cls(MultiPoly.linear(const, **coeffs))

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
        result = object.__new__(RatFunc)
        object.__setattr__(result, "num", -self.num)
        object.__setattr__(result, "den", self.den)
        return result

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
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
        """Simultaneous substitution symbol -> RatFunc (or int/Fraction)."""
        num = self.num.substitute_rf(bindings)
        den = self.den.substitute_rf(bindings)
        if den.is_zero():
            raise ZeroDivisionError("substitution makes the denominator vanish")
        return num / den

    def eval_fractions(self, bindings: Mapping[str, Scalar]) -> Fraction:
        den = self.den.eval_fractions(bindings)
        if not den:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return self.num.eval_fractions(bindings) / den

    def series(self, var: str, order: int) -> "FormalSeries":
        return series_expand(self, var, order)

    # -- rendering -------------------------------------------------------------

    def __str__(self) -> str:
        if self.den == MultiPoly.const(1):
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


def substitute(f: RatFunc, bindings: Mapping[str, RatFunc]) -> RatFunc:
    return f.substitute(bindings)


@dataclass(frozen=True)
class FormalSeries:
    """Truncated Taylor expansion: coefficients[p] multiplies variable**p."""

    variable: str
    order: int
    coefficients: Tuple[RatFunc, ...]

    def __post_init__(self):
        if len(self.coefficients) != self.order + 1:
            raise ValueError("coefficient count must equal order + 1")

    def __str__(self) -> str:
        parts = [f"[{p}] {c}" for p, c in enumerate(self.coefficients)]
        return "\n".join(parts)


def series_expand(f: RatFunc, var: str, order: int) -> FormalSeries:
    """Taylor coefficients of f at var = 0 up to the requested order.

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
    return FormalSeries(variable=var, order=order, coefficients=tuple(coeffs))
