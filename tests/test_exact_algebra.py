"""Exact rational-function arithmetic: pinned values and algebraic laws."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from negdim import exact_algebra
from negdim.exact_algebra import (ExactDivisionError, MultiPoly, RatFunc,
                                  poly_exact_div, poly_gcd, ratfunc_equal,
                                  series_expand, substitute)

N = RatFunc.symbol("n")
Z = RatFunc.symbol("z")
ONE = RatFunc.const(1)


def test_series_geometric():
    coeffs = series_expand(ONE / (ONE - Z * N), "z", 3).coefficients
    assert [str(c) for c in coeffs] == ["1", "n", "n^2", "n^3"]


def test_series_fundamental_spectrum():
    f = (N - Z * (N * N - 1)) / (ONE - Z * N)
    coeffs = series_expand(f, "z", 2).coefficients
    assert [str(c) for c in coeffs] == ["n", "1", "n"]


def test_series_order_zero():
    coeffs = series_expand(ONE / (ONE - Z), "z", 0).coefficients
    assert len(coeffs) == 1 and str(coeffs[0]) == "1"


def test_series_pole_at_zero_rejected():
    with pytest.raises(ArithmeticError):
        series_expand(ONE / Z, "z", 2)


def test_multiplicative_inverse():
    f = ONE / (ONE - Z * N)
    assert ratfunc_equal(f * (ONE - Z * N), ONE)


def test_factor_cancellation():
    assert str((N * N - 1) / (N - 1)) == "n + 1"
    assert ratfunc_equal((N * N - 1) / (N - 1), N + 1)


def test_additive_inverse():
    f = Z / (ONE - Z * N)
    assert (f + (-f)).is_zero()


def test_equal_not_fooled():
    assert not ratfunc_equal(ONE - Z * N, ONE + Z * N)


def test_substitute_sign_flips():
    f = ONE - Z * N
    assert str(f.substitute({"n": -N})) == "n*z + 1"
    assert ratfunc_equal(f.substitute({"n": -N, "z": -Z}), f)


def test_substitute_first_multiplier():
    # (2 - z(2n+2))/(2 - z(2n+1)) under n -> -n, z -> -z
    num = RatFunc.const(2) - Z * (2 * N + 2)
    den = RatFunc.const(2) - Z * (2 * N + 1)
    image = (num / den).substitute({"n": -N, "z": -Z})
    expected = (RatFunc.const(2) + Z * (-2 * N + 2)) / (
        RatFunc.const(2) + Z * (-2 * N + 1))
    assert ratfunc_equal(image, expected)


def test_substitute_module_function():
    assert ratfunc_equal(substitute(N + 1, {"n": N - 1}), N)


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        ONE / (N - N)


def test_poly_exact_div():
    n = MultiPoly.symbol("n")
    one = MultiPoly.const(1)
    q = poly_exact_div(n * n - one, n - one)
    assert q == n + one
    with pytest.raises(ExactDivisionError):
        poly_exact_div(n * n + one, n - one)


# -- randomized algebraic laws ------------------------------------------------

fractions = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4)


@st.composite
def polys(draw, symbols=("n", "z"), max_terms=4, max_exp=3, coeffs=fractions):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        exps = tuple(draw(st.integers(0, max_exp)) for _ in symbols)
        coeff = draw(coeffs)
        if coeff:
            terms[exps] = coeff
    return MultiPoly(symbols, terms)


@st.composite
def ratfuncs(draw):
    num = draw(polys())
    den = draw(polys().filter(lambda p: not p.is_zero()))
    return RatFunc(num, den)


@given(ratfuncs())
@settings(max_examples=60, deadline=None)
def test_normalization_idempotent(f):
    again = RatFunc(f.num, f.den)
    assert again.num == f.num and again.den == f.den


@given(ratfuncs(), ratfuncs())
@settings(max_examples=40, deadline=None)
def test_equal_agrees_with_evaluation(a, b):
    """equal(a, b) implies a and b agree at every nonsingular rational point."""
    eq = ratfunc_equal(a, b)
    hits = 0
    for nv in range(2, 40):
        point = {"n": Fraction(nv), "z": Fraction(1, nv + 7)}
        try:
            av = a.eval_fractions(point)
            bv = b.eval_fractions(point)
        except ZeroDivisionError:
            continue
        hits += 1
        if eq:
            assert av == bv
        elif av != bv:
            return  # found the separating point
        if hits >= 20:
            break
    if not eq:
        # 20 agreeing points for degree-bounded inputs would contradict eq=False
        assert hits < 20


@given(ratfuncs(), ratfuncs())
@settings(max_examples=30, deadline=None)
def test_series_cauchy_product(a, b):
    order = 4
    try:
        sa = series_expand(a, "z", order).coefficients
        sb = series_expand(b, "z", order).coefficients
    except ArithmeticError:
        return  # pole at z = 0; precondition, not a defect
    sab = series_expand(a * b, "z", order).coefficients
    for p in range(order + 1):
        conv = RatFunc.const(0)
        for i in range(p + 1):
            conv = conv + sa[i] * sb[p - i]
        assert ratfunc_equal(sab[p], conv)


@given(ratfuncs())
@settings(max_examples=60, deadline=None)
def test_substitute_is_involutive_on_sign_flip(f):
    assert ratfunc_equal(f.substitute({"z": -Z}).substitute({"z": -Z}), f)


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_gcd_divides_both(a, b):
    if a.is_zero() and b.is_zero():
        return
    g = poly_gcd(a, b)
    assert not g.is_zero()
    if not a.is_zero():
        poly_exact_div(a, g)
    if not b.is_zero():
        poly_exact_div(b, g)


# -- planted common factors: the univariate base case of poly_gcd ------------

int_coeffs = st.integers(-9, 9)
nonzero_int_polys = st.one_of(
    polys(symbols=("n",), coeffs=int_coeffs),
    polys(symbols=("n", "z"), coeffs=int_coeffs)).filter(lambda p: not p.is_zero())
univariate_factors = polys(symbols=("n",), max_exp=4, coeffs=int_coeffs).filter(
    lambda p: not p.is_const())


def _check_planted_factor(a, b, c):
    g = poly_gcd(a * c, b * c)
    _, prim_c = c.primitive()
    poly_exact_div(g, prim_c)
    cof_a, cof_b = poly_exact_div(a * c, g), poly_exact_div(b * c, g)
    assert poly_gcd(cof_a, cof_b) == MultiPoly.const(1)
    assert g.signed_content() == 1


@given(nonzero_int_polys, nonzero_int_polys, univariate_factors)
@settings(max_examples=60, deadline=None)
def test_gcd_recovers_planted_univariate_factor(a, b, c):
    _check_planted_factor(a, b, c)


# -- planted common factors in (n, z): the degree-bound certificate -----------

bivariate_int_polys = polys(coeffs=int_coeffs).filter(lambda p: not p.is_zero())
planted_factors = {
    # jointly bivariate: the certificate must decline and the full sequence run
    "n-and-z": polys(max_exp=2, coeffs=int_coeffs).filter(
        lambda p: p.symbols == ("n", "z")),
    # free of the main symbol z: mostly settled by the content shortcut
    "n-only": univariate_factors,
    "z-only": polys(symbols=("z",), max_exp=3, coeffs=int_coeffs).filter(
        lambda p: not p.is_const()),
}


@pytest.mark.parametrize("shape", sorted(planted_factors))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_gcd_recovers_planted_factor_in_n_z(shape, data):
    a = data.draw(bivariate_int_polys)
    b = data.draw(bivariate_int_polys)
    _check_planted_factor(a, b, data.draw(planted_factors[shape]))


def _count_remainder_sequences(monkeypatch):
    calls = []
    inner = exact_algebra._pseudo_rem

    def counted(f, g):
        calls.append(1)
        return inner(f, g)

    monkeypatch.setattr(exact_algebra, "_pseudo_rem", counted)
    return calls


def test_gcd_images_coinciding_at_first_point():
    # n = 1009 is the first evaluation point: there both images are z - 1009,
    # so the bound is 1 and the full remainder sequence must decide
    n, z = MultiPoly.symbol("n"), MultiPoly.symbol("z")
    assert poly_gcd(z - n, z - 1009) == MultiPoly.const(1)
    assert poly_gcd((z - n) * (z + n), (z - 1009) * (z + n)) == z + n


def test_gcd_skips_point_where_leading_coefficient_vanishes(monkeypatch):
    # at n = 1009 the image of a drops to the constant 1, which would bound
    # deg_z gcd by 0 although a divides b
    n, z = MultiPoly.symbol("n"), MultiPoly.symbol("z")
    a = (n - 1009) * z + 1
    assert poly_gcd(a, a * (z + 1)) == a
    assert poly_gcd(a * (n + 2), a * (z + 1)) == a
    calls = _count_remainder_sequences(monkeypatch)
    assert poly_gcd(a, z + n) == MultiPoly.const(1)
    assert not calls  # certified at the next point, n = 1013


def test_gcd_distinct_values_per_symbol(monkeypatch):
    # lc_z(a) = va - vb vanishes wherever va and vb share a value, so a
    # certificate that gave every symbol the same value would never apply
    va, vb, z = (MultiPoly.symbol(s) for s in ("va", "vb", "z"))
    a = (va - vb) * z + 1
    assert poly_gcd(a * (va + 1), (z + va) * (va + 1)) == va + 1
    assert poly_gcd(a * (z - va), (z - va) * (z + vb)) == va - z
    calls = _count_remainder_sequences(monkeypatch)
    assert poly_gcd(a, z + va + vb) == MultiPoly.const(1)
    assert not calls


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _to_sympy(sympy, p):
    syms = [sympy.Symbol(s) for s in p.symbols]
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(x ** e for x, e in zip(syms, exps)))
                for exps, c in p.terms.items()), sympy.Integer(0))


@given(nonzero_int_polys, nonzero_int_polys,
       st.one_of(univariate_factors, *planted_factors.values()))
@settings(max_examples=60, deadline=None)
def test_gcd_matches_sympy(sympy, a, b, c):
    ours = _to_sympy(sympy, poly_gcd(a * c, b * c))
    theirs = sympy.gcd(_to_sympy(sympy, a * c), _to_sympy(sympy, b * c))
    # sympy keeps the integer content and signs by its own leading-term
    # order, so the primitive parts agree up to sign
    _, theirs = sympy.primitive(theirs)
    assert sympy.cancel(ours / theirs) in (1, -1)
