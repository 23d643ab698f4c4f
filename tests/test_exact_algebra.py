"""Exact rational-function arithmetic: pinned values and algebraic laws."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from negdim import casimir, dims, exact_algebra, jack, kernels, spaces
from negdim.cli import run_verify_all
from negdim.exact_algebra import (ExactDivisionError, MultiPoly, RatFunc,
                                  poly_exact_div, poly_gcd, ratfunc_equal,
                                  series_expand)
from negdim.partitions import partitions_up_to_weight

N = RatFunc.symbol("n")
Z = RatFunc.symbol("z")
ONE = RatFunc.const(1)


def test_series_geometric():
    coeffs = series_expand(ONE / (ONE - Z * N), "z", 3)
    assert [str(c) for c in coeffs] == ["1", "n", "n^2", "n^3"]


def test_series_fundamental_spectrum():
    f = (N - Z * (N * N - 1)) / (ONE - Z * N)
    coeffs = series_expand(f, "z", 2)
    assert [str(c) for c in coeffs] == ["n", "1", "n"]


def test_series_order_zero():
    coeffs = series_expand(ONE / (ONE - Z), "z", 0)
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
    assert ratfunc_equal((N + 1).substitute({"n": N - 1}), N)


def test_substitute_is_simultaneous():
    assert (N - 2 * Z).substitute({"n": Z, "z": N}) == Z - 2 * N
    assert (N - 2 * Z).substitute({"n": ONE / Z, "z": N}) == ONE / Z - 2 * N
    assert (N / (ONE - Z)).substitute({"n": Z, "z": N}) == Z / (ONE - N)


def test_substitute_without_matching_binding_returns_self():
    f = N / (ONE - N)
    assert f.substitute({"z": N}) is f
    assert f.substitute({}) is f


def test_substitute_vanishing_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        (ONE / (N - Z)).substitute({"n": Z})


def test_substitute_reduces_once(monkeypatch):
    # the numerator and denominator are evaluated over a common denominator
    # and the quotient is put in normal form once, not term by term
    f = (N ** 3 - 2 * N * Z + 1) / (Z ** 2 + N + 3)
    bindings = {"n": (N + 1) / (Z - 2), "z": ONE / (N + Z)}
    expected = f.substitute(bindings)
    calls = []
    inner = RatFunc.__init__

    def counted(self, *args):
        calls.append(1)
        inner(self, *args)

    monkeypatch.setattr(RatFunc, "__init__", counted)
    assert f.substitute(bindings) == expected
    assert len(calls) == 1


def test_substitute_first_multiplier():
    # (2 - z(2n+2))/(2 - z(2n+1)) under n -> -n, z -> -z
    num = RatFunc.const(2) - Z * (2 * N + 2)
    den = RatFunc.const(2) - Z * (2 * N + 1)
    image = (num / den).substitute({"n": -N, "z": -Z})
    expected = (RatFunc.const(2) + Z * (-2 * N + 2)) / (
        RatFunc.const(2) + Z * (-2 * N + 1))
    assert ratfunc_equal(image, expected)


def test_substitute_on_collisions_scalings_and_signed_renamings():
    # n -> z while z is free: the images collide, the quotient collapses
    assert ((N + Z) / (N - 2 * Z)).substitute({"n": Z}) == RatFunc.const(-2)
    # a scaled symbol, and a value with a nontrivial denominator
    assert (N / (ONE - N * Z)).substitute({"n": 2 * N}) == 2 * N / (ONE - 2 * N * Z)
    assert (N / (ONE - N * Z)).substitute({"n": ONE / N}) == ONE / (N - Z)
    # a signed swap of the symbols; the denominator's sign is normalised
    image = ((N + Z) / (N - 2 * Z)).substitute({"n": -Z, "z": N})
    assert image == (Z - N) / (Z + 2 * N)
    assert image.den.leading()[1] > 0


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        ONE / (N - N)


def test_factored_form_cancels_by_exponents():
    # a Casimir ladder: the triple (a, b, c) keys m = a/n + b + c*n, and the
    # map stands for prod (1 - z*m)**e
    ladder = {}
    casimir._mul(ladder, (-3, 2, 1))                # the su value 2 + n - 3/n
    casimir._mul(ladder, (0, Fraction(1, 2), 0))    # 1 - z/2
    casimir._mul(ladder, (0, 2, 0), -2)
    expected = ((ONE - Z * (2 + N - 3 / N)) * (ONE - Z / 2)
                / (ONE - 2 * Z) ** 2)                # gcd-based normal form
    assert casimir._expand(ladder) == expected
    # at n = 2 the su value is 5/2; at n = 3 it is 4 and merges with 1 + n;
    # at a rank a ladder is keyed by 2n*m
    for n in (2, 3):
        assert casimir._expand(casimir._at_rank(ladder, n), n) == _at(expected, n)
    assert casimir._at_rank({(-3, 2, 1): 1, (0, 1, 1): -1}, 3) == {}
    # equal values cancel by exponents
    casimir._mul(ladder, (0, 2, 0), 2)
    assert ladder == {(-3, 2, 1): 1, (0, Fraction(1, 2), 0): 1}
    assert casimir._mul(ladder, (-3, 2, 1), -1) == {(0, Fraction(1, 2), 0): 1}
    # the value 0 is the factor 1 and is dropped, also when a rank makes it 0
    assert casimir._mul({}, (0, 0, 0)) == {}
    assert casimir._at_rank({(0, -3, 1): 1, (-6, 1, 0): -1}, 3) == {-6: -1}
    assert casimir._expand({}) == ONE


def _at(f, n):
    return f.substitute({"n": RatFunc.const(n)})


def test_poly_exact_div():
    n = MultiPoly.symbol("n")
    one = MultiPoly.const(1)
    q = poly_exact_div(n * n - one, n - one)
    assert q == n + one
    with pytest.raises(ExactDivisionError):
        poly_exact_div(n * n + one, n - one)
    with pytest.raises(ExactDivisionError):
        poly_exact_div(one * 3, n - one)


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
def ratfuncs(draw, max_terms=4, max_exp=3):
    num = draw(polys(max_terms=max_terms, max_exp=max_exp))
    den = draw(polys(max_terms=max_terms, max_exp=max_exp).filter(lambda p: not p.is_zero()))
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
        sa = series_expand(a, "z", order)
        sb = series_expand(b, "z", order)
    except ArithmeticError:
        return  # pole at z = 0; precondition, not a defect
    sab = series_expand(a * b, "z", order)
    for p in range(order + 1):
        conv = RatFunc.const(0)
        for i in range(p + 1):
            conv = conv + sa[i] * sb[p - i]
        assert ratfunc_equal(sab[p], conv)


@given(ratfuncs())
@settings(max_examples=60, deadline=None)
def test_substitute_is_involutive_on_sign_flip(f):
    assert ratfunc_equal(f.substitute({"z": -Z}).substitute({"z": -Z}), f)


@given(ratfuncs(), st.permutations(("a", "n", "z")),
       st.sampled_from((("n",), ("z",), ("n", "z"))),
       st.tuples(st.sampled_from((1, -1)), st.sampled_from((1, -1))),
       st.tuples(fractions, fractions, fractions))
@settings(max_examples=60, deadline=None)
def test_signed_permutation_gives_canonical_image(f, targets, bound, signs, values):
    bindings = {s: sign * RatFunc.symbol(t)
                for s, t, sign in zip(bound, targets, signs)}
    try:
        image = f.substitute(bindings)
    except ZeroDivisionError:
        return  # the denominator vanishes identically, as n + z at z = -n
    assert poly_gcd(image.num, image.den) == MultiPoly.const(1)
    assert image.den.signed_content() == 1
    point = dict(zip(("a", "n", "z"), values))
    preimage = {s: point[s] for s in ("n", "z")}
    preimage.update({s: v.eval_fractions(point) for s, v in bindings.items()})
    try:
        expected = f.eval_fractions(preimage)
    except ZeroDivisionError:
        return  # a denominator vanishes at the point; precondition
    assert image.eval_fractions(point) == expected


@given(ratfuncs(), ratfuncs(), ratfuncs(), st.tuples(fractions, fractions))
@settings(max_examples=60, deadline=None)
def test_substitute_matches_numeric_evaluation(f, g, h, point):
    # f(g, h) at a point equals f evaluated at the values of g and h there
    pt = dict(zip(("n", "z"), point))
    try:
        expected = f.eval_fractions({"n": g.eval_fractions(pt), "z": h.eval_fractions(pt)})
    except ZeroDivisionError:
        return  # a denominator vanishes at the point; precondition
    assert f.substitute({"n": g, "z": h}).eval_fractions(pt) == expected


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


@given(polys(symbols=("n",), max_exp=4, coeffs=int_coeffs), univariate_factors,
       st.integers(0, 3), int_coeffs.filter(bool))
@settings(max_examples=80, deadline=None)
def test_one_symbol_division_on_dense_lists(a, b, shift, c):
    # the dense route recovers the cofactor and refuses a nonzero remainder
    # of lower degree, as the term-by-term route does with a second symbol
    _, b = b.primitive()
    assert poly_exact_div(a * b, b) == a
    assert poly_exact_div(a * b * Z.num, b) == a * Z.num
    r = MultiPoly(("n",), {(shift % b.degree("n"),): c})
    for route in (MultiPoly.const(1), Z.num):
        with pytest.raises(ExactDivisionError):
            poly_exact_div((a * b + r) * route, b)


# -- planted common factors in (n, z): the degree-bound certificate -----------

bivariate_int_polys = polys(coeffs=int_coeffs).filter(lambda p: not p.is_zero())
planted_factors = {
    # jointly bivariate: the certificate must decline and the images be
    # interpolated
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


def _count_interpolations(monkeypatch):
    calls = []
    inner = exact_algebra._gcd_interpolated

    def counted(a, b, x):
        calls.append(1)
        return inner(a, b, x)

    monkeypatch.setattr(exact_algebra, "_gcd_interpolated", counted)
    return calls


def test_gcd_images_coinciding_at_first_point():
    # n = 1009 is the first evaluation point: there both images are z - 1009,
    # so the bound is 1 and the interpolated gcd must decide
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
    calls = _count_interpolations(monkeypatch)
    assert poly_gcd(a, z + n) == MultiPoly.const(1)
    assert not calls  # certified at the next point, n = 1013


def test_gcd_distinct_values_per_symbol(monkeypatch):
    # lc_z(a) = va - vb vanishes wherever va and vb share a value, so a
    # certificate that gave every symbol the same value would never apply
    va, vb, z = (MultiPoly.symbol(s) for s in ("va", "vb", "z"))
    a = (va - vb) * z + 1
    assert poly_gcd(a * (va + 1), (z + va) * (va + 1)) == va + 1
    assert poly_gcd(a * (z - va), (z - va) * (z + vb)) == va - z
    calls = _count_interpolations(monkeypatch)
    assert poly_gcd(a, z + va + vb) == MultiPoly.const(1)
    assert not calls


def test_substitution_with_shared_bivariate_factor(monkeypatch):
    # a composition whose gcds share jointly bivariate factors; the
    # multivariate pseudo-remainder sequence this gcd replaced ran for
    # minutes on it
    f = ((-N ** 2 * Z ** 2 + 4 * N * Z ** 3 - Fraction(8, 3) * Z ** 3)
         / (4 * N ** 2 * Z ** 3 + 5 * N ** 3 + 12 * N * Z ** 2))
    g = (Fraction(-15, 2) * N * Z ** 2 - N ** 2 + Fraction(3, 2)) / (N ** 2 * Z ** 2 + 2)
    h = 24 * N / (5 * N ** 2 * Z + 4 * Z + 6)
    calls = []
    inner = exact_algebra._gcd_univariate

    def counted(a, b):
        calls.append(1)
        return inner(a, b)

    monkeypatch.setattr(exact_algebra, "_gcd_univariate", counted)
    composed = f.substitute({"n": g, "z": h})
    assert len(calls) <= 49
    pt = {"n": Fraction(2), "z": Fraction(3)}
    expected = f.eval_fractions({"n": g.eval_fractions(pt), "z": h.eval_fractions(pt)})
    assert composed.eval_fractions(pt) == expected


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _to_sympy(sympy, p):
    syms = [sympy.Symbol(s) for s in p.symbols]
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(x ** e for x, e in zip(syms, exps)))
                for exps, c in p.terms.items()), sympy.Integer(0))


# in three and four symbols the images that are interpolated are themselves
# multivariate, so poly_gcd recurses through them
many_symbol_int_polys = st.one_of(
    polys(symbols=("a", "n", "z"), max_exp=2, coeffs=int_coeffs),
    polys(symbols=("a", "b", "n", "z"), max_exp=2, coeffs=int_coeffs)).filter(
        lambda p: not p.is_zero())
many_symbol_factors = st.one_of(
    polys(symbols=("a", "n", "z"), max_terms=3, max_exp=2, coeffs=int_coeffs),
    polys(symbols=("a", "b", "n", "z"), max_terms=3, max_exp=2, coeffs=int_coeffs)).filter(
        lambda p: not p.is_const())


@given(st.one_of(nonzero_int_polys, many_symbol_int_polys),
       st.one_of(nonzero_int_polys, many_symbol_int_polys),
       st.one_of(univariate_factors, *planted_factors.values(), many_symbol_factors))
@settings(max_examples=80, deadline=None)
def test_gcd_matches_sympy(sympy, a, b, c):
    ours = _to_sympy(sympy, poly_gcd(a * c, b * c))
    theirs = sympy.gcd(_to_sympy(sympy, a * c), _to_sympy(sympy, b * c))
    # sympy keeps the integer content and signs by its own leading-term
    # order, so the primitive parts agree up to sign
    _, theirs = sympy.primitive(theirs)
    assert sympy.cancel(ours / theirs) in (1, -1)


def _count_gcds(monkeypatch):
    calls = []
    inner = exact_algebra.poly_gcd

    def counted(a, b):
        calls.append(1)
        return inner(a, b)

    monkeypatch.setattr(exact_algebra, "poly_gcd", counted)
    return calls


def test_constant_denominator_needs_no_gcd(monkeypatch):
    calls = _count_gcds(monkeypatch)
    poly = MultiPoly(("n", "z"), {(2, 1): Fraction(3, 2), (0, 1): 6})
    assert RatFunc(poly).den == MultiPoly.const(1)
    assert RatFunc(poly, MultiPoly.const(Fraction(-3, 4))).num == poly * Fraction(-4, 3)
    assert RatFunc.const(Fraction(5, 7)).as_fraction() == Fraction(5, 7)
    assert RatFunc.symbol("n") == N
    assert not calls


@given(ratfuncs(), fractions.filter(bool))
@settings(max_examples=60, deadline=None)
def test_product_with_unit_stays_reduced(f, c):
    expected = RatFunc(f.num * c, f.den)
    for product in (f * c, c * f, f * RatFunc.const(c), RatFunc.const(c) * f):
        assert product.num == expected.num and product.den == expected.den


@given(ratfuncs().filter(bool),
       st.one_of(fractions, st.integers(-9, 9)).filter(bool))
@settings(max_examples=60, deadline=None)
def test_unit_over_quotient_stays_reduced(f, c):
    expected = RatFunc(f.den * c, f.num)
    got = c / f
    assert got.num == expected.num and got.den == expected.den


def test_factor_form_needs_no_gcd(monkeypatch):
    f, g, n = 2 * N.num - 3 * Z.num, N.num + 1, N.num
    quotient = RatFunc(f - 4, -6 * g)
    calls = _count_gcds(monkeypatch)
    made = []
    inner = RatFunc.__init__
    monkeypatch.setattr(RatFunc, "__init__",
                        lambda *args: made.append(1) or inner(*args))
    expanded = exact_algebra._expand_factors(Fraction(-3, 2), {f: 2, g: -1, n: 0})
    inverse = 1 / quotient
    assert not calls and not made
    assert expanded == RatFunc(f ** 2 * Fraction(-3, 2), g)
    assert inverse == RatFunc(-6 * g, f - 4)


def test_product_with_unit_needs_no_gcd(monkeypatch):
    f = (N ** 2 - Z) / (N * Z + 3)
    calls = _count_gcds(monkeypatch)
    for c in (Fraction(-2, 3), 5):
        for product in (f * c, c * f, RatFunc.const(c) * f):
            assert product.num == f.num * c and product.den == f.den
    assert not calls


def test_work_counts_stay_within_budget(monkeypatch):
    # deterministic work on the benchmark config (a regression here shows
    # where the time bounds of a noisy machine cannot); jack's caches and
    # the spaces comparisons start cold, as in a fresh interpreter
    for cached in (jack._s_matrix, jack._s_inverse, jack._monomial_matrices,
                   jack._operator_count, jack._p_of_z,
                   spaces._compared_symbolically, spaces._reference,
                   spaces._derived, spaces._rational):
        cached.cache_clear()
    calls = {"poly_gcd": 0, "_gcd_interpolated": 0, "_gcd_univariate": 0, "RatFunc": 0,
             "poly_add": 0, "poly_sub": 0, "poly_mul": 0, "poly_scale": 0}

    def counted(key, inner):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return inner(*args, **kwargs)
        return wrapped

    for name in ("poly_gcd", "_gcd_interpolated", "_gcd_univariate"):
        monkeypatch.setattr(exact_algebra, name,
                            counted(name, getattr(exact_algebra, name)))
    for name in ("poly_add", "poly_sub", "poly_mul", "poly_scale"):
        monkeypatch.setattr(kernels, name, counted(name, getattr(kernels, name)))
    monkeypatch.setattr(RatFunc, "__init__", counted("RatFunc", RatFunc.__init__))
    assert run_verify_all(2, 3, 2).all_ok
    assert calls["poly_gcd"] == 0  # recursive calls included
    # each catalogue row's derived triple is built once
    assert calls["RatFunc"] <= 101
    # the Jack duality runs on dense int lists and calls no kernel
    assert calls["poly_mul"] <= 46
    assert calls["poly_add"] + calls["poly_sub"] <= 147
    assert calls["poly_scale"] <= 212
    assert calls["_gcd_interpolated"] == 0
    assert calls["_gcd_univariate"] == 0


def test_casimir_suites_make_no_gcd_call(monkeypatch):
    # their products are expanded from ladders of known irreducible factors,
    # and the dualities mirror ladders instead of substituting
    calls = _count_gcds(monkeypatch)
    made = {"RatFunc": 0, "MultiPoly": 0}

    def refuse(self, bindings):
        raise AssertionError("a Casimir duality substituted into a RatFunc")

    def counted(key, inner):
        def wrapped(*args, **kwargs):
            made[key] += 1
            return inner(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(RatFunc, "__init__", counted("RatFunc", RatFunc.__init__))
    monkeypatch.setattr(MultiPoly, "__init__",
                        counted("MultiPoly", MultiPoly.__init__))
    assert casimir.verify_consistency(6).all_ok
    # a ladder expands on integer rows straight from its keys, so no
    # polynomial goes through the checking constructor
    assert made["MultiPoly"] == 0
    monkeypatch.setattr(RatFunc, "substitute", refuse)
    assert casimir.verify_sp_so(6).all_ok
    assert casimir.verify_u_self(6).all_ok
    assert not calls  # recursive calls included
    assert made["RatFunc"] == 0
    # rows against blocks compares ladders and builds no polynomial at all
    made["MultiPoly"] = 0
    monkeypatch.setattr(MultiPoly, "_raw",
                        classmethod(counted("MultiPoly",
                                            MultiPoly.__dict__["_raw"].__func__)))
    for family in casimir.BLOCK_FAMILIES:
        for lam in partitions_up_to_weight(6):
            start = max(len(lam), 1)
            assert casimir.check_rows_vs_blocks(family, lam,
                                                range(start, start + 5)).holds
    assert made == {"RatFunc": 0, "MultiPoly": 0}


def test_casimir_coefficients_make_no_gcd_call(monkeypatch):
    # the coefficients are read off the ladders' series: the only common
    # factor of a numerator and its denominator (d*n)**(p+1) is a power of
    # n, so no gcd, normal form or series division is needed
    calls = _count_gcds(monkeypatch)
    made = []

    def refuse(*args):
        raise AssertionError("the coefficients took a series division")

    inner = RatFunc.__init__
    monkeypatch.setattr(RatFunc, "__init__",
                        lambda *args: made.append(1) or inner(*args))
    monkeypatch.setattr(exact_algebra, "series_expand", refuse)
    monkeypatch.setattr(casimir, "generating_function", refuse)
    for family in ("su", "c", "d"):
        for lam in partitions_up_to_weight(3):
            coeffs = casimir.spectrum_coefficients(family, lam, 4)
            assert len(coeffs) == 5
    assert not calls  # recursive calls included
    assert not made


def test_king_conjugation_and_structure_make_no_gcd_call(monkeypatch):
    # King compares shift maps, and the conjugation and the p0 scalar read
    # the exponent maps of the operator entries: none substitutes, takes a
    # gcd or falls back to cross-multiplication; jack's caches start cold
    for cached in (jack._s_matrix, jack._s_inverse, jack._monomial_matrices,
                   jack._operator_count):
        cached.cache_clear()
    calls = _count_gcds(monkeypatch)

    def refuse(*args):
        raise AssertionError("a map comparison substituted or cross-multiplied")

    monkeypatch.setattr(RatFunc, "substitute", refuse)
    monkeypatch.setattr(dims, "ratfunc_equal", refuse)
    monkeypatch.setattr(exact_algebra, "ratfunc_equal", refuse)
    assert dims.verify_king(6).all_ok
    assert jack.verify_conjugation(6).all_ok
    assert jack.verify_structure(6).all_ok
    assert not calls  # recursive calls included
