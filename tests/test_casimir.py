"""Casimir spectrum generating functions: pinned values and dualities."""

import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from negdim import casimir, exact_algebra
from negdim.cli import main
from negdim.casimir import (BLOCK_FAMILIES, FAMILIES, block_product,
                            check_rectangle_closed_form, check_rows_vs_blocks,
                            check_sp_so_duality, check_su_rectangle_invariance,
                            check_u_selfduality, first_multiplier,
                            generating_function, group_spec, rectangle_product,
                            row_m_values, row_product, spectrum_coefficients)
from negdim.exact_algebra import MultiPoly, RatFunc, ratfunc_equal, series_expand
from negdim.partitions import (block_param, partitions_of_weight,
                               partitions_up_to_weight, rectangle, transpose,
                               weight)

N = RatFunc.symbol("n")
Z = RatFunc.symbol("z")
ONE = RatFunc.const(1)
TWO = RatFunc.const(2)
# the rank negation as a substitution, the oracle for the ladder mirror
NEGATE = {"n": -N, "z": -Z}


def lin(c):
    """1 - c*z for a RatFunc (or scalar) c."""
    return ONE - Z * c


def test_first_multiplier_table():
    assert ratfunc_equal(first_multiplier("u"), ONE)
    assert ratfunc_equal(first_multiplier("su"), ONE)
    assert ratfunc_equal(first_multiplier("b"),
                         (TWO - Z * (2 * N - 1)) / (TWO - 2 * Z * N))
    assert ratfunc_equal(first_multiplier("c"),
                         (TWO - Z * (2 * N + 2)) / (TWO - Z * (2 * N + 1)))
    assert ratfunc_equal(first_multiplier("d"),
                         (TWO - Z * (2 * N - 2)) / (TWO - Z * (2 * N - 1)))


def test_first_multiplier_closed_form():
    # every entry is 1 + beta*z/(2 - (2*alpha+1)z) with the family parameters
    for family in ("u", "su", "b", "c", "d"):
        spec = group_spec(family)
        a1, a0 = spec.alpha
        alpha = RatFunc.const(a0) + RatFunc.const(a1) * N
        beta = RatFunc.const(spec.beta)
        expected = ONE + beta * Z / (TWO - (2 * alpha + 1) * Z)
        assert ratfunc_equal(first_multiplier(family), expected)


def test_cached_first_multipliers_stay_unchanged(capsys):
    # each family's prefactor ladder is built once and shared by every
    # caller; a sweep and one query of each Casimir form leave it as built
    before = {f: dict(casimir._first_multiplier(f)) for f in sorted(FAMILIES)}
    for argv in (
            ["verify-all", "--max-weight", "2", "--max-degree", "3",
             "--max-n", "2", "--json"],
            ["casimir", "gf", "--group", "c", "--lambda", "2,1"],
            ["casimir", "gf", "--group", "b", "--lambda", "2,1", "--n", "3"],
            ["casimir", "gf", "--group", "d", "--lambda", "2,1",
             "--mode", "blocks", "--n", "3"],
            ["casimir", "coeffs", "--group", "c", "--lambda", "2,1",
             "--order", "3"],
            ["casimir", "coeffs", "--group", "d", "--lambda", "2,1",
             "--order", "3", "--mode", "rows", "--n", "3"],
            ["casimir", "coeffs", "--group", "b", "--lambda", "2,1",
             "--order", "3", "--mode", "rows", "--n", "3"],
            ["casimir", "coeffs", "--group", "c", "--lambda", "2,1",
             "--order", "3", "--mode", "blocks", "--n", "3"]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert {f: casimir._first_multiplier(f) for f in before} == before


def test_row_product_examples():
    assert ratfunc_equal(row_product("u", (), 3), lin(3))
    assert ratfunc_equal(row_product("c", (), 2), lin(5) * lin(2) / lin(3))
    assert ratfunc_equal(row_product("u", (1,), 2), lin(3) * lin(1) / lin(2))


def test_row_product_rank_guard():
    with pytest.raises(ValueError):
        row_product("u", (1, 1, 1), 2)


def test_block_product_empty_symplectic():
    expected = lin(2 * N + 1) * lin(N) / lin(N + 1)
    assert ratfunc_equal(block_product("c", ()), expected)


def test_block_product_no_b_family():
    with pytest.raises(ValueError):
        block_product("b", (2, 1))


def test_rectangle_u():
    p, q = 3, 2
    expected = lin(p + N) * lin(N - q) / lin(p - q + N)
    assert ratfunc_equal(rectangle_product("u", p, q), expected)
    assert ratfunc_equal(block_product("u", (p,) * q),
                         rectangle_product("u", p, q))


def test_rectangle_d():
    p, q = 2, 2
    num = lin(p + 2 * N - 1) * lin(2 * N - 1 - q) * lin(q - p) * lin(N)
    den = (lin(p - q + 2 * N - 1) * lin(N - 1)
           * (ONE + Z * p) * lin(q))
    assert ratfunc_equal(rectangle_product("d", p, q), num / den)


def test_gf_constants():
    assert str(generating_function("u", ()).gf) == "n"
    assert str(generating_function("c", ()).gf) == "2*n"
    assert str(generating_function("d", ()).gf) == "2*n"


def test_gf_fundamental():
    gf = generating_function("u", (1,)).gf
    assert ratfunc_equal(gf, (N - Z * (N * N - 1)) / (ONE - Z * N))


def test_coeffs_examples():
    assert [str(c) for c in spectrum_coefficients("u", (1,), 2)] == ["n", "1", "n"]
    assert [str(c) for c in spectrum_coefficients("u", (), 3)] == ["n", "0", "0", "0"]
    assert [str(c) for c in spectrum_coefficients("c", (), 2)] == ["2*n", "0", "0"]


def test_rows_mode_needs_rank():
    with pytest.raises(ValueError):
        generating_function("u", (1,), mode="rows")
    gf = generating_function("u", (1,), mode="rows", n=2).gf
    blocks = generating_function("u", (1,)).gf.substitute({"n": RatFunc.const(2)})
    assert ratfunc_equal(gf, blocks)


def test_blocks_mode_evaluates_at_rank():
    num = generating_function("c", (2, 1), n=5)
    assert num.mode == "blocks"
    sym = generating_function("c", (2, 1)).gf
    assert ratfunc_equal(num.gf, sym.substitute({"n": RatFunc.const(5)}))
    assert ratfunc_equal(num.gf, generating_function("c", (2, 1), mode="rows", n=5).gf)
    with pytest.raises(ValueError):
        generating_function("u", (1, 1, 1), n=2)


def test_sp_so_duality_small():
    for lam in [(), (1,), (2, 1), (2, 2, 1)]:
        assert check_sp_so_duality(lam).holds


def test_u_selfduality_small():
    for lam in [(), (1,), (3, 1)]:
        assert check_u_selfduality(lam).holds


def _negation_oracle(left, right, lam):
    """C_left(lam, z) and -C_right(lam', -z) at negated rank, by expanding
    both generating functions and substituting."""
    return (generating_function(left, lam).gf,
            -generating_function(right, transpose(lam)).gf.substitute(NEGATE))


@pytest.mark.parametrize("check, left, right", [
    (check_sp_so_duality, "c", "d"), (check_u_selfduality, "u", "u")])
def test_negation_checks_match_substitution_oracle(check, left, right):
    for lam in partitions_up_to_weight(6):
        lhs, rhs = _negation_oracle(left, right, lam)
        result = check(lam)
        assert result.holds and ratfunc_equal(lhs, rhs), lam
        assert (result.lhs, result.rhs) == (str(lhs), str(rhs)), lam


def test_unequal_ladders_are_decided_as_the_oracle_decides(monkeypatch):
    # with the symplectic ladder in place of the orthogonal one every
    # diagram's ladders differ; the expanded sides still match the oracle
    real = casimir._block_factors
    monkeypatch.setattr(casimir, "_block_factors", lambda family, lam:
                        real("c" if family == "d" else family, lam))
    for lam in partitions_up_to_weight(6):
        lhs, rhs = _negation_oracle("c", "d", lam)
        result = check_sp_so_duality(lam)
        assert not result.holds and not ratfunc_equal(lhs, rhs), lam
        assert (result.lhs, result.rhs) == (str(lhs), str(rhs)), lam
        assert result.notes.startswith("product: m="), lam


def test_negation_check_reports_first_differing_value(monkeypatch):
    real = casimir._block_factors
    lam = (3, 1)

    def shifted(family, mu):
        # move the factor with the smallest b of so's (2, 1, 1) to b + 1
        ladder = real(family, mu)
        if family == "d" and mu == transpose(lam):
            a, b, c = min(ladder, key=lambda k: k[1])
            casimir._mul(ladder, (a, b, c), -1)
            casimir._mul(ladder, (a, b + 1, c))
        return ladder

    monkeypatch.setattr(casimir, "_block_factors", shifted)
    # so's 1 - z*(2n - 4) and 1/(1 - z*(2n - 3)) cancel into the factor 1;
    # mirrored they were sp's 1 - z*(2n + 4) and 1/(1 - z*(2n + 3))
    result = check_sp_so_duality(lam)
    lhs, rhs = _negation_oracle("c", "d", lam)
    assert not result.holds and not ratfunc_equal(lhs, rhs)
    assert (result.lhs, result.rhs) == (str(lhs), str(rhs))
    assert result.notes == ("product: m=2*n + 3 has exponent -1 in lhs "
                            "and 0 in rhs")
    # u's ladders are not touched
    assert check_u_selfduality(lam).holds
    # with the odd orthogonal prefactor (2 - z*(2n - 1))/(2 - 2*n*z) for so's,
    # the mirrored rhs has 1/(1 - z*n) where sp's has none
    monkeypatch.setattr(casimir, "_block_factors", real)
    first = casimir._first_multiplier
    monkeypatch.setattr(casimir, "_first_multiplier",
                        lambda family: first("b" if family == "d" else family))
    result = check_sp_so_duality(lam)
    assert not result.holds
    assert result.notes == "prefactor: m=n has exponent 0 in lhs and -1 in rhs"


def test_su_rectangle_invariance_examples():
    assert check_su_rectangle_invariance(1, 1).holds
    assert check_su_rectangle_invariance(2, 3).holds
    assert check_su_rectangle_invariance(4, 1).holds


def test_rows_vs_blocks_spot():
    for family in BLOCK_FAMILIES:
        lam = (2, 1)
        assert check_rows_vs_blocks(family, lam, range(2, 7)).holds


def test_rectangle_closed_forms_spot():
    for family in BLOCK_FAMILIES:
        assert check_rectangle_closed_form(family, 2, 3).holds


@st.composite
def small_partitions(draw, max_weight=4):
    w = draw(st.integers(0, max_weight))
    return draw(st.sampled_from(list(partitions_of_weight(w))))


@given(small_partitions(), st.sampled_from(BLOCK_FAMILIES))
@settings(max_examples=40, deadline=None)
def test_regularity_at_z_zero(lam, family):
    """1 - pi vanishes at z = 0, so the gf has no pole there."""
    pi = block_product(family, lam)
    value = (ONE - pi).eval_fractions({"n": Fraction(17), "z": Fraction(0)})
    assert value == 0


@given(small_partitions(), st.sampled_from(BLOCK_FAMILIES))
@settings(max_examples=25, deadline=None)
def test_leading_coefficient_is_fundamental_dimension(lam, family):
    c0 = spectrum_coefficients(family, lam, 0)[0]
    expected = N if family in ("u", "su") else 2 * N
    assert ratfunc_equal(c0, expected)


def test_full_weight_partition_census():
    assert len(list(partitions_up_to_weight(6))) == 30


# -- the generic normal form as an oracle for the ladder construction ---------
#
# The oracle multiplies the same linear factors as plain polynomials and
# reduces the quotient once with RatFunc's gcd-based normal form; the library
# merges the values m of a ladder by exponent and never calls a gcd.  Both land on
# the canonical form, so they must agree structurally.

def _poly_lin(c, n_mult=0):
    """1 - z*(c + n_mult*n) as a polynomial."""
    n, z = MultiPoly.symbol("n"), MultiPoly.symbol("z")
    return MultiPoly.const(1) - z * (MultiPoly.const(c) + n * n_mult)


def _prod(polys):
    out = MultiPoly.const(1)
    for p in polys:
        out = out * p
    return out


def _oracle_su(num_cs, den_cs, t):
    """prod over num_cs / prod over den_cs of 1 - z*(c + n - t/n), times
    the residual n/(n + z t)."""
    n, z = MultiPoly.symbol("n"), MultiPoly.symbol("z")
    lin = [n - z * (n * c + n * n - t) for c in num_cs + den_cs]
    num = _prod(lin[:len(num_cs)]) * n ** len(den_cs) * n
    den = _prod(lin[len(num_cs):]) * n ** len(num_cs) * (n + z * t)
    return RatFunc(num, den)


def _oracle_block(family, lam):
    bp = block_param(lam)
    k, A, B = bp.count, bp.A, bp.B
    tops = [B[k - a] - A[a] for a in range(k + 1)]
    bottoms = [B[k - a + 1] - A[a] for a in range(1, k + 1)]
    if family == "u":
        return RatFunc(_prod(_poly_lin(c, 1) for c in tops),
                       _prod(_poly_lin(c, 1) for c in bottoms))
    if family == "su":
        return _oracle_su(tops, bottoms, weight(lam))
    sigma = 1 if family == "c" else -1
    num = (_prod(_poly_lin(c + sigma, 2) for c in tops)
           * _prod(_poly_lin(A[a] - B[k - a + 1]) for a in range(1, k + 1))
           * _poly_lin(0, 1))
    den = (_prod(_poly_lin(A[a] - B[k - a]) for a in range(k + 1))
           * _prod(_poly_lin(c + sigma, 2) for c in bottoms)
           * _poly_lin(sigma, 1))
    return RatFunc(num, den)


def _oracle_rectangle(family, p, q):
    if family == "u":
        return RatFunc(_poly_lin(p, 1) * _poly_lin(-q, 1), _poly_lin(p - q, 1))
    if family == "su":
        return _oracle_su([p, -q], [p - q], p * q)
    sigma = 1 if family == "c" else -1
    return RatFunc(_prod([_poly_lin(p + sigma, 2), _poly_lin(sigma - q, 2),
                          _poly_lin(q - p), _poly_lin(0, 1)]),
                   _prod([_poly_lin(p - q + sigma, 2), _poly_lin(sigma, 1),
                          _poly_lin(-p), _poly_lin(q)]))


def _oracle_rows(family, lam, n):
    ms = row_m_values(family, lam, n)
    return RatFunc(_prod(_poly_lin(m + 1) for m in ms), _prod(_poly_lin(m) for m in ms))


def _oracle_first_multiplier(family):
    a1, a0 = FAMILIES[family].alpha
    n, z = MultiPoly.symbol("n"), MultiPoly.symbol("z")
    den = MultiPoly.const(2) - z * (n * (2 * a1) + MultiPoly.const(2 * a0 + 1))
    return RatFunc(den + z * FAMILIES[family].beta, den)


def _oracle_gf(fm, pi):
    return fm * (ONE - pi) / RatFunc.symbol("z")


def _at(f, n):
    return f.substitute({"n": RatFunc.const(n)})


SMALL = list(partitions_up_to_weight(4))


@pytest.mark.parametrize("family", BLOCK_FAMILIES)
def test_block_product_matches_generic_normal_form(family):
    for lam in SMALL:
        assert block_product(family, lam) == _oracle_block(family, lam)


@pytest.mark.parametrize("family", BLOCK_FAMILIES)
def test_rectangle_product_matches_generic_normal_form(family):
    for p in range(1, 5):
        for q in range(1, 5):
            assert rectangle_product(family, p, q) == _oracle_rectangle(family, p, q)
            assert block_product(family, rectangle(p, q)) == _oracle_rectangle(family, p, q)


@pytest.mark.parametrize("family", BLOCK_FAMILIES)
def test_products_at_integer_ranks_match_generic_normal_form(family):
    for lam in SMALL:
        start = max(len(lam), 1)
        symbolic = _oracle_block(family, lam)
        for n in range(start, start + 5):
            assert row_product(family, lam, n) == _oracle_rows(family, lam, n)
            product = casimir._ladders(family, lam, "blocks", n)[1]
            assert casimir._expand(product, n) == _at(symbolic, n)


def test_first_multiplier_matches_generic_normal_form():
    for family in FAMILIES:
        assert first_multiplier(family) == _oracle_first_multiplier(family)


@pytest.mark.parametrize("family", BLOCK_FAMILIES)
def test_generating_function_matches_generic_normal_form(family):
    fm = _oracle_first_multiplier(family)
    for lam in SMALL:
        pi = _oracle_block(family, lam)
        assert generating_function(family, lam).gf == _oracle_gf(fm, pi)
        n = len(lam) + 1
        assert generating_function(family, lam, n=n).gf == _oracle_gf(_at(fm, n), _at(pi, n))


def _rows_mode_mismatches(family):
    """The (lam, n) where the rows-mode generating function differs from
    the gcd-based normal form of the prefactor and the row product built
    from row_m_values, or fails to build."""
    bad = []
    for lam in SMALL:
        for n in (max(len(lam), 1), len(lam) + 1, len(lam) + 3):
            expected = _oracle_gf(_at(_oracle_first_multiplier(family), n),
                                  _oracle_rows(family, lam, n))
            try:
                got = generating_function(family, lam, mode="rows", n=n).gf
            except (ArithmeticError, TypeError) as error:
                got = error
            if got != expected:
                bad.append((lam, n))
    return bad


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_rows_mode_generating_function_matches_generic_normal_form(family):
    assert _rows_mode_mismatches(family) == []


def test_rows_mode_comparison_catches_a_wrong_scale(monkeypatch):
    # b's row values keyed by n*m in place of 2n*m: at an even rank every
    # key is still an int but the function is wrong, and at an odd one
    # the zero index keys n*(n - 1/2), which is not
    real = casimir._row_values

    def halved(family, lam, n, scale):
        return real(family, lam, n, n if family == "b" and scale == 2 * n else scale)

    monkeypatch.setattr(casimir, "_row_values", halved)
    missed = _rows_mode_mismatches("b")
    assert {n % 2 for _, n in missed} == {0, 1}
    assert _rows_mode_mismatches("c") == []


def test_unit_first_multiplier_needs_no_normal_form(monkeypatch):
    calls = []

    def counted(inner):
        def wrapped(*args):
            calls.append(1)
            return inner(*args)
        return wrapped

    monkeypatch.setattr(exact_algebra, "poly_gcd", counted(exact_algebra.poly_gcd))
    monkeypatch.setattr(RatFunc, "__init__", counted(RatFunc.__init__))
    for family in ("u", "su"):
        fm = first_multiplier(family)
        assert fm.num == MultiPoly.const(1) and fm.den == MultiPoly.const(1)
    assert not calls


# -- coefficients read off the ladders ----------------------------------------


def _coefficient_cases():
    """(family, lam, mode, n) over the block families, symbolic and at
    ranks, and every family in rows mode, lam to weight 5 and n from
    max(len(lam), 1) to len(lam) + 2."""
    for lam in partitions_up_to_weight(5):
        ranks = range(max(len(lam), 1), len(lam) + 3)
        for family in BLOCK_FAMILIES:
            yield family, lam, "blocks", None
            for n in ranks:
                yield family, lam, "blocks", n
        for family in sorted(FAMILIES):
            for n in ranks:
                yield family, lam, "rows", n


def _coefficient_mismatches(max_order=5, coefficients=spectrum_coefficients):
    """The cases where coefficients, spectrum_coefficients or a planted
    defect in it, differs from the Taylor expansion of the generating
    function, at any order to max_order."""
    bad = []
    for family, lam, mode, n in _coefficient_cases():
        gf = generating_function(family, lam, mode=mode, n=n).gf
        expected = series_expand(gf, "z", max_order)
        for order in range(max_order + 1):
            got = coefficients(family, lam, order, mode=mode, n=n)
            if got != list(expected[:order + 1]):
                bad.append((family, lam, mode, n, order))
    return bad


def test_ladder_keys_are_canonical():
    # a Scalar is an int when integral, in every symbolic key the queries
    # build, and every key at an integer rank is a plain int
    def canonical(x):
        return type(x) is int or (type(x) is Fraction and x.denominator > 1)

    ladders = [casimir._first_multiplier(family) for family in FAMILIES]
    at_rank = []
    for family, lam, mode, n in _coefficient_cases():
        for ladder in casimir._ladders(family, lam, mode, n):
            (ladders if n is None else at_rank).append(ladder)
    assert [key for ladder in ladders for key in ladder
            if not all(map(canonical, key))] == []
    assert {family for family, _, _, n in _coefficient_cases() if n} == set(FAMILIES)
    assert [key for ladder in at_rank for key in ladder if type(key) is not int] == []


def test_coefficients_match_series_expansion():
    # series_expand divides the expanded generating function; the ladder
    # route multiplies out the two ladders' series and shares no step with it
    assert _coefficient_mismatches() == []


def _negated_b(key):
    """(a, -b, c) for a symbolic key; an integer-rank key K = 2n*m has no
    b of its own, so the whole value is negated."""
    if type(key) is int:
        return -key
    a, b, c = key
    return a, -b, c


def _patched(monkeypatch, name, value):
    """spectrum_coefficients with casimir.<name> replaced by value during
    the call only, so the generating function it is compared with, which
    runs on the same engine, stays exact."""
    def coefficients(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(casimir, name, value)
            return spectrum_coefficients(*args, **kwargs)
    return coefficients


@pytest.mark.parametrize("mutate", [
    lambda ladder: {k: (-e if i == 0 else e)
                    for i, (k, e) in enumerate(ladder.items())},
    lambda ladder: {_negated_b(k): e for k, e in ladder.items()},
], ids=["flipped-exponent", "negated-b"])
def test_coefficient_comparison_catches_a_wrong_ladder(monkeypatch, mutate):
    # the ladders reach _keyed by (a, b, c) at the symbolic rank and by an
    # int at an integer rank, and are mutated there, before they become
    # the int keys of _series; both kinds of case must miss
    real = casimir._keyed
    missed = _coefficient_mismatches(max_order=2, coefficients=_patched(
        monkeypatch, "_keyed",
        lambda n, *ladders, **kwargs: real(n, *map(mutate, ladders), **kwargs)))
    assert {n is None for _, _, _, n, _ in missed} == {True, False}


def test_symbolic_coefficients_match_series_expansion_at_large_widths():
    # order 8 to weight 8 takes the digit width W to about 60 bits,
    # where a bound too tight would carry one power of n into the next
    bad, widths = [], []
    for family in BLOCK_FAMILIES:
        for lam in partitions_up_to_weight(8):
            expected = series_expand(generating_function(family, lam).gf, "z", 8)
            if spectrum_coefficients(family, lam, 8) != list(expected):
                bad.append((family, lam))
            fm, pi = casimir._ladders(family, lam, "blocks", None)
            widths.append(casimir._keyed(None, fm, pi, order=8)[2])
    assert bad == []
    assert max(widths) > 48


@pytest.mark.parametrize("width", [2, 3, 8, 61])
def test_digits_are_balanced_and_read_back(width):
    half = 1 << (width - 1)
    assert casimir._digits(0, width) == []
    for x in {1, half - 1, half}:
        assert casimir._digits(x, width) == ([x] if x < half else [-half, 1])
        assert casimir._digits(-x, width) == [-x]
    # the value at n = 2**width of a polynomial with digits in range
    coeffs = [-half, half - 1, 0, 1 - half, 0, -1]
    value = sum(c << (width * i) for i, c in enumerate(coeffs))
    assert casimir._digits(value, width) == coeffs


def test_coefficient_comparison_catches_a_width_too_narrow(monkeypatch):
    assert _coefficient_mismatches(max_order=2, coefficients=_patched(
        monkeypatch, "_width", lambda *args: 3))


@pytest.mark.parametrize("args", [
    ("u", (1,), "columns", None),
    ("u", (1,), "rows", None),
    ("c", (2, 1), "blocks", 0),
    ("c", (2, 1), "rows", -1),
    ("d", (1, 1, 1), "blocks", 2),
    ("su", (2, 1, 1), "rows", 2),
    ("b", (1,), "blocks", None),
    ("b", (1,), "blocks", 3),
    ("e", (1,), "blocks", None),
    ("e", (1,), "rows", 2),
    ("u", (1, 2), "blocks", None),
])
def test_coefficients_reject_what_the_generating_function_rejects(args):
    family, lam, mode, n = args
    with pytest.raises(ValueError) as gf_error:
        generating_function(family, lam, mode=mode, n=n)
    with pytest.raises(ValueError) as coeffs_error:
        spectrum_coefficients(family, lam, 3, mode=mode, n=n)
    assert str(coeffs_error.value) == str(gf_error.value)


def test_negative_order_is_rejected():
    with pytest.raises(ValueError, match="series order must be nonnegative"):
        spectrum_coefficients("u", (1,), -1)
    with pytest.raises(ValueError, match="series order must be nonnegative"):
        spectrum_coefficients("b", (1,), -1, mode="rows", n=2)


# -- ladders: the rows-against-blocks comparison ------------------------------


def _values(ladder, n):
    """An integer-rank ladder keyed by the values m = K/(2n)."""
    return {Fraction(K, 2 * n): e for K, e in ladder.items()}


def test_ladder_comparison_agrees_with_expanded_route():
    # every rank check of verify_consistency(6), and each block ladder
    # against the rows of the next rank, a different function, compared
    # on the values since the two ranks key by different scales
    for family in BLOCK_FAMILIES:
        for lam in partitions_up_to_weight(6):
            ladder = casimir._block_factors(family, lam)
            blocks = block_product(family, lam)
            start = max(len(lam), 1)
            for n in range(start, start + 5):
                at_n = _values(casimir._at_rank(ladder, n), n)
                expanded = _at(blocks, n)
                for r in (n, n + 1):
                    same = at_n == _values(casimir._row_factors(family, lam, r), r)
                    assert same == ratfunc_equal(expanded, row_product(family, lam, r))
                    assert same == (r == n)


def test_rows_vs_blocks_reports_first_differing_value(monkeypatch):
    # the check keys both ladders by 2n*m, so the shift is scaled with them
    real = casimir._row_values

    def shifted(family, lam, n, scale):
        values = real(family, lam, n, scale)
        values[0] += scale
        return values

    monkeypatch.setattr(casimir, "_row_values", shifted)
    result = check_rows_vs_blocks("u", (2, 1), range(2, 5))
    # at n = 2 the values are 3, 1; the shift makes them 4, 1
    assert not result.holds
    assert result.notes == ("mismatch at n=[2, 3, 4]; at n=2, m=3 has "
                            "exponent -1 in blocks and 0 in rows")


# -- ladders: the rectangle checks --------------------------------------------


def _negated(ladder):
    """The ladder under n -> -n, z -> -z: 1 - z*m(a, b, c) becomes
    1 - z*m(a, -b, c)."""
    return {(a, -b, c): e for (a, b, c), e in ladder.items()}


def test_rectangle_checks_agree_with_expanded_route():
    sides = range(1, 5)
    for family in BLOCK_FAMILIES:
        for p in sides:
            for q in sides:
                closed = rectangle_product(family, p, q)
                blocks = block_product(family, rectangle(p, q))
                result = check_rectangle_closed_form(family, p, q)
                assert result.holds == ratfunc_equal(closed, blocks)
                assert (result.lhs, result.rhs) == (str(closed), str(blocks))
    for p in sides:
        for q in sides:
            lhs = block_product("su", rectangle(p, q))
            rhs = block_product("su", rectangle(q, p)).substitute(NEGATE)
            result = check_su_rectangle_invariance(p, q)
            assert result.holds == ratfunc_equal(lhs, rhs)
            assert (result.lhs, result.rhs) == (str(lhs), str(rhs))
            # a failing check renders its rhs from the negated ladder
            negated = _negated(casimir._block_factors("su", rectangle(q, p)))
            assert casimir._expand(negated) == rhs


def test_rectangle_ladder_verdicts_on_mismatched_inputs():
    # c against d, and (p, q) against (q, p): the map comparison decides as
    # the cross-multiplied expansions do, both ways
    outcomes = set()
    for p in range(1, 5):
        for q in range(1, 5):
            pairs = [(left, right, rectangle(p, q))
                     for left, right in (("c", "d"), ("d", "c"))]
            pairs += [(family, family, rectangle(q, p)) for family in ("c", "d")]
            for left, right, lam in pairs:
                same = (casimir._rectangle_factors(left, p, q)
                        == casimir._block_factors(right, lam))
                assert same == ratfunc_equal(rectangle_product(left, p, q),
                                             block_product(right, lam))
                outcomes.add(same)
    assert outcomes == {True, False}


def test_rectangle_checks_report_first_differing_value(monkeypatch):
    real = casimir._block_factors
    shifted_lam = rectangle(2, 3)

    def shifted(family, lam):
        # move the factor with the smallest b of the 2x3 rectangle to b + 1
        ladder = real(family, lam)
        if lam == shifted_lam:
            a, b, c = min(ladder, key=lambda k: k[1])
            casimir._mul(ladder, (a, b, c), -1)
            casimir._mul(ladder, (a, b + 1, c))
        return ladder

    monkeypatch.setattr(casimir, "_block_factors", shifted)
    # u: blocks 1 - z*m for m = n + 2, n - 3 and 1/(1 - z*(n - 1)); n - 3
    # becomes n - 2 in the rhs
    result = check_rectangle_closed_form("u", 2, 3)
    assert not result.holds and result.lhs != result.rhs
    assert result.notes == "m=n - 3 has exponent 1 in lhs and 0 in rhs"
    assert result.rhs == str(block_product("u", shifted_lam))
    # su: every value carries -6/n; the lhs is the shifted ladder
    result = check_su_rectangle_invariance(2, 3)
    assert not result.holds and result.lhs != result.rhs
    assert result.notes == ("m=(n^2 - 3*n - 6)/n has exponent 0 in lhs "
                            "and 1 in rhs")
    assert result.lhs == str(block_product("su", shifted_lam))
    assert result.rhs == str(block_product("su", rectangle(3, 2))
                             .substitute(NEGATE))


# -- the integer row ladder ---------------------------------------------------


def _fraction_row_values(family, lam, n):
    """m_i = l_i + alpha and, mirrored, -l_i + alpha, all in Fractions."""
    spec = FAMILIES[family]
    a1, a0 = spec.alpha
    c1, c0 = spec.shift
    alpha = a1 * n + a0
    trace = Fraction(weight(lam), n) if spec.traceless else Fraction(0)
    values = [alpha] if spec.has_zero_index else []
    for i in range(1, n + 1):
        l_i = Fraction(lam[i - 1] if i <= len(lam) else 0) - trace + c1 * n + c0 - i
        values.append(l_i + alpha)
        if spec.mirrored:
            values.append(-l_i + alpha)
    return values


def _six_ranks(lam):
    start = max(len(lam), 1)
    return range(start, start + 6)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_row_m_values_match_fraction_formula(family):
    for lam in partitions_up_to_weight(6):
        for n in _six_ranks(lam):
            assert row_m_values(family, lam, n) == _fraction_row_values(family, lam, n)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_row_m_values_are_int_when_integral(family):
    for lam in partitions_up_to_weight(6):
        for n in _six_ranks(lam):
            values = row_m_values(family, lam, n)
            if family == "b":
                # only the self-paired index 0 carries the half-integer alpha
                assert isinstance(values[0], Fraction) and values[0].denominator == 2
                values = values[1:]
            if family == "su" and weight(lam) % n:
                assert all(isinstance(m, Fraction) and m.denominator > 1
                           for m in values)
            else:
                assert all(type(m) is int for m in values)


# -- a differential test against sympy -------------------------------------------


def _sympy_poly(sympy, p):
    syms = [sympy.Symbol(s) for s in p.symbols]
    return sum((sympy.Rational(c)
                * sympy.Mul(*(x ** e for x, e in zip(syms, exps)))
                for exps, c in p.terms.items()), sympy.Integer(0))


def _sympy_ladder(sympy, ladder):
    """prod (1 - z*m)**e with m = a/n + b + c*n, for the ladder {(a, b, c): e}."""
    n, z = sympy.symbols("n z")
    return sympy.Mul(*(
        (1 - z * (sympy.Rational(a) / n + sympy.Rational(b) + c * n)) ** e
        for (a, b, c), e in ladder.items()))


@pytest.mark.parametrize("family", BLOCK_FAMILIES)
def test_generating_function_matches_sympy(family):
    # sympy's cancel of fm * (1 - pi) / z, built from the ladders, against
    # the gcd-free expansion; the latter must also be reduced by sympy's gcd
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    fm = _sympy_ladder(sympy, casimir._first_multiplier(family))
    for lam in partitions_up_to_weight(5):
        pi = _sympy_ladder(sympy, casimir._block_factors(family, lam))
        expected = sympy.cancel(fm * (1 - pi) / z)
        gf = generating_function(family, lam).gf
        num, den = _sympy_poly(sympy, gf.num), _sympy_poly(sympy, gf.den)
        assert sympy.cancel(num / den - expected) == 0, lam
        assert sympy.gcd(num, den).is_number, lam


# -- ladders: the expansion on flat int lists ----------------------------------

# keys the sweeps never make: a value a/n alone, whose factor n - a*z leads
# with n, and values with Fraction parts or no n term
PLANTED = (
    {(3, 0, 0): 1}, {(3, 0, 0): -1}, {(-3, 0, 0): 1}, {(-3, 0, 0): -2},
    {(3, 0, 0): 2, (-3, 0, 0): -1, (0, 1, 0): 1},
    {(0, Fraction(1, 2), Fraction(-2, 3)): 1, (0, Fraction(-5, 4), 0): -1},
    {(2, Fraction(3, 4), Fraction(1, 6)): -1, (-1, 2, 0): 2,
     (0, 0, Fraction(-7, 3)): 1},
    {(0, 4, 0): -1, (0, -4, 0): 1, (6, -2, 0): 1, (-6, 0, Fraction(1, 2)): -1},
)


def _oracle_ladder(ladder, n=None):
    """prod (1 - z*m)**e in RatFunc arithmetic, each product put in lowest
    terms by a gcd, with the rank set to the integer n when one is given."""
    out = ONE
    for (a, b, c), e in ladder.items():
        m = (RatFunc.const(a) / N + b + c * N if n is None
             else RatFunc.const(Fraction(a, n) + b + c * n))
        out = out * lin(m) ** e
    return out


def _denominator(ladder):
    """The least common denominator of the a, b and c of every key."""
    return math.lcm(*(x.denominator for key in ladder for x in key))


@lru_cache(maxsize=None)
def _expansion_cases():
    """(label, ladder, n, normal form): every block ladder to weight 6,
    every rectangle to 6x6 plain and mirrored, every first multiplier and
    the planted ladders, symbolically (n None), and at n = 1..6 through
    _at_rank for those whose keys are halves of ints, as _at_rank takes
    them."""
    ladders = [(f"planted {ladder}", ladder) for ladder in PLANTED]
    ladders += [(f"fm {family}", casimir._first_multiplier(family))
                for family in FAMILIES]
    for family in BLOCK_FAMILIES:
        ladders += [(f"{family} {lam}", casimir._block_factors(family, lam))
                    for lam in partitions_up_to_weight(6)]
    cases = [(label, ladder, None, _oracle_ladder(ladder))
             for label, ladder in ladders]
    cases += [(f"{label} at n={n}", casimir._at_rank(ladder, n), n,
               _oracle_ladder(ladder, n))
              for label, ladder in ladders for n in range(1, 7)
              if _denominator(ladder) <= 2]
    for family in BLOCK_FAMILIES:
        for p in range(1, 7):
            for q in range(1, 7):
                rect = casimir._rectangle_factors(family, p, q)
                for label, ladder in ((f"{family} {p}x{q}", rect),
                                      (f"{family} {p}x{q} mirrored",
                                       casimir._mirror(rect))):
                    cases.append((label, ladder, None, _oracle_ladder(ladder)))
    return tuple(cases)


def _expansion_mismatches():
    return [label for label, ladder, n, expected in _expansion_cases()
            if casimir._expand(ladder, n) != expected]


def test_expansion_matches_gcd_normal_form():
    assert _expansion_mismatches() == []


def test_expansion_comparison_catches_a_flipped_sign_rule(monkeypatch):
    # the den's sign taken from its top power of z even where a power of n
    # leads in grlex: the factor n - 3*z of the value 3/n comes out as
    # 3*z - n, a denominator with negative leading coefficient
    monkeypatch.setattr(casimir, "_grlex", lambda exps: exps[::-1])
    missed = _expansion_mismatches()
    assert "planted {(3, 0, 0): -1}" in missed
    assert "planted {(-3, 0, 0): 1}" not in missed


def test_expansion_comparison_catches_a_width_too_narrow(monkeypatch):
    # digits of 3 bits carry a coefficient of one power of n into the next
    monkeypatch.setattr(casimir, "_width", lambda *args: 3)
    missed = _expansion_mismatches()
    assert any(label.startswith("planted") for label in missed)
    assert any(label.startswith("c ") for label in missed)


# both sides of this pair's fm * (1 - pi) / z carry a factor n until the
# lowest common power of n is divided out: not canonical otherwise, as
# (2*n^3*z^2 + ... - 12*n*z)/(n^3*z^2 + 6*n^2*z + 9*n)
NOT_CANONICAL = ({(2, -2, 0): 1}, {(0, 0, Fraction(-1, 3)): -2})


def _random_key(rng):
    """A key with thirds and halves, canonical as the ladders keep them:
    an int where integral."""
    return tuple(exact_algebra._coeff(Fraction(rng.randint(-3, 3),
                                               rng.choice((1, 2, 3))))
                 for _ in range(3))


@lru_cache(maxsize=None)
def _gf_cases(count=120, seed=36):
    """(label, fm, pi): the counterexample above, each planted ladder as
    pi under two prefactors and as fm over the next one, and count random
    pairs, seeded, whose keys have thirds and exponents -2 to 2 and are
    drawn from a pool of four, so fm and pi share keys and cancel."""
    cases = [("not canonical", *NOT_CANONICAL)]
    for i, ladder in enumerate(PLANTED):
        cases += [(f"fm {family} over planted {i}",
                   casimir._first_multiplier(family), ladder)
                  for family in ("c", "su")]
        cases.append((f"planted {i} over {i - 1}", ladder, PLANTED[i - 1]))
    rng = random.Random(seed)
    for i in range(count):
        pool = [_random_key(rng) for _ in range(4)]
        fm, pi = ({}, {})
        for ladder, size in ((fm, rng.randint(1, 2)), (pi, rng.randint(1, 3))):
            for key in rng.sample(pool, size):
                casimir._mul(ladder, key, rng.choice((-2, -1, 1, 2)))
        cases.append((f"random {i}: {fm} {pi}", fm, pi))
    return tuple(cases)


def test_planted_generating_functions_match_gcd_normal_form():
    # fm * (1 - pi) / z from the ladders against RatFunc arithmetic with a
    # gcd, on ladders no family builds
    bad = [label for label, fm, pi in _gf_cases()
           if casimir._gf(fm, pi)
           != _oracle_ladder(fm) * (ONE - _oracle_ladder(pi)) / Z]
    assert bad == []


def _keyed_by_2n_m(factors, n):
    """prod (1 - z*m)**e over (m, e) in factors, keyed by 2n*m in Fractions
    with equal values merged and the value 0 dropped."""
    out = {}
    for m, e in factors:
        key = 2 * n * Fraction(m)
        out[key] = out.get(key, 0) + e
    return {key: e for key, e in out.items() if e and key}


def test_integer_rank_ladders_are_keyed_by_2n_times_m():
    # every ladder at an integer rank, rows, blocks and prefactor, is keyed
    # by the plain int 2n*m, for all five families: the rows over
    # row_m_values, the blocks and the prefactor at the value of each key
    def at(ladder, n):
        return _keyed_by_2n_m(((Fraction(a, n) + b + c * n, e)
                               for (a, b, c), e in ladder.items()), n)

    for family in sorted(FAMILIES):
        for lam in partitions_up_to_weight(6):
            start = max(len(lam), 1)
            for n in range(start, start + 5):
                ms = row_m_values(family, lam, n)
                rows = casimir._ladders(family, lam, "rows", n)
                assert rows[1] == _keyed_by_2n_m(
                    [(m + 1, 1) for m in ms] + [(m, -1) for m in ms], n)
                assert rows[0] == at(casimir._first_multiplier(family), n)
                ladders = [*rows]
                if family in BLOCK_FAMILIES:
                    blocks = casimir._ladders(family, lam, "blocks", n)
                    assert blocks[1] == at(casimir._block_factors(family, lam), n)
                    assert blocks[0] == rows[0]
                    ladders += blocks
                assert all(type(K) is int for ladder in ladders for K in ladder)


def test_rows_vs_blocks_renders_a_fractional_value(monkeypatch):
    # su at n = 2 has the values 3/2 and -1/2; shifting the first to 5/2
    # leaves 3/2 in the blocks alone
    real = casimir._row_values

    def shifted(family, lam, n, scale):
        values = real(family, lam, n, scale)
        values[0] += scale
        return values

    monkeypatch.setattr(casimir, "_row_values", shifted)
    result = check_rows_vs_blocks("su", (1,), range(2, 3))
    assert result.notes == ("mismatch at n=[2]; at n=2, m=3/2 has "
                            "exponent -1 in blocks and 0 in rows")

