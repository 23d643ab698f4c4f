"""Dimension polynomials, transposition duality, universal dimension formula."""

import random
from fractions import Fraction

import pytest

from negdim import casimir, cli, dims
from negdim.dims import (check_vogel_dims, check_vogel_invariance,
                         check_vogel_sp_so, dim_poly, king_check,
                         verify_fundamental_constants, vogel_classical,
                         vogel_dim, vogel_equiv, weyl_dim)
from negdim.exact_algebra import MultiPoly, RatFunc, ratfunc_equal
from negdim.partitions import partitions_up_to_weight, transpose, weight

N = RatFunc.symbol("N")
VN = RatFunc.symbol("n")


def test_weyl_adjoint_dimensions():
    for rank in range(2, 7):
        assert weyl_dim("c", (2,), rank) == rank * (2 * rank + 1)
        assert weyl_dim("d", (1, 1), rank) == rank * (2 * rank - 1)
        assert weyl_dim("a", (1,), rank) == rank


def test_weyl_full_column_doubling():
    # at full rank the two mirror-image weights are counted together,
    # which is what keeps dim a polynomial: N(2N-1) at N=2 gives 6
    assert weyl_dim("d", (1, 1), 2) == 6
    # three-row column at rank 3: the 20 of SO(6), i.e. 10 + 10'
    assert weyl_dim("d", (1, 1, 1), 3) == 20


def test_weyl_rank_guard():
    with pytest.raises(ValueError):
        weyl_dim("c", (1, 1, 1), 2)


def test_weyl_b_family_spot():
    assert weyl_dim("b", (1,), 2) == 5  # vector of SO(5)
    assert weyl_dim("b", (1, 1), 2) == 10  # adjoint of SO(5)


def test_dim_poly_frozen():
    assert str(dim_poly("c", (2,))) == "2*N^2 + N"
    assert str(dim_poly("d", (1, 1))) == "2*N^2 - N"
    half = RatFunc.const(Fraction(1, 2))
    assert ratfunc_equal(RatFunc(dim_poly("a", (1, 1))),
                         N * (N - 1) * half)


def test_dim_poly_empty():
    assert str(dim_poly("a", ())) == "1"


@pytest.mark.parametrize("lam", [(), (1,)])
def test_dim_poly_rejects_unknown_family(lam):
    # the empty diagram goes through the same Weyl check as any other
    with pytest.raises(ValueError, match="unknown family"):
        dim_poly("x", lam)


def test_wrong_sp_shift_fails_the_weyl_check(monkeypatch):
    real = dims._shift
    # the Sp box (2, 1) of (2, 1) gets the shift 1 instead of 0
    monkeypatch.setattr(dims, "_shift", lambda family, lam, conj, i, j: real(
        family, lam, conj, i, j) + (family == "c" and (i, j) == (2, 1)))
    with pytest.raises(ArithmeticError, match=r"\(c, 2,1\) fails at N=2"):
        dim_poly("c", (2, 1))
    assert str(dim_poly("d", (2, 1))) == "8/3*N^3 - 8/3*N"


def hook_content_dim(lam, n):
    """Independent oracle for the A family: prod (n + j - i) / hook(i, j)."""
    value = Fraction(1)
    cols = transpose(lam)
    for i, row in enumerate(lam):
        for j in range(row):
            arm = row - j - 1
            leg = cols[j] - i - 1
            value *= Fraction(n + j - i, arm + leg + 1)
    assert value.denominator == 1
    return int(value)


def test_dim_poly_matches_hook_content():
    rng = random.Random(20250819)
    pool = [lam for lam in partitions_up_to_weight(6) if lam]
    for lam in rng.sample(pool, 10):
        n = rng.randint(len(lam), len(lam) + 5)
        expected = hook_content_dim(lam, n)
        got = dim_poly("a", lam).eval_fractions({"N": Fraction(n)})
        assert got == expected
        assert weyl_dim("a", lam, n) == expected


def test_king_examples():
    assert king_check((2,)).holds
    assert king_check((1,)).holds
    assert king_check((3, 1)).holds


def lagrange(points):
    """The polynomial in N through integer points, exact."""
    total = MultiPoly.const(0)
    for xj, yj in points:
        basis = MultiPoly.const(yj)
        for xi, _ in points:
            if xi != xj:
                basis = basis * (MultiPoly.symbol("N") - xi) * Fraction(1, xj - xi)
        total = total + basis
    return total


def interpolated_dim(family, lam):
    start = len(lam)
    return lagrange([(n, weyl_dim(family, lam, n))
                     for n in range(start, start + weight(lam) + 1)])


def test_shift_maps_match_interpolation_and_substitution():
    # the route the shift maps replaced: interpolate the Weyl product and
    # substitute N -> -N into the orthogonal side of King's identity
    for lam in partitions_up_to_weight(6):
        for family in "abcd":
            assert str(dim_poly(family, lam)) == str(interpolated_dim(family, lam))
        lhs = RatFunc(interpolated_dim("c", lam))
        rhs = RatFunc(interpolated_dim("d", transpose(lam))).substitute({"N": -N})
        rhs = -rhs if weight(lam) % 2 else rhs
        result = king_check(lam)
        assert result.holds and lhs == rhs
        assert (result.lhs, result.rhs) == (str(lhs), str(rhs))


def _product_expansion(alpha, hooks, shifts):
    """The route _expand replaced: MultiPoly arithmetic, factor by factor."""
    out = MultiPoly.const(Fraction(1, hooks))
    for t, e in shifts.items():
        out = out * MultiPoly.linear(t, N=alpha) ** e
    return out


def test_dense_expansion_matches_the_multipoly_product():
    # every partition to weight 7 in all four families, and King's
    # mirrored orthogonal maps (negative shifts), against the product of
    # MultiPoly.linear(t, N=alpha) ** e; canonical coefficients either way
    for lam in partitions_up_to_weight(7):
        maps = [(2 - (family == "a"), *dims._shift_map(family, lam)) for family in "abcd"]
        hooks, o = dims._shift_map("d", transpose(lam))
        maps.append((2, hooks, {-t: e for t, e in o.items()}))
        for alpha, hooks, shifts in maps:
            got = dims._expand(alpha, hooks, shifts)
            want = _product_expansion(alpha, hooks, shifts)
            assert (got.symbols, got.terms) == (want.symbols, want.terms), (lam, shifts)
            assert all(type(c) is int or c.denominator > 1 for c in got.terms.values())


def test_king_names_first_differing_factor(monkeypatch):
    real = dims._shift_map

    def perturbed(family, lam):
        hooks, shifts = real(family, lam)
        if family == "c":  # the factor 2N + 1 becomes 2N + 3
            shifts = {**shifts, 1: shifts[1] - 1, 3: shifts.get(3, 0) + 1}
        return hooks, shifts

    monkeypatch.setattr(dims, "_shift_map", perturbed)
    result = king_check((2,))
    assert not result.holds
    assert result.notes == "factor 2*N + 1 has exponent 0 in lhs and 1 in rhs"
    assert (result.lhs, result.rhs) == ("2*N^2 + 3*N", "2*N^2 + N")


def test_vogel_classical_table():
    trip = vogel_classical("sp2n")
    assert [str(t) for t in trip] == ["-2", "1", "n + 2"]
    trip = vogel_classical("sln")
    assert [str(t) for t in trip] == ["-2", "2", "n"]
    trip = vogel_classical("son")
    assert [str(t) for t in trip] == ["-2", "4", "n - 4"]


def test_vogel_dimensions():
    assert ratfunc_equal(vogel_dim(vogel_classical("sp2n")), VN * (2 * VN + 1))
    assert ratfunc_equal(vogel_dim(vogel_classical("sln")), VN * VN - 1)
    half = RatFunc.const(Fraction(1, 2))
    assert ratfunc_equal(vogel_dim(vogel_classical("son")),
                         VN * (VN - 1) * half)
    assert all(c.holds for c in check_vogel_dims())


def test_vogel_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        vogel_dim((RatFunc.const(0), RatFunc.const(1), RatFunc.const(2)))


def _vogel_by_division(triple):
    # the formula in RatFunc arithmetic, reduced by gcd at every step
    a, b, c = (RatFunc.const(x) for x in triple)
    t = a + b + c
    return (a - 2 * t) * (b - 2 * t) * (c - 2 * t) / (a * b * c)


def test_vogel_factor_map_matches_division():
    # integer linear forms in n and va, some with a common monomial scale,
    # and a triple whose dimension is zero
    rng = random.Random(7)
    sym = {"n": VN, "va": RatFunc.symbol("va"), "vs": RatFunc.symbol("vs")}
    for _ in range(60):
        triple = []
        for _ in range(3):
            x = RatFunc.const(0)
            while not x:
                x = RatFunc.const(rng.randint(-3, 3))
                for name in rng.sample(["n", "va"], rng.randint(0, 2)):
                    x = x + rng.randint(-2, 2) * sym[name]
            triple.append(x)
        if rng.random() < 0.3:
            triple = [sym["vs"] * x for x in triple]
        assert vogel_dim(triple) == _vogel_by_division(triple), triple
    zero = (RatFunc.const(2), RatFunc.const(-2), RatFunc.const(1))  # a = 2t
    assert vogel_dim(zero) == _vogel_by_division(zero) == 0


def test_vogel_dim_refuses_what_is_not_a_product_of_linear_forms():
    with pytest.raises(ValueError, match="not a monomial times a linear form"):
        vogel_dim((VN * VN + 1, RatFunc.const(1), RatFunc.const(2)))
    with pytest.raises(ValueError, match="not a polynomial"):
        vogel_dim((1 / VN, RatFunc.const(1), RatFunc.const(2)))


def test_vogel_equiv_examples():
    a, b, c = vogel_classical("sp2n")
    scaled_swapped = (b * -2, a * -2, c * -2)
    assert vogel_equiv(scaled_swapped,
                       (RatFunc.const(-2), RatFunc.const(4), -2 * VN - 4))
    son_neg = tuple(t.substitute({"n": -2 * VN}) for t in vogel_classical("son"))
    assert vogel_equiv((RatFunc.const(-2), RatFunc.const(4), -2 * VN - 4),
                       son_neg)
    assert not vogel_equiv((RatFunc.const(1), RatFunc.const(2), RatFunc.const(3)),
                           (RatFunc.const(1), RatFunc.const(2), RatFunc.const(4)))


def test_vogel_scale_and_permutation_invariance():
    assert check_vogel_invariance().holds


def test_vogel_sp_so_composite():
    assert check_vogel_sp_so().holds


def test_fundamental_constants_cross_check():
    report = verify_fundamental_constants()
    assert report.all_ok and len(report.cases) == 3


# -- planted defects: every check group can fail ------------------------------


def _failures(report):
    return [(case.check_id, case.lhs, case.rhs) for case in report.cases
            if not case.holds]


def test_fundamental_constant_off_by_one_fails(monkeypatch):
    real = casimir.generating_function

    def off_by_one(family, lam, *args, **kwargs):
        result = real(family, lam, *args, **kwargs)
        return result._replace(gf=result.gf + 1) if (family, lam) == ("c", ()) else result

    monkeypatch.setattr(casimir, "generating_function", off_by_one)
    report = verify_fundamental_constants()
    assert _failures(report) == [("dims/fundamental/c", "2*n + 1", "2*n")]
    assert next(case for case in report.cases
                if not case.holds).notes == "integer-rank cross-check failed"
    assert len(report.cases) == 3


@pytest.fixture
def wrong_triple(monkeypatch):
    """Installs a classical triple whose last entry is one too large."""
    real = dims.vogel_classical

    def install(family):
        def wrong(f):
            a, b, c = real(f)
            return (a, b, c + 1) if f == family else (a, b, c)

        monkeypatch.setattr(dims, "vogel_classical", wrong)

    return install


def test_wrong_sln_triple_fails_its_dimension_row(wrong_triple, capsys):
    wrong_triple("sln")
    report = dims.verify_vogel()
    assert _failures(report) == [("dims/vogel-dim/sln", "n^2 + 2*n", "n^2 - 1")]
    assert len(report.cases) == 5
    assert cli.main(["dims", "vogel"]) == 1
    assert "dims/vogel-dim/sln" in capsys.readouterr().out


def test_wrong_sp_triple_fails_the_sp_so_row(wrong_triple):
    # the sp2n triple feeds its own dimension row and the sp/so comparison
    wrong_triple("sp2n")
    report = dims.verify_vogel()
    assert _failures(report) == [
        ("dims/vogel-dim/sp2n", "2*n^2 + 5*n + 3", "2*n^2 + n"),
        ("dims/vogel-sp-so", "(-2, 4, -2*n - 6)", "(-2, 4, -2*n - 4)")]


def test_order_dependent_dimension_fails_invariance(monkeypatch):
    # the factor map times the first entry over -2: right on the classical
    # triples, which all start with -2, and wrong once the triple is permuted
    real = dims._vogel_map

    def order_dependent(triple):
        scale, factors = real(triple)
        c, first = dims._factor_map(dims._poly(triple[0]))
        for f, e in first.items():
            factors[f] = factors.get(f, 0) + e
        return Fraction(scale) * c / -2, {f: e for f, e in factors.items() if e}

    monkeypatch.setattr(dims, "_vogel_map", order_dependent)
    report = dims.verify_vogel()
    assert [case.check_id for case in report.cases if not case.holds] == [
        "dims/vogel-invariance"]
