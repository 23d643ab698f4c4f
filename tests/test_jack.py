"""Jack eigenfunctions, the transpose duality and the projection diagram."""

import re
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

import pytest

from negdim import exact_algebra
from negdim import jack as jack_module
from negdim.exact_algebra import (MultiPoly, RatFunc, _dense_mul, _dense_product,
                                  _madd, _trim, ratfunc_equal)
from negdim.jack import (K, P0, JackFunction, MExpr, PExpr,
                         SingularCouplingError, _monomial_matrices,
                         _s_inverse, _s_matrix, check_conjugation,
                         check_diagram, check_p0_scalar, check_schur,
                         check_triangularity, degree_basis, jack,
                         kostka_number, macdonald_duality,
                         schur_m_expansion, verify_duality)
from negdim.partitions import (dominance_leq, partitions_of_weight,
                               partitions_up_to_weight, transpose, weight)

ONE = RatFunc.const(1)


def mexpr(*pairs):
    terms = {mu: RatFunc.const(c) for mu, c in pairs}
    return MExpr(weight(next(iter(terms))), terms)


def _entry(terms, p0=P0):
    """An operator entry's exponent map (i, j) -> c as sum c * k^i * p0^j."""
    return sum((c * K ** i * p0 ** j for (i, j), c in terms.items()), RatFunc.const(0))


def test_p0_dependence_is_scalar():
    for d in range(1, 5):
        assert check_p0_scalar(d).holds


def test_triangular_in_monomial_basis():
    for d in range(1, 6):
        assert check_triangularity(d).holds


@pytest.mark.parametrize("d", range(1, 8))
def test_s_matrix_is_triangular_and_inverted(d):
    # _s_inverse holds the integer matrix d! * S^-1
    s, sinv = _s_matrix(d), _s_inverse(d)
    size = len(s)
    for i, mu in enumerate(degree_basis(d)):
        assert s[i][i] == prod(factorial(mu.count(part)) for part in set(mu))
        assert not any(s[j][i] for j in range(i + 1, size))
        assert all(type(v) is int for v in sinv[i])
        for j in range(size):
            assert sum(sinv[i][t] * s[t][j] for t in range(size)) == factorial(d) * (i == j)


def _expand_powersum_product(mu, nvars):
    """The monomials of p_mu in nvars variables, by multiplying out."""
    acc = {(0,) * nvars: 1}
    for part in mu:
        nxt = {}
        for exps, c in acc.items():
            for i in range(nvars):
                bumped = exps[:i] + (exps[i] + part,) + exps[i + 1:]
                nxt[bumped] = nxt.get(bumped, 0) + c
        acc = nxt
    return acc


@pytest.mark.parametrize("d", range(1, 9))
def test_s_matrix_matches_expanded_power_sums(d):
    # in d variables the coefficient of m_nu in p_mu is that of the single
    # monomial whose exponents are nu itself
    basis = degree_basis(d)
    cols = [_expand_powersum_product(mu, d) for mu in basis]
    expected = tuple(tuple(col.get(nu + (0,) * (d - len(nu)), 0) for col in cols)
                     for nu in basis)
    assert _s_matrix(d) == expected


def _gauss_jordan_inverse(mat):
    size = len(mat)
    work = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(size)]
            for i, row in enumerate(mat)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if work[r][col])
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [v * inv for v in work[col]]
        for r in range(size):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return [row[size:] for row in work]


def _mat_mul(a, b):
    size = len(a)
    return [[sum((a[i][t] * b[t][j] for t in range(size) if a[i][t] and b[t][j]),
                 RatFunc.const(0)) for j in range(size)] for i in range(size)]


@lru_cache(maxsize=None)
def _pivoting_inverse(d):
    return _gauss_jordan_inverse(_s_matrix(d))


@lru_cache(maxsize=None)
def _conjugated_operator(d):
    """S . M_p . S^-1 in RatFunc arithmetic, M_p the count's entries
    rendered at p0 = 0 and S^-1 from a general pivoting inverse: the oracle
    for the pair formula, which reads neither the count nor S."""
    zero = RatFunc.const(0)
    m_p = [[_entry(terms, zero) for terms in row] for row in jack_module._entry_maps(d)]
    return _mat_mul(_mat_mul(_s_matrix(d), m_p), _pivoting_inverse(d))


def _pair_entry(d, i, j):
    m0, m1 = _monomial_matrices(d)
    return RatFunc.const(m0[i][j]) + m1[i][j] * K


@pytest.mark.parametrize("d", range(1, 9))
def test_monomial_matrix_matches_conjugated_power_sum_matrix(d):
    expected = _conjugated_operator(d)
    size = len(expected)
    for i in range(size):
        for j in range(size):
            assert _pair_entry(d, i, j) == expected[i][j], (i, j)


def test_pair_formula_reads_neither_the_count_nor_s(monkeypatch):
    # the two routes of the triangular row share no code: with the count
    # and both S matrices refusing, the pair builds from the partitions
    # alone (its cache starts cold; what it keeps is the real pair)
    def refuse(d):
        raise AssertionError("the pair formula read the count or S")

    for name in ("_s_matrix", "_s_inverse", "_operator_count"):
        monkeypatch.setattr(jack_module, name, refuse)
    _monomial_matrices.cache_clear()
    for d in range(1, 9):
        m0, m1 = _monomial_matrices(d)
        assert len(m0) == len(m1) == len(degree_basis(d))


@pytest.mark.parametrize("d", range(1, 9))
def test_monomial_matrix_entries_are_affine_in_k(d):
    # the pair holds ints, so every entry M0 + k*M1 is affine in k
    m0, m1 = _monomial_matrices(d)
    assert all(type(v) is int for mat in (m0, m1) for row in mat for v in row)


def _jack_by_substitution(lam, k):
    """Reference route for jack(): substitute the coupling into every entry
    of the monomial-basis matrix S . M_p . S^-1, solve in RatFunc
    arithmetic, and convert the monomial expansion with the pivoting S^-1."""
    kv = K if k is None else RatFunc.const(k)
    d = weight(lam)
    basis = degree_basis(d)
    mm = [[entry.substitute({"k": kv}) for entry in row]
          for row in _conjugated_operator(d)]
    top = basis.index(lam)
    coords = {top: ONE}
    for row in range(top + 1, len(basis)):
        s = RatFunc.const(0)
        for col, c in coords.items():
            s = s + mm[row][col] * c
        gap = mm[top][top] - mm[row][row]
        if gap.is_zero():
            if s or dominance_leq(basis[row], lam):
                raise SingularCouplingError(kv, lam, basis[row])
            continue
        if s.is_zero():
            continue
        coords[row] = s / gap
    m_exp = MExpr(d, {basis[i]: c for i, c in coords.items()})
    sinv, zero = _pivoting_inverse(d), RatFunc.const(0)
    p_exp = PExpr(d, {mu: sum((c * sinv[i][j] for j, c in coords.items()), zero)
                      for i, mu in enumerate(basis)})
    return m_exp, p_exp, mm[top][top] + kv * (-d) * P0


NUMBERS = [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
           Fraction(-7, 3), Fraction(11, 5)]


@pytest.mark.parametrize("k", [None, 1 / K, K + 1] + NUMBERS, ids=str)
def test_jack_matches_substitution_route(k):
    for lam in partitions_up_to_weight(6):
        if not lam:
            continue
        try:
            expected = _jack_by_substitution(lam, k)
        except SingularCouplingError as exc:
            with pytest.raises(SingularCouplingError) as err:
                jack(lam, k)
            assert (err.value.top, err.value.other) == (exc.top, exc.other)
            assert str(err.value) == str(exc)
            continue
        jf = jack(lam, k)
        assert (jf.m_expansion, jf.p_expansion, jf.eigenvalue) == expected


def _coordinates(jf):
    return list(jf.m_expansion.terms.values()) + list(jf.p_expansion.terms.values())


@pytest.mark.parametrize("k", NUMBERS, ids=str)
def test_numeric_coordinates_are_scalars(k):
    # at a number a coordinate is an int, or a Fraction whose denominator
    # is above 1, and never zero; the coupling and eigenvalue stay RatFuncs
    for lam in partitions_up_to_weight(6):
        try:
            jf = jack(lam, k)
        except SingularCouplingError:
            continue
        assert jf.m_expansion.terms[lam] == 1
        for c in _coordinates(jf):
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1), (lam, c)
            assert c != 0
        assert type(jf.coupling) is RatFunc and type(jf.eigenvalue) is RatFunc


@pytest.mark.parametrize("k", [None, 1 / K, K + 1], ids=str)
def test_symbolic_coordinates_are_ratfuncs(k):
    for lam in partitions_up_to_weight(6):
        assert all(type(c) is RatFunc for c in _coordinates(jack(lam, k)))


def test_expressions_keep_scalars_and_ratfuncs():
    # a Scalar stays a canonical Scalar, a RatFunc a RatFunc, a MultiPoly
    # becomes a RatFunc, and zeros are dropped
    x = MExpr(2, {(2,): Fraction(4, 2), (1, 1): Fraction(1, 3)})
    assert x.terms == {(2,): 2, (1, 1): Fraction(1, 3)} and type(x.terms[(2,)]) is int
    y = PExpr(2, {(2,): K, (1, 1): MultiPoly.symbol("k"), (1,) * 2: 0})
    assert all(type(c) is RatFunc for c in y.terms.values())
    assert PExpr(2, {(2,): 0, (1, 1): RatFunc.const(0)}).terms == {}
    assert str(MExpr(2, {(2,): 1, (1, 1): Fraction(-1, 2)})) == str(
        MExpr(2, {(2,): ONE, (1, 1): RatFunc.const(Fraction(-1, 2))}))


def test_jack_makes_no_substitution(monkeypatch):
    def refuse(self, bindings):
        raise AssertionError("jack() substituted into a rational function")

    _monomial_matrices.cache_clear()
    monkeypatch.setattr(RatFunc, "substitute", refuse)
    for k in (None, 1 / K, K + 1, -1):
        for lam in partitions_up_to_weight(5):
            jack(lam, k)


def test_jack_makes_no_gcd(monkeypatch):
    # trial division by the gaps reduces every coordinate; the couplings
    # and the matrices are built before counting
    couplings = (None, 1 / K, K + 1, K * K, (K + 1) / (2 * K - 3))
    for lam in partitions_up_to_weight(6):
        jack(lam)
    calls = []
    inner = exact_algebra.poly_gcd

    def counted(a, b):
        calls.append((a, b))
        return inner(a, b)

    monkeypatch.setattr(exact_algebra, "poly_gcd", counted)
    for k in couplings:
        for lam in partitions_up_to_weight(6):
            jack(lam, k)
    assert not calls


@pytest.mark.parametrize("k", [None, 1 / K, K + 1], ids=str)
def test_jack_coordinates_are_in_normal_form(k):
    # the generic normal form (a gcd) leaves every coordinate as it is;
    # (5, 2, 1) is the only partition to weight 8 where one gap cancels
    # twice from one numerator
    for lam in list(partitions_up_to_weight(6)) + [(5, 2, 1)]:
        jf = jack(lam, k)
        for c in list(jf.m_expansion.terms.values()) + list(jf.p_expansion.terms.values()):
            again = RatFunc(c.num, c.den)
            assert (again.num, again.den) == (c.num, c.den), lam


A = RatFunc.symbol("a")


@pytest.mark.parametrize("k", [K * K, K / 2, (K + 1) / (2 * K - 3),
                               (K * K - 2) / (K ** 3 + 3), 1 / P0], ids=str)
def test_jack_at_other_couplings_matches_substitution(k):
    # trial division by whole gaps reaches the normal form at any coupling
    # in one symbol: gaps of higher degree, and p0 in the coupling's
    # denominator (the eigenvalue's normal form)
    for lam in partitions_up_to_weight(4):
        jf, sym = jack(lam, k), jack(lam)
        for got, want in ((jf.m_expansion, sym.m_expansion),
                          (jf.p_expansion, sym.p_expansion)):
            assert got.terms == {mu: c.substitute({"k": k})
                                 for mu, c in want.terms.items()}
        assert jf.eigenvalue == sym.eigenvalue.substitute({"k": k})


def test_couplings_in_two_symbols_are_refused():
    for solve in (jack, macdonald_duality):
        with pytest.raises(ValueError, match=re.escape(f"k = {K + A} is in 2 symbols")):
            solve((2, 1), K + A)


ONE_SYMBOL = [None, 1 / K, K + 1, K * K, 1 / P0]


@pytest.mark.parametrize("k", ONE_SYMBOL, ids=str)
def test_dense_solve_matches_substitution(k):
    # a coupling in one symbol is solved on dense int lists; the
    # substitution route gives the same m- and p-coordinates
    for lam in partitions_up_to_weight(6):
        if not lam:
            continue
        jf = jack(lam, k)
        m_sub, p_sub, _ = _jack_by_substitution(lam, k)
        assert (jf.m_expansion, jf.p_expansion) == (m_sub, p_sub)


def test_every_coupling_takes_the_dense_solve(monkeypatch):
    def refuse(*args):
        raise AssertionError("jack() solved outside _solve_dense")

    monkeypatch.setattr(jack_module, "_solve_dense", refuse)
    for k in (None, 1 / K, 1 / P0, 0, Fraction(-1, 2)):
        with pytest.raises(AssertionError, match="outside _solve_dense"):
            jack((2, 1), k)


def test_dense_solve_raises_on_a_singular_coupling(monkeypatch):
    # with the diagonal of (1, 1) planted equal to that of (2), the gap
    # of the comparable pair vanishes at every coupling, symbols and
    # numbers alike; the shared solve raises, alone and through jack().
    # (4, 1, 1) and (3, 3), which share an eigenvalue but are
    # incomparable, stay harmless.
    real = jack_module._monomial_matrices

    def planted(d):
        pair = real(d)
        if d != 2:
            return pair
        m0, m1 = (list(map(list, m)) for m in pair)
        m0[1][1], m1[1][1] = m0[0][0], m1[0][0]
        return tuple(m0), tuple(m1)

    monkeypatch.setattr(jack_module, "_monomial_matrices", planted)
    for k in ONE_SYMBOL + [0, Fraction(-1, 2), 3]:
        kv = jack_module._as_value(k)
        _, u, w = jack_module._coupling_lists(kv)
        for solve in (lambda: jack((2,), k),
                      lambda: jack_module._solve_dense((2,), kv, u, w)):
            with pytest.raises(SingularCouplingError) as err:
                solve()
            assert (err.value.top, err.value.other) == ((2,), (1, 1))
        assert jack((4, 1, 1), k).m_expansion.terms.get((3, 3)) is None


def _arm_leg(lam):
    conj = transpose(lam)
    for i, row in enumerate(lam):
        for j in range(row):
            yield row - j - 1, conj[j] - i - 1


@pytest.mark.parametrize("w", range(1, 11))
def test_single_column_coefficient_closed_form(w):
    # the m_{1^n} coefficient of jack(lam) at symbolic k is
    # n! prod_s k / (k*(l(s) + 1) - a(s)) over the boxes s of lam
    for lam in partitions_of_weight(w):
        expected = RatFunc.const(factorial(w))
        for arm, leg in _arm_leg(lam):
            expected = expected * K / (K * (leg + 1) - arm)
        got = jack(lam).m_expansion.terms[(1,) * w]
        assert ratfunc_equal(got, expected), lam


def test_jack_single_box():
    assert jack((1,)).m_expansion == mexpr(((1,), 1))


def test_jack_column_is_single_monomial():
    assert jack((1, 1)).m_expansion == mexpr(((1, 1), 1))
    assert jack((1, 1, 1), Fraction(5, 2)).m_expansion == mexpr(((1, 1, 1), 1))


def test_jack_row_at_schur_point():
    assert jack((2,), -1).m_expansion == mexpr(((2,), 1), ((1, 1), 1))


def test_jack_symbolic_row():
    jf = jack((2,))
    coeff = jf.m_expansion.terms[(1, 1)]
    assert ratfunc_equal(coeff, 2 * K / (K - 1))


def test_eigenvalue_formula():
    # e = sum(lam_i^2) + 2k*n(lam) + k|lam| - k|lam|*p0
    jf = jack((2, 1))
    expected = RatFunc.const(5) + 2 * K + 3 * K - 3 * K * P0
    assert ratfunc_equal(jf.eigenvalue, expected)


def test_singular_coupling_reported():
    # e_(2) - e_(1,1) = 2 - 2k vanishes at k = 1
    with pytest.raises(SingularCouplingError) as err:
        jack((2,), 1)
    assert "k = 1" in str(err.value)


@pytest.mark.parametrize("lam, k, other", [
    ((5,), Fraction(3, 2), (2, 1, 1, 1)),
    ((6, 1), Fraction(3, 2), (2, 2, 2, 1)),
    ((5, 1, 1), Fraction(3, 2), (3, 2, 1, 1)),
    ((4, 1, 1), Fraction(1, 2), (1, 1, 1, 1, 1, 1)),
], ids=str)
def test_vanishing_gap_below_lam_is_singular_even_with_zero_sum(lam, k, other):
    # the row's sum is zero too, so its coordinate is 0/0: the symbolic
    # coefficient need not vanish at k, and the solve must not drop it
    symbolic = jack(lam).m_expansion.terms[other]
    assert symbolic.substitute({"k": RatFunc.const(k)})
    with pytest.raises(SingularCouplingError) as err:
        jack(lam, k)
    assert (err.value.top, err.value.other) == (lam, other)


def test_incomparable_degeneracy_is_harmless():
    # (4,1,1) and (3,3) share an eigenvalue but neither dominates the other
    a = jack((4, 1, 1))
    b = jack((3, 3))
    assert ratfunc_equal(a.eigenvalue, b.eigenvalue)
    assert a.m_expansion.terms[(4, 1, 1)] == ONE
    assert b.m_expansion.terms[(3, 3)] == ONE


def test_conjugation_low_degrees():
    for d in range(1, 5):
        assert check_conjugation(d).holds


def test_conjugation_sides_match_substitution_route():
    # the route the entry maps replaced: multiply by a power of K and
    # substitute k -> 1/k, p0 -> k*p0 into every entry, with gcd reduction
    for d in range(1, 6):
        basis = degree_basis(d)
        maps = jack_module._entry_maps(d)
        sides = list(jack_module._conjugation_sides(d))
        assert len(sides) == len(basis) ** 2
        for nu, mu, lhs, rhs in sides:
            lhs, rhs = jack_module._laurent(lhs), jack_module._laurent(rhs)
            entry = _entry(maps[basis.index(nu)][basis.index(mu)])
            assert lhs == entry * K ** (len(mu) - len(nu))
            assert rhs == K * entry.substitute({"k": 1 / K, "p0": K * P0})
            assert ratfunc_equal(lhs, rhs)


def _with_entry(monkeypatch, d, row, col, change):
    # the exponent map of one entry, read off the count, is changed
    real = jack_module._entry_maps

    def broken(degree):
        maps = real(degree)
        if degree == d:
            maps[row][col] = change(maps[row][col])
        return maps

    monkeypatch.setattr(jack_module, "_entry_maps", broken)


def test_conjugation_names_entry_with_flipped_sign(monkeypatch):
    # L[(2)][(2)] = 4 + 4*k - 2*k*p0; its constant term flips sign
    _with_entry(monkeypatch, 2, 0, 0, lambda m: {**m, (0, 0): m[(0, 0)] - 8})
    assert check_conjugation(1).holds
    result = check_conjugation(2)
    assert not result.holds
    assert result.notes == ("entry (2, 2): -2*k*p0 + 4*k - 4 != "
                            "-2*k*p0 - 4*k + 4")


def test_conjugation_clears_negative_powers_of_k(monkeypatch):
    # a k^2 term sends k^2 to k^-1 on the rhs, rendered over k as the
    # substitution route renders it
    _with_entry(monkeypatch, 2, 0, 0, lambda m: {**m, (2, 0): 1})
    entry = _entry(jack_module._entry_maps(2)[0][0])
    rhs = K * entry.substitute({"k": 1 / K, "p0": K * P0})
    result = check_conjugation(2)
    assert not result.holds and rhs.den == K.num
    assert result.notes == f"entry (2, 2): {entry} != {rhs}"


def test_p0_scalar_fails_off_the_diagonal(monkeypatch):
    _with_entry(monkeypatch, 3, 0, 1, lambda m: {**m, (1, 1): 1})
    assert check_p0_scalar(2).holds
    assert not check_p0_scalar(3).holds


def _derivative(f, a):
    """D_a f = a * df/dp_a for a polynomial f in p1, p2, ..."""
    name = f"p{a}"
    if name not in f.symbols:
        return MultiPoly.const(0)
    i = f.symbols.index(name)
    return MultiPoly(f.symbols, {e[:i] + (e[i] - 1,) + e[i + 1:]: a * e[i] * c
                                 for e, c in f.terms.items() if e[i]})


def _by_partition(f):
    """A polynomial in p1, p2, ... as the map partition -> coefficient."""
    out = {}
    for e, c in f.terms.items():
        parts = [int(s[1:]) for s, m in zip(f.symbols, e) for _ in range(m)]
        out[tuple(sorted(parts, reverse=True))] = c
    return out


@pytest.mark.parametrize("d", range(1, 8))
def test_operator_count_matches_the_differential_operator(d):
    # the oracle applies the four terms of L literally to p_mu, with
    # D_a = a*d/dp_a on polynomials in p1..pd: L0 is the fusing term plus
    # sum a*p_a*D_a, L1 the splitting term plus the same, L2 -sum p_a*D_a
    p = {a: MultiPoly.symbol(f"p{a}") for a in range(1, d + 1)}
    zero = MultiPoly.const(0)
    basis = degree_basis(d)
    count = jack_module._operator_count(d)
    for j, mu in enumerate(basis):
        f = prod((p[part] for part in mu), start=MultiPoly.const(1))
        fuse = sum((p[a + b] * _derivative(_derivative(f, a), b)
                    for a in p for b in p if a + b <= d), zero)
        split = sum((p[a] * p[b] * _derivative(f, a + b)
                     for a in p for b in p if a + b <= d), zero)
        degree = sum((p[a] * _derivative(f, a) for a in p), zero)
        euler = sum((p[a] * _derivative(f, a) * a for a in p), zero)
        for mat, image in zip(count, (fuse + euler, euler - split, -degree)):
            column = {nu: mat[i][j] for i, nu in enumerate(basis) if mat[i][j]}
            assert column == _by_partition(image), mu


@pytest.fixture
def miscount(monkeypatch):
    """Installs a count with one entry moved by delta."""
    real = jack_module._operator_count

    def install(d, which, row, col, delta):
        def broken(degree):
            count = real(degree)
            if degree != d:
                return count
            mats = [list(map(list, mat)) for mat in count]
            mats[which][row][col] += delta
            return tuple(tuple(map(tuple, mat)) for mat in mats)

        monkeypatch.setattr(jack_module, "_operator_count", broken)

    return install


def test_diagram_and_triangular_row_guard_the_count(miscount):
    # one fusing count of degree 3 off by one, p_(2,1) -> p_(3) (4 -> 5):
    # the diagram reports it, and so does the triangular row, which holds
    # the count against the pair formula through S; jack() solves with the
    # formula, so the Schur rows still hold
    miscount(3, 0, 0, 1, 1)
    assert not jack_module.verify_diagram(3, 2).all_ok
    assert _failures(jack_module.verify_structure(4)) == [(
        "jack/triangular/d=3", "support of the monomial-basis matrix",
        "dominance-lower triangle", "S.L0 != M0.S in column 2,1")]
    assert jack_module.verify_schur(3).all_ok


def test_triangular_row_catches_a_miscounted_split(miscount):
    # the split count of p_(3) -> p_(2,1) off by one (-6 -> -7)
    miscount(3, 1, 1, 0, -1)
    assert _failures(jack_module.verify_structure(4)) == [(
        "jack/triangular/d=3", "support of the monomial-basis matrix",
        "dominance-lower triangle", "S.L1 != M1.S in column 3")]


def test_diagram_names_the_first_differing_monomial(miscount):
    # the fusing count of p_(1,1) -> p_(2) (2 -> 3) adds p_2(z) to the
    # constant term in k of the down side
    miscount(2, 0, 0, 1, 1)
    report = jack_module.verify_diagram(2, 2)
    failed = [case for case in report.cases if not case.holds]
    assert [case.check_id for case in failed] == ["jack/diagram/1,1/N=1",
                                                  "jack/diagram/1,1/N=2"]
    assert [case.notes for case in failed] == [
        "z1^2 has coefficient 5 in lhs and 4 in rhs"] * 2
    assert not any(case.notes for case in report.cases if case.holds)


def test_operator_checks_build_no_normal_form(monkeypatch):
    # structure and conjugation compare the count's maps and build no
    # RatFunc; the diagram compares integer polynomials and renders each
    # side over 1, so it takes no gcd and no exact division; caches cold
    for cached in (_s_matrix, _s_inverse, _monomial_matrices,
                   jack_module._operator_count, jack_module._p_of_z):
        cached.cache_clear()
    made = {"RatFunc": 0, "poly_gcd": 0, "poly_exact_div": 0}

    def counted(key, inner):
        def wrapped(*args, **kwargs):
            made[key] += 1
            return inner(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(RatFunc, "__init__", counted("RatFunc", RatFunc.__init__))
    for name in ("poly_gcd", "poly_exact_div"):
        monkeypatch.setattr(exact_algebra, name,
                            counted(name, getattr(exact_algebra, name)))
    assert jack_module.verify_structure(6).all_ok
    assert jack_module.verify_conjugation(6).all_ok
    assert made == {"RatFunc": 0, "poly_gcd": 0, "poly_exact_div": 0}
    assert jack_module.verify_diagram(5, 4).all_ok
    assert made["poly_gcd"] == made["poly_exact_div"] == 0


def test_macdonald_coefficient_single_box():
    assert ratfunc_equal(macdonald_duality((1,)), 1 / K)


def test_macdonald_at_schur_point():
    c = macdonald_duality((2,), -1)
    assert not c.is_zero()
    # at k = -1 the rescaling multiplies p_mu by (-1)^len(mu); compare by hand
    s2 = jack((2,), -1).p_expansion
    lhs = {mu: v * (-1) ** len(mu) for mu, v in s2.terms.items()}
    s11 = jack((1, 1), -1).p_expansion
    assert lhs.keys() == s11.terms.keys()
    for mu, v in s11.terms.items():
        assert ratfunc_equal(lhs[mu], c * v)


def test_macdonald_symbolic_weight_four():
    for lam in partitions_of_weight(4):
        c = macdonald_duality(lam)
        assert not c.is_zero()


@pytest.mark.parametrize("w", range(1, 8))
def test_macdonald_scalar_matches_division_route(w):
    # the closed-form c against P(lam, k)[mu] * k^-len(mu) / P(lam', 1/k)[mu],
    # the proportionality scalar read off each coordinate by division
    for lam in partitions_of_weight(w):
        c = macdonald_duality(lam)
        lhs = jack(lam).p_expansion.terms
        rhs = jack(transpose(lam), 1 / K).p_expansion.terms
        assert lhs.keys() == rhs.keys()
        for mu, v in lhs.items():
            assert ratfunc_equal(c, v * K ** -len(mu) / rhs[mu]), (lam, mu)


def test_macdonald_duality_makes_no_gcd(monkeypatch):
    # c comes from its linear factors and the check cross-multiplies, so
    # beyond its two jack() calls the duality builds no normal form; the
    # matrices are built before counting
    lams = [lam for lam in partitions_up_to_weight(6) if lam]
    inverse = 1 / K
    for lam in lams:
        jack(lam)
    made = {"poly_gcd": 0, "RatFunc": 0}

    def counted(key, inner):
        def wrapped(*args, **kwargs):
            made[key] += 1
            return inner(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(exact_algebra, "poly_gcd",
                        counted("poly_gcd", exact_algebra.poly_gcd))
    monkeypatch.setattr(RatFunc, "__init__", counted("RatFunc", RatFunc.__init__))
    for lam in lams:
        jack(lam), jack(transpose(lam), inverse)
    by_jack = dict(made)
    for lam in lams:
        macdonald_duality(lam)
    assert made == {key: 2 * v for key, v in by_jack.items()}
    assert made["poly_gcd"] == 0


def test_duality_catches_a_common_normalisation_error(monkeypatch):
    # P(lam, k) * (1 + k) and P(lam', 1/k) * (1 + 1/k) stay proportional,
    # with c * k in place of c; checking against the closed form sees it.
    # On the lists of the solve 1 + k is [1, 1], and 1 + 1/k is [1, 1]
    # over one more factor k, the tuple (0, 1)
    inner = jack_module._p_solution

    def scaled(lam, kv, u, w):
        nums, den, div = inner(lam, kv, u, w)
        if kv != K:
            den = {**den, (0, 1): den.get((0, 1), 0) + 1}
        return [_dense_mul(c, [1, 1]) for c in nums], den, div

    monkeypatch.setattr(jack_module, "_p_solution", scaled)
    report = verify_duality(4)
    assert len(report.cases) == 11
    assert not any(case.holds for case in report.cases)


def test_duality_names_the_first_mismatching_term(monkeypatch):
    # one is added to two p-coordinates of P((3, 1), k): div times the
    # product of the gaps over the same denominator
    inner = jack_module._p_solution

    def perturbed(lam, kv, u, w):
        nums, den, div = inner(lam, kv, u, w)
        if (lam, kv) == ((3, 1), K):
            one = [div * x for x in _dense_product(den)]
            for mu in ((1, 1, 1, 1), (2, 1, 1)):  # p[2,1,1] comes first
                i = degree_basis(4).index(mu)
                nums[i] = list(nums[i])
                _madd(nums[i], [1], one)
                _trim(nums[i])
        return nums, den, div

    monkeypatch.setattr(jack_module, "_p_solution", perturbed)
    report = verify_duality(4)
    failed = [case for case in report.cases if not case.holds]
    assert [case.check_id for case in failed] == ["jack/macdonald/3,1"]
    assert "duality fails for 3,1" in failed[0].notes
    assert "mismatch is p[2,1,1]" in failed[0].notes


def test_duality_catches_a_sign_flipped_scalar(monkeypatch):
    inner = jack_module._duality_factors
    monkeypatch.setattr(jack_module, "_duality_factors",
                        lambda lam: (lambda scale, factors: (-scale, factors))(*inner(lam)))
    report = verify_duality(4)
    assert len(report.cases) == 11
    assert not any(case.holds for case in report.cases)


def test_duality_needs_the_swapped_pair_at_the_inverse_coupling(monkeypatch):
    # at 1/k the entry a + b*k of the solve is the pair [b, a]; left as
    # [a, b], every row fails but those of one-row diagrams, whose
    # transpose is a column with the same eigenfunction at every coupling
    monkeypatch.setattr(jack_module, "_AT_INVERSE", (1 / K, [0, 1], [1]))
    report = verify_duality(4)
    assert [case.check_id for case in report.cases if case.holds] == [
        f"jack/macdonald/{w}" for w in range(1, 5)]


def test_symbolic_duality_matches_the_eigenfunction_route():
    # the lists route against the two JackFunctions, with c substituted,
    # that macdonald_duality takes at any other coupling
    for lam in partitions_up_to_weight(5):
        if lam:
            assert macdonald_duality(lam, K) == macdonald_duality(lam)


def test_numeric_duality_matches_the_symbolic_scalar():
    # at a number the Scalar coordinates take the cross-multiplied path with
    # c substituted; it is the symbolic c at that number wherever both
    # solves are regular
    for lam in partitions_up_to_weight(5):
        if not lam:
            continue
        c = macdonald_duality(lam)
        for x in (Fraction(-1, 2), 2, Fraction(5, 3), -3):
            try:
                got = macdonald_duality(lam, x)
            except SingularCouplingError:
                continue
            assert got == c.substitute({"k": RatFunc.const(x)}), (lam, x)


@pytest.mark.parametrize("lam, k, plant, message", [
    ((3, 1), Fraction(-1, 2), "sign",
     "duality fails for 3,1: the first mismatch is p[4], with -4/9 in "
     "P(lambda, k) and 1/7 in P(lambda', 1/k), against c = -56/9"),
    ((2,), Fraction(1, 3), "sign",
     "duality fails for 2: the first mismatch is p[2], with 3/2 in "
     "P(lambda, k) and -1/2 in P(lambda', 1/k), against c = 9"),
    ((3, 1), Fraction(3, 2), "drop",
     "duality fails for 3,1: the first mismatch is p[2,1,1], with 0 in "
     "P(lambda, k) and -3/2 in P(lambda', 1/k), against c = 8/3"),
], ids=["sign-3,1", "sign-2", "drop-3,1"])
def test_numeric_duality_names_the_mismatch(monkeypatch, lam, k, plant, message):
    # planted defects at a number: c with its sign flipped, or one
    # p-coordinate of P(lam, k) dropped to zero; the message renders each
    # Scalar coordinate as its RatFunc constant
    if plant == "sign":
        inner = jack_module._duality_factors
        monkeypatch.setattr(jack_module, "_duality_factors",
                            lambda mu: (lambda scale, factors: (-scale, factors))(*inner(mu)))
    else:
        real = jack_module.jack

        def dropped(mu, coupling=None):
            jf = real(mu, coupling)
            if mu == lam:
                terms = {nu: c for nu, c in jf.p_expansion.terms.items() if nu != (2, 1, 1)}
                jf = jf._replace(p_expansion=PExpr(weight(mu), terms))
            return jf

        monkeypatch.setattr(jack_module, "jack", dropped)
    with pytest.raises(ArithmeticError) as err:
        macdonald_duality(lam, k)
    assert str(err.value) == message


def test_schur_oracle_basics():
    assert kostka_number((2, 1), (1, 1, 1)) == 2
    assert kostka_number((2, 1), (2, 1)) == 1
    assert kostka_number((2, 1), (3,)) == 0
    assert schur_m_expansion((2, 1)) == mexpr(((2, 1), 1), ((1, 1, 1), 2))


def test_schur_specialization_sweep():
    for lam in partitions_up_to_weight(5):
        if lam:
            assert check_schur(lam).holds


def _failures(report):
    return [(case.check_id, case.lhs, case.rhs, case.notes)
            for case in report.cases if not case.holds]


def test_triangularity_names_an_entry_above_dominance(monkeypatch):
    # k at ((3), (2,1)) sends m_(2,1) up to m_(3); the matrices are wrapped,
    # so their cache stays clean, and jack() never reads above the diagonal
    real = jack_module._monomial_matrices

    def broken(d):
        m0, m1 = real(d)
        if d == 3:
            m1 = tuple(tuple(v + ((i, j) == (0, 1)) for j, v in enumerate(row))
                       for i, row in enumerate(m1))
        return m0, m1

    monkeypatch.setattr(jack_module, "_monomial_matrices", broken)
    report = jack_module.verify_structure(4)
    assert len(report.cases) == 8
    assert _failures(report) == [(
        "jack/triangular/d=3", "support of the monomial-basis matrix",
        "dominance-lower triangle", "entry (3, 2,1) = k")]
    assert jack_module.verify_schur(4).all_ok


def _planted_m1(monkeypatch, entry):
    """Wraps the pair so that M1[nu][mu] = v becomes entry(d, nu, mu, v);
    the cache stays clean."""
    real = jack_module._monomial_matrices

    def broken(d):
        m0, m1 = real(d)
        basis = degree_basis(d)
        return m0, tuple(tuple(entry(d, nu, mu, v) for mu, v in zip(basis, row))
                         for nu, row in zip(basis, m1))

    monkeypatch.setattr(jack_module, "_monomial_matrices", broken)


def _n(nu):
    return sum(i * part for i, part in enumerate(nu))


@pytest.mark.parametrize("entry", [
    # (a - b) in place of 2*(a - b): every entry off the diagonal halves
    lambda d, nu, mu, v: v if nu == mu else v // 2,
    # the b = 0 moves dropped: they alone take a part from nu
    lambda d, nu, mu, v: 0 if len(mu) < len(nu) else v,
    # n(nu') in place of n(nu) on the diagonal
    lambda d, nu, mu, v: d + 2 * _n(transpose(nu)) if nu == mu else v,
], ids=["a-b", "no-b=0", "transposed-n"])
def test_triangular_row_catches_a_wrong_pair_formula(monkeypatch, entry):
    # each defect keeps the support in the triangle; the count through S
    # shows it from degree 2 on, at the first column
    _planted_m1(monkeypatch, entry)
    assert _failures(jack_module.verify_structure(4)) == [
        (f"jack/triangular/d={d}", "support of the monomial-basis matrix",
         "dominance-lower triangle", f"S.L1 != M1.S in column {d}")
        for d in (2, 3, 4)]


def test_triangularity_names_an_incomparable_entry_below_the_diagonal(monkeypatch):
    # k at ((2,2,2), (3,1,1,1)): the first degree with two incomparable
    # partitions is 6, and this entry lies below the diagonal, where the
    # solve reads; the support witness comes first
    _planted_m1(monkeypatch, lambda d, nu, mu, v: v + (
        (nu, mu) == ((2, 2, 2), (3, 1, 1, 1))))
    assert _failures(jack_module.verify_structure(6)) == [(
        "jack/triangular/d=6", "support of the monomial-basis matrix",
        "dominance-lower triangle", "entry (2,2,2, 3,1,1,1) = k")]


def test_schur_row_shows_a_miscounted_kostka_number(monkeypatch):
    # K((2,1), (1,1,1)) = 2 counted as 3: only the (2,1) row fails
    real = jack_module.kostka_number
    monkeypatch.setattr(jack_module, "kostka_number", lambda lam, mu: real(
        lam, mu) + ((lam, mu) == ((2, 1), (1, 1, 1))))
    report = jack_module.verify_schur(4)
    assert len(report.cases) == 11
    assert _failures(report) == [("jack/schur/2,1", "m[2,1] + (2)*m[1,1,1]",
                                  "m[2,1] + (3)*m[1,1,1]", "")]


# -- the finite-variable oracle ------------------------------------------------
#
# check_diagram counts the projection square on the operator; these two
# build its sides the long way, as RatFuncs in z_1..z_n, for the tests.


def phi_N(x, n):
    """Substitute each p_l by the n-variable power sum z_1^l + ... + z_n^l."""
    if n < 1:
        raise ValueError("need at least one variable")
    return sum((coeff * jack_module._p_of_z(mu, n) for mu, coeff in x.terms.items()),
               RatFunc.const(0))


def apply_L_N(f, k=None, n=1):
    """Finite-variable operator in exponential coordinates.

    The input must be polynomial in the z variables (denominator free of
    them); the pairwise term divides by z_i - z_j exactly, and a division
    failure signals a non-symmetric input.  With k = u/w the image is
    (w*E - u*P) / (w * f.den), reduced once.
    """
    kv = jack_module._as_value(k)
    if any(s in f.den.symbols for s in jack_module._zvars(n)):
        raise ValueError("coefficients must be polynomial in the z variables")
    euler, pairs = jack_module._euler_and_pairs(f.num, n)
    return RatFunc(euler * kv.den - pairs * kv.num, f.den * kv.den)


def test_phi_examples():
    z1 = RatFunc.symbol("z1")
    z2 = RatFunc.symbol("z2")
    assert ratfunc_equal(phi_N(PExpr(1, {(1,): ONE}), 2), z1 + z2)
    sq = PExpr(2, {(1, 1): ONE})
    assert ratfunc_equal(phi_N(sq, 2), (z1 + z2) * (z1 + z2))
    assert ratfunc_equal(phi_N(PExpr(3, {(3,): ONE}), 1), z1 ** 3)


def test_apply_L_N_fundamental():
    z1 = RatFunc.symbol("z1")
    z2 = RatFunc.symbol("z2")
    image = apply_L_N(z1 + z2, n=2)
    assert ratfunc_equal(image, (ONE - K) * (z1 + z2))


def test_apply_L_N_kills_constants():
    assert apply_L_N(RatFunc.const(5), n=3).is_zero()


def test_apply_L_N_rejects_nonsymmetric():
    z1 = RatFunc.symbol("z1")
    z2 = RatFunc.symbol("z2")
    with pytest.raises(ArithmeticError):
        apply_L_N(z1 * z1 + z2, n=2)


def test_apply_L_N_divides_nonsymmetric_input_when_it_can():
    # z1^3 + 3*z1*z2^2 is not symmetric, but its pairwise numerator
    # 3*z1^3 - 3*z1*z2^2 = 3*z1*(z1 - z2)*(z1 + z2) divides exactly, so the
    # image is E - k*3*z1*(z1 + z2)^2 with E = 9*z1^3 + 15*z1*z2^2
    z1, z2 = RatFunc.symbol("z1"), RatFunc.symbol("z2")
    image = apply_L_N(z1 ** 3 + 3 * z1 * z2 ** 2, n=2)
    assert image == 9 * z1 ** 3 + 15 * z1 * z2 ** 2 - K * 3 * z1 * (z1 + z2) ** 2
    # and with a coefficient in k, over a denominator, against poly_exact_div
    z = MultiPoly.symbol
    num = (z("z1") ** 3 + z("z1") * z("z2") ** 2 * 3) * (z("k") + 2) + z("z1") * z("z2")
    pair = MultiPoly(num.symbols, {e: c * (e[1] - e[2]) for e, c in num.terms.items()})
    euler = MultiPoly(num.symbols, {e: c * (e[1] ** 2 + e[2] ** 2)
                                    for e, c in num.terms.items()})
    quot = exact_algebra.poly_exact_div(pair, z("z1") - z("z2"))
    expected = RatFunc(euler - z("k") * quot * (z("z1") + z("z2")), z("k") + 1)
    assert apply_L_N(RatFunc(num, z("k") + 1), n=2) == expected


def test_diagram_examples():
    assert check_diagram((1,), n=2).holds
    assert check_diagram((1,), n=1).holds
    assert check_diagram((2, 1), n=3).holds


def test_jack_projects_to_eigenfunction():
    """phi_N(P) is an eigenfunction of the N-variable operator.

    The eigenvalue comes from the infinite-variable one at p0 = N.
    """
    n = 3
    jf = jack((2, 1))
    f = phi_N(jf.p_expansion, n)
    lhs = apply_L_N(f, n=n)
    e = jf.eigenvalue.substitute({"p0": RatFunc.const(n)})
    assert ratfunc_equal(lhs, e * f)
