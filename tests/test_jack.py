"""Jack eigenfunctions, the transpose duality and the projection diagram."""

from fractions import Fraction
from math import factorial, prod

import pytest

from negdim.exact_algebra import RatFunc, ratfunc_equal
from negdim.jack import (K, P0, JackFunction, MExpr, PExpr,
                         SingularCouplingError, _affine, _matrix_m_symbolic,
                         _s_inverse, _s_matrix, apply_L_N, apply_L_inf,
                         check_conjugation, check_diagram, check_p0_scalar,
                         check_schur, check_triangularity, degree_basis, jack,
                         kostka_number, m_to_p, macdonald_duality,
                         operator_matrix, p_basis_element, p_to_m, phi_N,
                         schur_m_expansion, theta)
from negdim.partitions import (partitions_of_weight, partitions_up_to_weight,
                               transpose, weight)

ONE = RatFunc.const(1)


def mexpr(*pairs):
    terms = {mu: RatFunc.const(c) for mu, c in pairs}
    return MExpr(weight(next(iter(terms))), terms)


def test_apply_on_p1():
    image = apply_L_inf(p_basis_element((1,)))
    assert image == PExpr(1, {(1,): ONE + K - K * P0})


def test_operator_matrix_degree_one():
    mat = operator_matrix(1)
    assert len(mat) == 1 and len(mat[0]) == 1
    assert ratfunc_equal(mat[0][0], ONE + K - K * P0)


def test_apply_is_linear():
    x = p_basis_element((2, 1))
    c = RatFunc.const(Fraction(7, 3))
    assert apply_L_inf(x.scale(c)) == apply_L_inf(x).scale(c)


def test_apply_preserves_degree():
    for d in range(1, 6):
        for mu in partitions_of_weight(d):
            assert apply_L_inf(p_basis_element(mu)).degree == d


def test_p0_dependence_is_scalar():
    for d in range(1, 5):
        assert check_p0_scalar(d).holds


def test_triangular_in_monomial_basis():
    for d in range(1, 6):
        assert check_triangularity(d).holds


def test_basis_change_examples():
    assert p_to_m(p_basis_element((1,))) == mexpr(((1,), 1))
    assert p_to_m(p_basis_element((2,))) == mexpr(((2,), 1))
    assert p_to_m(p_basis_element((1, 1))) == mexpr(((2,), 1), ((1, 1), 2))


@pytest.mark.parametrize("d", range(1, 8))
def test_basis_change_roundtrip(d):
    for mu in degree_basis(d):
        x = p_basis_element(mu)
        assert m_to_p(p_to_m(x)) == x
        m_mu = MExpr(d, {mu: ONE})
        assert p_to_m(m_to_p(m_mu)) == m_mu


@pytest.mark.parametrize("d", range(1, 8))
def test_s_matrix_is_triangular_and_inverted(d):
    s, sinv = _s_matrix(d), _s_inverse(d)
    size = len(s)
    for i, mu in enumerate(degree_basis(d)):
        assert s[i][i] == prod(factorial(mu.count(part)) for part in set(mu))
        assert not any(s[j][i] for j in range(i + 1, size))
        for j in range(size):
            assert sum(sinv[i][t] * s[t][j] for t in range(size)) == (i == j)


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


@pytest.mark.parametrize("d", range(1, 7))
def test_monomial_matrix_matches_conjugated_power_sum_matrix(d):
    # the monomial-basis operator built from L itself equals S . M_p . S^-1,
    # with S^-1 from a general pivoting inverse
    s = _s_matrix(d)
    expected = _mat_mul(_mat_mul(s, operator_matrix(d, None, 0)),
                        _gauss_jordan_inverse(s))
    mm = _matrix_m_symbolic(d)
    assert [list(row) for row in mm] == expected


@pytest.mark.parametrize("d", range(1, 9))
def test_monomial_matrix_entries_are_affine_in_k(d):
    # the solve in jack() reads each entry as a + b*k through _affine
    for row in _matrix_m_symbolic(d):
        for entry in row:
            assert entry.den == 1 and entry.num.symbols in ((), ("k",))
            assert entry.num.degree("k") <= 1
            assert all(type(c) is int for c in entry.num.terms.values())
            a, b = _affine(entry)
            assert RatFunc.const(a) + b * K == entry


def _jack_by_substitution(lam, k):
    """Reference route for jack(): substitute the coupling into every entry
    of the monomial-basis matrix, solve in RatFunc arithmetic, and convert
    the monomial expansion with m_to_p."""
    kv = K if k is None else RatFunc.const(k)
    d = weight(lam)
    basis = degree_basis(d)
    mm = [[entry.substitute({"k": kv}) for entry in row]
          for row in _matrix_m_symbolic(d)]
    top = basis.index(lam)
    coords = {top: ONE}
    for row in range(top + 1, len(basis)):
        s = RatFunc.const(0)
        for col, c in coords.items():
            s = s + mm[row][col] * c
        if s.is_zero():
            continue
        gap = mm[top][top] - mm[row][row]
        if gap.is_zero():
            raise SingularCouplingError(kv, lam, basis[row])
        coords[row] = s / gap
    m_exp = MExpr(d, {basis[i]: c for i, c in coords.items()})
    return m_exp, m_to_p(m_exp), mm[top][top] + kv * (-d) * P0


@pytest.mark.parametrize("k", [None, 1 / K, K + 1, 0, 1, -1, 2, Fraction(1, 2),
                               Fraction(-1, 2), Fraction(3, 2)], ids=str)
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


def test_jack_makes_no_substitution(monkeypatch):
    def refuse(self, bindings):
        raise AssertionError("jack() substituted into a rational function")

    _matrix_m_symbolic.cache_clear()
    monkeypatch.setattr(RatFunc, "substitute", refuse)
    for k in (None, 1 / K, K + 1, -1):
        for lam in partitions_up_to_weight(5):
            jack(lam, k)


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


def test_incomparable_degeneracy_is_harmless():
    # (4,1,1) and (3,3) share an eigenvalue but neither dominates the other
    a = jack((4, 1, 1))
    b = jack((3, 3))
    assert ratfunc_equal(a.eigenvalue, b.eigenvalue)
    assert a.m_expansion.terms[(4, 1, 1)] == ONE
    assert b.m_expansion.terms[(3, 3)] == ONE


def test_theta_examples():
    x = p_basis_element((1,))
    assert theta(x) == PExpr(1, {(1,): 1 / K})
    y = p_basis_element((2, 1))
    assert theta(y) == PExpr(3, {(2, 1): 1 / (K * K)})


def test_theta_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        theta(p_basis_element((1,)), 0)


def test_theta_involution():
    y = PExpr(3, {(2, 1): RatFunc.const(3), (1, 1, 1): RatFunc.const(-2)})
    kv = RatFunc.const(Fraction(5, 7))
    assert theta(theta(y, kv), 1 / kv) == y


def test_conjugation_low_degrees():
    for d in range(1, 5):
        assert check_conjugation(d).holds


def test_macdonald_coefficient_single_box():
    assert ratfunc_equal(macdonald_duality((1,)), 1 / K)


def test_macdonald_at_schur_point():
    c = macdonald_duality((2,), -1)
    assert not c.is_zero()
    # theta(s_2) at k=-1 scales p_mu by (-1)^{-len(mu)}; compare by hand
    s2 = jack((2,), -1).p_expansion
    image = theta(s2, -1)
    s11 = jack((1, 1), -1).p_expansion
    lhs = {mu: v for mu, v in image.terms.items()}
    for mu, v in s11.terms.items():
        assert ratfunc_equal(lhs[mu], c * v)


def test_macdonald_symbolic_weight_four():
    for lam in partitions_of_weight(4):
        c = macdonald_duality(lam)
        assert not c.is_zero()


def test_schur_oracle_basics():
    assert kostka_number((2, 1), (1, 1, 1)) == 2
    assert kostka_number((2, 1), (2, 1)) == 1
    assert kostka_number((2, 1), (3,)) == 0
    assert schur_m_expansion((2, 1)) == mexpr(((2, 1), 1), ((1, 1, 1), 2))


def test_schur_specialization_sweep():
    for lam in partitions_up_to_weight(5):
        if lam:
            assert check_schur(lam).holds


def test_phi_examples():
    z1 = RatFunc.symbol("z1")
    z2 = RatFunc.symbol("z2")
    assert ratfunc_equal(phi_N(p_basis_element((1,)), 2), z1 + z2)
    sq = PExpr(2, {(1, 1): ONE})
    assert ratfunc_equal(phi_N(sq, 2), (z1 + z2) * (z1 + z2))
    assert ratfunc_equal(phi_N(p_basis_element((3,)), 1), z1 ** 3)


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
