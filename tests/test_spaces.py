"""Symmetric-space catalogue, the coupling-triple duality, and pair matching."""

from fractions import Fraction

import pytest

from negdim import cli, spaces
from negdim.exact_algebra import MultiPoly, RatFunc, ratfunc_equal
from negdim.spaces import (CATALOGUE, EXPECTED_PAIRS, KPQ, a_dual,
                           bc_dual, catalogue, dual_space, tabulated_kpq, space,
                           to_kpq, verify_table)

N = RatFunc.symbol("N")


def const(x):
    return RatFunc.const(Fraction(x))


def kpq(k, p, q, n=N):
    return KPQ(const(k) if not isinstance(k, RatFunc) else k,
               const(p) if not isinstance(p, RatFunc) else p,
               const(q) if not isinstance(q, RatFunc) else q,
               n)


def assert_kpq(x, k, p, q, n):
    assert ratfunc_equal(x.k, k)
    assert ratfunc_equal(x.p, p)
    assert ratfunc_equal(x.q, q)
    assert ratfunc_equal(x.n, n)


def test_to_kpq_examples():
    assert ratfunc_equal(to_kpq(space("AI")).k, const(Fraction(-1, 2)))
    ci = to_kpq(space("CI"))
    assert_kpq(ci, const(Fraction(-1, 2)), const(0), const(Fraction(-1, 2)), N)
    so_even = to_kpq(space("group-D"))
    assert_kpq(so_even, const(-1), const(0), const(0), N)


def test_group_rows_have_k_minus_one():
    for s in catalogue():
        if s.key.startswith("group-"):
            assert ratfunc_equal(to_kpq(s).k, const(-1))


def test_bc_dual_frozen_values():
    image = bc_dual(kpq(Fraction(-1, 2), 0, Fraction(-1, 2)))
    assert_kpq(image, const(-2), const(0), const(Fraction(-1, 2)), -2 * N)

    image = bc_dual(kpq(-1, 0, 0))
    assert_kpq(image, const(-1), const(0), const(-1), -N)


def test_bc_dual_involution_symbolic():
    x = KPQ(RatFunc.symbol("vk"), RatFunc.symbol("vp"), RatFunc.symbol("vq"),
            RatFunc.symbol("vn"))
    twice = bc_dual(bc_dual(x))
    assert ratfunc_equal(twice.k, x.k)
    assert ratfunc_equal(twice.p, x.p)
    assert ratfunc_equal(twice.q, x.q)
    assert ratfunc_equal(twice.n, x.n)


def test_bc_dual_involution_at_half():
    x = kpq(Fraction(-1, 2), Fraction(7, 3), 0)
    twice = bc_dual(bc_dual(x))
    assert_kpq(twice, x.k, x.p, x.q, x.n)


def test_a_dual_examples():
    k2, n2 = a_dual(const(Fraction(-1, 2)), N)
    assert ratfunc_equal(k2, const(-2)) and ratfunc_equal(n2, -2 * N)
    k2, n2 = a_dual(const(-1), N)
    assert ratfunc_equal(k2, const(-1)) and ratfunc_equal(n2, -N)
    kk = RatFunc.symbol("vk")
    k3, n3 = a_dual(*a_dual(kk, N))
    assert ratfunc_equal(k3, kk) and ratfunc_equal(n3, N)


def test_dual_rejects_zero_coupling():
    with pytest.raises(ZeroDivisionError):
        bc_dual(kpq(0, 1, 1))
    with pytest.raises(ZeroDivisionError):
        a_dual(const(0), N)


def test_table_pairings():
    for source, target in EXPECTED_PAIRS:
        match = dual_space(source)
        assert match.matched, f"{source} found no partner"
        assert match.partner == target


def test_pairings_with_numeric_sizes():
    match = dual_space("BDI", m=3, n=2)
    assert match.matched and match.partner == "CII"
    match = dual_space("AIII", m=4, n=1)
    assert match.matched and match.partner == "AIII"


def test_bdi_discrepancy_is_the_only_one():
    ids = []
    for s in catalogue():
        match = dual_space(s.key) if s.in_matching else None
        if match:
            ids.extend(d["id"] for d in match.discrepancies)
    assert ids == ["bdi-p-normalization"]


def test_bdi_tabulated_vs_derived():
    s = space("BDI")
    derived = to_kpq(s)
    shown = tabulated_kpq(s)
    # derived p is half the tabulated one
    assert ratfunc_equal(derived.p * 2, shown.p)
    assert ratfunc_equal(derived.k, shown.k)
    assert ratfunc_equal(derived.q, shown.q)


def test_diii_split():
    even = space("DIII-even")
    assert_kpq(to_kpq(even), const(-2), const(0), const(Fraction(-1, 2)), N)
    odd = space("DIII-odd")
    assert not odd.in_matching
    assert space("DIII").key == "DIII-even"


def test_ci_diii_link():
    # bc_dual of CI's triple lands exactly on DIII-even's
    image = bc_dual(to_kpq(space("CI")))
    target = to_kpq(space("DIII-even"))
    assert ratfunc_equal(image.k, target.k)
    assert ratfunc_equal(image.p, target.p)
    assert ratfunc_equal(image.q, target.q)


def test_group_b_finds_no_partner():
    match = dual_space("group-B")
    assert not match.matched


def test_unknown_label():
    with pytest.raises(KeyError):
        space("EVII")


def test_verify_table_green():
    report = verify_table()
    assert report.all_ok
    assert report.failed == 0
    assert report.expected == 1  # exactly the BDI normalization


# -- planted defects: every check group can fail ------------------------------


def _unexpected_failures(report):
    return [(case.check_id, case.lhs, case.rhs) for case in report.cases
            if not case.ok]


def test_wrong_expected_partner_fails_its_row(monkeypatch):
    monkeypatch.setattr(spaces, "EXPECTED_PAIRS", tuple(
        ("AI", "AI") if pair == ("AI", "AII") else pair for pair in EXPECTED_PAIRS))
    assert _unexpected_failures(verify_table()) == [(
        "spaces/dual/AI", "(k = -2, p = 0, q = 0, N = -2*N)",
        "AI: (k = -1/2, p = 0, q = 0, N = N)")]


def test_flipped_q_in_bc_dual_fails_the_involution(monkeypatch):
    # the B/C/D/BC images move with it; the A-type rows and the census do not
    real = spaces.bc_dual
    monkeypatch.setattr(spaces, "bc_dual", lambda x: real(x)._replace(q=-real(x).q))
    failed = _unexpected_failures(verify_table())
    assert failed[0] == ("spaces/bc-involution", "(k = k, p = p, q = -k + q + 1, N = N)",
                         "(k = k, p = p, q = q, N = N)")
    assert [row[0] for row in failed[1:]] == [
        "spaces/dual/AIII", "spaces/dual/BDI", "spaces/dual/CI",
        "spaces/dual/group-D"]


def test_broken_a_dual_fails_the_involution(monkeypatch):
    # N shifted by one before the map: the A-type rows match on (k, p, q)
    # and still hold
    real = spaces.a_dual
    monkeypatch.setattr(spaces, "a_dual", lambda k, n: real(k, n + 1))
    assert _unexpected_failures(verify_table()) == [
        ("spaces/a-involution", "(k, N + k + 1)", "(k, N)")]


def _failing_rows_in_verify_all(capsys):
    code = cli.main(["verify-all", "--max-weight", "1", "--max-degree", "1",
                     "--max-n", "1"])
    out = capsys.readouterr().out
    return code, [line.split()[1] for line in out.splitlines()
                  if line.strip().startswith("[FAIL]")]


def test_a_dual_with_a_wrong_rank_map_fails_the_involution(monkeypatch, capsys):
    # (k, N) -> (1/k, N*k) is an involution too, and the A-type rows match
    # on (k, p, q) only; the swap K <-> H on (K : H : N) sends N to N/k
    real = spaces.a_dual
    monkeypatch.setattr(spaces, "a_dual", lambda k, n: (real(k, n)[0], n * k))
    report = verify_table()
    assert _unexpected_failures(report) == [("spaces/a-involution", "(k, N)", "(k, N)")]
    assert next(case.notes for case in report.cases if not case.ok) == (
        "once: ((1)/(k), N*k), the K <-> H swap: ((1)/(k), (N)/(k))")
    assert _failing_rows_in_verify_all(capsys) == (1, ["spaces/a-involution"])


def test_bc_dual_with_a_wrong_rank_map_fails_the_involution(monkeypatch, capsys):
    # N -> N*k in place of N/k squares to the identity as well
    real = spaces.bc_dual
    monkeypatch.setattr(spaces, "bc_dual", lambda x: real(x)._replace(n=x.n * x.k))
    report = verify_table()
    generic = "(k = k, p = p, q = q, N = N)"
    assert _unexpected_failures(report) == [("spaces/bc-involution", generic, generic)]
    notes = next(case.notes for case in report.cases if not case.ok)
    assert notes.endswith("N = N*k), the K <-> H swap: (k = (1)/(k), p = (p)/(k), "
                          "q = (-1/2*k + q + 1/2)/(k), N = (N)/(k))"), notes
    assert _failing_rows_in_verify_all(capsys) == (1, ["spaces/bc-involution"])


def _planted(monkeypatch, key, **fields):
    """Replace one catalogue row by a copy with the given fields changed."""
    spec = spaces.space(key)
    planted = spec._replace(**fields)
    monkeypatch.setattr(spaces, "CATALOGUE", tuple(
        planted if s is spec else s for s in spaces.CATALOGUE))
    monkeypatch.setattr(spaces, "_BY_KEY", {**spaces._BY_KEY, key: planted})


def test_second_tabulated_discrepancy_fails_the_census(monkeypatch):
    # group-C's derived q doubled; it is matched by its tabulated triple,
    # so only the census sees the new discrepancy
    _planted(monkeypatch, "group-C", mults=(const(2), const(0), const(4)))
    report = verify_table()
    assert _unexpected_failures(report) == [(
        "spaces/discrepancy-census",
        "group-c-q-normalization, bdi-p-normalization", "bdi-p-normalization")]
    assert report.expected == 2


# -- integer sizes against the substitution route -----------------------------


def _bind(x, bindings):
    return KPQ(*(f.substitute(bindings) for f in (x.k, x.p, x.q, x.n)))


def _triples_equal(a, b):
    return all(ratfunc_equal(getattr(a, f), getattr(b, f)) for f in "kpq")


def _oracle_dual(label, m=None, n=None):
    """dual_space by substituting the sizes into every RatFunc, then
    applying the duality and matching in RatFunc arithmetic:
    (kpq, derived, image, partner, relabeled, discrepancies)."""
    s = space(label)
    bindings = {}
    if m is not None:
        bindings["m"] = RatFunc.const(m)
    if n is not None:
        bindings[s.size_params[-1]] = RatFunc.const(n)
    kpq = _bind(tabulated_kpq(s) or to_kpq(s), bindings)
    derived = _bind(to_kpq(s), bindings)
    if s.root_system == "A":
        k = RatFunc.const(1) / kpq.k
        image = KPQ(k, kpq.p, kpq.q, kpq.n / kpq.k)
    else:
        k = kpq.k
        image = KPQ(1 / k, kpq.p / k, ((2 * kpq.q + 1) / k - 1) / 2, kpq.n / k)
    partner, relabeled = None, False
    for cand in spaces.CATALOGUE:
        if not cand.in_matching or (cand.root_system == "A") != (s.root_system == "A"):
            continue
        target = tabulated_kpq(cand) or to_kpq(cand)
        variants = [(target, False)]
        if len(cand.size_params) == 2 and "m" in bindings:
            mv, nv = bindings["m"], bindings["n"]
            variants = [(_bind(target, {"m": mv, "n": nv}), False),
                        (_bind(target, {"m": nv, "n": mv}), True)]
        elif len(cand.size_params) == 2:
            variants.append((_bind(target, {"m": RatFunc.symbol("n"),
                                            "n": RatFunc.symbol("m")}), True))
        hit = [swapped for v, swapped in variants if _triples_equal(image, v)]
        if hit:
            partner, relabeled = cand.key, hit[0]
            break
    discrepancies = []
    shown = tabulated_kpq(s)
    for name in ("k", "p", "q") if shown else ():
        a, b = getattr(to_kpq(s), name), getattr(shown, name)
        if not ratfunc_equal(a.substitute(bindings), b.substitute(bindings)):
            discrepancies.append(f"{s.key.lower()}-{name}-normalization")
    return (str(kpq), str(derived), str(image), partner, relabeled,
            discrepancies)


def _size_cases():
    labels = [s.key for s in CATALOGUE] + ["DIII"]
    for label in labels:
        yield label, None, None
        for n in range(-2, 7):
            if len(space(label).size_params) == 2:
                for m in range(-2, 7):
                    yield label, m, n
            else:
                yield label, None, n


def test_dual_space_at_integer_sizes_matches_substitution_route():
    for label, m, n in _size_cases():
        got = dual_space(label, m=m, n=n)
        assert (str(got.kpq), str(got.derived), str(got.image), got.partner,
                got.relabeled, [d["id"] for d in got.discrepancies]) \
            == _oracle_dual(label, m, n), (label, m, n)
        assert got.matched == (got.partner is not None)
        # at integer sizes the fields are rationals, symbolic ones RatFuncs
        kind = RatFunc if n is None else Fraction
        for x in (got.kpq, got.derived, got.image):
            assert all(isinstance(f, kind) for f in (x.k, x.p, x.q, x.n))


def test_integer_sizes_build_and_evaluate_no_ratfunc(monkeypatch):
    # once each row's rational table is read, a dual at integer sizes is
    # Fraction arithmetic only: no RatFunc is built, evaluated or substituted
    for s in CATALOGUE:
        dual_space(s.key, m=1 if len(s.size_params) == 2 else None, n=1)

    def refuse(*args, **kwargs):
        raise AssertionError("a numeric dual went through RatFunc")

    for cls, name in ((RatFunc, "__init__"), (RatFunc, "eval_fractions"),
                      (RatFunc, "substitute"), (MultiPoly, "eval_fractions")):
        monkeypatch.setattr(cls, name, refuse)
    monkeypatch.setattr(RatFunc, "const", classmethod(refuse))
    for label, m, n in _size_cases():
        if n is not None:
            dual_space(label, m=m, n=n)


def test_non_affine_row_is_refused_at_integer_sizes(monkeypatch):
    m, n = RatFunc.symbol("m"), RatFunc.symbol("n")
    # BDI's derived p becomes -m*n/2, a product of its sizes
    _planted(monkeypatch, "BDI", mults=(const(1), m * n, const(0)))
    with pytest.raises(ValueError, match=r"^BDI: field p = -1/2\*m\*n is not affine"):
        dual_space("BDI", m=2, n=3)
    # CI's tabulated q becomes 1/N, off denominator 1
    _planted(monkeypatch, "CI", tabulated_kpq=(const(Fraction(-1, 2)), const(0), 1 / N))
    with pytest.raises(ValueError, match=r"^CI: field q = \(1\)/\(N\) is not affine"):
        dual_space("CI", n=3)


def test_symbolic_k_image_matches_nothing(monkeypatch):
    # a size symbol in k puts the image's k off denominator 1, so it equals
    # no catalogue field; at sizes k is a number again.  Both routes agree
    # with substitution, and neither raises
    _planted(monkeypatch, "CI", tabulated_kpq=(-N / 2, const(0), const(Fraction(-1, 2))))
    _planted(monkeypatch, "AI", mults=(N, const(0), const(0)), tabulated_kpq=None)
    for label in ("CI", "AI"):
        assert dual_space(label).partner is None
        for n in (None, 1, 2, 3):
            got = dual_space(label, n=n)
            assert (str(got.kpq), str(got.derived), str(got.image), got.partner,
                    got.relabeled, [d["id"] for d in got.discrepancies]) \
                == _oracle_dual(label, n=n), (label, n)


def test_duality_maps_stay_exact_on_integers():
    k, n = a_dual(2, 3)
    assert (k, n) == (Fraction(1, 2), Fraction(3, 2))
    assert type(k) is Fraction and type(n) is Fraction
    image = bc_dual(KPQ(-2, 1, 0, 3))
    assert (image.k, image.p, image.q, image.n) == (
        Fraction(-1, 2), Fraction(-1, 2), Fraction(-3, 4), Fraction(-3, 2))
    assert all(type(f) is Fraction for f in (image.k, image.p, image.q, image.n))
    with pytest.raises(ZeroDivisionError):
        a_dual(0, 3)
    with pytest.raises(ZeroDivisionError):
        bc_dual(KPQ(0, 1, 1, 3))
