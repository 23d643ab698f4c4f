"""Catalogue of classical symmetric spaces and their coupling-triple duality.

Each space carries the root multiplicities (m_alpha, m_beta, m_2beta) of its
restricted root system, as linear expressions in the size parameters.  The
triple (k, p, q) is minus half of those multiplicities; negative and
fractional values are the whole point, since the duality below moves real
compact spaces to formal ones with negative sizes.

Two duality maps act on the triples:

  * A-type root systems: (k, N) -> (1/k, N/k);
  * B/C/D/BC-type: (k, p, q, N) -> (1/k, p/k, ((2q+1)/k - 1)/2, N/k).

In the homogeneous coordinates (K : H : P : Q + H/2 : N) of a point,
k = K/H, p = P/H, q = Q/H and the rank is the last coordinate over H, the
B/C/D/BC map swaps K and H and fixes the rest, and the A-type map is the
same swap on (K : H : N); so both are involutions.  verify_table decides
each map against that swap at a generic point where dividing by k is
multiplying by a symbol, so no polynomial division and no gcd is needed.

dual_space applies the appropriate map and looks the image up in the
catalogue, matching (k, q) exactly and p up to the m <-> n relabeling of
the two-parameter families (the quotient does not care which factor is
called m).  Each row is read once into tables of rational coefficients,
a symbolic image likewise, and every comparison is made on those, so the
relabeling swaps two coefficients.  At integer sizes the fields are
Fractions.

Convention notes, applied uniformly:
  * the quaternionic unitary quotient is catalogued at even size, as
    SU(2N)/Sp(2N); the symplectic group at even size, Sp(2N);
  * the even orthogonal Grassmannian splits by parity of the size: the even
    case (root system C) takes part in the duality matching, the odd case
    (root system BC) is catalogued but excluded from matching;
  * for the real orthogonal Grassmannian the catalogued half-multiplicity
    value of p and the acceptance target disagree by a factor of 2 (a short
    root-length normalization); both values are carried side by side and
    the mismatch is reported as the single expected discrepancy, with the
    stable id "bdi-p-normalization".
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, NamedTuple, Optional, Tuple

from negdim.exact_algebra import RatFunc
from negdim.reporting import CheckResult, VerificationReport

_N = RatFunc.symbol("N")
_M = RatFunc.symbol("m")
_SMALL_N = RatFunc.symbol("n")
_ZERO = Fraction(0)

Triple = Tuple[RatFunc, RatFunc, RatFunc]


class KPQ(NamedTuple):
    """Coupling triple plus the rank expression it travels with."""

    k: RatFunc
    p: RatFunc
    q: RatFunc
    n: RatFunc

    def as_dict(self) -> Dict[str, str]:
        return {"k": str(self.k), "p": str(self.p), "q": str(self.q),
                "N": str(self.n)}

    def __str__(self) -> str:
        return (f"(k = {self.k}, p = {self.p}, q = {self.q}, N = {self.n})")


class SpaceSpec(NamedTuple):
    """One catalogue row: a space, its root data and multiplicities."""

    key: str                 # catalogue key, e.g. "BDI", "DIII-even"
    label: str               # Cartan label, e.g. "BDI", "DIII", "group-A"
    description: str         # e.g. "SO(m+n)/SO(m)xSO(n)"
    root_system: str         # A, B, C, D or BC
    rank: str                # display form of the rank
    size_params: Tuple[str, ...]
    mults: Triple            # (m_alpha, m_beta, m_2beta)
    tabulated_kpq: Optional[Triple] = None   # reference triple where the catalogue fixes one
    in_matching: bool = True

    def __hash__(self) -> int:  # rows key memos: hash the key, not every field
        return hash(self.key)


def _c(x) -> RatFunc:
    return RatFunc.const(Fraction(x))


def _catalogue() -> Tuple[SpaceSpec, ...]:
    zero = _c(0)
    mn = _M - _SMALL_N
    return (
        SpaceSpec("group-A", "group-A", "SU(N)", "A", "N-1", ("N",),
                  (_c(2), zero, zero), (_c(-1), zero, zero)),
        SpaceSpec("group-B", "group-B", "SO(2N+1)", "B", "N", ("N",),
                  (_c(2), _c(2), zero)),
        SpaceSpec("group-C", "group-C", "Sp(2N)", "C", "N", ("N",),
                  (_c(2), zero, _c(2)), (_c(-1), zero, _c(-1))),
        SpaceSpec("group-D", "group-D", "SO(2N)", "D", "N", ("N",),
                  (_c(2), zero, zero), (_c(-1), zero, zero)),
        SpaceSpec("AI", "AI", "SU(N)/SO(N)", "A", "N-1", ("N",),
                  (_c(1), zero, zero), (_c(Fraction(-1, 2)), zero, zero)),
        SpaceSpec("AII", "AII", "SU(2N)/Sp(2N)", "A", "N-1", ("N",),
                  (_c(4), zero, zero), (_c(-2), zero, zero)),
        SpaceSpec("AIII", "AIII", "SU(m+n)/S(U(m)xU(n))", "BC", "n", ("m", "n"),
                  (_c(2), 2 * mn, _c(1)),
                  (_c(-1), _SMALL_N - _M, _c(Fraction(-1, 2)))),
        SpaceSpec("BDI", "BDI", "SO(m+n)/SO(m)xSO(n)", "B", "n", ("m", "n"),
                  (_c(1), mn, zero),
                  (_c(Fraction(-1, 2)), _SMALL_N - _M, zero)),
        SpaceSpec("CI", "CI", "Sp(2N)/U(N)", "C", "N", ("N",),
                  (_c(1), zero, _c(1)),
                  (_c(Fraction(-1, 2)), zero, _c(Fraction(-1, 2)))),
        SpaceSpec("CII", "CII", "Sp(2m+2n)/Sp(2m)xSp(2n)", "BC", "n", ("m", "n"),
                  (_c(4), 4 * mn, _c(3)),
                  (_c(-2), 2 * (_SMALL_N - _M), _c(Fraction(-3, 2)))),
        SpaceSpec("DIII-even", "DIII", "SO(4N)/U(2N)", "C", "N", ("N",),
                  (_c(4), zero, _c(1)),
                  (_c(-2), zero, _c(Fraction(-1, 2)))),
        SpaceSpec("DIII-odd", "DIII", "SO(4N+2)/U(2N+1)", "BC", "N", ("N",),
                  (_c(4), _c(4), _c(1)), in_matching=False),
    )


CATALOGUE: Tuple[SpaceSpec, ...] = _catalogue()
_BY_KEY: Dict[str, SpaceSpec] = {s.key: s for s in CATALOGUE}

# Table of expected dual partners, one row per verified pairing.
EXPECTED_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("group-A", "group-A"),
    ("group-D", "group-C"),
    ("AI", "AII"),
    ("AIII", "AIII"),
    ("BDI", "CII"),
    ("CI", "DIII-even"),
)


def space(label: str) -> SpaceSpec:
    """Look a catalogue entry up by key or Cartan label (DIII -> even case)."""
    if label in _BY_KEY:
        return _BY_KEY[label]
    if label == "DIII":
        return _BY_KEY["DIII-even"]
    known = ", ".join(s.key for s in CATALOGUE)
    raise KeyError(f"unknown space {label!r} (known: {known})")


def catalogue() -> Tuple[SpaceSpec, ...]:
    return CATALOGUE


def _rank_symbol(s: SpaceSpec) -> RatFunc:
    return RatFunc.symbol(s.size_params[-1])


def to_kpq(s: SpaceSpec) -> KPQ:
    """Minus half of each multiplicity, rank carried along."""
    half = Fraction(-1, 2)
    ma, mb, m2b = s.mults
    return KPQ(ma * half, mb * half, m2b * half, _rank_symbol(s))


def tabulated_kpq(s: SpaceSpec) -> Optional[KPQ]:
    if s.tabulated_kpq is None:
        return None
    k, p, q = s.tabulated_kpq
    return KPQ(k, p, q, _rank_symbol(s))


@lru_cache(maxsize=None)
def _derived(s: SpaceSpec) -> KPQ:
    """to_kpq memoised per catalogue row."""
    return to_kpq(s)


@lru_cache(maxsize=None)
def _reference(s: SpaceSpec) -> KPQ:
    """The triple a catalogue row is matched by: the tabulated one where
    the catalogue fixes one, else the one derived from the multiplicities."""
    return tabulated_kpq(s) or _derived(s)


def _exact(x):
    """x with an int made a Fraction, so that dividing by it stays exact."""
    return Fraction(x) if isinstance(x, int) else x


def bc_dual(x: KPQ) -> KPQ:
    """(k, p, q, N) -> (1/k, p/k, ((2q+1)/k - 1)/2, N/k): the swap K <-> H
    on (K : H : P : Q + H/2 : N), so an involution.

    The fields may be RatFuncs or, at integer sizes, rationals."""
    if not x.k:
        raise ZeroDivisionError("duality needs k != 0")
    k = _exact(x.k)
    return KPQ(1 / k, x.p / k, ((2 * x.q + 1) / k - 1) / 2, x.n / k)


def a_dual(k, n):
    """(k, N) -> (1/k, N/k) for the A-type rescaling: the swap K <-> H on
    (K : H : N), so an involution.

    RatFunc arguments give RatFuncs, int and Fraction ones Fractions."""
    if not k:
        raise ZeroDivisionError("duality needs k != 0")
    k = _exact(k)
    return 1 / k, n / k


def _dual_image(s: SpaceSpec, x: KPQ) -> KPQ:
    if s.root_system == "A":
        k, n = a_dual(x.k, x.n)
        return KPQ(k, x.p, x.q, n)
    return bc_dual(x)


def _bc_swap(x: KPQ) -> KPQ:
    """The swap K <-> H on the coordinates (K : H : P : Q + H/2 : N) of x,
    which are (k : 1 : p : q + 1/2 : N), read off where the new H is 1.
    On the A-type coordinates (K : H : N) it is the same on k and N."""
    half = Fraction(1, 2)
    return KPQ(1 / x.k, x.p / x.k, (x.q + half) / x.k - half, x.n / x.k)


def _affine(s: SpaceSpec, name: str, f: RatFunc) -> Tuple[Fraction, ...]:
    """(c, c_1, ...) with f = c + c_1*x_1 + ... in the row's size symbols x_i,
    the form of every catalogue field.  A reduced denominator free of
    symbols is 1."""
    num, params = f.num, s.size_params
    out = [_ZERO] * (1 + len(params))
    if f.den.is_const() and set(num.symbols) <= set(params):
        for e, c in num.terms.items():
            if sum(e) > 1:
                break
            out[1 + params.index(num.symbols[e.index(1)]) if any(e) else 0] = Fraction(c)
        else:
            return tuple(out)
    raise ValueError(f"{s.key}: field {name} = {f} is not affine in "
                     f"{', '.join(params)} over denominator 1")


@lru_cache(maxsize=None)
def _rational(s: SpaceSpec):
    """Row s read once into rationals: the coefficient tuples of its
    reference and derived fields (k, p, q, N), and its reference (k, p, q)
    where no size symbol enters it, else None.  N is read once: both
    triples carry the row's rank symbol (_rank_symbol)."""
    derived = _derived(s)
    rank = (_affine(s, "N", derived.n),)
    ref, der = (tuple(_affine(s, name, f) for name, f in zip("kpq", x)) + rank
                for x in (_reference(s), derived))
    free = any(any(f[1:]) for f in ref[:3])
    return ref, der, None if free else tuple(f[0] for f in ref[:3])


def _at(fields, sizes: Tuple[int, ...]) -> Tuple[Fraction, ...]:
    """Coefficient tuples evaluated at integer sizes, in size-parameter order."""
    return tuple(sum((c * v for c, v in zip(f[1:], sizes) if c), f[0])
                 for f in fields)


class SpaceMatch(NamedTuple):
    """Outcome of pushing one space through the duality and matching it."""

    source: SpaceSpec
    kpq: KPQ
    derived: KPQ
    image: KPQ
    matched: bool
    partner: Optional[str]
    partner_description: Optional[str]
    relabeled: bool
    discrepancies: Tuple[Dict[str, str], ...]

    def as_dict(self) -> Dict[str, object]:
        return {
            "space": self.source.description,
            "kpq": self.kpq.as_dict(),
            "dual_kpq": self.image.as_dict(),
            "matched": self.matched,
            "partner": self.partner_description,
            "relabeled": self.relabeled,
            "discrepancies": [dict(d) for d in self.discrepancies],
        }


@lru_cache(maxsize=None)
def _compared_symbolically(s: SpaceSpec) -> Tuple[Dict[str, str], ...]:
    """A row's tabulated-vs-derived discrepancies, decided on its rational
    table and keyed by the row itself, so a replaced row is compared afresh;
    at sizes, those that differ there."""
    if s.tabulated_kpq is None:
        return ()
    ref, der, _ = _rational(s)
    return tuple({"id": f"{s.key.lower()}-{name}-normalization", "field": name,
                  "derived": str(a), "tabulated": str(b), "expected": "true"}
                 for name, a, b, d, r in zip("kpq", _derived(s), _reference(s), der, ref)
                 if d != r)


def _candidates(s: SpaceSpec):
    """The catalogue rows an image of s may match, in matching order."""
    return (c for c in CATALOGUE if c.in_matching
            and (c.root_system == "A") == (s.root_system == "A"))


def _match_at_sizes(s: SpaceSpec, triple: Tuple[Fraction, ...],
                    sizes: Tuple[int, ...]) -> Tuple[Optional[SpaceSpec], bool]:
    """(partner, relabeled) for the rational image triple of s at integer
    sizes.  A two-parameter candidate of a two-parameter source is set to
    its sizes under both labelings; any other is compared by its constant
    triple, which a candidate with a size symbol in (k, p, q) lacks."""
    for cand in _candidates(s):
        ref, _, constant = _rational(cand)
        if len(cand.size_params) == 2 == len(sizes):
            for at, swapped in ((sizes, False), (sizes[::-1], True)):
                if _at(ref[:3], at) == triple:
                    return cand, swapped
        elif constant == triple:
            return cand, False
    return None, False


def _match_symbolic(s: SpaceSpec, image: KPQ) -> Tuple[Optional[SpaceSpec], bool]:
    """(partner, relabeled) for a symbolic image, read into coefficient
    tuples like a row.  A candidate in the same symbols matches tuple by
    tuple, a two-parameter one also with m and n swapped; any other only by
    equal constants.  A field that is not affine matches none."""
    try:
        fields = tuple(_affine(s, name, f) for name, f in zip("kpq", image))
    except ValueError:
        return None, False
    swapped = tuple((c, b, a) for c, a, b in fields) if len(s.size_params) == 2 else None
    constant = None if any(any(f[1:]) for f in fields) else tuple(f[0] for f in fields)
    for cand in _candidates(s):
        ref, _, cand_constant = _rational(cand)
        if cand.size_params == s.size_params:
            if ref[:3] in (fields, swapped):
                return cand, ref[:3] != fields
        elif constant is not None and constant == cand_constant:
            return cand, False
    return None, False


def dual_space(label: str, m: Optional[int] = None,
               n: Optional[int] = None) -> SpaceMatch:
    """Apply the duality to a catalogue space and match the image.

    Optional m, n pin the size parameters to integers (n binds the single
    parameter of one-parameter spaces); the fields are then Fractions, from
    the rows' rational tables, and no RatFunc is built.  Matching compares
    (k, p, q); for two-parameter candidates the m <-> n relabeling is also
    tried, and a successful relabel is reported.
    """
    s = space(label)
    sizes: Dict[str, int] = {}
    if m is not None:
        if "m" not in s.size_params:
            raise ValueError(f"{s.key} has no m parameter")
        sizes["m"] = m
    if n is not None:
        sizes[s.size_params[-1]] = n
    if len(s.size_params) == 2 and (m is None) != (n is None):
        given, missing = ("--m", "--n") if n is None else ("--n", "--m")
        raise ValueError(f"{s.key} has size parameters m and n: "
                         f"{given} needs {missing} as well")

    discrepancies = _compared_symbolically(s)
    if sizes:
        at = tuple(sizes[name] for name in s.size_params)
        kpq, derived = (KPQ(*_at(x, at)) for x in _rational(s)[:2])
        image = _dual_image(s, kpq)
        partner, relabeled = _match_at_sizes(s, tuple(image[:3]), at)
        discrepancies = tuple(d for d in discrepancies if getattr(kpq, d["field"])
                              != getattr(derived, d["field"]))
    else:
        kpq, derived = _reference(s), _derived(s)
        image = _dual_image(s, kpq)
        partner, relabeled = _match_symbolic(s, image)

    return SpaceMatch(
        source=s,
        kpq=kpq,
        derived=derived,
        image=image,
        matched=partner is not None,
        partner=partner.key if partner else None,
        partner_description=partner.description if partner else None,
        relabeled=relabeled,
        discrepancies=discrepancies,
    )


def verify_table() -> VerificationReport:
    """Reproduce the dual-pair table, check both involutions, and census the
    tabulated-vs-derived discrepancies (exactly one, on the BDI p value)."""
    report = VerificationReport(suite="spaces-duality", config={})

    for source, expected_partner in EXPECTED_PAIRS:
        result = dual_space(source)
        ok = result.matched and result.partner == expected_partner
        report.add(CheckResult(
            check_id=f"spaces/dual/{source}",
            holds=ok,
            inputs=(("space", source),),
            lhs=str(result.image),
            rhs=f"{expected_partner}: {_reference(space(expected_partner))}",
            notes=("matched after m<->n relabeling" if result.relabeled else ""),
        ))

    # Both dualities are the swap K <-> H, decided at k = 1/h: dividing by
    # that k multiplies by h, so no step divides by a polynomial.  A failing
    # row shows the map applied twice, and applied once in its notes.
    generic = KPQ(*(RatFunc.symbol(s) for s in ("k", "p", "q", "N")))
    point = generic._replace(k=1 / RatFunc.symbol("h"))
    swapped = _bc_swap(point)
    holds, notes = bc_dual(point) == swapped, ""
    if not holds:
        notes = f"once: {bc_dual(generic)}, the K <-> H swap: {_bc_swap(generic)}"
    report.add(CheckResult(
        check_id="spaces/bc-involution",
        holds=holds,
        inputs=(),
        lhs=str(generic if holds else bc_dual(bc_dual(generic))),
        rhs=str(generic),
        notes=notes,
    ))
    k, n = generic.k, generic.n
    holds, notes = a_dual(point.k, point.n) == (swapped.k, swapped.n), ""
    if not holds:
        swap = _bc_swap(generic)
        notes = "once: ({}, {}), the K <-> H swap: ({}, {})".format(
            *a_dual(k, n), swap.k, swap.n)
    report.add(CheckResult(
        check_id="spaces/a-involution",
        holds=holds,
        inputs=(),
        lhs="({}, {})".format(*((k, n) if holds else a_dual(*a_dual(k, n)))),
        rhs="(k, N)",
        notes=notes,
    ))

    census = []
    for s in CATALOGUE:
        for d in _compared_symbolically(s):
            census.append(d["id"])
            report.add(CheckResult(
                check_id=f"spaces/tabulated-vs-derived/{s.key}/{d['field']}",
                holds=False,
                inputs=(("space", s.key), ("field", d["field"])),
                lhs=d["derived"],
                rhs=d["tabulated"],
                notes=d["id"],
                expected_discrepancy=True,
            ))
    report.add(CheckResult(
        check_id="spaces/discrepancy-census",
        holds=census == ["bdi-p-normalization"],
        inputs=(),
        lhs=", ".join(census) or "none",
        rhs="bdi-p-normalization",
        notes="exactly one expected discrepancy across the catalogue",
    ))
    report.sort()
    return report
