"""Jack symmetric functions via the deformed Laplacian on the power-sum algebra.

Everything here lives in the graded algebra freely generated by the power
sums p_1, p_2, ..., with coefficients that are rational functions of the
coupling k and of an extra scalar p0 playing the role of "number of
variables" continued off the integers.  The operator

    L = sum_{a,b>0} p_{a+b} D_a D_b  -  k sum_{a,b>0} p_a p_b D_{a+b}
        - k p0 sum_{a>0} p_a D_a  +  (1+k) sum_{a>0} a p_a D_a,

with D_a = a d/dp_a, preserves degree; in the monomial basis ordered by
any linear extension of dominance it is triangular, which licenses the
construction of its monic eigenfunctions (Jack functions) degree by degree.

Setting p0 = N and substituting each p_l by the N-variable power sum
intertwines L with the exponential-coordinate operator

    sum_i (z_i d/dz_i)^2 - k sum_{i<j} (z_i+z_j)/(z_i-z_j) (z_i d/dz_i - z_j d/dz_j),

and check_diagram verifies that square exactly.

The rescaling map theta multiplies the p_mu coefficient by k^(-#parts).
Conjugating L by it inverts the coupling:

    theta o L_{k, p0} o theta^(-1) = k * L_{1/k, k*p0}.

Note the transformed scalar is k*p0, not p0/k; the one-dimensional degree-1
component already forces that form.  Every entry of L is a polynomial in k
and p0, so check_conjugation compares maps from exponents to coefficients:
the lhs shifts the power of k, the rhs sends k^i p0^j to k^(1-i+j) p0^j,
with no substitution and no gcd.  The same map sends the eigenfunction of
lambda at coupling k to c(lambda) times the eigenfunction of the transposed
diagram at coupling 1/k, with the closed form (Macdonald, VI.10; Stanley 1989)

    c(lambda) = (-1)^|lambda| prod_s (a(s) + 1 - k*l(s)) / (a(s) - k*(l(s) + 1))

over the boxes s, a(s) the arm and l(s) the leg.  macdonald_duality builds
c from its linear factors in k and checks every power-sum coordinate of the
two eigenfunctions against it by cross-multiplication, so a normalisation
error that keeps them proportional still fails.  At symbolic k it does so
on the lists of the two solves and c's factor map, with no JackFunction and
no kernel call, and renders c once for the report.

L is counted once, in integers, as L0 + k*L1 + k*p0*L2 on the power sums;
the conjugation and p0 checks read its exponent maps, check_diagram its
columns.  jack() solves with the pair M0 + k*M1 of L on the monomials,
built from its closed form (Stanley 1989); check_triangularity holds the
pair against the count through S, the counted power-sum-to-monomial matrix,
and the p-coordinates come through d! * S^-1, an integer matrix.  jack()
keeps each denominator as a multiset of primitive eigenvalue gaps and
cancels them by trial division, so it takes no gcd.  At a coupling u/w
with u and w integer polynomials in one symbol (k, 1/k, k + 1, 1/p0, ...)
every numerator and gap is a dense int list in that symbol (exact_algebra's
dense helpers), and RatFunc is built only for the coordinates handed out.
A number u/w takes the same solve on one-entry lists, and its coordinates
are handed out as ints and Fractions; a coupling in two or more symbols
raises ValueError.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import factorial
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

from negdim.exact_algebra import (
    ExactDivisionError,
    MultiPoly,
    RatFunc,
    Scalar,
    _coeff,
    _dense_cancel,
    _dense_mul,
    _dense_poly,
    _dense_primitive,
    _dense_product,
    _grlex,
    _madd,
    _trim,
)
from negdim.partitions import (
    Partition,
    check_partition,
    dominance_leq,
    format_partition,
    partitions_of_weight,
    partitions_up_to_weight,
    transpose,
    weight,
)
from negdim.reporting import CheckResult, VerificationReport

Coupling = Union[None, int, Fraction, RatFunc]
Coeff = Union[Scalar, RatFunc]  # a coordinate: a Scalar at a number, else a RatFunc

K = RatFunc.symbol("k")
P0 = RatFunc.symbol("p0")
_ZERO = RatFunc.const(0)
_ONE = RatFunc.const(1)


def _as_value(v: Coupling) -> RatFunc:
    return K if v is None else RatFunc.const(v)


class SingularCouplingError(ArithmeticError):
    """Two eigenvalues collide at a numeric coupling, blocking the solve."""

    def __init__(self, coupling: RatFunc, top: Partition, other: Partition):
        self.coupling = coupling
        self.top = top
        self.other = other
        super().__init__(
            f"eigenvalue collision at coupling k = {coupling}: partitions "
            f"{format_partition(top)} and {format_partition(other)} share an "
            f"eigenvalue, so the eigenfunction is not determined")


# -- expressions in the two bases ------------------------------------------


def _clean_terms(degree: int, terms: Mapping[Partition, Coeff]) -> Dict[Partition, Coeff]:
    """terms checked and without zeros: a Scalar stays a canonical Scalar
    (an int when integral), a RatFunc a RatFunc, and a MultiPoly becomes a
    RatFunc."""
    clean: Dict[Partition, Coeff] = {}
    for mu, coeff in terms.items():
        mu = check_partition(mu)
        if weight(mu) != degree:
            raise ValueError(f"index {format_partition(mu)} has weight "
                             f"{weight(mu)}, expected {degree}")
        if isinstance(coeff, MultiPoly):
            coeff = RatFunc(coeff)
        elif not isinstance(coeff, RatFunc):
            coeff = _coeff(coeff)
        if coeff:
            clean[mu] = coeff
    return clean


class _Expr:
    """Homogeneous element of one basis: sum of coeff * <letter>_mu, each
    coeff a Scalar or a RatFunc."""

    __slots__ = ("degree", "terms")
    letter = ""  # the basis letter, set by each subclass

    def __init__(self, degree: int, terms: Mapping[Partition, Coeff]):
        self.degree = degree
        self.terms = _clean_terms(degree, terms)

    @classmethod
    def _trusted(cls, degree: int, terms: Dict[Partition, Coeff]) -> "_Expr":
        """Internal: takes terms as they are, already clean, as jack()
        builds them on degree_basis(degree) with no zero coefficient."""
        self = object.__new__(cls)
        self.degree = degree
        self.terms = terms
        return self

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.degree == other.degree
                and self.terms == other.terms)

    def __str__(self) -> str:
        return format_expr(self.terms, self.letter)


class PExpr(_Expr):
    """Homogeneous element in the power-sum basis: sum of coeff * p_mu."""

    __slots__ = ()
    letter = "p"


class MExpr(_Expr):
    """Homogeneous element in the monomial basis: sum of coeff * m_lambda."""

    __slots__ = ()
    letter = "m"


def format_expr(terms: Mapping[Partition, Coeff], letter: str) -> str:
    """Deterministic rendering, indices in descending lexicographic order."""
    if not terms:
        return "0"
    pieces = []
    for mu in sorted(terms, reverse=True):
        coeff = terms[mu]
        name = f"{letter}[{format_partition(mu)}]" if mu else "1"
        text = str(coeff)
        if text == "1" and mu:
            pieces.append(name)
        elif mu:
            wrapped = text if text.startswith("(") else f"({text})"
            pieces.append(f"{wrapped}*{name}")
        else:
            pieces.append(text)
    return " + ".join(pieces)


# -- the infinite-variable operator ----------------------------------------


@lru_cache(maxsize=None)
def degree_basis(d: int) -> Tuple[Partition, ...]:
    """Partitions of d in descending lexicographic order (refines dominance)."""
    return tuple(partitions_of_weight(d))


@lru_cache(maxsize=None)
def _operator_count(d: int) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """(L0, L1, L2), the one count of L = L0 + k*L1 + k*p0*L2 on the degree-d
    power-sum basis: integer matrices indexed by degree_basis(d), column mu
    the image of p_mu.  On p_mu the four terms of the module docstring give
    a*b per ordered pair of parts a, b fused (L0), -c per ordered split of a
    part c (L1), -c per part (L2) and c^2 per part (L0 and L1).
    """
    basis = degree_basis(d)
    index = {mu: i for i, mu in enumerate(basis)}
    count = [[[0] * len(basis) for _ in basis] for _ in range(3)]
    for j, mu in enumerate(basis):
        count[0][j][j] = count[1][j][j] = sum(part * part for part in mu)
        count[2][j][j] = -sum(mu)
        for i, part in enumerate(mu):
            rest = mu[:i] + mu[i + 1:]
            for t, other in enumerate(rest):  # fuse two parts
                fused = sorted(rest[:t] + rest[t + 1:] + (part + other,), reverse=True)
                count[0][index[tuple(fused)]][j] += part * other
            for a in range(1, part):  # split one part in an ordered pair
                split = sorted(rest + (a, part - a), reverse=True)
                count[1][index[tuple(split)]][j] -= part
    return tuple(tuple(map(tuple, mat)) for mat in count)


def _entry_maps(d: int) -> List[List[Dict[Tuple[int, int], int]]]:
    """Entry L[nu][mu] of the degree-d block as the map (i, j) -> nonzero
    coefficient of k^i * p0^j, read off the count."""
    return [[{e: c for e, c in zip(((0, 0), (1, 0), (1, 1)), entry) if c}
             for entry in zip(*rows)] for rows in zip(*_operator_count(d))]


# -- basis change -----------------------------------------------------------


@lru_cache(maxsize=None)
def _s_matrix(d: int) -> Tuple[Tuple[int, ...], ...]:
    """S[nu][mu] = coefficient of m_nu in p_mu, both indexed by degree_basis(d).

    The transition matrix from power sums to monomials (Macdonald, I.6):
    S[nu][mu] counts the maps from the parts of mu to the rows of nu that
    fill every row exactly, memoised on the sorted room left in the rows.  A
    map fuses parts of mu, which only moves up in dominance, so S is upper
    triangular in degree_basis order, with diagonal S[mu][mu] = prod_i
    m_i(mu)!, m_i(mu) the multiplicity of the part i.
    """

    @lru_cache(maxsize=None)
    def fillings(parts: Partition, room: Tuple[int, ...]) -> int:
        if not parts:
            return int(not any(room))
        return sum(fillings(parts[1:], tuple(sorted(
            room[:i] + (r - parts[0],) + room[i + 1:], reverse=True)))
            for i, r in enumerate(room) if r >= parts[0])

    basis = degree_basis(d)
    return tuple(tuple(fillings(mu, nu) for mu in basis) for nu in basis)


@lru_cache(maxsize=None)
def _s_inverse(d: int) -> Tuple[Tuple[int, ...], ...]:
    """d! * S^-1, column by column, by back substitution on the triangular S.

    S^-1[mu][nu] = <m_nu, p_mu>/z_mu, the numerator the integer coefficient
    of h_nu in p_mu, and z_mu divides d! (it is the order of a centraliser in
    the symmetric group), so every entry and every step's division is exact.
    """
    s = _s_matrix(d)
    cols = []
    for j in range(len(s)):
        col = [0] * len(s)
        col[j] = factorial(d) // s[j][j]
        for i in range(j - 1, -1, -1):
            col[i] = -sum(s[i][t] * col[t] for t in range(i + 1, j + 1)) // s[i][i]
        cols.append(col)
    return tuple(zip(*cols))


@lru_cache(maxsize=None)
def _monomial_matrices(d: int) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """(M0, M1), M0 + k*M1 the operator on the degree-d monomial basis at
    p0 = 0 (its p0 part is -k*d*p0), indexed by degree_basis(d), column mu
    the image of m_mu.  The closed form (Stanley 1989, Adv. Math. 77, s. 3):
    M0[nu][nu] = sum nu_i^2 and M1[nu][nu] = d + 2*n(nu), n(nu) = sum
    (i-1)*nu_i.  Each pair of parts nu_x >= nu_y and each b < nu_y spread
    the pair to (a, b), a = nu_x + nu_y - b, a zero part dropped, giving mu
    above nu in dominance, and M1[nu][mu] gains -2*(a - b).
    """
    basis = degree_basis(d)
    index = {nu: i for i, nu in enumerate(basis)}
    m0, m1 = ([[0] * len(basis) for _ in basis] for _ in range(2))
    for i, nu in enumerate(basis):
        m0[i][i] = sum(part * part for part in nu)
        m1[i][i] = d + 2 * sum(t * part for t, part in enumerate(nu))
        for (x, p), (y, q) in combinations(enumerate(nu), 2):  # p >= q
            rest = nu[:x] + nu[x + 1:y] + nu[y + 1:]
            for b in range(q):
                a = p + q - b
                mu = tuple(sorted(rest + ((a, b) if b else (a,)), reverse=True))
                m1[i][index[mu]] -= 2 * (a - b)
    return tuple(tuple(map(tuple, mat)) for mat in (m0, m1))


# -- Jack functions ----------------------------------------------------------


class JackFunction(NamedTuple):
    """Monic eigenfunction: m_lambda plus dominance-lower monomial terms.

    At a numeric coupling every m- and p-coordinate is a Scalar, an int when
    integral and else a Fraction; at a coupling in one symbol each is a
    RatFunc.  The coupling and the eigenvalue are RatFuncs either way."""

    lam: Partition
    coupling: RatFunc
    m_expansion: MExpr
    p_expansion: PExpr
    eigenvalue: RatFunc  # includes the -k*|lambda|*p0 scalar, p0 symbolic

    def __str__(self) -> str:
        return str(self.m_expansion)


def jack(lam: Partition, k: Coupling = None) -> JackFunction:
    """Solve the triangular eigenproblem for the monic eigenfunction of lam.

    With k symbolic the solve never degenerates.  At a numeric coupling two
    comparable partitions can share an eigenvalue; that raises
    SingularCouplingError naming the pair.  Incomparable partitions may
    share an eigenvalue even symbolically, which is harmless: their coupling
    coefficient has a vanishing numerator and is set to zero outright.  A
    coupling in two or more symbols raises ValueError.

    The one solve, _solve_dense, runs at k = u/w on dense int lists in the
    coupling's symbol (one-entry lists at a number), where w times the entry
    a + b*k is a*w + b*u.  Coordinate i is nums[i] over one common
    denominator (Bareiss 1968), scale * prod g^e over den, the integer
    contents and the primitive parts of the gaps divided by.  Each new
    coordinate is reduced by trial division, and den keeps only the gaps
    that stay.  A product of primitive gaps with positive leading
    coefficients is one too (Gauss's lemma), so the scalar moves to the
    numerator and the form is canonical, with no gcd at any coupling.  A gap
    divides a numerator wholly or is coprime to it, as the trial division
    needs: the numerator is N(u, w) for a binary form N and the gap L(u, w)
    for a linear form L, u and w coprime, so a common factor vanishes only
    where (u : w) is the zero of L, and then L divides N.

    At a number each coordinate is handed out as the Scalar num / div and
    the eigenvalue is read off its two coefficients in p0, with no
    polynomial arithmetic; at a symbol each coordinate is a RatFunc.
    """
    lam = check_partition(lam)
    kv = _as_value(k)
    symbol, u, w = _coupling_lists(kv)
    coords, nums, den, scale = _solve_dense(lam, kv, u, w)
    d = weight(lam)
    basis = degree_basis(d)
    m_exp = {lam: _ONE if symbol else 1}
    m_exp.update((basis[row], _dense_coordinate(symbol, *c)) for row, c in coords.items())
    div = scale * factorial(d)
    p_exp = {mu: _dense_coordinate(symbol, *_dense_cancel(c, den), div)
             for mu, c in zip(basis, _p_numerators(d, nums)) if c}
    top = basis.index(lam)
    a_top, b_top = (m[top][top] for m in _monomial_matrices(d))
    if symbol is None:
        # (a + b*k) + (-k*d)*p0 at k = u/w, term by term
        u0, w0 = (u[0] if u else 0), w[0]
        terms = {(e,): _coeff(Fraction(c, w0)) for e, c in
                 ((0, a_top * w0 + b_top * u0), (1, -d * u0)) if c}
        eigen = RatFunc._raw(MultiPoly._raw(("p0",), terms), _ONE.den)
    else:
        # a + kv*(b - d*p0) over kv.den: with kv reduced, a factor of kv.den
        # that divides the numerator divides b - d*p0, so it involves p0
        e_num = kv.den * a_top + kv.num * (b_top - d * P0.num)
        eigen = (RatFunc(e_num, kv.den) if "p0" in kv.den.symbols or not e_num
                 else RatFunc._raw(e_num, kv.den))
    return JackFunction(lam, kv, MExpr._trusted(d, m_exp), PExpr._trusted(d, p_exp), eigen)


def _coupling_lists(kv: RatFunc):
    """(symbol, u, w) with kv = u/w, u and w dense int lists in the one
    symbol of kv; a number u/w gives (None, [u], [w]), with u = [] at 0.
    Raises ValueError for a coupling in two or more symbols."""
    symbols = set(kv.num.symbols) | set(kv.den.symbols)
    if len(symbols) > 1:
        raise ValueError(f"coupling k = {kv} is in {len(symbols)} symbols; "
                         f"a Jack function takes a number or one symbol")
    lcm = math.lcm(*(c.denominator for c in kv.num.terms.values()))

    def dense(poly: MultiPoly) -> list:
        out = [0] * (max(map(sum, poly.terms), default=-1) + 1)
        for e, c in poly.terms.items():
            out[sum(e)] = _coeff(c * lcm)
        return out

    return (symbols.pop() if symbols else None), dense(kv.num), dense(kv.den)


def _solve_dense(lam: Partition, kv: RatFunc, u: list, w: list):
    """jack()'s triangular solve at k = kv = u/w, u and w dense int lists
    in one symbol, as are every numerator and gap: at k the entry a + b*k
    is [a, b], and at 1/k, u = [1] and w = [0, 1], the swapped pair [b, a].
    At a number every list has at most one entry, so every gap is its own
    content and den stays empty.

    Returns (coords, nums, den, scale).  Coordinate row of the m-expansion
    is nums[row] / (scale * prod g^e over den), each gap g a tuple, and
    coords[row] = (num, left, div) is the same in lowest terms,
    num / (div * prod g^e over left); the top coordinate is 1.
    """
    d = weight(lam)
    basis, (m0, m1) = degree_basis(d), _monomial_matrices(d)
    top = basis.index(lam)
    a_top, b_top = m0[top][top], m1[top][top]
    entries: Dict[Tuple[int, int], list] = {}

    def entry(a: int, b: int) -> list:
        key = (a, b)
        if key not in entries:
            out = [0] * max(len(u), len(w))
            for i, x in enumerate(w):
                out[i] += a * x
            for i, x in enumerate(u):
                out[i] += b * x
            entries[key] = _trim(out)
        return entries[key]

    scale, den, nums, coords = 1, {}, {top: [1]}, {}
    for row in range(top + 1, len(basis)):
        r0, r1 = m0[row], m1[row]
        s: list = []
        for col, c in nums.items():
            if r0[col] or r1[col]:
                _madd(s, entry(r0[col], r1[col]), c)
        _trim(s)
        gap = entry(a_top - r0[row], b_top - r1[row])
        if not gap:
            # below lam the coordinate is s/0 or 0/0, undetermined either
            # way; an incomparable row with s = 0 is harmless
            if s or dominance_leq(basis[row], lam):
                raise SingularCouplingError(kv, lam, basis[row])
            continue
        if not s:
            continue
        content, g = _dense_primitive(gap)
        g = tuple(g)
        s, left = _dense_cancel(s, {**den, g: den.get(g, 0) + 1} if len(g) > 1 else den)
        scale *= content
        coords[row] = (s, left, scale)
        extra = {h: e - den.get(h, 0) for h, e in left.items() if e > den.get(h, 0)}
        if extra:
            grow = [x * content for x in _dense_product(extra)]
            nums = {col: _dense_mul(c, grow) for col, c in nums.items()}
        elif content != 1:  # a scalar, as at every number
            for c in nums.values():  # in place: no list in nums is shared
                for i, x in enumerate(c):
                    c[i] = x * content
        den.update({h: den.get(h, 0) + e for h, e in extra.items()})
        nums[row] = _dense_mul(s, _dense_product(
            {h: e - left.get(h, 0) for h, e in den.items() if e > left.get(h, 0)}))
    return coords, nums, den, scale


def _p_numerators(d: int, nums: Mapping[int, list]) -> List[list]:
    """d! * S^-1 times the numerators of the m-coordinates, by row of
    degree_basis(d): the numerators of the p-coordinates over d! times the
    same denominator.  Coefficient by coefficient, each a sum of products."""
    rows = list(nums)
    width = max(map(len, nums.values()))
    columns = list(zip(*(c + [0] * (width - len(c)) for c in nums.values())))
    out = []
    for line in _s_inverse(d):
        weights = [line[j] for j in rows]
        out.append(_trim([sum(map(operator.mul, weights, col)) for col in columns])
                   if any(weights) else [])
    return out


def _p_solution(lam: Partition, kv: RatFunc, u: list, w: list):
    """(p_nums, den, div): p-coordinate mu of jack(lam, kv) is
    p_nums[i] / (div * prod g^e over den), mu = degree_basis(d)[i], at
    kv = u/w in one symbol."""
    _, nums, den, scale = _solve_dense(lam, kv, u, w)
    d = weight(lam)
    return _p_numerators(d, nums), den, scale * factorial(d)


def _dense_coordinate(symbol: Optional[str], num: list,
                      gaps: Mapping[tuple, int], div: int) -> Coeff:
    """num / (div * prod g^e over gaps), num coprime to the gaps: at a
    number (symbol None, num one entry, no gaps) the Scalar num[0] / div,
    an int when integral; in a symbol the RatFunc."""
    if symbol is None:
        q, r = divmod(num[0], div)
        return Fraction(num[0], div) if r else q
    return RatFunc._raw(_dense_poly(symbol, num, Fraction(1, div)),
                        _dense_poly(symbol, _dense_product(gaps)))


# -- the coupling-inversion map ---------------------------------------------


def _laurent(terms: Mapping[Tuple[int, int], Fraction]) -> RatFunc:
    """sum c * k^i * p0^j in canonical form with no gcd: for low < 0 the
    numerator over k^-low has a k-free term, so it is coprime to k."""
    low = min((i for i, _ in terms if i < 0), default=0)
    return RatFunc._raw(MultiPoly(("k", "p0"), {(i - low, j): c for (i, j), c
                                                in terms.items()}), K.num ** -low)


def _conjugation_sides(d: int):
    """(nu, mu, lhs, rhs) for each entry L[nu][mu] of the degree-d block, as
    exponent maps: lhs = L * k^(len(mu) - len(nu)) shifts the power of k,
    and rhs = k * L(1/k, k*p0) sends k^i * p0^j to k^(1 - i + j) * p0^j."""
    basis = degree_basis(d)
    for nu, row in zip(basis, _entry_maps(d)):
        for mu, terms in zip(basis, row):
            shift = len(mu) - len(nu)
            yield (nu, mu, {(i + shift, j): c for (i, j), c in terms.items()},
                   {(1 - i + j, j): c for (i, j), c in terms.items()})


def check_conjugation(d: int) -> CheckResult:
    """Conjugating the degree-d block by the rescaling map inverts the coupling:
    theta o L_{k, p0} o theta^(-1) = k * L_{1/k, k*p0}, entry by entry with k
    and p0 symbolic, both sides read off the entry's map."""
    witness = next((f"entry ({format_partition(nu)}, {format_partition(mu)}): "
                    f"{_laurent(lhs)} != {_laurent(rhs)}"
                    for nu, mu, lhs, rhs in _conjugation_sides(d) if lhs != rhs), "")
    return CheckResult(
        check_id=f"jack/conjugation/d={d}",
        holds=not witness,
        inputs=(("degree", str(d)),),
        lhs="theta . L(k, p0) . theta^-1",
        rhs="k * L(1/k, k*p0)",
        notes=witness or "transformed scalar is k*p0",
    )


def _duality_factors(lam: Partition) -> Tuple[Fraction, Dict[tuple, int]]:
    """(scale, factors) with the closed form c(lam) = scale * prod f^e over
    {f: e}, each f a primitive linear form in k as a dense tuple."""
    conj = transpose(lam)
    contents, factors = [(-1) ** weight(lam), 1], {}
    for i, row in enumerate(lam):
        for j in range(row):
            arm, leg = row - j - 1, conj[j] - i - 1
            for form, e in (([arm + 1, -leg], 1), ([arm, -(leg + 1)], -1)):
                content, part = _dense_primitive(_trim(form))
                contents[e < 0] *= content
                if len(part) > 1:
                    part = tuple(part)
                    factors[part] = factors.get(part, 0) + e
    return Fraction(*contents), factors


def _factor_form(scale: Fraction, factors: Mapping[tuple, int]) -> RatFunc:
    """The canonical RatFunc in k of scale * prod f^e over {f: e}, the f
    distinct primitive linear forms, expanded on lists."""
    num = _dense_product({f: e for f, e in factors.items() if e > 0})
    den = _dense_product({f: -e for f, e in factors.items() if e < 0})
    return RatFunc._raw(_dense_poly("k", num, _coeff(scale)), _dense_poly("k", den))


# the couplings k = u/w, with u = k and w = 1, and 1/k, with the two
# swapped: the entry a*w + b*u is [a, b] at k and [b, a] at 1/k
_AT_K = (K, [0, 1], [1])
_AT_INVERSE = (1 / K, [1], [0, 1])


def _symbolic_duality(lam: Partition) -> RatFunc:
    """macdonald_duality at symbolic k, on lists.  With P(lam, k)[mu] =
    L[mu] / (dl * Dl) and P(lam', 1/k)[mu] = R[mu] / (dr * Dr), Dl and Dr
    products of gaps, and c = (p/q) * C+ / C-, the duality at mu is
    L[mu] * dr*q * Dr*C- = R[mu] * dl*p * Dl*C+ * k^len(mu); the factors
    the two products share are cancelled once."""
    left, l_den, l_div = _p_solution(lam, *_AT_K)
    right, r_den, r_div = _p_solution(transpose(lam), *_AT_INVERSE)
    scale, factors = _duality_factors(lam)
    over, under = dict(r_den), dict(l_den)
    for f, e in factors.items():
        side = under if e > 0 else over
        side[f] = side.get(f, 0) + abs(e)
    for f in over.keys() & under.keys():
        common = min(over[f], under[f])
        over[f] -= common
        under[f] -= common
    l_by = [x * r_div * scale.denominator for x in _dense_product(over)]
    r_by = [x * l_div * scale.numerator for x in _dense_product(under)]
    c = _factor_form(scale, factors)
    for i, mu in enumerate(degree_basis(weight(lam))):
        lhs, rhs = _dense_mul(left[i], l_by), _dense_mul(right[i], r_by)
        if lhs != ([0] * len(mu) + rhs if rhs else rhs):
            sides = [_dense_coordinate("k", *_dense_cancel(n, den), div) if n else _ZERO
                     for n, den, div in ((left[i], l_den, l_div),
                                         (right[i], r_den, r_div))]
            raise ArithmeticError(_duality_failure(lam, mu, *sides, c))
    return c


def _duality_failure(lam: Partition, mu: Partition, left: Coeff,
                     right: Coeff, c: Coeff) -> str:
    return (f"duality fails for {format_partition(lam)}: the first "
            f"mismatch is p[{format_partition(mu)}], with {left} in "
            f"P(lambda, k) and {right} in P(lambda', 1/k), against c = {c}")


def macdonald_duality(lam: Partition, k: Coupling = None) -> RatFunc:
    """The scalar c with theta(P(lam, k)) = c * P(lam', 1/k), checked.

    c is the closed form of the module docstring, built from its linear
    factors in k.  The duality holds when P(lam, k)[mu] * k^-len(mu) =
    c * P(lam', 1/k)[mu] for every mu, cross-multiplied, so nothing is
    divided: at symbolic k on the lists of the two solves and c's factors
    (_symbolic_duality), with no JackFunction built; at any other coupling
    k = u/w, a number or one symbol, on the two eigenfunctions, with c
    substituted.  Raises ArithmeticError naming lam and the first mu where
    it fails, and ValueError, as jack() does, at a coupling in two or more
    symbols.
    """
    lam = check_partition(lam)
    if k is None:
        return _symbolic_duality(lam)
    kv = _as_value(k)
    if kv.is_zero():
        raise ZeroDivisionError("coupling inversion needs k != 0")
    lhs = jack(lam, kv).p_expansion.terms
    rhs = jack(transpose(lam), 1 / kv).p_expansion.terms
    c = _factor_form(*_duality_factors(lam)).substitute({"k": kv})
    for mu in degree_basis(weight(lam)):
        # a number's Scalar coordinates compare as RatFunc constants
        left, right = RatFunc.const(lhs.get(mu, 0)), RatFunc.const(rhs.get(mu, 0))
        if (left.num * right.den * c.den * kv.den ** len(mu)
                != right.num * left.den * c.num * kv.num ** len(mu)):
            raise ArithmeticError(_duality_failure(lam, mu, left, right, c))
    return c


# -- finite-variable side ----------------------------------------------------


def _zvars(n: int) -> List[str]:
    return [f"z{i}" for i in range(1, n + 1)]


@lru_cache(maxsize=None)
def _p_of_z(mu: Partition, n: int) -> MultiPoly:
    """p_mu(z_1, ..., z_n), memoised along the prefixes of mu."""
    if n < 1:
        raise ValueError("need at least one variable")
    if not mu:
        return MultiPoly.const(1)
    return _p_of_z(mu[:-1], n) * MultiPoly(
        _zvars(n), {tuple(mu[-1] * (i == j) for i in range(n)): 1 for j in range(n)})


def _euler_and_pairs(num: MultiPoly, n: int) -> Tuple[MultiPoly, MultiPoly]:
    """(E, P) with L_N num = E - k*P for a polynomial num in z_1..z_n:
    E = sum_i (z_i d/dz_i)^2 num and P = sum_{i<j} (z_i + z_j) * q, where
    q = g / (z_i - z_j) and g = (z_i d/dz_i - z_j d/dz_j) num.  The division
    is done in closed form: at fixed other exponents and a + b = s, the
    coefficient of z_i^(a-1) z_j^(s-a) in q is the sum of the coefficients
    of z_i^t z_j^(s-t) in g over t >= a, and a nonzero sum over all t is a
    remainder, which raises ExactDivisionError."""
    # aligned with z_1 * ... * z_n, every z has a position
    syms, terms, _ = MultiPoly._aligned(num, MultiPoly(_zvars(n), {(1,) * n: 1}))
    pos = sorted((syms.index(name), name) for name in _zvars(n))
    euler = {e: c * sum(e[i] ** 2 for i, _ in pos) for e, c in terms.items()}
    pairs = {}
    for (i, x), (j, y) in combinations(pos, 2):  # i < j
        rows = {}  # g by the other exponents and s, as {a: coefficient}
        for e, c in terms.items():
            if e[i] != e[j]:
                row = rows.setdefault((e[:i], e[i + 1:j], e[j + 1:], e[i] + e[j]), {})
                row[e[i]] = c * (e[i] - e[j])
        for (head, mid, tail, s), row in rows.items():
            acc = 0
            for a in range(s, 0, -1):  # acc: coefficient of z_i^(a-1) z_j^(s-a) in q
                acc += row.get(a, 0)
                for t in (a, a - 1) if acc else ():  # times z_i + z_j
                    key = head + (t,) + mid + (s - t,) + tail
                    pairs[key] = pairs.get(key, 0) + acc
            if acc + row.get(0, 0):
                raise ExactDivisionError(f"pairwise term not divisible by {x} - "
                                         f"{y}; the input is not symmetric")
    return MultiPoly(syms, euler), MultiPoly(syms, pairs)


def check_diagram(mu: Partition, k: Coupling = None, n: int = 1) -> CheckResult:
    """Projecting to n variables commutes with the operator at p0 = n.

    At k = u/w both sides are integer polynomials in k and z_1..z_n over w:
    down sums column mu of the count at p0 = n against p_nu(z), across
    applies L_N to p_mu(z).  A failure names the first differing monomial.
    """
    mu = check_partition(mu)
    kv, d = _as_value(k), weight(mu)
    basis = degree_basis(d)
    j = basis.index(mu)
    down = MultiPoly.const(0)
    for nu, l0, l1, l2 in zip(basis, *_operator_count(d)):
        if l0[j] or l1[j] or l2[j]:
            down = down + _p_of_z(nu, n) * (kv.den * l0[j] + kv.num * (l1[j] + n * l2[j]))
    euler, pairs = _euler_and_pairs(_p_of_z(mu, n), n)
    across = euler * kv.den - pairs * kv.num
    syms, left, right = MultiPoly._aligned(down, across)
    e = max((e for e in left.keys() | right.keys()
             if left.get(e, 0) != right.get(e, 0)), key=_grlex, default=None)
    # a constant denominator is 1 in normal form: each side renders as itself
    lhs, rhs = ((down, across) if kv.den.is_const()
                else (RatFunc(down, kv.den), RatFunc(across, kv.den)))
    return CheckResult(
        check_id=f"jack/diagram/{format_partition(mu)}/N={n}",
        holds=e is None,
        inputs=(("mu", format_partition(mu)), ("N", str(n))),
        lhs=str(lhs),
        rhs=str(rhs),
        notes="" if e is None else (
            f"{MultiPoly._raw(syms, {e: 1})} has coefficient {left.get(e, 0)} "
            f"in lhs and {right.get(e, 0)} in rhs"),
    )


# -- report drivers -----------------------------------------------------------


def verify_conjugation(max_degree: int = 6) -> VerificationReport:
    report = VerificationReport(suite="jack-conjugation",
                                config={"maxDegree": max_degree})
    report.extend(check_conjugation(d) for d in range(1, max_degree + 1))
    report.sort()
    return report


def verify_duality(max_weight: int = 6) -> VerificationReport:
    """Macdonald duality for every partition up to the weight bound, k symbolic."""
    report = VerificationReport(suite="jack-macdonald",
                                config={"maxWeight": max_weight})
    for lam in partitions_up_to_weight(max_weight):
        if not lam:
            continue
        try:
            holds, notes = True, f"c = {macdonald_duality(lam)}"
        except ArithmeticError as exc:
            holds, notes = False, str(exc)
        report.add(CheckResult(
            check_id=f"jack/macdonald/{format_partition(lam)}",
            holds=holds,
            inputs=(("lambda", format_partition(lam)),),
            lhs="theta(P(lambda, k))",
            rhs="c * P(lambda', 1/k)",
            notes=notes,
        ))
    report.sort()
    return report


def verify_diagram(max_weight: int = 5, max_n: int = 4) -> VerificationReport:
    report = VerificationReport(
        suite="jack-diagram", config={"maxWeight": max_weight, "maxN": max_n})
    report.extend(check_diagram(mu, None, n)
                  for mu in partitions_up_to_weight(max_weight) if mu
                  for n in range(1, max_n + 1))
    report.sort()
    return report

# -- independent cross-checks --------------------------------------------------


@lru_cache(maxsize=None)
def _horizontal_strips(lam: Partition) -> Tuple[Tuple[Partition, int], ...]:
    """Inner shapes nu with lam/nu a horizontal strip, with the strip size."""
    bounds = list(zip(lam[1:] + (0,), lam))
    out: List[Tuple[Partition, int]] = []

    def rec(i: int, acc: List[int], removed: int):
        if i == len(bounds):
            out.append((check_partition(tuple(acc)), removed))
            return
        low, high = bounds[i]
        for v in range(low, high + 1):
            rec(i + 1, acc + [v], removed + (high - v))

    rec(0, [], 0)
    return tuple(out)


@lru_cache(maxsize=None)
def _kostka_count(shape: Partition, entries: Partition) -> int:
    """Fillings of shape with content entries, peeling the strip of the
    largest entry; memoised across calls, as shape and entries recur."""
    if not entries:
        return 1 if not shape else 0
    return sum(_kostka_count(inner, entries[:-1])
               for inner, removed in _horizontal_strips(shape)
               if removed == entries[-1])


def kostka_number(lam: Partition, mu: Partition) -> int:
    """Count column-strict fillings of shape lam with content mu."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if weight(lam) != weight(mu):
        return 0
    return _kostka_count(lam, mu)


def schur_m_expansion(lam: Partition) -> MExpr:
    """The Schur function of lam in the monomial basis, by tableau counting.

    Entirely combinatorial: no operator, no eigenproblem; this is the
    independent oracle the coupling -1 specialization is tested against.
    """
    lam = check_partition(lam)
    d = weight(lam)
    return MExpr(d, {mu: c for mu in partitions_of_weight(d)
                     if (c := kostka_number(lam, mu))})


def check_schur(lam: Partition) -> CheckResult:
    """At coupling -1 the eigenfunction is the Schur function."""
    lam = check_partition(lam)
    computed = jack(lam, -1).m_expansion
    expected = schur_m_expansion(lam)
    return CheckResult(
        check_id=f"jack/schur/{format_partition(lam)}",
        holds=computed == expected,
        inputs=(("lambda", format_partition(lam)),),
        lhs=str(computed),
        rhs=str(expected),
    )


def _product_columns(a, b) -> List[List[int]]:
    """The columns of the integer product a . b, over nonzero entries only."""
    cols = [[(i, v) for i, v in enumerate(col) if v] for col in zip(*a)]
    out = [[0] * len(a) for _ in b]
    for j, col in enumerate(zip(*b)):
        for t, v in enumerate(col):
            for i, x in cols[t] if v else ():
                out[j][i] += x * v
    return out


def check_triangularity(d: int) -> CheckResult:
    """In the monomial basis the operator only moves weight down in dominance.

    Two routes: the pair formula's support lies in the dominance-lower
    triangle (else the first entry outside it is the witness), and it is
    the count seen through S, S . L_i = M_i . S for i = 0, 1, on sparse
    integer columns (else the first differing column)."""
    basis, s = degree_basis(d), _s_matrix(d)
    m0, m1 = pair = _monomial_matrices(d)
    above = (f"entry ({format_partition(nu)}, {format_partition(mu)}) = "
             f"{m0[i][j] + m1[i][j] * K}"
             for i, nu in enumerate(basis) for j, mu in enumerate(basis)
             if (m0[i][j] or m1[i][j]) and not dominance_leq(nu, mu))
    apart = (f"S.L{i} != M{i}.S in column {format_partition(mu)}"
             for i, (lmat, mmat) in enumerate(zip(_operator_count(d), pair))
             for mu, lhs, rhs in zip(basis, _product_columns(s, lmat),
                                     _product_columns(mmat, s)) if lhs != rhs)
    bad = next(chain(above, apart), "")
    return CheckResult(
        check_id=f"jack/triangular/d={d}",
        holds=not bad,
        inputs=(("degree", str(d)),),
        lhs="support of the monomial-basis matrix",
        rhs="dominance-lower triangle",
        notes=bad,
    )


def check_p0_scalar(d: int) -> CheckResult:
    """The p0 dependence of the degree-d block is the scalar -k*d*p0: the
    p0 terms of the entry maps are {(1, 1): -d} on the diagonal, none off it."""
    holds = all({e: c for e, c in terms.items() if e[1]}
                == ({(1, 1): -d} if i == j else {})
                for i, row in enumerate(_entry_maps(d))
                for j, terms in enumerate(row))
    return CheckResult(
        check_id=f"jack/p0-scalar/d={d}",
        holds=holds,
        inputs=(("degree", str(d)),),
        lhs="L(k, p0) - L(k, 0)",
        rhs="-k*d*p0 * identity",
    )


def verify_structure(max_degree: int = 6) -> VerificationReport:
    """Triangularity and the scalar p0 dependence, degree by degree."""
    report = VerificationReport(suite="jack-structure",
                                config={"maxDegree": max_degree})
    report.extend(check(d) for d in range(1, max_degree + 1)
                  for check in (check_triangularity, check_p0_scalar))
    report.sort()
    return report


def verify_schur(max_weight: int = 6) -> VerificationReport:
    report = VerificationReport(suite="jack-schur",
                                config={"maxWeight": max_weight})
    report.extend(check_schur(lam) for lam in partitions_up_to_weight(max_weight)
                  if lam)
    report.sort()
    return report
