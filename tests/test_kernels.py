"""Term kernels: ring laws, the deferred-normalisation multiply against a
naive Fraction double loop, the coefficient rule over a whole sweep, and
the module attributes as the one place their callers reach them."""

import importlib
import pkgutil
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

import negdim
from negdim import kernels
from negdim.cli import run_verify_all
from negdim.exact_algebra import MultiPoly, RatFunc

fractions = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6)


@st.composite
def term_dicts(draw, width=3, max_terms=5, max_exp=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, max_exp)) for _ in range(width))
        coeff = draw(fractions)
        if coeff:
            terms[exps] = coeff
    return terms


def naive_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {key: c for key, c in out.items() if c}


def test_backend_names():
    assert kernels.active_backend() == "python"
    assert kernels.available_backends() == ["python"]


@given(term_dicts(), term_dicts())
@settings(max_examples=40, deadline=None)
def test_python_kernel_ring_laws(a, b):
    zero = {}
    assert kernels.poly_add(a, zero) == a
    assert kernels.poly_sub(a, a) == zero
    assert kernels.poly_mul(a, b) == kernels.poly_mul(b, a)


@given(term_dicts(), term_dicts())
# unequal denominators: x collects 1/2 * -1/2 + 1/3 * 1/3 = -5/36
@example({(1,): Fraction(1, 2), (0,): Fraction(1, 3)},
         {(1,): Fraction(1, 3), (0,): Fraction(-1, 2)})
# (x/2 - 1/3)(x + 2/3): the x terms 2/6 and -1/3 cancel across unequal
# unreduced denominators and must leave no zero entry
@example({(1,): Fraction(1, 2), (0,): Fraction(-1, 3)},
         {(1,): Fraction(1), (0,): Fraction(2, 3)})
@example({}, {(1, 2): Fraction(3, 5)})
@example({(1, 2): Fraction(3, 5)}, {})
@example({}, {})
@settings(max_examples=80, deadline=None)
def test_mul_matches_naive_double_loop(a, b):
    product = kernels.poly_mul(a, b)
    assert product == naive_mul(a, b)
    # the coefficient rule: int when integral, else a Fraction with a
    # denominator above 1
    assert all(c and (type(c) is int or (type(c) is Fraction and c.denominator > 1))
               for c in product.values())


@given(term_dicts(), term_dicts())
@settings(max_examples=80, deadline=None)
def test_mul_cancels_planted_cross_terms(a, s):
    # (a + s)(a - s): each cross term a*s meets s*(-a) inside one multiply
    # and must cancel exactly, leaving a^2 - s^2 with no zero entries
    product = kernels.poly_mul(kernels.poly_add(a, s), kernels.poly_sub(a, s))
    assert product == kernels.poly_sub(naive_mul(a, a), naive_mul(s, s))
    assert all(product.values())


def test_coefficient_rule_holds_through_a_sweep(monkeypatch):
    # every coefficient the four kernels return over a whole sweep is an
    # int, or a Fraction with a denominator above 1: never an integral
    # Fraction and never a float
    seen = {int: 0, Fraction: 0}

    def checked(kernel):
        def wrapped(*args):
            out = kernel(*args)
            for c in out.values():
                assert type(c) is int or (type(c) is Fraction and c.denominator > 1), (
                    kernel.__name__, c)
                seen[type(c)] += 1
            return out
        return wrapped

    for name in ("poly_add", "poly_sub", "poly_mul", "poly_scale"):
        monkeypatch.setattr(kernels, name, checked(getattr(kernels, name)))
    assert run_verify_all(2, 3, 2).all_ok
    assert seen[int] > 0
    # rationals handed out stay Fraction, also for an int coefficient
    assert type(MultiPoly.const(3).as_fraction()) is Fraction
    assert type(RatFunc.const(3).as_fraction()) is Fraction


KERNELS = ("poly_add", "poly_sub", "poly_mul", "poly_scale")


def _held(value):
    """value and, for a tuple, list, set or dict, everything it holds."""
    yield value
    if isinstance(value, dict):
        for item in (*value.keys(), *value.values()):
            yield from _held(item)
    elif isinstance(value, (tuple, list, set, frozenset)):
        for item in value:
            yield from _held(item)


def test_no_module_holds_a_kernel_of_its_own():
    # callers reach the kernels as kernels.poly_*, so wrapping the module
    # attributes sees every call; a kernel bound at import time, by name or
    # inside a container, would run unseen by such a wrapper
    kernel_ids = {id(getattr(kernels, name)): name for name in KERNELS}
    held = []
    for info in pkgutil.iter_modules(negdim.__path__, "negdim."):
        if info.name == "negdim.kernels":
            continue
        module = importlib.import_module(info.name)
        for attr, value in vars(module).items():
            for item in _held(value):
                if id(item) in kernel_ids:
                    held.append(f"{info.name}.{attr} holds "
                                f"{kernel_ids[id(item)]}")
    assert held == []
