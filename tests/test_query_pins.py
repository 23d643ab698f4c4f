"""The benchmark's pinned query outputs, every pinned form.

negbench/pins.json holds the sha256[:16] digest of the standard output of
every query the benchmark can draw: `casimir coeffs`, `spaces dual`,
`jack compute`, `casimir gf` and `dims poly`.  Each form is computed by a
route of its own (coefficients read off the ladders, a space's sizes and
its discrepancy census on its row's rational table, the Jack solve and
dimension polynomials on ints and Fractions at a number), so every pinned
key is run through the CLI here and its digest compared with the pin:
output drift fails the tests, not only the benchmark's gate.  Every key is
run again with polynomial arithmetic refused, since no pinned form needs
it.  The pins are read, never written.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from negdim import casimir, cli, exact_algebra, spaces
from negdim.exact_algebra import MultiPoly, RatFunc

PINS = Path(__file__).resolve().parents[1] / "negbench" / "pins.json"
FORMS = ("casimir coeffs ", "spaces dual ", "jack compute ", "casimir gf ", "dims poly ")


@pytest.fixture(scope="module")
def pinned():
    if not PINS.is_file():
        pytest.skip("the benchmark is not in this checkout")
    with open(PINS) as fh:
        queries = json.load(fh)["queries"]
    return {key: pin for key, pin in queries.items() if key.startswith(FORMS)}


def _digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]


def test_pinned_queries_reproduce(pinned):
    assert {" ".join(key.split()[:2]) + " " for key in pinned} == set(FORMS)
    assert len(pinned) == 966
    drifted = [key for key, pin in sorted(pinned.items())
               if _digest(key.split()) != (0, pin)]
    assert drifted == []


def test_pinned_queries_do_no_polynomial_arithmetic(pinned, monkeypatch):
    # at a number the Jack solve and its rendering stay on ints and
    # Fractions, a dimension polynomial is expanded on one dense list, the
    # Casimir coefficients and generating function are read off the
    # ladders on flat int lists in x, and a space's fields are compared
    # on its rational table: every pinned key reproduces with MultiPoly
    # arithmetic and the exact division refused, each row read afresh
    def refuse(*args):
        raise AssertionError("MultiPoly arithmetic in a pinned query")

    assert not {"ratfunc_equal", "MultiPoly"} & set(vars(spaces))
    for cached in (spaces._compared_symbolically, spaces._reference,
                   spaces._derived, spaces._rational):
        cached.cache_clear()
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__pow__"):
        monkeypatch.setattr(MultiPoly, name, refuse)
    monkeypatch.setattr(exact_algebra, "poly_exact_div", refuse)
    assert len(pinned) == 966
    drifted = [key for key in sorted(pinned) if _digest(key.split()) != (0, pinned[key])]
    assert drifted == []


def test_casimir_gf_builds_only_the_printed_function(pinned, monkeypatch):
    # the spectral product is never built as a RatFunc: at both ranks the
    # one RatFunc a `casimir gf` key builds is the printed generating
    # function, through RatFunc._raw or RatFunc.__init__
    calls = []
    raw, init = RatFunc._raw.__func__, RatFunc.__init__

    def counted_raw(cls, *args):
        calls.append(args)
        return raw(cls, *args)

    def counted_init(self, *args, **kwargs):
        calls.append(args)
        return init(self, *args, **kwargs)

    monkeypatch.setattr(RatFunc, "_raw", classmethod(counted_raw))
    monkeypatch.setattr(RatFunc, "__init__", counted_init)
    keys = [key for key in sorted(pinned) if key.startswith("casimir gf ")]
    assert len(keys) == 102
    made = {}
    for key in keys:
        calls.clear()
        assert _digest(key.split()) == (0, pinned[key])
        made[key] = len(calls)
    assert made == dict.fromkeys(keys, 1)


def test_integer_rank_casimir_keys_use_no_rows(pinned, monkeypatch):
    # at an integer rank the ladders come keyed by K = 2n*m, and the
    # generating function and coefficients run on flat int lists in
    # x = z/(2n) with nothing to decode: every pinned `casimir gf ... --n`
    # and `casimir coeffs ... --mode rows` key reproduces with the symbolic
    # rank's digit width and digit decoding refused, and no helper of a
    # rows-in-n format is left in the module
    def refuse(*args):
        raise AssertionError("symbolic-rank machinery at an integer rank")

    assert not {"Rows", "_rows", "_times", "_divide", "_linear", "_poly",
                "_ratfunc", "_gf_from_factors"} & set(vars(casimir))
    for name in ("_width", "_digits"):
        monkeypatch.setattr(casimir, name, refuse)
    keys = [key for key in sorted(pinned)
            if key.startswith("casimir gf ") and " --n " in key
            or key.startswith("casimir coeffs ") and "--mode rows" in key]
    assert {key.split()[1] for key in keys} == {"gf", "coeffs"}
    drifted = [key for key in keys if _digest(key.split()) != (0, pinned[key])]
    assert drifted == []


def test_casimir_coeffs_use_no_dense_lists(pinned, monkeypatch):
    # the coefficients run one int per power of z at both ranks: every
    # pinned `casimir coeffs` key reproduces with the dense-list product
    # and the one-symbol polynomial builder refused
    def refuse(*args):
        raise AssertionError("a dense list in a coefficient query")

    assert not {"_dense_poly", "_madd"} & set(vars(casimir))
    monkeypatch.setattr(exact_algebra, "_madd", refuse)
    monkeypatch.setattr(exact_algebra, "_dense_poly", refuse)
    keys = [key for key in sorted(pinned) if key.startswith("casimir coeffs ")]
    assert len(keys) == 504
    drifted = [key for key in keys if _digest(key.split()) != (0, pinned[key])]
    assert drifted == []


def test_casimir_keys_use_no_dense_helpers(pinned, monkeypatch):
    # both ranks run on casimir's own flat lists in x, with no
    # multiply-accumulate and no long division from exact_algebra: every
    # pinned `casimir gf` and `casimir coeffs` key reproduces with both
    # refused
    def refuse(*args):
        raise AssertionError("a dense-list helper in a Casimir query")

    assert not {"_madd", "_dense_div", "_dense_primitive"} & set(vars(casimir))
    for name in ("_madd", "_dense_div"):
        monkeypatch.setattr(exact_algebra, name, refuse)
    keys = [key for key in sorted(pinned) if key.startswith("casimir ")]
    assert len(keys) == 606
    drifted = [key for key in keys if _digest(key.split()) != (0, pinned[key])]
    assert drifted == []
