"""Per-layer tracing of negdim, installed from outside the program.

``Tracer.install()`` replaces the public functions of negdim's modules, and
the class methods named below, with wrappers that time each call.  The
layers are the modules; exact_algebra is split into its three roles
(MultiPoly arithmetic, gcd and normal form, evaluation).

Every wrapped call keeps a frame on one stack, so a layer's self time is
its calls' durations minus the time of the wrapped calls they made, and its
busy time counts only calls not nested inside another call of the same
name.  Domain, evaluation, reporting and CLI calls also leave a span
(id, parent, trace id, name, start, end) in memory; the hot arithmetic
boundaries (kernels, MultiPoly dunders, RatFunc construction, gcd) are
only aggregated, because they run up to millions of times per run.
``write_spans`` writes the spans once the run is over.

The wrappers return what the wrapped function returns and re-raise what it
raises, so negdim's output is unchanged under tracing.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from stats import percentile, tail

perf = time.perf_counter

DOMAIN_MODULES = ("casimir", "jack", "dims", "spaces")

# check functions: each call is one check, with its own trace id
_CHECKS = {"casimir": ("check_",), "jack": ("check_", "macdonald_duality"),
           "dims": ("check_", "king_check"), "spaces": ("check_",)}

# method wrappers: (module, class, method) -> metric name
_ARITH = "exact_algebra.multipoly_arith"
_METHODS = {
    ("exact_algebra", "MultiPoly", m): _ARITH
    for m in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
              "__mul__", "__rmul__", "__pow__")
}
_METHODS.update({
    ("exact_algebra", "RatFunc", "__init__"): "exact_algebra.ratfunc_new",
    ("exact_algebra", "RatFunc", "substitute"): "exact_algebra.substitute",
    ("reporting", "VerificationReport", "as_dict"): "reporting.render",
    ("reporting", "VerificationReport", "render_text"): "reporting.render",
    ("reporting", "CheckResult", "as_dict"): "reporting.render",
})

# module-function wrappers outside the domain modules: (module, function)
_FUNCTIONS = {
    ("exact_algebra", "poly_gcd"): "exact_algebra.poly_gcd",
    ("exact_algebra", "poly_exact_div"): "exact_algebra.poly_exact_div",
    ("exact_algebra", "ratfunc_equal"): "exact_algebra.ratfunc_equal",
    ("exact_algebra", "series_expand"): "exact_algebra.series_expand",
    ("cli", "main"): "cli.main",
}

_KERNELS = {"poly_add": "kernels.poly_addsub", "poly_sub": "kernels.poly_addsub",
            "poly_mul": "kernels.poly_mul", "poly_scale": "kernels.poly_scale"}

# names that are aggregated only, never kept as spans
_AGGREGATED = {_ARITH, "exact_algebra.ratfunc_new", "exact_algebra.poly_gcd",
               "exact_algebra.poly_exact_div"}


def layer_of(name: str) -> str:
    """Layer of a metric name: the module, with exact_algebra split by role."""
    head, _, rest = name.partition(".")
    if head != "exact_algebra":
        return head
    if rest == "multipoly_arith":
        return "multipoly_arith"
    if rest in ("poly_gcd", "poly_exact_div", "ratfunc_new"):
        return "gcd"
    return "evaluation"


def _coeff_bits(poly) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in poly.terms.values()), default=0)


class Tracer:
    def __init__(self):
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.busy_s: Dict[str, float] = defaultdict(float)
        self.layer_busy_s: Dict[str, float] = defaultdict(float)
        self.check_ms: Dict[str, List[float]] = defaultdict(list)
        self.counters: Dict[str, int] = defaultdict(int)
        self.spans: List[tuple] = []
        self.trace_id = ""
        self._depth: Dict[str, int] = defaultdict(int)
        self._layer_depth: Dict[str, int] = defaultdict(int)
        # frames: [child seconds, span id of the nearest spanned ancestor]
        self._stack: List[list] = [[0.0, 0]]
        self._restore: List[tuple] = []
        self._checks = 0
        self.t0 = perf()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, check: bool = False,
              on_exit: Optional[Callable] = None) -> Callable:
        layer = layer_of(name)
        spanned = name not in _AGGREGATED
        stack, depth, layer_depth = self._stack, self._depth, self._layer_depth
        calls, self_s, busy_s = self.calls, self.self_s, self.busy_s
        layer_busy, spans = self.layer_busy_s, self.spans
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = len(spans) + 1 if spanned else parent[1]
            if spanned:
                spans.append(None)  # reserve the id; filled in on exit
            frame = [0.0, span_id]
            stack.append(frame)
            depth[name] += 1
            layer_depth[layer] += 1
            if check:
                saved_trace = tracer.trace_id
                tracer._checks += 1
                tracer.trace_id = f"{saved_trace}/check{tracer._checks}"
            start = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                parent[0] += dur
                calls[name] += 1
                self_s[name] += dur - frame[0]
                depth[name] -= 1
                if not depth[name]:
                    busy_s[name] += dur
                layer_depth[layer] -= 1
                if not layer_depth[layer]:
                    layer_busy[layer] += dur
                if spanned:
                    spans[span_id - 1] = (span_id, parent[1], tracer.trace_id,
                                          name, start - tracer.t0,
                                          end - tracer.t0)
                if check:
                    tracer.check_ms[layer].append(dur * 1e3)
                    tracer.trace_id = saved_trace
            if on_exit is not None:
                # counted as a child of the caller, so the bookkeeping is
                # charged to no layer's self time
                hook_start = perf()
                on_exit(args, out)
                parent[0] += perf() - hook_start
            return out

        return wrapper

    def _wrap_kernel(self, name: str, fn: Callable) -> Callable:
        """Leaf wrapper for the term kernels: counts and busy time only."""
        stack, calls, busy_s = self._stack, self.calls, self.busy_s
        counters = self.counters
        pairs = name == "kernels.poly_mul"

        def wrapper(a, b):
            start = perf()
            out = fn(a, b)
            dur = perf() - start
            stack[-1][0] += dur
            calls[name] += 1
            busy_s[name] += dur
            if pairs:
                counters["term_pairs"] += len(a) * len(b)
            if len(out) > counters["peak_terms"]:
                counters["peak_terms"] = len(out)
            return out

        return wrapper

    def _on_gcd(self, args, out) -> None:
        counters = self.counters
        for poly in args:
            counters["peak_terms"] = max(counters["peak_terms"], len(poly.terms))
            counters["peak_coeff_bits"] = max(counters["peak_coeff_bits"],
                                              _coeff_bits(poly))
        if not self._depth["exact_algebra.poly_gcd"]:
            counters["gcd_outer"] += 1
            if not out.is_const():
                counters["gcd_useful"] += 1

    # -- installation ----------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import negdim.cli  # noqa: F401  (imports every layer)

        mods = {name: sys.modules[f"negdim.{name}"]
                for name in ("exact_algebra", "kernels", "reporting", "cli")
                + DOMAIN_MODULES}
        wrapped: Dict[int, Callable] = {}

        for (mod, cls, meth), name in _METHODS.items():
            owner = getattr(mods[mod], cls)
            self._replace(owner, meth, self._wrap(name, owner.__dict__[meth]))
        for (mod, func), name in _FUNCTIONS.items():
            fn = getattr(mods[mod], func)
            on_exit = self._on_gcd if func == "poly_gcd" else None
            wrapped[id(fn)] = self._wrap(name, fn, on_exit=on_exit)
        for mod in DOMAIN_MODULES:
            for func, fn in vars(mods[mod]).items():
                if (inspect.isfunction(fn) and not func.startswith("_")
                        and fn.__module__ == mods[mod].__name__):
                    check = func.startswith(_CHECKS[mod])
                    wrapped[id(fn)] = self._wrap(f"{mod}.{func}", fn, check)
        for func, name in _KERNELS.items():
            self._replace(mods["kernels"], func,
                          self._wrap_kernel(name, getattr(mods["kernels"], func)))

        # rebind every negdim module attribute that holds a wrapped function,
        # including names imported with ``from negdim.x import f``
        for modname, module in list(sys.modules.items()):
            if modname != "negdim" and not modname.startswith("negdim."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._replace(module, attr, wrapped[id(value)])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------------

    def metrics(self, verdict_s: float, output_bytes: int) -> Dict[str, float]:
        """Every per-layer metric, keyed by its BENCHMARK.json name."""
        c, b, s = self.calls, self.busy_s, self.self_s
        out: Dict[str, float] = {}
        for k in ("poly_mul", "poly_addsub", "poly_scale"):
            out[f"kernels.{k}.calls"] = c[f"kernels.{k}"]
            out[f"kernels.{k}.busy_s"] = b[f"kernels.{k}"]
        out["kernels.poly_mul.term_pairs"] = self.counters["term_pairs"]
        out[f"{_ARITH}.calls"] = c[_ARITH]
        out[f"{_ARITH}.self_s"] = s[_ARITH]
        g = "exact_algebra.poly_gcd"
        outer = self.counters["gcd_outer"]
        out.update({f"{g}.calls": c[g], f"{g}.outer_calls": outer,
                    f"{g}.busy_s": b[g], f"{g}.self_s": s[g],
                    f"{g}.useful_ratio":
                        self.counters["gcd_useful"] / outer if outer else 0.0})
        for name in ("poly_exact_div", "ratfunc_equal", "substitute",
                     "series_expand"):
            out[f"exact_algebra.{name}.calls"] = c[f"exact_algebra.{name}"]
            out[f"exact_algebra.{name}.busy_s"] = b[f"exact_algebra.{name}"]
        out["exact_algebra.ratfunc_new.calls"] = c["exact_algebra.ratfunc_new"]
        out["exact_algebra.ratfunc_new.self_s"] = s["exact_algebra.ratfunc_new"]
        out["exact_algebra.peak_terms"] = self.counters["peak_terms"]
        out["exact_algebra.peak_coeff_bits"] = self.counters["peak_coeff_bits"]

        for name in ("block_product", "row_product", "generating_function"):
            out[f"casimir.{name}.busy_s"] = b[f"casimir.{name}"]
        cas = self.check_ms["casimir"]
        out["casimir.check.calls"] = len(cas)
        out["casimir.check.p50_ms"] = percentile(cas, 50) if cas else 0.0
        out["casimir.check.tail_ms"] = tail(cas)[1] if cas else 0.0
        out["casimir.check.max_share"] = max(cas) / sum(cas) if cas else 0.0
        out["jack.jack.calls"] = c["jack.jack"]
        for name in ("jack", "operator_matrix", "m_to_p", "p_to_m",
                     "apply_L_inf", "phi_N", "apply_L_N"):
            out[f"jack.{name}.busy_s"] = b[f"jack.{name}"]
        jck = self.check_ms["jack"]
        out["jack.check.p50_ms"] = percentile(jck, 50) if jck else 0.0
        out["jack.check.tail_ms"] = tail(jck)[1] if jck else 0.0
        for name in ("dim_poly", "weyl_dim"):
            out[f"dims.{name}.calls"] = c[f"dims.{name}"]
            out[f"dims.{name}.busy_s"] = b[f"dims.{name}"]
        out["spaces.busy_s"] = self.layer_busy_s["spaces"]
        out["reporting.render_s"] = b["reporting.render"]
        out["cli.self_s"] = s["cli.main"]
        out["cli.output_bytes"] = output_bytes

        # self-time shares of the traced verdict time, one per layer
        layer_self: Dict[str, float] = defaultdict(float)
        for name, secs in s.items():
            layer_self[layer_of(name)] += secs
        for name in set(_KERNELS.values()):
            layer_self["kernels"] += b[name]
        for layer in ("kernels", "multipoly_arith", "gcd", "evaluation",
                      *DOMAIN_MODULES, "reporting", "cli"):
            out[f"share.{layer}"] = layer_self[layer] / verdict_s
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                if span is None:  # a call still open: cannot happen after a run
                    continue
                sid, parent, trace_id, name, start, end = span
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "trace": trace_id, "name": name,
                                     "start_s": round(start, 7),
                                     "end_s": round(end, 7)}) + "\n")
