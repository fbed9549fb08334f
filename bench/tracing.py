"""Span tracing for the benchmark's traced runs.

The spans are patched in from outside the package: ``src/`` is never
edited.  A target function is replaced in every ``heiscf`` module
namespace that holds it, including the names bound by ``from ... import``
(``gi_gcd`` lives in ``gaussian`` but is also bound in ``lab.enumerate``
and ``lab.approx``), so calls between layers are seen wherever they are
made.  Methods are patched on their class.

Spans are aggregated in memory by name: calls, self time (the span minus
its child spans) and inclusive time, plus named counters such as the
solutions a ``solve_p_line`` call returned.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

# (module, attribute, span name, counter).  A counter is (suffix, fn): fn
# maps the call's result to an int added to "<span name>.<suffix>".
TARGETS = [
    ("heiscf.gaussian", "gi_gcd", "gaussian.gi_gcd", None),
    ("heiscf.gaussian", "GaussRat.make", "gaussian.GaussRat.make", None),
    ("heiscf.gaussian", "r2_count", "gaussian.r2_count", None),
    ("heiscf.cf", "reconstruct", "cf.reconstruct", None),
    ("heiscf.cf", "expand", "cf.expand", None),
    ("heiscf.cf", "gauss_map_step", "cf.gauss_map_step", None),
    ("heiscf.domain", "DirichletDomain.nearest", "domain.nearest", None),
    ("heiscf.siegel", "group_mul", "siegel.group_mul", None),
    ("heiscf.siegel", "koranyi_inversion", "siegel.koranyi_inversion", None),
    ("heiscf.siegel", "distance_pow4", "siegel.distance_pow4", None),
    ("heiscf.matrices", "mat_mul", "matrices.mat_mul", None),
    ("heiscf.matrices", "mat_apply_triple", "matrices.mat_apply_triple", None),
    *[("heiscf.lab.identities", verifier, "identities.verify",
       ("failed", lambda r: not r.passed))
      for verifier in ("verify_prq", "verify_tildeprq", "verify_fracq",
                       "verify_distance_formula")],
    ("heiscf.lab.approx", "approx_quality", "approx.approx_quality", None),
    ("heiscf.lab.approx", "convergent_distance", "approx.convergent_distance", None),
    ("heiscf.lab.approx", "prop71_check", "approx.prop71_check", None),
    ("heiscf.lab.approx", "candidate_triples", "approx.candidate_triples", None),
    ("heiscf.lab.enumerate", "enumerate_rationals_qnorm", "enumerate.qnorm",
     ("kept", lambda r: r.count)),
    ("heiscf.lab.enumerate", "enumerate_rationals_naive", "enumerate.naive", None),
    ("heiscf.lab.enumerate", "solve_p_line", "enumerate.solve_p_line",
     ("solutions", len)),
    ("heiscf.lab.sampling", "khinchin_experiment", "sampling.khinchin_experiment", None),
    ("heiscf.lab.khinchin", "khinchin_partial_sum", "khinchin.partial_sum", None),
    ("heiscf.lab.random_points", "random_rational_point",
     "random_points.random_rational_point", None),
]

# Namespaces whose binding of a target gets a span of its own.  The
# candidate search calls solve_p_line through lab.approx: there its span
# replaces enumerate.solve_p_line, so the two solution counts stay apart.
# The Khinchin tables call enumerate_rationals_qnorm through lab.sampling:
# there its span wraps enumerate.qnorm and times the table build.
# Values are (span name, counter, wraps the target's own span).
CALLER_SPANS = {
    ("heiscf.lab.approx", "solve_p_line"): (
        "approx.solve_p_line", ("solutions", len), False),
    ("heiscf.lab.sampling", "enumerate_rationals_qnorm"): (
        "sampling.table_build", ("points", lambda r: r.count), True),
}

# sampling.table_build is reported by its inclusive time only.
SPANS = sorted({name for _, _, name, _ in TARGETS} | {"approx.solve_p_line"})


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, as (name, unit)."""
    out = []
    for name in SPANS:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [
        ("identities.verify.failed", "count"),
        ("enumerate.solve_p_line.solutions", "count"),
        ("enumerate.kept_per_solution", "ratio"),
        ("sampling.table_build_s", "s"),
        ("sampling.table_points", "count"),
        ("approx.candidate_triples.yielded", "count"),
        ("approx.solve_p_line.solutions", "count"),
        ("approx.yield_per_solution", "ratio"),
        ("trace.overhead_s", "s"),
    ]
    return out


class Tracer:
    """Installs span wrappers, aggregates spans, and removes the wrappers."""

    def __init__(self):
        self.enabled = True
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counts: dict[str, int] = {}
        self._stack: list[float] = []  # time covered by children of open spans

    # -- spans ---------------------------------------------------------------

    def _close(self, name: str, t0: float, call: bool = True) -> None:
        dt = perf_counter() - t0
        child = self._stack.pop()
        s = self.stats.setdefault(name, [0, 0.0, 0.0])
        s[0] += call
        s[1] += dt - child
        s[2] += dt
        if self._stack:
            self._stack[-1] += dt

    def _count(self, name: str, counter, result) -> None:
        if counter is not None:
            suffix, fn = counter
            key = f"{name}.{suffix}"
            self.counts[key] = self.counts.get(key, 0) + int(fn(result))

    def _wrap(self, fn, name: str, counter):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                if not tracer.enabled:
                    yield from it
                    return
                tracer.stats.setdefault(name, [0, 0.0, 0.0])[0] += 1
                while True:
                    tracer._stack.append(0.0)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(name, t0, call=False)
                    key = f"{name}.yielded"
                    tracer.counts[key] = tracer.counts.get(key, 0) + 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, t0)
            tracer._count(name, counter, result)
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def _set(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "heiscf" or n.startswith("heiscf."))]
        for mod_name, attr, name, counter in TARGETS:
            mod = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    self._set(cls, meth, staticmethod(self._wrap(raw.__func__, name, counter)))
                else:
                    self._set(cls, meth, self._wrap(raw, name, counter))
                continue
            orig = getattr(mod, attr)
            inner = self._wrap(orig, name, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is not orig:
                        continue
                    caller = CALLER_SPANS.get((m.__name__, key))
                    if caller is None:
                        wrapped = inner
                    else:
                        span, count, nests = caller
                        wrapped = self._wrap(inner if nests else orig, span, count)
                    self._set(m, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, value = self._patches.pop()
            setattr(obj, attr, value)

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values of one traced pass (trace.overhead_s excluded)."""
        out: dict[str, float] = {}
        for name in SPANS:
            calls, self_s, _ = self.stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        c = self.counts
        out["identities.verify.failed"] = c.get("identities.verify.failed", 0)
        sol = c.get("enumerate.solve_p_line.solutions", 0)
        out["enumerate.solve_p_line.solutions"] = sol
        out["enumerate.kept_per_solution"] = c.get("enumerate.qnorm.kept", 0) / sol if sol else 0.0
        out["sampling.table_build_s"] = self.stats.get("sampling.table_build", (0, 0.0, 0.0))[2]
        out["sampling.table_points"] = c.get("sampling.table_build.points", 0)
        yielded = c.get("approx.candidate_triples.yielded", 0)
        asol = c.get("approx.solve_p_line.solutions", 0)
        out["approx.candidate_triples.yielded"] = yielded
        out["approx.solve_p_line.solutions"] = asol
        out["approx.yield_per_solution"] = yielded / asol if asol else 0.0
        return out
