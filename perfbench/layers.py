"""Layer tracing for traced benchmark jobs, and the per-layer metrics built from it.

Inside a job process, :meth:`Tracer.install` replaces every module binding of each
traced seqlim function with a wrapper that records a span (id, parent span,
name, start, end) and counts.  Functions imported by name into other modules
(``eval_constant`` in ``limits``, ``recognize_constant`` in ``cli``) are
wrapped at every binding, so calls that cross layers are seen too.  Nothing
in seqlim itself changes.

In the benchmark process, :func:`layer_metrics` turns the spans and counts
of a pass into self time per layer (a span's duration minus the time its
child spans cover) and the per-layer counts.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, layer name).  contfrac is left out on purpose: no
# workload spends measurable time there.
TRACED = (
    ("seqlim.cli", "main", "cli.main"),
    ("seqlim.sums", "family_terms", "sums.family_terms"),
    ("seqlim.recurrence", "guess_recurrence", "recurrence.guess_recurrence"),
    ("seqlim.recurrence", "SolutionTable.evaluate", "recurrence.SolutionTable.evaluate"),
    ("seqlim.limits", "apery_limit", "limits.apery_limit"),
    ("seqlim.limits", "quotients", "limits.quotients"),
    ("seqlim.limits", "solve_vanishing_init", "limits.solve_vanishing_init"),
    ("seqlim.limits", "franel_secondary", "limits.franel_secondary"),
    ("seqlim.recognize", "eval_constant", "recognize.eval_constant"),
    ("seqlim.recognize", "recognize_constant", "recognize.recognize_constant"),
    ("seqlim.recognize", "integer_relation", "recognize.integer_relation"),
    ("seqlim.recognize", "lll_reduce", "recognize.lll_reduce"),
)

POLY_CALLS = "arith.Poly.call.calls"

# Per-layer metrics in report order: (name, unit, better).
METRICS = (
    ("sums.family_terms.s", "s", "lower"),
    ("sums.family_terms.calls", "count", "lower"),
    ("sums.family_terms.terms", "count", "lower"),
    ("recurrence.guess_recurrence.s", "s", "lower"),
    ("recurrence.guess_recurrence.calls", "count", "lower"),
    ("recurrence.SolutionTable.evaluate.s", "s", "lower"),
    ("recurrence.SolutionTable.evaluate.terms", "count", "lower"),
    ("limits.apery_limit.s", "s", "lower"),
    ("limits.apery_limit.calls", "count", "lower"),
    ("limits.apery_limit.terms_used", "count", "lower"),
    ("limits.quotients.s", "s", "lower"),
    ("limits.quotients.terms", "count", "lower"),
    ("limits.solve_vanishing_init.s", "s", "lower"),
    ("limits.solve_vanishing_init.calls", "count", "lower"),
    ("limits.franel_secondary.s", "s", "lower"),
    ("limits.franel_secondary.calls", "count", "lower"),
    (POLY_CALLS, "count", "lower"),
    ("recognize.eval_constant.s", "s", "lower"),
    ("recognize.eval_constant.calls", "count", "lower"),
    ("recognize.eval_constant.misses", "count", "lower"),
    ("recognize.recognize_constant.s", "s", "lower"),
    ("recognize.recognize_constant.calls", "count", "lower"),
    ("recognize.recognize_constant.hits", "count", "higher"),
    ("recognize.integer_relation.s", "s", "lower"),
    ("recognize.integer_relation.calls", "count", "lower"),
    ("recognize.integer_relation.found", "count", "higher"),
    ("recognize.lll_reduce.s", "s", "lower"),
    ("recognize.lll_reduce.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)


class Tracer:
    """Spans and counts of one job process, kept in memory until it exits."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list[tuple] = []   # (span id, parent id, name, start, end)
        self.counts: Counter = Counter()
        self.bindings: list[str] = []  # module.attribute names that were wrapped
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._seen_constants: set = set()

    def export(self) -> dict:
        return {"job_id": self.job_id, "spans": self.spans,
                "counts": dict(self.counts), "bindings": self.bindings}

    def wrap(self, fn, name: str, before=None, after=None):
        """``fn`` recording a span named ``name`` and ``name.calls``.

        ``before(args, kwargs)`` runs ahead of the call; ``after(state, args,
        kwargs, result)`` returns extra counts to add under ``name.<key>``.
        """
        counts, spans, stack, ids = self.counts, self.spans, self._stack, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before else None
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
                counts[name + ".calls"] += 1
            if after:
                for key, value in after(state, args, kwargs, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return traced

    def _probes(self, name):
        """Extra counts for the layers that have them: (before, after)."""
        if name in ("sums.family_terms", "limits.quotients"):
            return None, lambda s, a, k, r: {"terms": len(r)}
        if name == "recurrence.SolutionTable.evaluate":
            return (lambda a, k: len(a[0]._terms),
                    lambda s, a, k, r: {"terms": len(a[0]._terms) - s})
        if name == "limits.apery_limit":
            return None, lambda s, a, k, r: {"terms_used": r.terms_used}
        if name == "recognize.eval_constant":
            return self._constant_key, self._constant_miss
        if name == "recognize.recognize_constant":
            return None, lambda s, a, k, r: {"hits": int(r is not None)}
        if name == "recognize.integer_relation":
            return None, lambda s, a, k, r: {"found": int(r is not None)}
        return None, None

    def _constant_key(self, args, kwargs):
        bound = self._eval_constant_sig.bind(*args, **kwargs)
        return bound.arguments["name"], bound.arguments["digits"]

    def _constant_miss(self, key, args, kwargs, result):
        # a miss is the first call in this process for a (name, digits) pair
        miss = key not in self._seen_constants
        self._seen_constants.add(key)
        return {"misses": int(miss)}

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if (n == "seqlim" or n.startswith("seqlim.")) and m is not None]
        for module_name, attr, name in TRACED:
            owner_name, _, member = attr.rpartition(".")
            if owner_name:  # a method: patch the class once
                owner = getattr(sys.modules[module_name], owner_name)
                before, after = self._probes(name)
                setattr(owner, member, self.wrap(getattr(owner, member), name,
                                                 before, after))
                self.bindings.append(f"{module_name}.{attr}")
                continue
            original = getattr(sys.modules[module_name], attr)
            if name == "recognize.eval_constant":
                self._eval_constant_sig = inspect.signature(original)
            wrapped = self.wrap(original, name, *self._probes(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self.bindings.append(f"{module.__name__}.{key}")
        self._count_poly_calls()

    def _count_poly_calls(self):
        # a count only: a span per coefficient evaluation would cost more
        # than the evaluation
        from seqlim.arith import Poly

        original = Poly.__call__
        counts = self.counts

        def counted(poly, x):
            counts[POLY_CALLS] += 1
            return original(poly, x)

        Poly.__call__ = counted
        self.bindings.append("seqlim.arith.Poly.__call__")


def self_times(spans) -> dict[str, float]:
    """Seconds per span name not covered by that span's direct children."""
    covered = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    out = defaultdict(float)
    for span_id, _, name, start, end in spans:
        out[name] += (end - start) - covered[span_id]
    return out


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer metrics (without trace.overhead_frac) from one traced pass."""
    counts = Counter()
    seconds = defaultdict(float)
    for record in records:
        counts.update(record["counts"])
        for name, value in self_times(record["spans"]).items():
            seconds[name] += value
    out = {}
    for metric, unit, _ in METRICS:
        if metric == "trace.overhead_frac":
            continue
        if metric == "cli.main.self_s":
            out[metric] = seconds["cli.main"]
        elif unit == "s":
            out[metric] = seconds[metric[:-2]]
        else:
            out[metric] = counts[metric]
    return out
