"""Span tracer that times qmonogamy's layers from outside the package.

The tracer replaces module attributes with thin wrappers.  This works
because every caller inside the package looks its callees up at call time,
through a module object (``verify`` calls ``measures.g_q``) or through its
own module globals (``measures`` calls ``spin_flip_spectrum``).  The margin
callables live in ``verify.FAMILIES`` and are swapped there with
``dataclasses.replace``.  ``Tracer.restore`` puts every original back.

Per call a wrapper reads the clock twice and stores one tuple
``(name id, start ns, end ns, parent span index)``; everything else is
derived after the run, so the per-call cost stays small.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

# Per-layer metrics in report order: (metric name, unit).  BENCHMARK.json
# lists the same names; a self-test keeps the two in step.
PER_LAYER = (
    ("states.sample.calls", "count"),
    ("states.sample.states", "count"),
    ("states.sample.self_s", "s"),
    ("kernel.partial_trace.calls", "count"),
    ("kernel.partial_trace.self_s", "s"),
    ("kernel.eig.calls", "count"),
    ("kernel.eig.self_s", "s"),
    ("kernel.require_density.calls", "count"),
    ("kernel.require_density.self_s", "s"),
    ("measures.concurrence.calls", "count"),
    ("measures.concurrence.self_s", "s"),
    ("measures.spin_flip.calls", "count"),
    ("measures.spin_flip.self_s", "s"),
    ("measures.conversion.points", "count"),
    ("measures.conversion.self_s", "s"),
    ("measures.entropy.calls", "count"),
    ("measures.entropy.self_s", "s"),
    ("measures.oracle.calls", "count"),
    ("measures.oracle.self_s", "s"),
    ("measures.oracle.refine.self_s", "s"),
    ("measures.oracle.cost_evals", "count"),
    ("measures.oracle.proposals", "count"),
    ("bounds.tail.calls", "count"),
    ("bounds.tail.points", "count"),
    ("bounds.tail.self_s", "s"),
    ("bounds.chain.calls", "count"),
    ("bounds.chain.self_s", "s"),
    ("bounds.certificate.calls", "count"),
    ("bounds.certificate.self_s", "s"),
    ("verify.sweep.calls", "count"),
    ("verify.sweep.self_s", "s"),
    ("verify.margin.calls", "count"),
    ("verify.margin.points", "count"),
    ("verify.margin.self_s", "s"),
    ("verify.scan.calls", "count"),
    ("verify.scan.self_s", "s"),
    ("verify.state_table.builds", "count"),
    ("verify.state_table.self_s", "s"),
    ("cli.evaluate.calls", "count"),
    ("cli.evaluate.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def _result_size(args, result):
    first = result[0] if isinstance(result, tuple) else result
    return int(np.size(first))


def _batch(u) -> int:
    return int(u.shape[0]) if np.ndim(u) == 3 else 1


class Tracer:
    """Records one span per wrapped call and restores the originals."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._saved: list = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str, count=None):
        """Span-recording wrapper; ``count`` is ``(metric, f(args, result))``."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counts = self.counts
        if count is not None:
            metric, measure = count
            counts.setdefault(metric, 0)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (nid, start, end, parent)
            if count is not None:
                counts[metric] += measure(args, result)
            return result

        return traced

    def replace(self, owner, attr: str, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def replace_item(self, mapping: dict, key, new):
        self._saved.append((mapping, key, mapping[key]))
        mapping[key] = new

    def restore(self):
        while self._saved:
            owner, key, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)


def aggregate(spans, names) -> dict[str, tuple[int, float]]:
    """Calls and self time per span name.

    A span's self time is its duration minus the durations of its direct
    children.  Calls run on one thread, so children never overlap and their
    sum is exactly the part of the parent's interval they cover.
    """
    child_ns = [0] * len(spans)
    for _nid, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls = [0] * len(names)
    self_ns = [0] * len(names)
    for index, (nid, start, end, _parent) in enumerate(spans):
        calls[nid] += 1
        self_ns[nid] += end - start - child_ns[index]
    return {name: (calls[i], self_ns[i] / 1e9) for i, name in enumerate(names)}


def install(tracer: Tracer):
    """Wrap every layer function the per-layer metrics are drawn from."""
    from qmonogamy import bounds, cli, kernel, measures, states, verify

    def span(owner, attr, name, count=None):
        tracer.replace(owner, attr, tracer.wrap(getattr(owner, attr), name, count))

    span(states, "random_pure_states", "states.sample",
         ("states.sample.states", lambda args, result: len(result)))
    span(kernel, "partial_trace", "kernel.partial_trace")
    span(kernel, "hermitian_eigenvalues", "kernel.eig")
    span(kernel, "require_density", "kernel.require_density")
    span(measures, "concurrence_two_qubit", "measures.concurrence")
    span(measures, "spin_flip_spectrum", "measures.spin_flip")
    for attr in ("g_q", "f_alpha"):
        span(measures, attr, "measures.conversion",
             ("measures.conversion.points", _result_size))
    for attr in ("tsallis_pure", "renyi_pure"):
        span(measures, attr, "measures.entropy")
    span(measures, "concurrence_roof_oracle", "measures.oracle")
    # Each refinement group evaluates its starting batch once before it
    # proposes; the difference of the two tallies counts proposals.
    span(measures, "_refine_group", "measures.oracle.refine",
         ("measures.oracle.initial", lambda args, result: _batch(args[0])))
    cost, counts = measures._decomposition_cost, tracer.counts
    counts.update({"measures.oracle.cost_evals": 0, "measures.oracle.cost_points": 0})

    def counted_cost(u, tau):
        # Counted, not spanned: one call per refinement step is too fine to time.
        counts["measures.oracle.cost_evals"] += 1
        counts["measures.oracle.cost_points"] += _batch(u)
        return cost(u, tau)

    tracer.replace(measures, "_decomposition_cost", counted_cost)
    for attr in ("pair_bound_new", "pair_bound_prior", "pair_bound_naive", "power_chain"):
        span(bounds, attr, "bounds.tail", ("bounds.tail.points", _result_size))
    span(bounds, "chain_bound", "bounds.chain")
    span(bounds, "ordering_certificate", "bounds.certificate")
    for attr in ("run_sweep", "run_state_check"):
        span(verify, attr, "verify.sweep")
    span(verify, "_scan", "verify.scan")
    span(verify, "_state_tables", "verify.state_table")
    for name, fam in list(verify.FAMILIES.items()):
        margin = tracer.wrap(fam.margin, "verify.margin",
                             ("verify.margin.points", _result_size))
        tracer.replace_item(verify.FAMILIES, name, dataclasses.replace(fam, margin=margin))
    span(cli, "main", "cli.evaluate")


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    """The PER_LAYER metrics of one traced pass, by name."""
    times = aggregate(tracer.spans, tracer.names)
    counts = tracer.counts
    out: dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        span_name, _, field = metric.rpartition(".")
        if metric == "trace.overhead_s":
            out[metric] = overhead_s
        elif field == "self_s":
            out[metric] = times.get(span_name, (0, 0.0))[1]
        elif field in ("calls", "builds"):
            out[metric] = times.get(span_name, (0, 0.0))[0]
        elif metric == "measures.oracle.proposals":
            out[metric] = (counts.get("measures.oracle.cost_points", 0)
                           - counts.get("measures.oracle.initial", 0))
        else:
            out[metric] = counts.get(metric, 0)
    return out
