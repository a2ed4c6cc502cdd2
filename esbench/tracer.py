"""Outside-in span tracer for the esequiv benchmark.

The library is never edited.  Instead each traced function is replaced, in
every ``esequiv`` module that holds a reference to it (its import sites), by
a wrapper that records one span: name, start, end and the index of the
enclosing span.  Calls between modules resolve through those module globals,
so they pass through the wrappers too.  Spans stay in memory until the run
ends; self time is a span's duration minus the time its child spans cover.

A traced name that no longer exists is reported in ``Tracer.missing``, so a
refactor that deletes a layer shows up as a missing layer, not as a zero.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

_MODE_TAG = {"interleaving": "i", "step": "s", "pomset": "p"}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _mode_name(prefix, index, name, from_lts):
    def namer(args, kwargs):
        value = _arg(args, kwargs, index, name)
        mode = value.mode if from_lts else value
        return prefix + _MODE_TAG.get(mode, str(mode))

    return namer


def _count_canon_input(tracer, name, args, kwargs, result):
    n, lranks, down, cf = args
    tracer.canon_inputs.add((n, tuple(lranks), tuple(down), tuple(cf)))


def _count_states(tracer, name, args, kwargs, result):
    tracer.counts[name + ".states"] += len(result)


def _count_transitions(tracer, name, args, kwargs, result):
    tracer.counts[name + ".transitions"] += len(result.transitions)


#: (module, function, span name or namer(args, kwargs), counter hook).
#: The hp helpers are private, so their time shows as the self time of the
#: full_matrix, hb_equiv and hhb_equiv spans.
TARGETS = (
    ("canon", "canon_encode", "canon", _count_canon_input),
    ("structure", "canonical_form", "structure.canonical_form", None),
    ("structure", "restrict", "structure.restrict", None),
    ("structure", "isomorphic", "structure.isomorphic", None),
    ("semantics", "configurations", "semantics.configurations", _count_states),
    (
        "semantics",
        "build_lts",
        _mode_name("semantics.lts_", 1, "mode", from_lts=False),
        _count_transitions,
    ),
    (
        "equivalences",
        "trace_equiv",
        _mode_name("equivalences.trace_", 0, "la", from_lts=True),
        None,
    ),
    (
        "equivalences",
        "bisim",
        _mode_name("equivalences.bisim_", 0, "la", from_lts=True),
        None,
    ),
    ("equivalences", "pomset_trace_equiv", "equivalences.pomset_trace", None),
    ("equivalences", "whb_equiv", "equivalences.whb", None),
    ("equivalences", "hb_equiv", "equivalences.hb", None),
    ("equivalences", "hhb_equiv", "equivalences.hhb", None),
    ("equivalences", "full_matrix", "equivalences.full_matrix", None),
    ("equivalences", "check", "equivalences.check", None),
    ("search", "it_fingerprint", "search.fingerprint", None),
    ("search", "st_fingerprint", "search.fingerprint", None),
    ("search", "find_minimal_pairs", "search", None),
    ("spectrum", "verify_spectrum", "spectrum", None),
)

#: Per-layer metric -> (unit, better, the end-to-end metric and workload it
#: should move).  Written down before any optimisation is measured.
LAYER_METRICS = {
    "canon.calls": ("count", "lower", "spectrum wall_s, pair_p50_ms; search wall_s"),
    "canon.self_s": ("s", "lower", "spectrum wall_s, pair_p50_ms; search wall_s"),
    "canon.distinct_frac": ("ratio", "higher", "spectrum wall_s, pair_p50_ms"),
    "structure.canonical_form.calls": ("count", "lower", "spectrum wall_s"),
    "structure.canonical_form.self_s": ("s", "lower", "spectrum wall_s"),
    "structure.restrict.calls": ("count", "lower", "spectrum wall_s"),
    "structure.restrict.self_s": ("s", "lower", "spectrum wall_s"),
    "structure.isomorphic.self_s": ("s", "lower", "spectrum wall_s"),
    "semantics.configurations.calls": ("count", "lower", "spectrum wall_s"),
    "semantics.configurations.self_s": ("s", "lower", "spectrum wall_s"),
    "semantics.configurations.states": ("count", "lower", "spectrum wall_s"),
    "semantics.lts_i.calls": ("count", "lower", "spectrum wall_s"),
    "semantics.lts_i.self_s": ("s", "lower", "spectrum wall_s"),
    "semantics.lts_i.transitions": ("count", "lower", "spectrum wall_s"),
    "semantics.lts_s.calls": ("count", "lower", "search wall_s"),
    "semantics.lts_s.self_s": ("s", "lower", "search wall_s"),
    "semantics.lts_s.transitions": ("count", "lower", "search wall_s"),
    "semantics.lts_p.calls": ("count", "lower", "spectrum pair_p95_ms"),
    "semantics.lts_p.self_s": ("s", "lower", "spectrum pair_p95_ms"),
    "semantics.lts_p.transitions": ("count", "lower", "spectrum pair_p95_ms"),
    "equivalences.trace_i.self_s": ("s", "lower", "search wall_s"),
    "equivalences.trace_s.self_s": ("s", "lower", "search wall_s"),
    "equivalences.bisim_i.calls": ("count", "lower", "search wall_s"),
    "equivalences.bisim_i.self_s": ("s", "lower", "search wall_s"),
    "equivalences.bisim_s.calls": ("count", "lower", "search wall_s"),
    "equivalences.bisim_s.self_s": ("s", "lower", "search wall_s"),
    "equivalences.bisim_p.calls": ("count", "lower", "search wall_s"),
    "equivalences.bisim_p.self_s": ("s", "lower", "search wall_s"),
    "equivalences.pomset_trace.self_s": ("s", "lower", "spectrum wall_s"),
    "equivalences.whb.self_s": ("s", "lower", "spectrum wall_s"),
    "equivalences.hp.self_s": ("s", "lower", "spectrum wall_s, pair_p95_ms"),
    "search.fingerprint.calls": ("count", "lower", "search wall_s"),
    "search.fingerprint.self_s": ("s", "lower", "search wall_s"),
    "search.self_s": ("s", "lower", "search wall_s"),
    "search.candidates": ("count", "lower", "search wall_s"),
    "search.classes": ("count", "higher", "search wall_s"),
    "search.enum_useful_frac": ("ratio", "higher", "search wall_s"),
    "search.pairs_tested": ("count", "lower", "search wall_s"),
    "trace.overhead_frac": ("ratio", "lower", "none: traced against untraced wall_s"),
}


class Tracer:
    """Spans and counters for one traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent span index or -1]
        self.counts = Counter()
        self.canon_inputs = set()
        self.missing = []
        self._stack = []

    def _wrap(self, fn, name, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        namer = name if callable(name) else (lambda args, kwargs: name)

        def traced(*args, **kwargs):
            span = [namer(args, kwargs), clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, span[0], args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package, targets=TARGETS):
        """Wrap each target at every ``package`` module attribute bound to it."""
        prefix = package.__name__
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == prefix or key.startswith(prefix + "."))
        ]
        for module_name, fn_name, name, hook in targets:
            home = sys.modules.get(f"{prefix}.{module_name}")
            fn = getattr(home, fn_name, None)
            if fn is None:
                self.missing.append(f"{module_name}.{fn_name}")
                continue
            wrapper = self._wrap(fn, name, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

    def durations(self, name):
        """Durations in seconds of every span called `name`, in call order."""
        return [end - start for span_name, start, end, _ in self.spans if span_name == name]

    def aggregate(self):
        """name -> [calls, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0])
        for (name, start, end, _), inner in zip(self.spans, child):
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start - inner
        return out

    def layer_metrics(self, classes, pairs_tested):
        """Per-layer metric values; `classes` and `pairs_tested` come from
        the search certificate (0 on workloads that do not search)."""
        agg = self.aggregate()

        def calls(name):
            return agg[name][0] if name in agg else 0

        def self_s(*names):
            return sum(agg[n][1] for n in names if n in agg)

        canon_calls = calls("canon")
        candidates = sum(
            1
            for name, _, _, parent in self.spans
            if name == "structure.canonical_form"
            and parent >= 0
            and self.spans[parent][0] == "search"
        )
        m = {
            "canon.calls": canon_calls,
            "canon.self_s": self_s("canon"),
            "canon.distinct_frac": len(self.canon_inputs) / canon_calls if canon_calls else 0.0,
        }
        for name in ("canonical_form", "restrict"):
            m[f"structure.{name}.calls"] = calls(f"structure.{name}")
            m[f"structure.{name}.self_s"] = self_s(f"structure.{name}")
        m["structure.isomorphic.self_s"] = self_s("structure.isomorphic")
        m["semantics.configurations.calls"] = calls("semantics.configurations")
        m["semantics.configurations.self_s"] = self_s("semantics.configurations")
        m["semantics.configurations.states"] = self.counts["semantics.configurations.states"]
        for tag in "isp":
            name = f"semantics.lts_{tag}"
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.self_s"] = self_s(name)
            m[f"{name}.transitions"] = self.counts[f"{name}.transitions"]
        for tag in "is":
            m[f"equivalences.trace_{tag}.self_s"] = self_s(f"equivalences.trace_{tag}")
        for tag in "isp":
            name = f"equivalences.bisim_{tag}"
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.self_s"] = self_s(name)
        m["equivalences.pomset_trace.self_s"] = self_s("equivalences.pomset_trace")
        m["equivalences.whb.self_s"] = self_s("equivalences.whb")
        m["equivalences.hp.self_s"] = self_s(
            "equivalences.full_matrix", "equivalences.hb", "equivalences.hhb"
        )
        m["search.fingerprint.calls"] = calls("search.fingerprint")
        m["search.fingerprint.self_s"] = self_s("search.fingerprint")
        m["search.self_s"] = self_s("search")
        m["search.candidates"] = candidates
        m["search.classes"] = classes
        m["search.enum_useful_frac"] = classes / candidates if candidates else 0.0
        m["search.pairs_tested"] = pairs_tested
        return m
