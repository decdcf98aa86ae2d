"""Call-site tracing of the hodsim layers, from outside the package.

``engine`` binds its collaborators with ``from .x import y``, so a wrapper
has to replace the name where it is called (``hodsim.engine.score_network``),
not where it is defined.  ``ap_qos`` is bound as a default argument of
``run_simulation``; the wrapped ``run_simulation`` passes a wrapped
``qos_model`` instead.

Spans are aggregated per name rather than stored one by one: a sweep unit
makes close to a million wrapped calls.  A span's self time is its duration
minus the durations of the wrapped calls it made.  Counter bookkeeping runs
after the callee returns and is charged to neither the callee nor its
caller.
"""

import functools
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import hodsim.cli
import hodsim.engine
import hodsim.metrics
import hodsim.radio
import hodsim.scenario

from workloads import Api


class LocalWrapper:
    """Calls ``wrapper`` in the process that made it and ``original`` in any
    other, and pickles as ``original``.

    A change that runs simulations in worker processes, forked or spawned,
    therefore still works under the benchmark's wrappers; the calls made in
    those processes are simply not seen by them.
    """

    def __init__(self, original: Callable, wrapper: Callable) -> None:
        self.original = original
        self.wrapper = wrapper
        self.pid = os.getpid()

    def __call__(self, *args, **kwargs):
        fn = self.wrapper if os.getpid() == self.pid else self.original
        return fn(*args, **kwargs)

    def __reduce__(self):
        return functools.partial, (self.original,)


class Span:
    __slots__ = ("calls", "self_s", "counts", "keys")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.counts: Dict[str, float] = {}
        self.keys: set = set()  # distinct call keys, where a counter records them

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


# Per-call counters: (span, args, kwargs, result) -> None.
def _count_score(span: Span, args, kwargs, result) -> None:
    # The scoring key: (AP, offered QoS, requirements, gated).
    span.keys.add((args[0], tuple(args[1].items()), tuple(args[2].items()),
                   kwargs.get("gated", True)))


def _count_decide(span: Span, args, kwargs, result) -> None:
    if result.action == "handover":
        span.add("handovers", 1)
    if result.suppressed:
        span.add("suppressed", 1)


def _count_sensed(span: Span, args, kwargs, result) -> None:
    span.add("ap_checks", len(args[1]))
    span.add("hits", len(result))


def _count_diffuse(span: Span, args, kwargs, result) -> None:
    new_ap_bases, mt_bases = result
    span.add("records_copied", sum(len(b.records) for b in new_ap_bases.values())
             + sum(len(b.records) for b in mt_bases.values()))


def _count_candidates(span: Span, args, kwargs, result) -> None:
    span.add("candidates", len(result))


def _count_events(span: Span, args, kwargs, result) -> None:
    span.add("bytes", len(result.encode("utf-8")))


# The figures each counter adds up; they read 0 in a unit that never calls
# the function.
COUNT_KEYS = {
    "decision.decide": ("handovers", "suppressed"),
    "radio.sensed_aps": ("ap_checks", "hits"),
    "knowledge.diffuse": ("records_copied",),
    "knowledge.candidate_view": ("candidates",),
    "engine.events_csv": ("bytes",),
}

# (module, attribute, span name, counter) of every call site the traced run
# wraps inside the package.
CALL_SITES: Tuple[Tuple[object, str, str, Optional[Callable]], ...] = (
    (hodsim.engine, "validate", "scenario.validate", None),
    (hodsim.engine, "step_mobility", "mobility.step_mobility", None),
    (hodsim.engine, "init_mobility", "mobility.init_mobility", None),
    (hodsim.engine, "sensed_aps", "radio.sensed_aps", _count_sensed),
    (hodsim.engine, "apply_jitter", "radio.apply_jitter", None),
    (hodsim.engine, "diffuse", "knowledge.diffuse", _count_diffuse),
    (hodsim.engine, "candidate_view", "knowledge.candidate_view", _count_candidates),
    (hodsim.engine, "score_network", "decision.score_network", _count_score),
    (hodsim.engine, "best_candidate", "decision.best_candidate", None),
    (hodsim.engine, "decide", "decision.decide", _count_decide),
    (hodsim.metrics, "run_metrics", "metrics.run_metrics", None),
    (hodsim.metrics, "confidence_interval", "metrics.confidence_interval", None),
    (hodsim.metrics, "with_strategy", "scenario.with_strategy", None),
    (hodsim.cli, "run_metrics", "metrics.run_metrics", None),
    (hodsim.cli, "events_csv", "engine.events_csv", _count_events),
    (hodsim.cli, "load_scenario", "scenario.load_scenario", None),
    (hodsim.scenario, "validate", "scenario.validate", None),
)


class Tracer:
    """Aggregated spans of one traced unit."""

    def __init__(self) -> None:
        self.spans: Dict[str, Span] = {}
        # child-time accumulators of the open spans; the bottom one belongs
        # to the benchmark itself
        self._stack: List[float] = [0.0]

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        span = self.spans.setdefault(name, Span())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                children = stack.pop()
                span.calls += 1
                span.self_s += end - start - children
            if count is not None:
                count(span, args, kwargs, result)
            stack[-1] += clock() - start
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator[Api]:
        """Patch every call site for the duration of the block and yield the
        wrapped entry points the benchmark itself calls."""
        originals = []
        try:
            for module, attr, name, count in CALL_SITES:
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, count))
            ap_qos = self.wrap("radio.ap_qos", hodsim.radio.ap_qos)
            run = self.wrap("engine.run_simulation", hodsim.engine.run_simulation)

            def run_simulation(config, seed=None, qos_model=None):
                return run(config, seed, qos_model=qos_model or ap_qos)

            wrapped = LocalWrapper(hodsim.engine.run_simulation, run_simulation)
            for module in (hodsim.metrics, hodsim.cli):
                originals.append((module, "run_simulation", module.run_simulation))
                module.run_simulation = wrapped
            yield Api(
                self.wrap("scenario.load_scenario", hodsim.scenario.load_scenario),
                self.wrap("metrics.sweep", hodsim.metrics.sweep),
                self.wrap("metrics.sweep_csv", hodsim.metrics.sweep_csv),
                self.wrap("cli.main", hodsim.cli.main),
            )
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def layer_metrics(self) -> Dict[str, float]:
        """Every per-layer figure of this unit, by metric name."""
        out: Dict[str, float] = {}
        for name, span in sorted(self.spans.items()):
            out[f"{name}.calls"] = span.calls
            out[f"{name}.self_s"] = span.self_s
            for key in COUNT_KEYS.get(name, ()):
                out[f"{name}.{key}"] = span.counts.get(key, 0)

        def per_call(name: str, amount: float) -> float:
            calls = self.spans[name].calls
            return amount / calls if calls else 0.0

        score = self.spans["decision.score_network"]
        out["decision.score_network.unique_ratio"] = per_call(
            "decision.score_network", len(score.keys))
        out["radio.sensed_aps.hits_per_call"] = per_call(
            "radio.sensed_aps", out["radio.sensed_aps.hits"])
        out["knowledge.candidate_view.candidates_per_call"] = per_call(
            "knowledge.candidate_view", out["knowledge.candidate_view.candidates"])
        return out
