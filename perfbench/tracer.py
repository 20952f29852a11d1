"""Span tracing of liarminmax's public layer calls, installed from outside the package.

The package itself carries no tracing.  :func:`instrument` swaps the names
that one layer looks up to call the next (``harness.improved_minmax``,
``algorithms.complete_edges``, ``Transcript.append`` ...) for wrappers that
record one span per call, and puts them back afterwards.  Oracles built by
the harness are handed out behind :class:`TappedOracle`, a proxy that opens
an ``oracles.query`` span and can log the query sequence for the behaviour
lock.

Spans live in flat arrays (name, start, end, parent, trial) until the run
ends.  Self time is a span's duration minus the durations of its direct
children, which is exact because calls on one thread nest.  The times include
the tracer's own bookkeeping, about a microsecond or two per span; the run
reports the spans per trial and the traced-minus-untraced overhead next to
them, so a reader can judge the inflation.
"""

from __future__ import annotations

import hashlib
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from liarminmax import algorithms, core, harness
from liarminmax.core import PHASES, Answer
from liarminmax.sorters import SortInconsistency

TRIAL = "bench.trial"
DRIVERS = ("algorithms.improved_minmax", "algorithms.simple_minmax", "algorithms.pohl_minmax")
SORTS = ("sorters.balanced_quicksort", "sorters.mergesort")
FINAL_SELECTS = ("algorithms.find_min_k_lies", "algorithms.find_max_k_lies")
LAYERS = ("core", "oracles", "sorters", "graphs", "algorithms", "harness")


class Tracer:
    """In-memory span store plus the counters observed at span boundaries.

    ``log_queries`` keeps every oracle query for :meth:`query_digest`; it is
    for the behaviour lock and stays off while per-layer times are measured.
    """

    def __init__(self, log_queries: bool = False) -> None:
        self.log_queries = log_queries
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.trial = array("i")
        self._stack = [-1]
        self.trial_id = -1
        self.trials = 0
        self.counts: Counter = Counter()
        self.completed_drivers: list[tuple[int, int]] = []  # (span index, restarts)
        # Filled during a trial; folded into ``counts`` when it ends.
        self._lying_oracles: list = []
        self._sort_graphs: list = []
        self._queries = array("i")
        self._digest = hashlib.sha256()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, observe=None):
        """``fn`` wrapped to record one span per call.

        ``observe(index, args, result, exc)`` runs after the span has closed,
        so the bookkeeping it does is not charged to the call.
        """
        nid = self._name_id(name)
        names, start, end, parent, trial = self.name, self.start, self.end, self.parent, self.trial
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(start)
            names.append(nid)
            parent.append(stack[-1])
            trial.append(self.trial_id)
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[index] = clock()
                stack.pop()
                if observe is not None:
                    observe(index, args, None, exc)
                raise
            end[index] = clock()
            stack.pop()
            if observe is not None:
                observe(index, args, result, None)
            return result

        return traced

    def run_trial(self, fn):
        """Call ``fn()`` under a root span; a trial's spans share its id."""
        self.trial_id = self.trials
        self.trials += 1
        try:
            return self.span(TRIAL, fn)()
        finally:
            self.trial_id = -1
            self._end_trial()

    def _end_trial(self) -> None:
        self.counts["lies_told"] += sum(o.lies_told for o in self._lying_oracles)
        self._lying_oracles.clear()
        self.counts["thickness_total"] += sum(g.thickness() for g in self._sort_graphs)
        self.counts["thickness_graphs"] += len(self._sort_graphs)
        self._sort_graphs.clear()
        self._digest.update(self._queries.tobytes())
        del self._queries[:]

    def query_digest(self) -> str:
        """SHA-256 over every (a, b, answered-smaller) triple logged so far."""
        return self._digest.hexdigest()

    # --- observers -------------------------------------------------------------

    def _log_query(self, index, args, result, exc) -> None:
        if exc is None:
            self._queries.extend((args[0], args[1], result is Answer.FIRST_SMALLER))

    def _observe_sort(self, index, args, result, exc) -> None:
        if exc is None:
            self.counts["sort_comparisons"] += result.comparisons
        elif isinstance(exc, SortInconsistency):
            self.counts["sort_comparisons"] += exc.comparisons
            self.counts["sort_inconsistencies"] += 1

    def _observe_driver(self, index, args, result, exc) -> None:
        if exc is not None:
            return
        stats = result.stats
        self.completed_drivers.append((index, stats.restarts))
        self.counts["driver_elements"] += len(args[0])
        for phase, count in stats.phase_breakdown.items():
            self.counts["phase:" + phase] += count

    def _observe_completion(self, index, args, result, exc) -> None:
        if exc is None:
            self._sort_graphs.append(args[0])

    def _observe_added(self, index, args, result, exc) -> None:
        if exc is None:
            self.counts["added_edges"] += len(result)

    def _observe_verify(self, index, args, result, exc) -> None:
        if exc is None:
            self.counts["verify_nodes"] += result.nodes
            self.counts["verify_leaves"] += result.leaves

    def tapped(self, oracle_class):
        """Constructor stand-in that hands out the new oracle behind a proxy."""
        observe = self._log_query if self.log_queries else None

        def build(*args, **kwargs):
            inner = oracle_class(*args, **kwargs)
            if hasattr(inner, "lies_told"):
                self._lying_oracles.append(inner)
            return TappedOracle(inner, self.span("oracles.query", inner.query, observe))

        return build

    # --- analysis ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The span columns as views.  A live view stops the tracer from
        recording (``BufferError``), so analyse only after the run."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "trial": np.frombuffer(self.trial, dtype=np.int32),
        }

    def self_times(self):
        """(duration, self time) per span in nanoseconds: self time is the
        duration less the time its direct children cover."""
        a = self.arrays()
        duration = (a["end"] - a["start"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        return duration, duration - covered

    def nests(self) -> bool:
        """Every span lies inside its parent, opened after it, in the same trial."""
        a = self.arrays()
        child = np.flatnonzero(a["parent"] >= 0)
        up = a["parent"][child]
        return bool(
            np.all(up < child)
            and np.all(a["start"][child] >= a["start"][up])
            and np.all(a["end"][child] <= a["end"][up])
            and np.all(a["trial"][child] == a["trial"][up])
            and np.all(a["trial"] >= 0)
            and np.all(a["end"] >= a["start"])
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_names(self, layer: str) -> list[str]:
        return [name for name in self.names if name.split(".")[0] == layer]

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics averaged over the traced trials: name -> (value, unit)."""
        trials = max(self.trials, 1)
        a = self.arrays()
        duration, own = self.self_times()

        def mask(*names):
            return np.isin(a["name"], [self._ids.get(n, -1) for n in names])

        def calls(*names):
            return int(mask(*names).sum()) / trials

        def ms(values, *names):
            return float(values[mask(*names)].sum()) / 1e6 / trials

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        sort_calls = int(mask(*SORTS).sum())
        sorts_under = np.bincount(a["parent"][mask(*SORTS)], minlength=len(duration))
        attempts_completed = int(sum(sorts_under[i] for i, _ in self.completed_drivers))
        restarts_completed = sum(r for _, r in self.completed_drivers)

        verify = mask("harness.verify_exhaustive")
        replay = mask(*DRIVERS) & np.isin(a["parent"], np.flatnonzero(verify))
        trial_ns = float(duration[mask(TRIAL)].sum())

        m = {
            "graphs.complete_edges.calls": (calls("graphs.complete_edges"), "count/trial"),
            "graphs.complete_edges.self_ms": (ms(own, "graphs.complete_edges"), "ms/trial"),
            "graphs.added_edge_pairs.ms": (ms(duration, "graphs.added_edge_pairs"), "ms/trial"),
            "graphs.added_edges": (c["added_edges"] / trials, "count/trial"),
            "graphs.thickness_mean": (ratio(c["thickness_total"], c["thickness_graphs"]), "edges"),
            "sorters.sort.calls": (sort_calls / trials, "count/trial"),
            "sorters.sort.self_ms": (ms(own, *SORTS), "ms/trial"),
            "sorters.sort.comparisons": (c["sort_comparisons"] / trials, "count/trial"),
            "sorters.inconsistency_share": (ratio(c["sort_inconsistencies"], sort_calls), "ratio"),
            "oracles.query.calls": (calls("oracles.query"), "count/trial"),
            "oracles.query.self_ms": (ms(own, "oracles.query"), "ms/trial"),
            "oracles.lies_told": (c["lies_told"] / trials, "count/trial"),
            "core.transcript.records": (calls("core.transcript.append"), "count/trial"),
            "core.transcript.ms": (ms(duration, "core.transcript.append"), "ms/trial"),
            "core.audit.ms": (ms(duration, "core.assert_lie_budget"), "ms/trial"),
        }
        for phase in PHASES:
            m["algorithms.phase." + phase] = (
                ratio(c["phase:" + phase], c["driver_elements"]), "cmp/element"
            )
        m.update({
            "algorithms.group_attempts": (sort_calls / trials, "count/trial"),
            "algorithms.restarts": (restarts_completed / trials, "count/trial"),
            "algorithms.attempt_yield": (
                ratio(attempts_completed - restarts_completed, attempts_completed), "ratio"
            ),
            "algorithms.final_select.self_ms": (ms(own, *FINAL_SELECTS), "ms/trial"),
            "algorithms.driver.self_ms": (ms(own, *DRIVERS), "ms/trial"),
            "harness.run_experiments.self_ms": (ms(own, "harness.run_experiments"), "ms/trial"),
            "harness.verify.nodes": (c["verify_nodes"] / trials, "count/trial"),
            "harness.verify.leaves": (c["verify_leaves"] / trials, "count/trial"),
            "harness.verify.replays_per_leaf": (
                ratio(c["verify_nodes"], c["verify_leaves"]), "ratio"
            ),
            "harness.verify.replay_share": (
                100 * ratio(float(duration[replay].sum()), float(duration[verify].sum())), "%"
            ),
        })
        for layer in LAYERS:
            m[f"layer.{layer}.self_share"] = (
                100 * ratio(float(own[mask(*self.layer_names(layer))].sum()), trial_ns), "%"
            )
        return m

    def layer_spans(self) -> dict[str, float]:
        """Spans per traced trial in each layer: the tracer's cost scales with them."""
        a = self.arrays()
        ids = {layer: [self._ids[n] for n in self.layer_names(layer)] for layer in LAYERS}
        return {
            layer: int(np.isin(a["name"], ids[layer]).sum()) / max(self.trials, 1)
            for layer in LAYERS
        }


class TappedOracle:
    """Stands in for an oracle: ``query`` goes through the tracer, every other
    attribute (``transcript``, ``lies_told`` ...) is the wrapped oracle's."""

    def __init__(self, inner, query) -> None:
        self._inner = inner
        self.query = query

    def __getattr__(self, name):
        return getattr(self._inner, name)


@contextmanager
def instrument(tracer: Tracer):
    """Route the package's layer-to-layer calls through ``tracer`` while active."""
    t = tracer
    patches = [
        (harness, "run_experiments", t.span("harness.run_experiments", harness.run_experiments)),
        (harness, "verify_exhaustive",
         t.span("harness.verify_exhaustive", harness.verify_exhaustive, t._observe_verify)),
        (harness, "assert_lie_budget", t.span("core.assert_lie_budget", harness.assert_lie_budget)),
        (core.Transcript, "append", t.span("core.transcript.append", core.Transcript.append)),
        (algorithms, "balanced_quicksort",
         t.span("sorters.balanced_quicksort", algorithms.balanced_quicksort, t._observe_sort)),
        (algorithms, "mergesort", t.span("sorters.mergesort", algorithms.mergesort, t._observe_sort)),
        (algorithms, "complete_edges",
         t.span("graphs.complete_edges", algorithms.complete_edges, t._observe_completion)),
        (algorithms, "added_edge_pairs",
         t.span("graphs.added_edge_pairs", algorithms.added_edge_pairs, t._observe_added)),
        (algorithms, "find_min_k_lies",
         t.span("algorithms.find_min_k_lies", algorithms.find_min_k_lies)),
        (algorithms, "find_max_k_lies",
         t.span("algorithms.find_max_k_lies", algorithms.find_max_k_lies)),
    ]
    for driver in ("improved_minmax", "simple_minmax", "pohl_minmax"):
        fn = getattr(harness, driver)
        patches.append((harness, driver, t.span("algorithms." + driver, fn, t._observe_driver)))
    for oracle in ("TruthfulOracle", "RandomLiarOracle", "TriggeredLiarOracle", "ScriptedOracle"):
        patches.append((harness, oracle, t.tapped(getattr(harness, oracle))))
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
