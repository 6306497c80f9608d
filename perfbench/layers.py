"""The traced run: spans around each layer's public entry points.

Wrappers are installed on the program's classes from this file (the
program itself is not edited). Each benchmark operation (tick, round,
query, checkpoint) opens a root span with its own trace id; a wrapped
layer call made while a root is open records a child span with its
name, start, end, parent and trace id. Spans stay in memory and are
written out when the run ends. A layer's self time is its span's
duration minus the time its child spans cover.

Hot scalar helpers (``Polyline.segments``, ``Edge.point_at``,
``WalkingGraph.distance``) are only counted: a span per call would cost
more than the call.
"""

from __future__ import annotations

import json
import os
import pickle
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional


class Span:
    __slots__ = ("ident", "name", "start", "end", "parent", "trace", "child_time")

    def __init__(self, ident: int, name: str, parent: Optional["Span"], trace: str):
        self.ident = ident
        self.name = name
        self.start = time.perf_counter()
        self.end = 0.0
        self.parent = parent
        self.trace = trace
        self.child_time = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.ident,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": None if self.parent is None else self.parent.ident,
            "trace": self.trace,
        }


class Tracer:
    """In-memory span recorder plus call counters."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: Worker-pipe messages seen while traced; sized after the run so
        #: pickling them does not land inside the fan-out spans.
        self.messages: List[object] = []
        self._local = threading.local()
        self._root: Optional[Span] = None
        self._next = 0
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, parent: Optional[Span], trace: str) -> Span:
        with self._lock:
            self._next += 1
            ident = self._next
        return Span(ident, name, parent, trace)

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if span.parent is not None:
            span.parent.child_time += span.end - span.start
        self.spans.append(span)

    @contextmanager
    def root(self, kind: str, trace: str) -> Iterator[Span]:
        """One benchmark operation: the root of a trace."""
        span = self._open("op." + kind, None, trace)
        stack = self._stack()
        stack.append(span)
        self._root = span
        try:
            yield span
        finally:
            self._root = None
            stack.pop()
            self._close(span)

    def span_call(self, name: str, fn: Callable, args, kwargs):
        root = self._root
        if root is None:
            return fn(*args, **kwargs)
        stack = self._stack()
        # A call on another thread (an HTTP handler) while the client is
        # blocked in its request belongs to that request's trace.
        parent = stack[-1] if stack else root
        span = self._open(name, parent, root.trace)
        stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            self._close(span)

    # -- installation ---------------------------------------------------
    def wrap_method(
        self,
        owner: object,
        attr: str,
        name: str,
        on_call: Optional[Callable[[tuple, object], None]] = None,
    ) -> None:
        """Record a span per call; ``on_call(args, result)`` feeds counters."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.span_call(name, original, args, kwargs)
            if on_call is not None and tracer._root is not None:
                on_call(args, result)
            return result

        setattr(owner, attr, wrapper)

    def count_method(self, owner: object, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        tracer = self
        if isinstance(original, property):
            getter = original.fget

            def fget(instance):
                if tracer._root is not None:
                    tracer.counts[name] += 1
                return getter(instance)

            replacement: object = property(fget, original.fset, original.fdel)
        else:
            def replacement(*args, **kwargs):  # type: ignore[misc]
                if tracer._root is not None:
                    tracer.counts[name] += 1
                return original(*args, **kwargs)

        setattr(owner, attr, replacement)

    # -- aggregation ----------------------------------------------------
    def self_ms(self) -> Dict[str, float]:
        """Total self time per span name, in milliseconds."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += 1000.0 * (span.end - span.start - span.child_time)
        return dict(totals)

    def total_ms(self) -> Dict[str, float]:
        """Total duration per span name, in milliseconds."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += 1000.0 * (span.end - span.start)
        return dict(totals)

    def root_ms(self) -> float:
        return sum(
            1000.0 * (span.end - span.start)
            for span in self.spans
            if span.parent is None
        )

    def write(self, path: str) -> None:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": [span.as_dict() for span in self.spans],
                    "counts": dict(sorted(self.counts.items())),
                },
                handle,
            )


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    import http.server

    import repro.gateway.coordinator as coordinator_mod
    import repro.queries.engine as engine_mod
    import repro.service.sessions as sessions_mod
    import repro.service.tracking as tracking_mod
    from repro.analytics.engine import AnalyticsEngine
    from repro.cache.particle_cache import ParticleCacheManager
    from repro.collector.collector import EventDrivenCollector
    from repro.core.filter import ParticleFilter
    from repro.core.preprocessing import PreprocessingModule
    from repro.filters.kalman import GraphKalmanFilter, KalmanBackend
    from repro.filters.particle import ParticleBackend, ParticleBayesFilter
    from repro.filters.symbolic import SymbolicBackend, SymbolicBayesFilter
    from repro.gateway.coordinator import GatewayCoordinator
    from repro.gateway.transport import ProcessWorkerHandle
    from repro.geometry import Polyline
    from repro.graph.model import Edge
    from repro.graph.walking_graph import WalkingGraph
    from repro.queries.pruning import QueryAwareOptimizer
    from repro.service.sessions import SessionManager
    from repro.service.shards import ShardedFilterExecutor

    wrap = tracer.wrap_method
    counts = tracer.counts

    def count_readings(args: tuple, _result: object) -> None:
        counts["collector.readings"] += len(args[2])

    def count_anchors(_args: tuple, result: object) -> None:
        counts["discretize.anchors"] += len(result)  # type: ignore[arg-type]

    def count_deltas(_args: tuple, result: object) -> None:
        counts["sessions.deltas"] += sum(
            1 for delta in result if not delta.is_empty  # type: ignore[attr-defined]
        )

    def count_sent(args: tuple, _result: object) -> None:
        tracer.messages.append(args[1])

    def count_received(_args: tuple, result: object) -> None:
        if result is not None:
            tracer.messages.append(result)

    wrap(EventDrivenCollector, "ingest_second", "collector.ingest", count_readings)
    wrap(QueryAwareOptimizer, "candidates", "pruning")
    wrap(ShardedFilterExecutor, "build_table", "shards")
    wrap(PreprocessingModule, "process", "preprocess")
    wrap(ParticleBackend, "run", "filter.run")
    wrap(KalmanBackend, "run", "filter.kalman")
    wrap(SymbolicBackend, "run", "filter.symbolic")
    # ``run`` seeds through the ``_initialize`` alias of ``initialize``.
    wrap(ParticleFilter, "initialize", "filter.init")
    wrap(ParticleFilter, "_initialize", "filter.init")
    wrap(ParticleFilter, "predict", "filter.predict")
    wrap(ParticleFilter, "observe", "filter.observe")
    wrap(ParticleFilter, "observe_silence", "filter.observe")
    wrap(ParticleCacheManager, "lookup", "cache")
    wrap(ParticleCacheManager, "store", "cache")
    for owner in (ParticleBayesFilter, GraphKalmanFilter, SymbolicBayesFilter):
        wrap(owner, "posterior", "discretize", count_anchors)
    wrap(SessionManager, "publish", "sessions.publish", count_deltas)
    wrap(AnalyticsEngine, "observe_snapshot", "analytics.observe")
    wrap(GatewayCoordinator, "submit_tick", "gateway.fanout")
    wrap(GatewayCoordinator, "collect_tick", "gateway.merge")
    wrap(GatewayCoordinator, "poll_telemetry", "gateway.telemetry")
    wrap(GatewayCoordinator, "query_range", "gateway.query")
    wrap(GatewayCoordinator, "query_knn", "gateway.query")
    wrap(ProcessWorkerHandle, "submit_tick", "gateway.enqueue", count_sent)
    wrap(ProcessWorkerHandle, "next_snapshot", "gateway.barrier_wait", count_received)
    wrap(http.server.BaseHTTPRequestHandler, "handle_one_request", "http.server")

    # Query evaluation is a module function imported by name into each
    # caller, so the name is rebound in every importing module.
    for module in (engine_mod, tracking_mod, sessions_mod, coordinator_mod):
        for attr, name in (
            ("evaluate_range_query", "query.range"),
            ("evaluate_knn_query", "query.knn"),
        ):
            if attr in module.__dict__:
                wrap(module, attr, name)

    tracer.count_method(Polyline, "segments", "geometry.segment_builds")
    tracer.count_method(Edge, "point_at", "geometry.point_at_calls")
    tracer.count_method(WalkingGraph, "distance", "graph.distance_calls")


def _sum_by_name(series: List[dict], field: str, workers_only: bool = False) -> Dict[str, float]:
    totals: Dict[str, float] = defaultdict(float)
    for item in series:
        if workers_only and "partition" not in (item.get("labels") or {}):
            continue
        totals[str(item["name"])] += float(item.get(field) or 0.0)
    return totals


def layer_metrics(
    tracer: Tracer,
    before: dict,
    after: dict,
    worker_spans: List[dict],
    checkpoint_bytes: int,
    overhead: float,
) -> Dict[str, float]:
    """Per-layer metrics of one traced measured phase.

    ``before`` / ``after`` are obs metric snapshots (``counters`` and
    ``histograms`` lists, worker series carrying a ``partition`` label)
    taken around the measured phase; ``worker_spans`` are the gateway
    workers' spans that started inside it.
    """
    selfs = tracer.self_ms()
    totals = tracer.total_ms()
    counts = tracer.counts

    def counter(name: str) -> float:
        return (_sum_by_name(after.get("counters", []), "value")[name]
                - _sum_by_name(before.get("counters", []), "value")[name])

    def worker_ms(*names: str) -> float:
        late = _sum_by_name(after.get("histograms", []), "total", workers_only=True)
        early = _sum_by_name(before.get("histograms", []), "total", workers_only=True)
        return 1000.0 * sum(late[name] - early[name] for name in names)

    def worker_span_ms(name: str, backend: Optional[str] = None) -> float:
        return 1000.0 * sum(
            span["end"] - span["start"]
            for span in worker_spans
            if span["name"] == name
            and (backend is None or (span.get("attrs") or {}).get("backend") == backend)
        )

    ticks: Dict[str, List[float]] = defaultdict(list)
    for span in worker_spans:
        if span["name"] == "gateway.worker_tick":
            key = str((span.get("attrs") or {}).get("trace"))
            ticks[key].append(span["end"] - span["start"])
    straggle = [max(d) / (sum(d) / len(d)) for d in ticks.values() if len(d) > 1 and sum(d) > 0]

    seen = counter("prune.objects_seen")
    lookups = counter("cache.hits") + counter("cache.misses")
    roots = tracer.root_ms()
    layer_self = sum(value for name, value in selfs.items() if not name.startswith("op."))
    http_ms = totals.get("http.server", 0.0)
    return {
        "collector.ingest_ms": selfs.get("collector.ingest", 0.0),
        "collector.readings": counter("collector.raw_readings"),
        "pruning.ms": selfs.get("pruning", 0.0),
        "pruning.kept_per_seen": counter("prune.candidates_kept") / seen if seen else 0.0,
        "graph.distance_calls": counts["graph.distance_calls"],
        "filter.init_ms": selfs.get("filter.init", 0.0),
        "filter.inits": counter("filter.runs") - counter("filter.resumed_runs"),
        "filter.reseeds": counter("filter.depletion_reseeds"),
        "filter.predict_ms": selfs.get("filter.predict", 0.0) + worker_ms("filter.predict"),
        "filter.observe_ms": selfs.get("filter.observe", 0.0)
        + worker_ms("filter.weight", "filter.normalize", "filter.resample"),
        "filter.run_ms": selfs.get("filter.run", 0.0),
        "filter.runs": counter("filter.runs"),
        "filter.seconds_replayed": counter("filter.seconds_replayed"),
        "filter.kalman_ms": selfs.get("filter.kalman", 0.0)
        + worker_span_ms("filter.run", "kalman"),
        "filter.symbolic_ms": selfs.get("filter.symbolic", 0.0)
        + worker_span_ms("filter.run", "symbolic"),
        "preprocess.ms": selfs.get("preprocess", 0.0),
        "shards.ms": selfs.get("shards", 0.0),
        "geometry.segment_builds": counts["geometry.segment_builds"],
        "geometry.point_at_calls": counts["geometry.point_at_calls"],
        "cache.ms": selfs.get("cache", 0.0),
        "cache.hit_ratio": counter("cache.hits") / lookups if lookups else 0.0,
        "cache.invalidations": counter("cache.invalidations"),
        "discretize.ms": selfs.get("discretize", 0.0) + worker_ms("preprocess.anchor_snap"),
        "discretize.anchors": counts["discretize.anchors"],
        "query.range_ms": selfs.get("query.range", 0.0),
        "query.knn_ms": selfs.get("query.knn", 0.0),
        "sessions.publish_ms": selfs.get("sessions.publish", 0.0),
        "sessions.deltas": counts["sessions.deltas"],
        "analytics.observe_ms": selfs.get("analytics.observe", 0.0),
        "gateway.fanout_ms": totals.get("gateway.fanout", 0.0),
        "gateway.barrier_wait_ms": totals.get("gateway.barrier_wait", 0.0),
        "gateway.merge_ms": selfs.get("gateway.merge", 0.0),
        "gateway.worker_tick_ms": worker_span_ms("gateway.worker_tick"),
        "gateway.straggler_ratio": sum(straggle) / len(straggle) if straggle else 0.0,
        "gateway.message_bytes": float(
            sum(len(pickle.dumps(message)) for message in tracer.messages)
        ),
        "gateway.checkpoint_ms": totals.get("op.checkpoint", 0.0),
        "gateway.checkpoint_bytes": float(checkpoint_bytes),
        "http.server_ms": http_ms,
        "http.overhead_ms": (totals.get("op.query", 0.0) - totals.get("gateway.query", 0.0))
        if http_ms else 0.0,
        "trace.coverage": layer_self / roots if roots else 0.0,
        "trace.overhead": overhead,
    }
