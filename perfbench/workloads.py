"""The three workloads: paper query rounds, live serving, the HTTP gateway.

Each workload is a closed loop driven by this one process: the next
tick, round or query starts only after the previous one returned, and no
executor thread pool is used. Work is fixed by ``--seconds`` and the
seed (see :func:`sized`), so two runs with one seed attempt the same
operations on the same inputs and score the same answers.

A run calls :meth:`Workload.set_up` once per set-up (timed: the
``setup_s`` metric), then :meth:`Workload.measure` (the timed operations
plus their correctness checks, which run outside the timed calls), then
:meth:`Workload.close` on every kept state and :meth:`Workload.verify`.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import urlencode

import numpy as np

import repro.obs as obs
from repro.floorplan import paper_office_plan
from repro.geometry import Point, Rect
from repro.gateway import GatewayCoordinator, GatewayServer, TenantSpec, save_checkpoint
from repro.graph import build_anchor_index, build_walking_graph
from repro.queries import IndoorQueryEngine, KNNQuery, RangeQuery
from repro.queries.range_query import evaluate_range_query
from repro.rfid import deploy_readers_uniform
from repro.service import TrackingService

import checks
from checks import Accuracy, require
from inputs import K, PLANS, World, build_world
from layers import Tracer
from timing import DriftClock, Samples, children_peak_kib, percentile, tail_percentile

OP_TYPES = ("tick", "round", "query", "checkpoint", "redelivery")

#: Paper Table 2 / Section 5 settings.
PAPER_OBJECTS = 200
WARMUP_S = 60
#: Seconds between two paper rounds: filter runs resume across
#: multi-second gaps, and most are cold initialisations.
ROUND_SPACING_S = 10
#: Live serving: the warm-up prefix ends once every object has been read
#: (second 9 to 15 on the seeds tried), never before LIVE_PREFIX_S.
LIVE_PREFIX_S = 8
LIVE_PREFIX_MAX_S = 30
#: Nominal cost of one unit of work, which sizes a run to ``--seconds``.
PAPER_ROUND_S = 2.3
LIVE_TICK_S = 0.6
GATEWAY_TICK_S = 0.27
#: One redelivered (already processed) second per this many ticks.
REDELIVERY_EVERY = 5
#: One rolling gateway checkpoint per this many fleet seconds.
CHECKPOINT_EVERY = 10
#: Fleet seconds whose merged tables are compared with a 1-partition
#: inline reference fed the same batches.
REFERENCE_SECONDS = (1, 3, 5)
GATEWAY_PARTITIONS = 2
#: The probability below which a standing session leaves an object out
#: (the service and coordinator default).
SESSION_THRESHOLD = 0.05
GATEWAY_TENANTS = (
    ("paper-a", "paper", "particle", 80),
    ("paper-b", "paper", "particle", 80),
    ("small-kalman", "small", "kalman", 40),
    ("small-symbolic", "small", "symbolic", 40),
)


def sized(seconds: int, unit_s: float, cycle: int) -> int:
    """How many units of nominal cost ``unit_s`` fill ``seconds``.

    Rounded to whole cycles of ``cycle`` units (at least one), so a
    cycle's operation mix, and the share of failed operations, never
    changes with the run length.
    """
    return max(1, int(round(seconds / unit_s / cycle))) * cycle


class Ops:
    """Operations attempted and failed, per type."""

    def __init__(self) -> None:
        self.attempted = {kind: 0 for kind in OP_TYPES}
        self.failed = {kind: 0 for kind in OP_TYPES}

    def done(self, kind: str, count: int = 1) -> None:
        self.attempted[kind] += count

    def fail(self, kind: str) -> None:
        self.attempted[kind] += 1
        self.failed[kind] += 1


class Workload:
    """Shared timing, accounting and tracing plumbing."""

    name = ""
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setups = 3

    def __init__(self, seed: int, inputs: object, tracer: Optional[Tracer] = None) -> None:
        self.seed = seed
        self.inputs = inputs
        self.tracer = tracer
        self.clock = DriftClock()
        self.ops = Ops()
        self.accuracy = Accuracy()
        self.samples: Dict[str, Samples] = defaultdict(lambda: Samples(self.clock))
        self.children_kib = 0
        self.checkpoint_bytes = 0
        self._traces = 0

    # -- timing helpers ---------------------------------------------------
    def rooted(self, kind: str, fn: Callable) -> Callable:
        """``fn`` as one traced operation (unchanged when untraced)."""
        tracer = self.tracer
        if tracer is None:
            return fn

        def traced(*args):
            self._traces += 1
            with tracer.root(kind, f"{kind}-{self._traces}"):
                return fn(*args)

        return traced

    def timed(self, kind: str, series: str, fn: Callable, *args):
        result, raw, span = self.clock.call(self.rooted(kind, fn), *args)
        self.samples[series].add(raw, span)
        return result

    def program_seconds(self) -> Tuple[float, float]:
        """Raw and corrected seconds spent inside timed program calls."""
        raw = corrected = 0.0
        for name in self.busy_series:
            raw += sum(self.samples[name].raw)
            corrected += sum(self.samples[name].corrected)
        return raw, corrected

    busy_series: Tuple[str, ...] = ()

    # -- interface ----------------------------------------------------------
    @staticmethod
    def make_inputs(seed: int, seconds: int) -> object:
        raise NotImplementedError

    def set_up(self, index: int) -> object:
        """Build the program's state for the ``index``-th set-up."""
        raise NotImplementedError

    def retire(self, states: List[object]) -> List[object]:
        """The set-up states to keep for measuring (all, by default)."""
        return states

    def measure(self, states: List[object]) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        """Checks that re-run the program apart from the measured state."""

    def begin(self, states: List[object]) -> None:
        """Read the program's telemetry as the traced measured phase starts."""
        if self.tracer is not None:
            self._before, _ = self.telemetry(states)
            self._since = time.perf_counter()

    def end(self, states: List[object]) -> None:
        if self.tracer is not None:
            after, spans = self.telemetry(states)
            spans = [span for span in spans if float(span["start"]) >= self._since]
            self.telemetry_window = (self._before, after, spans)

    def telemetry(self, states: List[object]) -> Tuple[dict, List[dict]]:
        """The program's obs metrics, plus worker spans where workers run."""
        return obs.registry().snapshot(), []

    def close(self, state: object) -> None:
        pass

    def end_to_end(self) -> Dict[str, Tuple[float, float]]:
        """Metric -> (raw, corrected) value of the workload-specific metrics."""
        raise NotImplementedError

    def tails(self) -> List[str]:
        return []


def _median_pair(samples: Samples, scale: float = 1000.0) -> Tuple[float, float]:
    return (
        scale * float(np.median(samples.raw)),
        scale * float(np.median(samples.corrected)),
    )


def _rate(count: float, samples: Samples) -> Tuple[float, float]:
    return count / sum(samples.raw), count / sum(samples.corrected)


# ----------------------------------------------------------------------
# paper_rounds
# ----------------------------------------------------------------------
class PaperRounds(Workload):
    """Section 5 snapshot setting: query rounds answered by ``evaluate``."""

    name = "paper_rounds"
    busy_series = ("tick", "round")

    @staticmethod
    def make_inputs(seed: int, seconds: int) -> List[World]:
        rounds = sized(seconds, PAPER_ROUND_S, Workload.setups)
        horizon = WARMUP_S + ROUND_SPACING_S * rounds // Workload.setups
        return [
            build_world(
                seed, f"paper_rounds/{index}", "paper", PAPER_OBJECTS, horizon,
                range(WARMUP_S, horizon + 1, ROUND_SPACING_S),
            )
            for index in range(Workload.setups)
        ]

    def set_up(self, index: int):
        world: World = self.inputs[index]  # type: ignore[index]
        config = world.config
        plan = paper_office_plan()
        graph = build_walking_graph(plan)
        anchors = build_anchor_index(graph, config.anchor_spacing)
        readers = deploy_readers_uniform(plan, config.num_readers, config.activation_range)
        engine = IndoorQueryEngine(
            plan, readers, world.tag_to_object, config=config, graph=graph,
            anchor_index=anchors, use_cache=True, use_pruning=True,
        )
        rng = np.random.default_rng([self.seed, index])
        for second in range(1, WARMUP_S + 1):
            engine.ingest_second(second, world.batch(second).readings)
        self._answer(engine, rng, world, WARMUP_S)
        return world, engine, rng

    @staticmethod
    def _answer(engine: IndoorQueryEngine, rng, world: World, second: int):
        qround = world.rounds[second]
        engine.clear_queries()
        for index, window in enumerate(qround.windows):
            engine.register_range_query(RangeQuery(f"r{index}", window))
        for index, point in enumerate(qround.points):
            engine.register_knn_query(KNNQuery(f"k{index}", point, K))
        return engine.evaluate(second, rng)

    def measure(self, states) -> None:
        horizon = len(states[0][0].batches)
        for second in range(WARMUP_S + ROUND_SPACING_S, horizon + 1, ROUND_SPACING_S):
            for world, engine, rng in states:
                batch = self.clock.batch()
                ingest = self.rooted("tick", engine.ingest_second)
                for tick in range(second - ROUND_SPACING_S + 1, second + 1):
                    batch.call(ingest, tick, world.batch(tick).readings)
                batch.close()
                self.samples["tick"].add_batch(batch)
                self.ops.done("tick", ROUND_SPACING_S)

                snapshot = self.timed(
                    "round", "round", self._answer, engine, rng, world, second
                )
                self.ops.done("round")
                self.ops.done(
                    "query", len(snapshot.range_results) + len(snapshot.knn_results)
                )
                self._check(engine, world.rounds[second], snapshot)

    def _check(self, engine, qround, snapshot) -> None:
        where = f"paper_rounds t={qround.second}"
        table = snapshot.table
        tracked = table.objects()
        checks.check_table(table, where)
        full = evaluate_range_query(
            RangeQuery("full-plan", engine.plan.bounds), engine.plan,
            engine.anchor_index, table,
        )
        checks.check_full_window(full.probabilities, tracked, where)
        area = engine.plan.bounds.area
        for index in range(len(qround.windows)):
            self.accuracy.score_range(
                qround, index, snapshot.range_results[f"r{index}"].probabilities, area
            )
        for index in range(len(qround.points)):
            probabilities = snapshot.knn_results[f"k{index}"].probabilities
            checks.check_knn_mass(probabilities, len(tracked), where)
            self.accuracy.score_knn(qround, index, probabilities)

    def end_to_end(self):
        rounds = self.samples["round"]
        busy_raw, busy_corrected = self.program_seconds()
        object_ticks = PAPER_OBJECTS * self.ops.attempted["tick"]
        return {
            "round_ms_p50": _median_pair(rounds),
            "tick_ms_p50": _median_pair(self.samples["tick"]),
            # Every query of a round is answered when its round returns.
            "query_ms_p50": _median_pair(rounds),
            "queries_per_s": _rate(self.ops.attempted["query"], rounds),
            "object_ticks_per_s": (object_ticks / busy_raw, object_ticks / busy_corrected),
        }

    def tails(self) -> List[str]:
        return _tail_lines(self.samples, ("tick", "round"))


# ----------------------------------------------------------------------
# live_serving
# ----------------------------------------------------------------------
class LiveServing(Workload):
    """The online write path: 1 Hz ticks, standing sessions, ad-hoc reads."""

    name = "live_serving"
    busy_series = ("tick", "query")

    @staticmethod
    def make_inputs(seed: int, seconds: int) -> List[World]:
        cycle = Workload.setups * REDELIVERY_EVERY
        per_world = sized(seconds, LIVE_TICK_S, cycle) // Workload.setups
        horizon = LIVE_PREFIX_MAX_S + per_world
        worlds = []
        for index in range(Workload.setups):
            world = build_world(
                seed, f"live_serving/{index}", "paper", PAPER_OBJECTS, horizon,
                range(LIVE_PREFIX_S + 1, horizon + 1),
            )
            world.prefix = max(LIVE_PREFIX_S, world.all_seen_by())  # type: ignore[attr-defined]
            if world.prefix > LIVE_PREFIX_MAX_S:  # type: ignore[attr-defined]
                raise ValueError(f"live_serving/{index}: objects unread by {LIVE_PREFIX_MAX_S} s")
            world.ticks = per_world  # type: ignore[attr-defined]
            worlds.append(world)
        return worlds

    def set_up(self, index: int):
        world = self.inputs[index]  # type: ignore[index]
        config = world.config
        plan = paper_office_plan()
        readers = deploy_readers_uniform(plan, config.num_readers, config.activation_range)
        service = TrackingService(
            config, plan=plan, readers=readers, tag_to_object=world.tag_to_object,
            num_shards=1, mode="serial", use_cache=True, use_pruning=False,
            seed=self.seed * 10 + index, report_threshold=SESSION_THRESHOLD,
        )
        first = world.rounds[LIVE_PREFIX_S + 1]
        for number, window in enumerate(first.windows[:4]):
            service.sessions.subscribe_range(window, session_id=f"range-{number}")
        for number, point in enumerate(first.points[:2]):
            service.sessions.subscribe_knn(point, K, session_id=f"knn-{number}")
        service.enable_analytics()
        for second in range(1, world.prefix + 1):
            service.process_batch(world.batch(second))
        return world, service

    def close(self, state) -> None:
        state[1].close()

    def measure(self, states) -> None:
        for step in range(1, states[0][0].ticks + 1):
            for world, service in states:
                second = world.prefix + step
                self.timed("tick", "tick", service.process_batch, world.batch(second))
                self.ops.done("tick")

                qround = world.rounds[second]
                range_query = self.rooted("query", service.query_range)
                knn_query = self.rooted("query", service.query_knn)
                batch = self.clock.batch()
                ranges = [batch.call(range_query, window, f"r{i}")
                          for i, window in enumerate(qround.windows)]
                knns = [batch.call(knn_query, point, K, f"k{i}")
                        for i, point in enumerate(qround.points)]
                batch.close()
                self.samples["query"].add_batch(batch)
                self.samples["round"].add(sum(batch.raw), batch.span)
                self.ops.done("round")
                self.ops.done("query", len(ranges) + len(knns))
                self._check(service, qround, ranges, knns)

                if step % REDELIVERY_EVERY == 0:
                    # At-least-once delivery: a batch for a processed second.
                    try:
                        service.process_batch(world.batch(second - 2))
                    except ValueError:
                        self.ops.fail("redelivery")
                    else:
                        self.ops.done("redelivery")

    def _check(self, service, qround, ranges, knns) -> None:
        where = f"live_serving t={qround.second}"
        area = service.plan.bounds.area
        snapshot = service.snapshot()
        require(snapshot.second == qround.second, f"{where}: published {snapshot.second}")
        tracked = snapshot.table.objects()
        checks.check_table(snapshot.table, where)
        full = service.query_range(service.plan.bounds)
        checks.check_full_window(full.probabilities, tracked, where)
        for index, result in enumerate(ranges):
            self.accuracy.score_range(qround, index, result.probabilities, area)
        for index, result in enumerate(knns):
            checks.check_knn_mass(result.probabilities, len(tracked), where)
            self.accuracy.score_knn(qround, index, result.probabilities)
        for sub in service.sessions.subscriptions():
            if sub.kind == "range":
                fresh = service.query_range(sub.window)
            else:
                fresh = service.query_knn(sub.point, sub.k)
            checks.check_session(
                service.sessions.current_result(sub.session_id),
                fresh.probabilities, SESSION_THRESHOLD,
                f"{where} {sub.session_id}",
            )

    def end_to_end(self):
        ticks = self.samples["tick"]
        queries = self.samples["query"]
        object_ticks = PAPER_OBJECTS * self.ops.attempted["tick"]
        return {
            "round_ms_p50": _median_pair(self.samples["round"]),
            "tick_ms_p50": _median_pair(ticks),
            "query_ms_p50": _median_pair(queries),
            "queries_per_s": _rate(len(queries), queries),
            "object_ticks_per_s": _rate(object_ticks, ticks),
        }

    def tails(self) -> List[str]:
        return _tail_lines(self.samples, ("tick", "query"))


# ----------------------------------------------------------------------
# gateway_http
# ----------------------------------------------------------------------
class GatewayInputs:
    """The tenant specs, one generated world per tenant, session queries."""

    def __init__(self, seed: int, seconds: int) -> None:
        self.ticks = sized(seconds, GATEWAY_TICK_S, CHECKPOINT_EVERY)
        horizon = 1 + self.ticks
        self.specs: List[TenantSpec] = []
        self.worlds: Dict[str, World] = {}
        self.bounds: Dict[str, Rect] = {}
        self.sessions: Dict[str, Tuple[Rect, Point]] = {}
        for index, (tenant, plan, backend, objects) in enumerate(GATEWAY_TENANTS):
            spec_seed = seed * 100 + index + 1
            self.specs.append(
                TenantSpec(tenant, spec_seed, objects, plan, backend)
            )
            self.bounds[tenant] = PLANS[plan]().bounds
            self.worlds[tenant] = build_world(
                seed, "gateway/" + tenant, plan, objects, horizon,
                range(2, horizon + 1), ids_are_tags=True, config_seed=spec_seed,
            )
            first = self.worlds[tenant].rounds[2]
            self.sessions[tenant] = (first.windows[index], first.points[index])


class GatewayHttp(Workload):
    """Partitioned multi-tenant serving behind the HTTP gateway."""

    name = "gateway_http"
    busy_series = ("tick", "query", "checkpoint")
    # A set-up lasts under a second here, so more of them are cheap and
    # keep the first one's process-start costs out of the median.
    setups = 5

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.out_dir = os.path.join(root, ".perfbench-out", f"gateway-{os.getpid()}")
        self.tables: Dict[int, Dict[str, object]] = {}

    @staticmethod
    def make_inputs(seed: int, seconds: int) -> GatewayInputs:
        return GatewayInputs(seed, seconds)

    def _fleet_tick(self, coordinator: GatewayCoordinator, second: int) -> None:
        inputs: GatewayInputs = self.inputs  # type: ignore[assignment]
        for spec in inputs.specs:
            coordinator.submit_tick(spec.tenant_id, inputs.worlds[spec.tenant_id].batch(second))
        for _ in inputs.specs:
            coordinator.collect_tick()

    def set_up(self, index: int):
        inputs: GatewayInputs = self.inputs  # type: ignore[assignment]
        coordinator = GatewayCoordinator(
            inputs.specs, num_partitions=GATEWAY_PARTITIONS, transport="process"
        )
        server = GatewayServer(coordinator).start()
        for tenant, (window, point) in inputs.sessions.items():
            coordinator.subscribe_range(tenant, window, "range")
            coordinator.subscribe_knn(tenant, point, K, "knn")
        self._fleet_tick(coordinator, 1)
        return coordinator, server

    def retire(self, states):
        """Every set-up repeats one fleet; only the last one is measured."""
        for state in states[:-1]:
            self.close(state)
        return states[-1:]

    def close(self, state) -> None:
        coordinator, server = state
        server.stop()
        coordinator.close()
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def telemetry(self, states) -> Tuple[dict, List[dict]]:
        coordinator, _ = states[-1]
        coordinator.poll_telemetry()
        document = coordinator.fleet_snapshot()
        spans = [
            span for span in document["trace"]["spans"]
            if int(span.get("process") or 0) >= 1
        ]
        return document["metrics"], spans

    def verify(self) -> None:
        """Merged tables equal those of a 1-partition inline reference."""
        inputs: GatewayInputs = self.inputs  # type: ignore[assignment]
        reference = GatewayCoordinator(inputs.specs, num_partitions=1, transport="inline")
        try:
            for second in range(1, max(REFERENCE_SECONDS) + 1):
                self._fleet_tick(reference, second)
                for tenant, table in self.tables.get(second, {}).items():
                    expected = reference.latest_snapshot(tenant).table
                    require(
                        sorted(table.objects()) == sorted(expected.objects())
                        and all(
                            table.distribution_of(obj) == expected.distribution_of(obj)
                            for obj in expected.objects()
                        ),
                        f"gateway_http t={second} {tenant}: merged table differs "
                        f"from the 1-partition reference",
                    )
        finally:
            reference.close()

    def _requests(self, second: int):
        """The round's 20 range and 10 kNN requests, spread over tenants."""
        inputs: GatewayInputs = self.inputs  # type: ignore[assignment]
        tenants = [spec.tenant_id for spec in inputs.specs]
        for index in range(20):
            tenant = tenants[index % len(tenants)]
            window = inputs.worlds[tenant].rounds[second].windows[index]
            query = {"tenant": tenant, "min_x": repr(window.min_x), "min_y": repr(window.min_y),
                     "max_x": repr(window.max_x), "max_y": repr(window.max_y)}
            yield tenant, index, "range", "/query/range?" + urlencode(query)
        for index in range(10):
            tenant = tenants[index % len(tenants)]
            point = inputs.worlds[tenant].rounds[second].points[index]
            query = {"tenant": tenant, "x": repr(point.x), "y": repr(point.y), "k": K}
            yield tenant, index, "knn", "/query/knn?" + urlencode(query)

    def measure(self, states) -> None:
        inputs: GatewayInputs = self.inputs  # type: ignore[assignment]
        coordinator, server = states[-1]
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=30)

        def fetch(path: str) -> Tuple[int, bytes]:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()

        fetch_query = self.rooted("query", fetch)
        self._keep_tables(coordinator, 1)
        try:
            for second in range(2, 2 + inputs.ticks):
                self.timed("tick", "tick", self._fleet_tick, coordinator, second)
                self.ops.done("tick")
                self._keep_tables(coordinator, second)

                requests = list(self._requests(second))
                batch = self.clock.batch()
                replies = [batch.call(fetch_query, path) for _, _, _, path in requests]
                batch.close()
                self.samples["query"].add_batch(batch)
                self.samples["round"].add(sum(batch.raw), batch.span)
                self.ops.done("round")
                self.ops.done("query", len(replies))
                self._check(coordinator, second, requests, replies)

                if (second - 1) % CHECKPOINT_EVERY == 0:
                    self.timed("checkpoint", "checkpoint", save_checkpoint, coordinator, self.out_dir)
                    self.ops.done("checkpoint")
                    self.checkpoint_bytes += sum(
                        os.path.getsize(os.path.join(self.out_dir, name))
                        for name in os.listdir(self.out_dir)
                    )
        finally:
            connection.close()
        # Earlier set-ups are closed by now: only this fleet's workers count.
        self.children_kib = children_peak_kib()

    def _keep_tables(self, coordinator: GatewayCoordinator, second: int) -> None:
        if second in REFERENCE_SECONDS:
            self.tables[second] = {
                tenant: coordinator.latest_snapshot(tenant).table
                for tenant in coordinator.tenant_ids()
            }

    def _check(self, coordinator, second: int, requests, replies) -> None:
        inputs: GatewayInputs = self.inputs  # type: ignore[assignment]
        where = f"gateway_http t={second}"
        tracked: Dict[str, int] = {}
        for tenant, (window, point) in inputs.sessions.items():
            table = coordinator.latest_snapshot(tenant).table
            tracked[tenant] = len(table.objects())
            checks.check_table(table, f"{where} {tenant}")
            full = coordinator.query_range(tenant, inputs.bounds[tenant])
            checks.check_full_window(full.probabilities, table.objects(), f"{where} {tenant}")
            for session, fresh in (
                ("range", coordinator.query_range(tenant, window)),
                ("knn", coordinator.query_knn(tenant, point, K)),
            ):
                checks.check_session(
                    coordinator.session_result(tenant, session), fresh.probabilities,
                    SESSION_THRESHOLD, f"{where} {tenant}/{session}",
                )
        for (tenant, index, kind, path), (status, body) in zip(requests, replies):
            require(status == 200, f"{where}: {path} answered HTTP {status}")
            answer = json.loads(body)["probabilities"]
            qround = inputs.worlds[tenant].rounds[second]
            if kind == "range":
                direct = coordinator.query_range(tenant, qround.windows[index])
                self.accuracy.score_range(qround, index, answer, inputs.bounds[tenant].area)
            else:
                direct = coordinator.query_knn(tenant, qround.points[index], K)
                checks.check_knn_mass(answer, tracked[tenant], where)
                self.accuracy.score_knn(qround, index, answer)
            require(
                answer == direct.probabilities,
                f"{where}: HTTP answer of {path} differs from a direct call",
            )

    def end_to_end(self):
        ticks = self.samples["tick"]
        queries = self.samples["query"]
        inputs: GatewayInputs = self.inputs  # type: ignore[assignment]
        objects = sum(spec.num_objects for spec in inputs.specs)
        object_ticks = objects * inputs.ticks
        return {
            "round_ms_p50": _median_pair(self.samples["round"]),
            "tick_ms_p50": _median_pair(ticks),
            "query_ms_p50": _median_pair(queries),
            "queries_per_s": _rate(len(queries), queries),
            "object_ticks_per_s": _rate(object_ticks, ticks),
        }

    def tails(self) -> List[str]:
        return _tail_lines(self.samples, ("tick", "query"))


def _tail_lines(samples: Dict[str, Samples], names) -> List[str]:
    """Median and the tail the sample count allows, per series."""
    lines = []
    for name in names:
        series = samples[name]
        q = tail_percentile(len(series))
        line = f"{name} samples={len(series)} p50={1000 * np.median(series.corrected):.3f}ms"
        if q is not None:
            line += f" p{q}={1000 * percentile(series.corrected, q):.3f}ms"
        lines.append(line)
    return lines


WORKLOADS = {cls.name: cls for cls in (PaperRounds, LiveServing, GatewayHttp)}
