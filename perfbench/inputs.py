"""Seeded inputs: simulated worlds, reading batches, query rounds, truth.

Everything a workload feeds the program is built here, before any timed
call, from the ``--seed`` argument alone. Traces and readings come from
the paper's generator (``TrueTraceGenerator`` + ``RawReadingGenerator``,
Section 5.1); query windows and points come from a benchmark-owned
generator; the ground truth of every scored query is computed from the
generator's true positions at the query's second.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.config import DEFAULT_CONFIG, SimulationConfig
from repro.floorplan import paper_office_plan, small_test_plan
from repro.geometry import Point, Rect
from repro.graph import build_walking_graph
from repro.rfid import deploy_readers_uniform
from repro.service import ReadingBatch
from repro.sim.readings_sim import RawReadingGenerator
from repro.sim.trace import TrueTraceGenerator

PLANS = {"paper": paper_office_plan, "small": small_test_plan}

#: Paper Table 2: 2 % query windows, k = 3; Section 5: 20 range and
#: 10 kNN queries per evaluation round.
WINDOW_RATIO = 0.02
K = 3
RANGE_PER_ROUND = 20
KNN_PER_ROUND = 10


def stream(seed: int, label: str) -> np.random.Generator:
    """An independent generator for one named input stream of one seed."""
    return np.random.default_rng([seed, zlib.crc32(label.encode("utf-8"))])


@dataclass
class QueryRound:
    """One paper round: 20 range windows and 10 kNN points at one second.

    ``range_truth`` / ``knn_truth`` hold the true answers (object ids as
    the program names them) computed from the generator's positions.
    """

    second: int
    windows: List[Rect]
    points: List[Point]
    range_truth: List[Set[str]] = field(default_factory=list)
    knn_truth: List[List[str]] = field(default_factory=list)
    seen: Set[str] = field(default_factory=set)


@dataclass
class World:
    """One generated world: its configuration and its reading stream."""

    config: SimulationConfig
    batches: List[ReadingBatch]
    tag_to_object: Dict[str, str]
    object_ids: List[str]
    first_seen: Dict[str, int]
    rounds: Dict[int, QueryRound] = field(default_factory=dict)

    def batch(self, second: int) -> ReadingBatch:
        return self.batches[second - 1]

    def all_seen_by(self) -> int:
        """The first second by which every object has been read once."""
        if len(self.first_seen) < len(self.object_ids):
            raise ValueError("some objects are never read in this world")
        return max(self.first_seen.values())


def build_world(
    seed: int,
    label: str,
    plan_name: str,
    num_objects: int,
    horizon: int,
    round_seconds: Sequence[int],
    ids_are_tags: bool = False,
    config_seed: int = 0,
) -> World:
    """Simulate ``horizon`` seconds and prepare query rounds with truth.

    ``round_seconds`` lists the seconds whose query rounds are drawn and
    scored. ``ids_are_tags`` names objects by tag id, as a service that
    registers unknown tags by identity does (the gateway workers).
    """
    config = DEFAULT_CONFIG.with_overrides(
        seed=config_seed or seed, num_objects=num_objects
    )
    plan = PLANS[plan_name]()
    graph = build_walking_graph(plan)
    readers = deploy_readers_uniform(plan, config.num_readers, config.activation_range)
    trace = TrueTraceGenerator(graph, config, rng=stream(seed, label + "/trace"))
    reading_gen = RawReadingGenerator(
        readers,
        detection_probability=config.detection_probability,
        samples_per_second=config.samples_per_second,
        rng=stream(seed, label + "/readings"),
    )
    tag_to_object = trace.tag_to_object()
    name_of = {tag: (tag if ids_are_tags else obj) for tag, obj in tag_to_object.items()}
    query_rng = stream(seed, label + "/queries")
    wanted = set(round_seconds)
    batches: List[ReadingBatch] = []
    first_seen: Dict[str, int] = {}
    rounds: Dict[int, QueryRound] = {}
    edges = graph.edges
    lengths = np.array([edge.length for edge in edges])
    ends = {edge.edge_id: (edge.node_a, edge.node_b, edge.length) for edge in edges}
    bounds = plan.bounds
    side = min(math.sqrt(WINDOW_RATIO * bounds.area), bounds.width, bounds.height)
    for _ in range(horizon):
        trace.step()
        second = trace.now
        readings = reading_gen.generate(second, trace.tag_positions())
        batches.append(ReadingBatch(second=second, readings=tuple(readings)))
        for reading in readings:
            first_seen.setdefault(name_of[reading.tag_id], second)
        if second not in wanted:
            continue
        windows = []
        for _ in range(RANGE_PER_ROUND):
            x = query_rng.uniform(bounds.min_x, bounds.max_x - side)
            y = query_rng.uniform(bounds.min_y, bounds.max_y - side)
            windows.append(Rect(x, y, x + side, y + side))
        points = []
        for _ in range(KNN_PER_ROUND):
            index = int(query_rng.choice(len(edges), p=lengths / lengths.sum()))
            points.append(edges[index].point_at(query_rng.uniform(0.0, lengths[index])))
        qround = QueryRound(second=second, windows=windows, points=points)
        qround.seen = set(first_seen)
        _fill_truth(qround, trace, graph, ends, name_of)
        rounds[second] = qround
    return World(
        config=config,
        batches=batches,
        tag_to_object=tag_to_object,
        object_ids=sorted(name_of.values()),
        first_seen=first_seen,
        rounds=rounds,
    )


def _fill_truth(qround: QueryRound, trace, graph, ends, name_of: Dict[str, str]) -> None:
    """True range sets and true kNN lists over the objects seen so far."""
    positions: List[Tuple[str, Point]] = []
    locations = []
    for obj in trace.objects:
        name = name_of[obj.tag_id]
        if name not in qround.seen:
            continue
        positions.append((name, graph.point_of(obj.location)))
        locations.append((name, obj.location))
    for window in qround.windows:
        qround.range_truth.append(
            {
                name
                for name, p in positions
                if window.min_x <= p.x <= window.max_x
                and window.min_y <= p.y <= window.max_y
            }
        )
    for point in qround.points:
        anchor, _ = graph.locate(point)
        ranked = sorted(
            locations,
            key=lambda item: (_network_distance(graph, ends, anchor, item[1]), item[0]),
        )
        qround.knn_truth.append([name for name, _ in ranked[:K]])


def _network_distance(graph, ends, a, b) -> float:
    """Shortest walking distance between two graph locations.

    ``ends`` maps edge id -> (node_a, node_b, length), so edge lengths are
    not recomputed per call.
    """
    a_first, a_second, a_length = ends[a.edge_id]
    b_first, b_second, b_length = ends[b.edge_id]
    best = abs(a.offset - b.offset) if a.edge_id == b.edge_id else float("inf")
    for node_a, off_a in ((a_first, a.offset), (a_second, a_length - a.offset)):
        for node_b, off_b in ((b_first, b.offset), (b_second, b_length - b.offset)):
            best = min(best, off_a + graph.node_distance(node_a, node_b) + off_b)
    return best
