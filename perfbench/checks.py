"""Correctness checks and answer scoring, always run outside timed calls.

A failed check raises :class:`CheckFailed`; ``run.py`` turns that into a
non-zero exit without a result line, so a fast wrong answer can never be
reported as a speed-up.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence, Set

from repro.index import AnchorObjectTable

from inputs import K, QueryRound

#: Probability floor of the range KL divergence (the paper's epsilon).
KL_EPSILON = 0.01
#: Float slack of sums over anchor probabilities.
SUM_TOLERANCE = 1e-9


class CheckFailed(AssertionError):
    """A program answer violated a property the benchmark checks."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_table(table: AnchorObjectTable, where: str) -> None:
    """Every published anchor distribution sums to 1."""
    for object_id in table.objects():
        total = sum(table.distribution_of(object_id).values())
        require(
            abs(total - 1.0) <= SUM_TOLERANCE,
            f"{where}: distribution of {object_id} sums to {total!r}",
        )


def check_full_window(
    probabilities: Mapping[str, float], tracked: Sequence[str], where: str
) -> None:
    """A window covering the whole plan holds every tracked object surely."""
    require(
        set(probabilities) == set(tracked),
        f"{where}: full-plan window answered {len(probabilities)} objects, "
        f"{len(tracked)} are tracked",
    )
    for object_id, p in probabilities.items():
        require(
            abs(p - 1.0) <= SUM_TOLERANCE,
            f"{where}: full-plan window gives {object_id} p={p!r}",
        )


def check_knn_mass(
    probabilities: Mapping[str, float], tracked: int, where: str
) -> None:
    """Algorithm 4: the kNN probabilities sum to at least min(k, objects)."""
    total = sum(probabilities.values())
    require(
        total >= min(K, tracked) - SUM_TOLERANCE,
        f"{where}: kNN probabilities sum to {total!r} < min(k, {tracked})",
    )


def check_session(
    standing: Mapping[str, float],
    adhoc: Mapping[str, float],
    threshold: float,
    where: str,
) -> None:
    """A standing session reports what a fresh ad-hoc query answers."""
    expected = {obj: p for obj, p in adhoc.items() if p >= threshold}
    require(
        dict(standing) == expected,
        f"{where}: standing result differs from a fresh query "
        f"({len(standing)} vs {len(expected)} objects)",
    )


def top_k(probabilities: Mapping[str, float]) -> List[str]:
    ranked = sorted(probabilities.items(), key=lambda item: (-item[1], item[0]))
    return [object_id for object_id, _ in ranked[:K]]


class Accuracy:
    """Range KL and kNN hit rate of answers against generator truth."""

    def __init__(self) -> None:
        self.range_kl: List[float] = []
        self.knn_hits: List[float] = []
        self.uninformed_kl: List[float] = []
        self.uninformed_hits: List[float] = []

    def score_range(
        self, qround: QueryRound, index: int, probabilities: Mapping[str, float],
        plan_area: float,
    ) -> None:
        truth: Set[str] = qround.range_truth[index]
        if not truth:
            return
        total = 0.0
        for object_id in truth:
            q = min(max(probabilities.get(object_id, 0.0), KL_EPSILON), 1.0)
            total += math.log(1.0 / q)
        self.range_kl.append(total / len(truth))
        window = qround.windows[index]
        share = min(max(window.area / plan_area, KL_EPSILON), 1.0)
        self.uninformed_kl.append(math.log(1.0 / share))

    def score_knn(
        self, qround: QueryRound, index: int, probabilities: Mapping[str, float]
    ) -> None:
        truth = qround.knn_truth[index]
        hits = len(set(truth) & set(top_k(probabilities)))
        self.knn_hits.append(hits / len(truth))
        self.uninformed_hits.append(min(K, len(qround.seen)) / len(qround.seen))

    def summary(self, where: str) -> Dict[str, float]:
        require(bool(self.range_kl), f"{where}: no range query had a true answer")
        require(bool(self.knn_hits), f"{where}: no kNN query was scored")
        range_kl = sum(self.range_kl) / len(self.range_kl)
        hit_rate = sum(self.knn_hits) / len(self.knn_hits)
        uninformed_kl = sum(self.uninformed_kl) / len(self.uninformed_kl)
        uninformed_hit = sum(self.uninformed_hits) / len(self.uninformed_hits)
        require(
            range_kl < uninformed_kl,
            f"{where}: range KL {range_kl:.4f} does not beat the "
            f"window-area answer {uninformed_kl:.4f}",
        )
        require(
            hit_rate > uninformed_hit,
            f"{where}: kNN hit rate {hit_rate:.4f} does not beat "
            f"k/objects {uninformed_hit:.4f}",
        )
        return {
            "range_kl": range_kl,
            "knn_hit_rate": hit_rate,
            "uninformed_kl": uninformed_kl,
            "uninformed_hit_rate": uninformed_hit,
            "scored_range": float(len(self.range_kl)),
            "scored_knn": float(len(self.knn_hits)),
        }

