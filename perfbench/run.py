"""End-to-end benchmark of the repro system: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_rounds --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the untraced program (observability off) and
prints every end-to-end metric of ``BENCHMARK.json``; ``--trace 1``
measures the same inputs once untraced and once with the per-layer
wrappers of ``layers.py`` and the program's obs counters on, and prints
every per-layer metric. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. A failed
correctness check exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def _select(contract: dict, key: str, values: dict) -> dict:
    """Values in ``BENCHMARK.json`` order, each with its declared unit."""
    metrics = {}
    for entry in contract[key]:
        name = entry["name"]
        if name not in values:
            raise KeyError(f"workload produced no value for metric {name!r}")
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
    return metrics


def set_up_and_measure(workload, setup=None) -> None:
    """All set-ups (timed into ``setup`` when given), then the measured phase."""
    states = []
    try:
        for index in range(workload.setups):
            state, raw, span = workload.clock.call(workload.set_up, index)
            if setup is not None:
                setup.add(raw, span)
            states = workload.retire(states + [state])
        workload.begin(states)
        workload.measure(states)
        workload.end(states)
    finally:
        for state in states:
            workload.close(state)


def make_inputs(cls, seed: int, seconds: int):
    """Build the run's inputs, then keep them out of the collector's way.

    The inputs (reading batches, query rounds, truth) are hundreds of
    thousands of objects that live for the whole run; frozen, they no
    longer make every full garbage collection inside a timed program
    call longer than it would be in a process serving the same load.
    """
    inputs = cls.make_inputs(seed, seconds)
    gc.collect()
    gc.freeze()
    return inputs


def run_untraced(cls, seed: int, seconds: int):
    from timing import Samples, median, self_peak_kib

    inputs = make_inputs(cls, seed, seconds)
    workload = cls(seed, inputs)
    setup = Samples(workload.clock)
    set_up_and_measure(workload, setup)
    workload.verify()
    accuracy = workload.accuracy.summary(cls.name)
    pairs = dict(workload.end_to_end())
    pairs["setup_s"] = (median(setup.raw), median(setup.corrected))
    for name in ("range_kl", "knn_hit_rate"):
        pairs[name] = (accuracy[name], accuracy[name])
    peak_mb = (self_peak_kib() + workload.children_kib) / 1024.0
    pairs["peak_rss_mb"] = (peak_mb, peak_mb)
    lines = workload.tails() + [
        f"kernel probes={len(workload.clock.probes)} "
        f"median={1000 * median(workload.clock.probes):.4f}ms",
        f"setup samples={len(setup)} corrected="
        + ",".join(f"{value:.4f}" for value in setup.corrected),
        "accuracy "
        + " ".join(f"{key}={value:.6g}" for key, value in sorted(accuracy.items())),
    ]
    return workload, pairs, lines


def run_traced(cls, seed: int, seconds: int):
    import repro.obs as obs
    from layers import Tracer, install, layer_metrics

    # One set-up per pass: the first world (one fleet on gateway_http)
    # is measured untraced, then traced; per-layer totals cover it alone.
    inputs = make_inputs(cls, seed, seconds)
    plain = cls(seed, inputs)
    plain.setups = 1
    set_up_and_measure(plain)
    untraced = plain.program_seconds()[1]

    tracer = Tracer()
    install(tracer)
    obs.enable(fresh=True)
    workload = cls(seed, inputs, tracer)
    workload.setups = 1
    set_up_and_measure(workload)
    workload.verify()
    workload.accuracy.summary(cls.name)
    before, after, spans = workload.telemetry_window
    overhead = workload.program_seconds()[1] / untraced
    values = layer_metrics(
        tracer, before, after, spans, workload.checkpoint_bytes, overhead
    )
    out = os.path.join(ROOT, ".perfbench-out", f"trace-{cls.name}-seed{seed}.json")
    tracer.write(out)
    lines = [f"spans={len(tracer.spans)} written to {os.path.relpath(out, ROOT)}"]
    return workload, values, lines


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from checks import CheckFailed
    from workloads import OP_TYPES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    contract = _load_contract()
    cls = WORKLOADS[args.workload]
    started = time.perf_counter()
    try:
        if args.trace:
            workload, values, lines = run_traced(cls, args.seed, args.seconds)
            metrics = _select(contract, "per_layer", values)
            raw = None
        else:
            workload, pairs, lines = run_untraced(cls, args.seed, args.seconds)
            metrics = _select(
                contract, "end_to_end", {name: pair[1] for name, pair in pairs.items()}
            )
            raw = {name: pair[0] for name, pair in pairs.items()}
    except CheckFailed as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} wall {time.perf_counter() - started:.1f}s")
    for kind in OP_TYPES:
        print(f"ops {kind} attempted={workload.ops.attempted[kind]} "
              f"failed={workload.ops.failed[kind]}")
    for line in lines:
        print(line)
    for name, entry in metrics.items():
        extra = "" if raw is None else f" (raw {raw[name]:.6g})"
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}{extra}")
    if raw is not None:
        print("raw-metrics " + json.dumps(raw, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": sum(workload.ops.attempted.values()),
        "failed": sum(workload.ops.failed.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
