#!/usr/bin/env python3
"""Benchmark runner for ``sumfree``: one seeded workload per process.

    python3 bench/run.py --workload extract --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ``src/`` of the
checkout; without it the runner exits with status 2 and prints no result.

Set-up imports ``sumfree`` and ``sumfree.cli`` afresh, generates the inputs
and runs one untimed warm-up item.  Then the workload's fixed batch runs in
passes, one item at a time on one thread (a closed loop with one client),
until the next pass would overrun ``--seconds``.  The first pass is checked
item by item against references outside the timed path; every later pass
must reproduce its results exactly.

Each item is timed around its calls into ``sumfree`` only, and the time is
scaled to reference seconds by the speed probe of ``speed.py``, sampled after
every item: on a shared host other tenants slow the CPU by up to a factor of
two, in phases from a fraction of a second to several seconds, and the probe
slows with it.  Each item's time is its
median over the passes, and ``wall_s`` is the sum of these medians over the
batch.  Successive passes are pinned to successive CPUs of the process's own
set, so the medians see every CPU.  ``setup_s`` is the median of up to
``SETUP_SAMPLES`` set-ups, one before the first pass and two after each pass,
each scaled by the probes taken around it.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half traced, prints the per-layer metrics of the traced
pass with the median time, and writes its spans under ``bench/traces/``.

The last line of stdout is the result object; the line before it gives
details (pass count, the tail percentile, input and output digests, and the
measured wall time and probe time beside the scaled ones).
Exit status is 0 when every item passed its checks and 1 otherwise.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import NamedTuple

import spans as tracing
import speed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = json.loads((BENCH_DIR / "rationale.json").read_text())["default_seed"]
SETUP_SAMPLES = 15
TAIL_BEYOND = 10  # the tail percentile keeps at least this many items above it


def load_program() -> SimpleNamespace:
    """Import ``sumfree`` afresh from this checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "sumfree" or n.startswith("sumfree.")]:
        del sys.modules[name]
    sf = importlib.import_module("sumfree")
    importlib.import_module("sumfree.cli")
    if Path(sf.__file__).resolve().parent != ROOT / "src" / "sumfree":
        raise SystemExit(f"sumfree was imported from {sf.__file__}, not from this checkout")
    mods = {layer: sys.modules[f"sumfree.{layer}"] for layer in tracing.LAYERS}
    return SimpleNamespace(sf=sf, **mods)


def set_up(workload: str, seed: int):
    """Import, generate and warm up; returns the time in reference seconds."""
    gc.collect()
    before = [speed.sample() for _ in range(speed.WINDOW)]
    start = perf_counter()
    program = load_program()
    items = workloads.WORKLOADS[workload](program, seed)
    warm = items[0]
    workloads.KINDS[warm.kind].run(program, warm.params)
    elapsed = perf_counter() - start
    after = [speed.sample() for _ in range(speed.WINDOW)]
    return elapsed * speed.scale(before + after), program, items


class Pass(NamedTuple):
    times: list  # reference seconds per item, timed around the calls into sumfree only
    scales: list  # per item, the factor from measured to reference seconds
    summaries: list  # plain-data result per item (the exception if it raised); first pass only
    changed: int  # items whose summary differs from the reference (later passes)
    spans: list  # traced passes only
    probes: list  # speed samples, seconds
    elapsed: float  # measured seconds for the whole pass, probes and checks included

    @property
    def wall(self) -> float:
        return sum(self.times)

    @property
    def measured(self) -> float:
        return sum(t / f for t, f in zip(self.times, self.scales))


def run_order(n: int) -> list[int]:
    """The order items run in: the batch shuffled by a constant seed."""
    order = list(range(n))
    random.Random(0).shuffle(order)
    return order


def run_pass(program, items, tracer=None, inspect=None, reference=None) -> Pass:
    """One pass over the batch, one item at a time.

    ``inspect(index, item, raw)`` sees each raw result after its timer has
    stopped, so checks stay outside the timed path.  With a ``reference``
    (the first pass's summaries) each result is compared at once and only
    the number of differences is kept, so memory does not grow with passes.
    The speed probe runs ``speed.WINDOW`` times before the first item, once
    after each item and ``speed.WINDOW - 1`` more times after the last;
    ``speed.scales`` turns the samples around each item into its factor.
    Items run in a fixed shuffled order, so that items of one kind spread
    over the whole pass and the error of the factor in one stretch of time
    does not fall on all of them; results stay in batch order.
    """
    gc.collect()
    started = perf_counter()
    n = len(items)
    times, after, summaries, changed = [0.0] * n, [0] * n, [None] * n, 0
    probes = [speed.sample() for _ in range(speed.WINDOW)]
    for index in run_order(n):
        item = items[index]
        kind = workloads.KINDS[item.kind]
        if tracer:
            tracer.begin_item(index)
        t0 = perf_counter()
        try:
            raw = kind.run(program, item.params)
        except Exception:  # an item that raises is counted as failed, the run goes on
            raw = RuntimeError(traceback.format_exc())
        times[index] = perf_counter() - t0
        if tracer:
            tracer.end_item()
        if inspect:
            inspect(index, item, raw)
        summary = raw if isinstance(raw, Exception) else kind.summary(raw)
        if reference is None:
            summaries[index] = summary
        elif summary != reference[index]:
            changed += 1
        after[index] = len(probes)
        probes.append(speed.sample())
    probes += [speed.sample() for _ in range(speed.WINDOW - 1)]
    scales = speed.scales(probes, after)
    times = [t * f for t, f in zip(times, scales)]
    return Pass(times, scales, summaries, changed, tracer.take() if tracer else [], probes,
                perf_counter() - started)


def check_item(program, item, raw) -> list[str]:
    """Why the item failed: it raised, or disagreed with its reference."""
    if isinstance(raw, Exception):
        return [f"raised:\n{raw}"]
    return workloads.KINDS[item.kind].check(program, item.params, raw)


def run_passes(program, items, reference, deadline, estimate, min_passes=0, tracer=None,
               after_pass=None):
    """Passes while the next one, ``estimate`` seconds long, ends before ``deadline``.

    Successive passes run pinned to successive CPUs of those this process may
    use: on a shared host each CPU is slowed by other tenants on its own, so
    the per-item median then sees every CPU.  The workload stays on one
    thread, and the process's own CPU set is restored at the end.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    passes = []
    try:
        while len(passes) < min_passes or perf_counter() + estimate <= deadline:
            if cpus:
                os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
            passes.append(run_pass(program, items, tracer, reference=reference))
            estimate = passes[-1].elapsed
            if after_pass:
                after_pass()
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)
    return passes


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND values above it, and that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} items for a tail, got {n}")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    if name.endswith("nodes_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_share"):
        return "share"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sumfree" / "__init__.py").is_file():
        print(f"no sumfree sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    elapsed, program, items = set_up(args.workload, args.seed)
    setup_times = [elapsed]

    def sample_set_up():
        # more set-ups, spread over the run so that their median does not hang
        # on one moment's machine speed; their programs and inputs are dropped
        for _ in range(2):
            if len(setup_times) < SETUP_SAMPLES:
                setup_times.append(set_up(args.workload, args.seed)[0])
    started = perf_counter()
    budget = args.seconds / 2 if args.trace else args.seconds
    problems: dict[int, list[str]] = {}
    scores = []

    def inspect(index, item, raw):
        bad = check_item(program, item, raw)
        if bad:
            problems[index] = [f"item {index} ({item.kind}): {b}" for b in bad]
        if not isinstance(raw, Exception):
            score = workloads.KINDS[item.kind].score(item.params, raw)
            if score is not None:
                scores.append(score)

    first = run_pass(program, items, inspect=inspect)
    reference = first.summaries
    passes = [first] + run_passes(
        program, items, reference, started + budget, first.elapsed,
        after_pass=None if args.trace else sample_set_up,
    )
    failed = len(problems) + sum(p.changed for p in passes)
    attempted = len(items) * len(passes)
    messages = [line for index in sorted(problems) for line in problems[index]]

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "items": len(items),
        "input_digest": workloads.batch_digest((i.kind, i.params) for i in items),
        "output_digest": workloads.batch_digest(reference),
        "untraced_passes": len(passes),
        "measured_pass_s": statistics.median(p.measured for p in passes),
        "scaled_pass_s": statistics.median(p.wall for p in passes),
        "probe_ms": 1000 * statistics.median(x for p in passes for x in p.probes),
    }
    untraced_wall = statistics.median(p.wall for p in passes)

    if args.trace:
        tracer = tracing.Tracer()
        detail["wrapped_functions"] = tracer.install()
        deadline = perf_counter() + args.seconds / 2
        traced = run_passes(program, items, reference, deadline, passes[-1].elapsed, 2, tracer)
        attempted += len(items) * len(traced)
        failed += sum(p.changed for p in traced)
        per_pass = [tracing.layer_metrics(p.spans, p.scales) for p in traced]
        counts = {k for k, v in per_pass[0].items() if isinstance(v, int)}
        for name in sorted(counts):
            if any(other[name] != per_pass[0][name] for other in per_pass[1:]):
                messages.append(f"count {name} changed between traced passes")
                failed += 1
        # all times come from one traced pass, the median one, so that the
        # self times still add up to trace.item_s
        middle = sorted(range(len(traced)), key=lambda i: traced[i].wall)[len(traced) // 2]
        layer = dict(per_pass[middle])
        traced_wall = traced[middle].wall
        layer["trace.overhead_s"] = traced_wall - untraced_wall
        layer["trace.overhead_share"] = (traced_wall - untraced_wall) / untraced_wall
        detail["traced_passes"] = len(traced)
        out_dir = BENCH_DIR / "traces"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"{args.workload}-seed{args.seed}.jsonl", "w") as handle:
            for span in traced[middle].spans:
                handle.write(json.dumps(span) + "\n")
        metrics = {name: metric(value, layer_unit(name)) for name, value in sorted(layer.items())}
    else:
        per_item = [statistics.median(column) for column in zip(*(p.times for p in passes))]
        tail_s, tail_pct = tail(per_item)
        detail.update(tail_percentile=tail_pct, tail_samples=len(per_item))
        score_fraction = sum(s[0] for s in scores) / sum(Fraction(s[1]) for s in scores)
        metrics = {
            "wall_s": metric(sum(per_item), "s"),
            "item_p50_ms": metric(1000 * statistics.median(per_item), "ms"),
            "item_tail_ms": metric(1000 * tail_s, "ms"),
            "ok_share": metric((attempted - failed) / attempted, "share"),
            "score_fraction": metric(float(score_fraction), "fraction"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": metric(statistics.median(setup_times), "s"),
        }

    for line in messages[:20]:
        print(line, file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
