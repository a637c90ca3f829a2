"""Benchmark of modgraph: one workload per process, calibrated timings.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload decompose-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each run sets up (imports, inputs, algebra validation, library and schema
construction), then runs whole rounds of the workload's items back to
back, one caller in a closed loop, for about ``--seconds`` seconds.  Item
times are calibrated by the reference loop in ``refloop.py``, timed
beside every batch of items.  Every item's outputs are checked against
values computed apart from the program.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  ``--workload all`` runs the three workloads
one after another, each in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import refloop
from spans import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NAMES = ("decompose-large", "verify-transduction", "formula-agreement")
SETUP_REPEATS = 5  # set-ups per run, this process's own included
SETUP_LOOPS = 3  # reference loops on each side of a set-up

LAYER_SPANS = (
    "formats.parse", "signature.eval_term", "mdec.decompose", "mdec.binarize",
    "mdec.reconstruct", "recognizer.fold", "recognizer.validate",
    "transduction.encode", "transduction.build_repr", "transduction.verify",
    "transduction.kappa_lemma", "cms.tree_structure", "cms.parse",
    "cms.cold_check", "cms.check", "transduction.holds",
    "transduction.library_build", "transduction.schema_build")
SETUP_SPANS = ("recognizer.validate", "transduction.library_build",
               "transduction.schema_build")
COUNTERS = ("cms.work_units", "cms.cold_work_units", "cms.checks", "mdec.tree_nodes")


def _import_program():
    """Put this checkout's sources first on the path and import them."""
    src = ROOT / "src"
    if not (src / "modgraph" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {src}; run from a checkout")
    sys.path.insert(0, str(src))
    import modgraph
    if Path(modgraph.__file__).resolve().parent != (src / "modgraph").resolve():
        raise SystemExit(f"error: imported modgraph from {modgraph.__file__}")
    import workloads
    return workloads


class Timings:
    """Calibrated and raw item times of one pass."""

    def __init__(self):
        self.raw: list[float] = []
        self.cal: list[float] = []

    def add(self, raw: float, factor: float):
        self.raw.append(raw)
        self.cal.append(raw * factor)


def _run_batch(runner, batch, first_id, tracer, times, outcome):
    """Run and check a batch; record raw times and problems."""
    for offset, item in enumerate(batch):
        item_id = first_id + offset
        tracer.item = item_id
        outcome["attempted"] += 1
        start = time.perf_counter()
        try:
            if tracer.enabled:
                with tracer.span("bench.item"):
                    outputs = runner.run(item, tracer)
            else:
                outputs = runner.run(item, tracer)
        except Exception:
            outcome["failed"] += 1
            traceback.print_exc()
            continue
        elapsed = time.perf_counter() - start
        problems = runner.check(item, outputs, tracer)
        if problems:
            outcome["problems"].extend(problems)
        times.append((item_id, elapsed))
    tracer.item = None


def measure(wl, canary, seconds: float, tracer):
    """Whole rounds, each batch between two reference loops.

    A round is the workload's items in batches, then the canary item.

    Untraced, the first round's length sets how many rounds fill
    ``seconds``.  Traced, one round runs with each batch done twice, once
    traced and once not, alternating which goes first.
    """
    null = NullTracer()
    items = wl.items
    bs = wl.batch_size
    batches = [(wl, i, items[i:i + bs]) for i in range(0, len(items), bs)]
    batches.append((canary, len(items), [None]))
    plain, traced = Timings(), Timings()
    factors: dict[int, float] = {}
    loops: list[float] = []
    outcome = {"attempted": 0, "failed": 0, "problems": []}
    k_prev = refloop.time_reference_loop()
    loops.append(k_prev)
    rounds, target = 0, 1
    start = time.perf_counter()
    while rounds < target:
        for bi, (runner, first, batch) in enumerate(batches):
            base = rounds * (len(items) + 1) + first
            runs: dict[bool, list] = {False: [], True: []}
            modes = (False,) if not tracer.enabled else (
                (False, True) if bi % 2 == 0 else (True, False))
            for use_trace in modes:
                _run_batch(runner, batch, base, tracer if use_trace else null,
                           runs[use_trace], outcome)
            k_next = refloop.time_reference_loop()
            loops.append(k_next)
            factor = refloop.K / ((k_prev + k_next) / 2)
            k_prev = k_next
            for use_trace, timings in ((False, plain), (True, traced)):
                for item_id, raw in runs[use_trace]:
                    timings.add(raw, factor)
                    factors[item_id] = factor
        rounds += 1
        if rounds == 1 and not tracer.enabled:
            target = max(1, int(seconds // (time.perf_counter() - start)))
    return plain, traced, factors, loops, rounds, outcome


def setup(name: str, seed: int, tracer):
    """Build the workload and the canary; returns them with the raw and
    calibrated set-up time and the calibration factor.

    Set-up is timed from just after some reference loops to just before
    some more, and calibrated by the mean of them all.
    """
    loops = [refloop.time_reference_loop() for _ in range(SETUP_LOOPS)]
    start = time.perf_counter()
    workloads = _import_program()
    wl = workloads.WORKLOADS[name](seed, tracer)
    canary = workloads.Canary(seed, tracer)
    raw = time.perf_counter() - start
    loops += [refloop.time_reference_loop() for _ in range(SETUP_LOOPS)]
    factor = refloop.K / statistics.mean(loops)
    return wl, canary, raw, raw * factor, factor


def setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: set-up in a fresh process exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _quantile(values, q):
    """Nearest-rank quantile, for reference figures."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(args, wl, plain: Timings, setup_cal, setup_raw, loops, rounds, outcome):
    setups = [setup_cal] + [setup_in_fresh_process(args)
                            for _ in range(SETUP_REPEATS - 1)]
    n = len(plain.cal)
    cal_rate = n / sum(plain.cal)
    raw_rate = n / sum(plain.raw)
    p50 = statistics.median(plain.cal) * 1000
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speed = [refloop.K / k for k in loops]
    print(f"{wl.name} seed {args.seed}: {rounds} round(s) of {len(wl.items) + 1} items, "
          f"{outcome['attempted']} attempted, {outcome['failed']} failed")
    print(f"  cal_items_per_s   {cal_rate:.4f} 1/s   (raw {raw_rate:.4f} 1/s)")
    print(f"  cal_item_p50_ms   {p50:.3f} ms   (raw "
          f"{statistics.median(plain.raw) * 1000:.3f} ms)")
    if n >= 100:
        print(f"  cal_item_p90_ms   {_quantile(plain.cal, 0.9) * 1000:.3f} ms "
              f"over {n} items (reference, not gated)")
    print(f"  setup_s           {statistics.median(setups):.4f} s   (calibrated set-ups "
          + ", ".join(f"{s:.3f}" for s in setups) + f"; this process raw {setup_raw:.3f})")
    print(f"  peak_rss_mb       {rss_mb:.2f} MB")
    print(f"  speed factor K/k  median {statistics.median(speed):.3f}, range "
          f"{min(speed):.3f}-{max(speed):.3f} over {len(loops)} loops "
          f"(K = {refloop.K * 1000:.2f} ms)")
    return {
        "cal_items_per_s": _metric(cal_rate, "1/s"),
        "cal_item_p50_ms": _metric(p50, "ms"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }


def per_layer(args, wl, tracer: Tracer, plain, traced, factors, setup_factor, loops):
    """Per-layer figures of a traced run, which is one round."""
    cal = dict.fromkeys(LAYER_SPANS, 0.0)
    harness = 0.0
    for name, self_time, item in tracer.self_times():
        factor = factors[item] if item is not None else setup_factor
        if name == "bench.item":
            harness += self_time * factor
        else:
            cal[name] += self_time * factor
    item_total = sum(traced.cal)
    overhead = (sum(traced.cal) / sum(plain.cal) - 1) * 100
    speed = statistics.median(refloop.K / k for k in loops)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{wl.name}-seed{args.seed}.jsonl"
    tracer.write(str(path))
    in_items = {name: t for name, t in cal.items() if name not in SETUP_SPANS}
    print(f"{wl.name} seed {args.seed}, traced: {len(tracer.spans)} spans written to "
          f"{path.relative_to(ROOT)}")
    print(f"  traced item time {item_total:.4f} s = layer self times "
          f"{sum(in_items.values()):.4f} s + bench.harness_s {harness:.4f} s")
    for name, t in in_items.items():
        if t:
            print(f"    {name + '_s':28s} {t:.4f} s  {100 * t / item_total:5.1f}%")
    for name in SETUP_SPANS:
        if cal[name]:
            print(f"  set-up: {name + '_s':28s} {cal[name]:.4f} s")
    print(f"  trace overhead {overhead:.2f}% (traced {sum(traced.cal):.4f} s against "
          f"untraced {sum(plain.cal):.4f} s, calibrated, same items)")
    print(f"  speed factor K/k median {speed:.3f} over {len(loops)} loops")
    metrics = {name + "_s": _metric(t, "s") for name, t in cal.items()}
    for name in COUNTERS:
        metrics[name] = _metric(tracer.counts.get(name, 0), "count")
    metrics["bench.harness_s"] = _metric(harness, "s")
    metrics["bench.speed_factor"] = _metric(speed, "ratio")
    metrics["bench.trace_overhead_pct"] = _metric(overhead, "%")
    return metrics


def run_one(args) -> int:
    tracer = Tracer() if args.trace else NullTracer()
    wl, canary, setup_raw, setup_cal, setup_factor = setup(args.workload, args.seed, tracer)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_cal, "raw_setup_s": setup_raw}))
        return 0
    plain, traced, factors, loops, rounds, outcome = measure(wl, canary, args.seconds, tracer)
    if not plain.cal:
        raise SystemExit("error: every item failed")
    if args.trace:
        metrics = per_layer(args, wl, tracer, plain, traced, factors, setup_factor, loops)
    else:
        metrics = end_to_end(args, wl, plain, setup_cal, setup_raw, loops, rounds, outcome)
    correct = not outcome["problems"]
    for problem in outcome["problems"][:20]:
        print(f"  WRONG: {problem}")
    print(json.dumps({"correct": correct, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    _import_program()  # fail here, before any run, without sources
    results = {}
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        result = lines.pop() if lines and lines[-1].startswith("{") else None
        print("\n".join(lines))
        status = status or done.returncode
        results[name] = json.loads(result) if result else None
    print(f"{'workload':22s} {'attempted':>9s} {'failed':>6s}  correct")
    for name, res in results.items():
        if res is not None:
            print(f"{name:22s} {res['attempted']:9d} {res['failed']:6d}  {res['correct']}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and stop")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
