"""Benchmark for dsfusion: one workload per run, end to end or traced.

    python3 bench/run.py --workload {email_sweep,wbcd_cli,iris_cv} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run starts several fresh interpreters one after the
other. Each imports dsfusion, sets up the workload, runs a warm-up batch
and reports ready, then runs a closed loop of batches for its share of the
S seconds. The set-up time of each is the wall time from launch to ready.
Every time is scaled by the calibration kernel (``calibration.py``) timed
in the same process around it; raw times are printed beside the scaled
ones.

With ``--trace 1`` the run alternates untraced and traced passes over a
fixed list of batches in this process for S seconds and reports the
per-layer metrics.

Every batch's output is checked; a batch that raises or fails its checks
counts as failed. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import calibration
import tracing
import workloads

PROCESSES = 10
# Slack per measuring process beyond its share of --seconds, for set-up and
# the last cycle; a process that takes longer is killed and the run fails.
PROCESS_SLACK_S = 30
# A fixed tail percentile keeps runs comparable when their batch counts
# differ; a 20 s run has over 400 batches on every workload, which leaves
# at least twenty beyond it.
TAIL_PERCENTILE = 95
OUT_DIR = workloads.ROOT / ".bench_out"
MAX_ERRORS_SHOWN = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one measuring process started by the benchmark itself.
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    # Self-test only: make every classifier return a wrong label.
    parser.add_argument("--plant-fault", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    kernel_at_start = calibration.kernel_s() if args.measure else 0.0

    try:
        mods = workloads.import_program()
    except workloads.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.plant_fault:
        plant_wrong_label(mods)
    wl = workloads.WORKLOADS[args.workload](mods, args.seed)

    if args.measure:
        return measure(wl, args.seconds, kernel_at_start)
    if args.trace:
        wl.setup()
        warm_up(wl)
        wl.prepare_checks()
        attempted, errors, metrics = run_traced(wl, mods, args.seconds)
    else:
        runs = [run_process(args) for _ in range(PROCESSES)]
        wl.prepare_checks()
        attempted, errors, metrics = end_to_end(wl, runs)

    for error in errors[:MAX_ERRORS_SHOWN]:
        print(f"failed: {error}", file=sys.stderr)
    print(f"{wl.name} seed={args.seed} trace={args.trace}: "
          f"{len(errors)} of {attempted} batches failed")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit:10s} {note}")
    print(json.dumps({
        "correct": attempted > 0 and not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _note) in metrics.items()
                    if name != "error_rate"},
    }))
    return 0


def warm_up(wl) -> None:
    # A warm-up that fails fails again in the timed batches, where it counts.
    with contextlib.suppress(Exception):
        wl.run(wl.batch(0))


def check_batch(wl, x, out):
    """(error or None, digest) for one output; a malformed output fails."""
    try:
        return wl.check(x, out)
    except Exception as exc:
        return f"check raised {exc!r}", None


def measure(wl, seconds: float, kernel_at_start: float) -> int:
    """The measuring process: set up, report ready with the kernel times at
    both ends of set-up, run whole cycles of batches for ``seconds``, and
    print one JSON line of per-batch results."""
    wl.setup()
    warm_up(wl)
    kernel_before = calibration.kernel_s()
    print(f"ready {kernel_at_start!r} {kernel_before!r}", flush=True)
    batches = []
    deadline = time.perf_counter() + seconds
    j = 0
    while j % wl.cycle or not batches or time.perf_counter() < deadline:
        x = wl.batch(j)
        start = time.perf_counter()
        try:
            out = wl.run(x)
        except Exception as exc:  # a failing batch is counted, not fatal
            elapsed = time.perf_counter() - start
            out, error = None, f"raised {exc!r}"
        else:
            elapsed = time.perf_counter() - start
            error = None
        kernel_after = calibration.kernel_s()
        digest = None
        if error is None:
            error, digest = check_batch(wl, x, out)
        scaled = calibration.scaled(elapsed, kernel_before, kernel_after)
        batches.append([j, scaled, elapsed, wl.items(x), error, digest])
        kernel_before = kernel_after
        j += 1
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"batches": batches, "rss_kb": rss_kb}))
    return 0


def run_process(args) -> dict:
    """Start one measuring process and time it from launch to ready; the
    set-up time is scaled by the kernel times the process reports."""
    seconds = args.seconds / PROCESSES
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--measure"]
    if args.plant_fault:
        cmd.append("--plant-fault")
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=workloads.ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        try:
            out, err = proc.communicate(timeout=seconds + PROCESS_SLACK_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
    fields = ready.split()
    if fields[:1] != ["ready"] or proc.returncode != 0:
        raise RuntimeError(f"measuring process failed (exit {proc.returncode}): {err.strip()}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_raw_s"] = setup_s
    result["setup_s"] = calibration.scaled(setup_s, float(fields[1]), float(fields[2]))
    return result


def end_to_end(wl, runs: list[dict]):
    errors = []
    for k, run in enumerate(runs):
        for batch in run["batches"]:
            j, error, digest = batch[0], batch[4], batch[5]
            batch[4] = error = error or wl.verify(j, digest)
            if error:
                errors.append(f"process {k} batch {j}: {error}")

    def summary(col):
        """Median per-process throughput and p50, and the pooled tail, of the
        scaled (col 1) or raw (col 2) batch times."""
        pooled = sorted(b[col] for run in runs for b in run["batches"])
        rank = max(1, -(-len(pooled) * TAIL_PERCENTILE // 100))  # nearest rank
        throughput = statistics.median(
            sum(b[3] for b in run["batches"] if b[4] is None)
            / sum(b[col] for b in run["batches"]) for run in runs)
        p50 = statistics.median(statistics.median(b[col] for b in run["batches"]) for run in runs)
        return throughput, p50 * 1e3, pooled[rank - 1] * 1e3, len(pooled) - rank

    throughput, p50_ms, tail_ms, beyond = summary(1)
    raw_throughput, raw_p50_ms, raw_tail_ms, _ = summary(2)
    n = sum(len(run["batches"]) for run in runs)
    per_process = f"median of {len(runs)} processes"
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in runs), "s",
                    f"{per_process}, launch to ready; raw "
                    f"{statistics.median(r['setup_raw_s'] for r in runs):.4g}"),
        "throughput_per_s": (throughput, "items/s", f"{per_process}; raw {raw_throughput:.6g}"),
        "batch_p50_ms": (p50_ms, "ms", f"{per_process}, n={n} batches; raw {raw_p50_ms:.4g}"),
        "batch_tail_ms": (tail_ms, "ms", f"p{TAIL_PERCENTILE} of all n={n} batches, "
                                         f"{beyond} beyond; raw {raw_tail_ms:.4g}"),
        "error_rate": (len(errors) / n, "ratio", f"{len(errors)}/{n} batches failed"),
        "peak_rss_mb": (statistics.median(r["rss_kb"] for r in runs) / 1024, "MB",
                        f"{per_process}, ru_maxrss"),
    }
    return n, errors, metrics


def run_traced(wl, mods, seconds: float):
    """Alternate untraced and traced passes over the same batches.

    Each pass starts with the workload's per-pass set-up (a dataset load for
    iris_cv) and then runs a fixed list of batches, so counts per pass are
    exact. Times are scaled by the kernel timed around each pass. The
    overhead ratio is traced over untraced time of a pair.
    """
    tracer = tracing.Tracer(mods)
    indices = range(wl.trace_batches)
    items_per_pass = sum(wl.items(wl.batch(j)) for j in indices)
    total = tracing.SpanStats()
    ratios, errors = [], []
    hits = misses = 0
    attempted = passes = 0
    deadline = time.perf_counter() + seconds
    while not ratios or time.perf_counter() < deadline:
        wall = {}
        for traced in ((False, True) if len(ratios) % 2 == 0 else (True, False)):
            if traced:
                tracer.reset()
                before = tracing.cache_lookups(mods["bpa"])
            kernel_before = calibration.kernel_s()
            raw_wall, outputs = run_pass(wl, indices, tracer if traced else None)
            scale = calibration.scaled(1.0, kernel_before, calibration.kernel_s())
            wall[traced] = raw_wall * scale
            if traced:
                after = tracing.cache_lookups(mods["bpa"])
                if after is not None:
                    hits += after[0] - before[0]
                    misses += after[1] - before[1]
                total.add(tracer.reduce(), scale)
                passes += 1
            for j, out, error in outputs:
                attempted += 1
                digest = None
                if error is None:
                    error, digest = check_batch(wl, wl.batch(j), out)
                error = error or wl.verify(j, digest)
                if error:
                    errors.append(f"{'traced' if traced else 'untraced'} pass: {error}")
        ratios.append(wall[True] / wall[False])
    tracer.dump(OUT_DIR / f"trace-{wl.name}.json.gz")
    cache = None if tracing.cache_lookups(mods["bpa"]) is None else (hits, misses)
    metrics = tracing.layer_metrics(total, passes, passes * items_per_pass, cache,
                                    statistics.median(ratios))
    notes = {"trace.overhead_ratio": f"median of {len(ratios)} pass pairs",
             "classify.fallbacks": "per pass",
             "bpa.cache_hit_ratio": f"{hits} hits, {misses} misses"}
    return attempted, errors, {name: (value, unit, notes.get(name, ""))
                               for name, (value, unit) in metrics.items()}


def run_pass(wl, indices, tracer):
    """One pass; outputs are checked by the caller once the shims are off."""
    span = tracer.root if tracer else (lambda _name: contextlib.nullcontext())
    outputs, wall = [], 0
    if tracer:
        tracer.install()
    try:
        start = time.perf_counter_ns()
        with span("bench.setup"):
            wl.trace_setup()
        wall += time.perf_counter_ns() - start
        for j in indices:
            x = wl.batch(j)
            start = time.perf_counter_ns()
            try:
                with span("bench.batch"):
                    out = wl.run(x)
            except Exception as exc:  # a failing batch is counted, not fatal
                outputs.append((j, None, f"raised {exc!r}"))
            else:
                outputs.append((j, out, None))
            wall += time.perf_counter_ns() - start
    finally:
        if tracer:
            tracer.uninstall()
    return wall, outputs


def plant_wrong_label(mods) -> None:
    """Rebind the three classifiers, through the same bindings the tracer
    uses, so that every prediction carries a wrong label: email messages
    come out normal, binary labels flip, and three-class labels leave the
    frame."""
    classify = mods["classify"]
    flip = {"normal": "abnormal", "abnormal": "normal"}
    shims = {
        "classify_email": lambda pred: dataclasses.replace(pred, label="normal"),
        "classify_binary": lambda pred: dataclasses.replace(pred, label=flip[pred.label]),
        "classify_three_class": lambda pred: types.SimpleNamespace(
            label="not-a-label", mass=pred.mass, trace=pred.trace),
    }
    for name, corrupt in shims.items():
        fn = getattr(classify, name)

        def shim(*args, _fn=fn, _corrupt=corrupt, **kwargs):
            return _corrupt(_fn(*args, **kwargs))

        for module, attr in tracing.bindings_of(mods, fn):
            setattr(module, attr, shim)


if __name__ == "__main__":
    sys.exit(main())
