#!/usr/bin/env python3
"""Write one benchmark snapshot, ``BENCH_0.json`` at the repo root by default.
Standard library only.

For each workload that ``BENCHMARK.json`` declares, it runs ``bench/run.py``
in this checkout twice at seed 0: untraced for the end-to-end metrics and
with ``--trace 1`` for the per-layer ones, listing the per-layer metrics
that read 0 by name. It also times one tier-1 run (``python -m pytest -q``
with ``src`` on the path) and records the Python version, CPU count, git
SHA (and whether the tree had uncommitted changes), ``PYTHONDONTWRITEBYTECODE``
and a census of each ``src/dsfusion`` module: docstring, comment, blank and
other lines, which add up to the module's ``wc -l``. Beside the census it
records the SHA-256 of ``DIGESTS.json``, the report digests that
``scripts/report_digest.py`` checks, so that a speed claim and a same-outputs
claim name one tree.

Usage: python scripts/bench_snapshot.py [--out BENCH_0.json] [--seconds S]
``--seconds`` is each bench run's length (default: ``BENCHMARK.json``'s
``run_seconds``). At 20 s a snapshot takes about three minutes on a 2-core
machine.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from bench_pairs import result_line, run_bench

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def census(text: str) -> dict[str, int]:
    """A module's lines by kind: docstring (every line of a module, class or function
    docstring, blank ones included), comment (a line holding only a comment), blank, other."""
    lines = text.splitlines()
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                doc.update(range(first.lineno, first.end_lineno + 1))
    counts = {"docstring": len(doc), "comment": 0, "blank": 0, "other": 0}
    for number, line in enumerate(lines, 1):
        if number not in doc:
            stripped = line.strip()
            kind = "blank" if not stripped else "comment" if stripped.startswith("#") else "other"
            counts[kind] += 1
    counts["total"] = len(lines)
    return counts


def snapshot(runs: dict[str, tuple[str, str]], tier1_seconds: float, env: dict,
             modules: dict[str, str], digests: bytes) -> dict:
    """The snapshot's JSON object, from each workload's (untraced, traced) ``bench/run.py``
    stdouts, the tier-1 wall time, the environment, each module's source text and the bytes
    of ``DIGESTS.json``."""
    workloads = {}
    for name, (untraced, traced) in runs.items():
        plain, layers = result_line(untraced), result_line(traced)
        workloads[name] = {
            "seed": SEED,
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "end_to_end": plain["metrics"],
            "per_layer": layers["metrics"],
            "per_layer_zero": [m for m, v in layers["metrics"].items() if v["value"] == 0],
        }
    per_module = {name: census(text) for name, text in modules.items()}
    totals = {kind: sum(c[kind] for c in per_module.values())
              for kind in ("docstring", "comment", "blank", "other", "total")}
    return {"environment": env, "workloads": workloads, "tier1_seconds": tier1_seconds,
            "src_census": {"modules": per_module, "totals": totals},
            "digests_sha256": hashlib.sha256(digests).hexdigest()}


def _git(*argv: str) -> str:
    return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_0.json")
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    args = parser.parse_args(argv)
    runs = {}
    for workload in (w["name"] for w in declared["workloads"]):
        runs[workload] = tuple(run_bench(ROOT, workload, SEED, args.seconds, trace)
                               for trace in (0, 1))
        print(f"ran {workload}", file=sys.stderr, flush=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    tier1 = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    tier1_seconds = time.perf_counter() - start
    if tier1.returncode != 0:
        print(tier1.stdout[-2000:], file=sys.stderr)
        raise SystemExit(f"the tier-1 run exited {tier1.returncode}")
    environment = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": _git("rev-parse", "HEAD"),
        "git_uncommitted_changes": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "bench_seconds": args.seconds,
    }
    modules = {path.name: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "dsfusion").glob("*.py"))}
    result = snapshot(runs, tier1_seconds, environment, modules,
                      (ROOT / "DIGESTS.json").read_bytes())
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
