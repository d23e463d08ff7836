"""Benchmark of the affinetoeplitz stack: end-to-end metrics, or per-layer spans with --trace 1.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rewrite-deep --seed 1 --seconds 20 --trace 0

Every measurement runs in fresh interpreters started from here, with BLAS
threads pinned to 1 and the checkout's `src/` on PYTHONPATH: several
set-up-only processes (import plus input generation, for `setup_s`) and one
workload process.  End-to-end times are rescaled to reference machine speed
by a speed probe (probe.py) timed in the same processes.  The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}; the
lines before it are a readable summary, and the full result (metadata,
output digest, the per-size span table) is written to perfbench/out/.  Workloads, metrics and the
predictions that tie them together are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from probe import NOMINAL_S  # noqa: E402
WORKLOADS = ("rewrite-deep", "grid-sweep", "oracle-sweep")
SETUP_PROCESSES = 6
DEADLINE_S = 170.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    for key in BLAS_ENV:
        env[key] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def spawn(args, role: str, env: dict, deadline: float) -> dict:
    """Run one worker process to completion; its last stdout line is its JSON result."""
    argv = [
        sys.executable, str(HERE / "worker.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.tiny:
        argv.append("--tiny")
    t0 = time.monotonic()
    argv += ["--t0", repr(t0)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit(root: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def end_to_end(setup_s: float, result: dict) -> dict:
    values = {
        "setup_s": (setup_s, "s"),
        "run_s": (result["run_s"], "s"),
        "items_per_s": (result["items_per_s"], "1/s"),
        "query_p50_ms": (result["query_p50_ms"], "ms"),
        "query_p90_ms": (result["query_p90_ms"], "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(result: dict, setups: list[dict]) -> dict:
    metrics = dict(result["trace"])
    metrics["cli.import_s"] = {"value": statistics.median(s["cli_import_s"] for s in setups), "unit": "s"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the workload process measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every batch (the benchmark's smoke test)")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "affinetoeplitz" / "__init__.py").is_file():
        print(f"error: {root} holds no src/affinetoeplitz to benchmark", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = child_env(root)
    try:
        setups = [spawn(args, "setup", env, deadline)["setup"] for _ in range(1 if args.tiny else SETUP_PROCESSES)]
        result = spawn(args, "run", env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup"])
    setup_s = statistics.median(s["setup_s"] * NOMINAL_S / s["probe_s"] for s in setups)
    metrics = per_layer(result, setups) if args.trace else end_to_end(setup_s, result)
    meta = {**result["meta"], "commit": commit(root), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "setup_samples": [s["setup_s"] for s in setups],
            "setup_probe_s": [s["probe_s"] for s in setups], "speed": result["speed"]}

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    report = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"meta": meta, "metrics": metrics, "result": result}, indent=1))

    print(f"workload {args.workload} seed {args.seed}: {result['batches']} batches of "
          f"{result['queries_per_batch']} queries ({result['kinds']}), digest {result['digest']}")
    print("meta " + json.dumps({k: meta[k] for k in ("commit", "python", "numpy", "nproc", "blas_threads", "speed")}))
    failed_frac = result["failed"] / result["attempted"]
    print(f"failed_frac {failed_frac:.6f} ({result['failed']} of {result['attempted']}; "
          f"failing kinds {result['failed_kinds']}; outputs differing between batches {result['repeat_mismatch']})")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']!r} {m['unit']}")
    print(f"report {report.relative_to(root) if report.is_relative_to(root) else report}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
