"""One benchmark process: import the package, generate the inputs, run the workload.

Started by run.py in a fresh interpreter with BLAS threads pinned to 1 and
`src/` of the checkout on PYTHONPATH.  `--role setup` stops after input
generation; `--role run` then repeats the workload's fixed batch of queries
until `--seconds` have passed and at least MIN_QUERIES queries ran,
checks the outputs, and prints one JSON object as its last stdout line.

With `--trace 1` batches alternate untraced and traced, so the same process
gives the per-layer spans and the tracing overhead.

A speed probe (probe.py) runs between queries about every 0.1 s, outside
the timed sections; the end-to-end times are query times rescaled to
reference machine speed by the probes on either side.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

T_START = time.monotonic()
MIN_QUERIES = 1000


def setup(args) -> tuple[object, dict]:
    """Import the package (numpy included) and generate the seeded inputs."""
    t0 = time.monotonic()
    import affinetoeplitz.cli  # noqa: F401  (pulls numpy and every layer)

    t1 = time.monotonic()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    now = time.monotonic()
    started = args.t0 if args.t0 is not None else T_START
    from probe import Probe

    probe = Probe()  # untimed: the machine's speed just after set-up
    probe.measure()
    return workload, {"setup_s": now - started, "cli_import_s": t1 - t0, "generate_s": now - t1,
                      "probe_s": probe.times[0]}


def oracle(query, out) -> bool:
    try:
        return bool(query.check(out))
    except Exception:  # an oracle that cannot digest the output fails the query
        return False


def cache_counts(caches: dict) -> dict:
    out = {}
    for name, fn in caches.items():
        info = fn.cache_info() if fn is not None else None
        out[name] = None if info is None else (info.hits, info.misses)
    return out


def run(args, workload) -> dict:
    import hashlib
    import resource
    import statistics

    import numpy as np
    from affinetoeplitz import algebra, representation
    from probe import Probe
    from workloads import cache_of

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    caches = {
        "covariance_reduce": cache_of(algebra, "covariance_reduce"),
        "_diagonal_profile": cache_of(representation, "_diagonal_profile"),
    }
    queries = workload.queries
    verdicts = []  # oracle verdict per query, from the first batch
    reference = []  # output digest per query, from the first batch
    failed = repeat_mismatch = 0
    batches = []  # (seconds, traced, latencies, cache deltas, chunk of each query)
    probe = Probe()
    began = time.perf_counter()
    while True:
        for clear in workload.cold_caches():
            clear()
        traced = tracer is not None and len(batches) % 2 == 1
        before = cache_counts(caches)
        if traced:
            tracer.install()
        latencies = []
        chunks = []
        chunk = probe.measure()
        for i, q in enumerate(queries):
            if probe.due():
                chunk = probe.measure()
            chunks.append(chunk)
            if traced:
                tracer.query = i
            t = time.perf_counter()
            try:
                out = q.run()
            except Exception as exc:  # a failing query is counted, never fatal
                out = ("error", type(exc).__name__, str(exc))
            latencies.append(time.perf_counter() - t)
            # untimed: the oracle runs once, later batches must repeat the output exactly
            digest = hashlib.sha256(repr(out).encode()).digest()
            if not batches:
                verdicts.append(oracle(q, out))
                reference.append(digest)
            same = digest == reference[i]
            repeat_mismatch += not same
            failed += not (verdicts[i] and same)
        if traced:
            tracer.remove()
        after = cache_counts(caches)
        delta = {
            k: None if after[k] is None or before[k] is None else (after[k][0] - before[k][0], after[k][1] - before[k][1])
            for k in caches
        }
        batches.append((sum(latencies), traced, latencies, delta, chunks))
        elapsed = time.perf_counter() - began
        min_queries = 1 if args.tiny else MIN_QUERIES
        enough = len(batches) * len(queries) >= min_queries and (tracer is None or len(batches) >= 2)
        if elapsed >= args.seconds and enough:
            break
    probe.measure()  # closes the last chunk
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digest = hashlib.sha256(b"".join(reference)).hexdigest()[:16]
    failed_kinds = sorted({q.kind for q, ok in zip(queries, verdicts) if not ok})

    # Every query time rescaled to reference speed by the probes around it.
    scaled = [[t * probe.scale(c) for t, c in zip(b[2], b[4])] for b in batches]
    untraced = [s for s, b in zip(scaled, batches) if not b[1]]
    per_batch = np.array([np.quantile(s, (0.5, 0.9)) for s in untraced])
    # Quantiles over every untraced query run: a batch's own p50 sits on a steep
    # part of the latency curve and jumps by up to 2x from batch to batch.
    pooled = np.quantile(np.concatenate(untraced), (0.5, 0.9))
    items = sum(q.items for q in queries)
    result = {
        "batches": len(batches),
        "batch_s": [b[0] for b in batches],
        "batch_scaled_s": [sum(s) for s in scaled],
        "probe_s": probe.times,
        "speed": probe.speed(),
        "queries_per_batch": len(queries),
        "items_per_batch": items,
        "attempted": len(batches) * len(queries),
        "failed": failed,
        "repeat_mismatch": repeat_mismatch,
        "failed_kinds": failed_kinds,
        "digest": digest,
        "run_s": statistics.median(sum(s) for s in untraced),
        "items_per_s": items / statistics.median(sum(s) for s in untraced),
        "query_p50_ms": float(pooled[0]) * 1e3,
        "query_p90_ms": float(pooled[1]) * 1e3,
        "latency_samples": len(untraced) * len(queries),
        "batch_p50_p90_ms": (per_batch * 1e3).tolist(),
        "peak_rss_mb": peak_rss_mb,
        "kinds": {k: sum(q.kind == k for q in queries) for k in dict.fromkeys(q.kind for q in queries)},
    }
    if tracer is not None:
        traced_batches = [b for b in batches if b[1]]
        traced_scaled = [sum(s) for s, b in zip(scaled, batches) if b[1]]
        result["trace"] = layer_metrics(tracer, traced_batches, traced_scaled, [sum(s) for s in untraced])
        result["trace_table"] = tracer.function_table()
        result["trace_sample"] = tracer.sample
    return result


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, traced: list, traced_scaled: list, untraced_scaled: list) -> dict:
    """Per-layer metrics, per traced batch (counts and times are means over traced batches).

    Spans are raw wall times; the tracing overhead compares rescaled batch times.
    """
    import statistics

    n = len(traced)
    run_s = sum(b[0] for b in traced) / n
    out = {}
    covered = 0.0
    for layer, (calls, self_s) in tracer.layer_self().items():
        out[f"{layer}.calls"] = (calls / n, "count")
        out[f"{layer}.self_s"] = (self_s / n, "s")
        out[f"{layer}.share"] = (self_s / n / run_s, "frac")
        covered += self_s / n

    for label, decades in (("1e2", range(0, 3)), ("1e4", range(3, 5)), ("1e6", range(5, 99))):
        calls, incl = tracer.calls_and_time("semigroup.euclid_smallest", decades)
        out[f"semigroup.euclid_us.{label}"] = (_ratio(incl, calls) * 1e6, "us")
    for label, decades in (("1e3", range(0, 5)), ("1e6", range(5, 8)), ("1e9", range(8, 99))):
        calls, incl = tracer.calls_and_time("numtheory.divisors", decades)
        out[f"numtheory.divisors_us.{label}"] = (_ratio(incl, calls) * 1e6, "us")

    def cache_metrics(name):
        deltas = [b[3][name] for b in traced]
        if any(d is None for d in deltas):
            return None, None
        hits = sum(d[0] for d in deltas)
        misses = sum(d[1] for d in deltas)
        return _ratio(hits, hits + misses), misses / n

    ratio, misses = cache_metrics("covariance_reduce")
    out["algebra.covariance_hit_ratio"] = (ratio, "frac")
    out["algebra.covariance_misses"] = (misses, "count")
    ratio, _misses = cache_metrics("_diagonal_profile")
    out["representation.profile_hit_ratio"] = (ratio, "frac")

    _calls, rep_time, lanes = tracer.entries.get("representation", (0, 0.0, 0))
    out["representation.lanes"] = (lanes / n, "count")
    out["representation.ns_per_lane"] = (_ratio(rep_time, lanes) * 1e9, "ns")
    _calls, spec_time, points = tracer.entries.get("spectrum", (0, 0.0, 0))
    out["spectrum.points_per_s"] = (_ratio(points, spec_time), "1/s")
    calls, incl = tracer.calls_and_time("states.evaluate")
    out["states.evaluate_us"] = (_ratio(incl, calls) * 1e6, "us")
    calls, incl = tracer.calls_and_time("states.kms_defect")
    out["states.kms_pairs_per_s"] = (_ratio(calls, incl), "1/s")
    calls, incl = tracer.calls_and_time("cli.run")
    out["cli.run_ms"] = (_ratio(incl, calls) * 1e3, "ms")

    out["trace_overhead_frac"] = (statistics.mean(traced_scaled) / statistics.mean(untraced_scaled) - 1.0, "frac")
    out["trace_glue_share"] = ((run_s - covered) / run_s, "frac")
    out["trace_run_s"] = (run_s, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def metadata() -> dict:
    import os
    import platform

    import numpy as np

    blas = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": blas,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--t0", type=float, default=None, help="monotonic clock reading taken just before spawn")
    args = parser.parse_args()
    workload, setup_info = setup(args)
    result = {"setup": setup_info}
    if args.role == "run":
        result.update(run(args, workload))
        result["meta"] = metadata()
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
