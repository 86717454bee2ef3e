"""Benchmark of the roelcke laboratory: one seeded workload per run.

    python3 perfbench/run.py --workload order-small --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics: set-up time,
verified items per second, median and tail call latency and peak memory,
plus the failure share.  Set-up time and the rate are also given rescaled
to a reference host (hostclock.py); those two are the gated ones.  With ``--trace 1`` it measures the same items
twice, untraced and then with spans around roelcke's public functions, and
reports the per-layer metrics.  Every output is checked by an independent
oracle.  The last line of standard output is one JSON object; a fuller
record goes to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata

import workloads
from hostclock import HostClock
from workloads import BENCH_DIR, RESULTS, ROOT, SRC, MissingSource

# Seed kept out of every tuning run; later claims are re-checked on it.
HELD_OUT_SEED = 9001
SETUP_PROBES = 5  # set-ups timed in fresh interpreters
IMPORT_PROBES = 3


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  Below twenty samples no
    percentile at or above the median has ten beyond it; the maximum is
    returned then, with zero samples beyond.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0, 0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def measure(wl, seconds: float, replay=None, tracer=None) -> dict:
    """Call the workload round by round for about `seconds`.

    With `replay`, run exactly those rounds instead.  Only the calls are
    timed; oracle checks run between them.
    """
    latencies: list[float] = []
    attempted = failed = verified = 0
    errors: list[str] = []
    rounds = []
    start = time.perf_counter()
    with HostClock() as host:
        for rnd in (replay if replay is not None else wl.rounds()):
            rounds.append(rnd)
            for item in rnd:
                weight = wl.weight(item)
                attempted += weight
                t0 = time.perf_counter()
                try:
                    if wl.in_process and tracer is not None:
                        with tracer.span("call"):
                            out = wl.call(item)
                    elif wl.in_process:
                        out = wl.call(item)
                    else:
                        out = wl.call(item, tracer)
                except Exception as exc:  # a raising item counts as failed
                    latencies.append(time.perf_counter() - t0)
                    failed += weight
                    errors.append(f"{item}: {type(exc).__name__}: {exc}")
                    continue
                latencies.append(time.perf_counter() - t0)
                problem = wl.check(item, out)
                if problem:
                    failed += weight
                    errors.append(f"{item}: {problem}")
                else:
                    verified += weight
            # Stop at the round boundary nearest to `seconds`, so the number of
            # rounds does not flip between runs when a round takes about as long
            # as the whole run.
            elapsed = time.perf_counter() - start
            if replay is None and elapsed >= seconds - elapsed / len(rounds) / 2:
                break
    return {
        "rounds": rounds,
        "latencies": latencies,
        "attempted": attempted,
        "failed": failed,
        "verified": verified,
        "errors": errors,
        # Plain totals, not medians of short windows: the host's speed flips
        # between a fast and a slow state every few seconds, and a median
        # follows whichever state held most of the run.
        "items_per_s": verified / sum(latencies),
        # The same rate on the reference host, which takes out the host's
        # changes of speed (see hostclock.py).
        "items_per_ref_s": verified / host.to_reference(sum(latencies)),
        "host_kernel_ms": host.mean_s() * 1e3,
        "host_samples": len(host.samples),
        "wall_s": time.perf_counter() - start,
    }


def timed_setup(name: str, seed: int):
    """Import roelcke and build the workload's inputs; (workload, seconds)."""
    start = time.perf_counter()
    workloads.import_roelcke()
    wl = workloads.WORKLOADS[name]()
    wl.setup(seed)
    return wl, time.perf_counter() - start


def setup_probe(name: str, seed: int) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.split()[-1])


def import_breakdown() -> dict[str, float]:
    """Cumulative import seconds of roelcke, sympy and numpy (median of runs)."""
    wanted = ("roelcke", "sympy", "numpy")
    runs: dict[str, list[float]] = {m: [] for m in wanted}
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import roelcke"],
            cwd=ROOT, env=workloads.child_env(), capture_output=True, text=True,
            timeout=120, check=True,
        )
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in wanted:
                runs[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {m: statistics.median(v) for m, v in runs.items()}


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None  # the checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "roelcke").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "sympy": metadata.version("sympy"),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def probed_setup(name: str, seed: int) -> dict:
    """Median set-up time of SETUP_PROBES fresh interpreters.

    The host clock runs while this process waits for each probe, so the
    median is also given in seconds on the reference host.
    """
    with HostClock() as host:
        probes = [setup_probe(name, seed) for _ in range(SETUP_PROBES)]
    return {
        "probes_s": probes,
        "host_s": statistics.median(probes),
        "ref_s": host.to_reference(statistics.median(probes)),
        "host_kernel_ms": host.mean_s() * 1e3,
    }


def end_to_end(wl, result: dict, setup: dict) -> tuple[dict, dict]:
    latencies_ms = [s * 1e3 for s in result["latencies"]]
    tail_ms, pct, beyond = tail(latencies_ms)
    if wl.in_process:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kib = wl.peak_rss_kib
    # The gated metrics, in BENCHMARK.json, and the ones only shown: see
    # README.md for why the plain times, latency and fail_share carry no bound.
    metrics = {
        "setup_s": metric(setup["ref_s"], "s"),
        "items_per_ref_s": metric(result["items_per_ref_s"], "1/s"),
        "peak_rss_mb": metric(peak_kib / 1024, "MB"),
    }
    shown = {
        "setup_host_s": metric(setup["host_s"], "s"),
        "items_per_s": metric(result["items_per_s"], "1/s"),
        "host_kernel_ms": metric(result["host_kernel_ms"], "ms"),
        "host_samples": result["host_samples"],
        "call_p50_ms": metric(statistics.median(latencies_ms), "ms"),
        "call_tail_ms": metric(tail_ms, "ms"),
        "fail_share": metric(result["failed"] / result["attempted"], "share"),
        "call_tail_percentile": pct,
        "call_tail_beyond": beyond,
        "calls": len(latencies_ms),
    }
    return metrics, shown


def per_layer(tracer, untraced: dict, traced: dict, imports: dict) -> dict:
    metrics = {}
    for name, (calls, self_s) in tracer.layer_totals().items():
        metrics[f"{name}.calls"] = metric(calls, "count")
        metrics[f"{name}.self_s"] = metric(self_s, "s")
    for module, seconds in imports.items():
        metrics[f"import.{module}_s"] = metric(seconds, "s")
    c = tracer.counts
    metrics["markov.product.mul_adds"] = metric(c.mul_adds, "count")
    metrics["markov.product.den_bits_p50"] = metric(c.den_bits_p50(), "bits")
    metrics["semigroup.is_idempotent.per_order_check"] = metric(
        tracer.per_order_check(), "ratio")
    metrics["factorization.scan.qualifying_share"] = metric(
        c.scanned / c.scan_space if c.scan_space else 0.0, "share")
    metrics["factorization.factorize.nonzero_leftover_share"] = metric(
        c.nonzero_leftover / c.factorize_calls if c.factorize_calls else 0.0, "share")
    metrics["semigroup.cesaro_idempotent.iterations_mean"] = metric(
        c.cesaro_iterations / c.cesaro_reports if c.cesaro_reports else 0.0, "count")
    metrics["trace.overhead_share"] = metric(
        1 - traced["items_per_ref_s"] / untraced["items_per_ref_s"], "share")
    return metrics


def run(args) -> int:
    wl, own_setup = timed_setup(args.workload, args.seed)
    record: dict = {"workload": args.workload, "seconds": args.seconds,
                    "trace": args.trace}
    try:
        if not args.trace:
            setup = probed_setup(args.workload, args.seed)
            result = measure(wl, args.seconds)
            metrics, extra = end_to_end(wl, result, setup)
            record["setup"] = {**setup, "in_run_s": own_setup}
            shown = {**metrics, **extra}
        else:
            from tracer import Tracer

            result = measure(wl, args.seconds)
            tracer = Tracer()
            tracer.install()
            try:
                with tracer.span("setup"):
                    wl.setup(args.seed)
                traced = measure(wl, args.seconds, replay=result["rounds"],
                                 tracer=tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, result, traced, import_breakdown())
            call_total, call_self_sum = tracer.self_sum("call")
            record["spans"] = tracer.spans()
            record["counts"] = tracer.counts.to_json_obj()
            record["self_sum"] = {"call_s": call_total, "subtree_self_s": call_self_sum}
            record["traced"] = {k: traced[k] for k in
                                ("attempted", "failed", "errors", "items_per_s",
                                 "items_per_ref_s", "host_kernel_ms")}
            result["attempted"] += traced["attempted"]
            result["failed"] += traced["failed"]
            result["errors"] += traced["errors"]
            shown = {**metrics, "trace.self_sum_share": metric(
                call_self_sum / call_total, "share")}
    finally:
        if hasattr(wl, "close"):
            wl.close()

    record.update(environment(args.seed))
    record.update({
        "metrics": metrics,
        "reported": shown,
        "calls": len(result["latencies"]),
        "latencies_s": result["latencies"],
        "rounds": len(result["rounds"]),
        "measured_wall_s": result["wall_s"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "errors": result["errors"][:50],
    })
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for line in result["errors"][:10]:
        print("FAILED", line)
    for key, m in shown.items():
        if isinstance(m, dict):
            print(f"{key:56s} {m['value']:>16.6g} {m['unit']}")
        else:
            print(f"{key:56s} {m:>16.6g}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time the set-up and print its seconds")
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            wl, seconds = timed_setup(args.workload, args.seed)
            if hasattr(wl, "close"):
                wl.close()
            print(seconds)
            return 0
        return run(args)
    except MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
