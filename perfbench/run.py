"""Seeded benchmark of afweak: exact joins, windowed oracles, cold CLI runs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: lattice-a, lattice-c, window-oracle, cli-cold (see
perfbench/NOTES.md); ``--workload all`` runs the four in turn and prefixes
each metric in the JSON with its workload.  Each run is a closed loop with one client in a
worker process (``worker.py``).

With ``--trace 0`` set-up is done three times, in fresh processes, and
``setup_s`` is their median; the third process also runs the timed loop
and reports the end-to-end metrics.  With ``--trace 1`` an untraced run
is followed by a traced one; the traced run reports the per-layer
metrics, and ``trace.overhead_pct`` compares the mean latency of the
operations both runs completed.  Spans go to
perfbench/out/trace-<workload>-<seed>/.

Operation times are CPU times rescaled to a fixed host speed
(``calibrate.py``); percentiles are Harrell-Davis estimates.  Prints one
line per metric, then one JSON object as the last line of stdout.  Exits 1 when any answer is wrong and 2 when the program or an
argument is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("lattice-a", "lattice-c", "window-oracle", "cli-cold")
SETUP_REPEATS = 3
DEADLINE_S = 170.0  # whole run, across all worker processes
CLI_SUBCOMMANDS = ("check", "classify", "close", "join", "meet", "try-join",
                   "order", "faces", "verify")


class WorkerError(RuntimeError):
    pass


def run_worker(name, seed, seconds, mode, deadline):
    """Start a worker; return (CPU seconds the worker spent on set-up,
    interpreter start included, and its parsed result or None)."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
           name, str(seed), repr(seconds), mode]
    # a session of its own, so that a timeout also ends the worker's children
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
    timer.start()
    try:
        ready = proc.stdout.readline().split()
        if len(ready) != 2 or ready[0] != "READY":
            raise WorkerError(f"{mode} worker did not finish set-up")
        setup_s = float(ready[1])
        rest = proc.stdout.read().strip().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            kill()
            proc.wait()
        proc.stdout.close()
    if code != 0:
        raise WorkerError(f"{mode} worker exited with code {code}")
    return setup_s, (json.loads(rest[-1]) if rest else None)


def tail_percentile(n: int) -> int:
    """90, or the highest whole percentile with ten samples beyond it."""
    for q in range(90, 0, -1):
        if n - math.ceil(q * n / 100) >= 10:
            return q
    return 0


def _betacf(a, b, x):
    """Continued fraction of the incomplete beta function (Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            break
    return h


def _betainc(a, b, x):
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def quantile(sorted_xs, q):
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of
    the order statistics, steadier between runs than any single one."""
    n = len(sorted_xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    total = prev = 0.0
    for i, x in enumerate(sorted_xs, 1):
        cur = _betainc(a, b, i / n)
        total += (cur - prev) * x
        prev = cur
    return total


def end_to_end(result, setups):
    lat = sorted(result["latencies"])
    q = tail_percentile(len(lat))
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1000 * quantile(lat, 0.5), "ms"),
        "op_p90_ms": (1000 * (quantile(lat, q / 100) if q else lat[-1]), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return metrics, q


def shares(result):
    """Share of timed work and operation count per operation kind."""
    total = sum(result["latencies"])
    out = {}
    for kind, t in zip(result["kinds"], result["latencies"]):
        s = out.setdefault(kind, [0.0, 0])
        s[0] += t / total
        s[1] += 1
    return out


def per_layer(name, untraced, traced):
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import tracing

    metrics = tracing.layer_metrics(traced["stats"])
    n = min(len(untraced["latencies"]), len(traced["latencies"]))
    base = sum(untraced["latencies"][:n])
    metrics["trace.overhead_pct"] = (
        100 * (sum(traced["latencies"][:n]) / base - 1), "%")
    # the cli layer is exercised only by cli-cold; elsewhere it reads 0
    imports = traced["import_s"]
    metrics["cli.import_s"] = (statistics.median(imports) if imports else 0.0, "s")
    by_kind: dict[str, list[float]] = {}
    if name == "cli-cold":
        for kind, t in zip(untraced["kinds"], untraced["latencies"]):
            by_kind.setdefault(kind, []).append(t)
    for sub in CLI_SUBCOMMANDS:
        xs = by_kind.get(sub)
        metrics[f"cli.{sub}.p50_ms"] = (1000 * statistics.median(xs) if xs else 0.0,
                                        "ms")
    return metrics


def run_one(name, seed, secs, trace):
    """Run one workload, print its report; return (attempted, failed,
    metrics as {name: (value, unit)})."""
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        _, untraced = run_worker(name, seed, secs, "run", deadline)
        _, traced = run_worker(name, seed, secs, "traced", deadline)
        results = [untraced, traced]
        metrics = per_layer(name, untraced, traced)
        header = f"{name} (traced, seed {seed})"
    else:
        setups = [run_worker(name, seed, secs, "setup", deadline)[0]
                  for _ in range(SETUP_REPEATS - 1)]
        setup_s, result = run_worker(name, seed, secs, "run", deadline)
        setups.append(setup_s)
        results = [result]
        metrics, q = end_to_end(result, setups)
        header = (f"{name} (seed {seed}, {len(result['latencies'])} samples,"
                  f" op_p90_ms is {f'p{q}' if q else 'the maximum'},"
                  f" {result['loop_s']:.1f} s timed loop)")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(header)
    for k, (v, unit) in metrics.items():
        print(f"  {k:<40} {v:14.6g} {unit}")
    print(f"  {'fail_ratio':<40} {failed / attempted:14.6g} ratio")
    r0 = results[0]
    print(f"  not metrics: uncalibrated CPU op p50 "
          f"{1000 * quantile(sorted(r0['raw_latencies']), 0.5):.6g} ms, wall op p50 "
          f"{1000 * quantile(sorted(r0['walls']), 0.5):.6g} ms, host speed factor "
          f"{r0['speed']:.3f}")
    for kind, (share, count) in sorted(shares(r0).items()):
        print(f"  share {kind:<34} {share:14.3f} of time, {count} ops")
    for key, v in sorted(r0["notes"].items()):
        print(f"  note {key}: {v}")
    for r in results:
        for msg in r["failures"]:
            print(f"  FAILED {msg}")
    return attempted, failed, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "afweak", "__init__.py")):
        print("perfbench: no afweak sources under src/afweak", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            a, f, m = run_one(name, args.seed, args.seconds, args.trace)
            attempted, failed = attempted + a, failed + f
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
    except WorkerError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
