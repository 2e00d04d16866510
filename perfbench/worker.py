"""One benchmark process: set up a workload, run its timed loop, check.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE
MODE is ``setup`` (stop after set-up), ``run`` or ``traced`` (run with
the layer tracer installed before set-up and removed before the checks).

Prints ``READY <set-up CPU seconds, host-speed calibrated>`` when set-up
is done, then one JSON line with the raw results for ``run.py``.
Everything but those lines goes to stderr.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
CALIBRATE_EVERY_S = 0.02


def timed_loop(workload, seconds):
    """Run the whole number of cycles that best fills `seconds` of wall
    time.  Each op gives one sample of CPU time (of this process, or of
    the child for cli-cold), rescaled by the host speed measured around
    it, and one sample of wall time."""
    wall, cpu, speed = time.perf_counter, workload.clock, workload.speed
    records, raw, latencies, walls = [], [], [], []
    start = wall()
    speed.mark()
    cycles = 0
    for cycle in workload.cycles():
        for op in cycle:
            if wall() - speed.at[-1] >= CALIBRATE_EVERY_S:
                speed.mark()
            c0, w0 = cpu(), wall()
            try:
                res = op.fn()
            except Exception as e:  # recorded and judged by the checks
                res = e
            w1 = wall()
            raw.append(cpu() - c0)
            walls.append((w0, w1))
            records.append((op, res))
        cycles += 1
        elapsed = wall() - start
        if elapsed + elapsed / cycles / 2 >= seconds:
            break
    speed.mark()
    latencies = [t * speed.factor(w0, w1) for t, (w0, w1) in zip(raw, walls)]
    return records, latencies, raw, [w1 - w0 for w0, w1 in walls], wall() - start


def judge(records, notes):
    """Check every record; a repeated op must repeat its first result."""
    first: dict[int, object] = {}
    failures = []
    for op, res in records:
        if isinstance(res, Exception):
            if not isinstance(res, op.allowed):
                failures.append(f"{op.kind}: {type(res).__name__}: {res}")
                continue
            key = f"allowed {op.kind} {type(res).__name__}"
            notes[key] = notes.get(key, 0) + 1
        if id(op) in first:
            prev = first[id(op)]
            same = (type(prev) is type(res) if isinstance(res, Exception)
                    else prev == res)
            if not same:
                failures.append(f"{op.kind}: result differs between repetitions")
            continue
        first[id(op)] = res
        if not isinstance(res, Exception):
            msg = op.check(res)
            if msg:
                failures.append(f"{op.kind}: {msg}")
    return failures


def main(argv):
    name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import calibrate

    calibrate.pin_to_one_cpu()

    setup_speed = calibrate.SpeedLog()
    setup_speed.mark()
    tracer = trace_dir = None
    if mode == "traced":
        trace_dir = os.path.join(OUT, f"trace-{name}-{seed}")
        os.makedirs(trace_dir, exist_ok=True)
    import workloads

    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        cls = workloads.WORKLOADS[name]
        if cls is workloads.CliCold:
            workload = cls(seed, seconds, ROOT, tmp, trace_dir)
        else:
            workload = cls(seed, seconds, ROOT)
            if mode == "traced":
                import tracing

                tracer = tracing.Tracer().install()
        workload.setup()
        setup_speed.mark()
        setup_s = ((workloads.cpu_self() - setup_speed.spent)
                   * setup_speed.mean_factor())
        print("READY", setup_s, flush=True)
        if mode == "setup":
            return 0
        records, latencies, raw, walls, loop_s = timed_loop(workload, seconds)
        peak_rss_kb = workload.peak_rss_kb()
        stats = []
        if tracer is not None:
            stats.append(tracer.stats())
            tracer.uninstall()
            tracer.write_spans(os.path.join(trace_dir, "spans.jsonl"))
        failures = judge(records, workload.notes)
        import_s = []
        for path in getattr(workload, "child_traces", ()):
            with open(path) as fh:
                child = json.load(fh)
            stats.append(child["stats"])
            import_s.append(child["import_s"])
    result = {
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:20],
        "kinds": [op.kind for op, _ in records],
        "latencies": latencies,
        "raw_latencies": raw,
        "walls": walls,
        "speed": workload.speed.mean_factor(),
        "loop_s": loop_s,
        "peak_rss_mb": peak_rss_kb / 1024,
        "notes": workload.notes,
        "stats": stats,
        "import_s": import_s,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
