"""One workload in one single-threaded process; started by run.py.

Set-up (import, inputs, one warm-up call) ends at the first timed op, whose
time.monotonic() value the worker reports so that run.py can measure set-up
from process start.  Right after set-up the worker times the reference
kernel (reference.py, run by run.py on request) so that run.py can
normalise the set-up time.  With --setup-only the worker stops there.

Then the worker runs rounds, each one pass over the workload's ops with the
same inputs and seeds, while another round is expected to end within
--seconds (at least one round).  The reference kernel runs before every op
and after the last one; each op's time is normalised by the two kernel times
around it.  A traced run first times one untraced round, then installs the
tracer for the remaining rounds; the difference is the tracing overhead.
The last line of stdout is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import reference
from stats import median, normalised, seconds_at_target

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# reference kernel timings after set-up, of which setup_ref_s is the median
SETUP_REF_SAMPLES = 3


def _import_library():
    """Import hypcap from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import hypcap

    origin = Path(hypcap.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"hypcap imported from {origin}, not from {ROOT / 'src'}")


def run_round(ops, tracer, host, round_id: int, records: list) -> None:
    """Run every op once; append (round, op, seconds, norm_s, rel_se, failures) records.

    seconds is the op's raw time and norm_s the same time at the reference
    speed, from the reference kernel timed just before and just after it.
    """
    ctx: dict = {}
    ref_before = host.timed()
    for op in ops:
        if tracer is not None:
            tracer.op = f"{round_id}:{op.name}"
        t0 = time.perf_counter()
        try:
            out = op.call(ctx)
            seconds = time.perf_counter() - t0
            rel_se, failures = op.check(out, ctx)
        except Exception as exc:  # a failed op is counted, reported and the run goes on
            seconds = time.perf_counter() - t0
            rel_se, failures = None, [f"{type(exc).__name__}: {exc}"]
            traceback.print_exc(file=sys.stderr)
        ref_after = host.timed()
        records.append({
            "round": round_id,
            "op": op.name,
            "seconds": seconds,
            "norm_s": normalised(seconds, ref_before, ref_after),
            "rel_se": rel_se,
            "failures": failures,
        })
        ref_before = ref_after


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", help="file for spans of a traced run")
    ap.add_argument("--host-fds", required=True, help="request and reply pipes to run.py's reference kernel")
    args = ap.parse_args(argv)

    _import_library()
    import numpy
    import scipy

    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.op = "setup"
        tracing.install(tracer)
    workload = workloads.BUILDERS[args.workload](args.seed)
    if tracer is not None:
        tracer.uninstall()
    workload.warmup()
    setup_end = time.monotonic()
    host = reference.HostClient(args.host_fds)
    setup_ref_s = median(host.timed() for _ in range(SETUP_REF_SAMPLES))
    if args.setup_only:
        host.close()
        print(json.dumps({"setup_end": setup_end, "setup_ref_s": setup_ref_s}))
        return 0

    records: list = []
    t_start = time.perf_counter()
    first = 0
    if tracer is not None:
        run_round(workload.ops, None, host, 0, records)
        first = 1
        tracing.install(tracer)
    # start another round only while it is expected to end within --seconds
    round_id = first
    while True:
        t_round = time.perf_counter()
        run_round(workload.ops, tracer, host, round_id, records)
        round_id += 1
        now = time.perf_counter()
        if now - t_start + (now - t_round) > args.seconds:
            break
    host.close()
    if tracer is not None:
        tracer.uninstall()

    def round_sums(key: str, rounds) -> list[float]:
        return [sum(rec[key] for rec in records if rec["round"] == r) for r in rounds]

    timed_rounds = range(first, round_id)
    timed = [rec for rec in records if rec["round"] >= first]
    walls = round_sums("norm_s", timed_rounds)
    result = {
        "setup_end": setup_end,
        "setup_ref_s": setup_ref_s,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "rounds": len(walls),
        "round_walls": walls,
        "raw_round_walls": round_sums("seconds", timed_rounds),
        "wall_s": median(walls),
        "op_seconds": [rec["norm_s"] for rec in timed],
        "raw_op_seconds": [rec["seconds"] for rec in timed],
        "mc_s_at_1pct": median(
            sum(seconds_at_target(rec["norm_s"], rec["rel_se"]) for rec in timed if rec["round"] == r)
            for r in timed_rounds
        ),
        "op_records": [{k: rec[k] for k in ("round", "op", "seconds", "norm_s", "rel_se")} for rec in records],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(records),
        "failures": [
            {"round": rec["round"], "op": rec["op"], "why": rec["failures"]} for rec in records if rec["failures"]
        ],
    }

    if tracer is not None:
        spans = tracer.spans
        ops = {s.op for s in spans if s.op != "setup"}
        layers = tracing.layer_metrics(spans, ops, len(walls))
        setup = tracing.SpanIndex(spans, {"setup"})
        layers["corpus.busy_s"] = (setup.busy("corpus"), "s")
        # run.py pinned the worker to one CPU; the threads probe needs them all
        os.sched_setaffinity(0, range(os.cpu_count()))
        speedup = workloads.threads2_speedup(args.seed)
        layers["wos.threads2_speedup"] = (speedup if speedup is not None else 0.0, "ratio")
        untraced_wall = round_sums("norm_s", [0])[0]
        layers["trace.wall_s"] = (median(walls), "s")
        layers["trace.overhead_s"] = (median(walls) - untraced_wall, "s")
        result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        result["untraced_wall_s"] = untraced_wall
        if speedup is None:
            result["notes"] = ["wos.threads2_speedup not measured: run_walks takes no threads argument"]
        if args.out:
            out = Path(args.out)
            out.parent.mkdir(parents=True, exist_ok=True)
            with out.open("w") as fh:
                json.dump(
                    [
                        {
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "op": s.op,
                            "counts": {k: v for k, v in s.counts.items() if k != "steps_arr"},
                        }
                        for s in spans
                    ],
                    fh,
                )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
