"""Run one hypcap benchmark workload, or all of them, and report its metrics.

    python3 perfbench/run.py --workload dcap-disk --seed 7 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seconds 28

--seconds is the run length (BENCHMARK.json's run_seconds) and is required.

Each workload runs in its own single-threaded worker process (worker.py)
with the BLAS and OpenMP thread pools pinned to one thread.  Set-up time is
measured from process start to the first timed op; SETUP_SAMPLES extra
workers stop after set-up, and setup_s is the median over all of them.
Every time metric is normalised to the speed of the host at the moment, as
measured by the reference kernel in reference.py, which this process runs
whenever the worker asks (both are pinned to one CPU); the raw seconds are
printed beside it (raw_setup_s, raw_wall_s, raw_op_p50_s) and kept in the
report file.  With
--trace 0 the report holds the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Reports and traces
are also written under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 6
WORKER_TIMEOUT_S = 170
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
from stats import median, normalised, percentile, tail_percentile  # noqa: E402

WORKLOADS = ("hcap-halfplane", "dcap-disk", "area-quadtree", "filled-rectset")


class WorkerError(RuntimeError):
    pass


def _worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start worker.py, time the reference kernel whenever it asks, and return (start time, its JSON result)."""
    env = dict(os.environ, **THREAD_ENV)
    env.pop("PYTHONPATH", None)
    requests_r, requests_w = os.pipe()
    replies_r, replies_w = os.pipe()
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--host-fds", f"{requests_w},{replies_r}"]
    started = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, pass_fds=(requests_w, replies_r)
    )
    os.close(requests_w)
    os.close(replies_r)
    try:
        reference.serve(requests_r, replies_w, deadline)
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except (TimeoutError, subprocess.TimeoutExpired):
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker {' '.join(args)} did not finish in time")
    finally:
        os.close(requests_r)
        os.close(replies_w)
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError(f"worker {' '.join(args)} printed no result")
    return started, json.loads(lines[-1])


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def _git_state() -> dict:
    """Commit of the checkout and whether its files differ from it (untracked ones too)."""
    head = _git("rev-parse", "HEAD")
    if head is None:
        return {"git_commit": "unknown (not a git checkout)", "git_dirty": None}
    status = _git("status", "--porcelain")
    return {"git_commit": head.strip(), "git_dirty": None if status is None else bool(status.strip())}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(seed: int, versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        **_git_state(),
        "workload_seed": seed,
        "thread_env": THREAD_ENV,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; return the report with its final result object."""
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups, raw_setups = [], []

    def add_setup(started: float, res: dict) -> None:
        raw_setups.append(res["setup_end"] - started)
        setups.append(normalised(raw_setups[-1], res["setup_ref_s"], res["setup_ref_s"]))

    for _ in range(SETUP_SAMPLES):
        add_setup(*_worker([*common, "--setup-only"], deadline))
    trace_file = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    extra = ["--trace", "1", "--out", str(trace_file)] if trace else ["--trace", "0"]
    started, res = _worker([*common, *extra], deadline)
    add_setup(started, res)

    op_seconds = res["op_seconds"]
    failed = len({(f["round"], f["op"]) for f in res["failures"]})
    attempted = res["attempted"]
    end_to_end = {
        "setup_s": (median(setups), "s", len(setups)),
        "wall_s": (res["wall_s"], "s", res["rounds"]),
        "op_p50_s": (median(op_seconds), "s", len(op_seconds)),
        "mc_s_at_1pct": (res["mc_s_at_1pct"], "s", res["rounds"]),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", 1),
        "ok_frac": (1.0 - failed / attempted, "ratio", attempted),
    }
    if trace:
        metrics = res["layers"]
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in end_to_end.items()}
    raw = {
        "raw_setup_s": median(raw_setups),
        "raw_wall_s": median(res["raw_round_walls"]),
        "raw_op_p50_s": median(res["raw_op_seconds"]),
    }
    tail = tail_percentile(len(op_seconds))
    return {
        "workload": workload,
        "trace": trace,
        "provenance": provenance(seed, res["versions"]),
        "end_to_end": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in end_to_end.items()},
        "raw": raw,
        "round_walls_s": res["round_walls"],
        "raw_round_walls_s": res["raw_round_walls"],
        "ops": res["op_records"],
        "op_tail": {"percentile": tail, "value": percentile(op_seconds, tail)} if tail else None,
        "fail_frac": failed / attempted,
        "failures": res["failures"],
        "notes": res.get("notes", []),
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics},
    }


def print_report(rep: dict) -> None:
    print(f"# provenance {json.dumps(rep['provenance'])}")
    print(f"# workload {rep['workload']} (trace {rep['trace']})")
    for name, m in rep["end_to_end"].items():
        print(f"{name:<14} {m['value']:>14.6g} {m['unit']:<6} n={m['n']}")
    print(f"{'fail_frac':<14} {rep['fail_frac']:>14.6g} ratio  n={rep['end_to_end']['ok_frac']['n']}")
    for name, value in rep["raw"].items():
        print(f"{name:<14} {value:>14.6g} s      (not normalised)")
    if rep["op_tail"]:
        t = rep["op_tail"]
        print(f"op_p{t['percentile']:g}_s{'':<7} {t['value']:>14.6g} s")
    if rep["trace"]:
        for name, m in rep["result"]["metrics"].items():
            print(f"{name:<40} {m['value']:>14.6g} {m['unit']}")
    for f in rep["failures"]:
        print(f"FAILED round {f['round']} {f['op']}: {'; '.join(f['why'])}")
    for note in rep["notes"]:
        print(f"# {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=7)
    # the benchmark command is always given BENCHMARK.json's run_seconds; no default, so no second copy of it
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # the worker inherits the pin, so it and the kernel run on the same CPU
    reference.pin_to_one_cpu()
    reference.kernel()  # its one-off costs (building its arrays) stay out of the timings
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        try:
            rep = run_workload(name, args.seed, args.seconds, args.trace)
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        OUT_DIR.mkdir(exist_ok=True)
        report_file = OUT_DIR / f"report-{name}-seed{args.seed}-trace{args.trace}.json"
        report_file.write_text(json.dumps(rep, indent=1))
        print_report(rep)
        reports.append(rep)

    if len(reports) == 1:
        result = reports[0]["result"]
    else:
        result = {
            "correct": all(r["result"]["correct"] for r in reports),
            "attempted": sum(r["result"]["attempted"] for r in reports),
            "failed": sum(r["result"]["failed"] for r in reports),
            "metrics": {f"{r['workload']}/{k}": m for r in reports for k, m in r["result"]["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
