"""Run one workload at several seeds and report the seed-to-seed spread of each metric.

    python3 perfbench/spread.py --workload dcap-disk --runs 10 --first-seed 1

For every end-to-end metric it prints the median over the runs and the
quartile spread (Q3 - Q1) / median of statistics.quantiles(values, n=4),
next to the metric's bound in BENCHMARK.json.  Every run must report
correct outputs.  The raw results are written to .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from stats import median, quartile_spread  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, *spec["command"][1:], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output, {result['failed']} of {result['attempted']} ops failed")
            return 1
        runs.append({"seed": seed, **result})
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"spread-{args.workload}-from{args.first_seed}.json").write_text(json.dumps(runs, indent=1))
    print(f"{'metric':<14} {'median':>12} {'spread':>8} {'bound':>6} {'spread/bound':>12}")
    for name, vals in values.items():
        spread = quartile_spread(vals) if len(vals) >= 2 else float("nan")
        print(f"{name:<14} {median(vals):>12.5g} {spread:>8.4f} {bounds[name]:>6.3f} {spread / bounds[name]:>12.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
