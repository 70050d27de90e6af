"""Run one workload over several seeds and report each metric's median and
quartile spread, the figures a benchmark acceptance check compares.

    python3 bench/spread.py frontier --seeds 1 2 3 4 5 [--seconds 30] [--trace 0]

Each run is a separate ``bench/run.py`` process, one at a time.  The spread
is (Q3 - Q1) / median with Python's ``statistics.quantiles(values, n=4)``.
Prints one JSON object with the per-metric figures and every run's values.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        raw = next((ln[len("# raw: "):] for ln in lines if ln.startswith("# raw: ")), "")
        runs.append({"seed": seed, **result, "raw": raw})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()) + f" | raw {raw}",
              file=sys.stderr, flush=True)
    summary = {}
    for key in runs[0]["metrics"]:
        values = [r["metrics"][key]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[key] = {"median": median, "q1": q1, "q3": q3,
                        "spread": (q3 - q1) / median if median else 0.0,
                        "unit": runs[0]["metrics"][key]["unit"]}
    print(json.dumps({"workload": args.workload, "seconds": args.seconds,
                      "trace": args.trace, "summary": summary, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
