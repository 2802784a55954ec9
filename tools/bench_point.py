"""One point of the benchmark's trajectory: the end-to-end metrics of
repeated bench/run.py runs on seeds 7 and 11.

    python3 tools/bench_point.py --label L [--runs N]

Runs ``bench/run.py --workload W --seed S`` N times (default 5) for each
workload and seed, round-robin so that a drift of the machine spreads over
every workload and seed, in this checkout and with the benchmark's own
budget. Writes BENCH_<L>.json at the checkout's root. Per workload and
seed it holds the median and quartiles of each end-to-end metric, the
builds or passes that each run kept, and the artifact digest that
.bench_work/history.json holds for the code. It also holds the machine
facts and the benchmark's code_digest. A run that fails its checks stops
the tool, and nothing is written. Only bench/run.py's own .bench_work/ is
touched besides.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cold_build", "infer_new_text")
SEEDS = (7, 11)
# what bench/run.py's notes say each workload repeated
REPEATS = re.compile(r"(\d+) (?:cold build\(s\)|inference pass\(es\))")


def parse_run(output: str) -> dict:
    """The machine facts, the repeats and the end-to-end metrics that one
    bench/run.py run printed."""
    lines = output.splitlines()
    machine = next((line[len("machine "):] for line in lines if line.startswith("machine ")),
                   None)
    repeats = next((int(m[1]) for line in lines if (m := REPEATS.search(line))), None)
    if machine is None or repeats is None:
        raise ValueError("no machine facts or repeats")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise ValueError("the run failed its checks")
    return {"machine": json.loads(machine), "repeats": repeats, "metrics": result["metrics"]}


def summarize(runs: list[dict]) -> dict:
    """The repeats of each run, and the median and quartiles of each metric
    over the runs (inclusive quartiles: the sample's own extremes bound
    them)."""
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
        metrics[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3}
    return {"repeats": [run["repeats"] for run in runs], "metrics": metrics}


def bench_code_digest() -> str:
    sys.path.insert(0, str(ROOT / "bench"))
    from run import code_digest

    return code_digest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    if args.runs < 1 or not re.fullmatch(r"[\w.-]+", args.label):
        parser.error("--runs must be at least 1, and --label a file-name word")

    runs = {(w, s): [] for w in WORKLOADS for s in SEEDS}
    for i in range(args.runs):
        for workload, seed in runs:
            print(f"run {i + 1}/{args.runs}: {workload} seed {seed}", flush=True)
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                                   "--seed", str(seed)], cwd=ROOT, capture_output=True,
                                  text=True)
            try:
                runs[workload, seed].append(parse_run(proc.stdout))
            except ValueError as exc:  # json.JSONDecodeError included
                sys.stdout.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                sys.exit(f"bench_point: {workload} seed {seed}: no usable result ({exc!r})")

    code = bench_code_digest()
    history = json.loads((ROOT / ".bench_work" / "history.json").read_text())
    point = {"label": args.label, "code_digest": code, "runs": args.runs,
             "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
             "machine": runs[WORKLOADS[0], SEEDS[0]][0]["machine"], "workloads": {}}
    for (workload, seed), done in runs.items():
        key = f"{workload}|seed={seed}|code={code}"
        point["workloads"].setdefault(workload, {})[str(seed)] = dict(
            summarize(done), artifacts_sha256=history[key]["artifacts_sha256"])
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
