"""Benchmark runner for locind.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  The runner makes the workload's inputs from the seed,
then starts one worker interpreter at a time (bench/worker.py), never two
at once:

* ``--trace 0``: one warm-up start, then ``SETUP_STARTS`` starts that only
  import the program (set-up time), then repetitions of the whole input
  list, each in a fresh interpreter: at least ``MIN_REPS``, and more
  while the next one should end within ``--seconds`` of the start.
  Prints the medians as the end-to-end metrics.
* ``--trace 1``: alternates untraced and traced repetitions (at least two
  of each) and prints the per-layer metrics of the traced ones.

Every output is checked: its verdict, the oracle agreement, and for seed
0 the sha256 of its report bytes against golden_seed0.json.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  If a worker cannot start or
dies, the runner exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_STARTS = 9
MIN_REPS = 3
MIN_TRACED = 2
DEADLINE_S = 165      # no worker outlives this; a run must end within 180 s


class WorkerFailed(RuntimeError):
    pass


def spawn(mode: str, items: list | None = None, spans: Path | None = None,
          timeout: float = DEADLINE_S) -> dict:
    """Run one worker to completion and return its JSON result line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, str(SRC), repr(spawned)]
    if spans is not None:
        cmd.append(str(spans))
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    stdin = None if items is None else json.dumps(items)
    try:
        stdout, _ = proc.communicate(stdin, timeout=max(timeout, 1.0))
    except BaseException as exc:    # timeout or interrupt: leave no worker behind
        proc.kill()
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise WorkerFailed(f"{mode} worker passed the deadline") from None
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def check(items: list[dict], results: list[dict], golden: dict | None) -> list[str]:
    """One line per failed input: why it failed."""
    bad = []
    for item, res in zip(items, results, strict=True):
        if res["error"] is not None:
            why = res["error"]
        elif res["verdict"] != "exact-match":
            why = f"verdict {res['verdict']}"
        elif res["oracle_ok"] is False:
            why = "oracle character differs from the degree-0 side-a character"
        elif (golden is not None
              and golden.get(item["id"]) != f"{res['verdict']} {res['sha256']}"):
            why = "report bytes differ from the golden digest"
        else:
            continue
        bad.append(f"{item['id']}: {why}")
    return bad


def environment() -> str:
    return (f"python {platform.python_version()} ({platform.python_implementation()})"
            f" | {platform.platform()} | nproc {os.cpu_count()}"
            f" | affinity {len(os.sched_getaffinity(0))}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    items = workloads.inputs(args.workload, args.seed)
    golden = None
    if args.seed == 0:
        golden = json.loads((BENCH / "golden_seed0.json").read_text())[args.workload]
    print(f"env: {environment()}")
    print(f"workload {args.workload} seed {args.seed}: {len(items)} inputs: "
          + " ".join(item["id"] for item in items))

    start = time.monotonic()

    def left() -> float:
        return DEADLINE_S - (time.monotonic() - start)

    attempted, failures, problems = 0, [], []

    def repetition(mode: str, spans: Path | None = None) -> dict:
        nonlocal attempted
        res = spawn(mode, items, spans, timeout=left())
        attempted += len(items)
        bad = check(items, res["results"], golden)
        failures.extend(bad)
        print(f"{mode} rep: wall {res['wall_s']:.4f} s, cpu {res['cpu_s']:.4f} s,"
              f" set-up {res['setup_s']:.4f} s, peak rss {res['peak_rss_mb']:.1f} MB,"
              f" failed {len(bad)}")
        return res

    def more(done: int, least: int, last: float) -> bool:
        """Start another repetition if one is owed, or if it should end in time."""
        elapsed = time.monotonic() - start
        return done < least or (elapsed + last <= args.seconds and last < left())

    if args.trace == 0:
        section = "end_to_end"
        spawn("setup", timeout=left())   # the first start compiles bytecode
        setups = [spawn("setup", timeout=left())["setup_s"]
                  for _ in range(SETUP_STARTS)]
        reps: list[dict] = []
        while more(len(reps), MIN_REPS, reps[-1]["wall_s"] if reps else 0.0):
            reps.append(repetition("run"))
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "ok_frac": 1 - len(failures) / attempted,
        }
    else:
        section = "per_layer"
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"{args.workload}.spans.jsonl"
        plain: list[dict] = []
        traced: list[dict] = []
        while more(len(traced), MIN_TRACED,
                   plain[-1]["wall_s"] + traced[-1]["wall_s"] if traced else 0.0):
            plain.append(repetition("run"))
            traced.append(repetition("trace", spans))
        sections = {json.dumps(r["counts"], sort_keys=True) for r in traced}
        if len(sections) > 1:
            problems.append("counters differ between traced repetitions")
        times = {k: statistics.median(r["times"][k] for r in traced)
                 for k in traced[0]["times"]}
        plain_wall = statistics.median(r["wall_s"] for r in plain)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        values = {**traced[0]["counts"], **times,
                  "trace.overhead_frac": traced_wall / plain_wall - 1}
        print("layers: " + json.dumps(values, sort_keys=True))
        print(f"spans: {spans.relative_to(ROOT)}")
    metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
               for spec in config[section]}

    for line in dict.fromkeys(failures + problems):
        print(f"FAIL {line}")
    print(json.dumps({"correct": not (failures or problems), "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except WorkerFailed as err:
        print(f"error: {err}", file=sys.stderr)
        sys.exit(2)
