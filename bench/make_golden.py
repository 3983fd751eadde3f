"""Rewrite golden_seed0.json from the program in this checkout.

    python3 bench/make_golden.py

Runs the seed-0 input list of every workload once and records, per
input, its verdict and the sha256 of its report bytes.  Run it only
when a change to the report bytes is deliberate, and say so in the
change.
"""

import json

import run
import workloads


def main() -> None:
    golden = {}
    for name in workloads.WORKLOADS:
        items = workloads.inputs(name, 0)
        res = run.spawn("run", items)
        golden[name] = {r["id"]: f"{r['verdict']} {r['sha256']}" for r in res["results"]}
    path = run.BENCH / "golden_seed0.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")


if __name__ == "__main__":
    main()
