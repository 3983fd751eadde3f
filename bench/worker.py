"""One benchmark repetition, run in a fresh interpreter.

    python3 bench/worker.py setup SRC SPAWNED
    python3 bench/worker.py run   SRC SPAWNED            < inputs.json
    python3 bench/worker.py trace SRC SPAWNED SPANS_OUT  < inputs.json

SPAWNED is the CLOCK_MONOTONIC time at which run.py started this
process; set-up time runs from there until ``locind.harness`` (imported
from SRC and nowhere else) is ready.  ``setup`` stops at that point.
``run`` and ``trace`` then run every input of the JSON list on stdin as
one timed block, including building each case and serializing its
report, and print one JSON line: wall time, CPU time, set-up time, peak
RSS, one result per input and, for ``trace``, the layer summary.  An
input that raises is recorded with its exception and the block goes on.
"""

import os
import sys
import time


def _load_locind(src: str):
    sys.path.insert(0, src)
    import locind.harness
    where = os.path.abspath(locind.harness.__file__)
    if not where.startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"locind was imported from {where}, not from {src}")
    return locind.harness


def main(argv: list[str]) -> int:
    mode, src, spawned = argv[0], argv[1], float(argv[2])
    harness = _load_locind(src)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spawned
    if mode == "setup":
        print(f'{{"setup_s": {setup_s!r}}}')
        return 0

    import hashlib
    import json
    import resource
    from locind import gkmod, hecke
    from locind.gkmod import Window

    def window(fam: str, w: int | None):
        if w is None:
            return None
        return Window.box((-w, -w), (w, w)) if fam == "D" else Window.segment(-w, w)

    def case_of(item: dict):
        lam = item["lambda"]
        return harness.VerificationCase(
            item["family"], tuple(lam) if isinstance(lam, list) else lam,
            window=window(item["family"], item["window"]), parity=item["parity"],
            expected="fixture" if item["fixture"] else "match")

    # Each runner returns (verdict, report bytes, oracle agreement or None).
    # Calls go through module attributes so that traced runs see them.
    def run_case(item):
        report = harness.run_case(case_of(item))
        return report.verdict, report.to_json_bytes(), None

    def run_selftest(_):
        reports = harness.selftest()
        bad = [r.case for r in reports if r.verdict != "exact-match"]
        verdict = "mismatch:" + ",".join(bad) if bad else "exact-match"
        return verdict, b"\n".join(r.to_json_bytes() for r in reports), None

    def run_oracle(item):
        case = case_of(item)
        report = harness.run_case(case)
        side_a = report.comparisons[0][2]          # degree-0 homology
        pair = harness.pair_by_name(case.family)
        lam = case.lambda0       # the module run_case builds for each family
        if case.family == "A":
            values = (lam, 0)
        elif case.family == "B":
            values = (-lam, -lam)
        else:
            values = (lam[0], 0, lam[1], 0)
        v = gkmod.one_dim_module(pair, values, parity=case.parity)
        oracle = hecke.p_deg0_oracle(
            pair, gkmod.tensor_onedim(v, gkmod.lambda_top(pair)),
            window=case.resolved_window(), margin=case.margin)
        agree = (oracle.is_zero() and side_a.is_zero()) or oracle == side_a
        data = report.to_json_bytes() + b"\n" + json.dumps(
            oracle.to_jsonable(), sort_keys=True).encode("ascii")
        return report.verdict, data, agree

    runners = {"case": run_case, "selftest": run_selftest, "oracle": run_oracle}
    items = json.load(sys.stdin)
    tracer = None
    if mode == "trace":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    outs = []
    clock = time.perf_counter
    cpu0 = time.process_time()
    t0 = clock()
    for item in items:
        if tracer is not None:
            tracer.case = item["id"]
        start = clock()
        try:
            verdict, data, agree = runners[item["kind"]](item)
            error = None
        except Exception as exc:    # one failing input must not stop the block
            verdict, data, agree = None, b"", None
            error = f"{type(exc).__name__}: {exc}"
        outs.append((verdict, data, agree, error, clock() - start))
    wall_s = clock() - t0
    cpu_s = time.process_time() - cpu0

    out = {"wall_s": wall_s, "cpu_s": cpu_s, "setup_s": setup_s, "results": [
        {"id": item["id"], "verdict": verdict, "oracle_ok": agree, "error": error,
         "sha256": hashlib.sha256(data).hexdigest(), "seconds": seconds}
        for item, (verdict, data, agree, error, seconds) in zip(items, outs)]}
    if tracer is not None:
        out["counts"], out["times"] = tracer.summary(wall_s)
        out["wrapped"] = tracer.bindings
        tracer.write_spans(argv[3])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
