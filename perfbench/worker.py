"""One workload in one fresh process: ``run.py`` starts it and reads its
stdout, which is the line ``ready`` once set-up is done and then one JSON
line with the run's raw results.

Modes:
  setup   import, load the golden results, build the first pass; then exit
  timed   closed loop, one client: --passes passes, numbered from --first-pass,
          with the workload's host-speed reference (calibrate.py) timed
          between ops
  traced  pass 0 with every layer wrapped; spans go to --trace-dir
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# a process stops starting ops after this long and counts the rest of its
# pass as failed, so a run ends within the three minutes it may take even
# if ops start hitting their time limit
RUN_BUDGET_S = 60.0


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op that exceeded its time limit."""


def _alarm(signum, frame):
    raise OpTimeout()


def call_with_limit(fn, arg, limit_s: float):
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        return fn(arg)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def probe_known_defect() -> dict:
    from workloads import KNOWN_DEFECT, KNOWN_DEFECT_LIMIT_S, make_params
    from eiscong.congruence import search_congruence_primes
    t0 = time.perf_counter()
    try:
        call_with_limit(search_congruence_primes, make_params(*KNOWN_DEFECT),
                        KNOWN_DEFECT_LIMIT_S)
        finished = True
    except OpTimeout:
        finished = False
    return {"input": "psi=%s phi=%s M=%d k=%d" % KNOWN_DEFECT, "finished": finished,
            "limit_s": KNOWN_DEFECT_LIMIT_S, "seconds": time.perf_counter() - t0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--first-pass", type=int, default=0)
    ap.add_argument("--trace-dir", default=None)
    ap.add_argument("--probe-known-defect", action="store_true")
    args = ap.parse_args(argv)

    import calibrate
    import workloads
    wl = workloads.WORKLOADS[args.workload](workloads.load_golden())

    def pass_ops(index):
        return wl.pass_ops(random.Random(f"{args.workload}/{args.seed}/{index}"))

    ops = pass_ops(args.first_pass)
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer, wrapper_cost
        tracer = Tracer()
        tracer.install()
        if args.workload == "cli-reproduce":
            wl.trace_dir = args.trace_dir
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    latencies, failures, digests = [], [], hashlib.sha256()
    passes, attempted = 0, 0
    reference_s, reference_at = [], None
    reference = calibrate.WORK[wl.reference]
    t_start = time.perf_counter()
    for index in range(args.first_pass, args.first_pass + args.passes):
        if index > args.first_pass:
            ops = pass_ops(index)
        for op in ops:
            attempted += 1
            if time.perf_counter() - t_start > RUN_BUDGET_S:
                failures.append({"op": repr(op), "error": f"not started: run budget of "
                                                          f"{RUN_BUDGET_S} s spent"})
                continue
            if tracer is not None:
                tracer.op_id = attempted - 1
            elif reference_at is None or \
                    time.perf_counter() - reference_at >= calibrate.INTERVAL_S:
                reference_s.append(calibrate.timed(reference))
                reference_at = time.perf_counter()
            t0 = time.perf_counter()
            try:
                if args.workload == "cli-reproduce":
                    result = wl.run(op)  # subprocess.run enforces the limit
                else:
                    result = call_with_limit(wl.run, op, wl.time_limit_s)
            except OpTimeout:
                failures.append({"op": repr(op), "error": f"time limit {wl.time_limit_s} s"})
                continue
            except Exception as exc:  # any library error is a failed op
                failures.append({"op": repr(op), "error": f"{type(exc).__name__}: {exc}"})
                continue
            dt = time.perf_counter() - t0
            try:
                error = wl.check(op, result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                failures.append({"op": repr(op), "error": error})
                continue
            latencies.append(dt)
            digests.update(wl.digest(op, result).encode())
        passes += 1
    if tracer is None:
        reference_s.append(calibrate.timed(reference))
    wall = time.perf_counter() - t_start - sum(reference_s)

    who = resource.RUSAGE_CHILDREN if args.workload == "cli-reproduce" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    out = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
           "passes": passes, "ops_per_pass": len(ops), "attempted": attempted,
           "latencies": latencies, "failures": failures, "wall_s": wall,
           "peak_rss_mb": peak_rss_mb, "results_sha256": digests.hexdigest(),
           "reference": wl.reference, "reference_s": reference_s}
    if tracer is not None:
        tracer.uninstall()
        role = "checker" if args.workload == "cli-reproduce" else "ops"
        tracer.dump(os.path.join(args.trace_dir, "worker.spans"), role=role)
        out["wrapper_cost_s"] = wrapper_cost()
    if args.probe_known_defect:
        out["known_defect"] = probe_known_defect()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
