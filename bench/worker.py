"""One workload in one fresh process: set up, run passes, print one JSON line.

Started by ``run.py``; not meant to be run by hand.  The last line of its
standard output is a JSON object with the set-up samples, every pass with
every check (wall and reference seconds, see ``speed.py``), the peak
resident memory and, when traced, the per-layer metrics of the traced pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from speed import Speedometer, timed_setup  # noqa: E402

SETUP_SAMPLES = 7


def set_up(workload: str, seed: int):
    """Import the package and set the workload up; returns its state."""
    sys.path.insert(0, str(ROOT / "src"))
    import quasihopf  # noqa: F401
    from workloads import WORKLOADS
    return WORKLOADS[workload].setup(seed)


def setup_sample(workload: str, seed: int) -> list[float]:
    """[wall s, reference s] of the set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=60)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="time budget; ignored with --passes")
    ap.add_argument("--passes", type=int, default=0,
                    help="run exactly this many passes (0: as many as fit)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="print [wall s, reference s] of the set-up and exit")
    args = ap.parse_args(argv)
    out = sys.stdout

    state, wall, ref = timed_setup(lambda: set_up(args.workload, args.seed))
    if args.setup_only:
        out.write(json.dumps([wall, ref]) + "\n")
        return 0
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    setup_samples = [[wall, ref]]

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.reset()

    passes = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            ns0 = tracer.clock()
            outcomes = wl.run_pass(state)
            wall = (tracer.clock() - ns0) / 1e9   # result inspection excluded
            checks = [[o.seconds, o.seconds] for o in outcomes]
        else:
            p0 = time.perf_counter()
            with Speedometer() as speedo:
                outcomes = wl.run_pass(state)
            wall = time.perf_counter() - p0
            checks = [speedo.reference_seconds(o.start, o.start + o.seconds)
                      for o in outcomes]
        passes.append({
            "seconds": wall,
            "checks": [{"id": o.id, "wall_s": w, "ref_s": r, "answer": o.answer,
                        "error": o.error} for o, (w, r) in zip(outcomes, checks)],
        })
        if args.passes:
            if len(passes) >= args.passes:
                break
            continue
        # Set-up samples are taken between passes, spread over the run.
        if len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(setup_sample(args.workload, args.seed))
        # start another pass only if a typical one still fits in the budget
        typical = statistics.median(p["seconds"] for p in passes)
        if time.perf_counter() - start + typical > args.seconds:
            break
    while not args.passes and len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(setup_sample(args.workload, args.seed))

    result = {
        "setup_samples": setup_samples,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    out.write(json.dumps(result) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
