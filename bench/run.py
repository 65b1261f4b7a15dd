"""Time-to-verdict benchmark for quasihopf.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (see ``workloads.py`` for why each was chosen):

    equiv-builtins   qhopf --report json equiv, on each builtin in turn
    free-dr2         s_t_isos and counit_iso on the tensor square of drinfeld_h2
    check-battery    a seeded closed-loop stream of dsl.check calls

Every workload runs single-threaded in a fresh worker process.  A pass is one
round of the workload's verdict-producing calls ("checks"): three ``equiv``
reports, four ``free-dr2`` steps, or one ``dsl.check`` per (template,
algebra) pair.  Passes repeat while another typical pass fits in ``--seconds``.

Timings are in reference seconds (see ``speed.py``): wall seconds scaled by
a calibration probe run alongside, which takes out the host's swings in
speed.  Raw wall seconds are kept in the record and printed.

    setup_s        median over seven fresh-interpreter set-ups, spread over
                   the run: import, inputs, contexts
    verdict_s      median over passes of the pass time
    checks_per_s   median over passes of checks / pass time
    check_ms_p50   median over passes of the pass's median check latency
    check_ms_p90   median over passes of the pass's 90th percentile
    peak_rss_mb    the worker's peak resident memory

``--trace 1`` runs one untraced and one traced pass, each in its own fresh
process, checks that both give the same verdicts, and prints the per-layer
metrics of the traced pass (see ``tracer.py``) with the tracing overhead.

Every answer is compared with ``expected.json``.  Any exception or mismatch
is a failed operation; ``failed / attempted`` is printed as ``failed_frac``
and the command then exits with code 1.  The full record (metadata, every
pass, every check) is written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
WORKER = BENCH_DIR / "worker.py"
TIME_LIMIT_S = 170

sys.path.insert(0, str(BENCH_DIR))
from tracer import unit_of  # noqa: E402
from workloads import TEMPLATES, WORKLOADS, Outcome, gate, load_expected  # noqa: E402

UNITS = {"setup_s": "s", "verdict_s": "s", "checks_per_s": "1/s",
         "check_ms_p50": "ms", "check_ms_p90": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def metadata(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "source_sha256": source_digest(),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "templates": [list(t) for t in TEMPLATES] if args.workload == "check-battery" else None,
    }


def run_worker(args, passes: int, trace: int, deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--passes", str(passes), "--trace", str(trace)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the time limit ({exc.timeout:.0f}s)") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker failed with exit code {proc.returncode}:\n"
                         + proc.stderr.strip()[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def outcomes_of(res: dict) -> list[Outcome]:
    return [Outcome(c["id"], 0.0, c["wall_s"], c["answer"], c["error"])
            for p in res["passes"] for c in p["checks"]]


def end_to_end(res: dict) -> dict[str, float]:
    """The end-to-end metrics of an untraced run, in reference seconds."""
    passes = [[c["ref_s"] for c in p["checks"]] for p in res["passes"]]
    return {
        "setup_s": statistics.median(ref for _, ref in res["setup_samples"]),
        "verdict_s": statistics.median(sum(ts) for ts in passes),
        "checks_per_s": statistics.median(len(ts) / sum(ts) for ts in passes),
        "check_ms_p50": statistics.median(statistics.median(ts) for ts in passes) * 1000,
        "check_ms_p90": statistics.median(
            statistics.quantiles(ts, n=10, method="inclusive")[8] for ts in passes) * 1000,
        "peak_rss_mb": res["peak_rss_mb"],
    }


def verdicts(res: dict) -> list:
    return [[o.id, o.answer, o.error] for o in outcomes_of(res)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        if not (ROOT / "src" / "quasihopf" / "__init__.py").is_file():
            raise BenchError(f"no quasihopf sources under {ROOT / 'src'}")
        table = load_expected()[args.workload]
        record = {"meta": metadata(args)}
        if args.trace:
            plain = run_worker(args, 1, 0, deadline)
            traced = run_worker(args, 1, 1, deadline)
            runs = [plain, traced]
            metrics = dict(traced["layers"])
            # wall time with tracing over wall time without (calibration
            # probes and result inspection excluded on either side)
            metrics["trace.overhead_ratio"] = traced["passes"][0]["seconds"] / sum(
                c["wall_s"] for c in plain["passes"][0]["checks"])
            units = {name: unit_of(name) for name in metrics}
            mismatch = verdicts(plain) != verdicts(traced)
            record.update(untraced=plain, traced=traced)
        else:
            res = run_worker(args, 0, 0, deadline)
            runs = [res]
            metrics = end_to_end(res)
            units = UNITS
            mismatch = False
            record["run"] = res
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    outcomes = [o for r in runs for o in outcomes_of(r)]
    failed_ids = gate(outcomes, table)
    attempted, failed = len(outcomes), len(failed_ids)
    correct = failed == 0 and not mismatch
    record.update(metrics=metrics, attempted=attempted, failed=failed,
                  failed_ids=sorted(set(failed_ids)), traced_verdicts_differ=mismatch)

    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    meta = record["meta"]
    print(f"workload {args.workload}  seed {args.seed}  python {meta['python']}  "
          f"nproc {meta['nproc']}  git {meta['git_sha'] or '-'}  "
          f"src {meta['source_sha256'][:12]}")
    if meta["templates"]:
        print("templates " + " ".join(t[0] for t in meta["templates"]))
    for r in runs:
        print("pass wall s " + " ".join(f"{p['seconds']:.4f}" for p in r["passes"])
              + f"  ({len(r['passes'][0]['checks'])} checks per pass)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {failed / attempted:.6g}  ({failed} of {attempted})")
    if failed_ids:
        print("failed: " + ", ".join(sorted(set(failed_ids))))
    if mismatch:
        print("traced verdicts differ from untraced ones")
    print(f"record {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
