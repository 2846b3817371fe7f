"""Benchmark launcher: one workload, one seed, one result line.

    python3 perfbench/run.py --workload curved-scenes --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each workload runs in a fresh worker process
with BLAS and OpenMP pinned to one thread.  ``--trace 0`` measures the
end-to-end metrics, untraced; set-up is timed in the measuring worker and
in two more set-up-only workers, and the median is reported.  ``--trace 1``
runs every scene untraced and then traced, and reports per-layer metrics.
The last line of standard output is one JSON object; a copy with the run's
provenance goes to perfbench/results/.

Times are the worker's CPU time, scaled by the reference kernel that the
worker times around them (reference.py): seconds on a host on which that
kernel takes ``REF_KERNEL_S``.  The worker is one thread that never waits (BLAS pinned,
scenes read from the page cache), so its CPU time is its wall time less
what other guests of a shared host took from it; the kernel takes out the
rest of the host's drift in speed.  Raw CPU and wall times are kept in the
result file.
"""
from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORK = HERE / "work"
WORKLOADS = ("curved-scenes", "affine-pairs", "oracle-sweep")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class WorkerError(RuntimeError):
    pass


def git_sha() -> str | None:
    """The checked-out commit, read from .git without leaving the repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn_worker(args, deadline: float, setup_only: bool, spans: Path | None):
    """Run one worker; returns (set-up wall seconds, result dict)."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}-{time.monotonic_ns()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines, setup_wall = [], None
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not sel.select(timeout=remaining):
                    raise WorkerError("worker ran past the deadline")
                line = proc.stdout.readline()
                if not line:
                    break
                if line.strip() == "READY" and setup_wall is None:
                    setup_wall = time.perf_counter() - t0
                else:
                    lines.append(line)
        rc = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if rc != 0 or setup_wall is None or not lines:
        raise WorkerError(f"worker exited with code {rc}")
    return setup_wall, json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "geodens" / "cli.py").is_file():
        print(f"error: no geodens sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup_wall, res = spawn_worker(
            args, deadline, False, RESULTS / f"{stem}.spans.npz" if args.trace else None)
        workers, setup_walls = [res], [setup_wall]
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                w, extra = spawn_worker(args, deadline, True, None)
                workers.append(extra)
                setup_walls.append(w)
                res["errors"] += extra["errors"]
                res["correct"] = res["correct"] and extra["correct"]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    times = res["req_times"]
    setups = [w["setup_s"] for w in workers]
    scaled = res["req_scaled_times"]
    if args.trace:
        metrics = {name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
                   for name, value in res["layers"].items()}
        overhead = statistics.median(t - u for t, u in zip(res["traced_times"], times))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "req_s.p50": {"value": statistics.median(scaled), "unit": "s"},
            "req_per_s": {"value": len(scaled) / sum(scaled), "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    line = {"correct": bool(res["correct"]), "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "python": res["python"],
        "numpy": res["numpy"], "nproc": os.cpu_count(),
        "requests": len(times), "req_times": times, "setup_samples": setups,
        "req_scaled_times": scaled, "kernel_times": res["kernel_times"],
        "req_wall_times": res["req_wall_times"], "setup_wall_samples": setup_walls,
        "setup_cpu_samples": [w["setup_cpu_s"] for w in workers],
        "warmup_cpu_samples": [w["warmup_cpu_s"] for w in workers],
        "setup_kernel_samples": [w["setup_kernel_s"] for w in workers],
        "errors": res["errors"], **line,
    }
    for key in ("traced_times", "traced_wall_times", "final_orders", "one_dim_inner", "spans"):
        if key in res:
            report[key] = res[key]
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    for err in res["errors"][:5]:
        print(f"check failed: {err}")
    print(f"{args.workload} seed {args.seed}: {len(times)} requests, "
          f"median {statistics.median(times):.4f} s CPU, "
          f"{statistics.median(res['req_wall_times']):.4f} s wall"
          + (f", {statistics.median(scaled):.4f} s scaled" if scaled else ""))
    if args.trace:
        m = res["layers"]
        orders = ", ".join(f"{o} x{n}" for o, n in res["final_orders"].items()) or "none"
        print(f"  traced median {statistics.median(res['traced_times']):.4f} s; per request: "
              f"tensor_rule nodes {m['quadrature.tensor_rule.nodes']:.0f}, "
              f"weighted_sum nodes {m['quadrature.weighted_sum.nodes']:.0f}, "
              f"composite_rule nodes {m['quadrature.composite_rule.nodes']:.0f}; "
              f"integrate stopped at order: {orders}")
        if res["one_dim_inner"]:
            pairs = ", ".join(f"{c} calls / {n} nodes" for c, n in res["one_dim_inner"])
            print(f"  1-D inner products: {pairs}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
