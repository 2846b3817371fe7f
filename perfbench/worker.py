"""One workload in one fresh process: set up, warm up, then a timed closed loop.

Started by run.py, which pins BLAS/OpenMP threads and puts ``src`` on the
path.  The worker prints ``READY`` once set-up is over (imports, scene
generation and loading, one untimed warm-up request), then one JSON line
with its measurements.  Every request is one scene pushed through its
workload's fixed list of CLI operations via ``geodens.cli.main``, in-process;
the next request starts when the previous one has finished.  Around every
untraced request, and after set-up, the worker times the reference kernel
of ``reference.py`` and scales the times by it, to take out the host's
drift in speed.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from reference import REF_KERNEL_S, kernel_seconds
from workloads import WORKLOADS, Outcome, make_cases, write_scenes

KERNEL_SAMPLES = 3      # reference-kernel runs right after set-up


def run_op(cli, command: str, path: Path) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main([command, str(path)])
        except Exception:  # a crash is a failed operation, reported with its traceback
            rc = None
            traceback.print_exc(file=err)
    return Outcome(rc, out.getvalue(), err.getvalue())


def run_request(cli, workload, case, case_dir: Path, errors: list):
    """Run one request; returns (CPU seconds, wall seconds, operations, failed operations).

    The process is single-threaded and never waits, so its CPU time is the
    request's wall time less what other guests of a shared host took.
    """
    w0, c0 = time.perf_counter(), time.process_time()
    outcomes = [run_op(cli, command, case_dir / fname) for command, fname in case.ops]
    cpu, wall = time.process_time() - c0, time.perf_counter() - w0
    failed = sum(bool(workload.check(case, op, out, errors))
                 for op, out in zip(case.ops, outcomes))
    return cpu, wall, len(case.ops), failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="where a traced run saves its spans (.npz)")
    args = ap.parse_args(argv)

    workdir = Path(args.workdir)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    from geodens import cli
    from geodens.scene import load_scene

    workload = WORKLOADS[args.workload]
    cases = make_cases(workload, args.seed)
    dirs = write_scenes(cases, workdir)
    for case, d in zip(cases, dirs):
        for fname in case.files:
            load_scene(d / fname)
    errors: list[str] = []
    warmup_cpu = run_request(cli, workload, cases[0], dirs[0], errors)[0]
    setup_cpu = time.process_time()
    print("READY", flush=True)
    kernel = sorted(kernel_seconds() for _ in range(KERNEL_SAMPLES))[KERNEL_SAMPLES // 2]
    # the warm-up request is scaled like every request; interpreter start,
    # imports and scene loading did not follow the kernel and count as is
    setup_s = setup_cpu - warmup_cpu + warmup_cpu * REF_KERNEL_S / kernel

    result = {"errors": errors, "attempted": 0, "failed": 0, "req_times": [],
              "req_wall_times": [], "kernel_times": [], "req_scaled_times": [],
              "setup_s": setup_s, "setup_cpu_s": setup_cpu, "warmup_cpu_s": warmup_cpu,
              "setup_kernel_s": kernel,
              "numpy": np.__version__, "python": platform.python_version()}
    if not args.setup_only:
        if args.trace:
            _traced_loop(cli, workload, cases, dirs, args.seconds, result, args.spans)
        else:
            _loop(cli, workload, cases, dirs, args.seconds, result)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["correct"] = not errors
    result["errors"] = errors[:20]
    print(json.dumps(result), flush=True)
    return 0


def _account(result, cpu, wall, ops, failed, key="req_times"):
    result[key].append(cpu)
    result[key.replace("_times", "_wall_times")].append(wall)
    result["attempted"] += ops
    result["failed"] += failed


def _loop(cli, workload, cases, dirs, seconds, result):
    """Requests in rotation; each is paired with the mean reference-kernel
    time just before and just after it."""
    start = time.perf_counter()
    before = kernel_seconds()
    i = 0
    while True:
        j = i % len(cases)
        _account(result, *run_request(cli, workload, cases[j], dirs[j], result["errors"]))
        after = kernel_seconds()
        kernel = 0.5 * (before + after)
        result["kernel_times"].append(kernel)
        result["req_scaled_times"].append(result["req_times"][-1] * REF_KERNEL_S / kernel)
        before = after
        i += 1
        if time.perf_counter() - start >= seconds:
            break


def _traced_loop(cli, workload, cases, dirs, seconds, result, spans_path):
    """Each scene runs untraced, then traced; the pairs give the overhead."""
    from spans import Tracer

    tracer = Tracer()
    result["traced_times"], result["traced_wall_times"] = [], []
    start = time.perf_counter()
    i = 0
    while True:
        j = i % len(cases)
        _account(result, *run_request(cli, workload, cases[j], dirs[j], result["errors"]))
        tracer.request_id = i
        tracer.install()
        try:
            _account(result, *run_request(cli, workload, cases[j], dirs[j], result["errors"]),
                     key="traced_times")
        finally:
            tracer.uninstall()
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    # every product_at_point call of a 1-D inner product is a quadrature
    # node, plus the one fail-fast probe: the wrappers saw every call
    inner_counts = tracer.one_dim_inner_counts()
    for calls, nodes in inner_counts:
        if calls != nodes + 1:
            result["errors"].append(
                f"1-D inner: {calls} product_at_point calls for {nodes} weighted_sum nodes")
    result["layers"] = tracer.summary(i)
    result["final_orders"] = tracer.final_orders()
    result["one_dim_inner"] = sorted(set(inner_counts))
    result["spans"] = len(tracer.kind)
    if spans_path:
        tracer.save(spans_path)


if __name__ == "__main__":
    sys.exit(main())
