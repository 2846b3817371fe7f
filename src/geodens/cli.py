"""Command line entry point: run scene requests, print reports, write CSV.

One subcommand per request kind; a run executes the scene's requests of that
kind in order.  Numeric CSV output uses %.17g so values round-trip exactly.

Exit codes: 0 ok, otherwise the ``exit_code`` of the GeodensError raised:
2 scene/expression/argument (InputError, and OSError on files), 3 geometry
(GeometryError), 4 degree mismatch (DegreeError), 5 quadrature/convergence
(ConvergenceError), 6 transversality (TransversalityError).  Any other
exception is a bug and propagates with its traceback.
"""
from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import math
import sys

import numpy as np

from . import oracle as oracle_mod
from . import quadrature
from .errors import GeodensError, InputError, TransversalityError
from .geometry import frames_many, intersect, transversality_check
from .product import inner_product, product
from .quadrature import Grid, QuadratureOptions, as_box, intersect_boxes
from .scene import Scene, load_scene
from .states import pair_with_test


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def fmt_value(v: complex) -> str:
    v = complex(v)
    if v.imag == 0.0:
        return fmt(v.real)
    return f"{fmt(v.real)}{'+' if v.imag >= 0 else '-'}{fmt(abs(v.imag))}j"


def float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


# subcommand -> its help; ``_cmd_<subcommand>`` runs the scene's requests of that op
COMMANDS = {
    "check": "validate cores, transversality, intersections",
    "pair": "pair states with test densities",
    "product": "sample transverse product coefficients",
    "inner": "partial inner products over intersections",
    "oracle": "compare against the mollification oracle",
    "sweep": "re-run a scalar request over a parameter range",
}


@functools.cache  # built once per process; parsing leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geodens",
        description="distributional density calculus on embedded cores")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in COMMANDS.items():
        p = sub.add_parser(name, help=doc)
        p.add_argument("scene", help="scene JSON file")
        p.add_argument("--out", help="write results as CSV to this file")
        p.add_argument("--quad-order", type=int, default=quadrature.DEFAULT_ORDER,
                       help="base Gauss-Legendre order (default %(default)s)")
        p.add_argument("--quad-tol", type=float, default=quadrature.DEFAULT_REL_TOL,
                       help="relative quadrature tolerance (default %(default)g)")
        p.add_argument("--eps-list", type=float_list, default=None,
                       help="comma separated mollifier widths (default "
                            f"{','.join(map(str, oracle_mod.DEFAULT_EPS))})")
        p.add_argument("--dump-normalized", action="store_true",
                       help="print the normalized scene JSON and exit")
    return parser


@functools.cache
def pin_heap_thresholds() -> None:
    """Keep weighted_sum's freed blocks in glibc's heap, not handed back and faulted in
    again block after block; once per process, and only where mallopt exists."""
    mallopt = getattr(None if sys.platform == "win32" else ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-1, 16 << 20)  # M_TRIM_THRESHOLD: twice the mmap one, as glibc's own rule
        mallopt(-3, 8 << 20)  # M_MMAP_THRESHOLD: over a block's arrays (6.4 MB of R^4 points)


def main(argv=None) -> int:
    pin_heap_thresholds()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.quad_order < 1:
        parser.error("--quad-order must be at least 1")
    if not (math.isfinite(args.quad_tol) and args.quad_tol >= 0.0):
        parser.error("--quad-tol must be a finite number >= 0")
    try:
        return _run(args)
    except GeodensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return InputError.exit_code


def _run(args) -> int:
    scene = load_scene(args.scene)
    if args.dump_normalized:
        text = scene.dump()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    opts = QuadratureOptions(order=args.quad_order, rel_tol=args.quad_tol)
    requests = [r for r in scene.requests if r["op"] == args.command]
    if not requests:
        print(f"scene has no {args.command!r} requests")
        return 0
    header, rows, code = globals()[f"_cmd_{args.command}"](scene, requests, opts, args)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    return code


# check

def _cmd_check(scene: Scene, requests, opts, args):
    rng = np.random.default_rng(0)
    header = ["core_c", "core_d", "expected_dim", "intersection_dim",
              "sample_rank", "transverse"]
    rows, all_ok = [], True
    for req in requests:
        c, d = scene.cores[req["cores"][0]], scene.cores[req["cores"][1]]
        samples = req.get("samples")
        try:
            result = intersect(c, d)
        except GeodensError:
            if samples is None:
                raise
            result = None  # explicit samples carry the check on their own
            print(f"check {c.name},{d.name}: intersection not computed, "
                  "using the request's samples")
        if result is not None:
            if result.dim == 0:
                pts = ", ".join("(" + ", ".join(f"{v:.6g}" for v in p) + ")"
                                for p in result.points)
                print(f"check {c.name},{d.name}: intersection dim 0, points: {pts}")
            else:
                print(f"check {c.name},{d.name}: intersection dim {result.dim} "
                      f"(affine core {result.core.name!r})")
        if samples is None:
            samples = [np.asarray(p) for p in result.points]
            if result.core is not None and result.core.dim > 0:
                base, tan = result.core.form.base, result.core.form.tangent
                samples = [base] + [base + 0.5 * tan[:, j] for j in range(tan.shape[1])]
        report = transversality_check(c, d, samples)
        for s in report.samples:
            verdict = "transverse" if s.transverse else "NOT transverse"
            print(f"  at ({', '.join(f'{v:.6g}' for v in s.point)}): "
                  f"rank {s.rank}/{report.ambient_dim}, {verdict}")
            rows.append([c.name, d.name, report.expected_dim,
                         "" if result is None else result.dim,
                         s.rank, int(s.transverse)])
            all_ok = all_ok and s.transverse
        probes = _frame_probes(scene, rng)
        print(f"  frame probes: {probes} ok")
    if not all_ok:
        print("check: non-transverse samples found", file=sys.stderr)
        return header, rows, TransversalityError.exit_code
    return header, rows, 0


def _frame_probes(scene: Scene, rng) -> int:
    """Sample every core's frames at three random points; ``frames_many`` checks them."""
    for core in scene.cores.values():
        box = core.domain if core.domain is not None else np.tile([-1.0, 1.0], (core.dim, 1))
        frames_many(core, rng.uniform(box[:, 0], box[:, 1], (3, core.dim)))
    return 3 * len(scene.cores)


# pair

def _cmd_pair(scene: Scene, requests, opts, args):
    header = ["state", "test", "value_re", "value_im", "estimate"]
    rows = []
    for req in requests:
        state, test = scene.states[req["state"]], scene.tests[req["test"]]
        result = pair_with_test(state, test, options=opts)
        print(f"pair {req['state']},{req['test']}: value {fmt_value(result.value)} "
              f"estimate {fmt(result.error_estimate)}")
        rows.append([req["state"], req["test"], fmt(result.value.real),
                     fmt(result.value.imag), fmt(result.error_estimate)])
    return header, rows, 0


# product

def _resolve_intersection(scene: Scene, req):
    s1, s2 = scene.states[req["state1"]], scene.states[req["state2"]]
    if req.get("intersection"):
        return s1, s2, [scene.cores[req["intersection"]]]
    result = intersect(s1.core, s2.core)
    return s1, s2, list(result.point_cores()) if result.core is None \
        else [result.core]


def _cmd_product(scene: Scene, requests, opts, args):
    header = ["state1", "state2", "core", "coords", "value_re", "value_im"]
    rows = []
    for req in requests:
        s1, s2, cores_e = _resolve_intersection(scene, req)
        for core_e in cores_e:
            state = product(s1, s2, core_e,
                            support=req.get("support"))
            axes = []
            if core_e.dim:
                box = as_box(intersect_boxes(core_e.domain, req.get("support")))
                axes = [np.linspace(lo, hi, int(req.get("grid", 5))) for lo, hi in box]
            grid = Grid(axes).points()
            print(f"product {req['state1']},{req['state2']} on {core_e.name}: "
                  f"degree {fmt_value(state.degree)}, {grid.shape[0]} samples")
            for w in grid:
                v = state.coeff(w)
                rows.append([req["state1"], req["state2"], core_e.name,
                             " ".join(fmt(x) for x in w), fmt(v.real), fmt(v.imag)])
                if grid.shape[0] <= 4:
                    coords = ", ".join(f"{x:.6g}" for x in w)
                    print(f"  g({coords}) = {fmt_value(v)}")
    return header, rows, 0


# inner

def _run_inner(scene: Scene, req, opts):
    s1, s2, cores_e = _resolve_intersection(scene, req)
    total, estimate = 0.0 + 0.0j, 0.0
    for core_e in cores_e:
        result = inner_product(s1, s2, core_e, support=req.get("support"),
                               options=opts)
        total += result.value
        estimate += result.error_estimate
    return total, estimate, len(cores_e)


def _cmd_inner(scene: Scene, requests, opts, args):
    header = ["state1", "state2", "value_re", "value_im", "probability",
              "estimate"]
    rows = []
    for req in requests:
        value, estimate, ncores = _run_inner(scene, req, opts)
        try:
            prob = abs(value) ** 2
        except OverflowError:  # Python floats raise where the square passes the float range
            prob = math.inf
        extra = f" ({ncores} intersection points)" if ncores > 1 else ""
        print(f"inner {req['state1']},{req['state2']}: value {fmt_value(value)} "
              f"probability {fmt(prob)} estimate {fmt(estimate)}{extra}")
        rows.append([req["state1"], req["state2"], fmt(value.real),
                     fmt(value.imag), fmt(prob), fmt(estimate)])
    return header, rows, 0


# oracle

def _eps_list(req, args):
    return args.eps_list or req.get("eps", list(oracle_mod.DEFAULT_EPS))


def _cmd_oracle(scene: Scene, requests, opts, args):
    header = ["kind", "eps", "oracle_re", "oracle_im", "error", "rel_error",
              "order"]
    rows = []
    for req in requests:
        eps = _eps_list(req, args)
        if "test" in req:
            kind = f"{req['state']}|{req['test']}"
            report = oracle_mod.compare_pairing(
                scene.states[req["state"]], scene.tests[req["test"]], eps, opts)
        else:
            kind = f"{req['state1']}*{req['state2']}"
            report = oracle_mod.compare_inner(
                scene.states[req["state1"]], scene.states[req["state2"]],
                _resolve_intersection(scene, req)[2][0], eps,
                support=req.get("support"), options=opts)
        print(f"oracle {kind}: geometric {fmt_value(report.geometric)}")
        for i, e in enumerate(report.eps):
            order = report.empirical_orders[i] if i < len(report.empirical_orders) \
                else None
            print(f"  eps {e:g}: oracle {fmt_value(report.oracle[i])} "
                  f"error {report.errors[i]:.3e} rel {report.rel_errors[i]:.3e}"
                  + (f" order {order:.2f}" if order is not None else ""))
            rows.append([kind, fmt(e), fmt(report.oracle[i].real),
                         fmt(report.oracle[i].imag), fmt(report.errors[i]),
                         fmt(report.rel_errors[i]),
                         "" if order is None else fmt(order)])
        print(f"  converged (final rel error {report.final_rel_error:.3e}, "
              f"noise floor {report.floor:.3e})")
    return header, rows, 0


# sweep

def _cmd_sweep(scene: Scene, requests, opts, args):
    header = ["param", "value", "result_re", "result_im", "estimate"]
    rows = []
    for req in requests:
        inner_req = req["request"]
        for v in req["values"]:
            swept = scene.rebuild({req["param"]: v})
            if inner_req["op"] == "pair":
                result = pair_with_test(swept.states[inner_req["state"]],
                                        swept.tests[inner_req["test"]],
                                        options=opts)
                value, estimate = result.value, result.error_estimate
            else:
                value, estimate, _ = _run_inner(swept, inner_req, opts)
            print(f"sweep {req['param']}={v:.10g}: value {fmt_value(value)} "
                  f"estimate {fmt(estimate)}")
            rows.append([req["param"], fmt(v), fmt(value.real),
                         fmt(value.imag), fmt(estimate)])
    return header, rows, 0


if __name__ == "__main__":
    sys.exit(main())
