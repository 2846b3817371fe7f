"""Self-tests of the benchmark's references; they import nothing from geodens.

    python3 -m pytest -q -p no:cacheprovider perfbench/test_references.py

Each closed form in workloads.py is compared with a brute-force numpy
integration, mostly of the generated scene files themselves: their
expressions are evaluated by numpy, not by the geodens parser.  The same
seed must give byte-identical scene files.
"""
from __future__ import annotations

import math
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (  # noqa: E402
    ARC_FILE, EPS_LIST, WORKLOADS, Outcome, crossing_value, line_circle_crossings,
    make_cases, write_scenes, _check_curved)

SEEDS = (0, 1, 2)
WORK = Path(__file__).resolve().parent / "work"


def np_eval(source: str, **env):
    """Evaluate a generated expression with numpy; ^ is Python's **."""
    names = {"__builtins__": {}, "exp": np.exp, "sin": np.sin, "cos": np.cos,
             "sqrt": np.sqrt, "log": np.log, "pi": math.pi}
    return eval(source.replace("^", "**"), names, env)


def delta(t, eps):
    return np.exp(-t * t / (2.0 * eps * eps)) / math.sqrt(2.0 * math.pi * eps * eps)


def by_name(entries):
    return {e["name"]: e for e in entries}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_scene_files(name):
    root = WORK / f"selftest-{os.getpid()}"
    try:
        for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
            write_scenes(make_cases(WORKLOADS[name], seed), root / tag)
        files = sorted(p.relative_to(root / "a") for p in (root / "a").rglob("*.json"))
        assert files
        for f in files:
            assert (root / "a" / f).read_bytes() == (root / "b" / f).read_bytes()
        assert any((root / "a" / f).read_bytes() != (root / "c" / f).read_bytes()
                   for f in files)
    finally:
        shutil.rmtree(root, ignore_errors=True)


# curved-scenes -------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_circle_gaussian_bessel_form(seed):
    """2 pi e^{-(r^2+|c|^2)} I0(2 r |c|) against a midpoint rule on the scene's
    own chart, with the frame factor |det [t | grad F/|grad F|^2]|^(1/2)
    from finite differences."""
    for case in make_cases(WORKLOADS["curved-scenes"], seed)[:3]:
        data = case.files["scene.json"]
        circle = by_name(data["cores"])["C"]
        test = by_name(data["tests"])["g"]
        assert by_name(data["states"])["sc"]["coeff"] == "1"
        n, h = 4096, 1e-5
        u = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
        x = np.stack([np_eval(m, u1=u) for m in circle["map"]])
        t = (np.stack([np_eval(m, u1=u + h) for m in circle["map"]])
             - np.stack([np_eval(m, u1=u - h) for m in circle["map"]])) / (2 * h)
        implicit = circle["implicit"][0]
        grad = np.stack([
            (np_eval(implicit, x1=x[0] + h, x2=x[1]) - np_eval(implicit, x1=x[0] - h, x2=x[1])) / (2 * h),
            (np_eval(implicit, x1=x[0], x2=x[1] + h) - np_eval(implicit, x1=x[0], x2=x[1] - h)) / (2 * h)])
        normal = grad / np.sum(grad * grad, axis=0)
        det = np.abs(t[0] * normal[1] - t[1] * normal[0])
        value = np.sum(np_eval(test["coeff"], x1=x[0], x2=x[1]) * det ** 0.5) * 2 * math.pi / n
        assert value == pytest.approx(case.refs["pair"]["sc,g"], rel=1e-8)


@pytest.mark.parametrize("seed", SEEDS)
def test_line_plane_gaussian_integral(seed):
    for case in make_cases(WORKLOADS["curved-scenes"], seed)[:3]:
        data = case.files["scene.json"]
        line = by_name(data["cores"])["L"]
        states = by_name(data["states"])
        base, a = np.array(line["base"]), np.array(line["tangent"][0])
        s = np.linspace(-8.0, 8.0, 16001)
        x = base[:, None] + a[:, None] * s
        f = np_eval(states["sl"]["coeff"], u1=s) * np_eval(states["sp"]["coeff"], u1=x[0], u2=x[1])
        value = np.trapezoid(f, s) * np.linalg.norm(a) ** 0.5
        assert value == pytest.approx(case.refs["inner"]["sl,sp"], rel=1e-9)


@pytest.mark.parametrize("seed", SEEDS)
def test_crossing_formula_against_tubes(seed):
    """Per-crossing frame-norm values against the integral of two width-eps
    Gaussian tubes, g |t|^-alpha |nu|^-(1-alpha) delta_eps(distance)."""
    rng = np.random.default_rng(seed)
    c, r = rng.uniform(-0.5, 0.5, 2), rng.uniform(0.8, 1.5)
    theta = rng.uniform(0.0, math.pi)
    a = np.array([math.cos(theta), math.sin(theta)])
    b = c + rng.uniform(0.0, 0.6) * r * np.array([1.0, 0.0])
    w = rng.uniform(4.0, 8.0)
    nu_l = np.array([-a[1], a[0]])
    eps, half, step = 0.01, 0.15, 0.01 / 8
    want = got = 0.0
    for s, p in line_circle_crossings(b, a, c, r):
        want += crossing_value(math.exp(-s * s / w), 1.0, nu_l, a, p - c,
                               np.array([-(p - c)[1], (p - c)[0]]))
        g = np.arange(-half, half + step / 2, step)
        x1, x2 = np.meshgrid(p[0] + g, p[1] + g, indexing="ij")
        rel1, rel2 = x1 - b[0], x2 - b[1]
        along, across = rel1 * a[0] + rel2 * a[1], rel1 * nu_l[0] + rel2 * nu_l[1]
        line_tube = np.exp(-along ** 2 / w) * delta(across, eps)
        # the circle chart has |t| = r and grad F = x - c has |nu| = r
        circle_tube = delta(np.hypot(x1 - c[0], x2 - c[1]) - r, eps) / r
        got += np.sum(line_tube * circle_tube) * step * step
    assert got == pytest.approx(want, rel=2e-3)


def test_kept_failure_is_counted_and_a_fix_is_checked():
    case = make_cases(WORKLOADS["curved-scenes"], 0)[0]
    op = ("inner", ARC_FILE)
    errors = []
    stderr = "error: point [-0.70710678 -0.70710678] is 1.25 away from second core 'A'\n"
    assert _check_curved(case, op, Outcome(3, "", stderr), errors) and not errors
    fixed = "inner sm,sa: value 1.0000000000000002 probability 1 estimate 0\n"
    assert not _check_curved(case, op, Outcome(0, fixed, ""), errors) and not errors
    assert _check_curved(case, op, Outcome(0, fixed.replace("1.0000", "1.5000"), ""), errors)
    assert _check_curved(case, op, Outcome(1, "", "Traceback"), errors)
    assert len(errors) == 2


# affine-pairs --------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_affine_pairings_against_grid(seed):
    case = make_cases(WORKLOADS["affine-pairs"], seed)[0]
    data = case.files["scene.json"]
    cores, tests = by_name(data["cores"]), by_name(data["tests"])
    for req, state in zip(data["requests"], data["states"]):
        assert state["coeff"] == "1"
        core, test = cores[state["core"]], tests[req["test"]]
        tangent = np.array(core["tangent"]).T
        k = tangent.shape[1]
        normals = np.linalg.svd(tangent, full_matrices=True)[0][:, k:]
        factor = abs(np.linalg.det(np.hstack([tangent, normals]))) ** (1.0 - state["degree"])
        lo, hi = state["support"][0]
        h = 0.1
        axis = np.arange(lo + h / 2, hi, h)
        u = np.stack([g.ravel() for g in np.meshgrid(*[axis] * k, indexing="ij")], axis=1)
        x = np.array(core["base"]) + u @ tangent.T
        f = np_eval(test["coeff"], **{f"x{i + 1}": x[:, i] for i in range(4)})
        value = np.sum(f) * h ** k * factor
        assert value == pytest.approx(case.refs["pair"][f"{req['state']},{req['test']}"], rel=1e-9)


# oracle-sweep --------------------------------------------------------------

def _axis(lo, hi, n):
    return np.linspace(lo, hi, n)


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_oracle_values_against_grids(seed):
    case = make_cases(WORKLOADS["oracle-sweep"], seed)[0]
    data = case.files["scene.json"]
    states, test = by_name(data["states"]), by_name(data["tests"])["g"]
    inner_geo, inner_eps = case.refs["oracle"]["psi1*psi2"]
    pair_geo, pair_eps = case.refs["oracle"]["psi3|g"]
    p1, p2, p3 = (states[n]["coeff"] for n in ("psi1", "psi2", "psi3"))

    x1 = _axis(-4.0, 4.0, 8001)
    line = np_eval(p1, u1=x1, u2=0.0) * np_eval(p2, u1=x1, u2=0.0)
    assert np.trapezoid(line, x1) == pytest.approx(inner_geo, rel=1e-9)

    box3 = states["psi3"]["support"]
    y1, y2 = _axis(*box3[0], 1201), _axis(*box3[1], 1201)
    plane = np_eval(p3, u1=y1[:, None], u2=y2[None, :]) * \
        np_eval(test["coeff"], x1=y1[:, None], x2=y2[None, :], x3=0.0)
    assert np.trapezoid(np.trapezoid(plane, y2, axis=1), y1) == pytest.approx(pair_geo, rel=1e-7)

    lo = max(states["psi1"]["support"][0][0], states["psi2"]["support"][0][0])
    hi = min(states["psi1"]["support"][0][1], states["psi2"]["support"][0][1])
    for eps, want_inner, want_pair in zip(EPS_LIST, inner_eps, pair_eps):
        t = _axis(-8 * eps, 8 * eps, 121)
        a1 = _axis(lo, hi, 281)[:, None, None]
        a2, a3 = t[None, :, None], t[None, None, :]
        tubes = (np_eval(p1, u1=a1, u2=a2) * delta(a3, eps)
                 * np_eval(p2, u1=a1, u2=a3) * delta(a2, eps))
        got = np.trapezoid(np.trapezoid(np.trapezoid(tubes, t, axis=2), t, axis=1), a1[:, 0, 0])
        assert got == pytest.approx(want_inner, rel=1e-6)

        b1, b2 = _axis(*box3[0], 241)[:, None, None], _axis(*box3[1], 241)[None, :, None]
        tube = np_eval(p3, u1=b1, u2=b2) * delta(a3, eps) * \
            np_eval(test["coeff"], x1=b1, x2=b2, x3=a3)
        got = np.trapezoid(np.trapezoid(np.trapezoid(tube, t, axis=2), b2[0, :, 0], axis=1),
                           b1[:, 0, 0])
        assert got == pytest.approx(want_pair, rel=1e-6)
