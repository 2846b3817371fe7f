"""Seeded scene generators, closed-form references and output checks.

Each workload turns a seed into a list of cases.  A case is one or more
scene files plus the fixed list of CLI operations one request runs on them,
and the reference values its printed output must match.  References come
from closed forms evaluated with numpy alone: nothing here imports geodens,
so a wrong number in the program cannot leak into what it is checked
against.

Random parameters are drawn from ranges chosen so that every scene of a
workload needs the same quadrature orders and the same composite-grid node
counts; requests of one workload then cost about the same whatever the seed.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi
EPS_LIST = (0.2, 0.1, 0.05)

# relative tolerances of the checks; the CLI runs at rel_tol 1e-8
VALUE_RTOL = 1e-7       # geometric values against closed forms
ORACLE_RTOL = 1e-6      # each oracle value against its closed form at that eps
ORACLE_FINAL_RTOL = 1e-2
POINT_ATOL = 2e-5       # intersection points are printed with 6 digits

ARC_FILE = "arc.json"   # the fixed scene of the kept failing operation


def num(v: float) -> str:
    """A float as expression source; repr round-trips exactly."""
    return repr(float(v))


def shifted(var: str, c: float) -> str:
    c = float(c)
    return f"({var}-{num(c)})" if c >= 0.0 else f"({var}+{num(-c)})"


def scene_text(data: dict) -> str:
    return json.dumps(data, indent=1) + "\n"


@dataclass
class Outcome:
    """What one CLI operation returned."""

    rc: int | None
    stdout: str
    stderr: str


@dataclass
class Case:
    """One request: scene files, the CLI operations to run, references."""

    files: dict[str, dict]
    ops: list[tuple[str, str]]            # (command, file name)
    refs: dict


# output parsing ----------------------------------------------------------

_PAIR = re.compile(r"^pair (\S+),(\S+): value (\S+) estimate (\S+)$")
_INNER = re.compile(r"^inner (\S+),(\S+): value (\S+) probability (\S+) "
                    r"estimate (\S+)(?: \((\d+) intersection points\))?$")
_CHECK = re.compile(r"^check (\S+),(\S+): intersection dim (\d+), points: (.*)$")
_SAMPLE = re.compile(r"^  at \((.*)\): rank (\d+)/(\d+), (transverse|NOT transverse)$")
_ORACLE = re.compile(r"^oracle (\S+): geometric (\S+)$")
_ORACLE_EPS = re.compile(r"^  eps (\S+): oracle (\S+) error")


def _values(stdout: str, pattern) -> dict:
    out = {}
    for line in stdout.splitlines():
        m = pattern.match(line)
        if m:
            out[f"{m.group(1)},{m.group(2)}"] = m
    return out


def _close(got: complex, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


def _check_values(stdout: str, pattern, refs: dict, what: str, errors: list):
    found = _values(stdout, pattern)
    for key, want in refs.items():
        m = found.get(key)
        if m is None:
            errors.append(f"{what} {key}: no result printed")
            continue
        got = complex(m.group(3))
        if not _close(got, want, VALUE_RTOL):
            errors.append(f"{what} {key}: got {got}, closed form {float(want)!r}")


# closed forms ------------------------------------------------------------

def circle_gaussian_pairing(centre, radius, gauss_centre) -> float:
    """Unit-coefficient circle state paired with exp(-|x - m|^2).

    With the implicit form (|x-c|^2 - r^2)/2 the frame factor is 1, so the
    pairing is the integral over u in [0, 2pi] of exp(-|c + r e(u) - m|^2):
    2 pi exp(-(r^2 + |m-c|^2)) I0(2 r |m-c|).
    """
    d = float(np.linalg.norm(np.asarray(gauss_centre) - np.asarray(centre)))
    return TWO_PI * math.exp(-(radius ** 2 + d ** 2)) * float(np.i0(2.0 * radius * d))


def crossing_value(g1, g2, nu_c, t_c, nu_d, t_d, alpha=0.5, beta=0.5) -> float:
    """Partial inner product contributed by one transverse crossing in R^2.

    Both cores carry normals orthogonal to their tangents, so each full frame
    [t | nu/|nu|^2] has |det| = |t|/|nu|, and the stacked conormals give
    |nu_c ^ nu_d|:  g1 g2 / (|nu_c ^ nu_d| (|t_c|/|nu_c|)^alpha (|t_d|/|nu_d|)^beta).
    """
    wedge = abs(nu_c[0] * nu_d[1] - nu_c[1] * nu_d[0])
    fc = np.linalg.norm(t_c) / np.linalg.norm(nu_c)
    fd = np.linalg.norm(t_d) / np.linalg.norm(nu_d)
    return g1 * g2 / (wedge * fc ** alpha * fd ** beta)


def line_circle_crossings(base, direction, centre, radius):
    """Line parameters s and points of |base + s a - c| = r (|a| = 1)."""
    d = np.asarray(base) - np.asarray(centre)
    a = np.asarray(direction)
    half_b = float(a @ d)
    disc = half_b ** 2 - (float(d @ d) - radius ** 2)
    if disc <= 0.0:
        return []
    root = math.sqrt(disc)
    return [(s, np.asarray(base) + s * a) for s in (-half_b - root, -half_b + root)]


def gauss_1d(a: float, s: float, m: float) -> float:
    """Integral over R of exp(-u^2/a - (u-m)^2/s)."""
    return math.sqrt(math.pi / (1.0 / a + 1.0 / s)) * math.exp(-m * m / (a + s))


def line_gaussian_inner(base, direction, w: float, centre) -> float:
    """Integral over R of exp(-u^2/w) exp(-|base + u a - m|^2), |a| = 1.

    The inner product of a line state with a full-plane state over the line;
    both frame factors are 1 for a unit tangent.
    """
    d = np.asarray(base) - np.asarray(centre)
    k = 1.0 / w + 1.0
    ad = float(np.asarray(direction) @ d)
    return math.sqrt(math.pi / k) * math.exp(ad * ad / k - float(d @ d))


def affine_gaussian_pairing(scales, width: float, dist: float, alpha: float) -> float:
    """Unit-coefficient state on T = Q diag(scales) paired with exp(-|x - m|^2/width^2).

    m lies at distance ``dist`` from the core; |det [T | n]| = prod(scales)
    for orthonormal normals n, raised to the test's degree 1 - alpha.
    """
    lam = float(np.prod(scales))
    k = len(scales)
    return (math.pi ** (k / 2) * width ** k / lam * math.exp(-dist ** 2 / width ** 2)
            * lam ** (1.0 - alpha))


def tube_factor(eps: float, width: float, m: float = 0.0) -> float:
    """Integral of the unit Gaussian of width eps against exp(-(t-m)^2/width)."""
    return math.exp(-m * m / (width + 2.0 * eps * eps)) / math.sqrt(1.0 + 2.0 * eps * eps / width)


# curved-scenes -------------------------------------------------------------

def _curved_case(rng) -> Case:
    c = rng.uniform(-0.5, 0.5, 2)
    r = rng.uniform(0.8, 1.5)
    # the line passes within 0.6 r of the centre, so it crosses at sin >= 0.8
    rho, beta = rng.uniform(0.0, 0.6), rng.uniform(0.0, TWO_PI)
    theta = rng.uniform(0.0, math.pi)
    a = np.array([math.cos(theta), math.sin(theta)])
    b = c + rho * r * np.array([math.cos(beta), math.sin(beta)])
    w = rng.uniform(4.0, 8.0)                  # line coefficient exp(-u^2/w)
    # tilted chart line crossing L at line parameter s0, its own parameter v0
    phi = theta + rng.uniform(0.4, math.pi - 0.4)
    s0, v0 = rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0)
    t_d = np.array([math.cos(phi), math.sin(phi)])
    q = b + s0 * a
    d0 = q - v0 * t_d
    m_plane = rng.uniform(-0.5, 0.5, 2)         # full-plane Gaussian centre
    m_test = rng.uniform(-0.5, 0.5, 2)          # test density centre

    data = {
        "ambient": 2,
        "cores": [
            {"name": "C", "kind": "chart",
             "map": [f"{num(c[0])}+{num(r)}*cos(u1)", f"{num(c[1])}+{num(r)}*sin(u1)"],
             "domain": [[0.0, TWO_PI]],
             "implicit": [f"({shifted('x1', c[0])}^2+{shifted('x2', c[1])}^2-{num(r * r)})/2"]},
            {"name": "L", "kind": "affine", "base": [float(v) for v in b],
             "tangent": [[float(v) for v in a]]},
            {"name": "D", "kind": "chart",
             "map": [f"{num(d0[0])}+u1*{num(t_d[0])}", f"{num(d0[1])}+u1*{num(t_d[1])}"],
             "domain": [[-8.0, 8.0]],
             "implicit": [f"{shifted('x2', d0[1])}*{num(t_d[0])}-{shifted('x1', d0[0])}*{num(t_d[1])}"]},
            {"name": "P", "kind": "affine", "base": [0.0, 0.0],
             "tangent": [[1.0, 0.0], [0.0, 1.0]]},
        ],
        "states": [
            {"name": "sc", "core": "C", "degree": 0.5, "coeff": "1",
             "support": [[0.0, TWO_PI]]},
            {"name": "sl", "core": "L", "degree": 0.5, "coeff": f"exp(-u1^2/{num(w)})",
             "support": [[-8.0, 8.0]]},
            {"name": "sd", "core": "D", "degree": 0.5, "coeff": "1",
             "support": [[-8.0, 8.0]]},
            {"name": "sp", "core": "P", "degree": 0.5,
             "coeff": f"exp(-{shifted('u1', m_plane[0])}^2-{shifted('u2', m_plane[1])}^2)"},
        ],
        "tests": [
            {"name": "g", "degree": 0.5,
             "coeff": f"exp(-{shifted('x1', m_test[0])}^2-{shifted('x2', m_test[1])}^2)",
             "support": [[-8.0, 8.0], [-8.0, 8.0]]},
        ],
        "requests": [
            {"op": "check", "cores": ["L", "C"]},
            {"op": "check", "cores": ["L", "D"]},
            {"op": "pair", "state": "sc", "test": "g"},
            {"op": "inner", "state1": "sl", "state2": "sc"},
            {"op": "inner", "state1": "sl", "state2": "sd"},
            {"op": "inner", "state1": "sl", "state2": "sp", "intersection": "L",
             "support": [[-8.0, 8.0]]},
        ],
    }

    nu_l = np.array([-a[1], a[0]])
    crossings = line_circle_crossings(b, a, c, r)
    circle_inner = sum(
        crossing_value(math.exp(-s * s / w), 1.0, nu_l, a, x - c,
                       np.array([-(x - c)[1], (x - c)[0]]))
        for s, x in crossings)
    nu_d = np.array([-t_d[1], t_d[0]])
    chart_line_inner = crossing_value(math.exp(-s0 * s0 / w), 1.0, nu_l, a, nu_d, t_d)
    # |sin| of the angle between the line and the other core at each crossing
    sines = [abs(a @ (x - c)) / r for _, x in crossings] + [abs(math.sin(phi - theta))]
    refs = {
        "points": {"L,C": [x for _, x in crossings], "L,D": [q]},
        "transverse": min(sines) > 1e-6,
        "pair": {"sc,g": circle_gaussian_pairing(c, r, m_test)},
        "inner": {"sl,sc": circle_inner, "sl,sd": chart_line_inner,
                  "sl,sp": line_gaussian_inner(b, a, w, m_plane)},
    }
    ops = [("check", "scene.json"), ("pair", "scene.json"),
           ("inner", "scene.json"), ("inner", ARC_FILE)]
    return Case({"scene.json": data, ARC_FILE: arc_scene()}, ops, refs)


def arc_scene() -> dict:
    """Line y = x against an arc u in [-1, 2] carrying the full circle's implicit form.

    Only the crossing at u = pi/4 lies on the arc; its closed-form value is 1.
    """
    h = 1.0 / math.sqrt(2.0)
    return {
        "ambient": 2,
        "cores": [
            {"name": "A", "kind": "chart", "map": ["cos(u1)", "sin(u1)"],
             "domain": [[-1.0, 2.0]], "implicit": ["(x1^2+x2^2-1)/2"]},
            {"name": "M", "kind": "affine", "base": [0.0, 0.0], "tangent": [[h, h]]},
        ],
        "states": [
            {"name": "sa", "core": "A", "degree": 0.5, "coeff": "1",
             "support": [[-1.0, 2.0]]},
            {"name": "sm", "core": "M", "degree": 0.5, "coeff": "1",
             "support": [[-3.0, 3.0]]},
        ],
        "requests": [{"op": "inner", "state1": "sm", "state2": "sa"}],
    }


ARC_VALUE = 1.0


def _parse_points(text: str) -> list[np.ndarray]:
    return [np.array([float(v) for v in grp.split(",")])
            for grp in re.findall(r"\(([^()]*)\)", text)]


def _check_curved(case: Case, op: tuple[str, str], out: Outcome, errors: list) -> bool:
    """Returns True when the operation failed (it counts in ``failed``)."""
    command, fname = op
    if fname == ARC_FILE:
        if out.rc == 0:
            m = _values(out.stdout, _INNER).get("sm,sa")
            if m is None or not _close(complex(m.group(3)), ARC_VALUE, VALUE_RTOL):
                errors.append(f"arc inner succeeded with a wrong value: {out.stdout!r}")
                return True
            return False
        if out.rc != 3 or "away from" not in out.stderr:
            errors.append(f"arc inner failed unexpectedly (rc {out.rc}): {out.stderr[-500:]!r}")
        return True
    if out.rc != 0:
        errors.append(f"{command} exited {out.rc}: {out.stderr[-500:]!r}")
        return True
    if command == "check":
        found = _values(out.stdout, _CHECK)
        for key, want in case.refs["points"].items():
            m = found.get(key)
            got = [] if m is None else _parse_points(m.group(4))
            if len(got) != len(want):
                errors.append(f"check {key}: {len(got)} points, expected {len(want)}")
                continue
            for p in want:
                if min(np.max(np.abs(g - p)) for g in got) > POINT_ATOL * max(1.0, np.max(np.abs(p))):
                    errors.append(f"check {key}: no printed point near {p}")
        samples = [m for m in map(_SAMPLE.match, out.stdout.splitlines()) if m]
        expected = sum(len(v) for v in case.refs["points"].values())
        if len(samples) != expected:
            errors.append(f"check: {len(samples)} transversality samples, expected {expected}")
        want = "transverse" if case.refs["transverse"] else "NOT transverse"
        for m in samples:
            if m.group(4) != want:
                errors.append(f"check: sample ({m.group(1)}) is {m.group(4)}, expected {want}")
    elif command == "pair":
        _check_values(out.stdout, _PAIR, case.refs["pair"], "pair", errors)
    elif command == "inner":
        _check_values(out.stdout, _INNER, case.refs["inner"], "inner", errors)
        m = _values(out.stdout, _INNER).get("sl,sc")
        if m is not None and m.group(6) != "2":
            errors.append("inner sl,sc: expected 2 intersection points")
    return False


# affine-pairs --------------------------------------------------------------

AFFINE_BOX = 6.0


def _affine_case(rng) -> Case:
    cores, states, tests, requests = [], [], [], []
    refs = {}
    for k in (1, 2, 3):
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        lam = rng.uniform(0.9, 1.1, k)
        tangent = q[:, :k] * lam
        normal = q[:, k]
        base = rng.uniform(-0.5, 0.5, 4)
        u0 = rng.uniform(-0.3, 0.3, k)
        dist = rng.uniform(0.0, 0.5)
        centre = base + tangent @ u0 + dist * normal
        s = rng.uniform(0.55, 0.65)
        alpha = float(rng.choice([0.25, 0.5, 0.75]))
        cores.append({"name": f"A{k}", "kind": "affine", "base": [float(v) for v in base],
                      "tangent": [[float(v) for v in col] for col in tangent.T]})
        states.append({"name": f"s{k}", "core": f"A{k}", "degree": alpha, "coeff": "1",
                       "support": [[-AFFINE_BOX, AFFINE_BOX]] * k})
        quad = "+".join(f"{shifted(f'x{i + 1}', centre[i])}^2" for i in range(4))
        tests.append({"name": f"g{k}", "degree": 1.0 - alpha,
                      "coeff": f"exp(-({quad})/{num(s * s)})"})
        requests.append({"op": "pair", "state": f"s{k}", "test": f"g{k}"})
        refs[f"s{k},g{k}"] = affine_gaussian_pairing(lam, s, dist, alpha)
    data = {"ambient": 4, "cores": cores, "states": states, "tests": tests,
            "requests": requests}
    return Case({"scene.json": data}, [("pair", "scene.json")], {"pair": refs})


def _check_affine(case: Case, op, out: Outcome, errors: list) -> bool:
    if out.rc != 0:
        errors.append(f"pair exited {out.rc}: {out.stderr[-500:]!r}")
        return True
    _check_values(out.stdout, _PAIR, case.refs["pair"], "pair", errors)
    return False


# oracle-sweep --------------------------------------------------------------

def _half_widths(rng, n):
    # any half-width in [2.55, 2.95] keeps every x1 window 6 panels wide
    return [[-float(rng.uniform(2.55, 2.95)), float(rng.uniform(2.55, 2.95))]
            for _ in range(n)]


def _oracle_case(rng) -> Case:
    a1, a2 = rng.uniform(0.4, 0.5, 2)       # along the common line
    b1, b2 = rng.uniform(0.8, 1.2, 2)       # across the other tube: O(eps^2) error
    a3, b3 = rng.uniform(0.25, 0.35, 2)     # the plane state paired with the test
    s = rng.uniform(0.8, 1.2)
    m = np.concatenate([rng.uniform(-0.2, 0.2, 2), [rng.uniform(-0.3, 0.3) * math.sqrt(s)]])
    eps = list(EPS_LIST)
    data = {
        "ambient": 3,
        "cores": [
            {"name": "P1", "kind": "affine", "base": [0.0, 0.0, 0.0],
             "tangent": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
            {"name": "P2", "kind": "affine", "base": [0.0, 0.0, 0.0],
             "tangent": [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]},
            {"name": "L", "kind": "affine", "base": [0.0, 0.0, 0.0],
             "tangent": [[1.0, 0.0, 0.0]]},
        ],
        "states": [
            {"name": "psi1", "core": "P1", "degree": 0.5,
             "coeff": f"exp(-u1^2/{num(a1)}-u2^2/{num(b1)})",
             "support": _half_widths(rng, 1) + [[-8.0, 8.0]]},
            {"name": "psi2", "core": "P2", "degree": 0.5,
             "coeff": f"exp(-u1^2/{num(a2)}-u2^2/{num(b2)})",
             "support": _half_widths(rng, 1) + [[-8.0, 8.0]]},
            {"name": "psi3", "core": "P1", "degree": 0.5,
             "coeff": f"exp(-u1^2/{num(a3)}-u2^2/{num(b3)})",
             "support": _half_widths(rng, 2)},
        ],
        "tests": [
            {"name": "g", "degree": 0.5,
             "coeff": "exp(-(" + "+".join(f"{shifted(f'x{i + 1}', m[i])}^2" for i in range(3))
                      + f")/{num(s)})",
             "support": [[-8.0, 8.0]] * 3},
        ],
        "requests": [
            {"op": "oracle", "state1": "psi1", "state2": "psi2", "intersection": "L",
             "support": [[-4.0, 4.0]], "eps": eps},
            {"op": "oracle", "state": "psi3", "test": "g", "eps": eps},
        ],
    }
    inner = math.sqrt(math.pi / (1.0 / a1 + 1.0 / a2))
    pair_plane = gauss_1d(a3, s, m[0]) * gauss_1d(b3, s, m[1])
    refs = {
        "psi1*psi2": (inner, [inner * tube_factor(e, b1) * tube_factor(e, b2) for e in eps]),
        "psi3|g": (pair_plane * math.exp(-m[2] ** 2 / s),
                   [pair_plane * tube_factor(e, s, m[2]) for e in eps]),
    }
    return Case({"scene.json": data}, [("oracle", "scene.json")], {"oracle": refs})


def _parse_oracle(stdout: str) -> dict:
    reports, current = {}, None
    for line in stdout.splitlines():
        m = _ORACLE.match(line)
        if m:
            current = reports.setdefault(m.group(1), [complex(m.group(2)), []])
            continue
        m = _ORACLE_EPS.match(line)
        if m and current is not None:
            current[1].append((float(m.group(1)), complex(m.group(2))))
    return reports


def _check_oracle(case: Case, op, out: Outcome, errors: list) -> bool:
    if out.rc != 0:
        errors.append(f"oracle exited {out.rc}: {out.stderr[-500:]!r}")
        return True
    reports = _parse_oracle(out.stdout)
    for kind, (geometric, per_eps) in case.refs["oracle"].items():
        if kind not in reports:
            errors.append(f"oracle {kind}: no report printed")
            continue
        got_geo, got_eps = reports[kind]
        if not _close(got_geo, geometric, VALUE_RTOL):
            errors.append(f"oracle {kind}: geometric {got_geo}, closed form {geometric!r}")
        if [e for e, _ in got_eps] != list(EPS_LIST):
            errors.append(f"oracle {kind}: eps sweep {[e for e, _ in got_eps]}")
            continue
        errs = [abs(v - geometric) for _, v in got_eps]
        for (e, v), want in zip(got_eps, per_eps):
            if not _close(v, want, ORACLE_RTOL):
                errors.append(f"oracle {kind} eps {e}: got {v}, closed form {want!r}")
        if any(later >= earlier for earlier, later in zip(errs, errs[1:])):
            errors.append(f"oracle {kind}: error does not shrink with eps: {errs}")
        if errs[-1] > ORACLE_FINAL_RTOL * abs(geometric):
            errors.append(f"oracle {kind}: final relative error {errs[-1] / abs(geometric):.3g}")
    return False


@dataclass(frozen=True)
class Workload:
    name: str
    make_case: Callable[[np.random.Generator], Case]
    # (case, (command, file), outcome, errors) -> True if the operation failed
    check: Callable[[Case, tuple, Outcome, list], bool]
    cases: int           # distinct scenes generated per run, used in rotation


WORKLOADS = {
    "curved-scenes": Workload("curved-scenes", _curved_case, _check_curved, 8),
    "affine-pairs": Workload("affine-pairs", _affine_case, _check_affine, 4),
    "oracle-sweep": Workload("oracle-sweep", _oracle_case, _check_oracle, 3),
}


def make_cases(workload: Workload, seed: int) -> list[Case]:
    rng = np.random.default_rng([seed, sum(map(ord, workload.name))])
    return [workload.make_case(rng) for _ in range(workload.cases)]


def write_scenes(cases: list[Case], directory: Path) -> list[Path]:
    """Write every case into its own sub-directory; returns those directories."""
    dirs = []
    for i, case in enumerate(cases):
        d = directory / f"case{i}"
        d.mkdir(parents=True, exist_ok=True)
        for name, data in case.files.items():
            (d / name).write_text(scene_text(data))
        dirs.append(d)
    return dirs
