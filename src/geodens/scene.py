"""Scene files: one JSON document describing cores, states, tests, requests.

A scene pins down everything a CLI run needs.  Loading builds the geometry
and validates every request (including degree compatibility, so a bad scene
fails before any quadrature runs).  ``Scene.source`` holds the canonical
form: expressions reprinted from their parse trees, degrees as [re, im]
pairs, cores/states/tests sorted by name.  Dumping and reloading the
normalized form is a fixed point.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from . import exprlang
from .density import AmbientDensity
from .errors import DegreeMismatch, GeodensError, SceneError
from .geometry import Submanifold
from .quadrature import as_box
from .states import GeometricState, make_state

REQUEST_OPS = ("check", "pair", "product", "inner", "oracle", "sweep")


@dataclass(frozen=True, eq=False)
class Scene:
    ambient: int
    params: dict[str, float]
    cores: dict[str, Submanifold]
    states: dict[str, GeometricState]
    tests: dict[str, AmbientDensity]
    requests: list[dict]
    source: dict  # normalized form

    def dump(self) -> str:
        return json.dumps(self.source, sort_keys=True, indent=2) + "\n"

    def rebuild(self, param_overrides: Mapping[str, float]) -> "Scene":
        return scene_from_dict(self.source, param_overrides)


def load_scene(path, param_overrides: Mapping[str, float] | None = None) -> Scene:
    try:
        data = json.loads(Path(path).read_text(), parse_constant=_non_finite)
    except ValueError as exc:  # bad encoding, bad JSON, NaN or Infinity
        raise SceneError(f"invalid JSON in {path}: {exc}") from None
    return scene_from_dict(data, param_overrides)


def _non_finite(name: str):
    raise ValueError(f"{name} is not a finite number")


def scene_from_dict(data: dict,
                    param_overrides: Mapping[str, float] | None = None) -> Scene:
    if not isinstance(data, dict):
        raise SceneError("scene must be a JSON object")
    try:
        return _build(data, dict(param_overrides or {}))
    except (SceneError, DegreeMismatch):
        raise
    except GeodensError as exc:
        raise SceneError(f"scene is inconsistent: {exc}") from exc
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SceneError(f"malformed scene: {exc}") from exc


def _need(entry: dict, key: str, where: str):
    if key not in entry:
        raise SceneError(f"{where} is missing required field {key!r}")
    return entry[key]


def _number(v, what: str) -> float:
    # float() alone would take true, "3", "nan" and "inf"; json reads 1e999 as inf
    if isinstance(v, bool) or not isinstance(v, (int, float)) or \
            not abs(v) <= np.finfo(float).max:
        raise SceneError(f"{what} must be a finite number, got {v!r}")
    return float(v)


def _integer(v, what: str) -> int:
    # 3 and 3.0 count, true and 2.7 do not: int() would truncate them silently
    if not _number(v, what).is_integer():
        raise SceneError(f"{what} must be an integer, got {v!r}")
    return int(v)


def _norm_expr(src) -> str:
    if isinstance(src, (int, float)):
        src = repr(_number(src, "numeric expression"))
    if not isinstance(src, str):
        raise SceneError(f"expected an expression string, got {type(src).__name__}")
    return exprlang.to_source(exprlang.parse(src))


def _degree_in(v) -> complex:
    real, imag = v if isinstance(v, (list, tuple)) and len(v) == 2 else (v, 0.0)
    what = "degree (a number or [re, im])"
    return complex(_number(real, what), _number(imag, what))


def _degree_out(c: complex) -> list[float]:
    return [float(c.real), float(c.imag)]


def _box_out(b) -> list[list[float]] | None:
    if b is None:
        return None
    rows = np.asarray(b, dtype=object)
    if rows.ndim == 1:
        rows = rows[None, :]
    return [[_number(lo, "box bound"), _number(hi, "box bound")] for lo, hi in rows]


def _build(data: dict, overrides: dict[str, float]) -> Scene:
    ambient = _integer(_need(data, "ambient", "scene"), "scene ambient")
    params = {str(k): _number(v, f"param {k!r}")
              for k, v in {**(data.get("params") or {}), **overrides}.items()}

    norm: dict = {"ambient": ambient,
                  "params": {k: params[k] for k in sorted(params)}}

    cores: dict[str, Submanifold] = {}
    norm_cores = []
    for entry in data.get("cores") or []:
        name = str(_need(entry, "name", "core"))
        if name in cores:
            raise SceneError(f"duplicate core name {name!r}")
        kind = str(_need(entry, "kind", f"core {name!r}"))
        implicit = entry.get("implicit")
        ncore: dict = {"name": name, "kind": kind}
        if kind == "affine":
            base = [_number(v, "core base")
                    for v in _need(entry, "base", f"core {name!r}")]
            tangent = [[_number(v, "core tangent") for v in row]
                       for row in entry.get("tangent") or []]
            core = Submanifold.affine(name, base, np.array(tangent, dtype=float).T
                                      if tangent else np.zeros((len(base), 0)),
                                      implicit=implicit, params=params)
            ncore.update(base=base, tangent=tangent)
        elif kind == "point":
            location = [_number(v, "core location")
                        for v in _need(entry, "location", f"core {name!r}")]
            core = Submanifold.point(name, location)
            ncore.update(location=location)
        elif kind == "chart":
            comp = [_norm_expr(e) for e in _need(entry, "map", f"core {name!r}")]
            domain = _box_out(_need(entry, "domain", f"core {name!r}"))
            core = Submanifold.chart(name, comp, domain, implicit=implicit,
                                     params=params)
            ncore.update(map=comp, domain=domain)
        else:
            raise SceneError(f"core {name!r} has unknown kind {kind!r}")
        if implicit is not None:
            ncore["implicit"] = [_norm_expr(e) for e in implicit]
        if core.ambient.dim != ambient:
            raise SceneError(f"core {name!r} lives in R^{core.ambient.dim}, "
                             f"scene is R^{ambient}")
        cores[name] = core
        norm_cores.append(ncore)
    norm["cores"] = sorted(norm_cores, key=lambda c: c["name"])

    states: dict[str, GeometricState] = {}
    norm_states = []
    for entry in data.get("states") or []:
        name = str(_need(entry, "name", "state"))
        if name in states:
            raise SceneError(f"duplicate state name {name!r}")
        core_name = str(_need(entry, "core", f"state {name!r}"))
        if core_name not in cores:
            raise SceneError(f"state {name!r} references unknown core {core_name!r}")
        degree = _degree_in(_need(entry, "degree", f"state {name!r}"))
        coeff = _norm_expr(_need(entry, "coeff", f"state {name!r}"))
        support = _box_out(entry.get("support"))
        conormal = entry.get("conormal")
        if conormal is not None:
            conormal = [[_number(v, "conormal") for v in row] for row in conormal]
        states[name] = make_state(cores[core_name], degree, coeff,
                                  conormal=conormal, support=support)
        nstate = {"name": name, "core": core_name, "degree": _degree_out(degree),
                  "coeff": coeff}
        if support is not None:
            nstate["support"] = support
        if conormal is not None:
            nstate["conormal"] = conormal
        norm_states.append(nstate)
    norm["states"] = sorted(norm_states, key=lambda s: s["name"])

    tests: dict[str, AmbientDensity] = {}
    norm_tests = []
    for entry in data.get("tests") or []:
        name = str(_need(entry, "name", "test density"))
        if name in tests:
            raise SceneError(f"duplicate test density name {name!r}")
        degree = _degree_in(_need(entry, "degree", f"test {name!r}"))
        coeff = _norm_expr(_need(entry, "coeff", f"test {name!r}"))
        support = _box_out(entry.get("support"))
        resolution = entry.get("resolution")
        if resolution is not None and not _number(resolution, "resolution") > 0.0:
            raise SceneError(f"test {name!r} needs a positive resolution")
        tests[name] = AmbientDensity.make(
            degree, coeff, support=support,
            resolution_hint=None if resolution is None else float(resolution),
            params=params)
        ntest = {"name": name, "degree": _degree_out(degree), "coeff": coeff}
        if support is not None:
            ntest["support"] = support
        if resolution is not None:
            ntest["resolution"] = float(resolution)
        norm_tests.append(ntest)
    norm["tests"] = sorted(norm_tests, key=lambda t: t["name"])

    requests = []
    for i, entry in enumerate(data.get("requests") or []):
        requests.append(_norm_request(entry, i, cores, states, tests, params))
    norm["requests"] = requests

    return Scene(ambient, params, cores, states, tests, requests, norm)


def _norm_request(entry: dict, index: int, cores, states, tests, params) -> dict:
    where = f"request #{index}"
    op = str(_need(entry, "op", where))
    if op not in REQUEST_OPS:
        raise SceneError(f"{where} has unknown op {op!r}")
    out: dict = {"op": op}

    def core_ref(key):
        name = str(_need(entry, key, where))
        if name not in cores:
            raise SceneError(f"{where} references unknown core {name!r}")
        return name

    def state_ref(key):
        name = str(_need(entry, key, where))
        if name not in states:
            raise SceneError(f"{where} references unknown state {name!r}")
        return name

    def support_box():
        # a chart box on the intersection, whose dimension transversality fixes
        box = as_box(_box_out(entry["support"]))
        c, d = states[out["state1"]].core, states[out["state2"]].core
        dim = c.dim + d.dim - c.ambient.dim
        if box.shape[0] != dim:
            raise SceneError(f"{where} support box has {box.shape[0]} axes, "
                             f"the intersection has dimension {dim}")
        return _box_out(box)

    if op == "check":
        out["cores"] = [str(n) for n in _need(entry, "cores", where)]
        if len(out["cores"]) != 2:
            raise SceneError(f"{where} needs exactly two core names")
        for name in out["cores"]:
            if name not in cores:
                raise SceneError(f"{where} references unknown core {name!r}")
        if entry.get("samples") is not None:
            out["samples"] = [[_number(v, "sample") for v in p] for p in entry["samples"]]
            n = cores[out["cores"][0]].ambient.dim
            if any(len(p) != n for p in out["samples"]):
                raise SceneError(f"{where} has a sample that is not a point of R^{n}")
    elif op == "pair":
        out["state"] = state_ref("state")
        name = str(_need(entry, "test", where))
        if name not in tests:
            raise SceneError(f"{where} references unknown test density {name!r}")
        out["test"] = name
        _check_degree_sum(states[out["state"]].degree, tests[name].degree, where)
    elif op in ("product", "inner"):
        out["state1"] = state_ref("state1")
        out["state2"] = state_ref("state2")
        if entry.get("intersection") is not None:
            out["intersection"] = core_ref("intersection")
        if entry.get("support") is not None:
            out["support"] = support_box()
        if op == "inner":
            _check_degree_sum(states[out["state1"]].degree,
                              states[out["state2"]].degree, where)
        if op == "product" and entry.get("grid") is not None:
            out["grid"] = _integer(entry["grid"], f"{where} grid")
            if out["grid"] < 1:
                raise SceneError(f"{where} needs grid >= 1")
    elif op == "oracle":
        if "test" in entry:
            out["state"] = state_ref("state")
            name = str(_need(entry, "test", where))
            if name not in tests:
                raise SceneError(f"{where} references unknown test density {name!r}")
            out["test"] = name
            _check_degree_sum(states[out["state"]].degree, tests[name].degree, where)
        else:
            out["state1"] = state_ref("state1")
            out["state2"] = state_ref("state2")
            if entry.get("intersection") is not None:
                out["intersection"] = core_ref("intersection")
            if entry.get("support") is not None:
                out["support"] = support_box()
            _check_degree_sum(states[out["state1"]].degree,
                              states[out["state2"]].degree, where)
        if entry.get("eps") is not None:
            out["eps"] = [_number(e, f"{where} eps") for e in entry["eps"]]
    else:  # sweep
        out["param"] = str(_need(entry, "param", where))
        if out["param"] not in params:
            raise SceneError(f"{where} sweeps unknown parameter {out['param']!r}")
        if entry.get("values") is not None:
            out["values"] = [_number(v, f"{where} value") for v in entry["values"]]
        else:
            start = _number(_need(entry, "start", where), f"{where} start")
            stop = _number(_need(entry, "stop", where), f"{where} stop")
            count = _integer(_need(entry, "count", where), f"{where} count")
            if count < 2:
                raise SceneError(f"{where} needs count >= 2")
            out["values"] = [float(v) for v in np.linspace(start, stop, count)]
        inner_req = _need(entry, "request", where)
        inner_op = inner_req.get("op")
        if inner_op not in ("pair", "inner"):
            raise SceneError(
                f"{where} can only sweep scalar-result requests (pair, inner)")
        out["request"] = _norm_request(inner_req, index, cores, states, tests, params)
    return out


def _check_degree_sum(a: complex, b: complex, where: str):
    if abs(a + b - 1.0) > 1e-12:
        raise DegreeMismatch(
            f"{where}: degrees must sum to 1, got {a} and {b}")
