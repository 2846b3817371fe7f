"""Scene files: one JSON document describing cores, states, tests, requests.

A scene pins down everything a CLI run needs.  Loading parses each expression
field once, builds the geometry from the trees, checks each field where it
enters and validates every request (degree sums too, so a bad scene fails
before any quadrature runs).  ``Scene.source`` holds the canonical form:
expressions printed from those trees, degrees as [re, im] pairs, entries
sorted by name.  Dumping and reloading the normalized form is a fixed point.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Mapping

import numpy as np

from . import exprlang
from .density import AmbientDensity
from .errors import ConormalShapeMismatch, DegreeMismatch, GeodensError, SceneError
from .geometry import Submanifold
from .states import GeometricState, _check_degree_sum, make_state

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


def load_scene(path) -> Scene:
    try:
        data = json.loads(Path(path).read_text(), parse_constant=_non_finite)
    except (ValueError, RecursionError) as exc:  # bad encoding or JSON, NaN, Infinity, depth
        raise SceneError(f"invalid JSON in {path}: {exc}") from None
    return scene_from_dict(data)


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
    if key not in entry or entry[key] is None:
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


def _json(v, kind: type, what: str):
    if not isinstance(v, kind):  # a JSON object reads as a dict, an array as a list
        raise SceneError(f"{what} must be {'an object' if kind is dict else 'a list'}, got {v!r}")
    return v


def _numbers(v, what: str, rows: bool = False) -> list:
    """A list of finite numbers or, with ``rows``, a list of such lists of one length."""
    if not isinstance(v, list):
        kind = "lists of numbers" if rows else "numbers"
        raise SceneError(f"{what} must be a list of {kind}, got {v!r}")
    if not rows:
        return [_number(x, what) for x in v]
    out = [_numbers(r, f"{what} row") for r in v]
    if len({len(r) for r in out}) > 1:
        raise SceneError(f"{what} rows must have one length, got {v!r}")
    return out


def _expr(v, what: str) -> exprlang.Expr:
    """An expression field, parsed once: source text, or a finite number as its literal."""
    if isinstance(v, (int, float)):
        return exprlang.Num(_number(v, what))
    if not isinstance(v, str):
        raise SceneError(f"{what} must be an expression string, got {type(v).__name__}")
    return exprlang.parse(v)


def _exprs(v, what: str) -> list[exprlang.Expr] | None:
    if v is not None and not isinstance(v, list):
        raise SceneError(f"{what} must be a list of expressions, got {type(v).__name__}")
    return None if v is None else [_expr(e, what) for e in v]


def _sources(trees) -> list[str] | None:
    return None if trees is None else [exprlang.to_source(e) for e in trees]


def _given(**fields) -> dict:
    """The optional normalized fields that the scene gave."""
    return {k: v for k, v in fields.items() if v is not None}


def _ref(table: Mapping, name, kind: str, where: str) -> str:
    name = str(name)
    if name not in table:
        raise SceneError(f"{where} references unknown {kind} {name!r}")
    return name


def _degree_in(v) -> complex:
    real, imag = v if isinstance(v, (list, tuple)) and len(v) == 2 else (v, 0.0)
    what = "degree (a number or [re, im])"
    return complex(_number(real, what), _number(imag, what))


def _degree_out(c: complex) -> list[float]:
    return [float(c.real), float(c.imag)]


def _box(v, what: str, rows: int | None = None) -> list[list[float]] | None:
    """[lo, hi] rows of finite numbers, ``rows`` of them if given; a bare [lo, hi] is one."""
    if v is None:
        return None
    b = np.asarray(v, dtype=object)
    b = b.reshape(1, -1) if b.ndim < 2 else b
    want = len(b) if rows is None else rows
    if b.shape != (want, 2):
        raise SceneError(f"{what} must have {want} [lo, hi] row(s), got {v!r}")
    box = [[_number(lo, what), _number(hi, what)] for lo, hi in b]
    if any(lo > hi for lo, hi in box):
        raise SceneError(f"{what} has lo > hi")
    return box


def _build(data: dict, overrides: dict[str, float]) -> Scene:
    ambient = _integer(_need(data, "ambient", "scene"), "scene ambient")
    given = _json(data.get("params") or {}, dict, "scene params")
    params = {str(k): _number(v, f"param {k!r}") for k, v in {**given, **overrides}.items()}
    norm = {"ambient": ambient, "params": {k: params[k] for k in sorted(params)}}
    cores, norm["cores"] = _section(data, "cores", "core", partial(_core, ambient, params))
    states, norm["states"] = _section(data, "states", "state", partial(_state, cores))
    tests, norm["tests"] = _section(data, "tests", "test density",
                                    partial(_test, ambient, params))
    entries = _json(data.get("requests") or [], list, "scene requests")
    norm["requests"] = requests = [_norm_request(entry, i, cores, states, tests, params)
                                   for i, entry in enumerate(entries)]
    return Scene(ambient, params, cores, states, tests, requests, norm)


def _section(data: dict, key: str, kind: str, build) -> tuple[dict, list[dict]]:
    """Each entry of ``data[key]`` by its unique name: ``build(name, entry)`` gives the
    object and its normalized fields, and the normalized entries come sorted by name."""
    built, norm = {}, []
    for entry in _json(data.get(key) or [], list, f"scene {key}"):
        name = str(_need(_json(entry, dict, f"an entry of scene {key}"), "name", kind))
        if name in built:
            raise SceneError(f"duplicate {kind} name {name!r}")
        built[name], fields = build(name, entry)
        norm.append({"name": name, **fields})
    return built, sorted(norm, key=lambda e: e["name"])


def _core(ambient: int, params, name: str, entry: dict) -> tuple[Submanifold, dict]:
    where = f"core {name!r}"
    kind = str(_need(entry, "kind", where))
    implicit = _exprs(entry.get("implicit"), f"{where} implicit")

    def components(key: str, v: list) -> list:  # one per ambient coordinate, before building
        if len(v) != ambient:
            raise SceneError(f"{where} {key} needs {ambient} components for R^{ambient}, "
                             f"got {len(v)}")
        return v

    if kind == "affine":
        base = components("base", _numbers(_need(entry, "base", where), f"{where} base"))
        tangent = _numbers(entry.get("tangent") or [], f"{where} tangent", rows=True)
        if tangent:
            components("tangent row", tangent[0])
        core = Submanifold.affine(name, base, np.array(tangent, dtype=float).T
                                  if tangent else np.zeros((len(base), 0)),
                                  implicit=implicit, params=params)
        fields = {"base": base, "tangent": tangent}
    elif kind == "point":
        location = components("location", _numbers(_need(entry, "location", where),
                                                   f"{where} location"))
        core, fields = Submanifold.point(name, location), {"location": location}
    elif kind == "chart":
        comp = components("map", _exprs(_need(entry, "map", where), f"{where} map"))
        domain = _box(_need(entry, "domain", where), f"{where} domain")
        core = Submanifold.chart(name, comp, domain, implicit=implicit, params=params)
        fields = {"map": _sources(comp), "domain": domain}
    else:
        raise SceneError(f"{where} has unknown kind {kind!r}")
    return core, {"kind": kind, **fields, **_given(implicit=_sources(implicit))}


def _state(cores, name: str, entry: dict) -> tuple[GeometricState, dict]:
    where = f"state {name!r}"
    core = _ref(cores, _need(entry, "core", where), "core", where)
    degree = _degree_in(_need(entry, "degree", where))
    coeff = _expr(_need(entry, "coeff", where), f"{where} coeff")
    support = _box(entry.get("support"), f"{where} support", cores[core].dim)
    conormal = entry.get("conormal")
    if conormal is not None:
        conormal = _numbers(conormal, f"{where} conormal", rows=True)
    try:
        state = make_state(cores[core], degree, coeff, conormal=conormal, support=support)
    except ConormalShapeMismatch as exc:
        raise SceneError(f"{where} {exc}") from exc
    return state, {"core": core, "degree": _degree_out(degree),
                   "coeff": exprlang.to_source(coeff),
                   **_given(support=support, conormal=conormal)}


def _test(ambient: int, params, name: str, entry: dict) -> tuple[AmbientDensity, dict]:
    where = f"test {name!r}"
    degree = _degree_in(_need(entry, "degree", where))
    coeff = _expr(_need(entry, "coeff", where), f"{where} coeff")
    support = _box(entry.get("support"), f"{where} support", ambient)
    resolution = entry.get("resolution")
    if resolution is not None and not _number(resolution, "resolution") > 0.0:
        raise SceneError(f"{where} needs a positive resolution")
    resolution = None if resolution is None else float(resolution)
    test = AmbientDensity.make(degree, coeff, support=support,
                               resolution_hint=resolution, params=params)
    return test, {"degree": _degree_out(degree), "coeff": exprlang.to_source(coeff),
                  **_given(support=support, resolution=resolution)}


def _norm_request(entry: dict, index: int, cores, states, tests, params) -> dict:
    where = f"request #{index}"
    op = str(_need(_json(entry, dict, where), "op", where))
    if op not in REQUEST_OPS:
        raise SceneError(f"{where} has unknown op {op!r}")
    out: dict = {"op": op}

    def ref(key, table, kind):
        return _ref(table, _need(entry, key, where), kind, where)

    if op == "check":
        out["cores"] = [_ref(cores, n, "core", where)
                        for n in _json(_need(entry, "cores", where), list, f"{where} cores")]
        if len(out["cores"]) != 2:
            raise SceneError(f"{where} needs exactly two core names")
        if entry.get("samples") is not None:
            out["samples"] = _numbers(entry["samples"], f"{where} samples", rows=True)
            n = cores[out["cores"][0]].ambient.dim
            if any(len(p) != n for p in out["samples"]):
                raise SceneError(f"{where} has a sample that is not a point of R^{n}")
    elif op == "pair" or (op == "oracle" and "test" in entry):
        out["state"] = ref("state", states, "state")
        out["test"] = ref("test", tests, "test density")
        _check_degree_sum(states[out["state"]].degree, tests[out["test"]].degree, where)
    elif op in ("product", "inner", "oracle"):
        out["state1"] = ref("state1", states, "state")
        out["state2"] = ref("state2", states, "state")
        if entry.get("intersection") is not None:
            out["intersection"] = ref("intersection", cores, "core")
        if entry.get("support") is not None:
            # a chart box on the intersection, whose dimension transversality fixes
            c, d = states[out["state1"]].core, states[out["state2"]].core
            out["support"] = _box(entry["support"], f"{where} support on the intersection",
                                  c.dim + d.dim - c.ambient.dim)
        if op != "product":
            _check_degree_sum(states[out["state1"]].degree,
                              states[out["state2"]].degree, where)
        elif entry.get("grid") is not None:
            out["grid"] = _integer(entry["grid"], f"{where} grid")
            if out["grid"] < 1:
                raise SceneError(f"{where} needs grid >= 1")
    else:  # sweep
        out["param"] = ref("param", params, "parameter")
        if entry.get("values") is not None:
            out["values"] = _numbers(entry["values"], f"{where} value")
        else:
            start = _number(_need(entry, "start", where), f"{where} start")
            stop = _number(_need(entry, "stop", where), f"{where} stop")
            count = _integer(_need(entry, "count", where), f"{where} count")
            if count < 2:
                raise SceneError(f"{where} needs count >= 2")
            out["values"] = [float(v) for v in np.linspace(start, stop, count)]
        inner_req = _json(_need(entry, "request", where), dict, f"{where} request")
        if inner_req.get("op") not in ("pair", "inner"):
            raise SceneError(f"{where} can only sweep scalar-result requests (pair, inner)")
        out["request"] = _norm_request(inner_req, index, cores, states, tests, params)
    if op == "oracle" and entry.get("eps") is not None:
        out["eps"] = _numbers(entry["eps"], f"{where} eps")
    return out
