"""Scene files and the command line front end.

The CLI happy paths and negative controls run ``python -m geodens`` as a
subprocess, so the documented exit codes are checked end to end.  The
exit-code tests call ``cli.main`` in-process, so a runner can be replaced.
"""
import copy
import csv
import ctypes
import functools
import gc
import json
import math
import operator
import os
import random
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from geodens import cli, errors, exprlang
from geodens.errors import DegreeMismatch, SceneError
from geodens.product import inner_product
from geodens.scene import load_scene, scene_from_dict

SCENES = Path(__file__).resolve().parent.parent / "scenes"
LOADABLE = ["axes_r2.json", "circle_xaxis.json", "parabola_nontransverse.json",
            "planes_r3.json", "tilted_lines.json"]

VALUE_RE = re.compile(r"value ([0-9eE+.-]+)")


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "geodens", *map(str, argv)],
                          capture_output=True, text=True, timeout=600)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# scene loading and normalization


@pytest.mark.parametrize("name", LOADABLE)
def test_shipped_scene_loads(name):
    scene = load_scene(SCENES / name)
    assert scene.requests
    assert all(core.ambient.dim == scene.ambient for core in scene.cores.values())


def test_degree_mismatch_scene_fails_at_load():
    with pytest.raises(DegreeMismatch):
        load_scene(SCENES / "degree_mismatch.json")


@pytest.mark.parametrize("name", LOADABLE)
def test_dump_is_a_fixed_point(name):
    first = load_scene(SCENES / name).dump()
    second = scene_from_dict(json.loads(first)).dump()
    assert second == first


def expression_fields(data):
    return ([e for c in data["cores"] for e in c.get("map", []) + c.get("implicit", [])]
            + [e["coeff"] for e in data.get("states", []) + data.get("tests", [])])


@pytest.mark.parametrize("path", sorted(SCENES.glob("*.json")), ids=lambda p: p.name)
def test_each_expression_field_parses_once(path, monkeypatch):
    parsed = []
    parse = exprlang.parse
    monkeypatch.setattr(exprlang, "parse", lambda src: parsed.append(src) or parse(src))
    try:
        load_scene(path)
    except DegreeMismatch:  # raised by the requests, after every field is read
        pass
    assert sorted(parsed) == sorted(expression_fields(json.loads(path.read_text())))


def test_normalized_form_details():
    norm = load_scene(SCENES / "tilted_lines.json").source
    names = [c["name"] for c in norm["cores"]]
    assert names == sorted(names)
    psi1 = next(s for s in norm["states"] if s["name"] == "psi1")
    assert psi1["degree"] == [0.5, 0.0]
    gauss = next(t for t in norm["tests"] if t["name"] == "gauss")
    # expressions are reprinted from their parse trees
    assert gauss["coeff"] == "exp(-x1^2 - x2^2)"
    sweep = next(r for r in norm["requests"] if r["op"] == "sweep")
    assert len(sweep["values"]) == 10


def test_rebuild_applies_overrides():
    scene = load_scene(SCENES / "tilted_lines.json")
    third = scene.rebuild({"phi": np.pi / 3})
    got = inner_product(third.states["psi1"], third.states["psi2"],
                        third.cores["E"])
    assert abs(got.value - 2.0 / math.sqrt(3.0)) <= 1e-12
    # the original scene is untouched
    base = inner_product(scene.states["psi1"], scene.states["psi2"],
                         scene.cores["E"])
    assert abs(base.value - 2.0) <= 1e-12


# malformed scenes


def minimal_scene():
    return {
        "ambient": 2,
        "cores": [
            {"name": "X", "kind": "affine", "base": [0, 0], "tangent": [[1, 0]]},
            {"name": "E", "kind": "point", "location": [0, 0]},
        ],
        "states": [
            {"name": "s", "core": "X", "degree": 0.5, "coeff": "1",
             "support": [[-1, 1]]},
        ],
        "tests": [
            {"name": "t", "degree": 0.5, "coeff": "1",
             "support": [[-1, 1], [-1, 1]]},
        ],
        "requests": [
            {"op": "pair", "state": "s", "test": "t"},
        ],
    }


def drop_ambient(d):
    del d["ambient"]


def unknown_kind(d):
    d["cores"][0]["kind"] = "sphere"


def duplicate_core(d):
    d["cores"].append(dict(d["cores"][0]))


def missing_core_field(d):
    del d["cores"][0]["base"]


def state_unknown_core(d):
    d["states"][0]["core"] = "nope"


def bad_degree(d):
    d["states"][0]["degree"] = "big"


def bad_expression(d):
    d["states"][0]["coeff"] = "1 +"


def unknown_op(d):
    d["requests"][0] = {"op": "frobnicate"}


def pair_unknown_test(d):
    d["requests"][0]["test"] = "nope"


def check_one_core(d):
    d["requests"][0] = {"op": "check", "cores": ["X"]}


def sweep_unknown_param(d):
    d["requests"][0] = {"op": "sweep", "param": "phi", "values": [1.0, 2.0],
                        "request": {"op": "pair", "state": "s", "test": "t"}}


def sweep_short_range(d):
    d["params"] = {"a": 1.0}
    d["requests"][0] = {"op": "sweep", "param": "a", "start": 0.0, "stop": 1.0,
                        "count": 1,
                        "request": {"op": "pair", "state": "s", "test": "t"}}


def sweep_non_scalar(d):
    d["params"] = {"a": 1.0}
    d["requests"][0] = {"op": "sweep", "param": "a", "values": [1.0, 2.0],
                        "request": {"op": "check", "cores": ["X", "E"]}}


def reversed_request_support(d):
    d["requests"][0] = {"op": "inner", "state1": "s", "state2": "s",
                        "support": [[8, -8]]}


def support_rows_off_dimension(d):
    d["requests"][0] = {"op": "inner", "state1": "s", "state2": "s",
                        "intersection": "E", "support": [[-1, 1]]}


def check_sample_outside_ambient(d):
    d["requests"][0] = {"op": "check", "cores": ["X", "E"],
                        "samples": [[0, 0, 0]]}


def product_grid_zero(d):
    d["requests"][0] = {"op": "product", "state1": "s", "state2": "s",
                        "intersection": "E", "grid": 0}


def negative_resolution(d):
    d["tests"][0]["resolution"] = -0.1


def ambient_fractional(d):
    d["ambient"] = 2.7


def ambient_bool(d):
    d["ambient"] = True


def ambient_infinite(d):
    # json reads 1e999 as inf, which int() cannot convert
    d["ambient"] = math.inf


def product_grid_fractional(d):
    d["requests"][0] = {"op": "product", "state1": "s", "state2": "s",
                        "intersection": "E", "grid": 2.5}


def product_grid_bool(d):
    d["requests"][0] = {"op": "product", "state1": "s", "state2": "s",
                        "intersection": "E", "grid": True}


def sweep_count_fractional(d):
    d["params"] = {"a": 1.0}
    d["requests"][0] = {"op": "sweep", "param": "a", "start": 0.0, "stop": 1.0,
                        "count": 2.5,
                        "request": {"op": "pair", "state": "s", "test": "t"}}


def sweep_count_bool(d):
    d["params"] = {"a": 1.0}
    d["requests"][0] = {"op": "sweep", "param": "a", "start": 0.0, "stop": 1.0,
                        "count": True,
                        "request": {"op": "pair", "state": "s", "test": "t"}}


def product_grid_past_the_sample_bound(d):
    d["requests"][0] = {"op": "product", "state1": "s", "state2": "s",
                        "intersection": "E", "grid": 1e300}


def sweep_count_past_the_sample_bound(d):
    d["params"] = {"a": 1.0}
    d["requests"][0] = {"op": "sweep", "param": "a", "start": 0.0, "stop": 1.0,
                        "count": 1e12,
                        "request": {"op": "pair", "state": "s", "test": "t"}}


def ambient_mismatch(d):
    d["cores"][0] = {"name": "X", "kind": "affine", "base": [0, 0, 0],
                     "tangent": [[1, 0, 0]]}


# float() takes these strings and true, and json reads 1e999 as inf; none of
# them is a finite number
NOT_NUMBERS = {"nan_string": "nan", "inf_string": "inf", "json_1e999": math.inf,
               "numeric_string": "3", "true": True}


def in_params(d, v):
    d["params"] = {"a": v}


def in_core_base(d, v):
    d["cores"][0]["base"] = [v, 0]


def in_degree(d, v):
    d["states"][0]["degree"] = [0.5, v]


def in_support_box(d, v):
    d["states"][0]["support"] = [[-1, v]]


def in_eps_list(d, v):
    d["requests"].append({"op": "oracle", "state": "s", "test": "t",
                          "eps": [0.1, v]})


def _put_not_number(place, label):
    def mutate(d):
        place(d, NOT_NUMBERS[label])
    mutate.__name__ = f"{place.__name__}_{label}"
    return mutate


NOT_NUMBER_PLACES = (in_params, in_core_base, in_degree, in_support_box, in_eps_list)
NOT_NUMBER_MUTATIONS = [_put_not_number(place, label)
                        for place in NOT_NUMBER_PLACES for label in NOT_NUMBERS]


@pytest.mark.parametrize("mutate", [
    drop_ambient, unknown_kind, duplicate_core, missing_core_field,
    state_unknown_core, bad_degree, bad_expression, unknown_op,
    pair_unknown_test, check_one_core, sweep_unknown_param,
    sweep_short_range, sweep_non_scalar, ambient_mismatch,
    reversed_request_support, support_rows_off_dimension,
    check_sample_outside_ambient, product_grid_zero, negative_resolution,
    ambient_fractional, ambient_bool, ambient_infinite, product_grid_fractional,
    product_grid_bool, product_grid_past_the_sample_bound, sweep_count_past_the_sample_bound,
    sweep_count_fractional, sweep_count_bool, *NOT_NUMBER_MUTATIONS,
], ids=lambda f: f.__name__)
def test_malformed_scene_raises(mutate):
    data = minimal_scene()
    mutate(data)
    with pytest.raises(SceneError):
        scene_from_dict(data)


def test_integral_floats_are_integers():
    data = minimal_scene()
    data["ambient"] = 2.0
    data["params"] = {"a": 1.0}
    data["requests"] = [
        {"op": "product", "state1": "s", "state2": "s", "intersection": "E",
         "grid": 3.0},
        {"op": "sweep", "param": "a", "start": 0.0, "stop": 1.0, "count": 3.0,
         "request": {"op": "pair", "state": "s", "test": "t"}},
    ]
    scene = scene_from_dict(data)
    assert scene.ambient == 2 and type(scene.source["ambient"]) is int
    assert scene.requests[0]["grid"] == 3
    assert scene.requests[1]["values"] == [0.0, 0.5, 1.0]


def test_scene_must_be_an_object():
    with pytest.raises(SceneError):
        scene_from_dict([1, 2, 3])


def test_pair_degree_sum_checked_at_build():
    data = minimal_scene()
    data["tests"][0]["degree"] = 0.7
    with pytest.raises(DegreeMismatch):
        scene_from_dict(data)


# CLI happy paths


def test_cli_check_tilted_lines():
    proc = run_cli("check", SCENES / "tilted_lines.json")
    assert proc.returncode == 0, proc.stderr
    assert "transverse" in proc.stdout
    assert "frame probes" in proc.stdout


@pytest.mark.parametrize("s", [1e-10, 1.0, 1e10])
def test_cli_check_does_not_depend_on_tangent_length(s, tmp_path):
    # C along (s, s) and D at 60 degrees cross at 15 degrees for every s
    data = json.loads((SCENES / "tilted_lines.json").read_text())
    data["params"]["phi"] = math.pi / 3
    data["cores"][0]["tangent"] = [[s, s]]
    path = tmp_path / "long_tangent.json"
    path.write_text(json.dumps(data))
    proc = run_cli("check", path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "rank 2/2, transverse" in proc.stdout


def test_cli_check_uses_the_samples_when_the_intersection_needs_a_chart(tmp_path, capsys):
    # a cylinder meets the plane x3 = 0 in a curve, which intersect leaves to the user
    scene = {
        "ambient": 3,
        "cores": [
            {"name": "Z", "kind": "chart", "map": ["cos(u1)", "sin(u1)", "u2"],
             "domain": [[0, 6.283185307179586], [-1, 1]]},
            {"name": "P", "kind": "affine", "base": [0, 0, 0],
             "tangent": [[1, 0, 0], [0, 1, 0]]},
        ],
        "requests": [{"op": "check", "cores": ["Z", "P"], "samples": [[0, 1, 0]]}],
    }
    path = tmp_path / "cylinder.json"
    path.write_text(json.dumps(scene))
    assert cli.main(["check", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["check Z,P: intersection not computed, using the request's samples",
                       "  at (0, 1, 0): rank 3/3, transverse"]


def test_cli_inner_csv(tmp_path):
    out = tmp_path / "inner.csv"
    proc = run_cli("inner", SCENES / "tilted_lines.json", "--out", out)
    assert proc.returncode == 0, proc.stderr
    header, rows = read_csv(out)
    assert header == ["state1", "state2", "value_re", "value_im",
                      "probability", "estimate"]
    assert len(rows) == 1
    name1, name2, re_, im_, prob, est = rows[0]
    assert (name1, name2) == ("psi1", "psi2")
    # phi = pi/6, so the pairing is 1/sin(phi) = 2
    assert float(re_) == pytest.approx(2.0, rel=1e-12)
    assert float(im_) == 0.0
    assert float(prob) == pytest.approx(4.0, rel=1e-12)
    assert float(est) == 0.0


def test_cli_pair_reports_value():
    proc = run_cli("pair", SCENES / "tilted_lines.json")
    assert proc.returncode == 0, proc.stderr
    assert "pair psi1,gauss" in proc.stdout
    value = float(VALUE_RE.search(proc.stdout).group(1))
    assert value == pytest.approx(math.sqrt(math.pi), rel=1e-10)


def test_cli_inner_planes():
    proc = run_cli("inner", SCENES / "planes_r3.json")
    assert proc.returncode == 0, proc.stderr
    value = float(VALUE_RE.search(proc.stdout).group(1))
    assert value == pytest.approx(math.sqrt(math.pi / 2), rel=1e-8)


def test_cli_inner_curved_scene():
    # the x-axis crosses the unit circle at right angles at (-1, 0) and (1, 0)
    proc = run_cli("inner", SCENES / "circle_xaxis.json")
    assert proc.returncode == 0, proc.stderr
    assert "(2 intersection points)" in proc.stdout
    value = float(VALUE_RE.search(proc.stdout).group(1))
    assert value == pytest.approx(2.0, rel=1e-12)


def test_cli_inner_probability_past_the_float_range(tmp_path, capsys):
    # |value|^2 passes the float range, where a Python float's ** raises
    data = json.loads((SCENES / "axes_r2.json").read_text())
    data["states"][0]["coeff"] = "1e300*exp(-u1^2)"
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(data))
    assert cli.main(["inner", str(path)]) == 0
    assert "probability inf estimate" in capsys.readouterr().out


def test_cli_product_csv(tmp_path):
    out = tmp_path / "product.csv"
    proc = run_cli("product", SCENES / "planes_r3.json", "--out", out)
    assert proc.returncode == 0, proc.stderr
    header, rows = read_csv(out)
    assert header == ["state1", "state2", "core", "coords", "value_re",
                      "value_im"]
    assert len(rows) == 5  # grid 5 on the one-dimensional intersection
    coords = [float(r[3]) for r in rows]
    values = [float(r[4]) for r in rows]
    assert coords == pytest.approx([-2.0, -1.0, 0.0, 1.0, 2.0])
    # both coefficients restrict to exp(-u^2) along the line
    assert values == pytest.approx([math.exp(-2.0 * u * u) for u in coords],
                                   rel=1e-12)
    assert all(float(r[5]) == 0.0 for r in rows)


def test_cli_oracle_axes():
    proc = run_cli("oracle", SCENES / "axes_r2.json")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("eps") == 3
    assert "converged" in proc.stdout


def test_cli_oracle_eps_list_override():
    proc = run_cli("oracle", SCENES / "axes_r2.json",
                   "--eps-list", "0.1,0.05,0.025")
    assert proc.returncode == 0, proc.stderr
    assert "eps 0.025" in proc.stdout
    assert "eps 0.2" not in proc.stdout


def test_cli_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_cli("sweep", SCENES / "tilted_lines.json", "--out", out)
    assert proc.returncode == 0, proc.stderr
    header, rows = read_csv(out)
    assert header == ["param", "value", "result_re", "result_im", "estimate"]
    assert len(rows) == 10
    phis = [float(r[1]) for r in rows]
    values = [float(r[2]) for r in rows]
    assert values == pytest.approx([1.0 / math.sin(p) for p in phis],
                                   rel=1e-10)
    # steeper crossing angle, smaller pairing
    assert values == sorted(values, reverse=True)
    assert values[-1] == pytest.approx(1.0, rel=1e-12)


def test_cli_sweep_over_a_pairing(tmp_path, capsys):
    # the x-axis half-density against exp(-a x1^2 - x2^2) pairs to sqrt(pi / a)
    scene = {
        "ambient": 2,
        "params": {"a": 1.0},
        "cores": [{"name": "X", "kind": "affine", "base": [0, 0], "tangent": [[1, 0]]}],
        "states": [{"name": "s", "core": "X", "degree": 0.5, "coeff": "1",
                    "support": [[-8, 8]]}],
        "tests": [{"name": "g", "degree": 0.5, "coeff": "exp(-a*x1^2 - x2^2)",
                   "support": [[-8, 8], [-8, 8]]}],
        "requests": [{"op": "sweep", "param": "a", "values": [1, 4],
                      "request": {"op": "pair", "state": "s", "test": "g"}}],
    }
    path, out = tmp_path / "sweep_pair.json", tmp_path / "sweep.csv"
    path.write_text(json.dumps(scene))
    assert cli.main(["sweep", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("sweep a=1: value ")
    _, rows = read_csv(out)
    assert [r[:2] for r in rows] == [["a", "1"], ["a", "4"]]
    assert [float(r[2]) for r in rows] == pytest.approx(
        [math.sqrt(math.pi), math.sqrt(math.pi) / 2.0], rel=1e-10)


def test_cli_no_requests_of_kind():
    proc = run_cli("product", SCENES / "axes_r2.json")
    assert proc.returncode == 0, proc.stderr
    assert "no 'product' requests" in proc.stdout


def test_cli_dump_normalized_fixed_point(tmp_path):
    first = run_cli("check", SCENES / "tilted_lines.json", "--dump-normalized")
    assert first.returncode == 0, first.stderr
    json.loads(first.stdout)  # must be valid JSON
    copy = tmp_path / "normalized.json"
    copy.write_text(first.stdout)
    second = run_cli("check", copy, "--dump-normalized")
    assert second.returncode == 0, second.stderr
    assert second.stdout == first.stdout


def test_cli_dump_normalized_to_a_file(tmp_path):
    printed = run_cli("check", SCENES / "tilted_lines.json", "--dump-normalized")
    out = tmp_path / "normalized.json"
    written = run_cli("check", SCENES / "tilted_lines.json", "--dump-normalized",
                      "--out", out)
    assert written.returncode == 0, written.stderr
    assert written.stdout == ""
    assert out.read_text() == printed.stdout


# CLI failure paths and exit codes


def test_cli_check_nontransverse_exit_6():
    proc = run_cli("check", SCENES / "parabola_nontransverse.json")
    assert proc.returncode == 6
    assert "NOT transverse" in proc.stdout
    assert "non-transverse" in proc.stderr


def test_cli_check_off_core_sample_exit_3(tmp_path):
    # the sample (1, 1) is on neither axis: the first core is named
    scene = {
        "ambient": 2,
        "cores": [
            {"name": "C", "kind": "affine", "base": [0, 0], "tangent": [[1, 0]]},
            {"name": "D", "kind": "affine", "base": [0, 0], "tangent": [[0, 1]]},
        ],
        "requests": [{"op": "check", "cores": ["C", "D"], "samples": [[1, 1]]}],
    }
    path = tmp_path / "off_core.json"
    path.write_text(json.dumps(scene))
    proc = run_cli("check", path)
    assert proc.returncode == 3
    assert proc.stderr == "error: point [1. 1.] is 1 away from core 'C'\n"


def test_cli_inner_nontransverse_exit_6():
    proc = run_cli("inner", SCENES / "parabola_nontransverse.json")
    assert proc.returncode == 6
    assert proc.stderr.startswith("error:")


def test_cli_degree_mismatch_exit_4():
    proc = run_cli("pair", SCENES / "degree_mismatch.json")
    assert proc.returncode == 4
    assert proc.stderr.startswith("error:")
    assert "sum to 1" in proc.stderr


def test_cli_missing_file_exit_2(tmp_path):
    proc = run_cli("check", tmp_path / "absent.json")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_cli_malformed_json_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("check", bad)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_cli_bad_expression_exit_2(tmp_path):
    data = minimal_scene()
    data["states"][0]["coeff"] = "exp("
    bad = tmp_path / "badexpr.json"
    bad.write_text(json.dumps(data))
    proc = run_cli("pair", bad)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


@pytest.mark.parametrize("text, old, new", [
    ((SCENES / "tilted_lines.json").read_text(), '"phi": 0.5235987755982988',
     '"phi": 1e999'),
    (json.dumps(minimal_scene()), '"base": [0, 0]', '"base": ["nan", 0]'),
], ids=["param_1e999", "base_nan_string"])
def test_cli_non_finite_number_exit_2(tmp_path, text, old, new):
    # json reads 1e999 as inf and float() reads "nan"; neither may reach cos()
    # or the quadrature
    assert old in text
    bad = tmp_path / "nonfinite.json"
    bad.write_text(text.replace(old, new))
    proc = run_cli("pair", bad)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Warning" not in proc.stderr


# each returns a part of the message, which names the field or the bound

def long_sum_in_test_coeff(d):
    d["tests"][0]["coeff"] += "*(" + " + ".join(["0.001"] * 1200) + ")"
    return "more than 100 levels deep"


def nested_parentheses_in_test_coeff(d):
    d["tests"][0]["coeff"] = "(" * 300 + "1" + ")" * 300
    return "more than 100 levels deep"


def huge_literal_in_state_coeff(d):
    d["states"][0]["coeff"] = "1e400*u1"
    return "number 1e400 is too large (offset 0)"


def chart_domain_null(d):
    d["cores"][1]["domain"] = None
    return "core 'D' is missing required field 'domain'"


def density_support_rows_off_ambient(d):
    d["tests"][0]["support"].append([-8, 8])
    return "test 'gauss' support must have 2 [lo, hi] row(s)"


def state_support_rows_off_core_dimension(d):
    d["states"][0]["support"].append([-8, 8])
    return "state 'psi1' support must have 1 [lo, hi] row(s)"


def implicit_entry_not_an_expression(d):
    d["cores"][1]["implicit"] = [[]]
    return "core 'D' implicit must be an expression string, got list"


def power_overflow_in_state_coeff(d):
    d["states"][0]["coeff"] = "10^400*u1"  # parses; fails when evaluated
    return "power overflows the float range"


def ragged_state_conormal(d):
    d["states"][0]["conormal"] = [[0, 1], [1]]
    return "state 'psi1' conormal rows must have one length, got [[0, 1], [1]]"


def affine_base_not_a_list(d):
    d["cores"][0]["base"] = 5
    return "core 'C' base must be a list of numbers, got 5"


def affine_tangent_not_rows(d):
    d["cores"][0]["tangent"] = [1, 0]
    return "core 'C' tangent row must be a list of numbers, got 1"


def point_location_a_string(d):
    assert d["cores"][3]["kind"] == "point"
    d["cores"][3]["location"] = "0, 0"
    return "core 'E' location must be a list of numbers, got '0, 0'"


def check_samples_not_rows(d):
    d["requests"][0]["samples"] = [0, 0]
    return "request #0 samples row must be a list of numbers, got 0"


def core_entry_a_number(d):
    d["cores"].append(3)
    return "an entry of scene cores must be an object, got 3"


def check_cores_a_number(d):
    d["requests"][0]["cores"] = 3
    return "request #0 cores must be a list, got 3"


def request_a_number(d):
    d["requests"].append(7)
    return "request #5 must be an object, got 7"


def params_a_list(d):
    d["params"] = [1]
    return "scene params must be an object, got [1]"


def sweep_request_a_number(d):
    assert d["requests"][4]["op"] == "sweep"
    d["requests"][4]["request"] = 5
    return "request #4 request must be an object, got 5"


def state_conormal_three_numbers(d):
    # rows of one length, but not of the core's R^2
    d["states"][0]["conormal"] = [[0, 1, 2]]
    return "state 'psi1' conormal needs 1 row(s) of 2 numbers for core 'C', got shape (1, 3)"


def chart_map_one_component(d):
    # checked against the scene's R^2 before the chart or its implicit form is built
    d["cores"][1]["map"] = ["u1*cos(phi)"]
    return "core 'D' map needs 2 components for R^2, got 1"


def affine_base_three_numbers(d):
    d["cores"][0]["base"] = [0, 0, 0]
    return "core 'C' base needs 2 components for R^2, got 3"


def affine_tangent_row_three_numbers(d):
    d["cores"][0]["tangent"] = [[1, 0, 0]]
    return "core 'C' tangent row needs 2 components for R^2, got 3"


def point_location_one_number(d):
    d["cores"][3]["location"] = [0]
    return "core 'E' location needs 2 components for R^2, got 1"


def chart_implicit_not_vanishing(d):
    d["cores"][1]["implicit"] = ["x1 + x2"]
    return "implicit form of 'D' does not vanish on the core"


@pytest.mark.parametrize("mutate", [
    long_sum_in_test_coeff, nested_parentheses_in_test_coeff, huge_literal_in_state_coeff,
    chart_domain_null, density_support_rows_off_ambient, state_support_rows_off_core_dimension,
    implicit_entry_not_an_expression, power_overflow_in_state_coeff, ragged_state_conormal,
    affine_base_not_a_list, affine_tangent_not_rows, point_location_a_string,
    check_samples_not_rows, core_entry_a_number, check_cores_a_number, request_a_number,
    params_a_list, sweep_request_a_number, chart_map_one_component, affine_base_three_numbers,
    affine_tangent_row_three_numbers, point_location_one_number, state_conormal_three_numbers,
    chart_implicit_not_vanishing,
], ids=lambda f: f.__name__)
def test_cli_bad_scene_field_exit_2(mutate, tmp_path, capsys):
    data = json.loads((SCENES / "tilted_lines.json").read_text())
    assert data["cores"][1]["name"] == "D" and data["cores"][1]["kind"] == "chart"
    message = mutate(data)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(data))
    assert cli.main(["pair", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "malformed scene:" not in err
    assert message in err


def test_oracle_tube_constants_leave_scene_parameters_of_their_name(tmp_path, capsys):
    # psi1's coefficient reads scene parameters named as the oracle tube's two eps
    # constants; its values are those of the same scene with the parameters renamed
    outs = []
    for peak, rate in (("tube_peak", "tube_rate"), ("a", "b")):
        data = json.loads((SCENES / "tilted_lines.json").read_text())
        data["params"] |= {peak: 0.5, rate: 0.5}
        data["states"][0]["coeff"] = f"{peak}*exp(-{rate}*u1^2)"
        path = tmp_path / f"{peak}.json"
        path.write_text(json.dumps(data))
        assert cli.main(["oracle", str(path)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and "converged" in outs[0]


def test_cli_long_sum_exits_2_without_a_traceback(tmp_path):
    data = json.loads((SCENES / "tilted_lines.json").read_text())
    long_sum_in_test_coeff(data)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(data))
    proc = run_cli("pair", path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("platform, has_mallopt, want", [
    ("linux", True, [(-1, 16 << 20), (-3, 8 << 20)]),  # M_TRIM_, M_MMAP_THRESHOLD
    ("linux", False, []),                                # a C library with no mallopt
    ("win32", True, []),                                 # no CDLL(None) to ask
])
def test_cli_sets_the_heap_thresholds_once_per_process(monkeypatch, capsys,
                                                       platform, has_mallopt, want):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(cli.sys, "platform", platform)
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace(
        **({"mallopt": mallopt} if has_mallopt else {})))
    cli.pin_heap_thresholds.cache_clear()
    try:
        for _ in range(2):
            assert cli.main(["check", str(SCENES / "axes_r2.json")]) == 0
    finally:
        cli.pin_heap_thresholds.cache_clear()
    assert calls == want
    assert not calls or mallopt.argtypes == (ctypes.c_int, ctypes.c_int)


def test_cli_deeply_nested_json_exit_2(tmp_path, capsys):
    path = tmp_path / "scene.json"
    path.write_text("[" * 100_000)
    assert cli.main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: invalid JSON in {path}")


def test_cli_disjoint_cores_exit_3(tmp_path):
    scene = {
        "ambient": 2,
        "cores": [
            {"name": "C", "kind": "affine", "base": [0, 0], "tangent": [[1, 0]]},
            {"name": "D", "kind": "affine", "base": [0, 3], "tangent": [[1, 0]]},
        ],
        "states": [
            {"name": "s1", "core": "C", "degree": 0.5, "coeff": "1",
             "support": [[-1, 1]]},
            {"name": "s2", "core": "D", "degree": 0.5, "coeff": "1",
             "support": [[-1, 1]]},
        ],
        "requests": [{"op": "inner", "state1": "s1", "state2": "s2"}],
    }
    path = tmp_path / "parallel.json"
    path.write_text(json.dumps(scene))
    proc = run_cli("inner", path)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error:")


# runs the CLI with its address space capped at 2 GiB, so a grid that slips
# past the node budget fails in the child, and prints the child's peak RSS;
# one BLAS thread keeps the per-thread buffers of the numpy import under the cap
CAPPED = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
          "from geodens.cli import main; rc = main(sys.argv[1:]); "
          "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss); sys.exit(rc)")


def run_capped(*argv):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", CAPPED, *map(str, argv)],
                          capture_output=True, text=True, timeout=600, env=env)


def peak_rss_mb(proc):
    return int(proc.stdout.split()[-1]) / 1024.0  # ru_maxrss is in KiB


def test_cli_divergent_3d_pairing_exits_5_at_the_node_budget(tmp_path):
    # 760 periods along u1: no order converges.  Order 256 (16.8 M nodes)
    # runs; order 362 (47.4 M nodes) is refused
    scene = {
        "ambient": 3,
        "cores": [{"name": "R3", "kind": "affine", "base": [0, 0, 0],
                   "tangent": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}],
        "states": [{"name": "s", "core": "R3", "degree": 0.5, "coeff": "cos(300*u1)",
                    "support": [[-8, 8]] * 3}],
        "tests": [{"name": "g", "degree": 0.5, "coeff": "1"}],
        "requests": [{"op": "pair", "state": "s", "test": "g"}],
    }
    path = tmp_path / "divergent.json"
    path.write_text(json.dumps(scene))
    proc = run_capped("pair", path)
    assert proc.returncode == 5, proc.stderr
    assert "order-362 rule needs 47,437,928 nodes, over the node budget" in proc.stderr
    assert peak_rss_mb(proc) < 500.0


def test_cli_tilted_codim_2_oracle_exits_5_at_the_node_budget(tmp_path):
    # a line along (1, 1, 1) in R^3: the tube grids at eps 0.2 and 0.1 (6.2 M
    # and 21.9 M nodes) are built; the one at eps 0.05 (113 M nodes) is refused
    scene = {
        "ambient": 3,
        "cores": [{"name": "L", "kind": "affine", "base": [0.1, 0, 0],
                   "tangent": [[1, 1, 1]]}],
        "states": [{"name": "s", "core": "L", "degree": 0.0, "coeff": "1",
                    "support": [[-2, 2]]}],
        "tests": [{"name": "g", "degree": 1.0, "coeff": "exp(-x1^2-x2^2-x3^2)",
                   "support": [[-5, 5]] * 3}],
        "requests": [{"op": "oracle", "state": "s", "test": "g", "eps": [0.2, 0.1, 0.05]}],
    }
    path = tmp_path / "tilted_tube.json"
    path.write_text(json.dumps(scene))
    proc = run_capped("oracle", path)
    assert proc.returncode == 5, proc.stderr
    assert "113,356,800 nodes, over the node budget" in proc.stderr
    assert peak_rss_mb(proc) < 500.0


@pytest.mark.parametrize("content", [b"\xff\xfe{", b'{"ambient": NaN}'])
def test_cli_undecodable_scene_exit_2(content, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert cli.main(["check", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: invalid JSON")


def test_cli_rejects_quad_order_below_one():
    with pytest.raises(SystemExit) as info:
        cli.main(["pair", str(SCENES / "tilted_lines.json"), "--quad-order", "0"])
    assert info.value.code == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_cli_rejects_a_quad_tol_that_is_not_finite_and_non_negative(tol):
    with pytest.raises(SystemExit) as info:
        cli.main(["pair", str(SCENES / "tilted_lines.json"), f"--quad-tol={tol}"])
    assert info.value.code == 2


def test_cli_bad_eps_list_exit_2_before_mollifying(monkeypatch):
    def no_mollify(*args):
        raise AssertionError("mollify ran on a bad eps list")

    monkeypatch.setattr("geodens.oracle.mollify", no_mollify)
    for bad in ("0.1,0.2", "-0.1,-0.2", "0.1"):
        assert cli.main(["oracle", str(SCENES / "tilted_lines.json"),
                         f"--eps-list={bad}"]) == 2


def two_axes_scene():
    data = minimal_scene()
    data["cores"].append({"name": "Y", "kind": "affine", "base": [0, 0],
                          "tangent": [[0, 1]]})
    data["states"].append({"name": "s2", "core": "Y", "degree": 0.5,
                           "coeff": "1", "support": [[-1, 1]]})
    return data


def scene_eps_increasing(d):
    d["requests"] = [{"op": "oracle", "state1": "s", "state2": "s2",
                      "eps": [0.1, 0.2]}]
    return "oracle", 2


def off_core_check_sample(d):
    d["requests"] = [{"op": "check", "cores": ["X", "Y"], "samples": [[1, 1]]}]
    return "check", 3


def wrong_dimension_intersection(d):
    d["requests"] = [{"op": "inner", "state1": "s", "state2": "s2",
                      "intersection": "X"}]
    return "inner", 3


def conormal_not_annihilating(d):
    d["states"][0]["conormal"] = [[1, 1]]
    return "pair", 3


def implicit_conormal_not_annihilating(d):
    # the gradient of x2 + (x1^3 - x1)^2 is normal to the x axis where the
    # implicit form is validated (u = -1, 0, 1), and only there
    d["cores"].append({"name": "W", "kind": "affine", "base": [0, 0],
                       "tangent": [[1, 0]], "implicit": ["x2 + (x1^3 - x1)^2"]})
    d["requests"] = [{"op": "check", "cores": ["X", "Y"]}]
    return "check", 3


def implicit_conormal_not_annihilating_at_load(d):
    # x2 + x1^3 - x1 vanishes at the samples, but its gradient misses the x axis there
    d["cores"].append({"name": "W", "kind": "affine", "base": [0, 0],
                       "tangent": [[1, 0]], "implicit": ["x2 + x1^3 - x1"]})
    d["requests"] = [{"op": "check", "cores": ["X", "Y"]}]
    return "check", 2


def mollify_without_support(d):
    for state in d["states"]:
        del state["support"]
    d["requests"] = [{"op": "oracle", "state1": "s", "state2": "s2"}]
    return "oracle", 5


@pytest.mark.parametrize("mutate", [
    scene_eps_increasing, off_core_check_sample, wrong_dimension_intersection,
    conormal_not_annihilating, implicit_conormal_not_annihilating,
    implicit_conormal_not_annihilating_at_load, mollify_without_support,
], ids=lambda f: f.__name__)
def test_cli_typed_failure_exit_codes(mutate, tmp_path, capsys):
    data = two_axes_scene()
    command, code = mutate(data)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(data))
    assert cli.main([command, str(path)]) == code
    assert capsys.readouterr().err.startswith("error:")


# seeded mutations: whatever a scene file says, each command exits with a documented code

MUTANT_VALUES = [None, True, "x", 3, -1, 0, 2.5, 1e300, -1e300, 1e12, [], {}, [1, 2],
                 {"a": 1}, [[1, 2]]]
MUTANT_EXPRESSIONS = ["1 +", "((", "", "log(-1)", "sqrt(-1)", "x1/0", "foo(x1)", "u9",
                      "1e400", "exp(1000)"]


def json_paths(v, at=()):
    """The path of every value inside a JSON document, depth first."""
    items = v.items() if isinstance(v, dict) else enumerate(v) if isinstance(v, list) else ()
    for key, x in items:
        yield at + (key,)
        yield from json_paths(x, at + (key,))


def mutant(rng, data):
    """``data`` with one value deleted, or replaced by a number far out of range or
    negated, a value of another JSON type, or an expression that fails to parse or
    evaluate; returns what was done."""
    *path, key = rng.choice(list(json_paths(data)))
    parent = functools.reduce(operator.getitem, path, data)
    old, kind = parent[key], rng.randrange(4)
    if kind == 0:
        del parent[key]
        return f"deleted {[*path, key]}"
    if kind == 1 and isinstance(old, (int, float)) and not isinstance(old, bool):
        parent[key] = rng.choice([-old, old * 1e300, 1e12, -1e12, 0, 1e-300, old + 0.5])
    elif kind == 2 and isinstance(old, str):
        parent[key] = rng.choice(MUTANT_EXPRESSIONS)
    else:
        parent[key] = rng.choice(MUTANT_VALUES)
    return f"{[*path, key]} = {parent[key]!r}"


# numbers near 1e300 overflow numpy's squares and powers on the way to a typed
# error or a result; the exit code is checked, and an invalid value still fails
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_cli_exits_with_a_documented_code_on_mutated_scenes(tmp_path, capsys):
    scenes = [(p.name, json.loads(p.read_text())) for p in sorted(SCENES.glob("*.json"))]
    rng = random.Random(32)
    path = tmp_path / "scene.json"
    for _ in range(600):
        name, data = rng.choice(scenes)
        data = copy.deepcopy(data)
        what = mutant(rng, data)
        path.write_text(json.dumps(data))
        for command in cli.COMMANDS:
            assert cli.main([command, str(path)]) in (0, 2, 3, 4, 5, 6), (name, what, command)
            assert "malformed scene" not in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_oracle_exits_5_on_non_finite_tube_values(tmp_path, capsys):
    # exp(1000 x2) overflows on the widest tubes, where exp(1000 x2) exp(-1000 x2)
    # is inf * 0 (NaN); the narrowest tube's box stays in range
    data = minimal_scene()
    data["states"][0].update(coeff="exp(-u1^2)", support=[[-8, 8]])
    data["tests"][0].update(coeff="exp(1000*x2)*exp(-1000*x2)*exp(-x1^2)",
                            support=[[-8, 8], [-8, 8]])
    data["requests"] = [{"op": "oracle", "state": "s", "test": "t",
                         "eps": [0.2, 0.1, 0.05]}]
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(data))
    assert cli.main(["oracle", str(path)]) == 5
    out, err = capsys.readouterr()
    assert "converged" not in out
    assert err == "error: oracle value not finite at eps=0.2, eps=0.1\n"


# exit codes of the original error types, as documented in the README

EXIT_CODES = {
    "SceneError": 2, "ExprSyntaxError": 2, "UnknownFunction": 2,
    "UnboundIdentifier": 2, "DomainError": 2, "InvalidCore": 2,
    "ImmersionFailure": 3, "RankDeficient": 3, "SpanMismatch": 3,
    "DegenerateCovectors": 3, "SingularFrame": 3, "MissingImplicitForm": 3,
    "NoIntersectionFound": 3, "UserChartRequired": 3,
    "ChartInversionFailure": 3, "NotOnBothCores": 3, "NonAffineCore": 3,
    "DegreeMismatch": 4,
    "QuadratureNotConverged": 5, "UnboundedDomain": 5, "NonConvergent": 5,
    "TransversalityFailure": 6,
}


@pytest.mark.parametrize("name,code", sorted(EXIT_CODES.items()))
def test_cli_exit_code_of_each_error(name, code, monkeypatch, capsys):
    cls = getattr(errors, name)
    exc = cls("boom", 7) if name == "ExprSyntaxError" else cls("boom")

    def runner(*args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_pair", runner)
    assert cli.main(["pair", str(SCENES / "tilted_lines.json")]) == code
    assert capsys.readouterr().err == f"error: {exc}\n"


def test_every_error_type_has_an_exit_code():
    types = [v for v in vars(errors).values()
             if isinstance(v, type) and issubclass(v, errors.GeodensError)
             and v is not errors.GeodensError]
    assert {t.exit_code for t in types} == {2, 3, 4, 5, 6}


def test_cli_lets_a_plain_value_error_propagate(monkeypatch):
    def runner(*args):
        raise ValueError("a bug, not a user error")

    monkeypatch.setattr(cli, "_cmd_pair", runner)
    with pytest.raises(ValueError, match="a bug"):
        cli.main(["pair", str(SCENES / "tilted_lines.json")])


# reference cycles: garbage in a cycle lives until the cyclic collector runs,
# and with it every array the cycle holds


def cli_runs():
    for path in sorted(SCENES.glob("*.json")):
        ops = {r["op"] for r in json.loads(path.read_text())["requests"]}
        for command in ("check", "pair", "inner", "product", "oracle"):
            if command != "oracle" or "oracle" in ops:
                yield path.name, command


def defining_module(obj):
    if hasattr(obj, "f_globals"):
        return obj.f_globals.get("__name__", "")
    if callable(obj) and isinstance(getattr(obj, "__module__", None), str):
        return obj.__module__
    return type(obj).__module__


@pytest.mark.parametrize("name, command", list(cli_runs()))
def test_cli_run_leaves_no_geodens_reference_cycles(name, command, capsys):
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        cli.main([command, str(SCENES / name)])
        gc.collect()
        # argparse's own cycles are allowed
        cyclic = {f"{defining_module(o)}:{getattr(o, '__qualname__', type(o).__name__)}"
                  for o in gc.garbage if defining_module(o).startswith("geodens")}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not cyclic
