"""Value goldens: every command on every shipped scene, run in process.

Each ``geodens <command> scenes/<name>.json --out <csv>`` run must give the
recorded exit code exactly, and its CSV rows must match the recorded ones:
text cells exactly, numeric cells to rel 1e-12 of the largest number in
their row (an estimate or an error is a difference of values of that size,
so it moves on the row's scale, not on its own).  Each scene's
``--dump-normalized`` run must also give its recorded exit code, normalized
text and error message exactly.

The goldens live in ``scene_values.json`` next to this file.  Record the
goldens of a new scene or command, which the file lacks, with

    PYTHONPATH=src python tests/test_scene_values.py --record

and re-record named ones, only for a change that means to move them, with

    PYTHONPATH=src python tests/test_scene_values.py --record axes_r2.json/oracle ...

Every other stored golden is kept as it is.
"""
import contextlib
import csv
import functools
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from geodens import cli

SCENES = Path(__file__).resolve().parent.parent / "scenes"
GOLDEN = Path(__file__).resolve().parent / "scene_values.json"
COMMANDS = ("check", "pair", "product", "inner", "oracle", "sweep")
REL = 1e-12


def run(command: str, scene: Path) -> dict:
    """Exit code and CSV rows (None when the run writes no CSV) of one CLI run."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command, str(scene), "--out", str(out)])
        rows = None
        if out.exists():
            with open(out, newline="") as fh:
                rows = list(csv.reader(fh))
    return {"exit": code, "rows": rows}


def dump(scene: Path) -> dict:
    """Exit code, stdout and stderr of one ``--dump-normalized`` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check", str(scene), "--dump-normalized"])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _rows_match(got, want) -> bool:
    if got is None or want is None:
        return got is want
    if len(got) != len(want):
        return False
    for g_row, w_row in zip(got, want):
        if len(g_row) != len(w_row):
            return False
        scale = max((abs(v) for v in map(_number, w_row) if v is not None), default=0.0)
        for g, w in zip(g_row, w_row):
            g_num, w_num = _number(g), _number(w)
            if w_num is None or g_num is None:
                if g != w:
                    return False
            elif abs(g_num - w_num) > REL * scale:
                return False
    return True


CASES = [(scene.name, command) for scene in sorted(SCENES.glob("*.json"))
         for command in COMMANDS]
DUMPS = [scene.name for scene in sorted(SCENES.glob("*.json"))]


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN.read_text())


def test_goldens_cover_every_scene_and_command(goldens):
    assert sorted(goldens) == sorted([f"{s}/{c}" for s, c in CASES]
                                     + [f"{s}/--dump-normalized" for s in DUMPS])


@pytest.mark.parametrize("scene,command", CASES)
def test_scene_values_match_goldens(goldens, scene, command):
    want = goldens[f"{scene}/{command}"]
    got = run(command, SCENES / scene)
    assert got["exit"] == want["exit"]
    assert _rows_match(got["rows"], want["rows"]), (got["rows"], want["rows"])


@pytest.mark.parametrize("scene", DUMPS)
def test_normalized_scenes_match_goldens(goldens, scene):
    assert dump(SCENES / scene) == goldens[f"{scene}/--dump-normalized"]


def test_rows_match_reads_numbers_on_the_row_scale():
    want = [["s", "t", "2.0", "0", "1e-9"]]
    assert _rows_match([["s", "t", "2.0000000000001", "1e-13", "1.0000000001e-9"]], want)
    assert not _rows_match([["s", "t", "2.00000000001", "0", "1e-9"]], want)
    assert not _rows_match([["s", "u", "2.0", "0", "1e-9"]], want)
    assert not _rows_match(None, want) and _rows_match(None, None)


def record(path: Path, keys=()) -> list[str]:
    """Record into ``path`` the goldens it lacks and those named in ``keys``, keep every
    other stored golden, and drop keys of no scene and command; returns the keys run."""
    runs = {f"{s}/{c}": functools.partial(run, c, SCENES / s) for s, c in CASES}
    runs |= {f"{s}/--dump-normalized": functools.partial(dump, SCENES / s) for s in DUMPS}
    unknown = sorted(set(keys) - runs.keys())
    if unknown:
        raise KeyError(f"no golden is named {', '.join(unknown)}")
    old = json.loads(path.read_text()) if path.exists() else {}
    todo = [k for k in runs if k not in old or k in keys]
    path.write_text(json.dumps({k: runs[k]() if k in todo else old[k] for k in runs},
                               indent=1) + "\n")
    return todo


def test_record_writes_only_missing_and_named_goldens(goldens, tmp_path):
    # a golden file that lacks one key, holds a stale value and a key of no scene
    path, missing, tampered = (tmp_path / "scene_values.json", "axes_r2.json/check",
                               "axes_r2.json/--dump-normalized")
    stored = {k: v for k, v in goldens.items() if k != missing}
    stored |= {tampered: {"exit": 9, "stdout": "", "stderr": ""},
               "gone.json/check": {"exit": 0, "rows": None}}
    path.write_text(json.dumps(stored, indent=1) + "\n")
    assert record(path) == [missing]
    again = json.loads(path.read_text())
    assert list(again) == list(goldens) and again == {**goldens, tampered: stored[tampered]}
    assert record(path, [tampered]) == [tampered]
    assert path.read_text() == GOLDEN.read_text()
    with pytest.raises(KeyError, match="gone.json/pair"):
        record(path, ["gone.json/pair"])


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"]:
        sys.exit(__doc__)
    try:
        print("\n".join(record(GOLDEN, sys.argv[2:])) or "every golden is recorded")
    except KeyError as exc:
        sys.exit(exc.args[0])
