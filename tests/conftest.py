"""Let the ``python -m geodens`` subprocesses that tests start import the in-tree package.

``pythonpath`` in pyproject.toml puts ``src`` on the test process's own path
only; the CLI tests run the program in a child process, which reads
PYTHONPATH instead.
"""
import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True, scope="session")
def _src_on_child_path():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        yield
