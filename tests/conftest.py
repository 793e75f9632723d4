"""The tests import ffcount from ``src`` without installing it (``pythonpath``
in pyproject.toml); the tests that start ``sys.executable`` find it there
through PYTHONPATH, which this sets for the whole session."""

import os
import pathlib

import pytest

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def _src_on_pythonpath():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", SRC, prepend=os.pathsep)
        yield
