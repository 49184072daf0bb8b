import os
import pathlib
import random

import pytest

import weylalg
from weylalg import Context

# CLI tests run `python -m weylalg.cli` in a subprocess; point it at the
# package this suite imports, which need not be installed
_SRC = str(pathlib.Path(weylalg.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def ctx1():
    return Context(1, 8)


@pytest.fixture
def ctx2():
    return Context(2, 8)


@pytest.fixture
def rng():
    return random.Random(20260814)
