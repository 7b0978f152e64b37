import pathlib

import pytest

INSTANCE_DIR = pathlib.Path(__file__).resolve().parent.parent / "instances"


@pytest.fixture
def instance_dir():
    return INSTANCE_DIR


def instance_path(name):
    return INSTANCE_DIR / name


def triple_loop(a, b):
    """Rows of the product ``a * b``, summed entry by entry."""
    return tuple(tuple(sum(a[i, t] * b[t, j] for t in range(a.ncols))
                       for j in range(b.ncols))
                 for i in range(a.nrows))
