import pathlib

import pytest

from vanlat.basis import parse_braid_word
from vanlat.gen import random_icis_instance
from vanlat.instfile import InstanceDocument, serialize_instance

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


def matrix_power(m, k):
    """``m`` multiplied by itself ``k >= 0`` times (the identity at 0)."""
    out = m.identity(m.nrows)
    for _ in range(k):
        out = out * m
    return out


def generated_texts():
    """Serializer output with every optional part: p > 0, cycles, braid
    words, expected entries and provenance lines."""
    texts = []
    for seed in range(4):
        inst = random_icis_instance(seed, 1 + seed % 2, 1 + seed % 2, 4,
                                    with_cycles=True)
        doc = InstanceDocument(inst, (parse_braid_word("a1 A1"),
                                      parse_braid_word("f1")),
                               {"index": seed - 2, "note": "seed #%d: ok" % seed},
                               ("generated with seed %d" % seed, "second line"))
        texts.append(serialize_instance(doc))
    return texts
