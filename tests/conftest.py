import pathlib
import sys
from operator import mul

from vanlat.basis import parse_braid_word
from vanlat.conjugation import MorseSpec, RealPoint, build_sigma
from vanlat.gen import random_icis_instance
from vanlat.index import IcisInstance, LevelData
from vanlat.instfile import InstanceDocument, serialize_instance
from vanlat.intmat import IntMatrix
from vanlat.lattice import SignVector, ThimbleLattice

INSTANCE_DIR = pathlib.Path(__file__).resolve().parent.parent / "instances"


def instance_path(name):
    return INSTANCE_DIR / name


def triple_loop(a, b):
    """Rows of the product ``a * b``, summed entry by entry over the dense
    rows of ``a`` and columns of ``b``."""
    cols = list(zip(*b.rows))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a.rows)


def rebind(monkeypatch, original, replacement):
    """Replace ``original`` by ``replacement`` under every name a vanlat
    module binds it to."""
    for module in [m for name, m in sys.modules.items() if name.startswith("vanlat")]:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


def matrix_power(m, k):
    """``m`` multiplied by itself ``k >= 0`` times (the identity at 0)."""
    out = m.identity(m.nrows)
    for _ in range(k):
        out = out * m
    return out


def a_k_level(k):
    """The real morsification of ``x^(k+1)`` as a parity-1 lattice of rank
    ``k`` and its conjugation.

    Maxima come first in the basis, then minima; neighbours on the line
    pair to -1, and the conjugation has +1 at (maximum, minimum) for each
    line edge.  Every matrix of the level has about two nonzeros per row,
    and the gram matrix is built from its nonzeros alone, as ``{col:
    value}`` rows.
    """
    order = list(range(0, k, 2)) + list(range(1, k, 2))  # even positions are maxima
    slot = {pos: s for s, pos in enumerate(order)}
    gram = [{s: 2} for s in range(k)]
    upper = []
    for pos in range(k - 1):
        a, b = slot[pos], slot[pos + 1]
        gram[a][b] = gram[b][a] = -1
        upper.append((a, b, 1) if pos % 2 == 0 else (b, a, 1))
    morse = MorseSpec(tuple(RealPoint(1 - pos % 2) for pos in order))
    lat = ThimbleLattice(1, IntMatrix(gram, k))
    return lat, build_sigma(morse, 1, upper)


def a_k_instance(k):
    """The A_k level of :func:`a_k_level` as a one-level tower (n = 1,
    p = 0, sign +1)."""
    lat, conj = a_k_level(k)
    return IcisInstance(1, 0, SignVector((1,)), (LevelData(0, lat, conj),))


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


def as_loaded(data):
    """A document of the canonical reader as ``yaml.safe_load`` builds it:
    each matrix, which the reader returns as an ``IntMatrix``, as its
    list of row lists, and the ``MorseSpec`` of each ``morse`` line as
    its list of ``[kind, value]`` pairs."""
    if isinstance(data, IntMatrix):
        return data.to_lists()
    if isinstance(data, MorseSpec):
        return [["real", p.morse_index] if isinstance(p, RealPoint)
                else ["pair", p.pairing] for p in data.points]
    if isinstance(data, dict):
        return {key: as_loaded(value) for key, value in data.items()}
    if isinstance(data, list):
        return [as_loaded(value) for value in data]
    return data
