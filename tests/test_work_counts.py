"""Work guards: counts of the expensive calls, not timings.

The index and signature routes must not take a determinant (the form's
signature already reports its radical), and every route that reads a
level shares one analysis, so each level's monodromy is built once.  The
generator forms each conjugation in closed form, without ``var`` and
without assembling it again through ``build_sigma``.
"""

import collections
import contextlib
import io

import pytest

from conftest import instance_path
from vanlat import conjugation, variation
from vanlat.cli import main
from vanlat.conjugation import generate_consistent_instance
from vanlat.gen import flip_last_sign, random_icis_instance
from vanlat.index import gradient_index, sign_independence_check, telescoped_index
from vanlat.intmat import IntMatrix


def _counting(monkeypatch, owner, name, key=lambda *args: None):
    """Replace ``owner.name`` by a wrapper that counts its calls by key."""
    counts = collections.Counter()
    original = getattr(owner, name)

    def wrapped(*args):
        counts[key(*args)] += 1
        return original(*args)
    monkeypatch.setattr(owner, name, wrapped)
    return counts


@pytest.mark.parametrize("name", ["a1.vl", "a2_index.vl", "plane_min.vl",
                                  "cone_pos.vl", "cone_neg.vl"])
def test_index_and_signature_take_no_determinant(monkeypatch, name):
    dets = _counting(monkeypatch, IntMatrix, "det")
    for what in ("index", "signature"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["compute", str(instance_path(name)), "--what", what]) == 0
    assert sum(dets.values()) == 0


@pytest.mark.parametrize("seed", range(6))
def test_index_routes_build_each_monodromy_once(monkeypatch, seed):
    inst = random_icis_instance(seed, 1 + seed % 3, 2, 6, real_only_level0=True)
    built = _counting(monkeypatch, conjugation, "monodromy", key=id)
    flipped = flip_last_sign(inst)
    assert telescoped_index(inst) == gradient_index(inst)
    assert sign_independence_check([inst, flipped]) is None
    lattices = {id(level.lattice) for level in inst.levels + flipped.levels}
    assert built == {k: 1 for k in lattices}


def test_generator_takes_neither_var_nor_build_sigma(monkeypatch):
    assert not hasattr(conjugation, "var")
    counts = [_counting(monkeypatch, conjugation, "build_sigma"),
              _counting(monkeypatch, variation, "var")]
    for seed in range(12):
        generate_consistent_instance(seed, 16, seed % 5)
        random_icis_instance(seed, 1 + seed % 3, 2, 6, with_cycles=True)
    assert [sum(c.values()) for c in counts] == [0, 0]
