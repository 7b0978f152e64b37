"""The seeding rule of ``vanlat verify``: instance ``k`` of a run is
instance ``j = k // 7`` of family ``CHECK_NAMES[k % 7]`` and draws from
its own ``random.Random(f"{seed} {family} {j}")``, so every instance is
checked alone by :func:`vanlat.suite.check_instance`, and no instance
moves when another family draws differently."""

import itertools
import random

import pytest

import vanlat.suite as suite
from conftest import FORCED_FAILURES

# the names through which the families draw: a lattice and a braid word
# from the instance's generator, a level and a tower from a sub-seed
_DRAWS = ("random_lattice", "random_braid_word", "generate_level",
          "random_icis_instance")


def _recording(monkeypatch):
    """Record every draw a family makes through :data:`_DRAWS`, in order,
    as ``(name, args, drawn)``: the arguments after the generator, and
    what a draw from the instance's generator gave (None for a draw from
    a sub-seed, whose arguments are the draws)."""
    events = []
    for name in _DRAWS:
        def draw(*args, _name=name, _original=getattr(suite, name)):
            out = _original(*args)
            if isinstance(args[0], random.Random):
                events.append((_name, args[1:], out))
            else:
                events.append((_name, args, None))
            return out
        monkeypatch.setattr(suite, name, draw)
    return events


def _failing_at(monkeypatch, name, forced, call):
    """``suite.<name>`` acts as ``forced`` on its call number ``call``
    (from 0), and as itself on every other call."""
    original, calls = getattr(suite, name), itertools.count()
    monkeypatch.setattr(suite, name, lambda *args: (
        forced if next(calls) == call else original)(*args))


def _alone(monkeypatch, family, j):
    """Instance ``j`` of ``family`` in the run seeded 5 at rank bound 8,
    checked alone with that family forced to fail."""
    (name, forced), _, _ = FORCED_FAILURES[family]
    with monkeypatch.context() as m:
        m.setattr(suite, name, forced)
        problem, witness = suite.check_instance(5, family, j, 8)
    assert problem and witness
    return name, forced, problem, witness


@pytest.mark.parametrize("family", suite.CHECK_NAMES)
def test_an_instance_checked_alone_is_that_instance_of_a_run(family, monkeypatch):
    j = 2
    name, forced, problem, witness = _alone(monkeypatch, family, j)
    # in a full run, every instance before 7j + (the family's position)
    # passes; the level families draw through ``generate_level`` in turn,
    # three calls a round, symmetric-nondegenerate first
    _failing_at(monkeypatch, name, forced, 3 * j if name == "generate_level" else j)
    k = 7 * j + suite.CHECK_NAMES.index(family)
    result = suite.run_verification(5, k + 7, 8)
    assert result.lines == ["FAIL %s (instance %d): %s" % (family, k, problem)]
    assert result.counterexample == witness


@pytest.mark.parametrize("family", suite.CHECK_NAMES)
def test_a_run_of_one_family_draws_its_instances(family, monkeypatch):
    j = 2
    name, forced, problem, witness = _alone(monkeypatch, family, j)
    monkeypatch.setattr(suite, "CHECK_NAMES", (family,))
    _failing_at(monkeypatch, name, forced, j)
    result = suite.run_verification(5, j + 3, 8)
    assert result.lines == ["FAIL %s (instance %d): %s" % (family, j, problem)]
    assert result.counterexample == witness


def test_a_draw_added_to_one_family_moves_no_other(monkeypatch):
    def drawn():
        with monkeypatch.context() as m:
            events = _recording(m)
            assert suite.run_verification(7, 70, 8).ok
        return events

    before = drawn()
    word = suite.random_braid_word
    monkeypatch.setattr(suite, "random_braid_word",
                        lambda rng, nu: (rng.random(), word(rng, nu))[1])
    after = drawn()
    assert len(before) == len(after) == 80
    # only the braid words move, and they do
    assert before != after
    assert ([e for e in before if e[0] != "random_braid_word"]
            == [e for e in after if e[0] != "random_braid_word"])


# the first draws of instance 0 of each family in the run seeded 2 at
# rank bound 8: the lattice's rank and parity, the braid word's rank, and
# the sub-seed, rank bound and parity (or n and p) of a level or tower
_FIRST_DRAWS = {
    "s-relation": [("random_lattice", (5, 1))],
    "monodromy-relation": [("random_lattice", (6, 4))],
    "braid-invariance": [("random_lattice", (8, 1)), ("random_braid_word", (8,))],
    "symmetric-nondegenerate": [("generate_level", (1344819297, 8, 3))],
    "block-form": [("generate_level", (1506005317, 8, 3))],
    "cycle-route-agreement": [("generate_level", (1378673140, 8, 3))],
    "telescoping": [("random_icis_instance", (3189116642, 2, 0, 8))],
}


@pytest.mark.parametrize("family", suite.CHECK_NAMES)
def test_first_draws_of_each_family_are_pinned(family, monkeypatch):
    # a str seed is hashed with SHA-512, the same on every CPython and
    # under any PYTHONHASHSEED; a change to the seed rule moves these
    events = _recording(monkeypatch)
    assert suite.check_instance(2, family, 0, 8) == (None, None)
    assert [(name, args) for name, args, _ in events] == _FIRST_DRAWS[family]


@pytest.mark.parametrize("family", suite.CHECK_NAMES)
def test_a_negative_rank_bound_is_refused_by_every_family(family):
    # no family reads a negative bound as 0: each draw that takes the
    # bound refuses it
    with pytest.raises(ValueError):
        suite.check_instance(1, family, 0, -1)
