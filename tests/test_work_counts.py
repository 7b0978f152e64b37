"""Work guards: counts of the expensive calls, not timings.

The index and signature routes must not take a determinant (the form's
signature already reports its radical), and each form's symmetry is
checked once, by its signature.  Every route that reads a level shares
one analysis, so each level's monodromy is built once, also
on levels that carry cycle data.  The generator forms each conjugation
in closed form, without ``var`` and without assembling it again through
``build_sigma``; it tests every chunk try on plain rows, builds no matrix,
lattice or analysis for a chunk, and builds one lattice, one
``var_inverse`` and one analysis per generated level, which the level
keeps.  Each generated level's block form is checked once, by the
generator, and never again by ``verify``.  An all-real level 0 is one
call of the generator's entry point, whose chunks draw no conjugate
pair.  The braid-invariance family of ``verify`` applies each word once
and never inverts the basis change.  Each matrix row is stored by its
fill: every matrix of the A_64 tower's analysis, and its ``var``, is
sparse and the row kernel sums it as dicts, with no dense row built,
while a dense random lattice and its braid congruence stay dense.  The
kernel leaves the zeros of a dict sum that cancels, and storing the sum
drops them, once per row; the involution test stores no row.  A braid
word builds four matrices.
"""

import collections
import contextlib
import io
import random

import pytest

from conftest import a_k_instance, a_k_level, instance_path, rebind
from vanlat import conjugation, gen, intmat, suite, variation
from vanlat.basis import BraidMove, BraidWord, apply_braid_word
from vanlat.cli import main
from vanlat.conjugation import ConjugatePair, LevelAnalysis, generate_level
from vanlat.gen import (flip_last_sign, level_with_cycles, random_braid_word,
                        random_icis_instance, random_lattice)
from vanlat.index import (cycle_index_sum, gradient_index, sign_independence_check,
                          telescoped_index)
from vanlat.instfile import InstanceDocument, serialize_instance
from vanlat.intmat import IntMatrix


def _counting(monkeypatch, owner, name, key=lambda *args, **kwargs: None):
    """Replace ``owner.name`` by a wrapper that counts its calls by key."""
    counts = collections.Counter()
    original = getattr(owner, name)

    def wrapped(*args, **kwargs):
        counts[key(*args, **kwargs)] += 1
        return original(*args, **kwargs)
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


def test_each_form_is_checked_symmetric_once(monkeypatch):
    # the signature checks its form's symmetry, and neither the level's
    # signature nor the cycle route checks it again
    level = level_with_cycles(0, generate_level(3, 12, 1), pad=1)
    form = level.analysis.form
    kept = []
    checks = _counting(monkeypatch, IntMatrix, "is_symmetric",
                       key=lambda m, sign=1: kept.append(m) or id(m))
    level.analysis.signature
    assert checks == {id(form): 1}
    checks.clear()
    cycle_index_sum(level, 1)
    assert len(kept) == 3 and sorted(checks.values()) == [1, 1]


@pytest.mark.parametrize("seed", range(6))
def test_index_routes_build_each_monodromy_once(monkeypatch, seed):
    # generation included: the generator's check of a level and every
    # route over it read one analysis
    built = _monodromies_by_lattice(monkeypatch)
    inst = random_icis_instance(seed, 1 + seed % 3, 2, 6, real_only_level0=True)
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
        generate_level(seed, 16, seed % 5)
        random_icis_instance(seed, 1 + seed % 3, 2, 6, with_cycles=True)
    assert [sum(c.values()) for c in counts] == [0, 0]


def _monodromies_by_lattice(monkeypatch):
    """Count ``conjugation.monodromy`` calls per lattice object.

    The lattices are kept alive, so an ``id`` is never reused for another
    lattice while the counts are read.
    """
    kept = []
    return _counting(monkeypatch, conjugation, "monodromy",
                     key=lambda lat: kept.append(lat) or id(lat))


@pytest.mark.parametrize("seed", [100, 101, 102, 103])
def test_cycle_levels_build_their_monodromy_once_in_verify(monkeypatch, seed):
    built = _monodromies_by_lattice(monkeypatch)
    cycle_lattices = []
    original = gen.level_with_cycles

    def recording(*args, **kwargs):
        level = original(*args, **kwargs)
        cycle_lattices.append(level.lattice)
        return level
    monkeypatch.setattr(suite, "level_with_cycles", recording)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--seed", str(seed), "--count", "35",
                     "--rank-bound", "16"]) == 0
    assert len(cycle_lattices) == 5  # one family in seven
    assert [built[id(lat)] for lat in cycle_lattices] == [1] * 5


@pytest.mark.parametrize("seed", range(4))
def test_generated_cycle_levels_build_their_monodromy_once(monkeypatch, seed):
    built = _monodromies_by_lattice(monkeypatch)
    inst = random_icis_instance(seed, 1, 2, 8, with_cycles=True)
    gradient_index(inst)
    with_cycles = [level for level in inst.levels if level.cycles is not None]
    assert with_cycles
    for level in with_cycles:
        cycle_index_sum(level, 1)
    assert [built[id(level.lattice)] for level in inst.levels] == [1] * 3
    assert sum(built.values()) == 3  # the generator analyses no chunk


def test_generator_builds_only_accepted_chunks(monkeypatch):
    # every try, accepted or not, is tested on plain rows: no matrix,
    # lattice, var_inverse or analysis is built for a chunk, and each
    # instance builds one lattice, one var_inverse and one analysis, of
    # its direct sum
    lattices = _counting(monkeypatch, conjugation, "ThimbleLattice")
    var_inverses = _counting(monkeypatch, conjugation, "var_inverse")
    analyses = _counting(monkeypatch, conjugation, "LevelAnalysis")
    matrices = _counting(monkeypatch, IntMatrix, "__init__")
    tries = _counting(monkeypatch, conjugation, "squares_to_identity",
                      key=conjugation.squares_to_identity)
    per_chunk = []
    sample = conjugation._sample_chunk

    def sample_counting(*args):
        before = matrices.total()
        got = sample(*args)
        per_chunk.append(matrices.total() - before)
        return got
    monkeypatch.setattr(conjugation, "_sample_chunk", sample_counting)
    seeds = range(40)
    for seed in seeds:
        generate_level(seed, 16, 1 + seed % 4)
    accepted = tries[True]
    assert tries[False] > accepted > len(seeds)
    assert per_chunk and set(per_chunk) == {0}
    assert [c.total() for c in (lattices, var_inverses, analyses)] == [len(seeds)] * 3


@pytest.mark.parametrize("seed", [100, 101, 102, 103])
def test_verify_checks_each_generated_level_once(monkeypatch, seed):
    # the generator checks the block form of each level it draws, and no
    # family of verify asks again
    levels = []
    direct_sum = conjugation._direct_sum

    def recording(*args):
        levels.append(direct_sum(*args))
        return levels[-1]
    monkeypatch.setattr(conjugation, "_direct_sum", recording)
    checked = _counting(monkeypatch, LevelAnalysis, "block_structure_problem",
                        key=id)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--seed", str(seed), "--count", "35",
                     "--rank-bound", "16"]) == 0
    assert len(levels) > 20  # four families in seven draw levels
    assert checked == {id(analysis): 1 for analysis in levels}


def test_real_only_level_0_is_one_pass_of_real_chunks(monkeypatch):
    # level 0 is drawn once, by one call of the generator's entry point
    # with pairs left out, and no sampled chunk holds a conjugate pair
    passes = _counting(monkeypatch, gen, "generate_level",
                       key=lambda *args, pairs=True: pairs)
    sampled = []
    sample = conjugation._sample_chunk

    def sample_logging(*args):
        got = sample(*args)
        sampled.append(got)
        return got
    monkeypatch.setattr(conjugation, "_sample_chunk", sample_logging)
    seeds = range(10)
    for seed in seeds:
        random_icis_instance(seed, 1 + seed % 3, 0, 24, real_only_level0=True)
    assert passes == {False: len(seeds)}
    points = [pt for got in sampled if got is not None for pt in got[2]]
    assert points and not any(isinstance(pt, ConjugatePair) for pt in points)


@pytest.mark.parametrize("seed", [100, 101, 102, 103])
def test_braid_invariance_applies_each_word_once_in_verify(monkeypatch, seed):
    # count apply_braid_word under every name a vanlat module binds it to
    applied = collections.Counter()

    def counting(lat, word):
        applied[None] += 1
        return apply_braid_word(lat, word)
    rebind(monkeypatch, apply_braid_word, counting)
    checked = _counting(monkeypatch, suite, "var_inverse_as_operator_after_braid")
    inverses = _counting(monkeypatch, IntMatrix, "unimodular_inverse")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--seed", str(seed), "--count", "35",
                     "--rank-bound", "16"]) == 0
    assert sum(checked.values()) == 5  # one family in seven
    assert sum(applied.values()) == 5
    assert sum(inverses.values()) == 0


def _built_rows(monkeypatch):
    """Count the rows the row kernel sums, by type (``dict`` or
    ``list``), and the dense rows built from sparse stored ones
    (``densified``), under every name a vanlat module binds them to.  A
    product's sums are counted as the kernel returns them; a sweep's, as
    the kernel hands each to ``store_row``."""
    built = collections.Counter()
    combine, store, dense = intmat.combine_rows, intmat.store_row, intmat.dense_row
    sweeping = []

    def combining(weight_rows, rows, width, *args, **kwargs):
        if "_sweep" not in kwargs:
            out = combine(weight_rows, rows, width, *args, **kwargs)
            built.update(type(acc).__name__ for acc in out)
            return out
        sweeping.append(True)
        try:
            return combine(weight_rows, rows, width, *args, **kwargs)
        finally:
            sweeping.pop()

    def storing(row, width):
        if sweeping:
            built[type(row).__name__] += 1
        return store(row, width)

    def densifying(row, width):
        if type(row) is dict:
            built["densified"] += 1
        return dense(row, width)
    rebind(monkeypatch, combine, combining)
    rebind(monkeypatch, store, storing)
    rebind(monkeypatch, dense, densifying)
    return built


def test_a_64_companion_and_form_take_the_sparse_path(monkeypatch):
    # the monodromy, the companion, its square, var_inverse and the form
    # of the A_64 tower are stored sparse, and every row the kernel sums
    # for them is a dict: no dense row is built
    lat, conj = a_k_level(64)
    built = _built_rows(monkeypatch)
    analysis = LevelAnalysis(lat, conj)
    tilde = analysis.companion
    assert analysis.signature.n_zero == 0
    for m in (lat.gram, conj.sigma, analysis.monodromy, tilde, tilde * tilde,
              analysis.var_inverse, analysis.form):
        assert {type(row) for row in m.stored_rows} == {dict}
    # the sweep, sigma * H, its square (twice) and var_inverse * sigma
    assert built == {"dict": 5 * 64}


def test_no_stored_dict_row_holds_a_zero(monkeypatch, tmp_path):
    # the kernel leaves the zeros that cancellation makes in a dict sum,
    # and storing the sum drops them: over the A_64 tower's commands, a
    # random lattice's braid word and a short verify run, whose products
    # cancel, rows with zeros are stored, and no matrix holds one
    counts = collections.Counter()
    init, store = IntMatrix.__init__, intmat.store_row

    def building(self, rows, ncols=None):
        init(self, rows, ncols)
        dicts = [row for row in self.stored_rows if type(row) is dict]
        counts["dict"] += len(dicts)
        counts["zero"] += sum(0 in row.values() for row in dicts)

    def storing(row, width):
        counts["cleaned"] += type(row) is dict and 0 in row.values()
        return store(row, width)
    monkeypatch.setattr(IntMatrix, "__init__", building)
    monkeypatch.setattr(intmat, "store_row", storing)
    path = tmp_path / "a64.vl"
    path.write_text(serialize_instance(InstanceDocument(a_k_instance(64))))
    rng = random.Random(64)
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["validate", str(path)], ["compute", str(path), "--what", "index"],
                     ["verify", "--seed", "7", "--count", "14", "--rank-bound", "32"]):
            assert main(argv) == 0
    apply_braid_word(random_lattice(rng, 64, 1), random_braid_word(rng, 64, max_len=24))
    assert counts["dict"] > 1000 and counts["cleaned"] > 0 and counts["zero"] == 0


def test_a_64_products_that_cancel_store_no_row_again(monkeypatch):
    # sigma^2 and the companion's square are the identity, so their sums
    # cancel; the involution test reads each square's rows as the kernel
    # sums them, zeros and all, and stores none, and a product that is
    # kept stores each row once, when store_row drops its zeros
    lat, conj = a_k_level(64)
    analysis = LevelAnalysis(lat, conj)
    tilde = analysis.companion
    assert analysis.signature.n_zero == 0
    stored = _counting(monkeypatch, intmat, "store_row")
    assert conj.sigma.is_involution() and tilde.is_involution()
    assert sum(stored.values()) == 0
    assert conj.sigma * conj.sigma == tilde * tilde == IntMatrix.identity(64)
    assert sum(stored.values()) == 2 * 64
    assert max(len(row) for row in conj.sigma.stored_rows) == 3


def test_a_64_var_builds_no_dense_row(monkeypatch):
    # var sweeps the gram's dict rows with start 0, so its terms c <= k
    # add nothing, every row it sums is a dict and none is densified
    lat = a_k_level(64)[0]
    built = _built_rows(monkeypatch)
    x = variation.var(lat)
    assert built == {"dict": 64}
    assert {type(row) for row in x.stored_rows} == {dict}


def test_dense_rank_64_braid_congruence_takes_the_dense_path(monkeypatch):
    # a dense random lattice and its congruence stay dense, while the
    # basis change, the identity outside a few columns, is stored sparse
    rng = random.Random(64)
    lat = random_lattice(rng, 64, 1)
    word = random_braid_word(rng, 64, max_len=24)
    built = _built_rows(monkeypatch)
    moved, change = apply_braid_word(lat, word)
    # the two products of P^T G P sum into lists; the kernel's other rows
    # are the moved columns of P, kept as dicts
    assert built["list"] == 2 * 64 and set(built) == {"list", "dict"}
    for m in (lat.gram, moved.gram):
        assert {type(row) for row in m.stored_rows} == {tuple}
    assert sum(type(row) is dict for row in change.matrix.stored_rows) >= 64 - 2 * len(word)


def test_rank_64_braid_word_builds_four_matrices(monkeypatch):
    # the closed-form gram, P^T from the word's columns, P derived from it
    # and the congruence; the congruence's products and transposes run on
    # rows, and the determinant is taken on P^T
    rng = random.Random(64)
    lat = random_lattice(rng, 64, 1)
    kinds = list("aAf" * 8)
    rng.shuffle(kinds)
    word = BraidWord(tuple(BraidMove(kind, rng.randint(1, 64 if kind == "f" else 63))
                           for kind in kinds))
    built = _counting(monkeypatch, IntMatrix, "__init__")
    moved, change = apply_braid_word(lat, word)
    assert len(word) == 24 and sum(built.values()) == 4
    assert change.columns == change.matrix.transpose()
