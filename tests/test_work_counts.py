"""Work guards: counts of the expensive calls, not timings.

The index and signature routes must not take a determinant (the form's
signature already reports its radical), and each form's symmetry is
checked once, by its signature.  Every route that reads a level shares
one analysis, and a consistent level's form certifies its consistency,
so each level's monodromy is built at most once, and only where its
companion is read: for cycle data and for the sign flip.  ``validate``,
``compute --what index`` and ``--what signature`` on the A_64 tower
build no monodromy and no companion.  The generator forms each conjugation
as ``U S U^-1``, without ``var`` and without assembling it again through
``build_sigma``; it tries no draw, so every level of positive rank makes
the same row-kernel calls, and it builds one lattice, one
``var_inverse`` and one analysis per generated level, which the level
keeps.  Each generated level's sigma is squared once and its block form
checked once, by the generator, and never again by ``verify``; it forms
no ``var_inverse * sigma``, since its form is known to be ``B``.  The
braid-invariance family of ``verify`` applies each word once and never
inverts the basis change.  Each level's sigma is squared once, whether
it was assembled by ``build_sigma``, read from a file or generated.
Each matrix row is stored by its fill: every matrix of the A_64 tower's
analysis, and its ``var``, is
sparse and the row kernel sums it as dicts, with no dense row built,
while a dense random lattice and its braid congruence stay dense.  The
kernel leaves the zeros of a dict sum that cancels, and storing the sum
drops them, once per row; the involution test stores no row.  A braid
word builds three matrices, and its basis change ``P`` only when read.

The row kernel's cost, each nonzero weight charged the stored length of
the row it reads, grows at most cubically in the rank on dense random
lattices, the consistency verdict of a level that the certificate refuses
included, and at most linearly on A_k towers.  So does the work of the
elimination steps behind ``IntMatrix.det`` and ``exact_signature``, each
step charged the rows it is handed times its pivot row's width, on dense
random grams; ``det`` eliminates forward only, so its steps are handed
exactly ``n^2 (n - 1) / 2`` row widths on a dense ``n x n`` gram.  The
counts are deterministic, so these growth gates cannot flake where
timings would.
"""

import collections
import contextlib
import io
import random
from functools import cached_property

import pytest

from conftest import a_k_instance, a_k_level, instance_path, rebind
from vanlat import conjugation, gen, intmat, suite, variation
from vanlat.basis import BraidMove, BraidWord, apply_braid_word, monodromy
from vanlat.cli import main
from vanlat.conjugation import LevelAnalysis, MorseSpec, RealPoint, build_sigma
from vanlat.gen import (flip_last_sign, generate_level, level_with_cycles,
                        random_braid_word, random_icis_instance, random_lattice)
from vanlat.index import (cycle_index_sum, gradient_index, sign_independence_check,
                          telescoped_index)
from vanlat.instfile import InstanceDocument, serialize_instance
from vanlat.intmat import IntMatrix
from vanlat.signature import exact_signature


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
    # route over it read one analysis, whose form certifies the level
    # consistent; only level 0 builds a monodromy, once, because the sign
    # flip reads its companion
    built = _monodromies_by_lattice(monkeypatch)
    inst = random_icis_instance(seed, 1 + seed % 3, 2, 6)
    flipped = flip_last_sign(inst)
    assert telescoped_index(inst) == gradient_index(inst)
    assert sign_independence_check([inst, flipped]) is None
    assert built == {id(inst.levels[0].lattice): 1}


def _computed(monkeypatch, name):
    """Log the analyses that compute the cached property ``name`` of
    :class:`LevelAnalysis`, one entry per computation."""
    built = []
    original = getattr(LevelAnalysis, name)

    def building(analysis):
        built.append(analysis)
        return original.func(analysis)
    counting = cached_property(building)
    counting.__set_name__(LevelAnalysis, name)
    monkeypatch.setattr(LevelAnalysis, name, counting)
    return built


def test_a_64_commands_build_no_monodromy_and_no_companion(monkeypatch, tmp_path):
    # the form certifies the tower consistent, so validate, the index and
    # the signature read neither the monodromy nor the companion
    monodromies = _monodromies_by_lattice(monkeypatch)
    companions = _computed(monkeypatch, "companion")
    path = tmp_path / "a64.vl"
    path.write_text(serialize_instance(InstanceDocument(a_k_instance(64))))
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["validate", str(path)], ["compute", str(path), "--what", "index"],
                     ["compute", str(path), "--what", "signature"]):
            assert main(argv) == 0
    assert sum(monodromies.values()) == 0 and companions == []


def test_bad_sigma_builds_its_companion_once(monkeypatch):
    # a level the form does not certify takes both verdicts on its
    # companion, built once
    monodromies = _monodromies_by_lattice(monkeypatch)
    companions = _computed(monkeypatch, "companion")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["validate", str(instance_path("bad_sigma.vl"))]) == 1
    assert ("level 0: FAIL conjugation: companion not an involution; "
            "companion not block lower triangular") in out.getvalue().splitlines()
    assert sum(monodromies.values()) == 1 and len(companions) == 1


def test_each_route_squares_its_sigma_once(monkeypatch, tmp_path):
    # the A_64 tower assembled by build_sigma and indexed, its file through
    # compute --what index, and a generated level indexed: each squares
    # its one sigma once, in the analysis or in the generator, and the
    # certified form leaves the companion unsquared
    squared = []
    square = intmat.squares_to_identity

    def counting(rows):
        squared.append(rows)
        return square(rows)
    rebind(monkeypatch, square, counting)
    inst = a_k_instance(64)
    assert gradient_index(inst) == 0
    assert len(squared) == 1 and squared[0] is inst.levels[0].conj.sigma.stored_rows
    squared.clear()
    path = tmp_path / "a64.vl"
    path.write_text(serialize_instance(InstanceDocument(inst)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["compute", str(path), "--what", "index"]) == 0
    assert len(squared) == 1
    squared.clear()
    inst = random_icis_instance(5, 1, 0, 16)
    gradient_index(inst)
    assert len(squared) == 1 and squared[0] is inst.levels[0].conj.sigma.stored_rows


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
    # the levels with cycle data read their companion, the other none
    assert [built[id(level.lattice)] for level in inst.levels] == [1, 0, 1]
    assert sum(built.values()) == 2  # the generator analyses no chunk


def test_generator_makes_the_same_kernel_calls_for_every_level(monkeypatch):
    # no draw is tried and rejected: every level of rank >= 1 makes five
    # row-kernel calls, the sweep for U^-1, the two products of sigma = (U
    # S) U^-1, V = B * sigma and the square of sigma, and builds one
    # lattice, one var_inverse and one analysis, and no var_inverse * sigma
    products = _computed(monkeypatch, "_product")
    lattices = _counting(monkeypatch, conjugation, "ThimbleLattice")
    var_inverses = _counting(monkeypatch, conjugation, "var_inverse")
    analyses = _counting(monkeypatch, conjugation, "LevelAnalysis")
    calls = collections.Counter()
    combine = intmat.combine_rows

    def counting(*args, **kwargs):
        calls[None] += 1
        return combine(*args, **kwargs)
    rebind(monkeypatch, combine, counting)
    per_level = []
    seeds = range(40)
    for seed in seeds:
        calls.clear()
        if generate_level(seed, 16, 1 + seed % 4).lattice.nu:
            per_level.append(calls[None])
    assert len(per_level) > 30 and set(per_level) == {5}
    assert [c.total() for c in (lattices, var_inverses, analyses)] == [len(seeds)] * 3
    assert products == []


@pytest.mark.parametrize("seed", [100, 101, 102, 103])
def test_verify_checks_each_generated_level_once(monkeypatch, seed):
    # the generator checks each level it draws once: sigma is squared once,
    # and var_inverse is compared with B * sigma, so no level forms the
    # product var_inverse * sigma, and its form is the forced block form
    # B; a passing level never takes the block-form report or the verdict
    # again, and no family of verify checks it again
    levels = []

    def recording(*args, **kwargs):
        levels.append(generate_level(*args, **kwargs))
        return levels[-1]
    rebind(monkeypatch, generate_level, recording)
    products = _computed(monkeypatch, "_product")
    verdicts = _computed(monkeypatch, "inconsistency")
    kept = []  # alive, so that no id is reused while the counts are read
    checked = _counting(monkeypatch, LevelAnalysis, "block_structure_problem",
                        key=lambda analysis: kept.append(analysis) or id(analysis))
    squared = _counting(monkeypatch, IntMatrix, "is_involution",
                        key=lambda m: kept.append(m) or id(m))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--seed", str(seed), "--count", "35",
                     "--rank-bound", "16"]) == 0
    assert len(levels) > 20  # four families in seven draw levels
    ids = {id(analysis) for analysis in levels}
    assert ids.isdisjoint(map(id, products))
    assert all(analysis.form == analysis.conj.morse.forced_form(analysis.lattice.parity)
               for analysis in levels)
    assert ids.isdisjoint(map(id, verdicts)) and ids.isdisjoint(checked)
    assert [squared[id(analysis.conj.sigma)] for analysis in levels] == [1] * len(levels)
    assert all(analysis.inconsistency is None for analysis in levels)


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
    # the square of sigma, the sweep, sigma * H, var_inverse * sigma and
    # the loop's square of the companion; the analysis squares sigma once,
    # and the form certifies the level, so the companion is not squared there
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
    # kept stores each row once, when store_row drops its zeros; the
    # identity they are compared with is built before the count starts
    lat, conj = a_k_level(64)
    analysis = LevelAnalysis(lat, conj)
    tilde = analysis.companion
    identity = IntMatrix.identity(64)
    assert analysis.signature.n_zero == 0
    stored = _counting(monkeypatch, intmat, "store_row")
    assert conj.sigma.is_involution() and tilde.is_involution()
    assert sum(stored.values()) == 0
    assert conj.sigma * conj.sigma == tilde * tilde == identity
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


def test_rank_64_braid_word_builds_three_matrices(monkeypatch):
    # the closed-form gram, P^T from the word's columns and the congruence;
    # the congruence's products and transposes run on rows, the determinant
    # is taken on P^T, and P is built only when it is read
    rng = random.Random(64)
    lat = random_lattice(rng, 64, 1)
    kinds = list("aAf" * 8)
    rng.shuffle(kinds)
    word = BraidWord(tuple(BraidMove(kind, rng.randint(1, 64 if kind == "f" else 63))
                           for kind in kinds))
    built = _counting(monkeypatch, IntMatrix, "__init__")
    moved, change = apply_braid_word(lat, word)
    assert len(word) == 24 and sum(built.values()) == 3
    assert change.columns == change.matrix.transpose()


def _kernel_cost(monkeypatch):
    """Charge the row kernel's reads, under every name a vanlat module
    binds it to: each nonzero weight costs the stored length of the row
    it reads, a dict's size or a tuple's width, and 1 for a sweep's start
    row.  A sweep's rows are read as the sweep makes them, since the
    kernel writes each new row into the list it reads from."""
    cost = collections.Counter()
    combine = intmat.combine_rows

    class Reading(list):
        def __getitem__(self, t):
            row = list.__getitem__(self, t)
            cost[None] += 1 if row is None else len(row)
            return row

    def charging(weight_rows, rows, width, *args, **kwargs):
        return combine(weight_rows, Reading(rows), width, *args, **kwargs)
    rebind(monkeypatch, combine, charging)
    return cost


def _elimination_cost(monkeypatch):
    """Charge each elimination step, under every name a vanlat module
    binds it to, the rows it is handed, a range or a list, times the width
    of its pivot row."""
    cost = collections.Counter()
    step = intmat.eliminate

    def charging(m, k, rows, prev):
        cost[None] += len(rows) * len(m[k])
        return step(m, k, rows, prev)
    rebind(monkeypatch, step, charging)
    return cost


def _costs(monkeypatch, run, sizes, charge=_kernel_cost):
    """The cost of ``run(operand)`` that ``charge`` counts, the row
    kernel's by default, for the operand of each size, built before its
    cost is counted."""
    cost = charge(monkeypatch)
    out = []
    for operand in sizes:
        cost.clear()
        run(operand)
        out.append(cost[None])
    return out


# A braid word valid at every rank from 32 on, fixed for all of them.
_WORD_RNG = random.Random(24)
_WORD_24 = BraidWord(tuple(BraidMove(kind, _WORD_RNG.randint(1, 31))
                           for kind in _WORD_RNG.choices("aAf", k=24)))


@pytest.mark.parametrize("run", [
    monodromy,
    variation.var,
    lambda lat: variation.var(lat) * variation.var_inverse(lat).transpose(),
    lambda lat: apply_braid_word(lat, _WORD_24),
], ids=["monodromy", "var", "var-times-var-inverse-transposed", "braid-word-24"])
def test_dense_costs_grow_at_most_cubically(monkeypatch, run):
    # on dense random lattices of ranks 32, 64 and 128 each doubling
    # multiplies the kernel cost by at most 8.5: cubic in the rank, with
    # room for the lower-order terms
    lattices = [random_lattice(random.Random(nu), nu, 1) for nu in (32, 64, 128)]
    costs = _costs(monkeypatch, run, lattices)
    assert costs[0] > 0
    assert max(b / a for a, b in zip(costs, costs[1:])) <= 8.5, costs


def _refused_level(nu):
    """A dense random lattice of rank ``nu`` with the forced-block sigma of
    real points of alternating Morse index: its form ``var_inverse *
    sigma`` is dense upper triangular, so the certificate refuses it."""
    lat = random_lattice(random.Random(nu), nu, 1)
    return lat, build_sigma(MorseSpec(tuple(RealPoint(r % 2) for r in range(nu))), 1, ())


def test_refused_level_verdict_costs_grow_at_most_cubically(monkeypatch):
    # the verdict of a level the certificate refuses builds the monodromy,
    # the companion and the companion's square; on ranks 32, 64 and 128
    # each doubling multiplies their kernel cost by at most 8.5
    levels = [_refused_level(nu) for nu in (32, 64, 128)]
    analyses = []

    def verdict(level):
        analyses.append(LevelAnalysis(*level))
        return analyses[-1].inconsistency
    costs = _costs(monkeypatch, verdict, levels)
    assert costs[0] > 0
    assert max(b / a for a, b in zip(costs, costs[1:])) <= 8.5, costs
    assert all(analysis.inconsistency is not None and "companion" in vars(analysis)
               for analysis in analyses)


def test_det_hands_its_steps_the_rows_below_each_pivot(monkeypatch):
    # forward elimination hands step k of an n x n gram the n - 1 - k rows
    # below its pivot, each n wide, on the dense random grams of ranks 16,
    # 32 and 64, each one component
    grams = [random_lattice(random.Random(nu), nu, 1).gram for nu in (16, 32, 64)]
    costs = _costs(monkeypatch, IntMatrix.det, grams, charge=_elimination_cost)
    assert costs == [n * n * (n - 1) // 2 for n in (16, 32, 64)] == [1920, 15872, 129024]


@pytest.mark.parametrize("run", [IntMatrix.det, exact_signature],
                         ids=["det", "exact-signature"])
def test_dense_elimination_steps_grow_at_most_cubically(monkeypatch, run):
    # on the grams of dense random lattices of ranks 16, 32 and 64 each
    # doubling multiplies the rows times the width that the elimination
    # steps touch by at most 8.5, the bar of the row-kernel gates.  Wall
    # time is not gated: it grows faster than cubically there, because
    # the Bareiss entries grow with the rank
    grams = [random_lattice(random.Random(nu), nu, 1).gram for nu in (16, 32, 64)]
    costs = _costs(monkeypatch, run, grams, charge=_elimination_cost)
    assert costs[0] > 0
    assert max(b / a for a, b in zip(costs, costs[1:])) <= 8.5, costs


@pytest.mark.parametrize("read", ["signature", "monodromy"])
def test_a_k_costs_grow_at_most_linearly(monkeypatch, read):
    # on A_k towers of ranks 256, 512 and 1024, whose rows stay sparse, a
    # fresh analysis's signature or monodromy costs at most 2.2 times as
    # much per doubling
    levels = [a_k_instance(k).levels[0] for k in (256, 512, 1024)]
    costs = _costs(monkeypatch, lambda level: getattr(
        LevelAnalysis(level.lattice, level.conj), read), levels)
    assert costs[0] > 0
    assert max(b / a for a, b in zip(costs, costs[1:])) <= 2.2, costs
