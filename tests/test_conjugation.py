import ast
import collections
import hashlib
import itertools
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vanlat
from conftest import (PAIR, coupled_alike, draw_level_reference,
                      forced_conjugation_reference, triple_loop, upper_entries)
from vanlat import basis, conjugation
from vanlat.basis import apply_braid_word, monodromy, parse_braid_word
from vanlat.conjugation import (ConjugatePair, ConjugationData,
                                GeneratedLevelError, LevelAnalysis, MorseSpec,
                                RealPoint, _build_sigma, _lattice_of,
                                assemble_sigma, build_sigma, morse_sign,
                                sigma_upper, signature_by_blocks)
from vanlat.gen import (_draw_level, flip_last_sign, generate_level,
                        random_icis_instance, random_lattice)
from vanlat.index import IcisInstance, LevelData
from vanlat.instfile import InstanceDocument, serialize_instance
from vanlat.intmat import SPARSE_MIN_COLS, IntMatrix, row_reduce, squares_to_identity
from vanlat.lattice import (SignVector, ThimbleLattice, mirror_sign,
                            validate_lattice)
from vanlat.signature import exact_signature
from vanlat.variation import var, var_inverse


def a2_lat():
    return ThimbleLattice(1, IntMatrix.from_rows([[2, -1], [-1, 2]]))


def test_build_sigma_single_minimum():
    conj = build_sigma(MorseSpec((RealPoint(0),)), 1, [])
    assert conj.sigma == IntMatrix.from_rows([[1]])


def test_build_sigma_diagonal_real_points():
    conj = build_sigma(MorseSpec((RealPoint(0), RealPoint(1))), 1, [])
    assert conj.sigma == IntMatrix.from_rows([[1, 0], [0, -1]])


def test_build_sigma_pair_block():
    conj = build_sigma(MorseSpec((ConjugatePair(3),)), 1, [])
    assert conj.sigma == IntMatrix.from_rows([[0, 1], [1, 0]])


def test_build_sigma_leaves_a_non_involution_to_the_analysis():
    # equal Morse parity on both slots forces the upper entry to vanish;
    # build_sigma assembles the sigma anyway, as the reader does, and the
    # analysis reports it
    conj = build_sigma(MorseSpec((RealPoint(0), RealPoint(0))), 1, [(0, 1, 1)])
    assert conj.sigma.rows == ((1, 1), (0, 1))
    lat = ThimbleLattice(1, IntMatrix.from_rows([[2, 1], [1, 2]]))
    assert LevelAnalysis(lat, conj).inconsistency == "companion not an involution"


def test_build_sigma_rejects_entries_outside_upper_blocks():
    morse = MorseSpec((ConjugatePair(0), RealPoint(1)))
    with pytest.raises(ValueError, match="block diagonal"):
        build_sigma(morse, 1, [(1, 0, 1)])  # inside the pair block
    with pytest.raises(ValueError, match="block diagonal"):
        build_sigma(morse, 1, [(2, 0, 1)])  # below the diagonal


@pytest.mark.parametrize("triple", [(0, 1, 1.5), (0, 1, True), (0, 1, "7"),
                                    (0.0, 1, 1), (0, True, 1), (0, 1),
                                    (0, 1, 1, 1), 5])
def test_build_sigma_rejects_non_integer_triples(triple):
    # opposite Morse parities make any upper entry an involution, so only
    # the type check can refuse these
    morse = MorseSpec((RealPoint(0), RealPoint(1)))
    assert build_sigma(morse, 1, [(0, 1, 7)]).sigma == \
        IntMatrix.from_rows([[1, 7], [0, -1]])
    with pytest.raises(ValueError, match="not an integer triple"):
        build_sigma(morse, 1, [triple])


def test_build_sigma_rejects_bad_morse_index():
    with pytest.raises(ValueError, match="Morse index"):
        build_sigma(MorseSpec((RealPoint(2),)), 1, [])


def test_derive_sigma_tilde_a1_minimum():
    lat = ThimbleLattice(1, IntMatrix.from_rows([[2]]))
    conj = build_sigma(MorseSpec((RealPoint(0),)), 1, [])
    analysis = LevelAnalysis(lat, conj)
    assert analysis.companion == IntMatrix.from_rows([[-1]])
    assert analysis.inconsistency is None


def test_derive_sigma_tilde_rank_zero():
    lat = ThimbleLattice(1, IntMatrix(()))
    conj = build_sigma(MorseSpec(()), 1, [])
    assert LevelAnalysis(lat, conj).inconsistency is None


def test_derive_sigma_tilde_a2_diag_verdict():
    # diag(1, -1) on the A2 lattice: the companion fails both properties
    conj = ConjugationData(IntMatrix.from_rows([[1, 0], [0, -1]]),
                           MorseSpec((RealPoint(0), RealPoint(1))))
    analysis = LevelAnalysis(a2_lat(), conj)
    assert analysis.companion == IntMatrix.from_rows([[0, -1], [-1, 1]])
    assert analysis.inconsistency == ("companion not an involution; "
                                      "companion not block lower triangular")


@pytest.mark.parametrize("sigma, companion, verdict", [
    ([[-2, 2], [-2, -2]], [[2, 0], [-2, 4]], "companion not an involution"),
    ([[-1, 0], [-1, 1]], [[0, 1], [1, 0]], "companion not block lower triangular"),
], ids=["involution", "block-lower-triangular"])
def test_companion_fails_one_verdict(sigma, companion, verdict):
    # each verdict alone: the inconsistency is that verdict's text, and the
    # block check and the form report it after the same prefix
    conj = ConjugationData(IntMatrix.from_rows(sigma),
                           MorseSpec((RealPoint(0), RealPoint(1))))
    analysis = LevelAnalysis(a2_lat(), conj)
    assert analysis.companion == IntMatrix.from_rows(companion)
    assert analysis.inconsistency == verdict
    assert analysis.block_structure_problem() == "inconsistent instance: " + verdict
    with pytest.raises(ValueError) as caught:
        analysis.form
    assert str(caught.value) == "inconsistent instance: " + verdict


def test_derive_sigma_tilde_rank_mismatch():
    conj = build_sigma(MorseSpec((RealPoint(0),)), 1, [])
    with pytest.raises(ValueError, match="rank"):
        LevelAnalysis(a2_lat(), conj).companion


def test_descriptors_must_cover_the_rank():
    # one real slot on a rank-2 lattice: the block scans would read one
    # span for two rows, so the analysis refuses the data at once
    lat = ThimbleLattice(1, IntMatrix.from_rows([[2, 0], [0, 2]]))
    conj = ConjugationData(IntMatrix.identity(2), MorseSpec((RealPoint(0),)))
    with pytest.raises(ValueError) as caught:
        LevelAnalysis(lat, conj)
    assert str(caught.value) == ("rank mismatch: the descriptors cover 1 slots, "
                                 "lattice has rank 2")


def test_var_sigma_form_examples():
    # the analysis' form var_inverse * sigma and its signature, which
    # raises on an asymmetric or degenerate form
    lat1 = ThimbleLattice(1, IntMatrix.from_rows([[2]]))
    conj1 = build_sigma(MorseSpec((RealPoint(0),)), 1, [])
    analysis = LevelAnalysis(lat1, conj1)
    assert analysis.form == IntMatrix.from_rows([[-1]])
    assert analysis.signature.sgn == -1

    # consistent two-real-point instance: upper sigma entry equals the coupling
    lat2 = a2_lat()
    conj2 = build_sigma(MorseSpec((RealPoint(0), RealPoint(1))), 1, [(0, 1, -1)])
    analysis2 = LevelAnalysis(lat2, conj2)
    assert analysis2.form == IntMatrix.from_rows([[-1, 0], [0, 1]])
    assert analysis2.signature.sgn == 0

    # conjugate pair at odd parity: forced block shape, signature zero
    g = 1
    lat3 = ThimbleLattice(1, IntMatrix.from_rows([[2, g], [g, 2]]))
    conj3 = build_sigma(MorseSpec((ConjugatePair(g),)), 1, [])
    analysis3 = LevelAnalysis(lat3, conj3)
    assert analysis3.form == IntMatrix.from_rows([[-g, -1], [-1, 0]])
    assert analysis3.signature.sgn == 0
    assert analysis3.signature == exact_signature(analysis3.form)


def test_var_sigma_form_rejects_inconsistent():
    conj = ConjugationData(IntMatrix.from_rows([[1, 0], [0, -1]]),
                           MorseSpec((RealPoint(0), RealPoint(1))))
    with pytest.raises(ValueError, match="inconsistent"):
        LevelAnalysis(a2_lat(), conj).form
    with pytest.raises(ValueError, match="inconsistent"):
        LevelAnalysis(a2_lat(), conj).signature


def test_signature_asserts_a_symmetric_nondegenerate_form():
    # on a consistent level the form is symmetric and unimodular, so a
    # violation is an internal error: seed the cached form to reach both
    asymmetric = IntMatrix.from_rows([[1, 2], [0, 1]])
    analysis = LevelAnalysis(a2_lat(), build_sigma(
        MorseSpec((RealPoint(0), RealPoint(1))), 1, [(0, 1, -1)]))
    analysis.__dict__["form"] = asymmetric
    with pytest.raises(AssertionError) as caught:
        analysis.signature
    assert str(caught.value) == ("form %s is not symmetric on a consistent "
                                 "instance" % (asymmetric,))
    degenerate = IntMatrix.from_rows([[1, 1], [1, 1]])
    analysis.__dict__["form"] = degenerate
    with pytest.raises(AssertionError) as caught:
        analysis.signature
    assert str(caught.value) == ("form %s is degenerate on a consistent "
                                 "instance" % (degenerate,))


def test_block_structure_check_positive_cases():
    lat1 = ThimbleLattice(1, IntMatrix.from_rows([[2]]))
    conj1 = build_sigma(MorseSpec((RealPoint(0),)), 1, [])
    assert LevelAnalysis(lat1, conj1).block_structure_problem() is None
    conj2 = build_sigma(MorseSpec((RealPoint(0), RealPoint(1))), 1, [(0, 1, -1)])
    assert LevelAnalysis(a2_lat(), conj2).block_structure_problem() is None
    lat3 = ThimbleLattice(1, IntMatrix.from_rows([[2, 1], [1, 2]]))
    conj3 = build_sigma(MorseSpec((ConjugatePair(1),)), 1, [])
    assert LevelAnalysis(lat3, conj3).block_structure_problem() is None
    lat0 = ThimbleLattice(1, IntMatrix(()))
    conj0 = build_sigma(MorseSpec(()), 1, [])
    assert LevelAnalysis(lat0, conj0).block_structure_problem() is None


def test_block_structure_check_locates_corruption():
    # involution still holds with upper entry 5, but consistency breaks
    conj = build_sigma(MorseSpec((RealPoint(0), RealPoint(1))), 1, [(0, 1, 5)])
    report = LevelAnalysis(a2_lat(), conj).block_structure_problem()
    assert report is not None and "inconsistent" in report


def test_block_structure_check_names_the_kind_of_block():
    # consistent data that misses the forced form: a sub-diagonal entry,
    # and a real slot carrying the other Morse index's sign
    lat = ThimbleLattice(1, IntMatrix.from_rows([[2, 0], [0, 2]]))
    conj = ConjugationData(IntMatrix.from_rows([[1, 0], [1, -1]]),
                           MorseSpec((RealPoint(0), RealPoint(1))))
    assert (LevelAnalysis(lat, conj).block_structure_problem()
            == "off-block entry (1, 0) = -1, expected 0")
    one = ThimbleLattice(1, IntMatrix.from_rows([[2]]))
    conj = ConjugationData(IntMatrix.from_rows([[1]]), MorseSpec((RealPoint(1),)))
    assert (LevelAnalysis(one, conj).block_structure_problem()
            == "real block at slot 0: entry -1, expected 1")


def test_companion_problems_render_both_verdicts():
    conj = build_sigma(MorseSpec((RealPoint(0), RealPoint(1))), 1, [(0, 1, 5)])
    bad = LevelAnalysis(a2_lat(), conj).inconsistency
    assert bad == ("companion not an involution; "
                   "companion not block lower triangular")
    assert (LevelAnalysis(a2_lat(), conj).block_structure_problem()
            == "inconsistent instance: " + bad)
    good = build_sigma(MorseSpec((RealPoint(0), RealPoint(1))), 1, [(0, 1, -1)])
    assert LevelAnalysis(a2_lat(), good).inconsistency is None


def test_spans_follow_the_blocks():
    morse = MorseSpec((ConjugatePair(3), RealPoint(0), RealPoint(1),
                       ConjugatePair(0), RealPoint(2)))
    assert morse.spans == ((0, 2), (0, 2), (2, 3), (3, 4), (4, 6), (4, 6),
                           (6, 7))
    for start, size, _ in morse.blocks():
        assert all(morse.spans[slot] == (start, start + size)
                   for slot in range(start, start + size))
    assert MorseSpec(()).spans == ()


@pytest.mark.parametrize("parity", range(5))
def test_forced_form_is_the_form_of_generated_instances(parity):
    for seed in range(12):
        level = generate_level(seed, 10, parity)
        assert (level.conj.morse.forced_form(parity)
                == var_inverse(level.lattice) * level.conj.sigma)


@pytest.mark.parametrize("m", [-3, -2, -1, 0, 1, 2, 3])
def test_morse_signs_are_ints_at_every_index(m):
    # a spec built directly skips validate, so negative indices reach these
    want = 1 - 2 * (m % 2)
    assert type(morse_sign(m)) is int and morse_sign(m) == want
    morse = MorseSpec((RealPoint(m),))
    lat = ThimbleLattice(1, IntMatrix.from_rows([[2]]))
    got = [morse.forced_form(1)[0, 0],
           signature_by_blocks(lat, ConjugationData(IntMatrix.identity(1), morse)),
           _build_sigma(morse, (), ())[0, 0]]
    if m >= 0:  # build_sigma refuses a Morse index outside 0..parity
        got.append(build_sigma(morse, 3, ()).sigma[0, 0])
    assert [type(x) for x in got] == [int] * len(got)
    assert got == [-want, -want, want, want][:len(got)]


def test_block_structure_check_wrong_pairing_number():
    lat = ThimbleLattice(1, IntMatrix.from_rows([[2, 1], [1, 2]]))
    conj = build_sigma(MorseSpec((ConjugatePair(7),)), 1, [])
    report = LevelAnalysis(lat, conj).block_structure_problem()
    assert report is not None and "pair block" in report


def test_generator_is_deterministic():
    a = generate_level(404, 6, 3)
    b = generate_level(404, 6, 3)
    assert a.lattice.gram == b.lattice.gram
    assert a.conj.sigma == b.conj.sigma
    assert a.conj.morse == b.conj.morse


@pytest.mark.parametrize("rank_bound", [0, 4, 16, 64])
def test_level_draws_are_the_stdlib_draws(rank_bound):
    # the draws made from getrandbits give the descriptors, K entries and
    # couplings that randint and choice give, at each parity the Morse
    # index draw covers, over thousands of draws in a row from one seed
    for seed in range(3000):
        for parity in range(6):
            assert (_draw_level(seed, rank_bound, parity)
                    == draw_level_reference(seed, rank_bound, parity))


def _names_and_imports(path):
    """The names, attribute names and imported modules of a source file."""
    names, imports = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Import):
            imports.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imports.add(node.module)
    return names, imports


def test_every_draw_rule_lives_in_gen():
    # conjugation and lattice import no random and call no getrandbits,
    # and gen is the one module that draws from getrandbits by CPython's
    # rule
    package = pathlib.Path(vanlat.__file__).resolve().parent
    for name in ("conjugation.py", "lattice.py"):
        names, imports = _names_and_imports(package / name)
        assert "random" not in imports and "getrandbits" not in names, name
    assert {path.name for path in package.glob("*.py")
            if "getrandbits" in _names_and_imports(path)[0]} == {"gen.py"}


@pytest.mark.parametrize("rank_bound", [4, 16, 64])
def test_sigma_upper_is_the_inverse_of_assemble_sigma(rank_bound):
    # the triples an instance file stores give every generated sigma back
    for seed in range(1000):
        conj = generate_level(seed, rank_bound, seed % 6).conj
        assert assemble_sigma(conj.morse, sigma_upper(conj)).sigma == conj.sigma


def test_sigma_upper_refuses_what_no_triples_give_back():
    # an entry left of a row's diagonal block, or a diagonal block other
    # than the forced one, is not stored by any sigma_upper
    morse = MorseSpec((ConjugatePair(0), RealPoint(1)))
    good = build_sigma(morse, 1, [(0, 2, 3), (1, 2, 3)])
    assert sigma_upper(good) == [[0, 2, 3], [1, 2, 3]]
    for (r, c), want in [((2, 0), r"^sigma entry \(2, 0\) = 1 is left of the "
                                  r"diagonal block of its row$"),
                         ((2, 1), r"^sigma entry \(2, 1\) = 1 is left"),
                         ((1, 1), "^the diagonal block of sigma at slot 0 is not "
                                  "the forced one$"),
                         ((0, 0), "at slot 0 is not"),
                         ((2, 2), "at slot 2 is not")]:
        rows = good.sigma.to_lists()
        rows[r][c] += 1
        bad = ConjugationData(IntMatrix.from_rows(rows), morse)
        with pytest.raises(ValueError, match=want):
            sigma_upper(bad)


def test_bench_shims_equal_the_api_they_wrap():
    # the benchmark under bench/ calls these names; each must stay what it
    # wraps, on consistent levels and on an inconsistent one, and none is
    # exported
    wrappers = {"a": basis.braid_alpha, "A": basis.braid_alpha_inverse,
                "f": basis.orientation_flip}
    assert not ({"derive_sigma_tilde", "generate_consistent_instance"}
                | {f.__name__ for f in wrappers.values()}) & set(vanlat.__all__)
    lat = random_lattice(random.Random(5), 6, 3)
    for kind, move in wrappers.items():
        for j in range(1, 6):
            word = parse_braid_word("%s%d" % (kind, j))
            assert move(lat, j) == apply_braid_word(lat, word)
    for seed in (0, 1, 7, 404):
        parity = seed % 5
        level = generate_level(seed, 12, parity)
        lat, conj = conjugation.generate_consistent_instance(seed, 12, parity)
        assert (lat, conj) == (level.lattice, level.conj)
        assert (conjugation.derive_sigma_tilde(conj, lat)
                == LevelAnalysis(lat, conj).companion)
    bad = ConjugationData(IntMatrix.from_rows([[1, 0], [0, -1]]),
                          MorseSpec((RealPoint(0), RealPoint(1))))
    analysis = LevelAnalysis(a2_lat(), bad)
    assert analysis.inconsistency == ("companion not an involution; "
                                      "companion not block lower triangular")
    assert conjugation.derive_sigma_tilde(bad, a2_lat()) == analysis.companion


def test_generator_output_is_always_structurally_good():
    for seed in range(40):
        parity = 1 + seed % 4
        level = generate_level(seed, 7, parity)
        lat, conj = level.lattice, level.conj
        assert validate_lattice(lat) is None
        analysis = LevelAnalysis(lat, conj)
        assert analysis.block_structure_problem() is None
        assert analysis.inconsistency is None
        # the signature raises on an asymmetric or degenerate form
        assert analysis.signature.sgn == signature_by_blocks(lat, conj)


def test_generator_reaches_the_minimum_instance_at_rank_one():
    seen = set()
    for seed in range(60):
        level = generate_level(seed, 1, 1)
        if level.lattice.nu == 1:
            seen.add(level.conj.sigma[0, 0])
            assert level.lattice.gram == IntMatrix.from_rows([[2]])
    assert 1 in seen  # the minimum: sigma = [[1]]


def test_generator_rank_zero_bound():
    level = generate_level(9, 0, 2)
    assert level.lattice.nu == 0 and level.conj.nu == 0


def test_generated_level_asserts_its_consistency(monkeypatch):
    # with S coupled between neighbouring real slots of one sign, sigma is
    # no involution, and the level raises, alone and as level 0 of a
    # tower, with the level and its block-form problem
    monkeypatch.setattr(conjugation, "_build_sigma",
                        coupled_alike(conjugation._build_sigma))
    with pytest.raises(GeneratedLevelError) as caught:
        generate_level(5, 16, 1)
    err = caught.value
    assert isinstance(err, ValueError) and not err.conj.sigma.is_involution()
    problem = LevelAnalysis(err.lattice, err.conj).block_structure_problem()
    assert problem is not None and err.problem == problem
    assert str(err) == "generated level fails its check: " + problem
    with pytest.raises(GeneratedLevelError):
        random_icis_instance(5, 1, 0, 16)


def test_generated_level_check_survives_optimization():
    # the check is an explicit raise, so ``python -O`` keeps it
    src = pathlib.Path(conjugation.__file__).resolve().parent.parent
    tests = pathlib.Path(__file__).resolve().parent
    probe = ("from conftest import coupled_alike\n"
             "from vanlat import conjugation, gen\n"
             "conjugation._build_sigma = coupled_alike(conjugation._build_sigma)\n"
             "try:\n"
             "    gen.generate_level(5, 16, 1)\n"
             "except conjugation.GeneratedLevelError as e:\n"
             "    print(e.problem)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), str(tests))))
    done = subprocess.run([sys.executable, "-O", "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.startswith("inconsistent instance: ")


@pytest.mark.parametrize("rank_bound", [0, 8, 16, 64])
def test_generated_level_verdict_is_a_fresh_analysis_verdict(rank_bound):
    # the generator records a level consistent by one comparison of its
    # form with the forced block form; a fresh analysis, which squares
    # sigma and reads the certificate, gives the same verdict, form and
    # signature, and finds no block-form problem
    for seed in range(200):
        for parity in range(6):
            level = generate_level(seed, rank_bound, parity)
            fresh = LevelAnalysis(level.lattice, level.conj)
            assert fresh.block_structure_problem() is None
            assert level.inconsistency is fresh.inconsistency is None
            assert level.form == fresh.form
            assert level.signature == fresh.signature


_build = conjugation._build_sigma


def _transposed(morse, k_entries, couplings):
    """The transpose of the built sigma: an involution, but block lower
    triangular, so ``B * sigma`` is not upper triangular and the gram
    read off it is not the one of this sigma."""
    return _build(morse, k_entries, couplings).transpose()


def _last_pair_turned(morse, k_entries, couplings):
    """The built sigma conjugated by the sign change of the second slot of
    the last pair: an involution, block upper triangular, whose block at
    that pair is ``-J``, so ``B * sigma`` has ``-d`` on its diagonal there
    and the gram read off it gives the pair another block of the form."""
    q = [start for start, _, p in morse.blocks() if isinstance(p, ConjugatePair)][-1] + 1
    sigma = _build(morse, k_entries, couplings)
    return IntMatrix([[-x if (r == q) != (c == q) else x for c, x in enumerate(row)]
                      for r, row in enumerate(sigma.rows)])


_coupled_alike = coupled_alike(_build)


@pytest.mark.parametrize("builder, kind", [
    (_transposed, "inconsistent instance: "),
    (_last_pair_turned, "pair block at slot "),
    (_coupled_alike, "inconsistent instance: "),
])
def test_generated_level_that_fails_reports_the_block_structure_problem(
        monkeypatch, builder, kind):
    # a level whose sigma is an involution but whose var_inverse is not B *
    # sigma, for the certificate's failing or for a wrong pair block of
    # the form, and a level whose sigma is no involution: each raises, and
    # its problem is the text a fresh analysis of it reports
    monkeypatch.setattr(conjugation, "_build_sigma", builder)
    with pytest.raises(GeneratedLevelError) as caught:
        generate_level(0, 16, 1)  # coupled, with a pair and two real slots alike
    err = caught.value
    assert err.conj.sigma.is_involution() == (builder is not _coupled_alike)
    problem = LevelAnalysis(err.lattice, err.conj).block_structure_problem()
    assert problem.startswith(kind) and err.problem == problem
    assert str(err) == "generated level fails its check: " + problem


def _descriptor_sequences(size, parity):
    """Every drawn descriptor sequence over ``size`` slots: a Morse index
    in ``0..parity`` per real slot, ``PAIR`` per pair."""
    if size == 0:
        yield ()
        return
    for m in range(parity + 1):
        for rest in _descriptor_sequences(size - 1, parity):
            yield (m,) + rest
    if size >= 2:
        for rest in _descriptor_sequences(size - 2, parity):
            yield (PAIR,) + rest


# The gram entries of the sampled chunks the construction must cover, and
# the values the draws take for K and for a pairing number.
_ENTRIES = (0, 1, -1, 2, -2)


def _morse_of(drawn, pairings):
    """The descriptors of a drawn sequence, its pairs taking ``pairings``
    in turn."""
    pairings = iter(pairings)
    return MorseSpec(tuple(ConjugatePair(next(pairings)) if m == PAIR
                           else RealPoint(m) for m in drawn))


def _above_blocks(morse):
    """The positions strictly above the block diagonal of ``morse``."""
    size = morse.total_slots
    return [(r, c) for r, (_, end) in enumerate(morse.spans)
            for c in range(end, size)]


def _real_signs(morse):
    """``(slot, (-1)^m)`` for each real slot of ``morse``."""
    return [(start, morse_sign(p.morse_index)) for start, _, p in morse.blocks()
            if isinstance(p, RealPoint)]


def _signed_matchings(real):
    """Every list of couplings ``(r, c, +-1)`` between slots of ``real``,
    a list of ``(slot, sign)``, of opposite sign with no slot in two."""
    if not real:
        yield []
        return
    (r, s), rest = real[0], real[1:]
    yield from _signed_matchings(rest)
    for i, (c, t) in enumerate(rest):
        if s != t:
            for more in _signed_matchings(rest[:i] + rest[i + 1:]):
                yield [(r, c, 1)] + more
                yield [(r, c, -1)] + more


def _consistent_chunks(size, parity):
    """Every consistent chunk of rank ``size`` with gram entries in
    ``_ENTRIES``, as ``(descriptors, gram entries above the diagonal)``:
    each whose reference conjugation squares to the identity."""
    chunks = set()
    for drawn in _descriptor_sequences(size, parity):
        for upper in itertools.product(_ENTRIES, repeat=size * (size - 1) // 2):
            sigma, points = forced_conjugation_reference(parity, list(upper), drawn)
            if squares_to_identity(sigma):
                chunks.add((points, upper))
    return chunks


def _constructed_chunks(size, parity):
    """Every chunk of rank ``size`` the build step makes from the draws'
    value tables, as ``(descriptors, gram entries above the diagonal)``:
    each descriptor sequence with pairing numbers in ``_ENTRIES``, each
    ``K`` with entries in ``_ENTRIES`` and each matching of couplings.

    The build reads a Morse index through its sign ``(-1)^m`` alone, so
    the grams are built once per sequence of signs and pairing numbers."""
    chunks, grams = set(), {}
    for drawn in _descriptor_sequences(size, parity):
        for pairings in itertools.product(_ENTRIES, repeat=drawn.count(PAIR)):
            morse = _morse_of(drawn, pairings)
            key = (tuple(m if m == PAIR else morse_sign(m) for m in drawn), pairings)
            if key not in grams:
                above = _above_blocks(morse)
                matchings = list(_signed_matchings(_real_signs(morse)))
                form = morse.forced_form(parity)
                grams[key] = {
                    tuple(upper_entries(_lattice_of(parity, form * _build_sigma(
                        morse, [(r, c, v) for (r, c), v in zip(above, values) if v],
                        couplings)).gram.rows))
                    for values in itertools.product(_ENTRIES, repeat=len(above))
                    for couplings in matchings}
            chunks.update((morse.points, upper) for upper in grams[key])
    return chunks


@pytest.mark.parametrize("size, parity, count", [
    (2, 1, 17), (2, 2, 30), (3, 1, 232), (3, 2, 567)])
def test_construction_covers_every_consistent_chunk(size, parity, count):
    # every chunk the rejection sampler could accept, a consistent chunk
    # with gram entries in {0, +-1, +-2}, is built from some K, couplings
    # and pairing numbers of the draws' value tables; a chunk of rank 3 or
    # less is the whole band its draws fill
    consistent = _consistent_chunks(size, parity)
    assert len(consistent) == count
    assert consistent <= _constructed_chunks(size, parity)


@pytest.mark.parametrize("parity", range(5))
def test_build_without_k_or_couplings_is_s(parity):
    # with K = 0 and no couplings sigma is S, the forced diagonal blocks,
    # and var_inverse is B * S
    for points in [(), (RealPoint(0),), (ConjugatePair(0),),
                   (RealPoint(parity), ConjugatePair(2), RealPoint(0)),
                   (ConjugatePair(-1), ConjugatePair(1), RealPoint(parity))]:
        morse = MorseSpec(points)
        form = morse.forced_form(parity)
        sigma = _build_sigma(morse, [], [])
        lat = _lattice_of(parity, form * sigma)
        s = build_sigma(morse, parity, []).sigma
        assert sigma == s
        assert var_inverse(lat) == form * s


@st.composite
def _drawn_values(draw):
    """Values for the build step at ranks up to 8: descriptors and their
    forced form, ``K`` with any entries strictly above the block diagonal,
    and couplings of +-1 between real slots of opposite sign with no slot
    in two, across what the draws would make chunks or not."""
    parity, size = draw(st.integers(0, 5)), draw(st.integers(0, 8))
    points, left = [], size
    while left:
        if left >= 2 and draw(st.booleans()):
            points.append(ConjugatePair(draw(st.integers(-3, 3))))
            left -= 2
        else:
            points.append(RealPoint(draw(st.integers(0, parity))))
            left -= 1
    morse = MorseSpec(tuple(points))
    above = _above_blocks(morse)
    values = draw(st.lists(st.integers(-3, 3), min_size=len(above),
                           max_size=len(above)))
    couplings, free = [], set(range(size))
    for (r, s), (c, t) in itertools.combinations(_real_signs(morse), 2):
        if s != t and {r, c} <= free and draw(st.booleans()):
            couplings.append((r, c, draw(st.sampled_from((1, -1)))))
            free -= {r, c}
    return (parity, morse, morse.forced_form(parity),
            [(r, c, v) for (r, c), v in zip(above, values) if v], couplings)


@settings(max_examples=200, deadline=None)
@given(_drawn_values())
def test_built_level_is_consistent_by_construction(values):
    # sigma^2 = I over dense rows, sigma has the forced diagonal blocks and
    # nothing below them, and var_inverse of the gram read off B * sigma
    # is B * sigma
    parity, morse, form, k_entries, couplings = values
    sigma = _build_sigma(morse, k_entries, couplings)
    lat = _lattice_of(parity, form * sigma)
    size = morse.total_slots
    assert validate_lattice(lat) is None
    assert triple_loop(sigma, sigma) == IntMatrix.identity(size).rows
    forced = build_sigma(morse, parity, []).sigma
    assert all(sigma[r, c] == forced[r, c] for r in range(size)
               for c in range(morse.spans[r][1]))
    assert var_inverse(lat).rows == triple_loop(form, sigma)


@pytest.mark.parametrize("seed", [0, 2])
def test_generator_rejects_negative_parity(seed):
    # at bound 8 seed 0 would draw rank 6 and seed 2 rank 0; both are
    # refused before the draw, so neither fails inside it nor returns
    with pytest.raises(ValueError, match=r"parity must be >= 0 .*got -1"):
        generate_level(seed, 8, -1)


def _generator_digest():
    """md5 of the serialized generator output over a fixed seed list."""
    h = hashlib.md5()
    for rank_bound in (8, 16, 32):
        for seed in range(60):
            parity = seed % 5
            level = generate_level(seed, rank_bound, parity)
            inst = IcisInstance(parity, 0, SignVector((1,)),
                                (LevelData(0, level.lattice, level.conj),))
            h.update(serialize_instance(InstanceDocument(inst)).encode())
    for seed in range(20):
        inst = random_icis_instance(seed, 1 + seed % 3, 2, 6, with_cycles=True)
        h.update(serialize_instance(InstanceDocument(inst)).encode())
    return h.hexdigest()


def test_generator_output_is_pinned():
    # any change to the draws or to the construction of their levels
    # changes this digest
    assert _generator_digest() == "11099597c97638274c4e588d9a3a2a28"


def test_monodromy_split_closure_on_consistent_instances():
    # sigma * sigma_tilde recovers the monodromy, and the companion is an
    # involution, on every consistent instance
    for seed in range(30):
        parity = 1 + seed % 5
        level = generate_level(seed, 7, parity)
        lat, conj = level.lattice, level.conj
        tilde = LevelAnalysis(lat, conj).companion
        assert conj.sigma * tilde == monodromy(lat)
        assert tilde * tilde == IntMatrix.identity(lat.nu)



def _solve_sigma_upper(lat, morse):
    """Oracle: the upper entries that make ``sigma * monodromy`` vanish
    strictly above the block diagonal, from that linear system.

    This route shares nothing with the reference ``B^-1 * var_inverse``.
    Row r of the system has the trailing principal block of the monodromy
    (+-var * var_inverse^T, upper times lower triangular unimodular) as
    its matrix, so the solution exists, is unique and is integral; None
    would mean it is not.
    """
    nu = lat.nu
    fixed = build_sigma(morse, lat.parity, ()).sigma  # the forced blocks alone
    h = monodromy(lat)
    positions = [(r, c) for r in range(nu)
                 for c in range(morse.spans[r][1], nu)]
    index = {p: k for k, p in enumerate(positions)}
    nunk = len(positions)
    aug = []
    for (r, c) in positions:
        row = [0] * (nunk + 1)
        for k in range(nu):
            if (r, k) in index:
                row[index[(r, k)]] += h[k, c]
            else:
                row[nunk] -= fixed[r, k] * h[k, c]
        aug.append(row)
    pivots, d, _ = row_reduce(aug, nunk)
    if len(pivots) < nunk or any(row[nunk] % d for row in aug):
        return None
    return [(r, c, aug[index[(r, c)]][nunk] // d)
            for (r, c) in positions if aug[index[(r, c)]][nunk]]


def test_solve_sigma_upper_solutions_are_exact():
    # the reference sigma = B^-1 * var_inverse must be the exact solution
    # of the linear system whenever either route gives a consistent instance,
    # and the oracle's solution must be exact: sigma * monodromy vanishes
    # strictly above the block diagonal.
    agreed = 0
    for seed in range(200):
        rng = random.Random(seed)
        parity = rng.choice((1, 2, 3))
        size = rng.randint(2, 5)
        lat = random_lattice(rng, size, parity, max_entry=2)
        points = []
        left = size
        while left:
            if left >= 2 and rng.random() < 0.3:
                points.append(ConjugatePair(0))
                left -= 2
            else:
                points.append(RealPoint(rng.randrange(parity + 1)))
                left -= 1
        morse = MorseSpec(tuple(points))
        upper = _solve_sigma_upper(lat, morse)
        assert upper is not None
        rows = build_sigma(morse, parity, ()).sigma.to_lists()
        for r, c, v in upper:
            rows[r][c] = v
        product = IntMatrix.from_rows(rows) * monodromy(lat)
        assert all(product[r, c] == 0 for r in range(size)
                   for c in range(morse.spans[r][1], size))

        drawn = tuple(PAIR if isinstance(pt, ConjugatePair) else pt.morse_index
                      for pt in points)
        built = forced_conjugation_reference(parity, upper_entries(lat.gram.rows),
                                             drawn)
        forced = ConjugationData(IntMatrix(built[0]), MorseSpec(built[1]))
        verdicts = [forced.sigma * forced.sigma == IntMatrix.identity(size)
                    and LevelAnalysis(lat, forced).inconsistency is None]
        solved = build_sigma(morse, parity, upper)
        verdicts.append(solved.sigma.is_involution()
                        and LevelAnalysis(lat, solved).inconsistency is None)
        if any(verdicts):
            assert verdicts == [True, True]
            assert forced.sigma == solved.sigma
            agreed += 1
    assert agreed >= 40  # 41 of the 200 draws are consistent


def _reference_inconsistency(lat, conj):
    """The verdicts taken on the companion alone: ``sigma * monodromy``
    squared against the identity, and its dense rows scanned right of
    each block."""
    tilde = conj.sigma * monodromy(lat)
    why = []
    if tilde * tilde != IntMatrix.identity(lat.nu):
        why.append("companion not an involution")
    if any(any(row[end:]) for row, (_, end) in zip(tilde.rows, conj.morse.spans)):
        why.append("companion not block lower triangular")
    return "; ".join(why) or None


def _random_morse(rng, nu, parity):
    points, left = [], nu
    while left:
        if left >= 2 and rng.random() < 0.3:
            points.append(ConjugatePair(rng.randint(-2, 2)))
            left -= 2
        else:
            points.append(RealPoint(rng.randint(0, parity)))
            left -= 1
    return MorseSpec(tuple(points))


def _forced_shape_sigma(rng, lat, morse):
    """An involution of the forced block-upper shape, built from triples
    by :func:`build_sigma`: the solved upper entries, which make the level
    consistent when they give an involution, or a few random entries
    that do."""
    nu = lat.nu
    if rng.random() < 0.5:
        conj = build_sigma(morse, lat.parity, _solve_sigma_upper(lat, morse))
        if conj.sigma.is_involution():
            return conj
    upper = [(r, c) for r in range(nu) for c in range(morse.spans[r][1], nu)]
    for _ in range(20):
        triples = [(r, c, rng.choice((-2, -1, 1, 2)))
                   for r, c in rng.sample(upper, min(len(upper), rng.randint(0, 3)))]
        conj = build_sigma(morse, lat.parity, triples)
        if conj.sigma.is_involution():
            return conj
    return assemble_sigma(morse, ())


def _monodromy_inverse(lat):
    """``h^-1 = (-1)^p var^T var_inverse``: the monodromy relation ``h =
    (-1)^p var var_inverse^T`` inverted factor by factor, as ``var`` and
    ``var_inverse`` are inverse to each other."""
    return -mirror_sign(lat.parity) * var(lat).transpose() * var_inverse(lat)


def _arbitrary_sigma(rng, lat, morse):
    """A sigma of any shape, most often not an involution: random small
    entries, ``h^-1 * T`` for a random block lower ``T`` or a random
    involution ``T`` (so the companion is ``T``), the reference
    ``B^-1 * var_inverse``, an involution or not, or ``var
    * F`` for an ``F`` that is block diagonal but for a few entries on
    either side of the blocks, with symmetric or random 2x2 blocks (so the
    form is ``F``)."""
    nu = lat.nu
    kind = rng.randrange(5)
    if kind == 0:
        return IntMatrix([[rng.randint(-1, 1) for _ in range(nu)] for _ in range(nu)], nu)
    if kind == 1:
        t = [[rng.randint(-1, 1) if c <= r + 1 else 0 for c in range(nu)]
             for r in range(nu)]
        return _monodromy_inverse(lat) * IntMatrix(t, nu)
    if kind == 2:
        # the elementary e = I + t e_ij has the inverse I - t e_ij
        e = [[int(r == c) for c in range(nu)] for r in range(nu)]
        e_inv = [row[:] for row in e]
        if nu >= 2:
            i, j = rng.sample(range(nu), 2)
            e[i][j] = rng.choice((-1, 1))
            e_inv[i][j] = -e[i][j]
        e, e_inv = IntMatrix(e, nu), IntMatrix(e_inv, nu)
        d = IntMatrix([[rng.choice((-1, 1)) * (r == c) for c in range(nu)]
                       for r in range(nu)], nu)
        return _monodromy_inverse(lat) * (e * d * e_inv)
    if kind == 3:
        drawn = []
        while len(drawn) + drawn.count(PAIR) < nu:
            pair = nu - len(drawn) - drawn.count(PAIR) >= 2 and rng.random() < 0.3
            drawn.append(PAIR if pair else rng.randint(0, lat.parity))
        rows, _ = forced_conjugation_reference(
            lat.parity, upper_entries(lat.gram.rows), drawn)
        return IntMatrix(rows, nu)
    f = [[0] * nu for _ in range(nu)]
    for start, size, _ in morse.blocks():
        if size == 1:
            f[start][start] = rng.choice((-1, 1))
        else:
            a, b = rng.randint(-2, 2), rng.choice((-1, 1))
            f[start][start:start + 2] = a, b
            f[start + 1][start:start + 2] = rng.choice(((b, 0), (b, 1), (-b, 0)))
    for _ in range(rng.choice((0, 0, 1, 2)) if nu else 0):
        r, c = rng.randrange(nu), rng.randrange(nu)
        f[r][c] = rng.randint(-1, 1)
    return var(lat) * IntMatrix(f, nu)


def _companion_route_taken(analysis):
    return "companion" in vars(analysis)


def test_inconsistency_equals_the_companion_verdicts():
    # the verdict read off the form, where it certifies the level, is the
    # verdict of the companion route on seeded random levels of ranks 0-8
    # and parities 1-5, with every outcome reached; on forced-shape sigma
    # a consistent level never builds its companion
    outcomes = collections.Counter()
    for seed in range(1500):
        rng = random.Random(seed)
        nu, parity = rng.randint(0, 8), rng.randint(1, 5)
        lat = random_lattice(rng, nu, parity, max_entry=2)
        morse = _random_morse(rng, nu, parity)
        forced = rng.random() < 0.5
        sigma = (_forced_shape_sigma(rng, lat, morse).sigma if forced
                 else _arbitrary_sigma(rng, lat, morse))
        conj = ConjugationData(sigma, morse)
        analysis = LevelAnalysis(lat, conj)
        want = _reference_inconsistency(lat, conj)
        assert analysis.inconsistency == want, seed
        if forced and want is None:
            assert not _companion_route_taken(analysis), seed
        outcomes[want] += 1
    assert set(outcomes) == {None, "companion not an involution",
                             "companion not block lower triangular",
                             "companion not an involution; "
                             "companion not block lower triangular"}


@pytest.mark.parametrize("nu", [2, 3, 4])
def test_analysis_never_accepts_a_non_involution(nu):
    # the reader assembles sigma without squaring it, so the analysis is
    # what refuses a sigma of the forced shape that is no involution: the
    # solved upper entries with one entry moved by +-1, and a few random
    # entries, on seeded lattices of parities 0-5, are never consistent
    refused = 0
    for seed in range(500):
        rng = random.Random(seed)
        parity = rng.randint(0, 5)
        lat = random_lattice(rng, nu, parity, max_entry=2)
        morse = _random_morse(rng, nu, parity)
        above = _above_blocks(morse)
        solved = {(r, c): v for r, c, v in _solve_sigma_upper(lat, morse)}
        tries = [{**solved, pos: solved.get(pos, 0) + step}
                 for pos in above for step in (1, -1)]
        tries += [{pos: rng.choice((-2, -1, 1, 2))
                   for pos in rng.sample(above, rng.randint(0, len(above)))}
                  for _ in range(4)]
        for entries in tries:
            conj = assemble_sigma(morse, [(r, c, v) for (r, c), v in entries.items()
                                          if v])
            if not conj.sigma.is_involution():
                assert LevelAnalysis(lat, conj).inconsistency is not None, seed
                refused += 1
    assert refused == {2: 783, 3: 3423, 4: 6805}[nu]


_BLOCK_LOWER_FORM = ([[2, 0, 0], [0, 2, -2], [0, -2, 2]],
                     (RealPoint(0), RealPoint(0), RealPoint(1)),
                     [[1, 0, 0], [-1, -1, 2], [0, 0, 1]])


def _with_minima(gram, points, sigma, count):
    """A case with ``count`` real slots of Morse index 0 after it, each
    with gram entry 2 and sigma entry 1 and nothing off the diagonal."""
    nu = len(gram) + count
    return ([row + [0] * count for row in gram]
            + [[2 * (c == r) for c in range(nu)] for r in range(len(gram), nu)],
            points + (RealPoint(0),) * count,
            [row + [0] * count for row in sigma]
            + [[int(c == r) for c in range(nu)] for r in range(len(sigma), nu)])


@pytest.mark.parametrize("gram, points, sigma", [
    ([[2]], (RealPoint(0),), [[2]]),  # form [[-2]], sigma no involution
    ([[2, 1], [1, 2]], (ConjugatePair(0),), [[1, 0], [0, -1]]),  # form [[-1, 1], [0, 1]]
    _BLOCK_LOWER_FORM,  # form [[-1, 0, 0], [1, 1, 0], [0, 0, -1]]
    _with_minima(*_BLOCK_LOWER_FORM, 13),  # the same at rank 16, form rows sparse
], ids=["sigma-not-an-involution", "asymmetric-pair-block", "block-lower-form",
        "block-lower-form-sparse"])
def test_each_condition_of_the_certificate_is_needed(gram, points, sigma):
    # sigma is no involution, the pair's block is not symmetric, or the
    # form is block lower triangular but not block diagonal, on dense and
    # on sparse form rows: the companion decides, and it fails
    lat = ThimbleLattice(1, IntMatrix.from_rows(gram))
    conj = ConjugationData(IntMatrix.from_rows(sigma), MorseSpec(points))
    analysis = LevelAnalysis(lat, conj)
    assert analysis.inconsistency == "companion not an involution"
    assert _reference_inconsistency(lat, conj) == analysis.inconsistency
    assert _companion_route_taken(analysis)
    sparse = {type(row) is dict for row in analysis._product.stored_rows}
    assert sparse == {lat.nu >= SPARSE_MIN_COLS}


def test_rank_zero_generated_and_flipped_levels_take_the_certificate():
    # every level the generator or the sign flip builds, and a rank-0
    # level, is consistent through the form alone, as the companion route
    # says
    levels = [LevelAnalysis(ThimbleLattice(p, IntMatrix(())),
                            build_sigma(MorseSpec(()), p, [])) for p in range(1, 6)]
    for seed in range(30):
        levels.append(generate_level(seed, 12, 1 + seed % 5))
        inst = random_icis_instance(seed, 1 + seed % 3, seed % 3, 10)
        flipped = flip_last_sign(inst)
        levels.append(LevelAnalysis(flipped.levels[0].lattice, flipped.levels[0].conj))
    for analysis in levels:
        assert analysis.inconsistency is None
        assert not _companion_route_taken(analysis)
        assert _reference_inconsistency(analysis.lattice, analysis.conj) is None
