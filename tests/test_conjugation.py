import hashlib
import os
import pathlib
import random
import subprocess
import sys

import pytest

import vanlat
from vanlat import basis, conjugation
from vanlat.basis import apply_braid_word, monodromy, parse_braid_word
from vanlat.conjugation import (_PAIR, ConjugatePair, ConjugationData,
                                GeneratedLevelError, LevelAnalysis, MorseSpec,
                                RealPoint, _forced_conjugation, build_sigma,
                                generate_level, morse_sign, signature_by_blocks)
from vanlat.gen import random_icis_instance, random_lattice
from vanlat.index import IcisInstance, LevelData
from vanlat.instfile import InstanceDocument, serialize_instance
from vanlat.intmat import IntMatrix, row_reduce
from vanlat.lattice import SignVector, ThimbleLattice, validate_lattice
from vanlat.signature import exact_signature
from vanlat.variation import var_inverse


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


def test_build_sigma_rejects_non_involution():
    # equal Morse parity on both slots forces the upper entry to vanish
    with pytest.raises(ValueError, match="involution"):
        build_sigma(MorseSpec((RealPoint(0), RealPoint(0))), 1, [(0, 1, 1)])


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
           _forced_conjugation(1, ((2,),), (m,))[0][0][0]]
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
    # consistency is checked once, on the assembled level: with every try
    # accepted, the inconsistent chunks that reach a level make it raise,
    # on both the pairs path and the all-real level 0, with the level and
    # its block-form problem
    monkeypatch.setattr(conjugation, "squares_to_identity", lambda rows: True)
    with pytest.raises(GeneratedLevelError) as caught:
        generate_level(5, 16, 1)
    err = caught.value
    assert isinstance(err, ValueError)
    problem = LevelAnalysis(err.lattice, err.conj).block_structure_problem()
    assert problem is not None and err.problem == problem
    assert str(err) == "generated level fails its check: " + problem
    with pytest.raises(GeneratedLevelError):
        random_icis_instance(5, 1, 0, 16, real_only_level0=True)


def test_generated_level_check_survives_optimization():
    # the check is an explicit raise, so ``python -O`` keeps it
    src = pathlib.Path(conjugation.__file__).resolve().parent.parent
    probe = ("from vanlat import conjugation\n"
             "conjugation.squares_to_identity = lambda rows: True\n"
             "try:\n"
             "    conjugation.generate_level(5, 16, 1)\n"
             "except conjugation.GeneratedLevelError as e:\n"
             "    print(e.problem)\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-O", "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.startswith("inconsistent instance: ")


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
    # any change to the draws, the accepted chunks or their conjugations
    # changes this digest
    assert _generator_digest() == "bde18958a0f85cdb38f013e9ebd73ebd"


def _real_only_digest():
    """md5 of the serialized towers with an all-real level 0 over a fixed
    seed list."""
    h = hashlib.md5()
    for rank_bound in (4, 8, 16, 32):
        for seed in range(20):
            for with_cycles in (False, True):
                inst = random_icis_instance(seed, 1 + seed % 3, seed % 3,
                                            rank_bound, with_cycles=with_cycles,
                                            real_only_level0=True)
                h.update(serialize_instance(InstanceDocument(inst)).encode())
    return h.hexdigest()


def test_real_only_generator_output_is_pinned():
    # any change to the all-real level-0 draws or to the levels above it
    # changes this digest
    assert _real_only_digest() == "81b7f4c979e6ae529d88cfba8c38e4d2"


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

    This route shares nothing with the generator's ``B^-1 * var_inverse``.
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
    # the generator's sigma = B^-1 * var_inverse must be the exact solution
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

        drawn = tuple(_PAIR if isinstance(pt, ConjugatePair) else pt.morse_index
                      for pt in points)
        forced_rows, forced_points = _forced_conjugation(parity, lat.gram.rows,
                                                         drawn)
        forced = ConjugationData(IntMatrix(forced_rows), MorseSpec(forced_points))
        verdicts = [forced.sigma * forced.sigma == IntMatrix.identity(size)
                    and LevelAnalysis(lat, forced).inconsistency is None]
        try:
            solved = build_sigma(morse, parity, upper)
        except ValueError:
            verdicts.append(False)
        else:
            verdicts.append(LevelAnalysis(lat, solved).inconsistency is None)
        if any(verdicts):
            assert verdicts == [True, True]
            assert forced.sigma == solved.sigma
            agreed += 1
    assert agreed >= 40  # 41 of the 200 draws are consistent
