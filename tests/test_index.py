import pytest

from conftest import a_k_instance
from vanlat.conjugation import (ConjugatePair, ConjugationData, LevelAnalysis,
                                MorseSpec, RealPoint, build_sigma, sigma_upper)
from vanlat.gen import (flip_last_sign, generate_level, level_with_cycles,
                        random_icis_instance)
from vanlat.index import (CycleData, EvenParityError, IcisInstance, LevelData,
                          sign_independence_check, gradient_index, morse_recursion_step,
                          smoothable_index, telescoped_index, level_index_sum,
                          cycle_index_sum)
from vanlat.instfile import parse_instance_text
from vanlat.intmat import IntMatrix
from vanlat.lattice import SignVector, ThimbleLattice, diagonal_sign, gram_rows
from vanlat.oracle import index_1d, index_2d, poly2
from vanlat.signature import Signature, exact_signature


def level_a1(sign=1):
    lat = ThimbleLattice(1, IntMatrix.from_rows([[2]]))
    morse = MorseSpec((RealPoint(0 if sign == 1 else 1),))
    conj = build_sigma(morse, 1, [])
    return level_with_cycles(0, LevelAnalysis(lat, conj))


def level_a2():
    lat = ThimbleLattice(1, IntMatrix.from_rows([[2, -1], [-1, 2]]))
    conj = build_sigma(MorseSpec((RealPoint(0), RealPoint(1))), 1, [(0, 1, -1)])
    return level_with_cycles(0, LevelAnalysis(lat, conj))


def inst_p0(level, n=1, sign=1):
    return IcisInstance(n, 0, SignVector((sign,)), (level,))


# -- level_index_sum -----------------------------------------------------------

def test_level_sum_a1_minimum_matches_1d_oracle():
    assert level_index_sum(level_a1(), 1) == 1
    assert index_1d([0, 0, 1]) == 1  # the germ of x^2


def test_level_sum_a2_matches_1d_oracle():
    assert level_index_sum(level_a2(), 1) == 0
    # morsified cubic x^3 - 3x: critical points at +-1, indices +1 and -1
    at_plus_one = index_1d([-2, 0, 3, 1])    # shift x -> x+1
    at_minus_one = index_1d([2, 0, -3, 1])   # shift x -> x-1
    assert at_plus_one == 1 and at_minus_one == -1
    assert at_plus_one + at_minus_one == 0


def test_level_sum_rank_zero():
    lat = ThimbleLattice(1, IntMatrix(()))
    conj = build_sigma(MorseSpec(()), 1, [])
    assert level_index_sum(LevelData(0, lat, conj), 1) == 0


def test_level_sum_rejects_bad_sign():
    with pytest.raises(ValueError):
        level_index_sum(level_a1(), 0)


@pytest.mark.parametrize("s", [1.0, -1.0, True])
def test_index_functions_take_only_an_int_sign(s):
    # 1.0 in (1, -1) holds, so the type is tested too, as SignVector does
    with pytest.raises(ValueError, match="sign entry must be"):
        level_index_sum(level_a1(), s)
    with pytest.raises(ValueError, match="sign entry must be"):
        cycle_index_sum(level_a1(), s)
    with pytest.raises(ValueError, match="sign must be"):
        morse_recursion_step(0, 3, s, 1)


# -- gradient_index and desk examples ----------------------------------------------

def test_index_x_squared():
    assert gradient_index(inst_p0(level_a1())) == 1
    assert index_1d([0, 0, 1]) == 1


def test_index_x_cubed():
    assert gradient_index(inst_p0(level_a2())) == 0
    assert index_1d([0, 0, 0, 1]) == 0


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8, 64, 257, 2048])
def test_a_k_tower_index_matches_the_oracle_at_scale(k):
    # a_k_level puts a maximum at the left end of the line, so it is the
    # morsification of (-1)^k x^(k+1); the oracle reads that germ's index
    # off the signs of its derivative and shares no code with the pipeline
    inst = a_k_instance(k)
    assert gradient_index(inst) == index_1d([0] * (k + 1) + [(-1) ** k])
    n_max = (k + 1) // 2
    assert inst.levels[0].analysis.signature == Signature(n_max, k - n_max, 0)


def test_index_plane_minimum():
    # germ of x^2 + y^2: one even-parity thimble
    lat = ThimbleLattice(2, IntMatrix.from_rows([[0]]))
    conj = build_sigma(MorseSpec((RealPoint(0),)), 2, [])
    inst = IcisInstance(2, 0, SignVector((1,)), (LevelData(0, lat, conj),))
    assert gradient_index(inst) == 1
    assert index_2d((poly2({(1, 0): 2}), poly2({(0, 1): 2})), 1) == 1


def test_gradient_index_requires_conjugation_data():
    lat = ThimbleLattice(1, IntMatrix.from_rows([[2]]))
    inst = IcisInstance(1, 0, SignVector((1,)), (LevelData(0, lat),))
    with pytest.raises(ValueError, match="no conjugation data"):
        gradient_index(inst)


def test_instance_validation():
    lat = ThimbleLattice(1, IntMatrix.from_rows([[2]]))
    with pytest.raises(ValueError, match="signs"):
        IcisInstance(1, 0, SignVector((1, 1)), (LevelData(0, lat),))
    with pytest.raises(ValueError, match="parity"):
        IcisInstance(2, 0, SignVector((1,)), (LevelData(0, lat),))


# -- sign independence ----------------------------------------------------------------

def test_sign_independence_single_variant():
    assert sign_independence_check([inst_p0(level_a1())]) is None
    assert sign_independence_check([]) is None


def test_sign_independence_a1_pair():
    plus = inst_p0(level_a1(1), sign=1)
    minus = inst_p0(level_a1(-1), sign=-1)
    assert gradient_index(plus) == gradient_index(minus) == 1
    assert sign_independence_check([plus, minus]) is None


def test_sign_independence_reports_discrepancy():
    plus = inst_p0(level_a1(1), sign=1)
    # deliberately wrong pairing: same germ data but mismatched sign entry
    wrong = inst_p0(level_a1(1), sign=-1)
    report = sign_independence_check([plus, wrong])
    assert report is not None and "signs" in report


def test_flip_last_sign_matches_on_generated_instances():
    for seed in range(25):
        inst = random_icis_instance(seed, 1 + seed % 3, seed % 3, 5)
        flipped = flip_last_sign(inst)
        assert flipped.signs.entries[-1] == -inst.signs.entries[-1]
        assert sign_independence_check([inst, flipped]) is None
        again = flip_last_sign(flipped)
        assert again.levels[0].lattice.gram == inst.levels[0].lattice.gram
        assert again.levels[0].conj == inst.levels[0].conj


def test_flip_last_sign_keeps_the_cycle_padding():
    # cycle data at level 0 keeps its null directions through the flip, so
    # two flips give back the cycle data, padded or not
    padded = with_cycles = 0
    for seed in range(100):
        inst = random_icis_instance(seed, 1 + seed % 3, seed % 3, 16, with_cycles=True)
        cycles = inst.levels[0].cycles
        if cycles is None:
            continue
        with_cycles += 1
        padded += cycles.form.nrows > inst.levels[0].lattice.nu
        flipped = flip_last_sign(inst)
        assert flipped.levels[0].cycles.form.nrows == cycles.form.nrows
        assert flip_last_sign(flipped).levels[0].cycles == cycles
    assert (with_cycles, padded) == (67, 37)


def test_level_index_sum_is_the_signed_trace_of_sigma():
    # on a consistent level sgn(var_inverse * sigma) = d * tr(sigma), so
    # the level's index sum is s^(n+i) * tr(sigma): the signed count of
    # its real critical points by Morse index.  The flipped pair blocks
    # at level 0, which are not of the forced shape, keep it too
    levels = of_positive_rank = 0
    for seed in range(400):
        n = 1 + seed % 3
        inst = random_icis_instance(seed, n, seed % 3, (4, 8, 16, 64)[seed % 4])
        for tower in (inst, flip_last_sign(inst)):
            for level in tower.levels:
                sigma = level.conj.sigma
                trace = sum(sigma[r, r] for r in range(sigma.nrows))
                for s in (1, -1):
                    power = s if (n + level.i) % 2 else 1
                    assert level_index_sum(level, s) == power * trace
                levels += 1
                of_positive_rank += level.lattice.nu > 0
    assert (levels, of_positive_rank) == (1598, 1424)


@pytest.mark.parametrize("indices", [(0, 0, 0, 0), (1, 0, 0, 1), (1, 0, 1, 1)])
def test_the_basis_invariant_half_of_consistency_does_not_fix_the_index(indices):
    # sigma^2 = I and F = var_inverse * sigma symmetric (so the companion
    # is an involution), yet sgn F != d * tr(sigma): only the companion's
    # block-lower-triangular verdict, which needs the descriptors, tells
    # this level from a consistent one.  No instance file holds it, since
    # sigma has entries left of its block diagonal
    v = IntMatrix.from_rows([[1, 4, 5, 5], [0, 1, 2, 6], [0, 0, 1, 5], [0, 0, 0, 1]])
    sigma = IntMatrix.from_rows([[-1, -4, -4, -2], [0, 1, 0, 0], [1, 2, 3, 1],
                                 [-2, -4, -4, -1]])
    upper = [-x for r, row in enumerate(v.rows) for x in row[r + 1:]]
    lat = ThimbleLattice(3, IntMatrix(gram_rows(4, 3, upper), 4))
    conj = ConjugationData(sigma, MorseSpec(tuple(map(RealPoint, indices))))
    analysis = LevelAnalysis(lat, conj)
    assert analysis.var_inverse == v
    form = v * sigma
    assert sigma.is_involution() and form.is_symmetric()
    assert analysis.inconsistency == "companion not block lower triangular"
    assert exact_signature(form).sgn == -2
    assert diagonal_sign(3) * sum(sigma.diagonal()) == 2
    with pytest.raises(ValueError, match="sigma"):
        sigma_upper(conj)


def _pairs(level):
    return sum(isinstance(pt, ConjugatePair) for pt in level.conj.morse.points)


@pytest.mark.parametrize("seed", [1, 12, 18, 20, 25])
def test_level0_with_pairs_at_rank_bound_512(seed):
    # at this bound level 0 holds pairs on every seed, and the sign flip
    # takes them
    inst = random_icis_instance(seed, 1, 0, 512)
    assert _pairs(inst.levels[0]) >= 10
    assert gradient_index(inst) == telescoped_index(inst)
    assert sign_independence_check([inst, flip_last_sign(inst)]) is None


def test_flip_last_sign_flips_a_pair_at_level0():
    # the pair stays a pair, its pairing number read off the new gram;
    # the new sigma is the reversed companion [[-1, -1], [0, 1]], and the
    # form [[-1, -1], [-1, 0]] turns into minus its reversal
    lat = ThimbleLattice(1, IntMatrix.from_rows([[2, 1], [1, 2]]))
    conj = build_sigma(MorseSpec((ConjugatePair(1),)), 1, [])
    inst = inst_p0(LevelData(0, lat, conj))
    flipped = flip_last_sign(inst)
    level0 = flipped.levels[0]
    assert flipped.signs == SignVector((-1,))
    assert level0.lattice.gram == IntMatrix.from_rows([[2, 1], [1, 2]])
    assert level0.conj.sigma == IntMatrix.from_rows([[1, 0], [-1, -1]])
    assert level0.conj.morse == MorseSpec((ConjugatePair(1),))
    assert level0.analysis.form == IntMatrix.from_rows([[0, 1], [1, 1]])
    assert gradient_index(inst) == gradient_index(flipped) == 0
    again = flip_last_sign(flipped).levels[0]
    assert (again.lattice, again.conj) == (lat, conj)


@pytest.mark.parametrize("rank_bound", [16, 64])
def test_flip_takes_every_pair_at_level0(rank_bound):
    # over 800 seeds per bound, two in three towers or more hold a pair at
    # level 0; each flipped level is certified by its form alone, with no
    # monodromy or companion built, flipping twice gives it back, and the
    # index does not move
    towers = 0
    for seed in range(800):
        inst = random_icis_instance(seed, 1 + seed % 3, seed % 3, rank_bound)
        if not _pairs(inst.levels[0]):
            continue
        towers += 1
        flipped = flip_last_sign(inst)
        level0 = flipped.levels[0]
        analysis = LevelAnalysis(level0.lattice, level0.conj)
        assert analysis.inconsistency is None
        assert "monodromy" not in vars(analysis) and "companion" not in vars(analysis)
        again = flip_last_sign(flipped)
        assert again.signs == inst.signs
        assert again.levels[0].lattice == inst.levels[0].lattice
        assert again.levels[0].conj == inst.levels[0].conj
        assert gradient_index(flipped) == gradient_index(inst) == telescoped_index(inst)
    assert towers >= 500


# -- cycle-space route -----------------------------------------------------------------

def test_cycle_sum_equal_signatures_give_zero():
    lat = ThimbleLattice(1, IntMatrix.from_rows([[2, 1], [1, 2]]))
    conj = build_sigma(MorseSpec((ConjugatePair(1),)), 1, [])
    level = level_with_cycles(0, LevelAnalysis(lat, conj))
    assert cycle_index_sum(level, 1) == 0
    assert level_index_sum(level, 1) == 0


def test_level_shares_the_analysis_of_its_cycle_data():
    # the level keeps the analysis its cycle data was read from
    level = level_a2()
    a = level.analysis
    assert level_with_cycles(0, a).analysis is a
    assert LevelData.from_analysis(0, a, level.cycles).analysis is a


def test_from_analysis_is_the_level_of_its_lattice_and_conjugation():
    # a level built from its analysis is the level of that lattice and
    # conjugation, and keeps the analysis instead of building another
    for seed in range(20):
        a = generate_level(seed, 12, 1 + seed % 4)
        level = LevelData.from_analysis(3, a)
        plain = LevelData(3, a.lattice, a.conj)
        assert level == plain and hash(level) == hash(plain)
        assert level.analysis is a and plain.analysis is not a
        assert level_index_sum(level, 1) == level_index_sum(plain, 1)
    inst = random_icis_instance(5, 1, 2, 10)
    assert all("analysis" in vars(level) for level in inst.levels)


def test_cycle_sum_rank_zero():
    lat = ThimbleLattice(1, IntMatrix(()))
    conj = build_sigma(MorseSpec(()), 1, [])
    level = level_with_cycles(0, LevelAnalysis(lat, conj))
    assert cycle_index_sum(level, 1) == 0


def test_cycle_sum_matches_level_sum_on_generated_instances():
    for seed in range(40):
        parity = (1, 3, 5)[seed % 3]
        analysis = generate_level(seed, 6, parity)
        for pad in (0, 2):
            level = level_with_cycles(0, analysis, pad=pad)
            for s in (1, -1):
                assert cycle_index_sum(level, s) == level_index_sum(level, s)


def test_cycle_sum_refuses_even_parity():
    lat = ThimbleLattice(2, IntMatrix.from_rows([[0]]))
    conj = build_sigma(MorseSpec((RealPoint(0),)), 2, [])
    tilde = LevelAnalysis(lat, conj).companion
    level = LevelData(0, lat, conj, CycleData(lat.gram, conj.sigma, tilde))
    with pytest.raises(EvenParityError):
        cycle_index_sum(level, 1)


def test_cycle_sum_rejects_missing_or_odd_data():
    lat = ThimbleLattice(1, IntMatrix.from_rows([[2]]))
    conj = build_sigma(MorseSpec((RealPoint(0),)), 1, [])
    with pytest.raises(ValueError, match="no cycle data"):
        cycle_index_sum(LevelData(0, lat, conj), 1)
    # an odd signature difference marks inconsistent data
    bad = CycleData(IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[0]]),
                    IntMatrix.from_rows([[1]]))
    with pytest.raises(ValueError, match="odd"):
        cycle_index_sum(LevelData(0, lat, conj, bad), 1)


def test_cycle_sum_rejects_asymmetric_pairings():
    lat = ThimbleLattice(1, IntMatrix.from_rows([[2]]))
    conj = build_sigma(MorseSpec((RealPoint(0),)), 1, [])
    one = IntMatrix.identity(2)
    skew = IntMatrix.from_rows([[1, 1], [0, 1]])
    for sigma, tilde in ((skew, one), (one, skew)):
        bad = CycleData(one, sigma, tilde)
        with pytest.raises(ValueError) as caught:
            cycle_index_sum(LevelData(0, lat, conj, bad), 1)
        assert str(caught.value) == ("cycle pairings are not symmetric; "
                                     "data inconsistent")


# -- bookkeeping identities -----------------------------------------------------

def test_smoothable_index_examples():
    assert smoothable_index(1, 1) == 1
    assert smoothable_index(0, 1) == 0
    assert smoothable_index(0, 0) == 1


@pytest.mark.parametrize("n", [-4, -3])
def test_index_is_an_int_at_negative_parity(n):
    # only conjugate pairs fit below parity 0 (a real point needs 0 <= index <= n + i)
    gram = {0: "[[0, 1], [-1, 0]]", 1: "[[2, 1], [1, 2]]"}
    text = ("format: 1\nn: %d\np: 1\nsigns: [-1, -1]\nlevels:\n" % n
            + "".join("- i: %d\n  gram: %s\n  morse: [[pair, 1]]\n"
                      % (i, gram[(n + i) % 2]) for i in (0, 1)))
    inst = parse_instance_text(text).instance
    values = [level_index_sum(lv, -1) for lv in inst.levels]
    values += [gradient_index(inst), telescoped_index(inst)]
    assert values == [0, 0, 0, 0]
    assert all(type(v) is int for v in values)


def test_morse_recursion_step_examples():
    assert morse_recursion_step(1, 1, 1, 2) == 2
    assert morse_recursion_step(1, 1, 1, 3) == 0
    assert type(morse_recursion_step(1, 1, 1, -3)) is int
    with pytest.raises(ValueError):
        morse_recursion_step(0, 0, 2, 1)


def test_telescoping_reproduces_index_on_towers():
    for seed in range(30):
        inst = random_icis_instance(seed, 1 + seed % 2, seed % 3, 5,
                                    with_cycles=True)
        assert telescoped_index(inst) == gradient_index(inst)
