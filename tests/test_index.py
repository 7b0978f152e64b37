import statistics

import pytest

from conftest import a_k_instance
from vanlat.conjugation import (ConjugatePair, LevelAnalysis, MorseSpec,
                                RealPoint, build_sigma, generate_level)
from vanlat.gen import flip_last_sign, level_with_cycles, random_icis_instance
from vanlat.index import (CycleData, EvenParityError, IcisInstance, LevelData,
                          sign_independence_check, gradient_index, morse_recursion_step,
                          smoothable_index, telescoped_index, level_index_sum,
                          cycle_index_sum)
from vanlat.instfile import parse_instance_text
from vanlat.intmat import IntMatrix
from vanlat.lattice import SignVector, ThimbleLattice
from vanlat.oracle import index_1d, index_2d, poly2
from vanlat.signature import Signature


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
    assert level_index_sum(level_a1(), 1, 1) == 1
    assert index_1d([0, 0, 1]) == 1  # the germ of x^2


def test_level_sum_a2_matches_1d_oracle():
    assert level_index_sum(level_a2(), 1, 1) == 0
    # morsified cubic x^3 - 3x: critical points at +-1, indices +1 and -1
    at_plus_one = index_1d([-2, 0, 3, 1])    # shift x -> x+1
    at_minus_one = index_1d([2, 0, -3, 1])   # shift x -> x-1
    assert at_plus_one == 1 and at_minus_one == -1
    assert at_plus_one + at_minus_one == 0


def test_level_sum_rank_zero():
    lat = ThimbleLattice(1, IntMatrix(()))
    conj = build_sigma(MorseSpec(()), 1, [])
    assert level_index_sum(LevelData(0, lat, conj), 1, 1) == 0


def test_level_sum_rejects_bad_sign_and_parity():
    with pytest.raises(ValueError):
        level_index_sum(level_a1(), 1, 0)
    with pytest.raises(ValueError):
        level_index_sum(level_a1(), 2, 1)  # parity 1 != n + i = 2


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
        inst = random_icis_instance(seed, 1 + seed % 3, seed % 3, 5,
                                    real_only_level0=True)
        flipped = flip_last_sign(inst)
        assert flipped.signs.entries[-1] == -inst.signs.entries[-1]
        assert sign_independence_check([inst, flipped]) is None
        again = flip_last_sign(flipped)
        assert again.levels[0].lattice.gram == inst.levels[0].lattice.gram


def _all_real(level):
    return not any(isinstance(pt, ConjugatePair)
                   for pt in level.conj.morse.points)


@pytest.mark.parametrize("seed", [1, 12, 18, 20, 25])
def test_all_real_level0_at_rank_bound_512(seed):
    # at this bound a draw that allows pairs nearly always holds one;
    # level 0 is drawn without them, so every seed gives an all-real one
    inst = random_icis_instance(seed, 1, 0, 512, real_only_level0=True)
    assert _all_real(inst.levels[0])
    assert gradient_index(inst) == telescoped_index(inst)
    assert sign_independence_check([inst, flip_last_sign(inst)]) is None


def test_all_real_level0_rank_is_not_biased_small():
    # a draw is never thrown away for holding a pair, so large level-0
    # ranks are as likely as small ones
    ranks = []
    for seed in range(40):
        level0 = random_icis_instance(seed, 1, 0, 64,
                                      real_only_level0=True).levels[0]
        assert _all_real(level0)
        ranks.append(level0.lattice.nu)
    assert statistics.median(ranks) >= 16


def test_flip_last_sign_needs_all_real_level0():
    lat = ThimbleLattice(1, IntMatrix.from_rows([[2, 1], [1, 2]]))
    conj = build_sigma(MorseSpec((ConjugatePair(1),)), 1, [])
    inst = inst_p0(LevelData(0, lat, conj))
    with pytest.raises(ValueError, match="all-real"):
        flip_last_sign(inst)


# -- cycle-space route -----------------------------------------------------------------

def test_cycle_sum_equal_signatures_give_zero():
    lat = ThimbleLattice(1, IntMatrix.from_rows([[2, 1], [1, 2]]))
    conj = build_sigma(MorseSpec((ConjugatePair(1),)), 1, [])
    level = level_with_cycles(0, LevelAnalysis(lat, conj))
    assert cycle_index_sum(level, 1) == 0
    assert level_index_sum(level, 1, 1) == 0


def test_level_shares_the_analysis_of_its_cycle_data():
    level = level_a2()
    assert level.analysis is level.prebuilt
    # an analysis of another lattice is refused, not silently used
    other = level_a1()
    with pytest.raises(ValueError, match="prebuilt analysis is of another"):
        LevelData(0, level.lattice, level.conj, level.cycles, other.analysis)


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
                assert cycle_index_sum(level, s) == level_index_sum(level, parity, s)


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
    values = [level_index_sum(lv, n, -1) for lv in inst.levels]
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
