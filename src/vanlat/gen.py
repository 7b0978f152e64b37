"""Seeded random data for property tests and the verification suite.

Everything here is deterministic given the seed.  Each consistent level,
level 0 included, comes from :func:`vanlat.conjugation.generate_level`
with the analysis that checked it, which the level then keeps.  This
module assembles lattices, braid words, whole tower instances,
cycle data, and matched sign-flipped variants.
"""

import random

from .basis import BraidMove, BraidWord
from .conjugation import (ConjugationData, ConjugatePair, LevelAnalysis,
                          MorseSpec, RealPoint, generate_level)
from .index import CycleData, IcisInstance, LevelData
from .intmat import IntMatrix, direct_sum, row_items
from .lattice import SignVector, ThimbleLattice, diagonal_sign, draw_entries, gram_rows


def random_lattice(rng: random.Random, nu: int, parity: int,
                   max_entry: int = 5) -> ThimbleLattice:
    """Valid lattice with uniform off-diagonal entries in ``[-max, max]``,
    drawn above the diagonal in row-major order as ``rng.randint(-max,
    max)`` would draw them."""
    upper = draw_entries(rng.getrandbits, nu * (nu - 1) // 2,
                         range(-max_entry, max_entry + 1))
    return ThimbleLattice(parity, IntMatrix(gram_rows(nu, parity, upper)))


def random_braid_word(rng: random.Random, nu: int, max_len: int = 12) -> BraidWord:
    """Random word valid for rank ``nu``; empty when the rank allows no moves."""
    moves = []
    for _ in range(rng.randint(0, max_len)):
        kind = rng.choice("aAf")
        top = nu if kind == "f" else nu - 1
        if top < 1:
            continue
        moves.append(BraidMove(kind, rng.randint(1, top)))
    return BraidWord(tuple(moves))


def level_with_cycles(i: int, analysis: LevelAnalysis, pad: int = 0) -> LevelData:
    """Level ``i`` of a consistent analysed lattice and conjugation, with
    cycle data.

    The cycle data is the lattice pairing with both conjugation actions;
    ``pad`` extra null directions model the radical that the boundary map
    contributes, on which both actions are taken to be trivial.  The
    companion action is read from ``analysis``, which the level then
    keeps, so the level's monodromy is built once.
    """
    lat, conj = analysis.lattice, analysis.conj
    null = IntMatrix.zeros(pad, pad).stored_rows
    trivial = IntMatrix.identity(pad).stored_rows
    cycles = CycleData(direct_sum([lat.gram.stored_rows, null]),
                       direct_sum([conj.sigma.stored_rows, trivial]),
                       direct_sum([analysis.companion.stored_rows, trivial]))
    return LevelData(i, lat, conj, cycles, analysis)


def random_icis_instance(seed: int, n: int, p: int, rank_bound: int,
                         with_cycles: bool = False) -> IcisInstance:
    """Tower instance with a consistent level for each ``i = 0 .. p``,
    each drawn from its own sub-seed and keeping the analysis that checked
    it."""
    rng = random.Random(seed)
    signs = SignVector(tuple(rng.choice((1, -1)) for _ in range(p + 1)))
    levels = []
    for i in range(p + 1):
        parity = n + i
        analysis = generate_level(rng.randrange(2 ** 32), rank_bound, parity)
        if with_cycles and parity % 2 == 1:
            levels.append(level_with_cycles(i, analysis,
                                            pad=rng.choice((0, 0, 1, 2))))
        else:
            levels.append(LevelData(i, analysis.lattice, analysis.conj,
                                    prebuilt=analysis))
    return IcisInstance(n, p, signs, tuple(levels))


def _reversed(m: IntMatrix) -> IntMatrix:
    """``R m R`` for the reversal ``R``: rows and columns in reverse order."""
    last = m.ncols - 1
    return IntMatrix([{last - c: v for c, v in row_items(row)}
                      for row in reversed(m.stored_rows)], m.ncols)


def flip_last_sign(inst: IcisInstance) -> IcisInstance:
    """Matched variant of an instance with the last sign entry negated.

    Only the last sign's flip leaves every deeper level's data meaningful,
    and the level-0 data transforms by reversing the basis: the gram
    matrix is transposed and reversed, the reversed companion is the new
    conjugation, a Morse index ``m`` becomes ``parity - m``, and a pair at
    slots ``s, s + 1`` stays a pair, its pairing number ``-d * gram[s][s +
    1]`` (the new gram's entry at its reversed slots), as the forced form
    ``d * [[a, 1], [1, 0]]`` relates them.  The new form is the old one,
    reversed, times ``(-1)^parity``, so it certifies the level, but a pair
    block ``(-1)^parity * d * [[0, 1], [1, a]]`` has the forced shape only
    at even parity with ``a = 0``.  Cycle data keeps its null
    directions.  The flip is an involution and preserves the total index.
    """
    level0 = inst.levels[0]
    conj = level0.require_conj()
    lat = level0.lattice
    parity = lat.parity
    d = diagonal_sign(parity)
    new_gram = _reversed(lat.gram.transpose())
    new_sigma = _reversed(level0.analysis.companion)
    new_points = tuple(RealPoint(parity - pt.morse_index) if isinstance(pt, RealPoint)
                       else ConjugatePair(-d * lat.gram[s, s + 1])
                       for s, _, pt in reversed(list(conj.morse.blocks())))
    new_lat = ThimbleLattice(parity, new_gram)
    new_conj = ConjugationData(new_sigma, MorseSpec(new_points))
    if level0.cycles is not None:
        new_level0 = level_with_cycles(0, LevelAnalysis(new_lat, new_conj),
                                       pad=level0.cycles.form.nrows - lat.nu)
    else:
        new_level0 = LevelData(0, new_lat, new_conj)
    signs = inst.signs.entries
    new_signs = SignVector(signs[:-1] + (-signs[-1],))
    return IcisInstance(inst.n, inst.p, new_signs,
                        (new_level0,) + inst.levels[1:])
