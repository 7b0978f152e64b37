"""Seeded random data for property tests and the verification suite.

Every random object of the package is drawn here, and everything is
deterministic given the seed: lattices, braid words, the values of each
consistent level, whole tower instances with cycle data, and matched
sign-flipped variants.  Only :mod:`vanlat.suite` draws besides, each
``verify`` family's parameters and sub-seeds, with the stdlib's methods
on each instance's own ``random.Random``.  The paper's objects, and the
deterministic build of a level from its drawn values
(:func:`vanlat.conjugation.build_level`), are in
:mod:`vanlat.conjugation`.

A level's draws (:func:`_draw_level`) come from a private
``random.Random(seed)``: the rank, up to the rank bound, first, then
chunks of rank at most 4 that fill it.  Each block of a chunk is a pair
with probability 0.3 where two slots are left, its pairing number from
``_VALUES``, else a real point of Morse index uniform in ``0..parity``;
its rows of ``K`` right of it in the chunk follow, from ``_VALUES``.
Then each two real slots of the chunk of opposite sign, neither yet
coupled, draw a coupling of 0 or +-1, so no slot is in two couplings.
Nothing couples two chunks.

Every draw but the rank and the pair test is made from the generator's
``getrandbits`` by CPython's rule for ``randint`` and ``choice``, which
only :func:`draw_entries` states, one draw being a call with ``count``
1: ``_randbelow(n)`` draws ``getrandbits(n.bit_length())`` until a
value is below ``n``.  So the values, and the generator's state after
each, are the stdlib's.
"""

import random
from itertools import product

from .basis import BraidMove, BraidWord
from .conjugation import (ConjugationData, ConjugatePair, LevelAnalysis,
                          MorseSpec, RealPoint, build_level)
from .index import CycleData, IcisInstance, LevelData
from .intmat import IntMatrix, direct_sum, row_items
from .lattice import SignVector, ThimbleLattice, diagonal_sign, gram_rows

# The values a pair's pairing number and each entry of ``K`` are drawn from.
_VALUES = (0, 0, 0, 1, -1, 2, -2)


def draw_entries(getrandbits, count: int, values) -> list:
    """``count`` draws of ``random.Random.choice(values)``, made from the
    generator's ``getrandbits`` exactly as CPython makes them, so the
    values and the generator's state afterwards are the stdlib's.

    CPython's ``choice(s)`` is ``s[_randbelow(len(s))]``, and
    ``randint(a, b) = randrange(a, b + 1) = a + _randbelow(b + 1 - a)``,
    so ``values = range(a, b + 1)`` draws ``randint(a, b)``.
    ``_randbelow(n)`` draws ``getrandbits(k)`` with ``k =
    n.bit_length()`` (not ``(n - 1).bit_length()``: ``k`` is 4 at ``n =
    8``) until a value is below ``n``.  An empty ``values`` raises
    ``ValueError`` when anything is to be drawn, as the stdlib's
    ``randint`` does, instead of rejecting ``getrandbits(0)`` forever.
    """
    n = len(values)
    if count > 0 and not n:
        raise ValueError("cannot draw from an empty range")
    k = n.bit_length()
    drawn = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        drawn.append(values[r])
    return drawn


def _draw_level(seed, rank_bound, parity):
    """The values :func:`generate_level` draws for ``seed``, as the module
    docstring says: the :class:`MorseSpec`, then the entries of ``K`` and
    the couplings of ``S`` as lists of ``(row, col, value)`` triples,
    values nonzero.  The chunk size is ``rng.randint(1, 4)``, a Morse
    index ``rng.randint(0, parity)`` and every other value an
    ``rng.choice``; a block's entries of ``K`` are one
    :func:`draw_entries` call."""
    if rank_bound < 0:
        raise ValueError("rank bound must be >= 0")
    if parity < 0:
        raise ValueError("parity must be >= 0 (Morse indices lie in 0..parity), "
                         "got %d" % parity)
    rng = random.Random(seed)
    nu = rng.randint(0, rank_bound)
    uniform, getrandbits = rng.random, rng.getrandbits
    morse_indices = range(parity + 1)
    points, k_entries, couplings = [], [], []
    slot = 0
    while slot < nu:
        end = min(nu, slot + draw_entries(getrandbits, 1, (1, 2, 3, 4))[0])
        real = []  # (slot, m mod 2) of each real slot of the chunk
        while slot < end:
            if end - slot >= 2 and uniform() < 0.3:
                points.append(ConjugatePair(draw_entries(getrandbits, 1, _VALUES)[0]))
                rows, slot = (slot, slot + 1), slot + 2
            else:
                m = draw_entries(getrandbits, 1, morse_indices)[0]
                points.append(RealPoint(m))
                real.append((slot, m % 2))
                rows, slot = (slot,), slot + 1
            cols = range(slot, end)
            values = draw_entries(getrandbits, len(rows) * len(cols), _VALUES)
            k_entries += [(r, c, v) for (r, c), v in zip(product(rows, cols), values)
                          if v]
        coupled = set()
        for i, (r, s) in enumerate(real):
            for c, t in real[i + 1:]:
                if s != t and r not in coupled and c not in coupled:
                    x = draw_entries(getrandbits, 1, (0, 1, -1))[0]
                    if x:
                        couplings.append((r, c, x))
                        coupled.update((r, c))
    return MorseSpec(tuple(points)), k_entries, couplings


def generate_level(seed: int, rank_bound: int, parity: int) -> LevelAnalysis:
    """The analysis of the level that ``seed`` draws, built and checked by
    :func:`vanlat.conjugation.build_level`, which raises
    :class:`~vanlat.conjugation.GeneratedLevelError` on a level that
    fails its check."""
    return build_level(parity, *_draw_level(seed, rank_bound, parity))


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
    keeps (:meth:`~vanlat.index.LevelData.from_analysis`), so the level's
    monodromy is built once.
    """
    lat, conj = analysis.lattice, analysis.conj
    null = IntMatrix.zeros(pad, pad).stored_rows
    trivial = IntMatrix.identity(pad).stored_rows
    cycles = CycleData(direct_sum([lat.gram.stored_rows, null]),
                       direct_sum([conj.sigma.stored_rows, trivial]),
                       direct_sum([analysis.companion.stored_rows, trivial]))
    return LevelData.from_analysis(i, analysis, cycles)


def random_icis_instance(seed: int, n: int, p: int, rank_bound: int,
                         with_cycles: bool = False) -> IcisInstance:
    """Tower instance with a consistent level for each ``i = 0 .. p``,
    each drawn from its own sub-seed and built by
    :meth:`~vanlat.index.LevelData.from_analysis` from the analysis that
    checked it."""
    rng = random.Random(seed)
    signs = SignVector(tuple([rng.choice((1, -1)) for _ in range(p + 1)]))
    levels = []
    for i in range(p + 1):
        parity = n + i
        analysis = generate_level(rng.randrange(2 ** 32), rank_bound, parity)
        if with_cycles and parity % 2 == 1:
            levels.append(level_with_cycles(i, analysis,
                                            pad=rng.choice((0, 0, 1, 2))))
        else:
            levels.append(LevelData.from_analysis(i, analysis))
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
    new_points = tuple([RealPoint(parity - pt.morse_index) if isinstance(pt, RealPoint)
                        else ConjugatePair(-d * lat.gram[s, s + 1])
                        for s, _, pt in reversed(list(conj.morse.blocks()))])
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
