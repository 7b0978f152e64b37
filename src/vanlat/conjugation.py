"""Conjugation actions on distinguished bases, built from critical-point data.

An ordered list of critical-point descriptors (real point with a Morse
index, or a complex-conjugate pair) carves the basis into blocks of size
1 and 2.  The conjugation matrix is block upper triangular for that
partition, with forced diagonal blocks: ``(-1)^m`` on a real slot and the
swap ``[[0, 1], [1, 0]]`` on a pair.  Entries strictly above the block
diagonal are free, constrained only by the involution law.

An instance ``(lattice, sigma)`` is *consistent* when the companion
``sigma_tilde = sigma * monodromy`` is again an involution and is block
lower triangular.  On consistent instances the bilinear form
``var_inverse * sigma`` is symmetric, unimodular (hence non-degenerate)
and block diagonal, with prescribed diagonal blocks; those facts are what
the index formulas consume.

The form decides consistency without the monodromy.  Write ``V =
var_inverse`` (upper triangular, ``+-1`` on the diagonal) and ``F = V *
sigma``; the monodromy is ``h = (-1)^p * V^-1 * V^T``.  If ``sigma^2 =
I``, ``F`` is block diagonal and its 2x2 diagonal blocks are symmetric:

- ``V^-1 = sigma * F^-1``, so the companion is ``sigma * h = (-1)^p *
  F^-1 * V^T``;
- ``F^-1`` is block diagonal and ``V^T`` lower triangular, so the
  companion is block lower triangular;
- ``F = F^T`` gives ``V^T = sigma^T * F``, so the companion's square is
  ``F^-1 * (sigma^T)^2 * F = I``.

Conversely, on a consistent level whose sigma has the forced block-upper
shape (every level the reader, the generator or the sign flip builds),
``F = (-1)^p * V^T * companion`` is block lower and block upper
triangular, with diagonal blocks ``d * (-1)^m`` and ``[[-g, d], [d,
0]]``, so the certificate holds there.  A level it does not certify has
its two verdicts taken on the companion, as before.

All of this is read from :class:`LevelAnalysis`, the one level API, built
once per level.  It validates the lattice once and computes
``var_inverse``, the form, its ``inconsistency`` (the failed verdicts, or
``None`` on a consistent level) and the form's signature once each, on
first use; the monodromy and the ``companion`` matrix are built only
where they are read, by the cycle data, the sign flip, or a level the
form does not certify.  The form's nondegeneracy is read off its
signature (an empty radical), so no determinant is taken.  A
:class:`vanlat.index.LevelData` keeps its analysis, so every index route
over a level shares it.

A generator try draws a chunk's descriptors, then its gram entries
above the diagonal as one flat row-major list, straight from the
generator's ``getrandbits`` with the values and in the order of the
stdlib draws (:func:`vanlat.lattice.draw_entries`).  One walk over that
list (:func:`_forced_conjugation`) forms the chunk's conjugation as
``sigma = B^-1 * var_inverse`` for the forced block form ``B``, block by
block, and rejects the try as soon as a block of ``sigma^2`` beside the
block diagonal does not vanish, a cheaper necessary condition read off
the same entries, which most tries fail.  A try it does not reject is
accepted when its plain rows pass
:func:`vanlat.intmat.squares_to_identity`, the one involution test.
Only an accepted try builds its gram rows
(:func:`vanlat.lattice.gram_rows`).  The level the chunks sum to gets
the one analysis, and its verdict comes from the generator, not from a
second square of sigma: the level's sigma is the direct sum of accepted
involutions, so one exact comparison of the form with the forced block
form is both the certificate above and the forced-form test
(:func:`_direct_sum`).  A level that passes is recorded consistent and
handed to the caller (:func:`generate_level`); one that fails raises
:class:`GeneratedLevelError` with its block-form problem.
"""

import random
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain

from .basis import monodromy
from .intmat import (IntMatrix, direct_sum, first_difference, non_integer_at,
                     squares_to_identity)
from .lattice import (ThimbleLattice, diagonal_sign, draw_entries, gram_rows,
                      require_valid)
from .signature import Signature, exact_signature
from .variation import var_inverse


def morse_sign(morse_index: int) -> int:
    """``(-1)^m`` for the Morse index ``m``, an int at every ``m``,
    negative ones included."""
    return -1 if morse_index % 2 else 1


@dataclass(frozen=True)
class RealPoint:
    """Real critical point with its Morse index."""

    morse_index: int
    slots = 1


@dataclass(frozen=True)
class ConjugatePair:
    """Complex-conjugate pair of critical points with pairing number."""

    pairing: int
    slots = 2


CriticalPoint = RealPoint | ConjugatePair


@dataclass(frozen=True)
class MorseSpec:
    """Ordered critical-point descriptors; order encodes the path system."""

    points: tuple[CriticalPoint, ...]

    @property
    def total_slots(self) -> int:
        return sum(p.slots for p in self.points)

    def blocks(self):
        """Yield (start, size, descriptor) for each diagonal block."""
        pos = 0
        for p in self.points:
            yield pos, p.slots, p
            pos += p.slots

    @cached_property
    def spans(self) -> tuple[tuple[int, int], ...]:
        """``(start, end)`` of the diagonal block of each slot."""
        return tuple((start, start + size) for start, size, _ in self.blocks()
                     for _ in range(size))

    def forced_form(self, parity: int) -> IntMatrix:
        """The block diagonal form ``B`` that ``var_inverse * sigma`` must be
        on consistent data, with ``d = (-1)^(p(p+1)/2)``: ``d * (-1)^m`` on
        a real slot of Morse index ``m`` and ``d * [[a, 1], [1, 0]]`` on a
        pair of pairing number ``a``."""
        d = diagonal_sign(parity)
        return direct_sum([((d * morse_sign(p.morse_index),),) if isinstance(p, RealPoint)
                           else ((d * p.pairing, d), (d, 0)) for p in self.points])

    def validate(self, parity: int) -> str | None:
        for k, p in enumerate(self.points):
            if isinstance(p, RealPoint) and not 0 <= p.morse_index <= parity:
                return ("descriptor %d: Morse index %d outside 0..%d"
                        % (k, p.morse_index, parity))
        return None


@dataclass(frozen=True)
class ConjugationData:
    """Conjugation matrix together with the block structure it respects."""

    sigma: IntMatrix
    morse: MorseSpec

    @property
    def nu(self) -> int:
        return self.sigma.nrows


def build_sigma(morse: MorseSpec, parity: int, upper_data) -> ConjugationData:
    """Assemble a conjugation matrix from block data plus upper entries.

    The diagonal blocks are forced: ``(-1)^m`` on a real slot of Morse
    index ``m`` and the swap ``[[0, 1], [1, 0]]`` on a pair.
    ``upper_data`` is an iterable of ``(row, col, value)`` triples of
    ints (not bools) that may only populate positions strictly above the
    block diagonal.  The assembled matrix must square to the identity.
    """
    bad = morse.validate(parity)
    if bad is not None:
        raise ValueError(bad)
    triples = list(upper_data)
    k = first_bad_triple(triples)
    if k is not None:
        raise ValueError("entry %r is not an integer triple" % (triples[k],))
    return assemble_sigma(morse, triples)


def first_bad_triple(entries):
    """Index of the first entry of the list ``entries`` that is not a list
    or tuple of three ints (not bools), or None; only a list that fails the
    C-level passes over all entries is searched entry by entry."""
    if ({list, tuple}.issuperset(map(type, entries))
            and {3}.issuperset(map(len, entries))
            and {int}.issuperset(map(type, chain.from_iterable(entries)))):
        return None
    return next((k for k, ent in enumerate(entries)
                 if not isinstance(ent, (list, tuple)) or len(ent) != 3
                 or non_integer_at(ent) is not None), None)


def assemble_sigma(morse: MorseSpec, triples) -> ConjugationData:
    """:func:`build_sigma` of ``(row, col, value)`` triples already known
    to be ints, for a ``morse`` already validated; the instance reader
    checks both where the file gives them.

    Each row is built as the dict of its entries and stored by its fill,
    and :meth:`~vanlat.intmat.IntMatrix.is_involution` tests the square on
    the kernel's rows, so the test costs the nonzeros of a sparse sigma.
    """
    nu = morse.total_slots
    rows = [{} for _ in range(nu)]
    for start, _, p in morse.blocks():
        if isinstance(p, RealPoint):
            rows[start][start] = morse_sign(p.morse_index)
        else:
            rows[start][start + 1] = rows[start + 1][start] = 1
    spans = morse.spans
    for r, c, v in triples:
        if not (0 <= r < nu and 0 <= c < nu):
            raise ValueError("entry (%d, %d) out of range for rank %d" % (r, c, nu))
        if c < spans[r][1]:
            raise ValueError(
                "entry (%d, %d) is not strictly above the block diagonal" % (r, c))
        rows[r][c] = v
    sigma = IntMatrix(rows, nu)
    if not sigma.is_involution():
        raise ValueError("assembled conjugation matrix is not an involution")
    return ConjugationData(sigma, morse)


class LevelAnalysis:
    """The derived data of one level, each piece computed once, on first use.

    Construction checks the ranks, that the descriptors cover them, and
    validates the lattice.  The monodromy, the ``companion``, the
    ``inconsistency``, ``var_inverse``, the form ``var_inverse * sigma``
    and the form's signature are then computed when first asked for and
    kept for the life of the object; every route below and in
    :mod:`vanlat.index` reads them from here.  The product ``var_inverse *
    sigma`` is built once: the consistency verdict reads it first, and
    where it certifies the level (see the module docstring) neither the
    monodromy nor the companion is built unless a caller reads them.  The
    bodies call the module-level ``monodromy``, ``var_inverse`` and
    ``exact_signature``, so wrappers installed on those names see them.
    """

    def __init__(self, lat: ThimbleLattice, conj: ConjugationData):
        if conj.nu != lat.nu:
            raise ValueError("rank mismatch: sigma is %dx%d, lattice has rank %d"
                             % (conj.nu, conj.nu, lat.nu))
        if conj.morse.total_slots != lat.nu:
            raise ValueError("rank mismatch: the descriptors cover %d slots, "
                             "lattice has rank %d" % (conj.morse.total_slots, lat.nu))
        require_valid(lat)
        self.lattice = lat
        self.conj = conj

    @cached_property
    def monodromy(self) -> IntMatrix:
        return monodromy(self.lattice)

    @cached_property
    def var_inverse(self) -> IntMatrix:
        return var_inverse(self.lattice)

    @cached_property
    def companion(self) -> IntMatrix:
        """``sigma_tilde = sigma * monodromy``."""
        return self.conj.sigma * self.monodromy

    @cached_property
    def _product(self) -> IntMatrix:
        """``var_inverse * sigma``, built once, whether or not the level
        is consistent: :attr:`form` returns it, :attr:`inconsistency`
        reads its certificate off it, and the generator compares it with
        the forced block form (:func:`_direct_sum`)."""
        return self.var_inverse * self.conj.sigma

    @cached_property
    def inconsistency(self) -> str | None:
        """``None`` when the companion is an involution and is block lower
        triangular, else the failed verdicts, ``"; "``-separated.

        When sigma is an involution and :attr:`_product`, ``F =
        var_inverse * sigma``, is block diagonal with symmetric 2x2 blocks
        (:func:`_certifies_consistency`), the level is consistent and
        neither the monodromy nor the companion is built: the companion
        is ``(-1)^p * F^-1 * var_inverse^T``, block lower triangular, and
        ``F = F^T`` makes it square to the identity.  Any other level
        takes both verdicts on the companion.

        A generated level's verdict is recorded by the generator instead
        (:func:`_direct_sum`): its sigma is a direct sum of involutions
        and its form equals the forced block form, which certifies it, so
        it is ``None`` there without a second square of sigma.
        """
        if (self.conj.sigma.is_involution()
                and _certifies_consistency(self._product, self.conj.morse.spans)):
            return None
        tilde = self.companion
        why = []
        if not tilde.is_involution():
            why.append("companion not an involution")
        if any(max(row, default=-1) >= end if type(row) is dict else any(row[end:])
               for row, (_, end) in zip(tilde.stored_rows, self.conj.morse.spans)):
            why.append("companion not block lower triangular")
        return "; ".join(why) or None

    @cached_property
    def form(self) -> IntMatrix:
        """``var_inverse * sigma``; ValueError on an inconsistent level."""
        if self.inconsistency is not None:
            raise ValueError("inconsistent instance: " + self.inconsistency)
        return self._product

    @cached_property
    def signature(self) -> Signature:
        """Inertia of the form, which must be symmetric and nondegenerate.

        On a consistent level both hold, so a violation is an internal
        error (AssertionError), not bad input.  The signature checks the
        symmetry and reports the radical: no second scan, no determinant.
        """
        form = self.form
        try:
            sig = exact_signature(form)
        except ValueError:
            raise AssertionError("form %s is not symmetric on a consistent "
                                 "instance" % (form,)) from None
        if sig.n_zero:
            raise AssertionError("form %s is degenerate on a consistent instance"
                                 % (form,))
        return sig

    def block_structure_problem(self) -> str | None:
        """The first entry where the form differs from the forced block
        form (:meth:`MorseSpec.forced_form`), or ``None``; an inconsistent
        level is reported by its companion's verdicts."""
        if self.inconsistency is not None:
            return "inconsistent instance: " + self.inconsistency
        morse = self.conj.morse
        form, want = self.form, morse.forced_form(self.lattice.parity)
        diff = first_difference(form, want)
        if diff is None:
            return None
        r, c = diff
        start, end = morse.spans[r]
        if not start <= c < end:
            return "off-block entry (%d, %d) = %d, expected 0" % (r, c, form[diff])
        if end - start == 1:
            return ("real block at slot %d: entry %d, expected %d"
                    % (start, form[diff], want[diff]))

        def block(m):
            return tuple(tuple(m[r, c] for c in range(start, end))
                         for r in range(start, end))
        return ("pair block at slot %d: got %s, expected %s"
                % (start, block(form), block(want)))


def _certifies_consistency(form: IntMatrix, spans) -> bool:
    """Whether ``form = var_inverse * sigma`` is block diagonal for the
    block ``spans`` of its rows, one ``(start, end)`` per row, with each
    2x2 diagonal block symmetric.

    With sigma an involution this certifies the level consistent (see the
    module docstring); the symmetry of the whole form is left to its
    signature, which checks it once.
    """
    for r, (row, (start, end)) in enumerate(zip(form.stored_rows, spans)):
        if type(row) is dict:
            for c in row:  # at most two keys on a certified row
                if not start <= c < end:
                    return False
        elif any(row[:start]) or any(row[end:]):
            return False
        if end - start == 2 and r == start and form[r, r + 1] != form[r + 1, r]:
            return False
    return True


def derive_sigma_tilde(conj: ConjugationData, lat: ThimbleLattice) -> IntMatrix:
    """``LevelAnalysis(lat, conj).companion``.

    No library path calls this name: it exists only because the
    benchmark's tracer under ``bench/`` wraps it, and it goes when the
    tracer counts analyses instead (ROADMAP.md, item 1).
    """
    return LevelAnalysis(lat, conj).companion


def signature_by_blocks(lat: ThimbleLattice, conj: ConjugationData) -> int:
    """Closed-form signature of the symmetric pairing, summed over blocks.

    Real slots contribute ``(-1)^(p(p+1)/2 + m)``; pair blocks have
    determinant -1 and contribute zero.
    """
    d = diagonal_sign(lat.parity)
    total = 0
    for _, _, point in conj.morse.blocks():
        if isinstance(point, RealPoint):
            total += d * morse_sign(point.morse_index)
    return total


# ---------------------------------------------------------------------------
# Search for consistent synthetic instances.
# ---------------------------------------------------------------------------

# A chunk's descriptors are drawn as plain values: the Morse index of a
# real slot, or this marker for a conjugate pair, whose pairing number is
# pinned by the gram rows (see :func:`_forced_conjugation`).  Most tries
# fail, so a try looks its descriptor objects up, one object per value.
_PAIR = None
_real_point, _pair_point = cache(RealPoint), cache(ConjugatePair)


def _forced_conjugation(parity, upper, drawn):
    """Rows of the candidate ``sigma = B^-1 * var_inverse`` from the gram
    entries above the diagonal, the flat row-major list ``upper``, and
    the ``drawn`` descriptors (a Morse index per real slot, ``_PAIR`` per
    pair), with the descriptors they pin, in one walk; or ``None`` when
    ``sigma^2`` does not vanish beside the block diagonal.

    On consistent data ``var_inverse * sigma`` is the forced block form
    ``B`` (see :meth:`MorseSpec.forced_form`): ``d * (-1)^m`` on a real
    slot and ``d * [[a, 1], [1, 0]]`` on a pair at slot ``s``.  As
    ``sigma`` is an involution, ``sigma = (var * B)^-1 = B^-1 *
    var_inverse``; conversely, if ``B^-1 * var_inverse`` squares to the
    identity it equals its inverse ``var * B``.  Then the companion is
    ``+-B^-1 * var_inverse^T``, block lower triangular and an involution,
    so the involution law alone accepts a candidate.

    ``B^-1`` is ``d * (-1)^m`` on a real slot and ``d * [[0, 1], [1, -a]]``
    on a pair, so each block of rows of ``sigma`` combines the same rows
    of ``var_inverse``, which are ``d`` on the diagonal and ``-gram`` to
    its right.  The diagonal block of ``var * B`` at a pair is ``[[a + d *
    var[s][s+1], 1], [1, 0]]``, the swap exactly when ``a = -d *
    var[s][s+1] = -d * gram[s][s+1]``; that pins each pair's pairing
    number, and with it the pair's rows are ``(0, 1, -d *
    gram[s+1][c]...)`` and ``(1, 0, d * (a * gram[s+1][c] -
    gram[s][c])...)`` over the columns ``c > s + 1``.

    Sigma is block upper triangular with diagonal blocks ``D = (-1)^m`` on
    a real slot and the swap ``J`` on a pair, so for consecutive blocks
    ``b, b'`` the block of ``sigma^2`` between them is ``D_b N + N D_b'``,
    ``N`` being sigma's block between them; no other term enters, and an
    involution has it zero.  ``N`` is the head of block ``b``'s rows right
    of its diagonal block, so the condition is read off the gram entries
    those rows are formed from, and the factor ``d`` drops out of it.  It
    is necessary only: rows that are returned still take the involution
    test, :func:`~vanlat.intmat.squares_to_identity`.

    The rank is ``len(drawn) + drawn.count(_PAIR)``.  Row ``pos``'s
    ``width = rank - 1 - pos`` entries right of the diagonal are the slice
    of ``upper`` at ``start``, just after the rows above it; the walk
    keeps ``start`` as it goes, and tests each block's condition with the
    next block before it forms the block's rows, so a rejected try forms
    the rows of the blocks before the failing one only.

    Returns the tuple of rows and the tuple of descriptors, each pair's
    :class:`ConjugatePair` carrying its pinned ``a``.
    """
    d = diagonal_sign(parity)
    rows = []
    points = []
    pos = start = 0
    width = len(drawn) + drawn.count(_PAIR) - 1
    for i, m in enumerate(drawn):
        lead = (0,) * pos
        if m is _PAIR:
            below = start + width
            a = -d * upper[start]
            top, bottom = upper[start + 1:below], upper[below:below + width - 1]
            if bottom:
                n = drawn[i + 1]
                w = a * bottom[0] - top[0]
                if n is _PAIR:
                    if w != bottom[1] or a * bottom[1] - top[1] != bottom[0]:
                        return None
                elif w != morse_sign(n) * bottom[0]:
                    return None
            rows.append(lead + (0, 1) + tuple(-d * y for y in bottom))
            rows.append(lead + (1, 0) + tuple(d * (a * y - x)
                                              for x, y in zip(top, bottom)))
            points.append(_pair_point(a))
            pos += 2
            start = below + width - 1
            width -= 2
        else:
            s = morse_sign(m)
            x = upper[start:start + width]
            if x:
                n = drawn[i + 1]
                if n is _PAIR:
                    if x[1] != -s * x[0]:
                        return None
                elif x[0] and s == morse_sign(n):
                    return None
            e = -d * s
            rows.append(lead + (s,) + tuple(e * y for y in x))
            points.append(_real_point(m))
            pos += 1
            start += width
            width -= 1
    return tuple(rows), tuple(points)


# Draws per chunk before the caller shrinks it; a rank-1 chunk never fails.
CHUNK_TRIES = 400


def _sample_chunk(rng, size, parity, pairs=True):
    """One consistent chunk of the given rank, coupled inside, as plain
    ``(gram rows, sigma rows, descriptors)``, or ``None`` when
    ``CHUNK_TRIES`` draws all fail the involution law.

    A try draws, from ``rng`` and in this order, its descriptors as plain
    values (``rng.random() < 0.3`` where a pair may start, else the Morse
    index ``rng.randrange(0, parity + 1)``), then its gram entries above
    the diagonal as one flat row-major list of ``rng.choice`` draws
    (:func:`~vanlat.lattice.draw_entries`).  One walk over the flat
    entries forms its candidate sigma, or rejects the try where ``sigma^2``
    does not vanish beside the block diagonal
    (:func:`_forced_conjugation`); the plain rows of any other take the one
    involution test, which decides every acceptance,
    :func:`~vanlat.intmat.squares_to_identity`.  Only the accepted try
    builds its gram rows (:func:`~vanlat.lattice.gram_rows`), and no
    matrix, lattice or analysis is built for a chunk.  Every accepted
    sigma is an involution, so the assembled level's sigma is one too, and
    the level is checked once, by one comparison of its form with the
    forced block form (:func:`_direct_sum`).  Without ``pairs`` every
    descriptor is a real point.
    """
    uniform, getrandbits = rng.random, rng.getrandbits
    # the Morse index is drawn by draw_entries' rule for randrange(0, n):
    # getrandbits(n.bit_length()) until it is below n
    n = parity + 1
    k = n.bit_length()
    count = size * (size - 1) // 2
    for _ in range(CHUNK_TRIES):
        drawn = []
        left = size
        while left > 0:
            if pairs and left >= 2 and uniform() < 0.3:
                drawn.append(_PAIR)
                left -= 2
            else:
                m = getrandbits(k)
                while m >= n:
                    m = getrandbits(k)
                drawn.append(m)
                left -= 1
        upper = draw_entries(getrandbits, count, (0, 0, 0, 1, -1, 2, -2))
        built = _forced_conjugation(parity, upper, drawn)
        if built is None:
            continue
        sigma, points = built
        if squares_to_identity(sigma):
            return gram_rows(size, parity, upper), sigma, points
    return None


class GeneratedLevelError(ValueError):
    """A generated level that fails its self-check: ``problem`` is the
    :meth:`LevelAnalysis.block_structure_problem` text, and ``lattice``
    and ``conj`` are the level, so that it can be written out."""

    def __init__(self, lattice, conj, problem):
        super().__init__("generated level fails its check: " + problem)
        self.lattice, self.conj, self.problem = lattice, conj, problem


def _direct_sum(parity, chunks) -> LevelAnalysis:
    """The one analysis of the level that is the direct sum of ``chunks``.

    The analysis validates the lattice, and the level must be consistent
    with the forced block form.  That is checked here, once, on the whole
    level, by one exact comparison of the forced block form ``B`` with
    the product ``F = var_inverse * sigma``, which the analysis builds
    once.  It is exact: the level's sigma is the direct sum of chunks that
    :func:`~vanlat.intmat.squares_to_identity` accepted, so it is an
    involution, and ``F == B`` is then both the certificate of consistency
    (``B`` is block diagonal with symmetric 2x2 blocks; see the module
    docstring) and the forced-form test, so it holds exactly when
    :meth:`LevelAnalysis.block_structure_problem` is ``None``.  A level
    that passes is recorded as consistent, and its sigma is not squared
    again; one that fails raises :class:`GeneratedLevelError` with the
    problem that method reports, read off the same product.
    """
    lat = ThimbleLattice(parity, direct_sum([gram for gram, _, _ in chunks]))
    conj = ConjugationData(direct_sum([sigma for _, sigma, _ in chunks]),
                           MorseSpec(tuple(pt for _, _, points in chunks
                                           for pt in points)))
    analysis = LevelAnalysis(lat, conj)
    if analysis._product != conj.morse.forced_form(parity):
        raise GeneratedLevelError(lat, conj, analysis.block_structure_problem())
    analysis.inconsistency = None
    return analysis


def _chunks(seed, rank_bound, parity, pairs=True):
    """The chunks of the level ``seed`` draws, lazily, in draw order.

    A rank up to ``rank_bound`` is filled by chunks of rank at most 4; a
    chunk whose draws all fail is shrunk by one, and a rank-1 chunk never
    fails, with or without a pair allowed.  Without ``pairs`` no chunk
    holds a conjugate pair, so one pass gives an all-real level.  The
    draws use a private ``random.Random(seed)`` only.
    """
    if rank_bound < 0:
        raise ValueError("rank bound must be >= 0")
    if parity < 0:
        raise ValueError("parity must be >= 0 (Morse indices lie in 0..parity), "
                         "got %d" % parity)
    rng = random.Random(seed)
    left = rng.randint(0, rank_bound)
    while left > 0:
        size = min(left, rng.randint(1, 4))
        got = _sample_chunk(rng, size, parity, pairs)
        while got is None:
            size -= 1
            got = _sample_chunk(rng, size, parity, pairs)
        yield got
        left -= size


def generate_level(seed: int, rank_bound: int, parity: int,
                   pairs: bool = True) -> LevelAnalysis:
    """The analysis of the consistent level that ``seed`` draws.

    The level is the direct sum of the chunks that :func:`_chunks` draws
    from ``seed``.  Inside a chunk the gram couplings are random and the
    conjugation is ``B^-1 * var_inverse`` for the forced block form ``B``;
    across chunks there is no coupling, since consistency pins those
    entries to rigid arithmetic relations that random data essentially
    never satisfies.  The level's sigma is then a direct sum of
    involutions, so its verdict is one exact comparison of its form with
    the forced block form, which certifies it consistent (see
    :func:`_direct_sum`; :class:`GeneratedLevelError` if the two differ).
    The analysis that checked it is returned with that verdict recorded,
    so a caller reads the form computed there, and the monodromy and
    companion, where it asks for them, from the same analysis, and sigma
    is not squared again.  Without ``pairs`` the level has no conjugate
    pair.
    """
    return _direct_sum(parity, list(_chunks(seed, rank_bound, parity, pairs)))


def generate_consistent_instance(seed: int, rank_bound: int, parity: int
                                 ) -> tuple[ThimbleLattice, ConjugationData]:
    """The lattice and conjugation of :func:`generate_level`.

    No library path calls this name: it exists only because the tracer and
    the generator probe under ``bench/`` call it, and it goes when the
    tracer counts ``generate_level`` instead (ROADMAP.md, item 1).
    """
    analysis = generate_level(seed, rank_bound, parity)
    return analysis.lattice, analysis.conj
