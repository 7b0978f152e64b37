"""Conjugation actions on distinguished bases, built from critical-point data.

This module holds the paper's objects (critical-point descriptors,
conjugation matrices, their consistency verdicts and the level analysis
that computes each level's derived data once) and the deterministic
build of a generated level from its drawn values.  It draws nothing:
a level's values are drawn in :mod:`vanlat.gen`.

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
shape (the reader's and the generator's), ``F = (-1)^p * V^T *
companion`` is block lower and upper triangular, with diagonal blocks
``d * (-1)^m`` and ``[[-g, d], [d, 0]]``; a sign-flipped level's form is
its parent's, reversed, times ``(-1)^p``.  The certificate holds on both,
and any other level has its two verdicts taken on the companion.

All of this is read from :class:`LevelAnalysis`, the one level API, built
once per level.  It validates the lattice once and computes
``var_inverse``, the form, its ``inconsistency`` (the failed verdicts, or
``None`` on a consistent level) and the form's signature once each, on
first use; the monodromy and the ``companion`` matrix are built only
where they are read, by the cycle data, the sign flip, or a level the
form does not certify.  The form's nondegeneracy is read off its
signature (an empty radical), so no determinant is taken.  A
:class:`vanlat.index.LevelData` keeps its analysis, the one it builds on
first use or the one it was made from
(:meth:`~vanlat.index.LevelData.from_analysis`), so every index route
over a level shares it.

A generated level is consistent by construction (:func:`build_level`).
Its drawn values (:func:`vanlat.gen.generate_level` draws them) give the
descriptors, an involution ``S`` with the forced diagonal blocks and a
strictly block upper triangular ``K``; with ``U = I + K`` its
conjugation is ``sigma = U S U^-1``.  ``V = B * sigma``, for the forced
block form ``B``, is formed once, and its gram is read off ``V``.  Then
``sigma^2 = I`` and ``V`` has the shape of ``var_inverse``, so ``F = V *
sigma = B``.  The level still takes both checks, sigma squared once and
``var_inverse`` compared exactly with ``V``: given ``sigma^2 = I`` that
comparison holds exactly when ``F = B`` does, so together they are the
certificate above and the forced-form test, and ``F`` is not formed.  A
level that fails raises :class:`GeneratedLevelError` with its
block-form problem.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .basis import monodromy
from .intmat import (IntMatrix, combine_rows, direct_sum, first_difference,
                     non_integer_at, row_items, sweep_rows)
from .lattice import (ThimbleLattice, diagonal_sign, gram_rows, mirror_sign,
                      require_valid, self_intersection)
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

    @cached_property
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
        return tuple([(start, start + size) for start, size, _ in self.blocks()
                      for _ in range(size)])

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
    """Assemble a conjugation matrix from block data plus upper entries,
    as the instance reader does, after checking both.

    The diagonal blocks are forced: ``(-1)^m`` on a real slot of Morse
    index ``m`` and the swap ``[[0, 1], [1, 0]]`` on a pair.
    ``upper_data`` is an iterable of ``(row, col, value)`` triples of
    ints (not bools) that may only populate positions strictly above the
    block diagonal.  Sigma is not squared here: one that is no
    involution is returned, and :attr:`LevelAnalysis.inconsistency`
    reports it.
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
    """The conjugation of ``(row, col, value)`` triples already known to
    be ints, for a ``morse`` already validated; the instance reader checks
    both where the file gives them, and :func:`build_sigma` where a
    caller does.  Each row is built as the dict of its entries and stored
    by its fill.  Sigma is not squared: :attr:`LevelAnalysis.inconsistency`
    reports one that is no involution as a failed consistency verdict.
    """
    nu = morse.total_slots
    rows = _forced_rows(morse)
    spans = morse.spans
    for r, c, v in triples:
        if not (0 <= r < nu and 0 <= c < nu):
            raise ValueError("entry (%d, %d) out of range for rank %d" % (r, c, nu))
        if c < spans[r][1]:
            raise ValueError(
                "entry (%d, %d) is not strictly above the block diagonal" % (r, c))
        rows[r][c] = v
    return ConjugationData(IntMatrix(rows, nu), morse)


def sigma_upper(conj: ConjugationData) -> list[list[int]]:
    """The inverse of :func:`assemble_sigma`: the ``[row, col, value]``
    triples of the nonzero entries of ``conj.sigma`` strictly above its
    block diagonal, row by row and left to right, as an instance file
    stores them.

    ValueError where sigma has an entry left of its row's diagonal block,
    or a diagonal block other than the forced one, since no triples give
    such a sigma back.
    """
    forced = _forced_rows(conj.morse)
    triples = []
    for r, (row, (start, end)) in enumerate(zip(conj.sigma.stored_rows,
                                                conj.morse.spans)):
        items = sorted(row_items(row))
        block = {c: v for c, v in items if c < end}
        if block != forced[r]:
            c = next(iter(block), end)
            if c < start:
                raise ValueError("sigma entry (%d, %d) = %d is left of the "
                                 "diagonal block of its row" % (r, c, block[c]))
            raise ValueError("the diagonal block of sigma at slot %d is not "
                             "the forced one" % start)
        triples += [[r, c, v] for c, v in items if c >= end]
    return triples


def _forced_rows(morse: MorseSpec) -> list[dict]:
    """The forced diagonal blocks of sigma as one ``{col: value}`` row per
    slot: ``(-1)^m`` on a real slot and the swap on a pair."""
    rows = [{} for _ in range(morse.total_slots)]
    for start, _, p in morse.blocks():
        if isinstance(p, RealPoint):
            rows[start][start] = morse_sign(p.morse_index)
        else:
            rows[start][start + 1] = rows[start + 1][start] = 1
    return rows


class LevelAnalysis:
    """The derived data of one level, each piece computed once, on first use.

    Construction checks the ranks, that the descriptors cover them, and
    validates the lattice.  The monodromy, the ``companion``, the
    ``inconsistency``, ``var_inverse``, the form ``var_inverse * sigma``
    and the form's signature are then computed when first asked for and
    kept for the life of the object; every route below and in
    :mod:`vanlat.index` reads them from here.  The product ``var_inverse *
    sigma`` is built at most once: the consistency verdict reads it first,
    and where it certifies the level (see the module docstring) neither
    the monodromy nor the companion is built unless a caller reads them,
    and a generated level never builds it (:func:`build_level`).  The
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
    def _sigma_is_involution(self) -> bool:
        """Whether sigma squares to the identity, by one square: the
        generator's check (:func:`build_level`) and :attr:`inconsistency`
        both read this verdict."""
        return self.conj.sigma.is_involution()

    @cached_property
    def _product(self) -> IntMatrix:
        """``var_inverse * sigma``, built once, whether or not the level
        is consistent: :attr:`form` returns it, and :attr:`inconsistency`
        reads its certificate off it.  A generated level never builds it:
        the generator records the forced block form ``B`` here once its
        checks prove ``var_inverse * sigma == B`` (:func:`build_level`)."""
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
        takes both verdicts on the companion.  Neither the instance
        reader nor :func:`build_sigma` squares sigma, so a file's or a
        caller's sigma is first squared here, once, and one that is no
        involution is reported here: its companion fails a verdict.

        A generated level's verdict is recorded by the generator instead
        (:func:`build_level`): its sigma has been squared once and
        ``var_inverse`` equals ``B * sigma``, so its form is the forced
        block form ``B``, which certifies it, and the verdict is ``None``
        there without a second square of sigma.  A generated level that
        fails its check reads the generator's verdict on sigma here.
        """
        if (self._sigma_is_involution
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
            return tuple([tuple([m[r, c] for c in range(start, end)])
                          for r in range(start, end)])
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
# Consistent synthetic levels, by construction from drawn values.
# ---------------------------------------------------------------------------

class GeneratedLevelError(ValueError):
    """A generated level that fails its self-check: ``problem`` is the
    :meth:`LevelAnalysis.block_structure_problem` text, and ``lattice``
    and ``conj`` are the level, so that it can be written out."""

    def __init__(self, lattice, conj, problem):
        super().__init__("generated level fails its check: " + problem)
        self.lattice, self.conj, self.problem = lattice, conj, problem


def _build_sigma(morse, k_entries, couplings):
    """``sigma = U S U^-1`` of the drawn values, unchecked (see
    :func:`build_level`).  ``U^-1`` is one triangular sweep and ``U *
    S`` a product of two matrices of dict rows, so only the second product
    reads the rows of ``U^-1``; a level costs its nonzeros, not its
    area."""
    nu = morse.total_slots
    u_rows = [{} for _ in range(nu)]  # the rows of K, then of U = I + K
    for r, c, v in k_entries:
        u_rows[r][c] = v
    u_inverse = sweep_rows(u_rows, nu, -1, 1, 0).stored_rows
    for r, row in enumerate(u_rows):
        row[r] = 1
    s_rows = _forced_rows(morse)
    for r, c, v in couplings:
        s_rows[r][c] = v
    return IntMatrix(combine_rows(combine_rows(u_rows, s_rows, nu), u_inverse, nu), nu)


def _lattice_of(parity, v):
    """The lattice whose gram is read off the strict upper triangle of
    ``v``: ``-v`` right of the diagonal, mirrored by the parity's rule,
    and the self-pairing on it.  Its ``var_inverse`` is ``v`` exactly when
    ``v`` is upper triangular with ``(-1)^(p(p+1)/2)`` on the diagonal.
    When no row of ``v`` is stored as a dict, as below
    ``SPARSE_MIN_COLS`` columns, the gram rows are built dense; else from
    the nonzeros of ``v``."""
    nu = v.nrows
    if dict not in set(map(type, v.stored_rows)):
        upper = [-x for r, row in enumerate(v.stored_rows) for x in row[r + 1:]]
        return ThimbleLattice(parity, IntMatrix(gram_rows(nu, parity, upper), nu))
    eps, diagonal = mirror_sign(parity), self_intersection(parity)
    gram = [{r: diagonal} for r in range(nu)]
    for r, row in enumerate(v.stored_rows):
        for c, x in row_items(row):
            if c > r:
                gram[r][c], gram[c][r] = -x, -eps * x
    return ThimbleLattice(parity, IntMatrix(gram, nu))


def build_level(parity: int, morse: MorseSpec, k_entries, couplings
                ) -> LevelAnalysis:
    """The analysis of the level built from drawn values, consistent by
    construction: the descriptors ``morse``, and the entries of ``K`` and
    the couplings of ``S`` as ``(row, col, value)`` triples.

    ``B`` is the forced block form of ``morse``, ``S`` the forced diagonal
    blocks ``D`` plus ``couplings`` ``N`` of +-1 between real slots of
    opposite sign, no slot in two, and ``K`` strictly block upper
    triangular.  ``S^2 = I``, as ``D N + N D`` and ``N^2`` vanish.  With
    ``U = I + K``, ``sigma = U S U^-1`` is an involution, block upper
    triangular with the diagonal blocks of ``S`` (:func:`_build_sigma`),
    so ``V = B * sigma`` is upper triangular with ``d`` on the diagonal:
    ``d * (-1)^m * (-1)^m`` on a real slot, ``d * [[a, 1], [1, 0]] * J =
    d * [[1, a], [0, 1]]`` on a pair.  ``V`` is formed once.  The gram is
    read off its strict upper triangle (:func:`_lattice_of`), so
    ``var_inverse = V`` and the form ``F = var_inverse * sigma = B *
    sigma^2 = B``.

    The level still takes both checks on its one analysis: sigma is
    squared once, and ``var_inverse`` is compared exactly with ``V``.
    Given ``sigma^2 = I``, ``var_inverse == B * sigma`` holds exactly when
    ``var_inverse * sigma == B`` does, so the two checks together are the
    certificate of the module docstring and the forced-form test, and
    ``var_inverse * sigma`` is never formed.  ``var_inverse == V`` alone
    fails only where ``V`` is not of the shape of ``var_inverse``, and
    ``sigma^2 = I`` alone says nothing of the gram.  A level that passes
    is recorded consistent with the form ``B``; one that fails raises
    :class:`GeneratedLevelError` with its
    :meth:`LevelAnalysis.block_structure_problem`.  Either way sigma is
    not squared again: the analysis keeps the verdict.
    """
    form = morse.forced_form(parity)
    sigma = _build_sigma(morse, k_entries, couplings)
    v = form * sigma
    lat = _lattice_of(parity, v)
    conj = ConjugationData(sigma, morse)
    analysis = LevelAnalysis(lat, conj)
    if not (analysis._sigma_is_involution and analysis.var_inverse == v):
        raise GeneratedLevelError(lat, conj, analysis.block_structure_problem())
    analysis._product = form
    analysis.inconsistency = None
    return analysis


def generate_consistent_instance(seed: int, rank_bound: int, parity: int
                                 ) -> tuple[ThimbleLattice, ConjugationData]:
    """The lattice and conjugation of :func:`vanlat.gen.generate_level`.

    No library path calls this name: it exists only because the tracer and
    the generator probe under ``bench/`` call it, and it goes when the
    tracer counts ``generate_level`` instead (ROADMAP.md, item 1).  It
    imports :mod:`vanlat.gen` when called, since ``gen`` imports this
    module.
    """
    from .gen import generate_level
    analysis = generate_level(seed, rank_bound, parity)
    return analysis.lattice, analysis.conj
