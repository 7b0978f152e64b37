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
"""

import random
from dataclasses import dataclass

from .basis import monodromy
from .intmat import IntMatrix, row_reduce
from .lattice import (ThimbleLattice, diagonal_sign, require_valid,
                      self_intersection, validate_lattice)
from .variation import var_inverse


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

    def block_index(self):
        """Map slot -> block number."""
        out = {}
        for b, (start, size, _) in enumerate(self.blocks()):
            for t in range(size):
                out[start + t] = b
        return out

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


def _block_diagonal_part(morse: MorseSpec) -> IntMatrix:
    nu = morse.total_slots
    rows = [[0] * nu for _ in range(nu)]
    for start, size, point in morse.blocks():
        if isinstance(point, RealPoint):
            rows[start][start] = (-1) ** point.morse_index
        else:
            rows[start][start + 1] = 1
            rows[start + 1][start] = 1
    return IntMatrix.from_rows(rows)


def build_sigma(morse: MorseSpec, parity: int, upper_data) -> ConjugationData:
    """Assemble a conjugation matrix from block data plus upper entries.

    ``upper_data`` is an iterable of ``(row, col, value)`` triples that may
    only populate positions strictly above the block diagonal.  The
    assembled matrix must square to the identity.
    """
    bad = morse.validate(parity)
    if bad is not None:
        raise ValueError(bad)
    nu = morse.total_slots
    block_of = morse.block_index()
    rows = [list(r) for r in _block_diagonal_part(morse).rows]
    for r, c, v in upper_data:
        if not (0 <= r < nu and 0 <= c < nu):
            raise ValueError("entry (%d, %d) out of range for rank %d" % (r, c, nu))
        if block_of[c] <= block_of[r]:
            raise ValueError(
                "entry (%d, %d) is not strictly above the block diagonal" % (r, c))
        rows[r][c] = int(v)
    sigma = IntMatrix.from_rows(rows, width=nu) if nu else IntMatrix(())
    if sigma * sigma != IntMatrix.identity(nu):
        raise ValueError("assembled conjugation matrix is not an involution")
    return ConjugationData(sigma, morse)


@dataclass(frozen=True)
class SigmaTildeReport:
    """Companion matrix from the monodromy split, with structure verdicts."""

    matrix: IntMatrix
    involution: bool
    lower_block_triangular: bool

    @property
    def consistent(self) -> bool:
        return self.involution and self.lower_block_triangular


def derive_sigma_tilde(conj: ConjugationData, lat: ThimbleLattice) -> SigmaTildeReport:
    """Companion conjugation ``sigma * monodromy`` with consistency verdicts.

    The split of the monodromy into two conjugations forces the companion
    to be an involution and block lower triangular whenever the data comes
    from a genuine real critical-value picture; both properties are
    reported so synthetic data can be screened.
    """
    if conj.nu != lat.nu:
        raise ValueError("rank mismatch: sigma is %dx%d, lattice has rank %d"
                         % (conj.nu, conj.nu, lat.nu))
    require_valid(lat)
    tilde = conj.sigma * monodromy(lat)
    block_of = conj.morse.block_index()
    involution = tilde * tilde == IntMatrix.identity(lat.nu)
    lower = all(tilde[r, c] == 0
                for r in range(lat.nu) for c in range(lat.nu)
                if block_of[c] > block_of[r])
    return SigmaTildeReport(tilde, involution, lower)


def require_consistent(lat: ThimbleLattice, conj: ConjugationData) -> SigmaTildeReport:
    report = derive_sigma_tilde(conj, lat)
    if not report.consistent:
        why = []
        if not report.involution:
            why.append("companion is not an involution")
        if not report.lower_block_triangular:
            why.append("companion is not block lower triangular")
        raise ValueError("inconsistent instance: " + "; ".join(why))
    return report


def var_sigma_form(lat: ThimbleLattice, conj: ConjugationData) -> IntMatrix:
    """Symmetric pairing ``var_inverse * sigma`` of a consistent instance.

    Raises ValueError on an inconsistent instance.  On a consistent one
    the result is symmetric with determinant +-1; violation of either
    would be an internal error, not bad input.
    """
    require_consistent(lat, conj)
    form = var_inverse(lat) * conj.sigma
    if not form.is_symmetric():
        raise AssertionError("form %s is not symmetric on a consistent instance"
                             % (form,))
    if form.det() == 0:
        raise AssertionError("form %s is degenerate on a consistent instance"
                             % (form,))
    return form


def block_diagonal_structure_check(lat: ThimbleLattice,
                                   conj: ConjugationData) -> str | None:
    """Check ``var_inverse * sigma`` is block diagonal with forced blocks.

    For parity sign ``d = (-1)^(p(p+1)/2)``: a real slot with Morse index
    ``m`` must carry the 1x1 block ``d * (-1)^m``; a pair with pairing
    number ``a`` must carry ``d * [[a, 1], [1, 0]]``.  Returns the first
    offending entry, or ``None``.
    """
    report = derive_sigma_tilde(conj, lat)
    if not report.consistent:
        return ("instance inconsistent: companion involution=%s, "
                "lower block triangular=%s"
                % (report.involution, report.lower_block_triangular))
    form = var_inverse(lat) * conj.sigma
    d = diagonal_sign(lat.parity)
    block_of = conj.morse.block_index()
    for r in range(lat.nu):
        for c in range(lat.nu):
            if block_of[r] != block_of[c] and form[r, c] != 0:
                return ("off-block entry (%d, %d) = %d, expected 0"
                        % (r, c, form[r, c]))
    for start, size, point in conj.morse.blocks():
        if isinstance(point, RealPoint):
            want = d * (-1) ** point.morse_index
            if form[start, start] != want:
                return ("real block at slot %d: entry %d, expected %d"
                        % (start, form[start, start], want))
        else:
            a = point.pairing
            want = ((d * a, d), (d, 0))
            got = ((form[start, start], form[start, start + 1]),
                   (form[start + 1, start], form[start + 1, start + 1]))
            if got != want:
                return ("pair block at slot %d: got %s, expected %s"
                        % (start, got, want))
    return None


def signature_by_blocks(lat: ThimbleLattice, conj: ConjugationData) -> int:
    """Closed-form signature of the symmetric pairing, summed over blocks.

    Real slots contribute ``(-1)^(p(p+1)/2 + m)``; pair blocks have
    determinant -1 and contribute zero.
    """
    d = diagonal_sign(lat.parity)
    total = 0
    for _, _, point in conj.morse.blocks():
        if isinstance(point, RealPoint):
            total += d * (-1) ** point.morse_index
    return total


# ---------------------------------------------------------------------------
# Search for consistent synthetic instances.
# ---------------------------------------------------------------------------

def _solve_sigma_upper(lat, morse, rng):
    """Solve the linear system making ``sigma * monodromy`` block lower
    triangular, sampling any free parameters from small integers.

    Returns upper-entry triples or None when the system has no integer
    solution for this gram matrix.
    """
    nu = lat.nu
    block_of = morse.block_index()
    fixed = _block_diagonal_part(morse)
    h = monodromy(lat)
    positions = [(r, c) for r in range(nu) for c in range(nu)
                 if block_of[c] > block_of[r]]
    if not positions:
        return []
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
    if any(row[nunk] for row in aug[len(pivots):]):
        return None
    free = [c for c in range(nunk) if c not in pivots]
    sol = [0] * nunk
    for f in free:
        sol[f] = rng.choice((0, 0, 0, 1, -1))
    for i, col in enumerate(pivots):
        v = aug[i][nunk] - sum(aug[i][f] * sol[f] for f in free)
        if v % d:
            return None
        sol[col] = v // d
    return [(r, c, sol[index[(r, c)]])
            for (r, c) in positions if sol[index[(r, c)]] != 0]


def _sample_chunk(rng, size, parity, tries=400):
    """One consistent instance of the given rank, coupled inside."""
    eps = 1 if parity % 2 == 1 else -1
    diag = self_intersection(parity)
    for _ in range(tries):
        points = []
        left = size
        while left > 0:
            if left >= 2 and rng.random() < 0.3:
                points.append(ConjugatePair(0))
                left -= 2
            else:
                points.append(RealPoint(rng.randrange(0, parity + 1)))
                left -= 1
        morse = MorseSpec(tuple(points))
        rows = [[0] * size for _ in range(size)]
        for i in range(size):
            rows[i][i] = diag
        for r in range(size):
            for c in range(r + 1, size):
                v = rng.choice((0, 0, 0, 1, -1, 2, -2))
                rows[r][c] = v
                rows[c][r] = eps * v
        lat = ThimbleLattice(parity, IntMatrix.from_rows(rows, width=size))
        upper = _solve_sigma_upper(lat, morse, rng)
        if upper is None:
            continue
        try:
            conj = build_sigma(morse, parity, upper)
        except ValueError:
            continue
        report = derive_sigma_tilde(conj, lat)
        if not report.consistent:
            continue
        # pin the pair descriptors to the pairing numbers the gram forces
        d = diagonal_sign(parity)
        form = var_inverse(lat) * conj.sigma
        points = []
        for start, width, point in morse.blocks():
            if isinstance(point, RealPoint):
                points.append(point)
            else:
                points.append(ConjugatePair(d * form[start, start]))
        conj = ConjugationData(conj.sigma, MorseSpec(tuple(points)))
        return lat, conj
    return None


def _direct_sum(parity, parts):
    nu = sum(lat.nu for lat, _ in parts)
    gram = [[0] * nu for _ in range(nu)]
    sigma = [[0] * nu for _ in range(nu)]
    points = []
    pos = 0
    for lat, conj in parts:
        for r in range(lat.nu):
            for c in range(lat.nu):
                gram[pos + r][pos + c] = lat.gram[r, c]
                sigma[pos + r][pos + c] = conj.sigma[r, c]
        points.extend(conj.morse.points)
        pos += lat.nu
    lat = ThimbleLattice(parity, IntMatrix.from_rows(gram, width=nu))
    conj = ConjugationData(IntMatrix.from_rows(sigma, width=nu),
                           MorseSpec(tuple(points)))
    return lat, conj


def generate_consistent_instance(seed: int, rank_bound: int, parity: int,
                                 max_attempts: int = 4000
                                 ) -> tuple[ThimbleLattice, ConjugationData]:
    """Deterministic search for a consistent (lattice, conjugation) pair.

    Samples a rank up to ``rank_bound`` and assembles the instance as a
    direct sum of consistent chunks of rank at most 4.  Inside a chunk the
    gram couplings are random and the conjugation's upper entries are
    solved for; across chunks there is no coupling, since consistency
    pins those entries to rigid arithmetic relations that random data
    essentially never satisfies.  Raises RuntimeError if the attempt
    budget is exhausted.
    """
    if rank_bound < 0:
        raise ValueError("rank bound must be >= 0")
    rng = random.Random(seed)
    nu = rng.randint(0, rank_bound)
    if nu == 0:
        lat = ThimbleLattice(parity, IntMatrix(()))
        return lat, ConjugationData(IntMatrix(()), MorseSpec(()))
    budget = max_attempts
    parts = []
    left = nu
    while left > 0:
        size = min(left, rng.randint(1, 4))
        got = None
        while got is None and budget > 0:
            got = _sample_chunk(rng, size, parity)
            if got is None:
                budget -= 400  # only a failed chunk search uses up budget
                if size > 1:
                    size -= 1  # smaller chunks succeed essentially always
        if got is None:
            raise RuntimeError(
                "consistent-instance search exhausted %d attempts "
                "(rank %d, parity %d, seed %d)"
                % (max_attempts, nu, parity, seed))
        parts.append(got)
        left -= got[0].nu
    lat, conj = _direct_sum(parity, parts)
    assert validate_lattice(lat) is None
    assert block_diagonal_structure_check(lat, conj) is None
    return lat, conj
