import pathlib
import random
import re
import sys
from operator import mul

from vanlat.basis import BraidMove, BraidWord, parse_braid_word
from vanlat.conjugation import ConjugatePair, MorseSpec, RealPoint, build_sigma
from vanlat.gen import generate_level, random_icis_instance
from vanlat.index import IcisInstance, LevelData
from vanlat.instfile import InstanceDocument, serialize_instance
from vanlat.intmat import SPARSE_FILL, IntMatrix, direct_sum
from vanlat.lattice import SignVector, ThimbleLattice, diagonal_sign, gram_rows
from vanlat.variation import var_inverse

INSTANCE_DIR = pathlib.Path(__file__).resolve().parent.parent / "instances"


def instance_path(name):
    return INSTANCE_DIR / name


def triple_loop(a, b):
    """Rows of the product ``a * b``, summed entry by entry over the dense
    rows of ``a`` and columns of ``b``."""
    cols = list(zip(*b.rows))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a.rows)


def unitriangular_inverse(rows):
    """Dense rows of the inverse of a unit lower or upper triangular
    matrix, given by its dense rows, by substitution: row ``r`` of the
    inverse is ``e_r`` minus ``m[r][c]`` times row ``c`` of the inverse
    for each other nonzero ``m[r][c]``, so the rows are found from the
    first down for a lower matrix and from the last up for an upper one."""
    n = len(rows)
    lower = not any(rows[r][c] for r in range(n) for c in range(r + 1, n))
    inverse = [None] * n
    for r in range(n) if lower else reversed(range(n)):
        out = [int(c == r) for c in range(n)]
        for c, x in enumerate(rows[r]):
            if c != r and x:
                out = [y - x * z for y, z in zip(out, inverse[c])]
        inverse[r] = out
    return inverse


def inverse_word(word):
    """The word undoing ``word``: its moves reversed, each inverted."""
    return BraidWord(tuple(BraidMove({"a": "A", "A": "a", "f": "f"}[m.kind], m.j)
                           for m in reversed(word.moves)))


def upper_entries(rows):
    """The entries of the square ``rows`` above the diagonal, as one flat
    row-major list: the form :func:`vanlat.lattice.gram_rows` reads."""
    return [x for r, row in enumerate(rows) for x in row[r + 1:]]


# The marker of a conjugate pair in a drawn descriptor sequence, beside
# the Morse index of each real slot.
PAIR = "pair"


def forced_conjugation_reference(parity, upper, drawn):
    """The conjugation ``B^-1 * var_inverse`` of a chunk's gram entries,
    taken as a product over dense rows, with its descriptors: sigma on
    consistent data, so a chunk is consistent exactly when these rows
    square to the identity.

    ``upper`` is the flat row-major list of gram entries above the
    diagonal, and ``drawn`` a Morse index per real slot and ``PAIR`` per
    pair.  ``B^-1`` is the direct sum of ``d * (-1)^m`` on a real slot and
    ``d * [[0, 1], [1, -a]]`` on a pair at slot ``s``, whose pairing number
    is ``a = -d * gram[s][s+1]``.  Every chunk gives rows, whether or not
    they square to the identity.
    """
    size = len(drawn) + drawn.count(PAIR)
    lat = ThimbleLattice(parity, IntMatrix(gram_rows(size, parity, upper), size))
    d = diagonal_sign(parity)
    blocks, points, s = [], [], 0
    for m in drawn:
        if m == PAIR:
            a = -d * lat.gram[s, s + 1]
            blocks.append(((0, d), (d, -d * a)))
            points.append(ConjugatePair(a))
            s += 2
        else:
            blocks.append(((d * (-1) ** m,),))
            points.append(RealPoint(m))
            s += 1
    return triple_loop(direct_sum(blocks), var_inverse(lat)), tuple(points)


def coupled_alike(build):
    """The generator's build step ``build`` with a coupling of 1 added to
    ``S`` between each two neighbouring real slots of one sign, which the
    draws never couple: ``S^2`` is ``2 * (-1)^m`` there, so sigma is no
    involution on a level with two such slots."""
    def build_coupled_alike(morse, k_entries, couplings):
        signs = [None] * morse.total_slots
        for start, _, p in morse.blocks():
            if isinstance(p, RealPoint):
                signs[start] = (-1) ** p.morse_index
        alike = [(r, r + 1, 1) for r, (s, t) in enumerate(zip(signs, signs[1:]))
                 if s is not None and s == t]
        return build(morse, k_entries, list(couplings) + alike)
    return build_coupled_alike


# The values a pair's pairing number and each entry of ``K`` are drawn
# from, as the generator draws them.
DRAWN_VALUES = (0, 0, 0, 1, -1, 2, -2)


def draw_level_reference(seed, rank_bound, parity):
    """The generator's draws for ``seed`` made with ``rng.randint`` and
    ``rng.choice``, entry by entry: the descriptors, then the entries of
    ``K`` and the couplings of ``S`` as ``(row, col, value)`` triples,
    values nonzero.  Chunks of rank ``randint(1, 4)`` fill a rank
    ``randint(0, rank_bound)``; each block is a pair where two slots are
    left and ``random() < 0.3``, else a real point of Morse index
    ``randint(0, parity)``, and its rows of ``K`` right of it in the chunk
    follow; then each two uncoupled real slots of the chunk of opposite
    sign draw a coupling from ``(0, 1, -1)``."""
    rng = random.Random(seed)
    nu = rng.randint(0, rank_bound)
    points, k_entries, couplings = [], [], []
    slot = 0
    while slot < nu:
        end = min(nu, slot + rng.randint(1, 4))
        real = []
        while slot < end:
            if end - slot >= 2 and rng.random() < 0.3:
                points.append(ConjugatePair(rng.choice(DRAWN_VALUES)))
                rows, slot = (slot, slot + 1), slot + 2
            else:
                m = rng.randint(0, parity)
                points.append(RealPoint(m))
                real.append((slot, (-1) ** m))
                rows, slot = (slot,), slot + 1
            for r in rows:
                for c in range(slot, end):
                    v = rng.choice(DRAWN_VALUES)
                    if v:
                        k_entries.append((r, c, v))
        coupled = set()
        for i, (r, s) in enumerate(real):
            for c, t in real[i + 1:]:
                if s != t and r not in coupled and c not in coupled:
                    x = rng.choice((0, 1, -1))
                    if x:
                        couplings.append((r, c, x))
                        coupled.update((r, c))
    return MorseSpec(tuple(points)), k_entries, couplings


def generate_with_form_2(*args):
    """The generated level of ``args`` with its form replaced, after the
    generator's checks, by ``[[2]]``: symmetric and nondegenerate, but of
    det 2."""
    analysis = generate_level(*args)
    analysis.form = IntMatrix.from_rows([[2]])
    return analysis


# each family fails through the name ``suite`` calls for its check, with
# its FAIL line's problem and the sha256 of the counterexample file that
# ``vanlat verify --seed 2 --count 5 --rank-bound 8`` writes when it runs
# that family alone
FORCED_FAILURES = {
    "s-relation": (
        ("check_s_relation", lambda lat: "forced failure"),
        "forced failure",
        "e2776924d7facb4c5f7301c1a5c4144cfb3c3338f31bab11c928c563d20788b4"),
    "monodromy-relation": (
        ("check_monodromy_relation", lambda lat: "forced failure"),
        "forced failure",
        "15662982f6b80a2d9e5e93f0e53a2b6d8be050b7db755c600b49a349d17efcf4"),
    "braid-invariance": (
        ("var_inverse_as_operator_after_braid", lambda lat, word: "forced failure"),
        "forced failure",
        "efdeba00c11ab14a61259c3e6b04d7edafee7d6d06d35fb7d0296b6671dda1f0"),
    "symmetric-nondegenerate": (
        ("generate_level", generate_with_form_2),
        "form not symmetric and unimodular",
        "408cccf1ce7c3fc1b4f81e7097c588300fb3a061e2da9b6e21b6a2bbb8b0a601"),
    "block-form": (
        ("signature_by_blocks", lambda lat, conj: None),
        "signature disagrees with block closed form",
        "1135bd098057510434f6a0f2916b4753f0e330046cc73fa1a977f1c561aecdf2"),
    "cycle-route-agreement": (
        ("cycle_index_sum", lambda level, s: 1000),
        "cycle route gives 1000, thimble route 1",
        "08d174f94c7dcb6dc1bf3de7ca4f3b26920ff3d364115b6b30f6cab444a4ff5f"),
    "telescoping": (
        ("telescoped_index", lambda inst: None),
        "telescoped recursion disagrees with closed formula",
        "f6c9a7df1af49c31eba9fd55aa43364e697ea5086b582f5b031a8e673bc00b4f"),
}


def rebind(monkeypatch, original, replacement):
    """Replace ``original`` by ``replacement`` under every name a vanlat
    module binds it to."""
    for module in [m for name, m in sys.modules.items() if name.startswith("vanlat")]:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


def matrix_power(m, k):
    """``m`` multiplied by itself ``k >= 0`` times (the identity at 0)."""
    out = m.identity(m.nrows)
    for _ in range(k):
        out = out * m
    return out


def a_k_level(k):
    """The real morsification of ``x^(k+1)`` as a parity-1 lattice of rank
    ``k`` and its conjugation.

    Maxima come first in the basis, then minima; neighbours on the line
    pair to -1, and the conjugation has +1 at (maximum, minimum) for each
    line edge.  Every matrix of the level has about two nonzeros per row,
    and the gram matrix is built from its nonzeros alone, as ``{col:
    value}`` rows.
    """
    order = list(range(0, k, 2)) + list(range(1, k, 2))  # even positions are maxima
    slot = {pos: s for s, pos in enumerate(order)}
    gram = [{s: 2} for s in range(k)]
    upper = []
    for pos in range(k - 1):
        a, b = slot[pos], slot[pos + 1]
        gram[a][b] = gram[b][a] = -1
        upper.append((a, b, 1) if pos % 2 == 0 else (b, a, 1))
    morse = MorseSpec(tuple(RealPoint(1 - pos % 2) for pos in order))
    lat = ThimbleLattice(1, IntMatrix(gram, k))
    return lat, build_sigma(morse, 1, upper)


def a_k_instance(k):
    """The A_k level of :func:`a_k_level` as a one-level tower (n = 1,
    p = 0, sign +1)."""
    lat, conj = a_k_level(k)
    return IcisInstance(1, 0, SignVector((1,)), (LevelData(0, lat, conj),))


def generated_texts():
    """Serializer output with every optional part: p > 0, cycles, braid
    words, expected entries and provenance lines."""
    texts = []
    for seed in range(4):
        inst = random_icis_instance(seed, 1 + seed % 2, 1 + seed % 2, 4,
                                    with_cycles=True)
        doc = InstanceDocument(inst, (parse_braid_word("a1 A1"),
                                      parse_braid_word("f1")),
                               {"index": seed - 2, "note": "seed #%d: ok" % seed},
                               ("generated with seed %d" % seed, "second line"))
        texts.append(serialize_instance(doc))
    return texts


def as_loaded(data):
    """A document of the canonical reader as ``yaml.safe_load`` builds it:
    each matrix, which the reader returns as an ``IntMatrix``, as its
    list of row lists, and the ``MorseSpec`` of each ``morse`` line as
    its list of ``[kind, value]`` pairs."""
    if isinstance(data, IntMatrix):
        return data.to_lists()
    if isinstance(data, MorseSpec):
        return [["real", p.morse_index] if isinstance(p, RealPoint)
                else ["pair", p.pairing] for p in data.points]
    if isinstance(data, dict):
        return {key: as_loaded(value) for key, value in data.items()}
    if isinstance(data, list):
        return [as_loaded(value) for value in data]
    return data


# The sparse block decoder as it counted zero tokens by three substring
# counts of the block text, kept as the reference its one count of the
# scanned bytes must agree with.
_REFERENCE_DIGITS = bytes.maketrans(b"123456789", b"x" * 9)
_REFERENCE_TOKENS = re.compile(
    rb"x(?:(?<=[ \[]x)|(?<=[ \[]-x))[x0]*(?=[,\]])").finditer


def nonzero_rows_reference(text, nrows, width, indent):
    """The rows of a sparse matrix block, as dicts of their nonzero
    entries, or None, as :func:`vanlat.instfile._nonzero_rows` gives them
    for a block that passed the layout check: the exact ``0`` tokens are
    the matches of ``" 0,"``, ``"[0,"`` and ``" 0]"``, and the nonzero
    tokens the matches of a scan that asks for ``"["`` or ``" "`` before
    a token and ``","`` or ``"]"`` after it."""
    total = nrows * width
    if text.count("0") * SPARSE_FILL < total * (SPARSE_FILL - 1):
        return None
    nonzeros = total - (text.count(" 0,") + text.count("[0,") + text.count(" 0]"))
    if nonzeros * SPARSE_FILL > total:
        return None
    scanned = text.encode("ascii").translate(_REFERENCE_DIGITS)
    zero_line = indent + 3 * width
    rows = [{} for _ in range(nrows)]
    row = rows[0]
    r = found = 0
    end = zero_line
    for m in _REFERENCE_TOKENS(scanned):
        at, stop = m.span()
        if scanned[at - 1] == 45:  # "-"
            at -= 1
        if at >= end:
            lines = (at - end) // zero_line + 1
            r += lines
            if r >= nrows:
                return None
            row = rows[r]
            end += lines * zero_line
        row[(at - end) // 3 + width] = int(text[at:stop])
        end += stop - at - 1
        found += 1
    return rows if found == nonzeros else None
