"""The instance file format: a small YAML document, canonically emitted.

A file carries one tower instance: the dimension parameter ``n``, the
codimension ``p``, the sign tuple, and per-level data (gram matrix,
critical-point descriptors, conjugation upper entries, optional cycle
pairings), plus optional braid words and expected outputs for golden
tests.  Parsing accepts any YAML presentation; serialization is
canonical, so parse-then-serialize is the identity on canonically
formatted files.  Canonical text is read by a direct line reader and
any other text by ``yaml.safe_load``, for which alone PyYAML is
imported; both build the same document, and all validation after the
load is shared, so values and error messages do not depend on which
reader ran.  The line reader's regular
expressions decide which fixed lines it accepts, and one layout pass
per matrix which row lines; its integer grammar ``-?(0|[1-9][0-9]*)``
is JSON's, so once the sign list or the ``sigma_upper`` list is
accepted, one ``json.loads`` converts it.  A matrix becomes an
``IntMatrix`` as it is read: a sparse one from its nonzero tokens
alone, each found and checked whole against that grammar by one
C-level regex scan and placed in its row and column by the layout's
arithmetic, any other by one ``json.loads`` of its row lines.  The
``morse`` list becomes its ``MorseSpec`` there too.  The writer emits
each matrix row as it is stored, a sparse row from its nonzeros, and
can stream the text line by line instead of returning it.  It writes a
conjugation as its :func:`~vanlat.conjugation.sigma_upper` triples, and
raises ValueError, naming the level, for a sigma that no triples give
back.

Matrices are row-major integer lists in the package-wide storage
convention: ``gram[r][c]`` pairs basis thimble ``c`` against thimble
``r``.
"""

import json
import re
from dataclasses import dataclass, field
from itertools import islice, takewhile
from operator import methodcaller

from .basis import BraidWord, parse_braid_word
from .conjugation import (ConjugatePair, MorseSpec, RealPoint, assemble_sigma,
                          first_bad_triple, sigma_upper)
from .index import CycleData, IcisInstance, LevelData
from .intmat import (SPARSE_FILL, SPARSE_MIN_COLS, IntMatrix, non_integer_at,
                     row_text)
from .lattice import SignVector, ThimbleLattice

FORMAT_VERSION = 1

_HEADER = (
    "# vanlat instance file (format 1)\n"
    "# Matrices are row-major integer lists; gram[r][c] pairs basis thimble c\n"
    "# against basis thimble r (the column index is the first argument).\n"
)


class InstanceFormatError(ValueError):
    """Parse or validation failure with a location."""

    def __init__(self, message, where=None, line=None, column=None):
        self.where = where
        self.line = line
        self.column = column
        spot = ""
        if where:
            spot = " at %s" % where
        elif line is not None:
            spot = " at line %d, column %d" % (line, column or 0)
        super().__init__(message + spot)


@dataclass(frozen=True)
class InstanceDocument:
    """A parsed instance file: the instance plus optional extras."""

    instance: IcisInstance
    braid_words: tuple[BraidWord, ...] = ()
    expected: dict = field(default_factory=dict)
    provenance: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _want(mapping, key, kind, where):
    if key not in mapping:
        raise InstanceFormatError("missing key '%s'" % key, where=where)
    val = mapping[key]
    if kind is int:
        if not isinstance(val, int) or isinstance(val, bool):
            raise InstanceFormatError("expected integer", where="%s.%s" % (where, key))
    elif kind is list:
        if not isinstance(val, list):
            raise InstanceFormatError("expected list", where="%s.%s" % (where, key))
    elif kind is dict:
        if not isinstance(val, dict):
            raise InstanceFormatError("expected mapping", where="%s.%s" % (where, key))
    return val


def _matrix(mapping, key, where):
    """The matrix under ``key``: one the canonical reader built, or one
    from a list of rows, each checked with its location."""
    rows = mapping.get(key)
    if isinstance(rows, IntMatrix):
        return rows
    rows = _want(mapping, key, list, where)
    where = "%s.%s" % (where, key)
    for r, row in enumerate(rows):
        if not isinstance(row, list):
            raise InstanceFormatError("expected integer row", where="%s[%d]" % (where, r))
        c = non_integer_at(row)
        if c is not None:
            raise InstanceFormatError("expected integer",
                                      where="%s[%d][%d]" % (where, r, c))
    # every entry is checked above, so only the widths are left to check
    widths = set(map(len, rows))
    if len(widths) > 1:
        raise InstanceFormatError("ragged rows: %s" % sorted(widths), where=where)
    return IntMatrix(rows)


def _morse(entries, where):
    """The :class:`MorseSpec` of descriptors YAML loaded, each checked
    with its location; the canonical reader builds its own."""
    points = []
    for k, ent in enumerate(entries):
        spot = "%s[%d]" % (where, k)
        if (not isinstance(ent, list) or len(ent) != 2
                or not isinstance(ent[0], str)):
            raise InstanceFormatError("expected [kind, value] pair", where=spot)
        kind, val = ent
        if not isinstance(val, int) or isinstance(val, bool):
            raise InstanceFormatError("expected integer value", where=spot)
        if kind == "real":
            points.append(RealPoint(val))
        elif kind == "pair":
            points.append(ConjugatePair(val))
        else:
            raise InstanceFormatError("unknown kind %r (want 'real' or 'pair')"
                                      % kind, where=spot)
    return MorseSpec(tuple(points))


def _level(data, want_i, parity, where):
    if not isinstance(data, dict):
        raise InstanceFormatError("expected mapping", where=where)
    i = _want(data, "i", int, where)
    if i != want_i:
        raise InstanceFormatError("levels out of order: found i=%d, expected %d"
                                  % (i, want_i), where=where)
    gram = _matrix(data, "gram", where)
    if not gram.is_square:
        raise InstanceFormatError("gram must be square", where=where + ".gram")
    lat = ThimbleLattice(parity, gram)

    conj = None
    if "morse" in data:
        morse = data["morse"]
        if not isinstance(morse, MorseSpec):
            morse = _morse(_want(data, "morse", list, where), where + ".morse")
        if morse.total_slots != lat.nu:
            raise InstanceFormatError(
                "critical-point slots (%d) do not match rank (%d)"
                % (morse.total_slots, lat.nu), where=where + ".morse")
        bad = morse.validate(parity)
        if bad is not None:
            raise InstanceFormatError(bad, where=where + ".morse")
        raw_upper = data.get("sigma_upper")
        if raw_upper is not None and not isinstance(raw_upper, list):
            raise InstanceFormatError("expected list",
                                      where=where + ".sigma_upper")
        upper = raw_upper or []
        k = first_bad_triple(upper)
        if k is not None:
            raise InstanceFormatError("expected [row, col, value] triple",
                                      where="%s.sigma_upper[%d]" % (where, k))
        try:
            conj = assemble_sigma(morse, upper)
        except ValueError as e:
            raise InstanceFormatError(str(e), where=where + ".sigma_upper")
    elif "sigma_upper" in data:
        raise InstanceFormatError("sigma_upper without morse", where=where)

    cycles = None
    if "cycles" in data:
        cyc = _want(data, "cycles", dict, where)
        cw = where + ".cycles"
        form = _matrix(cyc, "form", cw)
        sigma = _matrix(cyc, "sigma", cw)
        tilde = _matrix(cyc, "sigma_tilde", cw)
        try:
            cycles = CycleData(form, sigma, tilde)
        except ValueError as e:
            raise InstanceFormatError(str(e), where=cw)
    return LevelData(i, lat, conj, cycles)


# The canonical reader.  An integer is written as below, in JSON's own
# integer grammar, so ``json.loads`` converts what the patterns accept
# and decides nothing; in matrix rows, whose layout pass leaves any run
# of digits and minus signs between the commas, ``json.loads`` is that
# grammar's check.  YAML 1.1 reads
# more spellings (``010`` is 8, ``1_0`` is 10, ``1:20`` is 80, ``+1`` is
# 1), and every one of them goes to ``yaml.safe_load`` instead.
_INT = r"-?(?:0|[1-9][0-9]*)"
# the inside of a flow list ``[a, b, c]`` of items, possibly empty
_ITEMS = r"(?:{0}(?:, {0})*)?".format
_INTS = _ITEMS(_INT)
_ROWS = _ITEMS(r"\[%s\]" % _INTS)
_POINTS = _ITEMS(r"\[(?:real|pair), %s\]" % _INT)
# double-quoted strings without escapes, which YAML reads literally
_STR = r'"[^"\\]*"'
_STRS = _ITEMS(_STR)
_KEY = r"[A-Za-z_][A-Za-z0-9_]*"
# the names that PyYAML's resolver reads as a bool or null, not as a string
_NOT_STRINGS = {case(word) for word in "yes no true false on off null".split()
                for case in (str, str.title, str.upper)}
# printable ASCII and "\n"; tabs, "\r", control characters and non-ASCII
# text all have YAML rules of their own
_PLAIN_BYTES = bytes(range(0x20, 0x7f)) + b"\n"
_DIGIT_BYTES = b"-0123456789"
_POINT_PARTS = re.compile(r"\[(real|pair), (%s)\]" % _INT)
_STR_BODY = re.compile(r'"([^"]*)"')


def _is_plain_key(key):
    """Whether ``key`` can be written bare as an ``expected:`` key and
    read back as the same string, as ``yaml.safe_load(key) == key``."""
    return isinstance(key, str) and key.isidentifier() and key not in _NOT_STRINGS


class _NotCanonical(Exception):
    """The text is not in the layout ``serialize_instance`` writes."""


def _line(pattern):
    return re.compile(pattern).fullmatch


# the fixed lines of the layout, each as a full-line match
_COMMENT = _line(r"(#.*)")
_HEAD_FIELDS = [(key, _line(r"%s: (%s)" % (key, _INT)))
                for key in ("format", "n", "p")]
_SIGNS = _line(r"signs: (\[%s\])" % _INTS)
_LEVELS = _line(r"levels:")
_LEVEL_HEAD = _line(r"- i: (%s)" % _INT)
_MORSE = _line(r"  morse: \[(%s)\]" % _POINTS)
_SIGMA_UPPER = _line(r"  sigma_upper: (\[%s\])" % _ROWS)
_CYCLES = _line(r"  cycles:")
_BRAID_WORDS = _line(r"braid_words: \[(%s)\]" % _STRS)
_EXPECTED = _line(r"expected:")
_EXPECTED_ENTRY = _line(r"  (%s): (%s|%s)" % (_KEY, _INT, _STR))
# a matrix is written as "key: []" or as "key:" and its row lines, each
# the row prefix at the matrix's indent, a list body and "]"
_MATRIX_LINES = {
    key: (_line(r"%s%s:( \[\])?" % (" " * indent, key)), " " * indent + "- [")
    for key, indent in (("gram", 2), ("form", 4), ("sigma", 4),
                        ("sigma_tilde", 4))}


class _CanonicalLines:
    """The lines of a text, taken in order by full-line patterns."""

    def __init__(self, lines):
        self.lines = lines
        self.k = 0

    def take(self, fullmatch, optional=False):
        """The groups of the next line if ``fullmatch`` matches it.

        A pattern without groups gives an empty tuple.  A line that does
        not match raises :class:`_NotCanonical`, or returns None without
        consuming it when ``optional``.
        """
        m = None
        if self.k < len(self.lines):
            m = fullmatch(self.lines[self.k])
        if m is None:
            if optional:
                return None
            raise _NotCanonical
        self.k += 1
        return m.groups()

    def matrix(self, key):
        """Matrix ``key`` as an :class:`IntMatrix`, from its row lines
        taken as one block.

        The block is every following line that starts with the row
        prefix.  Deleting its digits and minus signs must leave exactly
        the layout of its row lines, each the prefix's, ``", "`` between
        entries and the closing ``"]"``, with as many entries as the
        first row: this one C-level pass rules out nesting, a second row
        on a line, any other spacing, trailing text, and every JSON value
        but integers and lists.  A sparse block of at least
        ``SPARSE_MIN_COLS`` columns is then decoded from its nonzero
        tokens alone (:func:`_nonzero_rows`); any other block, and one
        with a token that scan refuses, by one ``json.loads``, whose
        rows' widths must agree (``[]`` and ``[5]`` share a layout).
        ``IntMatrix`` stores the rows by its one rule either way.  A
        block that fails is left to YAML and its located errors.
        """
        head, prefix = _MATRIX_LINES[key]
        if self.take(head)[0]:
            return IntMatrix(())
        block = list(takewhile(methodcaller("startswith", prefix),
                               islice(self.lines, self.k, None)))
        if not block:
            raise _NotCanonical
        self.k += len(block)
        text = "\n".join(block)
        commas = block[0].count(",")
        layout = prefix.replace("-", "") + ", " * commas + "]"
        if (text.encode("ascii").translate(None, _DIGIT_BYTES)
                != "\n".join([layout] * len(block)).encode("ascii")):
            raise _NotCanonical
        width = commas + 1
        if width >= SPARSE_MIN_COLS:
            rows = _nonzero_rows(text, len(block), width, len(prefix))
            if rows is not None:
                return IntMatrix(rows, width)
        rows = json.loads("[%s]" % text[len(prefix) - 1:].replace(
            "\n" + prefix[:-1], ","))
        if len(set(map(len, rows))) != 1:
            raise _NotCanonical
        return IntMatrix(rows)


# "x" at each nonzero digit, so that a nonzero token starts with the
# literal the scan below looks for, and "|" at each of " ", "[", "," and
# "]", the bytes that delimit a token; the row prefix's "-" is left alone
_NONZERO_DIGITS = bytes.maketrans(b"123456789 [,]", b"x" * 9 + b"|" * 4)
# a whole nonzero token ``-?[1-9][0-9]*`` in those bytes, matched from its
# first digit: a literal start lets the regex engine skip to each
# candidate in C, and the lookbehinds then ask for a delimiter before the
# token and its optional "-", the lookahead for one after it
_NONZERO_TOKENS = re.compile(rb"x(?:(?<=\|x)|(?<=\|-x))[x0]*(?=\|)").finditer


def _nonzero_rows(text, nrows, width, indent):
    """The rows of a sparse matrix block as dicts of their nonzero
    entries; None for a block that is not sparse or has a token that is
    not canonical integer text, which ``json.loads`` decodes instead.

    ``text`` holds the block's ``nrows`` row lines of ``width`` tokens,
    each after a row prefix of ``indent`` characters, which passed the
    layout check.  The block is sparse when at most one token in
    ``SPARSE_FILL`` is other than an exact ``0`` token.  Each zero token
    holds a ``"0"``, so one count of that character settles most dense
    blocks before anything else is done.  In the scanned bytes each
    delimiter is one ``"|"``, and past the layout check two of them
    (``", "``) stand between neighbouring tokens, so the exact ``0``
    tokens are the matches of ``"|0|"``, counted once, and a token such
    as ``00``, ``-0`` or an empty one is not among them.

    One regex scan finds every whole token ``-?[1-9][0-9]*``: so ``010``
    and ``0-1`` are not read from their inner digits, and a token with no
    nonzero digit, such as ``00``, ``-0`` or an empty one, is not found.
    The tokens found must therefore number the nonzero tokens counted,
    and only then is every other token an exact ``0``.  Past that check
    the layout fixes where each token sits: a line of zeros, with its
    line end, is ``indent + 3 * width`` characters long, and each nonzero
    token before a column on its line lengthens the line by its length
    less one.  So a token's row and column follow from its offset by
    arithmetic, with the all-zero lines before it skipped by one floor
    division.  Text that fails the check may place a token anywhere, and
    is only kept from placing one past the last row.
    """
    total = nrows * width
    if text.count("0") * SPARSE_FILL < total * (SPARSE_FILL - 1):
        return None
    scanned = text.encode("ascii").translate(_NONZERO_DIGITS)
    nonzeros = total - scanned.count(b"|0|")
    if nonzeros * SPARSE_FILL > total:
        return None
    zero_line = indent + 3 * width
    rows = [{} for _ in range(nrows)]
    row = rows[0]
    r = found = 0
    # where the line after row r's starts, given the nonzero tokens placed
    # on row r so far: its column c starts 3 * (width - c) characters before
    end = zero_line
    for m in _NONZERO_TOKENS(scanned):
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


def _read_canonical(text):
    """What ``yaml.safe_load(text)`` builds, for canonical text only,
    with each matrix as the :class:`IntMatrix` of its rows and each
    ``morse`` list as its :class:`MorseSpec`.

    Accepts exactly the layout :func:`serialize_instance` writes and
    returns None for any other text, which the caller hands to YAML.
    """
    if (not (text.endswith("\n") and text.isascii())
            or text.encode("ascii").translate(None, _PLAIN_BYTES)):
        return None
    lines = text.split("\n")
    lines.pop()  # the empty string after the final line end
    src = _CanonicalLines(lines)
    try:
        return _canonical_document(src)
    except (_NotCanonical, ValueError):  # ValueError: an int too long to convert
        return None


def _canonical_document(src):
    """The document of :func:`_read_canonical`, from its lines ``src``."""
    while src.take(_COMMENT, optional=True):
        pass
    data = {}
    for key, field_line in _HEAD_FIELDS:
        data[key] = int(src.take(field_line)[0])
    data["signs"] = json.loads(src.take(_SIGNS)[0])
    src.take(_LEVELS)
    levels = []
    while (head := src.take(_LEVEL_HEAD, optional=True)):
        level = {"i": int(head[0]), "gram": src.matrix("gram")}
        morse = src.take(_MORSE, optional=True)
        if morse:
            level["morse"] = _canonical_morse(morse[0])
        upper = src.take(_SIGMA_UPPER, optional=True)
        if upper:
            level["sigma_upper"] = json.loads(upper[0])
        if src.take(_CYCLES, optional=True) is not None:
            level["cycles"] = {key: src.matrix(key)
                               for key in ("form", "sigma", "sigma_tilde")}
        levels.append(level)
    if not levels:  # YAML reads a bare "levels:" as None
        raise _NotCanonical
    data["levels"] = levels
    words = src.take(_BRAID_WORDS, optional=True)
    if words:
        data["braid_words"] = _STR_BODY.findall(words[0])
    if src.take(_EXPECTED, optional=True) is not None:
        expected = {}
        while (entry := src.take(_EXPECTED_ENTRY, optional=True)):
            key, value = entry
            if not _is_plain_key(key):
                raise _NotCanonical
            expected[key] = value[1:-1] if value[0] == '"' else int(value)
        if not expected:  # likewise a bare "expected:"
            raise _NotCanonical
        data["expected"] = expected
    if src.k != len(src.lines):
        raise _NotCanonical
    return data


def _canonical_morse(text):
    """The :class:`MorseSpec` of the descriptors ``text`` of a ``morse``
    line, whose pattern fixed every kind and integer, with one point
    object per distinct descriptor."""
    parts = _POINT_PARTS.findall(text)
    point = {part: (RealPoint if part[0] == "real" else ConjugatePair)(int(part[1]))
             for part in set(parts)}
    return MorseSpec(tuple(map(point.__getitem__, parts)))


def _load_yaml(text):
    """What ``yaml.safe_load(text)`` builds, for text the canonical reader
    declines; a YAML error is an :class:`InstanceFormatError` at its line
    and column.

    PyYAML is imported here, so that canonical text is read without it.
    It builds scalars with ``int()`` and ``datetime()``, whose ValueError
    (an integer past Python's digit limit, a date such as ``2024-13-01``)
    would escape with no position; the loader turns it into a YAML error
    marked at the scalar, and loads everything else as ``yaml.safe_load``
    does.
    """
    import yaml

    class SafeLoader(yaml.SafeLoader):
        def construct_object(self, node, deep=False):
            try:
                return super().construct_object(node, deep=deep)
            except ValueError as e:
                raise yaml.constructor.ConstructorError(
                    None, None, str(e), node.start_mark) from None

    try:
        return yaml.load(text, Loader=SafeLoader)
    except yaml.reader.ReaderError as e:
        # a refused character has no mark; its position indexes the text
        raise InstanceFormatError(
            "not valid YAML: %s" % str(e).partition("\n")[0],
            line=text.count("\n", 0, e.position) + 1,
            column=e.position - text.rfind("\n", 0, e.position))
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        if mark is not None:
            raise InstanceFormatError("not valid YAML: %s" % getattr(e, "problem", e),
                                      line=mark.line + 1, column=mark.column + 1)
        raise InstanceFormatError("not valid YAML: %s" % e)


def parse_instance_text(text: str) -> InstanceDocument:
    data = _read_canonical(text) or _load_yaml(text)
    if not isinstance(data, dict):
        raise InstanceFormatError("document is not a mapping", where="top level")

    version = _want(data, "format", int, "top level")
    if version != FORMAT_VERSION:
        raise InstanceFormatError("unsupported format version %d" % version,
                                  where="format")
    n = _want(data, "n", int, "top level")
    p = _want(data, "p", int, "top level")
    if p < 0:
        raise InstanceFormatError("p must be >= 0", where="p")
    raw_signs = _want(data, "signs", list, "top level")
    try:
        signs = SignVector(tuple(raw_signs))
    except ValueError as e:
        raise InstanceFormatError(str(e), where="signs")
    if len(signs) != p + 1:
        raise InstanceFormatError("expected %d signs, got %d"
                                  % (p + 1, len(signs)), where="signs")
    raw_levels = _want(data, "levels", list, "top level")
    if len(raw_levels) != p + 1:
        raise InstanceFormatError("expected %d levels, got %d"
                                  % (p + 1, len(raw_levels)), where="levels")
    levels = tuple(_level(raw, i, n + i, "levels[%d]" % i)
                   for i, raw in enumerate(raw_levels))
    instance = IcisInstance(n, p, signs, levels)

    raw_words = data.get("braid_words")
    if raw_words is not None and not isinstance(raw_words, list):
        raise InstanceFormatError("expected list", where="braid_words")
    words = []
    for k, text_word in enumerate(raw_words or []):
        if not isinstance(text_word, str):
            raise InstanceFormatError("expected string", where="braid_words[%d]" % k)
        try:
            words.append(parse_braid_word(text_word))
        except ValueError as e:
            raise InstanceFormatError(str(e), where="braid_words[%d]" % k)

    expected = {} if data.get("expected") is None else data["expected"]
    if not isinstance(expected, dict):
        raise InstanceFormatError("expected mapping", where="expected")
    for key, value in expected.items():
        if not _is_plain_key(key):
            raise InstanceFormatError("key %r is not a plain name" % (key,),
                                      where="expected")
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise InstanceFormatError("expected an integer or a string",
                                      where="expected.%s" % key)
    return InstanceDocument(instance, tuple(words), dict(expected))


def load_instance(path) -> InstanceDocument:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise InstanceFormatError(
            "not valid UTF-8 (%s)" % e.reason,
            line=raw.count(b"\n", 0, e.start) + 1,
            column=e.start - raw.rfind(b"\n", 0, e.start))
    del raw  # a large file's bytes are not held through the parse
    if "\r" in text:  # line ends as a file opened in text mode reads them
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse_instance_text(text)


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def _matrix_lines(key, m, indent):
    pad = " " * indent
    if m.nrows == 0:
        yield "%s%s: []" % (pad, key)
        return
    yield "%s%s:" % (pad, key)
    prefix = pad + "- "
    for row in m.stored_rows:
        yield prefix + row_text(row, m.ncols)


def _lines(doc):
    """The lines of the canonical text of ``doc``, each made when asked
    for, without its line end.  Every level's ``sigma_upper`` triples are
    taken before the first line, so a level that cannot be written back
    is refused before anything is written."""
    inst = doc.instance
    uppers = []
    for level in inst.levels:
        try:
            uppers.append(None if level.conj is None else sigma_upper(level.conj))
        except ValueError as e:
            raise ValueError("level %d: %s" % (level.i, e)) from None
    yield from _HEADER.splitlines()
    for line in doc.provenance:
        yield "# provenance: %s" % line
    yield "format: %d" % FORMAT_VERSION
    yield "n: %d" % inst.n
    yield "p: %d" % inst.p
    yield "signs: %s" % list(inst.signs.entries)
    yield "levels:"
    for level, upper in zip(inst.levels, uppers):
        yield "- i: %d" % level.i
        yield from _matrix_lines("gram", level.lattice.gram, 2)
        if level.conj is not None:
            ents = []
            for pt in level.conj.morse.points:
                if isinstance(pt, RealPoint):
                    ents.append("[real, %d]" % pt.morse_index)
                else:
                    ents.append("[pair, %d]" % pt.pairing)
            yield "  morse: [%s]" % ", ".join(ents)
            yield "  sigma_upper: %s" % upper
        if level.cycles is not None:
            yield "  cycles:"
            yield from _matrix_lines("form", level.cycles.form, 4)
            yield from _matrix_lines("sigma", level.cycles.sigma, 4)
            yield from _matrix_lines("sigma_tilde", level.cycles.sigma_tilde, 4)
    if doc.braid_words:
        yield "braid_words: [%s]" % ", ".join('"%s"' % w for w in doc.braid_words)
    if doc.expected:
        yield "expected:"
        for key in sorted(doc.expected):
            val = doc.expected[key]
            if isinstance(val, str):
                yield "  %s: %s" % (key, json.dumps(val))
            else:
                yield "  %s: %s" % (key, val)


def serialize_instance(doc: InstanceDocument, out=None):
    """Canonical text for an instance document, stable byte for byte.

    Without ``out`` the text is returned.  Given a text stream ``out``,
    each line is written to it as it is made, so that the whole text is
    never held, and None is returned.
    """
    if out is None:
        # one join, so that a large document is copied once
        return "\n".join([*_lines(doc), ""])
    for line in _lines(doc):
        out.write(line + "\n")
