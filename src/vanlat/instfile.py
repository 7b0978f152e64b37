"""The instance file format: a small YAML document, canonically emitted.

A file carries one tower instance: the dimension parameter ``n``, the
codimension ``p``, the sign tuple, and per-level data (gram matrix,
critical-point descriptors, conjugation upper entries, optional cycle
pairings), plus optional braid words and expected outputs for golden
tests.  Parsing accepts any YAML presentation; serialization is
canonical, so parse-then-serialize is the identity on canonically
formatted files.  Canonical text is read by a direct line reader and
any other text by ``yaml.safe_load``; both build the same document, and
all validation after the load is shared, so values and error messages
do not depend on which reader ran.  The line reader's regular
expressions decide which fixed lines it accepts, and one layout pass
per matrix which row lines; its integer grammar ``-?(0|[1-9][0-9]*)``
is JSON's, so once a matrix's row lines, the sign list or the
``sigma_upper`` list are accepted, one ``json.loads`` of each converts
them, and each matrix becomes an ``IntMatrix`` as it is read.

Matrices are row-major integer lists in the package-wide storage
convention: ``gram[r][c]`` pairs basis thimble ``c`` against thimble
``r``.
"""

import json
import re
from dataclasses import dataclass, field
from itertools import chain, islice, takewhile
from operator import methodcaller

import yaml

from .basis import BraidWord, parse_braid_word
from .conjugation import (ConjugatePair, MorseSpec, RealPoint, assemble_sigma,
                          first_bad_triple)
from .index import CycleData, IcisInstance, LevelData
from .intmat import IntMatrix, non_integer_at, row_items
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


def _int_lists(items):
    """Whether every item is a list of ints (not bools), decided by
    C-level passes over all of them at once."""
    return ({list}.issuperset(map(type, items))
            and {int}.issuperset(map(type, chain.from_iterable(items))))


def _matrix(mapping, key, where):
    """The matrix under ``key``: one the canonical reader built, or one
    from a list of rows, each checked with its location."""
    rows = mapping.get(key)
    if isinstance(rows, IntMatrix):
        return rows
    rows = _want(mapping, key, list, where)
    where = "%s.%s" % (where, key)
    # rows that all pass at once skip the search for the first bad entry
    for r, row in enumerate(() if _int_lists(rows) else rows):
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
    if gram.nrows and not gram.is_square:
        raise InstanceFormatError("gram must be square", where=where + ".gram")
    lat = ThimbleLattice(parity, gram)

    conj = None
    if "morse" in data:
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
    try:
        return LevelData(i, lat, conj, cycles)
    except ValueError as e:
        raise InstanceFormatError(str(e), where=where)


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
# plain names that YAML 1.1 reads as a bool or null, not as a string
_RESERVED_KEYS = {"yes", "no", "true", "false", "on", "off", "null"}
# printable ASCII and "\n"; tabs, "\r", control characters and non-ASCII
# text all have YAML rules of their own
_PLAIN_BYTES = bytes(range(0x20, 0x7f)) + b"\n"
_DIGIT_BYTES = b"-0123456789"
_POINT_PARTS = re.compile(r"\[(real|pair), (%s)\]" % _INT)
_STR_BODY = re.compile(r'"([^"]*)"')


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
        but integers and lists.  One ``json.loads`` then decodes the
        rows, whose widths must agree (``[]`` and ``[5]`` share a
        layout), and ``IntMatrix`` stores them by its one rule.  A block
        that fails is left to YAML and its located errors.
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
        layout = prefix.replace("-", "") + ", " * block[0].count(",") + "]"
        if (text.encode("ascii").translate(None, _DIGIT_BYTES)
                != "\n".join([layout] * len(block)).encode("ascii")):
            raise _NotCanonical
        rows = json.loads("[%s]" % text[len(prefix) - 1:].replace(
            "\n" + prefix[:-1], ","))
        if len(set(map(len, rows))) != 1:
            raise _NotCanonical
        return IntMatrix(rows)


def _read_canonical(text):
    """What ``yaml.safe_load(text)`` builds, for canonical text only,
    with each matrix as the :class:`IntMatrix` of its rows.

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
            level["morse"] = [[kind, int(v)] for kind, v
                              in _POINT_PARTS.findall(morse[0])]
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
            if key.lower() in _RESERVED_KEYS:
                raise _NotCanonical
            expected[key] = value[1:-1] if value[0] == '"' else int(value)
        if not expected:  # likewise a bare "expected:"
            raise _NotCanonical
        data["expected"] = expected
    if src.k != len(src.lines):
        raise _NotCanonical
    return data


class _SafeLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` whose scalar failures carry a position.

    PyYAML builds scalars with ``int()`` and ``datetime()``, whose
    ValueError (an integer past Python's digit limit, a date such as
    ``2024-13-01``) would escape with no position; here it becomes a
    YAML error marked at the scalar.  Everything it loads, it loads as
    ``yaml.safe_load`` does.
    """

    def construct_object(self, node, deep=False):
        try:
            return super().construct_object(node, deep=deep)
        except ValueError as e:
            raise yaml.constructor.ConstructorError(
                None, None, str(e), node.start_mark) from None


def parse_instance_text(text: str) -> InstanceDocument:
    data = _read_canonical(text)
    if data is None:
        try:
            data = yaml.load(text, Loader=_SafeLoader)
        except yaml.YAMLError as e:
            mark = getattr(e, "problem_mark", None)
            if mark is not None:
                raise InstanceFormatError("not valid YAML: %s" % getattr(e, "problem", e),
                                          line=mark.line + 1, column=mark.column + 1)
            raise InstanceFormatError("not valid YAML: %s" % e)
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
    if any(isinstance(x, bool) for x in raw_signs):
        raise InstanceFormatError("sign entries must be +1 or -1, not booleans",
                                  where="signs")
    try:
        signs = SignVector(tuple(raw_signs))
    except (TypeError, ValueError) as e:
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
    try:
        instance = IcisInstance(n, p, signs, levels)
    except ValueError as e:
        raise InstanceFormatError(str(e), where="levels")

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

    expected = data.get("expected") or {}
    if not isinstance(expected, dict):
        raise InstanceFormatError("expected mapping", where="expected")
    for key, value in expected.items():
        # keys are written bare, so each must read back as the same string
        if not (isinstance(key, str) and key.isidentifier()
                and yaml.safe_load(key) == key):
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
    # line ends as a file opened in text mode reads them
    return parse_instance_text(text.replace("\r\n", "\n").replace("\r", "\n"))


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def _flow_row(row):
    return str(list(row))


def _emit_matrix(lines, key, m, indent):
    pad = " " * indent
    if m.nrows == 0:
        lines.append("%s%s: []" % (pad, key))
        return
    lines.append("%s%s:" % (pad, key))
    for row in m.dense_rows():
        lines.append("%s- %s" % (pad, _flow_row(row)))


def serialize_instance(doc: InstanceDocument) -> str:
    """Canonical text for an instance document, stable byte for byte."""
    inst = doc.instance
    lines = []
    lines.append("format: %d" % FORMAT_VERSION)
    lines.append("n: %d" % inst.n)
    lines.append("p: %d" % inst.p)
    lines.append("signs: %s" % _flow_row(inst.signs.entries))
    lines.append("levels:")
    for level in inst.levels:
        lines.append("- i: %d" % level.i)
        _emit_matrix(lines, "gram", level.lattice.gram, 2)
        if level.conj is not None:
            ents = []
            for pt in level.conj.morse.points:
                if isinstance(pt, RealPoint):
                    ents.append("[real, %d]" % pt.morse_index)
                else:
                    ents.append("[pair, %d]" % pt.pairing)
            lines.append("  morse: [%s]" % ", ".join(ents))
            spans = level.conj.morse.spans
            upper = []
            for r, row in enumerate(level.conj.sigma.stored_rows):
                end = spans[r][1]
                upper += [(r, c, v) for c, v in sorted(row_items(row))
                          if c >= end]
            lines.append("  sigma_upper: [%s]"
                         % ", ".join(_flow_row(e) for e in upper))
        if level.cycles is not None:
            lines.append("  cycles:")
            _emit_matrix(lines, "form", level.cycles.form, 4)
            _emit_matrix(lines, "sigma", level.cycles.sigma, 4)
            _emit_matrix(lines, "sigma_tilde", level.cycles.sigma_tilde, 4)
    if doc.braid_words:
        lines.append("braid_words: [%s]"
                     % ", ".join('"%s"' % w for w in doc.braid_words))
    if doc.expected:
        lines.append("expected:")
        for key in sorted(doc.expected):
            val = doc.expected[key]
            if isinstance(val, str):
                lines.append("  %s: %s" % (key, json.dumps(val)))
            else:
                lines.append("  %s: %s" % (key, val))
    # one join, so that a large document is copied once
    head = _HEADER.splitlines() + ["# provenance: %s" % line
                                   for line in doc.provenance]
    return "\n".join(head + lines + [""])
