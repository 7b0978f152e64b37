"""The instance file format: a small YAML document, canonically emitted.

A file carries one tower instance: the dimension parameter ``n``, the
codimension ``p``, the sign tuple, and per-level data (gram matrix,
critical-point descriptors, conjugation upper entries, optional cycle
pairings), plus optional braid words and expected outputs for golden
tests.  Parsing accepts any YAML presentation; serialization is
canonical, so parse-then-serialize is the identity on canonically
formatted files.

Matrices are row-major integer lists in the package-wide storage
convention: ``gram[r][c]`` pairs basis thimble ``c`` against thimble
``r``.
"""

import json
from dataclasses import dataclass, field

import yaml

from .basis import BraidWord, parse_braid_word
from .conjugation import ConjugatePair, MorseSpec, RealPoint, build_sigma
from .index import CycleData, IcisInstance, LevelData
from .intmat import IntMatrix
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

def _want(mapping, key, kind, where, optional=False):
    if key not in mapping:
        if optional:
            return None
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


def _matrix(rows, where, width=None):
    if not isinstance(rows, list):
        raise InstanceFormatError("expected list of rows", where=where)
    out = []
    for r, row in enumerate(rows):
        if not isinstance(row, list):
            raise InstanceFormatError("expected integer row", where="%s[%d]" % (where, r))
        for c, x in enumerate(row):
            if not isinstance(x, int) or isinstance(x, bool):
                raise InstanceFormatError("expected integer",
                                          where="%s[%d][%d]" % (where, r, c))
        out.append(row)
    try:
        return IntMatrix.from_rows(out, width=width)
    except ValueError as e:
        raise InstanceFormatError(str(e), where=where)


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
    gram = _matrix(_want(data, "gram", list, where), where + ".gram")
    if gram.rows and not gram.is_square:
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
        upper = []
        for k, ent in enumerate(raw_upper or []):
            spot = "%s.sigma_upper[%d]" % (where, k)
            if (not isinstance(ent, list) or len(ent) != 3
                    or any(not isinstance(x, int) or isinstance(x, bool)
                           for x in ent)):
                raise InstanceFormatError("expected [row, col, value] triple",
                                          where=spot)
            upper.append(tuple(ent))
        try:
            conj = build_sigma(morse, parity, upper)
        except ValueError as e:
            raise InstanceFormatError(str(e), where=where + ".sigma_upper")
    elif "sigma_upper" in data:
        raise InstanceFormatError("sigma_upper without morse", where=where)

    cycles = None
    if "cycles" in data:
        cyc = _want(data, "cycles", dict, where)
        cw = where + ".cycles"
        form = _matrix(_want(cyc, "form", list, cw), cw + ".form")
        sigma = _matrix(_want(cyc, "sigma", list, cw), cw + ".sigma")
        tilde = _matrix(_want(cyc, "sigma_tilde", list, cw), cw + ".sigma_tilde")
        try:
            cycles = CycleData(form, sigma, tilde)
        except ValueError as e:
            raise InstanceFormatError(str(e), where=cw)
    try:
        return LevelData(i, lat, conj, cycles)
    except ValueError as e:
        raise InstanceFormatError(str(e), where=where)


def parse_instance_text(text: str) -> InstanceDocument:
    try:
        data = yaml.safe_load(text)
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
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance_text(fh.read())


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def _flow_row(row):
    return "[%s]" % ", ".join(str(x) for x in row)


def _emit_matrix(lines, key, m, indent):
    pad = " " * indent
    if m.nrows == 0:
        lines.append("%s%s: []" % (pad, key))
        return
    lines.append("%s%s:" % (pad, key))
    for row in m.rows:
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
            block_of = level.conj.morse.block_index()
            upper = [(r, c, level.conj.sigma[r, c])
                     for r in range(level.conj.nu)
                     for c in range(level.conj.nu)
                     if block_of[c] > block_of[r] and level.conj.sigma[r, c] != 0]
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
    body = "\n".join(lines) + "\n"
    prov = "".join("# provenance: %s\n" % line for line in doc.provenance)
    return _HEADER + prov + body


def save_instance(doc: InstanceDocument, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(doc))
