import io
import itertools
import json
import random

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (INSTANCE_DIR, a_k_level, as_loaded, generated_texts,
                      instance_path, matrix_power, nonzero_rows_reference)
from vanlat import instfile
from vanlat.cli import main
from vanlat.gen import flip_last_sign, random_icis_instance
from vanlat.index import IcisInstance, LevelData
from vanlat.instfile import (InstanceDocument, InstanceFormatError,
                             _is_plain_key, _read_canonical, load_instance,
                             parse_instance_text, serialize_instance)
from vanlat.intmat import IntMatrix
from vanlat.lattice import SignVector, ThimbleLattice

SHIPPED = sorted(p.name for p in INSTANCE_DIR.glob("*.vl"))


def test_corpus_is_present():
    assert "a1.vl" in SHIPPED and "cone_pos.vl" in SHIPPED
    assert len(SHIPPED) >= 8


@pytest.mark.parametrize("name", SHIPPED)
def test_round_trip_is_byte_identical(name):
    text = instance_path(name).read_text(encoding="utf-8")
    doc = parse_instance_text(text)
    assert serialize_instance(doc) == text


def test_serialize_parse_serialize_is_stable():
    for seed in range(8):
        inst = random_icis_instance(seed, 1 + seed % 2, seed % 3, 4,
                                    with_cycles=True)
        text = serialize_instance(InstanceDocument(inst))
        assert serialize_instance(parse_instance_text(text)) == text


def test_a_sigma_that_is_no_involution_reads_and_writes_back():
    # both readers assemble a sigma of the forced shape that is no
    # involution, [[1, 1], [0, 1]], and the writer gives the text back
    text = instance_path("a2_index.vl").read_text(encoding="utf-8").replace(
        "morse: [[real, 0], [real, 1]]\n  sigma_upper: [[0, 1, -1]]",
        "morse: [[real, 0], [real, 0]]\n  sigma_upper: [[0, 1, 1]]")
    doc = parse_instance_text(text)
    sigma = doc.instance.levels[0].conj.sigma
    assert sigma.rows == ((1, 1), (0, 1)) and not sigma.is_involution()
    assert serialize_instance(doc) == text
    as_json = parse_instance_text(json.dumps(yaml.safe_load(text)))
    assert as_json.instance.levels[0].conj.sigma == sigma


def test_writer_refuses_a_level_it_cannot_write_back():
    # the sign flip of this tower gives level 0 the pair block [[-2, 3],
    # [-1, 2]], not the forced swap, which no sigma_upper entries restore
    inst = flip_last_sign(random_icis_instance(0, 1, 0, 16))
    assert inst.levels[0].conj.sigma.rows[0][:2] == (-2, 3)
    want = "^level 0: the diagonal block of sigma at slot 0 is not the forced one$"
    with pytest.raises(ValueError, match=want):
        serialize_instance(InstanceDocument(inst))
    # the streaming writer refuses the level before its first line
    stream = io.StringIO()
    with pytest.raises(ValueError, match=want):
        serialize_instance(InstanceDocument(inst), out=stream)
    assert stream.getvalue() == ""


@pytest.mark.parametrize("name", SHIPPED)
def test_expected_goldens_hold(name):
    from vanlat.basis import monodromy
    from vanlat.index import gradient_index
    doc = load_instance(instance_path(name))
    for key, want in doc.expected.items():
        if key == "index":
            assert gradient_index(doc.instance) == want, name
        elif key == "monodromy_order":
            h = monodromy(doc.instance.levels[0].lattice)
            assert matrix_power(h, want) == IntMatrix.identity(h.nrows)
            assert all(matrix_power(h, k) != IntMatrix.identity(h.nrows)
                       for k in range(1, want))
        else:
            raise AssertionError("unknown expected key %r in %s" % (key, name))


def test_parse_reads_expected_and_words():
    doc = load_instance(instance_path("a2_lattice.vl"))
    assert doc.expected == {"monodromy_order": 3}
    assert len(doc.braid_words) == 1
    assert str(doc.braid_words[0]) == "a1 A1"


def test_yaml_error_reports_position():
    with pytest.raises(InstanceFormatError) as err:
        parse_instance_text("format: 1\nlevels: [\n")
    assert err.value.line is not None


def test_missing_keys_are_located():
    with pytest.raises(InstanceFormatError, match="missing key 'n'"):
        parse_instance_text("format: 1\np: 0\nsigns: [1]\nlevels:\n- i: 0\n  gram: []\n")


def test_empty_levels_list_is_an_error():
    text = "format: 1\nn: 1\np: 0\nsigns: [1]\nlevels: []\n"
    with pytest.raises(InstanceFormatError, match="levels"):
        parse_instance_text(text)


def test_bad_matrix_entry_is_located():
    text = ("format: 1\nn: 1\np: 0\nsigns: [1]\nlevels:\n"
            "- i: 0\n  gram:\n  - [2, x]\n")
    with pytest.raises(InstanceFormatError) as err:
        parse_instance_text(text)
    assert "gram" in str(err.value)


def test_bad_morse_kind_is_located():
    text = ("format: 1\nn: 1\np: 0\nsigns: [1]\nlevels:\n"
            "- i: 0\n  gram:\n  - [2]\n  morse: [[weird, 0]]\n")
    with pytest.raises(InstanceFormatError, match="morse"):
        parse_instance_text(text)


def test_slot_count_mismatch():
    text = ("format: 1\nn: 1\np: 0\nsigns: [1]\nlevels:\n"
            "- i: 0\n  gram:\n  - [2]\n  morse: [[real, 0], [real, 0]]\n")
    with pytest.raises(InstanceFormatError, match="slots"):
        parse_instance_text(text)


def test_wrong_container_types_are_located():
    base = ("format: 1\nn: 1\np: 0\nsigns: [1]\nlevels:\n"
            "- i: 0\n  gram:\n  - [2]\n  morse: [[real, 0]]\n")
    with pytest.raises(InstanceFormatError, match="sigma_upper"):
        parse_instance_text(base + "  sigma_upper: 5\n")
    with pytest.raises(InstanceFormatError, match="braid_words"):
        parse_instance_text(base + "braid_words: 5\n")


def test_unsupported_version():
    text = "format: 99\nn: 1\np: 0\nsigns: [1]\nlevels:\n- i: 0\n  gram: []\n"
    with pytest.raises(InstanceFormatError, match="version"):
        parse_instance_text(text)


def test_sign_count_must_match_p():
    text = ("format: 1\nn: 1\np: 1\nsigns: [1]\nlevels:\n"
            "- i: 0\n  gram: []\n- i: 1\n  gram: []\n")
    with pytest.raises(InstanceFormatError, match="signs"):
        parse_instance_text(text)


@pytest.mark.parametrize("order, k, found", [((1, 0), 0, 1), ((0, 0), 1, 0)])
def test_out_of_order_levels_are_refused_at_the_level(order, k, found):
    text = ("format: 1\nn: 1\np: 1\nsigns: [1, 1]\nlevels:\n"
            + "".join("- i: %d\n  gram: []\n" % i for i in order))
    with pytest.raises(InstanceFormatError) as err:
        parse_instance_text(text)
    assert err.value.where == "levels[%d]" % k
    assert str(err.value) == ("levels out of order: found i=%d, expected %d "
                              "at levels[%d]" % (found, k, k))


@pytest.mark.parametrize("count", [1, 3])
def test_a_level_list_of_the_wrong_length_is_refused_at_levels(count):
    text = ("format: 1\nn: 1\np: 1\nsigns: [1, 1]\nlevels:\n"
            + "".join("- i: %d\n  gram: []\n" % i for i in range(count)))
    with pytest.raises(InstanceFormatError) as err:
        parse_instance_text(text)
    assert err.value.where == "levels"
    assert str(err.value) == "expected 2 levels, got %d at levels" % count


def test_non_canonical_yaml_still_parses():
    # flow style and reordered keys parse to the same instance
    text = ("signs: [1]\nformat: 1\nlevels: [{i: 0, gram: [[2]],"
            " morse: [[real, 0]], sigma_upper: []}]\nn: 1\np: 0\n")
    doc = parse_instance_text(text)
    assert doc.instance.levels[0].lattice.gram.rows == ((2,),)
    canonical = serialize_instance(doc)
    assert parse_instance_text(canonical).instance.levels[0].conj is not None


def _rejected_at(tmp_path, capsys, text, where):
    with pytest.raises(InstanceFormatError) as err:
        parse_instance_text(text)
    assert err.value.where == where
    path = tmp_path / "bad.vl"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.strip().endswith("at %s" % where)


@pytest.mark.parametrize("sign", ["true", "1.0", "-1.0"])
def test_boolean_signs_are_rejected(tmp_path, capsys, sign):
    # bool is an int subclass; accepting it would serialize as 'True', and
    # a float sign equals its int but would print as 1.0 in every output
    text = ("format: 1\nn: 1\np: 0\nsigns: [%s]\nlevels:\n"
            "- i: 0\n  gram:\n  - [2]\n" % sign)
    _rejected_at(tmp_path, capsys, text, "signs")


_HEAD = "format: 1\nn: 1\np: 0\nsigns: [1]\n"
_RANK_1 = _HEAD + "levels:\n- i: 0\n  gram:\n  - [2]\n"
_RANK_2 = (_HEAD + "levels:\n- i: 0\n  gram:\n  - [2, 0]\n  - [0, 2]\n"
           "  morse: [[real, 0], [real, 0]]\n")


@pytest.mark.parametrize("text, where", [
    (_RANK_1 + "  cycles: 5\n", "levels[0].cycles"),
    (_HEAD + "levels:\n- i: 0\n  gram: [[2, 0], [0]]\n", "levels[0].gram"),
    (_HEAD + "levels:\n- 5\n", "levels[0]"),
    (_HEAD + "levels:\n- i: 0\n  gram: [[2, 0]]\n", "levels[0].gram"),
    (_RANK_1 + "  morse: [[real]]\n", "levels[0].morse[0]"),
    (_RANK_1 + "  morse: [[real, x]]\n", "levels[0].morse[0]"),
    (_RANK_2 + "  sigma_upper: [[0, 1]]\n", "levels[0].sigma_upper[0]"),
    (_RANK_2 + "  sigma_upper: [[1, 0, 1]]\n", "levels[0].sigma_upper"),
    (_RANK_2 + "  sigma_upper: [[0, 5, 1]]\n", "levels[0].sigma_upper"),
    (_RANK_1 + "  cycles: {form: [[1]], sigma: [[1, 0], [0, 1]], sigma_tilde: [[1]]}\n",
     "levels[0].cycles"),
    ("- 1\n", "top level"),
    (_RANK_1.replace("p: 0", "p: -1"), "p"),
    (_RANK_1 + "braid_words: [5]\n", "braid_words[0]"),
    (_RANK_1 + 'braid_words: ["x1"]\n', "braid_words[0]"),
    (_RANK_1 + "expected: [1]\n", "expected"),
    # a falsy value is no more a mapping than a truthy one
    (_RANK_1 + "expected: 0\n", "expected"),
    (_RANK_1 + "expected: false\n", "expected"),
    (_RANK_1 + 'expected: ""\n', "expected"),
    (_RANK_1 + "expected: []\n", "expected"),
], ids=["cycles-not-a-mapping", "ragged-gram", "level-not-a-mapping",
        "gram-not-square", "morse-one-entry", "morse-value-not-integer",
        "triple-of-two", "triple-below-the-blocks", "triple-out-of-range",
        "cycle-matrices-unequal", "document-not-a-mapping", "p-negative",
        "braid-word-not-a-string", "braid-word-unknown-move",
        "expected-not-a-mapping", "expected-zero", "expected-false",
        "expected-empty-string", "expected-empty-list"])
def test_each_reader_refusal_is_located(tmp_path, capsys, text, where):
    _rejected_at(tmp_path, capsys, text, where)


_A2_LATTICE = instance_path("a2_lattice.vl").read_text(encoding="utf-8")


@pytest.mark.parametrize("reader", ["canonical", "yaml"])
@pytest.mark.parametrize("word", ["a01 A1", "a1  A1", "a1 A1 "],
                         ids=["leading-zero", "two-spaces", "trailing-space"])
def test_a_braid_word_the_writer_spells_otherwise_is_refused(tmp_path, capsys,
                                                             word, reader):
    # the writer spells each of these "a1 A1", so reading one back would
    # break parse-then-serialize being the identity on canonical files;
    # each reader refuses it, the canonical one on a flow list and YAML on
    # a block list
    new = ('braid_words: ["%s"]' if reader == "canonical"
           else 'braid_words:\n- "%s"') % word
    text = _A2_LATTICE.replace('braid_words: ["a1 A1"]', new)
    assert (_read_canonical(text) is None) == (reader == "yaml")
    with pytest.raises(InstanceFormatError) as err:
        parse_instance_text(text)
    assert err.value.where == "braid_words[0]"
    path = tmp_path / "bad.vl"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == (
        "parse error: braid word %r is not spelled as 'a1 A1' at braid_words[0]\n"
        % word)


@pytest.mark.parametrize("char", ["\x07", "\x00", "\x7f", "\x9b"],
                         ids=["bel", "nul", "del", "c1-csi"])
def test_a_character_yaml_refuses_is_one_located_line(tmp_path, capsys, char):
    # YAML's refusal carries a position, not a mark: it is read as a line
    # and column, and the two-line message of PyYAML is not printed
    path = tmp_path / "bad.vl"
    path.write_text(_RANK_1 + "x: %s\n" % char, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == (
        "parse error: not valid YAML: unacceptable character #x%04x: special "
        "characters are not allowed at line 9, column 4\n" % ord(char))


@pytest.mark.parametrize("key", ["expected", "braid_words"])
def test_a_bare_optional_key_means_none(key):
    # YAML reads a bare "expected:" or "braid_words:" as null
    doc = parse_instance_text(_RANK_1 + "%s:\n" % key)
    assert (doc.expected, doc.braid_words) == ({}, ())


def test_morse_index_out_of_range_is_located_at_morse(tmp_path, capsys):
    text = ("format: 1\nn: 1\np: 0\nsigns: [1]\nlevels:\n"
            "- i: 0\n  gram:\n  - [2]\n  morse: [[real, 7]]\n"
            "  sigma_upper: []\n")
    _rejected_at(tmp_path, capsys, text, "levels[0].morse")


@pytest.mark.parametrize("entry, where", [
    ("index: ~", "expected.index"),
    ("index: [1, 2]", "expected.index"),
    ("index: true", "expected.index"),
    ("2: 3", "expected"),
    ("'a b': 3", "expected"),
    ("'null': 3", "expected"),
])
def test_expected_entries_must_serialize_back(tmp_path, capsys, entry, where):
    # the serializer writes bare keys and integer or string values only
    text = ("format: 1\nn: 1\np: 0\nsigns: [1]\nlevels:\n"
            "- i: 0\n  gram:\n  - [2]\nexpected: {index: 1, %s}\n" % entry)
    _rejected_at(tmp_path, capsys, text, where)


# every casing of the words PyYAML resolves to a bool or null, and of the
# YAML 1.1 bools it leaves as strings
_CASED_WORDS = ["".join(chars) for word in "yes no true false on off null y n".split()
                for chars in itertools.product(*((c, c.upper()) for c in word))]


def _yaml_reads_back(key):
    return key.isidentifier() and yaml.safe_load(key) == key


def test_plain_key_rule_on_every_casing_of_the_yaml_words():
    # the rule restates PyYAML's resolver, and PyYAML is not pinned
    assert [key for key in _CASED_WORDS
            if _is_plain_key(key) != _yaml_reads_back(key)] == []
    assert sum(not _is_plain_key(key) for key in _CASED_WORDS) == 21


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*", fullmatch=True),
                 st.from_regex(r"[^\W\d]\w*", fullmatch=True).filter(str.isidentifier)))
def test_plain_key_rule_is_yamls_on_drawn_identifiers(key):
    assert _is_plain_key(key) == _yaml_reads_back(key)


def test_expected_strings_are_escaped():
    text = ("format: 1\nn: 1\np: 0\nsigns: [1]\nlevels:\n"
            "- i: 0\n  gram:\n  - [2]\nexpected:\n  note: 'a\"b\\c'\n")
    doc = parse_instance_text(text)
    assert doc.expected == {"note": 'a"b\\c'}
    assert parse_instance_text(serialize_instance(doc)).expected == doc.expected


def _load_outcome(path):
    try:
        return load_instance(path)
    except InstanceFormatError as e:
        return str(e)


@pytest.mark.parametrize("text", [
    instance_path("a2_index.vl").read_bytes(),
    b"format: 1\nn: *\n",  # YAML names the character after the '*'
], ids=["a2_index", "yaml-error"])
def test_crlf_file_loads_like_the_original(tmp_path, text):
    lf, crlf = tmp_path / "lf.vl", tmp_path / "crlf.vl"
    lf.write_bytes(text)
    crlf.write_bytes(text.replace(b"\n", b"\r\n"))
    assert _load_outcome(crlf) == _load_outcome(lf)


# -- the canonical reader -----------------------------------------------------

def test_serialized_text_takes_the_canonical_reader():
    # a reader that declined every text would pass the agreement tests
    texts = [instance_path(name).read_text(encoding="utf-8") for name in SHIPPED]
    texts += generated_texts()
    assert "  gram: []\n" in texts[SHIPPED.index("empty.vl")]
    assert any("  cycles:\n" in text for text in texts)
    for text in texts:
        data = _read_canonical(text)
        assert data is not None, text
        assert as_loaded(data) == yaml.safe_load(text)
        assert repr(as_loaded(data)) == repr(yaml.safe_load(text))


# Edits of a canonical text.  YAML 1.1 reads 010 as 8, 1_0 as 10, +1 as 1,
# 1:20 as 80 and 0x1F as 31.  It has rules of its own for tabs and control
# characters, and "\r" and "\x85" end a line even in a comment.  It reads
# an escaped astral character as two lone surrogates where json.loads
# gives one character, `yes` and `Null` as a bool and None, and a bare
# "levels:" or "expected:" as None; and it rejects the unbalanced morse
# list.  The canonical reader must leave all of these to YAML.
_A2 = instance_path("a2_index.vl").read_text(encoding="utf-8")
_ASTRAL = _A2 + "  note: %s\n" % json.dumps("\U0001F600")
# Flow lists that json.loads reads but the layout never writes, in a
# gram row and in sigma_upper: the patterns, not the JSON decoder that
# converts what they accept, decide what is canonical.
_JSON_ONLY = {"no-space": "[1,2]", "inner-space": "[ 1, 2]",
              "float": "[1.0, 2]", "exponent": "[1e3, 2]",
              "json-bool": "[true, 2]", "nan": "[NaN, 2]",
              "infinity": "[Infinity, 2]", "trailing-comma": "[1, 2,]"}
_JSON_ONLY_TEXTS = {
    **{"gram-" + name: _A2.replace("  - [2, -1]\n", "  - %s\n" % flow)
       for name, flow in _JSON_ONLY.items()},
    **{"sigma-upper-" + name: _A2.replace("sigma_upper: [[0, 1, -1]]",
                                          "sigma_upper: [%s]" % flow)
       for name, flow in _JSON_ONLY.items()}}


@pytest.mark.parametrize("text", [
    _A2.replace("n: 1", "n: 010"),
    _A2.replace("signs: [1]", "signs: [1_0]"),
    _A2.replace("signs: [1]", "signs: [+1]"),
    _A2.replace("index: 0", "index: 1:20"),
    _A2.replace("- [2, -1]", "- [0x1F, -1]"),
    _A2.replace("# vanlat instance", "# vanlat\tinstance"),
    _A2.replace("\n", "\r\n"),
    _A2.replace("# vanlat instance", "# vanlat\r instance"),
    _A2.replace("# vanlat instance", "# vanlat\x85 instance"),
    _A2.replace("# vanlat instance", "# vanlat\x07 instance"),
    _ASTRAL,
    _A2.replace("morse: [[real, 0], [real, 1]]",
                "morse: [[real, 0], [real, 1]], [real, 0]]"),
    _A2.replace("index: 0", "yes: 0"),
    _A2.replace("index: 0", "Null: 0"),
    _A2.replace("index: 0", "index: 1" + "0" * 5000),
    _A2[:_A2.index("- i: 0")],
    _A2.replace("  index: 0\n", ""),
    # a matrix's row lines are checked as one block, so no spelling may
    # slip through by spanning, nesting or trailing its row lines
    _A2.replace("- [2, -1]", "- [[2], -1]"),
    _A2.replace("  - [2, -1]\n  - [-1, 2]\n", "  - [2, -1], [-1, 2]\n"),
    _A2.replace("- [2, -1]", "- [2,  -1]"),
    _A2.replace("- [2, -1]", "- [2 , -1]"),
    _A2.replace("- [2, -1]", "- [2, -1] # c"),
    _A2.replace("  - [-1, 2]", "    - [-1, 2]"),
    _A2.replace("  - [-1, 2]", "- [-1, 2]"),
    _A2.replace("- [2, -1]\n  - [-1, 2]", "- []\n  - [5]"),
    _A2.replace("  - [2, -1]\n  - [-1, 2]\n", ""),
] + list(_JSON_ONLY_TEXTS.values()),
    ids=["octal", "underscore", "plus", "sexagesimal", "hex", "tab", "crlf",
         "cr-in-comment", "nel-in-comment", "control-char", "astral-escape",
         "unbalanced", "bool-key", "null-key", "too-long-integer",
         "bare-levels", "bare-expected", "nested-row", "two-rows-on-a-line",
         "two-spaces-after-comma", "space-before-comma", "comment-after-row",
         "row-at-cycles-indent", "row-at-indent-0", "empty-and-one-entry-rows",
         "bare-gram"] + list(_JSON_ONLY_TEXTS))
def test_canonical_reader_leaves_other_spellings_to_yaml(text):
    assert _read_canonical(text) is None


def test_canonical_reader_agrees_with_yaml_at_rank_64():
    rng = random.Random(64)
    gram = [[2 if r == c else 0 for c in range(64)] for r in range(64)]
    for r in range(64):
        for c in range(r + 1, 64):
            gram[r][c] = gram[c][r] = rng.randint(-10 ** 40, 10 ** 40)
    dense = ThimbleLattice(1, IntMatrix.from_rows(gram))
    tower = LevelData(0, *a_k_level(64))
    for level in (tower, LevelData(0, dense)):
        text = serialize_instance(InstanceDocument(
            IcisInstance(1, 0, SignVector((1,)), (level,))))
        data = _read_canonical(text)
        assert as_loaded(data) == yaml.safe_load(text)
        assert repr(as_loaded(data)) == repr(yaml.safe_load(text))


@pytest.mark.parametrize("text", [
    _A2.replace("index: 0", "index: -0"),
    _A2 + "  index: 1\n",
    # YAML resolves yes, Yes and YES, not yEs
    _A2.replace("index: 0", "yEs: 0"),
], ids=["minus-zero", "repeated-key", "mixed-case-word-key"])
def test_canonical_reader_reads_these_as_yaml_does(text):
    data = _read_canonical(text)
    assert as_loaded(data) == yaml.safe_load(text)
    assert repr(as_loaded(data)) == repr(yaml.safe_load(text))


# -- matrices read by their nonzeros ------------------------------------------

def _gram_block_text(rows):
    """A canonical one-level text whose gram block is ``rows``, of any
    shape: the reader takes the block before any shape check."""
    lines = ["format: 1", "n: 1", "p: 0", "signs: [1]", "levels:", "- i: 0",
             "  gram:"] + ["  - %s" % row for row in rows]
    return "\n".join(lines + [""])


@st.composite
def _block(draw):
    # rows of widths 0-40 at every fill, from no nonzero to all, with
    # negative entries and entries past 64 bits at random places
    nrows, width = draw(st.integers(1, 8)), draw(st.integers(0, 40))
    count = draw(st.integers(0, nrows * width))
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    values = draw(st.lists(st.integers(-2 ** 80, 2 ** 80).filter(bool),
                           min_size=count, max_size=count))
    flat = [0] * (nrows * width)
    for at, value in zip(rnd.sample(range(nrows * width), count), values):
        flat[at] = value
    return [flat[r * width:(r + 1) * width] for r in range(nrows)]


@settings(max_examples=300, deadline=None)
@given(_block())
@example([[0] * 16] * 3)
@example([[1] + [0] * 15] * 4)  # one in 16: exactly a quarter of a row's share
@example([[1] * 4 + [0] * 12] * 4)  # a quarter of the block nonzero
@example([[1] * 5 + [0] * 11] * 4)  # just past a quarter
@example([[1] * 16] + [[0] * 16] * 3)  # a dense row in a sparse block
# all-zero rows before and between nonzero rows
@example([[0] * 16, [0] * 16, [5] + [0] * 15, [0] * 16, [0] * 15 + [-7]])
# a long negative token before a later nonzero on its row
@example([[-10 ** 25] + [0] * 14 + [3]] * 4)
# the last column of the first row, then empty rows
@example([[0] * 15 + [9]] + [[0] * 16] * 3)
def test_matrix_block_reads_as_the_json_route(rows):
    # whichever route a block takes, it is stored as the IntMatrix of its
    # decoded rows, which is what json.loads of the block gives
    data = _read_canonical(_gram_block_text(rows))
    assert data["levels"][0]["gram"].stored_rows == IntMatrix(rows).stored_rows


# Tokens that pass the layout check but are not canonical integer text,
# or are read from some digits only by a careless scan.
_ODD_TOKENS = ("00", "-0", "1-2", "", "010", "0-1", "-00")


@st.composite
def _sparse_block(draw):
    # the text of a block of widths 16-80 with up to a third of its tokens
    # nonzero, at indent 2 or 4, and at times a few odd tokens, with the
    # arguments the reader passes along with it
    nrows, width = draw(st.integers(1, 6)), draw(st.integers(16, 80))
    total = nrows * width
    count = draw(st.integers(0, total // 3))
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    values = draw(st.lists(st.integers(-2 ** 70, 2 ** 70).filter(bool),
                           min_size=count, max_size=count))
    tokens = ["0"] * total
    for at, value in zip(rnd.sample(range(total), count), values):
        tokens[at] = str(value)
    for at, token in draw(st.lists(st.tuples(st.integers(0, total - 1),
                                             st.sampled_from(_ODD_TOKENS)),
                                   max_size=3)):
        tokens[at] = token
    prefix = " " * draw(st.sampled_from((2, 4))) + "- ["
    text = "\n".join(prefix + ", ".join(tokens[r * width:(r + 1) * width]) + "]"
                     for r in range(nrows))
    return text, nrows, width, len(prefix)


def _block_args(rows, indent=2):
    prefix = " " * indent + "- ["
    return ("\n".join(prefix + ", ".join(row) + "]" for row in rows),
            len(rows), len(rows[0]), len(prefix))


@settings(max_examples=400, deadline=None)
@given(_sparse_block())
@example(_block_args([["0"] * 16] * 2))
@example(_block_args([["5"] + ["0"] * 15, ["0"] * 15 + ["-7"]], indent=4))
@example(_block_args([["0"] * 8 + [token] + ["0"] * 7 for token in _ODD_TOKENS]))
@example(_block_args([[token] + ["0"] * 15 for token in _ODD_TOKENS]))
@example(_block_args([["0"] * 15 + [token] for token in _ODD_TOKENS]))
def test_sparse_decoder_counts_zero_tokens_as_the_reference(block):
    # one count of "|0|" in the scanned bytes finds the zero tokens the
    # three substring counts of the text found, so the decoder gives the
    # rows, or refuses the block, as the reference does
    assert instfile._nonzero_rows(*block) == nonzero_rows_reference(*block)


def test_a_sparse_block_is_decoded_from_its_nonzeros(monkeypatch):
    # the A_64 gram, with -1 beside each 2, is read by the scan; a dense
    # random gram is left to json.loads by the fill test
    scans = []
    scan = instfile._nonzero_rows
    monkeypatch.setattr(instfile, "_nonzero_rows",
                        lambda *args: scans.append(scan(*args)) or scans[-1])
    rng = random.Random(64)
    dense = [[rng.randint(-5, 5) for _ in range(64)] for _ in range(64)]
    sparse_text = serialize_instance(InstanceDocument(
        IcisInstance(1, 0, SignVector((1,)), (LevelData(0, *a_k_level(64)),))))
    assert parse_instance_text(sparse_text).instance.levels[0].lattice.gram.stored_rows
    assert scans.pop() is not None and not scans
    assert _read_canonical(_gram_block_text(dense))["levels"][0]["gram"].to_lists() == dense
    assert scans.pop() is None and not scans


def test_cycle_blocks_are_decoded_from_their_nonzeros(monkeypatch):
    # a generated level's gram and its three rank-38 cycle blocks, at
    # indent 4, all take the scan, and the text reads back byte for byte
    scans = []
    scan = instfile._nonzero_rows
    monkeypatch.setattr(instfile, "_nonzero_rows",
                        lambda *args: scans.append(scan(*args)) or scans[-1])
    inst = random_icis_instance(1, 1, 0, 40, with_cycles=True)
    assert inst.levels[0].lattice.nu == 38
    text = serialize_instance(InstanceDocument(inst))
    assert serialize_instance(parse_instance_text(text)) == text
    assert len(scans) == 4 and None not in scans


# The token at gram[3][9] of a 16-wide tridiagonal block, and what the
# reader makes of it: the value read, and whether the canonical reader
# took the text (None: YAML reads it), or the error.  YAML 1.1 reads
# 010 as octal 8; -0 is canonical integer text for 0.
_TRIDIAGONAL = [[2 if r == c else -1 if abs(r - c) == 1 else 0 for c in range(16)]
                for r in range(16)]
_TOKEN_OUTCOMES = {
    "-0": (0, True),
    "010": (8, False),
    "00": (0, False),
    "007": (7, False),
    "": "not valid YAML: expected the node content, but found ','"
        " at line 11, column 35",
    "0-": "expected integer at levels[0].gram[3][9]",
    "1-1": "expected integer at levels[0].gram[3][9]",
    "-": "expected integer at levels[0].gram[3][9]",
    "0-1": "expected integer at levels[0].gram[3][9]",
    "1--": "expected integer at levels[0].gram[3][9]",
    "--1": "expected integer at levels[0].gram[3][9]",
    "10-": "expected integer at levels[0].gram[3][9]",
    # int("-01") is -1 too, but only YAML may read it
    "-01": (-1, False),
    "-00": (0, False),
    "0000": (0, False),
    "1" + "0" * 4999: "not valid YAML: Exceeds the limit (4300 digits) for"
                      " integer string conversion: value has 5000 digits; use"
                      " sys.set_int_max_str_digits() to increase the limit"
                      " at line 11, column 35",
}


@pytest.mark.parametrize("token", sorted(_TOKEN_OUTCOMES),
                         ids=lambda t: repr(t[:6] + ("..." if len(t) > 6 else "")))
def test_a_corrupted_token_reads_as_it_always_has(token):
    rows = [", ".join(map(str, row)) for row in _TRIDIAGONAL]
    tokens = rows[3].split(", ")
    tokens[9] = token
    rows[3] = ", ".join(tokens)
    text = _gram_block_text("[%s]" % row for row in rows)
    want = _TOKEN_OUTCOMES[token]
    if isinstance(want, str):
        with pytest.raises(InstanceFormatError) as err:
            parse_instance_text(text)
        assert str(err.value) == want
        return
    value, canonical = want
    assert (_read_canonical(text) is not None) == canonical
    gram = parse_instance_text(text).instance.levels[0].lattice.gram
    assert gram[3, 9] == value
    assert gram.to_lists() == [[value if (r, c) == (3, 9) else x
                                for c, x in enumerate(row)]
                               for r, row in enumerate(_TRIDIAGONAL)]


def test_streamed_text_is_the_returned_text():
    # the writer gives the same bytes whether it returns the text or
    # writes it line by line to a stream
    docs = [load_instance(instance_path(name)) for name in SHIPPED]
    docs += [parse_instance_text(text) for text in generated_texts()]
    docs += [InstanceDocument(IcisInstance(1, 0, SignVector((1,)),
                                           (LevelData(0, *a_k_level(64)),)),
                              expected={"index": 1}, provenance=("a", "b"))]
    for doc in docs:
        out = io.StringIO()
        assert serialize_instance(doc, out=out) is None
        assert out.getvalue() == serialize_instance(doc)
