import json
import random

import pytest
import yaml

from conftest import (INSTANCE_DIR, a_k_level, as_loaded, generated_texts,
                      instance_path, matrix_power)
from vanlat.cli import main
from vanlat.gen import random_icis_instance
from vanlat.index import IcisInstance, LevelData
from vanlat.instfile import (InstanceDocument, InstanceFormatError,
                             _read_canonical, load_instance,
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


def test_boolean_signs_are_rejected(tmp_path, capsys):
    # bool is an int subclass; accepting it would serialize as 'True'
    text = ("format: 1\nn: 1\np: 0\nsigns: [true]\nlevels:\n"
            "- i: 0\n  gram:\n  - [2]\n")
    _rejected_at(tmp_path, capsys, text, "signs")


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
], ids=["minus-zero", "repeated-key"])
def test_canonical_reader_reads_these_as_yaml_does(text):
    data = _read_canonical(text)
    assert as_loaded(data) == yaml.safe_load(text)
    assert repr(as_loaded(data)) == repr(yaml.safe_load(text))
