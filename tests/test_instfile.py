import pytest

from conftest import INSTANCE_DIR, instance_path
from vanlat.cli import main
from vanlat.gen import random_icis_instance
from vanlat.instfile import (InstanceDocument, InstanceFormatError,
                             load_instance, parse_instance_text,
                             serialize_instance)

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
    from vanlat.intmat import IntMatrix
    doc = load_instance(instance_path(name))
    for key, want in doc.expected.items():
        if key == "index":
            assert gradient_index(doc.instance) == want, name
        elif key == "monodromy_order":
            h = monodromy(doc.instance.levels[0].lattice)
            assert h ** want == IntMatrix.identity(h.nrows)
            assert all(h ** k != IntMatrix.identity(h.nrows)
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
