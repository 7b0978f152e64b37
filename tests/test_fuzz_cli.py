"""Fuzz the parser and the CLI with character-level mutations of the corpus.

Every run must end with a documented exit code (0, 1 or 2) and never
raise; every mutated text the parser accepts must serialize to a text
that parses and serializes back to itself; and whatever the canonical
reader accepts, it must read exactly as ``yaml.safe_load`` does.
"""

import contextlib
import io
import os
import tempfile

import yaml
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from conftest import INSTANCE_DIR, as_loaded, generated_texts
from vanlat.cli import main
from vanlat.instfile import (_read_canonical, parse_instance_text,
                             serialize_instance)

# the shipped texts without their comment lines, so that edits land in data
CORPUS = {path.name: "".join(line for line in path.read_text(encoding="utf-8")
                             .splitlines(keepends=True) if not line.startswith("#"))
          for path in sorted(INSTANCE_DIR.glob("*.vl"))}

_chars = st.one_of(st.sampled_from("0123456789"),
                   st.sampled_from("-+[]{},:#!?&*'\" \t\nafipnrsAeglmx"))
_edits = st.lists(st.tuples(st.sampled_from(("insert", "delete", "replace")),
                            st.integers(0, 10 ** 6), _chars),
                  min_size=1, max_size=4)
# the asymmetric gram [[2, -8], [-1, 2]], which once made `braid` raise
_ASYMMETRIC = [("replace", CORPUS["a2_lattice.vl"].index("-1]") + 1, "8")]
# an integer past Python's 4300-digit limit, which once ended in exit 1
_LONG_INTEGER = [("replace", CORPUS["a2_index.vl"].index("index: 0") + 7,
                  "1" + "0" * 5000)]


def mutate(text, edits):
    for op, pos, ch in edits:
        k = pos % (len(text) + 1)
        if op == "insert":
            text = text[:k] + ch + text[k:]
        elif op == "delete":
            text = text[:k] + text[k + 1:]
        else:
            text = text[:k] + ch + text[k + 1:]
    return text


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@seed(20240001)
@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(sorted(CORPUS)), _edits)
@example("a2_lattice.vl", _ASYMMETRIC)
@example("a2_index.vl", _LONG_INTEGER)
def test_mutated_instances_end_with_a_documented_exit_code(name, edits):
    text = mutate(CORPUS[name], edits)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for argv in (["validate", path],
                     ["compute", path, "--what", "index"],
                     ["braid", path, "a1 f1"]):
            assert run_quietly(argv) in (0, 1, 2), argv
    try:
        canonical = serialize_instance(parse_instance_text(text))
    except ValueError:
        return
    assert serialize_instance(parse_instance_text(canonical)) == canonical


# the corpus plus generated towers, comment and provenance lines kept, so
# that edits also land in cycles, braid words, expected entries and
# comments; digits and signs are drawn more often, because those edits
# tend to leave a text canonical
READER_CORPUS = sorted(CORPUS.values()) + generated_texts()
_reader_edits = st.lists(
    st.tuples(st.sampled_from(("insert", "delete", "replace")),
              st.integers(0, 10 ** 6),
              st.one_of(st.sampled_from("0123456789-"), _chars,
                        st.sampled_from("\r\\_.x\x07\x85"))),
    min_size=1, max_size=2)


@seed(20240002)
@settings(max_examples=1000, deadline=None, database=None)
@given(st.sampled_from(READER_CORPUS), _reader_edits)
def test_canonical_reader_agrees_with_yaml(text, edits):
    text = mutate(text, edits)
    data = _read_canonical(text)
    if data is not None:
        loaded = yaml.safe_load(text)
        assert as_loaded(data) == loaded
        assert repr(as_loaded(data)) == repr(loaded)
