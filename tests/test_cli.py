import ast
import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest
import yaml

import vanlat
from conftest import (FORCED_FAILURES, INSTANCE_DIR, coupled_alike,
                      generate_with_form_2, instance_path)
from vanlat.basis import monodromy
from vanlat.cli import main
from vanlat.index import IcisInstance, LevelData
from vanlat.instfile import InstanceDocument, serialize_instance
from vanlat.intmat import IntMatrix
from vanlat.lattice import SignVector, ThimbleLattice, mirror_sign


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


# -- validate -----------------------------------------------------------------

def test_validate_shipped_instance_passes(capsys):
    code, out, _ = run(capsys, "validate", instance_path("a1.vl"))
    assert code == 0
    assert out.strip().endswith("ok")


def test_validate_corrupted_sigma_fails_with_location(capsys):
    code, out, _ = run(capsys, "validate", instance_path("bad_sigma.vl"))
    assert code == 1
    assert out == ("level 0: lattice ok (rank 2, parity 1)\n"
                   "level 0: FAIL conjugation: companion not an involution; "
                   "companion not block lower triangular\n"
                   "FAIL (1 problem)\n")


def test_validate_counts_several_problems_in_the_plural(tmp_path, capsys):
    bad = tmp_path / "two.vl"
    bad.write_text(instance_path("bad_sigma.vl").read_text()
                   + 'braid_words: ["a2"]\n')
    code, out, _ = run(capsys, "validate", bad)
    assert code == 1
    assert out.endswith("braid word 0: FAIL move a2 out of range for rank 2\n"
                        "FAIL (2 problems)\n")


def test_index_of_corrupted_sigma_names_both_verdicts(capsys):
    # the same wording as validate's, from the one rendering of the verdicts
    code, out, err = run(capsys, "compute", instance_path("bad_sigma.vl"),
                         "--what", "index")
    assert code == 1
    assert out == ""
    assert err == ("error: inconsistent instance: companion not an involution; "
                   "companion not block lower triangular\n")


# sigma = [[1, 1], [0, 1]], of the forced shape but no involution, with
# cycle data
_NON_INVOLUTION = """\
format: 1
n: 1
p: 0
signs: [1]
levels:
- i: 0
  gram:
  - [2, -1]
  - [-1, 2]
  morse: [[real, 0], [real, 0]]
  sigma_upper: [[0, 1, 1]]
  cycles:
    form:
    - [2, -1]
    - [-1, 2]
    sigma:
    - [1, 0]
    - [0, 1]
    sigma_tilde:
    - [-1, 0]
    - [0, -1]
"""


def test_a_sigma_that_is_no_involution_fails_consistency(tmp_path, capsys):
    # the reader assembles such a sigma without squaring it: validate and
    # the routes that read the analysis end with its consistency verdicts
    # (exit 1), and the commands that read no analysis run on the file
    path = tmp_path / "no_involution.vl"
    path.write_text(_NON_INVOLUTION)
    verdicts = ("companion not an involution; "
                "companion not block lower triangular")
    code, out, err = run(capsys, "validate", path)
    assert (code, err) == (1, "")
    assert out.splitlines()[1:] == ["level 0: FAIL conjugation: " + verdicts,
                                    "FAIL (1 problem)"]
    for what in ("index", "signature", "level-sums"):
        assert run(capsys, "compute", path, "--what", what) == (
            1, "", "error: inconsistent instance: %s\n" % verdicts)
    for what, want in (("var-inverse", "[[-1, 1], [0, -1]]\n"),
                       ("monodromy", "[[0, -1], [1, -1]]\n"
                                     "verified: monodromy^3 = identity\n"),
                       ("cycle-sums", "2\n")):
        assert run(capsys, "compute", path, "--what", what) == (0, want, "")
    code, out, _ = run(capsys, "braid", path, "a1")
    assert code == 0 and "  - [2, 1]\n  - [1, 2]\n" in out


def test_validate_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "broken.vl"
    bad.write_text("format: 1\nlevels: [\n")
    code, _, err = run(capsys, "validate", bad)
    assert code == 2
    assert "parse error" in err


def test_validate_missing_file(capsys):
    code, out, err = run(capsys, "validate", "no_such_file.vl")
    assert (code, out, err) == (2, "", "cannot read no_such_file.vl\n")


# -- file errors: one line and exit 2, never a traceback ----------------------

def test_reading_a_directory_is_a_read_error(tmp_path, capsys):
    code, out, err = run(capsys, "validate", tmp_path)
    assert (code, out, err) == (2, "", "cannot read %s\n" % tmp_path)


@pytest.mark.parametrize("argv", [
    ["gen"],
    ["braid", instance_path("a2_lattice.vl"), "a1"],
], ids=["gen", "braid"])
def test_writing_to_a_directory_is_a_write_error(argv, tmp_path, capsys):
    code, out, err = run(capsys, *argv, "--output", tmp_path)
    assert (code, out, err) == (2, "", "cannot write %s\n" % tmp_path)


def test_writing_into_a_missing_directory_is_a_write_error(tmp_path, capsys):
    target = tmp_path / "no_such_dir" / "x.vl"
    code, out, err = run(capsys, "braid", instance_path("a2_lattice.vl"), "a1",
                         "--output", target)
    assert (code, out, err) == (2, "", "cannot write %s\n" % target)


def test_counterexample_write_failure_is_a_write_error(tmp_path, capsys,
                                                       monkeypatch):
    import vanlat.suite as suite
    monkeypatch.setattr(suite, "check_s_relation", lambda lat: "forced failure")
    code, out, err = run(capsys, "verify", "--seed", "2", "--count", "7",
                         "--rank-bound", "4", "--output", tmp_path)
    assert (code, out, err) == (
        2, "seed 2, count 7, rank bound 4\n"
           "FAIL s-relation (instance 0): forced failure\n",
        "cannot write %s\n" % tmp_path)


def test_input_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.vl"
    path.write_bytes(b"format: 1\nn: \xff1\n")
    code, out, err = run(capsys, "validate", path)
    assert (code, out) == (2, "")
    assert err == ("parse error: not valid UTF-8 (invalid start byte) "
                   "at line 2, column 4\n")


_LONG = "1" + "0" * 5000  # past Python's 4300-digit limit for int()


@pytest.mark.parametrize("old, new, spot", [
    # canonical layout: the line reader declines and YAML reports it
    ("index: 0", "index: " + _LONG, "line 16, column 10"),
    # another layout, read by YAML only
    ("[2, -1]", "[ 2, " + _LONG + "]", "line 11, column 10"),
    # a date that does not exist fails in the same place
    ("index: 0", "index: 2024-13-01", "line 16, column 10"),
], ids=["canonical", "other-layout", "bad-date"])
def test_unbuildable_scalar_is_a_located_parse_error(tmp_path, capsys,
                                                     old, new, spot):
    path = tmp_path / "long.vl"
    text = instance_path("a2_index.vl").read_text(encoding="utf-8")
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    for argv in (["validate", path], ["compute", path, "--what", "index"],
                 ["braid", path, "a1"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("parse error: not valid YAML: ")
        assert err.endswith(" at %s\n" % spot)


# -- compute ------------------------------------------------------------------

def test_compute_index_goldens(capsys):
    for name, want in (("a1.vl", "1"), ("a2_index.vl", "0"),
                       ("plane_min.vl", "1"), ("cone_pos.vl", "1"),
                       ("cone_neg.vl", "1"), ("empty.vl", "0")):
        code, out, _ = run(capsys, "compute", instance_path(name), "--what", "index")
        assert code == 0
        assert out.strip() == want, name


def test_compute_var_inverse_golden(capsys):
    code, out, _ = run(capsys, "compute", instance_path("a2_lattice.vl"),
                       "--what", "var-inverse")
    assert code == 0
    assert out.strip() == "[[-1, 1], [0, -1]]"


def test_compute_monodromy_with_order_footer(capsys):
    code, out, _ = run(capsys, "compute", instance_path("a2_lattice.vl"),
                       "--what", "monodromy")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "[[0, -1], [1, -1]]"
    assert lines[1] == "verified: monodromy^3 = identity"


def test_compute_signature(capsys):
    code, out, _ = run(capsys, "compute", instance_path("a1.vl"),
                       "--what", "signature")
    assert code == 0
    assert out.strip() == "(0, 1, 0), sgn = -1"


def test_compute_level_sums_per_level(capsys):
    code, out, _ = run(capsys, "compute", instance_path("cone_neg.vl"),
                       "--what", "level-sums")
    assert code == 0
    assert out.splitlines() == ["level 0: 2", "level 1: -1"]


def test_compute_cycle_index_sum_and_refusal(capsys):
    code, out, _ = run(capsys, "compute", instance_path("a1.vl"),
                       "--what", "cycle-sums")
    assert code == 0 and out.strip() == "1"
    code, out, err = run(capsys, "compute", instance_path("plane_min.vl"),
                         "--what", "cycle-sums")
    assert (code, out) == (2, "")
    assert err == ("refused: cycle-space index sums are undefined at even "
                   "parity (n + i = 2): the vanishing-cycle data does not "
                   "determine the value\n"
                   "(see README: the even-parity cone example shows why no "
                   "such formula can exist)\n")


@pytest.mark.parametrize("name, what, data", [
    ("a2_lattice.vl", "signature", "conjugation"),
    ("a2_lattice.vl", "index", "conjugation"),
    ("a2_lattice.vl", "level-sums", "conjugation"),
    ("a2_index.vl", "cycle-sums", "cycle"),
    ("a2_lattice.vl", "cycle-sums", "cycle"),
    ("bad_sigma.vl", "cycle-sums", "cycle"),
    ("empty.vl", "cycle-sums", "cycle"),
])
def test_compute_refuses_a_level_without_the_data_it_reads(name, what, data,
                                                           capsys):
    code, out, err = run(capsys, "compute", instance_path(name), "--what", what)
    assert (code, out, err) == (
        2, "", "refused: level 0 carries no %s data\n" % data)


def test_compute_index_refuses_a_deeper_level_without_conjugation(tmp_path,
                                                                  capsys):
    # the index reads every level, whatever --level selects
    path = tmp_path / "bare_level_1.vl"
    text = instance_path("cone_pos.vl").read_text()
    path.write_text(text.replace("  morse: [[real, 1]]\n  sigma_upper: []\n", ""))
    code, out, err = run(capsys, "compute", path, "--what", "index", "--level", "0")
    assert (code, out, err) == (
        2, "", "refused: level 1 carries no conjugation data\n")
    code, out, err = run(capsys, "compute", path, "--what", "signature",
                         "--level", "0")
    assert (code, err) == (0, "")


def test_compute_cycle_sum_is_an_int_at_negative_parity(tmp_path, capsys):
    path = tmp_path / "neg.vl"
    path.write_text("format: 1\nn: -3\np: 0\nsigns: [1]\nlevels:\n"
                    "- i: 0\n  gram:\n  - [2]\n  cycles:\n"
                    "    form:\n    - [1]\n    sigma:\n    - [1]\n"
                    "    sigma_tilde:\n    - [-1]\n")
    code, out, _ = run(capsys, "compute", path, "--what", "cycle-sums")
    assert code == 0
    assert out == "1\n"


def test_compute_index_is_an_int_at_negative_parity(tmp_path, capsys):
    path = tmp_path / "neg.vl"
    path.write_text("format: 1\nn: -3\np: 0\nsigns: [1]\nlevels:\n"
                    "- i: 0\n  gram:\n  - [2, 1]\n  - [1, 2]\n"
                    "  morse: [[pair, 1]]\n")
    for what in ("level-sums", "index"):
        code, out, _ = run(capsys, "compute", path, "--what", what)
        assert code == 0
        assert out == "0\n"


def test_compute_monodromy_builds_it_once(capsys, monkeypatch):
    import vanlat.cli as cli
    calls = []

    def counted(lat):
        calls.append(lat)
        return monodromy(lat)
    monkeypatch.setattr(cli, "monodromy", counted)
    code, out, _ = run(capsys, "compute", instance_path("a2_lattice.vl"),
                       "--what", "monodromy")
    assert code == 0
    assert out.splitlines()[1] == "verified: monodromy^3 = identity"
    assert len(calls) == 1


def test_compute_level_selector(capsys):
    code, out, _ = run(capsys, "compute", instance_path("cone_pos.vl"),
                       "--what", "var-inverse", "--level", "1")
    assert code == 0
    assert out.strip() == "[[1]]"
    code, out, err = run(capsys, "compute", instance_path("cone_pos.vl"),
                         "--what", "var-inverse", "--level", "5")
    assert (code, out, err) == (2, "", "no level 5 in this instance (p = 1)\n")


# -- braid --------------------------------------------------------------------

def test_braid_worked_example(capsys, tmp_path):
    out_file = tmp_path / "braided.vl"
    code, out, _ = run(capsys, "braid", instance_path("a2_lattice.vl"), "a1",
                       "--output", out_file)
    assert code == 0
    assert "basis change: [[1, 1], [1, 0]]" in out
    text = out_file.read_text()
    assert "- [2, 1]" in text and "- [1, 2]" in text


def test_braid_empty_word_identity_body(capsys):
    code, out, err = run(capsys, "braid", instance_path("a2_lattice.vl"), "")
    assert code == 0
    original = instance_path("a2_lattice.vl").read_text()
    body = "\n".join(l for l in out.splitlines() if not l.startswith("# provenance"))
    assert body + "\n" == original
    assert "basis change" in err


def test_braid_word_and_inverse_restores(capsys, tmp_path):
    out_file = tmp_path / "round.vl"
    code, _, _ = run(capsys, "braid", instance_path("a2_lattice.vl"), "a1 A1",
                     "--output", out_file)
    assert code == 0
    text = out_file.read_text()
    assert "- [2, -1]" in text and "- [-1, 2]" in text


def test_braid_malformed_word(capsys):
    code, out, err = run(capsys, "braid", instance_path("a2_lattice.vl"), "z9")
    assert (code, out, err) == (
        2, "", "malformed braid word: malformed braid token 'z9'\n")


def test_braid_position_takes_ascii_digits_only(capsys):
    # "\u0661" is ARABIC-INDIC DIGIT ONE: a decimal digit that int() reads
    # as 1, which the writer would spell "a1"
    code, out, err = run(capsys, "braid", instance_path("a2_lattice.vl"), "a\u0661")
    assert (code, out, err) == (
        2, "", "malformed braid word: malformed braid token 'a\u0661'\n")


def test_braid_out_of_range_move(capsys):
    code, out, err = run(capsys, "braid", instance_path("a2_lattice.vl"), "a5")
    assert (code, out, err) == (2, "", "move a5 out of range for rank 2\n")


def test_braid_level_out_of_range(capsys):
    code, out, err = run(capsys, "braid", instance_path("a2_lattice.vl"), "a1",
                         "--level", "3")
    assert (code, out, err) == (2, "", "no level 3 in this instance (p = 0)\n")


def test_braid_invalid_lattice_is_an_error(tmp_path, capsys):
    path = tmp_path / "asymmetric.vl"
    path.write_text(instance_path("a2_lattice.vl").read_text()
                    .replace("- [2, -1]", "- [2, -8]"))
    code, out, err = run(capsys, "braid", path, "a1")
    assert code == 1
    assert out == ""
    assert err == ("error: invalid lattice: entries gram[0][1] = -8 and "
                   "gram[1][0] = -1 violate the symmetric rule\n")


def test_braid_drops_conjugation_data_with_note(capsys):
    code, out, err = run(capsys, "braid", instance_path("a2_index.vl"), "a1")
    assert code == 0
    assert "dropping" in err
    assert "morse" not in out


_INVERSE_KIND = {"a": "A", "A": "a", "f": "f"}


def _rank_64_braid_outputs(capsys, tmp_path, parity, seed):
    """Exit codes, stdout, stderr and the ``--output`` file of a seeded
    24-move word on a random rank-64 lattice, then of its inverse."""
    rng = random.Random(seed)
    nu, eps = 64, mirror_sign(parity)
    diag = 2 if eps == 1 else 0
    gram = [[diag if r == c else 0 for c in range(nu)] for r in range(nu)]
    for r in range(nu):
        for c in range(r + 1, nu):
            gram[r][c] = rng.randint(-5, 5)
            gram[c][r] = eps * gram[r][c]
    lat = ThimbleLattice(parity, IntMatrix.from_rows(gram))
    src, moved = tmp_path / "lattice.vl", tmp_path / "moved.vl"
    src.write_text(serialize_instance(InstanceDocument(
        IcisInstance(parity, 0, SignVector((1,)), (LevelData(0, lat),)))))
    moves = []
    for _ in range(24):
        kind = rng.choice("aAf")
        moves.append((kind, rng.randint(1, nu if kind == "f" else nu - 1)))
    word = " ".join("%s%d" % m for m in moves)
    inverse = " ".join("%s%d" % (_INVERSE_KIND[k], j) for k, j in reversed(moves))
    there = run(capsys, "braid", src, word, "--output", moved)
    back = run(capsys, "braid", moved, inverse)
    assert there[0] == back[0] == 0
    assert yaml.safe_load(back[1])["levels"][0]["gram"] == gram
    return repr((there, moved.read_text(), back))


def test_braid_rank_64_golden(capsys, tmp_path):
    # pins every byte of a dense rank-64 braid round trip at both parities
    h = hashlib.md5()
    for parity, seed in ((1, 64001), (2, 64002)):
        h.update(_rank_64_braid_outputs(capsys, tmp_path, parity, seed).encode())
    assert h.hexdigest() == "825387c494cd7e0c560627575af01728"


def test_compute_monodromy_rank_960_golden(capsys, tmp_path):
    # pins every byte of the monodromy of the generated rank-960 level,
    # whose rows the triangular sweep builds and stores sparse
    path = tmp_path / "big.vl"
    assert run(capsys, "gen", "--seed", 1, "--rank-bound", 1000, "--output", path)[0] == 0
    code, out, err = run(capsys, "compute", path, "--what", "monodromy")
    assert (code, err) == (0, "")
    assert hashlib.md5(out.encode()).hexdigest() == "20e9e1c403c85c9878a7d3d345a2daeb"


# -- verify and gen -----------------------------------------------------------

def test_verify_small_run_passes_and_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--seed", "3", "--count", "21",
                         "--rank-bound", "4")
    code2, out2, _ = run(capsys, "verify", "--seed", "3", "--count", "21",
                         "--rank-bound", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "PASS (21 instances)" in out1


def test_verify_rank_bound_zero_is_vacuous(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "1", "--count", "14",
                       "--rank-bound", "0")
    assert code == 0
    assert "PASS" in out


def test_verify_failure_serializes_reparseable_counterexample(
        tmp_path, capsys, monkeypatch):
    # force one identity to report a violation: the harness must exit 1 and
    # write a counterexample that parses and validates as an instance file
    import vanlat.suite as suite
    monkeypatch.setattr(suite, "check_s_relation", lambda lat: "forced failure")
    out_file = tmp_path / "ce.vl"
    code, out, _ = run(capsys, "verify", "--seed", "2", "--count", "7",
                       "--rank-bound", "4", "--output", out_file)
    assert code == 1
    assert "FAIL s-relation" in out
    from vanlat.instfile import parse_instance_text
    doc = parse_instance_text(out_file.read_text())
    assert doc.instance.p == 0


def test_verify_rejects_a_form_that_is_not_unimodular(tmp_path, capsys,
                                                      monkeypatch):
    import vanlat.suite as suite
    monkeypatch.setattr(suite, "generate_level", generate_with_form_2)
    out_file = tmp_path / "ce.vl"
    code, out, _ = run(capsys, "verify", "--seed", "2", "--count", "7",
                       "--rank-bound", "4", "--output", out_file)
    assert code == 1
    assert ("FAIL symmetric-nondegenerate (instance 3): "
            "form not symmetric and unimodular") in out.splitlines()
    assert "counterexample written to %s" % out_file in out.splitlines()
    from vanlat.instfile import parse_instance_text
    doc = parse_instance_text(out_file.read_text())
    assert doc.instance.levels[0].lattice.violation is None


@pytest.mark.parametrize("family", sorted(FORCED_FAILURES))
def test_verify_counterexample_of_each_family_is_pinned(family, tmp_path, capsys,
                                                        monkeypatch):
    import vanlat.suite as suite
    assert set(FORCED_FAILURES) == set(suite.CHECK_NAMES)
    patch, problem, digest = FORCED_FAILURES[family]
    monkeypatch.setattr(suite, *patch)
    monkeypatch.setattr(suite, "CHECK_NAMES", (family,))
    out_file = tmp_path / "ce.vl"
    code, out, err = run(capsys, "verify", "--seed", "2", "--count", "5",
                         "--rank-bound", "8", "--output", out_file)
    assert (code, err) == (1, "")
    assert out.splitlines() == ["seed 2, count 5, rank bound 8",
                                "FAIL %s (instance 0): %s" % (family, problem),
                                "counterexample written to %s" % out_file]
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest
    # the witness reads back and validates, the braid word it drew included
    code, out, err = run(capsys, "validate", out_file)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "ok"
    assert (("braid word 0: ok (f3 A2 f7 f8 a1 f2 A1)" in out.splitlines())
            == (family == "braid-invariance"))
    if family == "cycle-route-agreement":
        # the witness is the instance checked, its cycle data and drawn
        # sign included, so both routes replay from the file
        code, out, err = run(capsys, "compute", out_file, "--what", "level-sums")
        assert (code, out, err) == (0, problem.rsplit(" ", 1)[1] + "\n", "")
        code, _, err = run(capsys, "compute", out_file, "--what", "cycle-sums")
        assert (code, err) == (0, "")


def test_block_form_checks_the_trace_identity(tmp_path, capsys, monkeypatch):
    # with d negated the block closed form still agrees, and the signed
    # trace of sigma is the check that fails
    import vanlat.suite as suite
    real = suite.diagonal_sign
    monkeypatch.setattr(suite, "diagonal_sign", lambda parity: -real(parity))
    monkeypatch.setattr(suite, "CHECK_NAMES", ("block-form",))
    out_file = tmp_path / "ce.vl"
    code, out, err = run(capsys, "verify", "--seed", "2", "--count", "5",
                         "--rank-bound", "8", "--output", out_file)
    assert (code, err) == (1, "")
    assert out.splitlines()[1] == ("FAIL block-form (instance 0): signature "
                                   "disagrees with d * tr(sigma)")
    code, out, err = run(capsys, "validate", out_file)
    assert (code, out.splitlines()[-1], err) == (0, "ok", "")


@pytest.mark.parametrize("family", ["symmetric-nondegenerate", "block-form",
                                    "cycle-route-agreement", "telescoping"])
def test_verify_reports_a_generated_level_that_fails_its_check(
        family, tmp_path, capsys, monkeypatch):
    # with S coupled between neighbouring real slots of one sign the
    # generator's own check fails: each family that draws levels ends the
    # run with one FAIL line and writes the failing level, which reads
    # back and fails validate's consistency verdict (its sigma, rebuilt
    # from the stored upper entries, is not an involution)
    import vanlat.conjugation as conjugation
    import vanlat.suite as suite
    monkeypatch.setattr(conjugation, "_build_sigma",
                        coupled_alike(conjugation._build_sigma))
    monkeypatch.setattr(suite, "CHECK_NAMES", (family,))
    out_file = tmp_path / "ce.vl"
    code, out, err = run(capsys, "verify", "--seed", "2", "--count", "5",
                         "--rank-bound", "16", "--output", out_file)
    assert (code, err) == (1, "")
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1 and fails[0].startswith(
        "FAIL %s (instance " % family)
    assert fails[0].endswith("): generated level fails its check: "
                             "inconsistent instance: companion not an involution")
    assert out.splitlines()[-1] == "counterexample written to %s" % out_file
    code, out, err = run(capsys, "validate", out_file)
    assert (code, err) == (1, "")
    assert "level 0: FAIL conjugation: companion not an involution" in out.splitlines()


def _bump_the_a_step(monkeypatch):
    """Patch the forward braid step to add 1 to the diagonal entry it
    moved, after the real step: the closed-form gram update then no
    longer agrees with the congruence, and ``apply_braid_word`` raises
    the AssertionError that reports it."""
    import vanlat.basis as basis
    real = basis._STEPS["a"]

    def bumped_step(g, cols, k, parity):
        real(g, cols, k, parity)
        g[k][k] += 1

    monkeypatch.setitem(basis._STEPS, "a", bumped_step)


def test_verify_reports_a_braid_cross_check_that_raises(tmp_path, capsys,
                                                        monkeypatch):
    # the AssertionError of the bumped step ends the run with one FAIL line
    # and the lattice and word that drew it, not a traceback
    import vanlat.suite as suite
    _bump_the_a_step(monkeypatch)
    out_file = tmp_path / "ce.vl"
    code, out, err = run(capsys, "verify", "--seed", "2", "--count", "21",
                         "--rank-bound", "8", "--output", out_file)
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[1].startswith("FAIL braid-invariance (instance 2): closed-form "
                               "gram update disagrees with congruence: [[")
    assert lines[2:] == ["counterexample written to %s" % out_file]
    # instance 2 is the family's instance 0, which replays alone
    problem = lines[1].split(": ", 1)[1]
    assert suite.check_instance(2, "braid-invariance", 0, 8) == (
        problem, out_file.read_text())
    from vanlat.instfile import parse_instance_text
    doc = parse_instance_text(out_file.read_text())
    assert [str(w) for w in doc.braid_words] == ["f3 A2 f7 f8 a1 f2 A1"]


@pytest.mark.parametrize("family", ["block-form", "cycle-route-agreement"])
def test_verify_reports_a_signature_that_raises(family, tmp_path, capsys,
                                                monkeypatch):
    # exact_signature reads every form as wholly null, so
    # LevelAnalysis.signature raises AssertionError on a level of positive
    # rank: that fails the family that read it, with that level as the
    # counterexample
    import vanlat.conjugation as conjugation
    import vanlat.suite as suite
    from vanlat.signature import Signature
    monkeypatch.setattr(conjugation, "exact_signature",
                        lambda form: Signature(0, 0, form.nrows))
    monkeypatch.setattr(suite, "CHECK_NAMES", (family,))
    out_file = tmp_path / "ce.vl"
    code, out, err = run(capsys, "verify", "--seed", "2", "--count", "5",
                         "--rank-bound", "8", "--output", out_file)
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[1].startswith("FAIL %s (instance 0): form [[" % family)
    assert lines[1].endswith("]] is degenerate on a consistent instance")
    assert lines[2:] == ["counterexample written to %s" % out_file]
    code, out, err = run(capsys, "validate", out_file)
    assert (code, err) == (0, "")


def test_verify_reports_the_cycle_route_refusing_its_data(tmp_path, capsys,
                                                          monkeypatch):
    # a ValueError of the cycle route is the instance's FAIL line, with
    # the message it raised
    import vanlat.suite as suite
    message = "signature difference 1 is odd; cycle data inconsistent"

    def refusing(level, s):
        raise ValueError(message)
    monkeypatch.setattr(suite, "cycle_index_sum", refusing)
    monkeypatch.setattr(suite, "CHECK_NAMES", ("cycle-route-agreement",))
    out_file = tmp_path / "ce.vl"
    code, out, err = run(capsys, "verify", "--seed", "2", "--count", "5",
                         "--rank-bound", "8", "--output", out_file)
    assert (code, err) == (1, "")
    assert out.splitlines()[1:] == [
        "FAIL cycle-route-agreement (instance 0): " + message,
        "counterexample written to %s" % out_file]
    code, out, err = run(capsys, "validate", out_file)
    assert (code, out.splitlines()[-1], err) == (0, "ok", "")


def test_gen_reports_a_generated_level_that_fails_its_check(capsys, monkeypatch):
    import vanlat.conjugation as conjugation
    monkeypatch.setattr(conjugation, "_build_sigma",
                        coupled_alike(conjugation._build_sigma))
    code, out, err = run(capsys, "gen", "--seed", "5", "--rank-bound", "16")
    assert (code, out) == (1, "")
    assert err == ("error: generated level fails its check: "
                   "inconsistent instance: companion not an involution\n")


@pytest.mark.parametrize("argv, digest", [
    (["gen", "--seed", "3", "--n", "2", "--levels", "2", "--rank-bound", "40"],
     "54e8ee358602f87472d810676f534dabaa668e671ca01d2bf1d7452620ccee1b"),
    (["gen", "--seed", "1", "--rank-bound", "1000"],
     "9a078460c2ab92e32915804103b152cbf4b09c28f8fc93359b63022fcce43d57"),
], ids=["seed-3-two-levels", "seed-1-rank-960"])
def test_gen_output_golden(argv, digest, capsys):
    # pins every byte of two generated towers: a change to the draws, their
    # order or the construction of their levels changes a digest
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_rank_bound_32_passes(capsys):
    code, out, _ = run(capsys, "verify", "--rank-bound", "32", "--count", "14")
    assert code == 0
    assert "PASS (14 instances)" in out


def test_gen_rank_bound_40_writes_validating_instance(tmp_path, capsys):
    # a rank built from many chunks completes, with conjugate pairs in
    # the level above level 0
    out_file = tmp_path / "r40.vl"
    code, _, _ = run(capsys, "gen", "--rank-bound", "40", "--levels", "1",
                     "--output", out_file)
    assert code == 0
    code, out, _ = run(capsys, "validate", out_file)
    assert code == 0 and out.strip().endswith("ok")


@pytest.mark.parametrize("argv", [
    ["gen", "--seed", "3", "--levels", "1", "--rank-bound", "40"],
    ["braid", instance_path("a2_lattice.vl"), "a1 f2"],
    ["braid", instance_path("a2_index.vl"), "A1 f1"],
], ids=["gen", "braid", "braid-dropping-data"])
def test_output_file_and_stdout_get_the_same_bytes(argv, tmp_path, capsys):
    # the writer streams to either; both routes give the same text
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "--output", tmp_path / "out.vl")[0] == 0
    assert (tmp_path / "out.vl").read_bytes() == out.encode("utf-8")


def test_braid_past_the_digit_limit_writes_nothing(tmp_path, capsys):
    # ten rounds of "a1 A2" grow this gram's entries past str()'s digit
    # limit; the error comes before any line of the text is written
    src, moved = tmp_path / "g3.vl", tmp_path / "moved.vl"
    src.write_text("format: 1\nn: 1\np: 0\nsigns: [1]\nlevels:\n- i: 0\n"
                   "  gram:\n  - [2, 3, 3]\n  - [3, 2, 3]\n  - [3, 3, 2]\n")
    want = ("error: Exceeds the limit (4300 digits) for integer string "
            "conversion; use sys.set_int_max_str_digits() to increase the limit\n")
    word = " ".join(["a1 A2"] * 10)
    assert run(capsys, "braid", src, word) == (1, "", want)
    assert run(capsys, "braid", src, word, "--output", moved) == (1, "", want)
    assert not moved.exists()


def test_runaway_braid_word_stops_at_the_digit_limit(tmp_path, capsys):
    # each round of "a1 A2" multiplies this gram's entry lengths by about
    # 2.6, so twenty rounds would run for hours; the first move whose
    # coefficient is past str()'s digit limit ends the word, in bounded
    # time, with the same error and nothing written
    src, moved = tmp_path / "g3.vl", tmp_path / "moved.vl"
    src.write_text("format: 1\nn: 1\np: 0\nsigns: [1]\nlevels:\n- i: 0\n"
                   "  gram:\n  - [2, 3, 3]\n  - [3, 2, 3]\n  - [3, 3, 2]\n")
    want = ("error: Exceeds the limit (4300 digits) for integer string "
            "conversion; use sys.set_int_max_str_digits() to increase the limit\n")
    word = " ".join(["a1 A2"] * 20)
    t0 = time.monotonic()
    assert run(capsys, "braid", src, word, "--output", moved) == (1, "", want)
    assert run(capsys, "braid", src, word) == (1, "", want)
    assert time.monotonic() - t0 < 2.0
    assert not moved.exists()


def test_gen_writes_validating_deterministic_instance(tmp_path, capsys):
    f1 = tmp_path / "g1.vl"
    f2 = tmp_path / "g2.vl"
    assert run(capsys, "gen", "--seed", "11", "--levels", "1", "--output", f1)[0] == 0
    assert run(capsys, "gen", "--seed", "11", "--levels", "1", "--output", f2)[0] == 0
    assert f1.read_text() == f2.read_text()
    code, out, _ = run(capsys, "validate", f1)
    assert code == 0 and out.strip().endswith("ok")


def test_gen_rank_bound_512_writes_validating_instance(tmp_path, capsys):
    # every level, level 0 and its pairs included, is consistent by
    # construction, so a large rank bound has no draw budget to run out of
    out_file = tmp_path / "r512.vl"
    code, out, err = run(capsys, "gen", "--seed", "1", "--rank-bound", "512",
                         "--output", out_file)
    assert (code, out, err) == (0, "wrote %s\n" % out_file, "")
    code, out, _ = run(capsys, "validate", out_file)
    assert code == 0 and out.splitlines()[-1] == "ok"


def test_cli_loads_without_numpy():
    # numpy serves only the float oracle, PyYAML only text the canonical
    # reader declines, and the suite only verify, so no other command pays
    # for their import (vanlat.gen stays loaded for the benchmark's tracer)
    src = pathlib.Path(vanlat.__file__).resolve().parent.parent
    probe = ("import sys, vanlat.cli; print(sorted({'numpy', 'yaml', "
             "'vanlat.suite'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(src))
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                            capture_output=True, text=True).stdout
    assert loaded == "[]\n"


# runs each argv through main in one interpreter, PyYAML blocked if asked,
# and prints each run's exit code, stdout and stderr as JSON
_RUN_ALL = """
import contextlib, io, json, sys
if sys.argv[1] == "without-yaml":
    sys.modules["yaml"] = None  # any import of yaml now raises ImportError
from vanlat.cli import main
runs = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""


def test_commands_on_canonical_text_run_without_yaml(tmp_path):
    # the shipped instances and the text gen and braid write all take the
    # canonical reader, so no command on them needs PyYAML, and each run
    # is the run with it, byte for byte and exit code for exit code
    shipped = sorted(str(path) for path in INSTANCE_DIR.glob("*.vl"))
    assert len(shipped) == 9
    argvs = [argv for path in shipped
             for argv in (["validate", path], ["compute", path, "--what", "index"])]
    argvs += [["braid", str(instance_path("a2_lattice.vl")), "a1 f2"],
              ["gen", "--seed", "1", "--rank-bound", "16"],
              ["verify", "--count", "70", "--rank-bound", "16"]]
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(vanlat.__file__).resolve().parent.parent))
    runs = {}
    for mode in ("with-yaml", "without-yaml"):
        done = subprocess.run([sys.executable, "-c", _RUN_ALL, mode, json.dumps(argvs)],
                              env=env, cwd=tmp_path, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, ""), mode
        runs[mode] = json.loads(done.stdout)
    assert runs["without-yaml"] == runs["with-yaml"]
    # bad_sigma.vl fails validate and compute, and a2_lattice.vl carries
    # no conjugation data for the index
    assert sorted(code for code, _, _ in runs["with-yaml"]) == (
        [0] * (len(argvs) - 3) + [1, 1, 2])
    assert list(tmp_path.iterdir()) == []


def test_every_export_resolves():
    assert "LevelAnalysis" in vanlat.__all__
    missing = [name for name in vanlat.__all__ if not hasattr(vanlat, name)]
    assert missing == []


def test_the_library_holds_no_assert_statement():
    # ``python -O`` strips assert statements, so every check the library
    # relies on raises explicitly
    package = pathlib.Path(vanlat.__file__).parent
    found = ["%s:%d" % (path.name, node.lineno)
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_gen_parity_zero_writes_validating_instance(tmp_path, capsys):
    out_file = tmp_path / "n0.vl"
    code, _, _ = run(capsys, "gen", "--n", "0", "--levels", "1",
                     "--output", out_file)
    assert code == 0
    code, out, _ = run(capsys, "validate", out_file)
    assert code == 0 and out.strip().endswith("ok")


@pytest.mark.parametrize("command, flag", [
    ("verify", "--count"), ("verify", "--rank-bound"),
    ("gen", "--n"), ("gen", "--levels"), ("gen", "--rank-bound"),
])
def test_negative_counts_are_usage_errors(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "-5"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines()[-1].endswith(
        "argument %s: must be >= 0, got -5" % flag)


@pytest.mark.parametrize("command, flag, text", [
    ("verify", "--count", "x"), ("gen", "--rank-bound", "1.5"),
])
def test_non_integer_counts_are_usage_errors(command, flag, text, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, text])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines()[-1].endswith(
        "argument %s: invalid int value: '%s'" % (flag, text))


class _Drawn(Exception):
    """Raised by a stub in place of the first draw of ``verify`` or ``gen``."""


def _stub_draws(monkeypatch):
    import vanlat.cli as cli

    def drawing(*args, **kwargs):
        raise _Drawn
    # verify imports the suite when it runs, and gen calls the generator
    # through its module, so the stubs replace the names where defined
    monkeypatch.setattr("vanlat.suite.run_verification", drawing)
    monkeypatch.setattr("vanlat.gen.random_icis_instance", drawing)
    return cli._RANK_BOUND_CEILING


@pytest.mark.parametrize("command", ["verify", "gen"])
@pytest.mark.parametrize("above", [1, 10**9, 10**20])
def test_rank_bound_above_the_ceiling_is_refused_before_any_draw(
        command, above, capsys, monkeypatch):
    # the bound is refused by argument checks alone: one line and exit 2,
    # with nothing printed before it and no draw made
    bound = _stub_draws(monkeypatch) + above
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--rank-bound", bound)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err == "refused: --rank-bound %d is above the ceiling %d\n" % (
        bound, bound - above)


@pytest.mark.parametrize("command", ["verify", "gen"])
def test_rank_bound_at_the_ceiling_is_drawn(command, capsys, monkeypatch):
    ceiling = _stub_draws(monkeypatch)
    with pytest.raises(_Drawn):
        main([command, "--rank-bound", str(ceiling)])


@pytest.mark.parametrize("command, target", [("verify", "run_verification"),
                                             ("gen", "random_icis_instance")])
def test_out_of_memory_is_one_line_and_exit_1(command, target, capsys,
                                               monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError
    module = "vanlat.suite" if command == "verify" else "vanlat.gen"
    monkeypatch.setattr("%s.%s" % (module, target), exhausted)
    code, out, err = run(capsys, command, "--seed", "1", "--rank-bound", "8")
    assert (code, err) == (1, "error: out of memory\n")
    assert out == ("seed 1, count 500, rank bound 8\n" if command == "verify" else "")


def test_braid_ends_a_failed_cross_check_in_one_line(tmp_path, capsys,
                                                     monkeypatch):
    # the braid-invariance witness of the bumped step, moved by its word
    # outside verify: the AssertionError is one line and exit 1
    import vanlat.suite as suite
    _bump_the_a_step(monkeypatch)
    problem, witness = suite.check_instance(2, "braid-invariance", 0, 8)
    path = tmp_path / "witness.vl"
    path.write_text(witness)
    code, out, err = run(capsys, "braid", path, "f3 A2 f7 f8 a1 f2 A1")
    assert (code, out, err) == (1, "", "error: %s\n" % problem)


def test_compute_ends_a_failed_cross_check_in_one_line(capsys, monkeypatch):
    # a signature that raises on a consistent level fails the analysis's
    # own check, an AssertionError: one line and exit 1
    import vanlat.conjugation as conjugation

    def refuses(form):
        raise ValueError("signature of a non-symmetric matrix")
    monkeypatch.setattr(conjugation, "exact_signature", refuses)
    code, out, err = run(capsys, "compute", instance_path("a2_index.vl"),
                         "--what", "signature")
    assert (code, out) == (1, "")
    assert err == ("error: form [[-1, 0], [0, 1]] is not symmetric on a "
                   "consistent instance\n")


def test_a_closed_stdout_is_one_line_and_exit_2():
    # the reader takes 100 bytes of a 288 kB instance and closes the pipe:
    # the write that fails ends the run, and so does no later flush
    src = pathlib.Path(vanlat.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    child = subprocess.Popen(
        [sys.executable, "-m", "vanlat.cli", "gen", "--seed", "1",
         "--rank-bound", "200"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(child.stdout.read(100)) == 100
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert (child.wait(timeout=60), err) == (2, b"cannot write stdout\n")


def test_a_closed_stdout_shared_with_stderr_is_exit_2():
    # stderr joined to stdout: the reader takes 100 bytes and closes the
    # pipe, so the one line cannot be written either, and the run still
    # ends in exit 2 with no traceback
    src = pathlib.Path(vanlat.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    child = subprocess.Popen(
        [sys.executable, "-m", "vanlat.cli", "gen", "--seed", "1",
         "--rank-bound", "200"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
    head = child.stdout.read(100)
    child.stdout.close()
    assert len(head) == 100 and b"Traceback" not in head
    assert child.wait(timeout=60) == 2
