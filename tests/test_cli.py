import ast
import hashlib
import os
import pathlib
import random
import subprocess
import sys

import pytest
import yaml

import vanlat
from conftest import instance_path
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


def test_validate_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "broken.vl"
    bad.write_text("format: 1\nlevels: [\n")
    code, _, err = run(capsys, "validate", bad)
    assert code == 2
    assert "parse error" in err


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "no_such_file.vl")
    assert code == 2
    assert err == "cannot read no_such_file.vl\n"


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
    code, _, err = run(capsys, "verify", "--seed", "2", "--count", "7",
                       "--rank-bound", "4", "--output", tmp_path)
    assert (code, err) == (2, "cannot write %s\n" % tmp_path)


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
    code, _, err = run(capsys, "compute", instance_path("plane_min.vl"),
                       "--what", "cycle-sums")
    assert code == 2
    assert "even parity" in err


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
    code, _, err = run(capsys, "compute", instance_path("cone_pos.vl"),
                       "--what", "var-inverse", "--level", "5")
    assert code == 2


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
    code, _, err = run(capsys, "braid", instance_path("a2_lattice.vl"), "z9")
    assert code == 2
    assert "malformed" in err


def test_braid_out_of_range_move(capsys):
    code, _, err = run(capsys, "braid", instance_path("a2_lattice.vl"), "a5")
    assert code == 2
    assert "out of range" in err


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
    # [[2]] is symmetric and nondegenerate but has det 2; it replaces the
    # form of the analysis the family reads, after the generator's checks
    import vanlat.suite as suite
    generate = suite.generate_level

    def generate_with_form_2(*args):
        analysis = generate(*args)
        analysis.form = IntMatrix.from_rows([[2]])
        return analysis
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


@pytest.mark.parametrize("family", ["symmetric-nondegenerate", "block-form",
                                    "cycle-route-agreement", "telescoping"])
def test_verify_reports_a_generated_level_that_fails_its_check(
        family, tmp_path, capsys, monkeypatch):
    # with every chunk try accepted the generator's own check fails: each
    # family that draws levels ends the run with one FAIL line and writes
    # the failing level, which validate rejects (its sigma, rebuilt from
    # the stored upper entries, is not an involution)
    import vanlat.conjugation as conjugation
    import vanlat.suite as suite
    monkeypatch.setattr(conjugation, "_squares_to_identity", lambda rows: True)
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
    code, _, err = run(capsys, "validate", out_file)
    assert code == 2 and err.startswith(
        "parse error: assembled conjugation matrix is not an involution")


def test_gen_reports_a_generated_level_that_fails_its_check(capsys, monkeypatch):
    import vanlat.conjugation as conjugation
    monkeypatch.setattr(conjugation, "_squares_to_identity", lambda rows: True)
    code, out, err = run(capsys, "gen", "--seed", "5", "--rank-bound", "16")
    assert (code, out) == (1, "")
    assert err == ("error: generated level fails its check: "
                   "inconsistent instance: companion not an involution\n")


def test_verify_rank_bound_32_passes(capsys):
    code, out, _ = run(capsys, "verify", "--rank-bound", "32", "--count", "14")
    assert code == 0
    assert "PASS (14 instances)" in out


def test_gen_rank_bound_40_writes_validating_instance(tmp_path, capsys):
    # a rank built from many accepted chunks completes: a chunk whose
    # tries all fail is shrunk, and a rank-1 chunk never fails
    out_file = tmp_path / "r40.vl"
    code, _, _ = run(capsys, "gen", "--rank-bound", "40", "--levels", "1",
                     "--output", out_file)
    assert code == 0
    code, out, _ = run(capsys, "validate", out_file)
    assert code == 0 and out.strip().endswith("ok")


def test_gen_writes_validating_deterministic_instance(tmp_path, capsys):
    f1 = tmp_path / "g1.vl"
    f2 = tmp_path / "g2.vl"
    assert run(capsys, "gen", "--seed", "11", "--levels", "1", "--output", f1)[0] == 0
    assert run(capsys, "gen", "--seed", "11", "--levels", "1", "--output", f2)[0] == 0
    assert f1.read_text() == f2.read_text()
    code, out, _ = run(capsys, "validate", f1)
    assert code == 0 and out.strip().endswith("ok")


def test_gen_rank_bound_512_writes_validating_instance(tmp_path, capsys):
    # level 0 is drawn all-real in one pass, so a large rank bound has no
    # draw budget to run out of
    out_file = tmp_path / "r512.vl"
    code, out, err = run(capsys, "gen", "--seed", "1", "--rank-bound", "512",
                         "--output", out_file)
    assert (code, out, err) == (0, "wrote %s\n" % out_file, "")
    code, out, _ = run(capsys, "validate", out_file)
    assert code == 0 and out.splitlines()[-1] == "ok"


def test_cli_loads_without_numpy():
    # numpy serves only the float oracle, so no command pays for its import
    src = pathlib.Path(vanlat.__file__).resolve().parent.parent
    probe = "import sys, vanlat.cli; assert 'numpy' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", probe], env=env, check=True)


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
