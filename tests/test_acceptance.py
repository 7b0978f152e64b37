"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Everything is seeded and exact; the stated runtime budgets
are asserted with the monotonic clock.
"""

import contextlib
import io
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

import vanlat

from conftest import (INSTANCE_DIR, a_k_instance, a_k_level, instance_path,
                      inverse_word, matrix_power)
from vanlat.basis import apply_braid_word, monodromy, parse_braid_word
from vanlat.cli import main as cli_main
from vanlat.conjugation import LevelAnalysis, signature_by_blocks
from vanlat.gen import (generate_level, level_with_cycles, random_braid_word,
                        random_icis_instance, random_lattice)
from vanlat.index import (EvenParityError, IcisInstance, LevelData,
                          gradient_index, telescoped_index, level_index_sum,
                          cycle_index_sum)
from vanlat.instfile import (InstanceDocument, parse_instance_text,
                             serialize_instance)
from vanlat.intmat import IntMatrix
from vanlat.lattice import SignVector, ThimbleLattice
from vanlat.oracle import float_signature, index_1d, index_2d, poly2
from vanlat.signature import exact_signature
from vanlat.variation import (check_monodromy_relation, check_s_relation,
                              var, var_inverse,
                              var_inverse_as_operator_after_braid)

SEED = 987654321


def _lattice_corpus(count, max_rank=8, max_entry=5):
    rng = random.Random(SEED)
    out = []
    for _ in range(count):
        parity = rng.choice((1, 2, 3, 4))
        nu = rng.randint(0, max_rank)
        out.append(random_lattice(rng, nu, parity, max_entry))
    return out


def _report(name, detail, t0):
    print("%s: PASS (%s, %.2fs)" % (name, detail, time.monotonic() - t0))


def test_criterion_01_s_relation():
    t0 = time.monotonic()
    corpus = _lattice_corpus(500)
    for lat in corpus:
        assert check_s_relation(lat) is None
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report("criterion 01 pairing-operator relation", "500 lattices", t0)


def test_criterion_02_monodromy_relation():
    t0 = time.monotonic()
    corpus = _lattice_corpus(500)
    for lat in corpus:
        assert check_monodromy_relation(lat) is None
        assert var(lat) * var_inverse(lat) == IntMatrix.identity(lat.nu)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report("criterion 02 monodromy relation", "500 lattices", t0)


def test_criterion_03_braid_invariance():
    t0 = time.monotonic()
    rng = random.Random(SEED + 1)
    for _ in range(500):
        parity = rng.choice((1, 2, 3, 4))
        nu = rng.randint(0, 8)
        lat = random_lattice(rng, nu, parity)
        word = random_braid_word(rng, nu, max_len=12)
        # congruence invariance of the dual-valued operator; the closed-form
        # gram updates are asserted against congruence inside every word
        assert var_inverse_as_operator_after_braid(lat, word) is None
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report("criterion 03 braid invariance", "500 lattice/word pairs", t0)


def test_criterion_04_symmetric_nondegenerate():
    t0 = time.monotonic()
    rng = random.Random(SEED + 2)
    for k in range(200):
        parity = rng.choice((1, 2, 3, 4))
        level = generate_level(rng.randrange(2 ** 32), 8, parity)
        analysis = LevelAnalysis(level.lattice, level.conj)
        analysis.signature  # raises if asymmetric or degenerate
        form = analysis.form
        assert form.is_symmetric()
        assert form.det() != 0
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report("criterion 04 symmetric non-degenerate form", "200 instances", t0)


def test_criterion_05_two_way_signature():
    t0 = time.monotonic()
    rng = random.Random(SEED + 3)
    pair_blocks = 0
    for _ in range(200):
        parity = rng.choice((1, 2, 3, 4))
        level = generate_level(rng.randrange(2 ** 32), 8, parity)
        lat, conj = level.lattice, level.conj
        analysis = LevelAnalysis(lat, conj)
        assert analysis.block_structure_problem() is None
        form = analysis.form
        assert exact_signature(form).sgn == signature_by_blocks(lat, conj)
        # conjugate-pair blocks contribute exactly zero
        from vanlat.conjugation import ConjugatePair
        d = (-1) ** ((parity * (parity + 1)) // 2)
        for start, size, pt in conj.morse.blocks():
            if isinstance(pt, ConjugatePair):
                pair_blocks += 1
                block = IntMatrix.from_rows(
                    [[form[start, start], form[start, start + 1]],
                     [form[start + 1, start], form[start + 1, start + 1]]])
                assert exact_signature(block).sgn == 0
    assert pair_blocks > 20
    _report("criterion 05 two-way signature evaluation",
            "200 instances, %d pair blocks" % pair_blocks, t0)


def test_criterion_06_desk_indices():
    t0 = time.monotonic()
    from vanlat.instfile import load_instance
    # x^2: signature route and sign-count oracle
    a1 = load_instance(instance_path("a1.vl")).instance
    assert gradient_index(a1) == 1 == index_1d([0, 0, 1])
    # x^3
    a2 = load_instance(instance_path("a2_index.vl")).instance
    assert gradient_index(a2) == 0 == index_1d([0, 0, 0, 1])
    # x^2 + y^2: winding-number oracle
    plane = load_instance(instance_path("plane_min.vl")).instance
    grad = (poly2({(1, 0): 2}), poly2({(0, 1): 2}))
    assert gradient_index(plane) == 1 == index_2d(grad, 1)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report("criterion 06 desk indices", "x^2, x^3, x^2+y^2", t0)


def test_criterion_07_telescoping():
    t0 = time.monotonic()
    rng = random.Random(SEED + 4)
    checked = 0
    for _ in range(120):
        n = rng.choice((1, 2, 3))
        p = rng.choice((0, 1, 2))
        inst = random_icis_instance(rng.randrange(2 ** 32), n, p, 6)
        assert telescoped_index(inst) == gradient_index(inst)
        checked += 1
    _report("criterion 07 telescoping consistency", "%d towers" % checked, t0)


def test_criterion_08_cycle_route():
    t0 = time.monotonic()
    rng = random.Random(SEED + 5)
    for k in range(100):
        parity = rng.choice((1, 3, 5))
        analysis = generate_level(rng.randrange(2 ** 32), 7, parity)
        level = level_with_cycles(0, analysis, pad=rng.choice((0, 1, 2)))
        s = rng.choice((1, -1))
        assert cycle_index_sum(level, s) == level_index_sum(level, s)
    # even-parity refusal with a diagnostic
    lat = ThimbleLattice(2, IntMatrix.from_rows([[0]]))
    from vanlat.conjugation import MorseSpec, RealPoint, build_sigma
    conj = build_sigma(MorseSpec((RealPoint(0),)), 2, [])
    level = level_with_cycles(0, LevelAnalysis(lat, conj))
    with pytest.raises(EvenParityError, match="even parity"):
        cycle_index_sum(level, 1)
    _report("criterion 08 cycle-route agreement", "100 paired instances", t0)


def test_criterion_09_signature_oracle_cross_check():
    t0 = time.monotonic()
    rng = random.Random(SEED + 6)
    for _ in range(1000):
        n = rng.randint(0, 10)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.randint(-10, 10)
            for j in range(i + 1, n):
                v = rng.randint(-10, 10)
                rows[i][j] = rows[j][i] = v
        m = IntMatrix.from_rows(rows)
        assert exact_signature(m) == float_signature(m)
    _report("criterion 09 signature oracle cross-check", "1000 matrices", t0)


def test_criterion_10_monodromy_order_three():
    t0 = time.monotonic()
    lat = ThimbleLattice(1, IntMatrix.from_rows([[2, -1], [-1, 2]]))
    h = monodromy(lat)
    assert matrix_power(h, 3) == IntMatrix.identity(2)
    assert h != IntMatrix.identity(2)
    assert matrix_power(h, 2) != IntMatrix.identity(2)
    _report("criterion 10 monodromy order three", "rank-2 worked lattice", t0)


def test_criterion_11_cli_round_trip_and_determinism(capsys, tmp_path):
    t0 = time.monotonic()
    for path in sorted(INSTANCE_DIR.glob("*.vl")):
        text = path.read_text(encoding="utf-8")
        assert serialize_instance(parse_instance_text(text)) == text
    # the stock run: default seed, 500 instances, rank bound 8
    code0 = cli_main(["verify"])
    out0 = capsys.readouterr().out
    assert code0 == 0 and "PASS (500 instances)" in out0
    code1 = cli_main(["verify", "--seed", "5", "--count", "28",
                      "--rank-bound", "5"])
    out1 = capsys.readouterr().out
    code2 = cli_main(["verify", "--seed", "5", "--count", "28",
                      "--rank-bound", "5"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    _report("criterion 11 round-trip and determinism",
            "%d shipped files, default verify, seeded verify twice"
            % len(list(INSTANCE_DIR.glob('*.vl'))), t0)


def test_criterion_12_monodromy_rank_128_budget():
    # one O(nu^2) row update per reflection: cubic in the rank
    lat = random_lattice(random.Random(SEED), 128, 3)
    t0 = time.monotonic()
    h = monodromy(lat)
    elapsed = time.monotonic() - t0
    assert h.nrows == h.ncols == 128
    assert elapsed < 2.0
    _report("criterion 12 rank-128 monodromy", "one random odd lattice", t0)


def test_criterion_13_braid_word_rank_64_budget():
    # O(nu) column updates per move, one congruence check per word
    rng = random.Random(SEED)
    lat = random_lattice(rng, 64, 1)
    moves = []
    for _ in range(48):
        kind = rng.choice("aAf")
        moves.append("%s%d" % (kind, rng.randint(1, 64 if kind == "f" else 63)))
    word = parse_braid_word(" ".join(moves))
    inverse = inverse_word(word)
    t0 = time.monotonic()
    new, _ = apply_braid_word(lat, word)
    elapsed = time.monotonic() - t0
    assert apply_braid_word(new, inverse)[0].gram == lat.gram
    assert elapsed < 0.3
    _report("criterion 13 rank-64 braid word", "48 moves on a random odd lattice", t0)


def _a_k_tower_text(k):
    """Serialized A_k tower: the level of :func:`conftest.a_k_level`."""
    lat, conj = a_k_level(k)
    inst = IcisInstance(1, 0, SignVector((1,)), (LevelData(0, lat, conj),))
    return serialize_instance(InstanceDocument(inst))


def test_criterion_14_parse_rank_64_budget():
    # canonical text is read line by line, and matrix entries are checked
    # once, where they enter
    text = _a_k_tower_text(64)
    t0 = time.monotonic()
    docs = [parse_instance_text(text) for _ in range(10)]
    elapsed = time.monotonic() - t0
    assert all(serialize_instance(doc) == text for doc in docs)
    assert elapsed < 0.3
    _report("criterion 14 rank-64 parse", "an A_64 tower parsed 10 times", t0)


def test_criterion_15_a_2048_index_budget():
    # every matrix of the tower is stored by its nonzeros, so the level's
    # analysis costs about its nonzeros rather than nu^2 or nu^3
    inst = a_k_instance(2048)
    t0 = time.monotonic()
    index = gradient_index(inst)
    elapsed = time.monotonic() - t0
    assert index == index_1d([0] * 2049 + [1])
    assert elapsed < 0.5
    _report("criterion 15 rank-2048 A_k index", "the A_2048 tower", t0)


# run the vanlat command of argv[1:], then print this process's own peak
# resident set in KiB: the high-water mark of its address space (VmHWM).
# Its ru_maxrss would not do, since Linux carries the peak of the process
# that forked it over the exec, here the test process's
_RUN_AND_PRINT_PEAK = """
import sys
from vanlat.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
sys.exit(code)
"""


def _run_for_peak(*argv):
    """Exit code, stdout lines before the peak, and the peak in KiB of
    ``vanlat argv`` run in a fresh process, where nothing else counts."""
    src = str(pathlib.Path(vanlat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", _RUN_AND_PRINT_PEAK, *argv],
                           capture_output=True, text=True, env=env, timeout=300)
    assert child.returncode == 0, child.stderr
    *report, peak_kib = child.stdout.splitlines()
    return report, int(peak_kib)


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_criterion_16_rank_960_validate_peak(tmp_path):
    # the reader decodes one matrix at a time into stored rows, and holds
    # neither the file's bytes nor a copy of its text through the parse;
    # the peak is read in a fresh process, so nothing else counts
    path = tmp_path / "big.vl"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["gen", "--seed", "1", "--rank-bound", "1000",
                         "--output", str(path)]) == 0
    t0 = time.monotonic()
    report, peak_kib = _run_for_peak("validate", str(path))
    assert report[0] == "level 0: lattice ok (rank 960, parity 1)"
    assert report[-1] == "ok"
    assert peak_kib <= 60 * 1024
    _report("criterion 16 rank-960 validate peak", "%.1f MB" % (peak_kib / 1024), t0)


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_criterion_17_rank_960_gen_peak(tmp_path):
    # the writer streams each line to the file as it is made, and writes
    # a sparse row from its nonzeros, so neither the text nor a dense row
    # is held; the file is the text gen writes to stdout
    path = tmp_path / "big.vl"
    t0 = time.monotonic()
    report, peak_kib = _run_for_peak("gen", "--seed", "1", "--rank-bound", "1000",
                                     "--output", str(path))
    assert report == ["wrote %s" % path]
    assert peak_kib <= 40 * 1024
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["gen", "--seed", "1", "--rank-bound", "1000"]) == 0
    assert path.read_bytes() == out.getvalue().encode("utf-8")
    _report("criterion 17 rank-960 gen peak", "%.1f MB" % (peak_kib / 1024), t0)
