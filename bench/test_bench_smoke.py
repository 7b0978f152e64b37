"""Smoke tests of the benchmark itself, at tiny sizes (A_5/A_6, rank 8)."""

import contextlib
import io
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def bench_stdout(workload, trace, seed=7):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0.2", "--trace", str(trace)], tiny=True)
    return code, out.getvalue()


def bench(workload, trace, seed=7):
    code, out = bench_stdout(workload, trace, seed)
    return code, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_prints_the_declared_metrics(workload, trace):
    code, result = bench(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_exactly(workload):
    def counts():
        _, result = bench(workload, 1)
        return {name: m["value"] for name, m in result["metrics"].items()
                if m["unit"] in ("count", "bits")
                or name.endswith(("per_move", "per_lattice", "per_instance"))}
    assert counts() == counts()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_timed_attempts_repeat_exactly(workload):
    def tally():
        _, result = bench(workload, 0)
        return result["attempted"], result["failed"]
    assert tally() == tally()


def wrong_index(inst):
    return 7


def raising_index(inst):
    raise TypeError("injected fault")


def first_call_only(fault, real):
    calls = []

    def index(inst):
        calls.append(inst)
        return fault(inst) if len(calls) == 1 else real(inst)
    return index


@pytest.mark.parametrize("fault", [wrong_index, raising_index])
def test_a_bad_op_exits_nonzero(monkeypatch, fault):
    import vanlat.cli
    monkeypatch.setattr(vanlat.cli, "gradient_index",
                        first_call_only(fault, vanlat.cli.gradient_index))
    code, result = bench("ak-r64", 0)
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1


@pytest.mark.parametrize("fault", [wrong_index, raising_index])
def test_no_result_when_every_op_fails(monkeypatch, fault):
    import vanlat.cli
    monkeypatch.setattr(vanlat.cli, "gradient_index", fault)
    code, out = bench_stdout("ak-r64", 0)
    assert code == 1
    assert '"metrics"' not in out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                           "ak-r64", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
