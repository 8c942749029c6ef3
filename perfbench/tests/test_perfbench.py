"""Tests of the benchmark itself: its contract, its checks and its counts.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests

Each workload is run for a single cycle (``--seconds 0``), so the whole
file takes about a minute and a half on a 2-core machine.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import wsld.spectral  # noqa: E402


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)


_PERTURB = {
    "table2": ("table2_reference", lambda f: lambda nu, a: tuple(1.1 * v for v in f(nu, a))),
    "large-grid": ("large_grid_reference", lambda f: lambda x: 1.01 * f(x)),
    "operator-apply": ("apply_reference", lambda f: lambda a, x: 1.1 * f(a, x)),
    "certify": ("symbol_min", lambda f: lambda scheme: 1.1 * f(scheme)),
}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_perturbed_reference_fails_the_run(name, monkeypatch, capsys):
    attr, perturb = _PERTURB[name]
    monkeypatch.setattr(workloads, attr, perturb(getattr(workloads, attr)))
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0"])
    result = _result(capsys)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] > 0


def test_negative_control_must_fail(monkeypatch, capsys):
    # A scan that certifies the unshifted operator is a wrong answer.
    scan = wsld.spectral.definiteness_scan
    monkeypatch.setattr(wsld.spectral, "definiteness_scan",
                        lambda nu, shifts=None: scan(nu))
    code = run.main(["--workload", "certify", "--seed", "3", "--seconds", "0"])
    result = _result(capsys)
    assert code != 0
    assert result["failed"] == 2  # one cycle: the nu = 3 and nu = 4 controls


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counts_repeat_exactly(name, capsys):
    counts = []
    for _ in range(2):
        assert run.main(["--workload", name, "--seed", "5", "--seconds", "0",
                         "--trace", "1"]) == 0
        metrics = _result(capsys)["metrics"]
        counts.append({k: metrics[k]["value"] for k in tracing.EXACT_METRICS})
    assert counts[0] == counts[1]
    assert counts[0]["trace.spans"] > 0


def test_untraced_run_reports_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "certify", "--seed", "7", "--seconds", "0"]) == 0
    result = _result(capsys)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == len(workloads.build("certify", 7).cases)
    for name, unit, _ in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "table2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
