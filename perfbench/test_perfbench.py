"""Tests of the benchmark itself: replay fidelity, checks and reporting."""

import json
from dataclasses import replace

import numpy as np
import pytest

import replay
import run
import workloads as wl
from irsbeam.arrays import ArrayConfig
from irsbeam.codebook import CONSTANT_MODULUS, build_scan_plan, plan_from_json, plan_to_json
from irsbeam.harness import ExperimentConfig, run_trial

SMALL = ArrayConfig(n_t=16, m_y=4, m_z=4, r=2)


@pytest.mark.parametrize(
    "cfg",
    [wl.los_config(3), wl.nlos_config(5, 1), replace(wl.nlos_config(7, 1), snr_db=0.0)],
    ids=["los", "nlos-20dB", "nlos-0dB"],
)
@pytest.mark.parametrize("t", [0, 11])
def test_replay_equals_run_trial(cfg, t):
    tr = replay.Tracer()
    record, channel = replay.replay_trial(cfg, t, tr, f"t{t}")
    assert record == run_trial(cfg, t)
    assert channel.strongest == wl.sample_channel(cfg, t).strongest
    assert {s.trial for s in tr.spans} == {f"t{t}"}
    wl.check_trial(cfg, record, channel.strongest)


def test_tracer_self_time_subtracts_children():
    tr = replay.Tracer()
    with tr.span("bench.op", "x"):
        tr.call("decoder.inner", "x", sum, range(100_000))
    outer, inner = tr.spans
    assert inner.parent == 0 and outer.parent is None
    self_ms = tr.self_ms_by_layer()
    assert self_ms["decoder"] == pytest.approx(1e3 * (inner.end - inner.start))
    assert self_ms["bench"] == pytest.approx(
        1e3 * ((outer.end - outer.start) - (inner.end - inner.start))
    )


def test_tiny_sweep_rows_match_across_worker_counts(tmp_path):
    cfg = ExperimentConfig(
        array=SMALL, q=4, l=3, scenario="nlos", snr_sweep=(-10.0, 0.0), trials=6, seed=9,
    )
    config_path = tmp_path / "sweep.cfg"
    config_path.write_text(wl.sweep_config_text(cfg))
    serial = wl.cli_sweep(str(config_path), str(tmp_path / "a.csv"), cfg.seed, 1)
    pooled = wl.cli_sweep(
        str(config_path), str(tmp_path / "b.csv"), cfg.seed, max(2, wl.pool_workers())
    )
    assert serial == pooled
    assert len(wl.check_sweep_csv(serial, cfg)) == 2


def test_sweep_check_rejects_wrong_trial_count():
    cfg = replace(wl.nlos_config(1, 3), snr_sweep=(0.0,))
    good = ",".join(wl.CSV_HEADER) + "\nsnr,0.0,3,0.5,0.1,0.5,0.1,1\n"
    wl.check_sweep_csv(good, cfg)
    with pytest.raises(wl.CheckFailed):
        wl.check_sweep_csv(good.replace(",3,", ",4,"), cfg)


@pytest.fixture(scope="module")
def small_cm_plan():
    plan = build_scan_plan(SMALL, 4, 2, CONSTANT_MODULUS, np.random.default_rng(4))
    return replace(plan, seed=4)


@pytest.mark.parametrize("field", ["a_supports", "c_design"])
def test_cm_check_rejects_one_swapped_support_index(small_cm_plan, field):
    text = plan_to_json(small_cm_plan)
    wl.check_plan_roundtrip(small_cm_plan, plan_from_json(text))
    doc = json.loads(text)
    first, second = doc["rounds"][0][field][:2]
    first[0], second[0] = second[0], first[0]
    with pytest.raises(wl.CheckFailed):
        wl.check_plan_roundtrip(small_cm_plan, plan_from_json(json.dumps(doc)))


def test_timed_op_chains_stages_and_scales_each_by_its_references(monkeypatch):
    refs = iter([1e-3, 3e-3, 2e-3])
    monkeypatch.setattr(wl, "reference_s", lambda: next(refs))
    clock = iter([0.0, 0.010, 1.0, 1.020])
    monkeypatch.setattr(wl.time, "perf_counter", lambda: next(clock))
    res = wl.RunResult()
    assert wl._timed(res, 1, lambda: 3, lambda x: x + 1) == [3, 4]
    nominal = wl.REF_NOMINAL_S
    assert res.op_s == pytest.approx([0.030])
    assert res.scaled_s == pytest.approx([0.010 * nominal / 2e-3 + 0.020 * nominal / 2.5e-3])


def test_timed_op_counts_a_package_error_as_failed_ops(monkeypatch):
    monkeypatch.setattr(wl, "reference_s", lambda: 1e-3)

    def broken(_):
        raise ValueError("bad input")

    res = wl.RunResult()
    assert wl._timed(res, 40, lambda: 1, broken) is None
    assert res.failed == 40 and len(res.op_s) == len(res.scaled_s) == 1


def test_blas_threads_restores_the_count():
    import blas

    before = blas.current()
    with blas.threads(1):
        assert blas.current() in (1, None)
    assert blas.current() == before


def _declared(kind):
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def test_benchmark_json_lists_the_runnable_workloads():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert set(_declared("per_layer")) == set(replay.MOVES)


@pytest.fixture
def tiny_sizes(monkeypatch):
    """Shrink every loop so each workload runs in seconds."""
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(wl, "LOS_MIN_OPS", 3)
    monkeypatch.setattr(wl, "SWEEP_TRIALS", 2)
    monkeypatch.setattr(wl, "SWEEP_MIN_OPS", 1)
    monkeypatch.setattr(wl, "CM_MIN_OPS", 1)
    monkeypatch.setattr(replay, "POOL_PROBE_TRIALS", 1)
    small = {
        name: replace(s, los_trials=2, sweep_trials=min(s.sweep_trials, 2), cm_ops=1)
        for name, s in replay.TRACE_SIZES.items()
    }
    monkeypatch.setattr(replay, "TRACE_SIZES", small)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_named_metric_is_printed_with_its_unit(tiny_sizes, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "2", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"metric {name} = ") and f" {unit}" in line for line in lines)
        assert isinstance(result["metrics"][name]["value"], float)
