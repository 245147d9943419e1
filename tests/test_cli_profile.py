"""Golden-structure tests for ``repro profile`` (and the obs state it
must leave untouched)."""

import json

from repro import obs
from repro.cli import main


def test_profile_prints_per_stage_breakdown(capsys):
    assert main(["profile", "RT", "--scale", "0.25"]) == 0
    out = capsys.readouterr().out
    # golden structure: title, table header, the three stage families,
    # and the counters block
    assert "== profile RT scale 0.25 k 6:" in out
    assert "stage" in out and "total ms" in out and "p99 ms" in out
    assert "construction.build" in out
    assert "construction.prep" in out
    assert "enumeration.full" in out
    assert "maintenance." in out  # insert and/or delete repairs ran
    assert "counters:" in out
    assert "construction.builds" in out
    assert "enumeration.paths" in out


def test_profile_json_mode_emits_snapshot(capsys):
    assert main([
        "profile", "RT", "--scale", "0.25", "--format", "snapshot",
    ]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert set(snapshot) >= {"counters", "gauges", "histograms"}
    histograms = snapshot["histograms"]
    assert "construction.build.seconds" in histograms
    assert "enumeration.full.seconds" in histograms
    summary = histograms["construction.build.seconds"]
    assert summary["count"] >= 1
    assert {"p50", "p95", "p99"} <= set(summary)
    assert snapshot["counters"]["construction.builds"] >= 1


def test_profile_format_json_emits_bench_payload(capsys):
    assert main(["profile", "RT", "--scale", "0.25", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "repro-bench/1"
    assert payload["benchmark"] == "profile"
    assert payload["config"]["dataset"] == "RT"
    assert payload["config"]["scale"] == 0.25
    metrics = payload["metrics"]
    assert "construction_build_seconds_total_s" in metrics or (
        "construction_build_total_s" in metrics
    )
    for metric in metrics.values():
        assert set(metric) == {"value", "unit", "direction"}
        assert metric["direction"] in ("lower", "higher")
    assert metrics["initial_paths"]["unit"] == "paths"


def test_profile_respects_query_and_update_knobs(capsys):
    assert main([
        "profile", "RT", "--scale", "0.25",
        "--queries", "2", "--updates", "6", "--seed", "11",
    ]) == 0
    out = capsys.readouterr().out
    assert "2 queries" in out


def test_profile_leaves_obs_disabled(capsys):
    previous = obs.set_enabled(False)
    try:
        assert main(["profile", "RT", "--scale", "0.25"]) == 0
        assert not obs.enabled()
    finally:
        obs.set_enabled(previous)
        obs.reset()


def test_profile_unknown_dataset_fails(capsys):
    assert main(["profile", "NOPE"]) == 2
    assert "unknown dataset" in capsys.readouterr().err
