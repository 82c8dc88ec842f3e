"""Tests of the benchmark harness's own helpers (no library needed)."""

from __future__ import annotations

import copy

import pytest

import check
import layers
import run
import stats


def span(name, start, wall, children=(), **attributes):
    return {"name": name, "started_at": start, "wall_seconds": wall,
            "attributes": attributes, "children": list(children)}


# ---------------------------------------------------------------------------
# self-time accounting
# ---------------------------------------------------------------------------
def nested_tree():
    # root 0-10: evaluate 1-6 (engine 2-5 inside), optimizer 7-9
    engine = span("backends.engine", 2.0, 3.0, circuits=4, qubits_max=6)
    evaluate = span("core.training.evaluate", 1.0, 5.0, [engine])
    optimizer = span("vqa.optimizer", 7.0, 2.0, nfev=3)
    return span(layers.ROOT, 0.0, 10.0, [evaluate, optimizer])


def test_self_time_is_total_minus_children():
    root = nested_tree()
    evaluate, optimizer = root["children"]
    assert layers.self_time(root) == pytest.approx(3.0)
    assert layers.self_time(evaluate) == pytest.approx(2.0)
    assert layers.self_time(evaluate["children"][0]) == pytest.approx(3.0)
    assert layers.self_time(optimizer) == pytest.approx(2.0)


def test_layers_plus_unattributed_sum_to_wall():
    result = layers.attribute([nested_tree()])
    named = sum(entry["self_s"] for entry in result["layers"].values())
    assert named + result["unattributed_s"] == pytest.approx(result["wall_s"])
    assert result["unattributed_s"] == pytest.approx(3.0)
    assert result["coverage"] == pytest.approx(0.7)
    assert result["layers"]["backends.engine"] == {"calls": 1, "self_s": 3.0}


def test_span_counts_are_summed_and_maxed():
    engine = nested_tree()["children"][0]["children"][0]
    wide = span("backends.engine", 5.5, 0.5, circuits=2, qubits_max=8)
    root = span(layers.ROOT, 0.0, 10.0, [engine, wide])
    counts = layers.attribute([root])["counts"]
    assert counts["backends.engine.circuits"] == 6
    assert counts["backends.engine.qubits_max"] == 8


def test_unknown_library_spans_fold_into_program_other():
    root = span(layers.ROOT, 0.0, 4.0, [span("stabilizer.run", 1.0, 2.0)])
    result = layers.attribute([root])
    assert result["layers"]["program.other"] == {"calls": 1, "self_s": 2.0}


def test_parallel_children_are_merged_not_summed():
    # two shards on two workers, 0-4 and 1-5, recorded by the parent
    # when collected (stamped at their end), each carrying worker spans
    shard_a = span("shard.dispatch", 4.0, 4.0,
                   [span("backends.engine", 0.0, 4.0)])
    shard_b = span("shard.dispatch", 5.0, 4.0,
                   [span("backends.engine", 1.0, 4.0)])
    jobs = span("service.run_jobs", 0.0, 6.0, [shard_a, shard_b])
    assert layers.interval(shard_b) == (1.0, 5.0)
    assert layers.self_time(jobs) == pytest.approx(1.0)
    assert layers.self_time(shard_a) == pytest.approx(0.0)


def test_attribute_requires_the_harness_root():
    with pytest.raises(ValueError):
        layers.attribute([span("backend.run", 0.0, 1.0)])


# ---------------------------------------------------------------------------
# percentiles and the sample-count rule
# ---------------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 99.9) == 100
    assert stats.percentile([7.0], 99) == 7.0


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_needs_ten_samples_beyond(count, expected):
    values = [float(v) for v in range(count)]
    got = stats.tail(values)
    if expected is None:
        assert got is None
        return
    pct, value = got
    assert pct == expected
    beyond = sum(1 for v in values if v > value)
    assert beyond >= stats.MIN_BEYOND


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------
OUTPUTS = {
    "ar": {"hybrid": 0.53, "pulse": 0.51},
    "po_duration": {"toronto.1": 128},
    "raw_mixer": {"toronto.1": 320},
    "extra": {"pulse_duration": 320},
}


def references_for(outputs):
    return {"fig5-quick": {"7": {"outputs": outputs,
                                 "digest": check.digest(outputs)}}}


def test_check_accepts_the_recorded_outputs():
    got = check.verdict("fig5-quick", 7, OUTPUTS, references_for(OUTPUTS))
    assert got["ok"] and got["reference"] == "match"
    assert got["digest_match"] is True


def test_check_without_reference_still_checks_invariants():
    got = check.verdict("fig5-quick", 8, OUTPUTS, references_for(OUTPUTS))
    assert got["ok"] and got["reference"] == "none"
    assert got["digest_match"] is None


@pytest.mark.parametrize(
    "section, key, value",
    [("ar", "hybrid", 0.53 + 1.5 * check.AR_TOLERANCE),
     ("po_duration", "toronto.1", 160),
     ("extra", "pulse_duration", 288)],
)
def test_check_rejects_a_perturbed_result(section, key, value):
    perturbed = copy.deepcopy(OUTPUTS)
    perturbed[section][key] = value
    got = check.verdict("fig5-quick", 7, perturbed, references_for(OUTPUTS))
    assert got["digest_match"] is False
    if section == "extra":
        # outside the AR/duration sections only the digest notices
        assert got["ok"]
    else:
        assert not got["ok"] and got["reference"] == "mismatch"


def test_check_accepts_ar_within_tolerance_but_reports_digest():
    perturbed = copy.deepcopy(OUTPUTS)
    perturbed["ar"]["pulse"] += check.AR_TOLERANCE / 2
    got = check.verdict("fig5-quick", 7, perturbed, references_for(OUTPUTS))
    assert got["ok"] and got["digest_match"] is False


@pytest.mark.parametrize(
    "section, key, value",
    [("ar", "pulse", 1.2), ("ar", "pulse", -0.1),
     ("ar", "pulse", float("nan")), ("po_duration", "toronto.1", 100),
     ("po_duration", "toronto.1", 352)],
)
def test_invariants_hold_for_any_seed(section, key, value):
    perturbed = copy.deepcopy(OUTPUTS)
    perturbed[section][key] = value
    got = check.verdict("fig5-quick", 99, perturbed, {})
    assert not got["ok"] and got["problems"]


# ---------------------------------------------------------------------------
# run verdicts
# ---------------------------------------------------------------------------
def fake_unit(wall, outputs=OUTPUTS, attempted=4):
    return {"setup_s": 1.0, "wall_s": wall, "latencies_ms": [wall * 250.0] * 4,
            "attempted": attempted, "failed": 0, "circuits": 8,
            "peak_rss_mb": 90.0, "worker_rss_mb": 0.0,
            "check": check.verdict("fig5-quick", 7, outputs,
                                   references_for(OUTPUTS))}


def spawner(results):
    """A ``run.spawn`` stand-in returning (or raising) ``results`` in turn."""
    queue = list(results)

    def spawn(workload, seed, trace, setup_only, deadline):
        item = queue.pop(0) if queue else run.ChildFailed("no more units")
        if isinstance(item, Exception):
            raise item
        return item

    return spawn


def test_a_crash_on_the_only_unit_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(run, "spawn", spawner([run.ChildFailed("boom")]))
    result = run.run_workload("fig5-quick", 7, 1, 0)
    assert result["metrics"] is None and not result["correct"]
    assert "boom" in result["problems"]
    assert "FAIL" in run.report(result)


def test_a_unit_failing_the_check_counts_its_evaluations_failed(monkeypatch):
    perturbed = copy.deepcopy(OUTPUTS)
    perturbed["ar"]["pulse"] = 0.9
    units = [fake_unit(2.0), fake_unit(1.0, perturbed, attempted=3),
             run.ChildFailed("stop")]
    monkeypatch.setattr(run, "spawn", spawner(units))
    result = run.run_workload("fig5-quick", 7, 10**6, 0)
    assert not result["correct"]
    # 4 + 3 evaluations and the crashed one; the second unit's 3 fail
    assert (result["attempted"], result["failed"]) == (8, 4)
    assert result["metrics"]["ok_rate"]["value"] == 0.5


def test_end_to_end_takes_medians_over_units():
    units = [fake_unit(3.0), fake_unit(1.0), fake_unit(3.5)]
    got = run.end_to_end(units, [1.0, 2.0, 4.0])
    assert got["wall_s"] == 3.0
    assert got["eval_p50_ms"] == 750.0
    assert got["circuits_per_s"] == pytest.approx(24 / 7.5)
    assert got["setup_s"] == 2.0
