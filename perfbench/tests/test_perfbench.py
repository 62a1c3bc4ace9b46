"""Tests of the benchmark's own logic: self time, the correctness gate,
replay keys, the tracer's patching and the metric names."""

import copy
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ---------------------------------------------------------------------------
# Self time

def test_self_time_subtracts_union_of_children():
    # root [0, 10] with children A [1, 3] and B [2, 5] overlapping, C [9, 12]
    # running past the root's end; A has a child [1.5, 2]
    start = [0.0, 1.0, 1.5, 2.0, 9.0]
    end = [10.0, 3.0, 2.0, 5.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    got = tracing.self_times(start, end, parent)
    # root: 10 - |[1, 5] u [9, 10]| = 5
    np.testing.assert_allclose(got, [5.0, 1.5, 0.5, 3.0, 3.0])


def test_nested_spans_partition_wall_time():
    tracer = tracing.Tracer()
    outer = tracer.open("pipeline.run_global")
    inner = tracer.open("stats.rsa")
    leaf = tracer.open("stats.permutation_test")
    tracer.close(leaf)
    tracer.close(inner)
    other = tracer.open("cca.fit_cca")
    tracer.close(other)
    tracer.close(outer)
    table = tracing.SpanTable.from_tracer(tracer)
    assert table.self_time.sum() == pytest.approx(table.duration[0], abs=1e-12)
    assert table.count("stats.permutation_test", under="stats.rsa") == 1
    assert table.count("cca.fit_cca", under="stats.rsa") == 0
    assert table.total("stats.rsa", under="pipeline.run_global") == \
        pytest.approx(table.duration[1])


def test_tracer_patches_every_lookup_and_restores(tmp_path):
    from phonosem import pipeline, stats
    from phonosem.phonetic import SimilarityMatrix

    original = stats.rsa
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pipeline.rsa is stats.rsa is not original
        rng = np.random.default_rng(0)
        x = rng.standard_normal((12, 3))
        sim = SimilarityMatrix(ids=tuple(map(str, range(12))), values=x @ x.T)
        pipeline.rsa(sim, sim, n_shuffles=4, null_points=4, seed=1)
    finally:
        tracer.uninstall()
    assert pipeline.rsa is stats.rsa is original
    table = tracing.SpanTable.from_tracer(tracer)
    assert table.count("stats.permutation_test", under="stats.rsa") == 1
    assert table.count("stats.shuffle_rng", under="stats.rsa") == 4
    assert tracer.counters["stats.rsa_shuffles"] == 4


def test_layer_metrics_cover_per_layer_names():
    tracer = tracing.Tracer()
    span = tracer.open("cli.analyze-global")
    tracer.close(span)
    metrics = tracing.layer_metrics(tracing.SpanTable.from_tracer(tracer),
                                    tracer.counters, wall_s=1.0)
    assert set(metrics) | {"trace.overhead_frac"} == set(tracing.PER_LAYER)


# ---------------------------------------------------------------------------
# Correctness gate

@pytest.fixture(scope="module")
def reference_cells():
    return gate.load_reference(BENCH / "reference" / "permutation.json")


def test_reference_matches_itself(reference_cells):
    attempted, failures = gate.compare(reference_cells, copy.deepcopy(reference_cells))
    assert attempted == len(reference_cells) and failures == []


def test_perturbed_statistic_fails_gate(reference_cells):
    got = copy.deepcopy(reference_cells)
    got["global/planted/rsa"]["null"]["mean"] += 1e-9
    _, failures = gate.compare(reference_cells, got)
    assert len(failures) == 1 and "global/planted/rsa" in failures[0]


def test_perturbation_within_tolerance_passes(reference_cells):
    got = copy.deepcopy(reference_cells)
    got["global/planted/rsa"]["value"] += gate.TOLERANCE / 4
    assert gate.compare(reference_cells, got)[1] == []


def test_p_values_and_stars_must_match_exactly(reference_cells):
    for field in ("p", "stars"):
        got = copy.deepcopy(reference_cells)
        rec = got["global/control/mi"]
        rec[field] = rec[field] + 1e-15 if field == "p" else rec[field] + "*"
        _, failures = gate.compare(reference_cells, got)
        assert len(failures) == 1, field


def test_missing_cell_fails_gate(reference_cells):
    got = copy.deepcopy(reference_cells)
    del got["subspace/planted/sonority"]
    _, failures = gate.compare(reference_cells, got)
    assert failures == ["subspace/planted/sonority: missing"]


def _record(statistic, p, m=20):
    return {"statistic": statistic, "value": 0.5, "p": p, "stars": gate.stars(p),
            "null_points": m, "n_shuffles": m}


def _seeded_cells(control_p=11 / 21):
    lo = 1 / 21
    cells = {}
    for lang, p in (("planted", lo), ("control", control_p)):
        for stat in ("rsa", "mi", "cca_cv1"):
            cells[f"global/{lang}/{stat}"] = _record(stat, p)
        cells[f"subspace/{lang}/sonority"] = {"rho": 0.3, "p": p,
                                              "test": _record("scale:sonority", p)}
    cells["poles/planted/cv1"] = {"component": 1, "phonetic_pos": [{"item": "sonorant"}]}
    if control_p < 0.05:
        cells["poles/control/cv1"] = {"component": 1, "phonetic_pos": [{"item": "voice"}]}
    return cells


def test_invariants_accept_planted_signal_and_quiet_control():
    attempted, failures = gate.invariants(
        _seeded_cells(), {"planted": True, "control": False}, "sonority")
    assert failures == [] and attempted > 0


def test_invariants_reject_a_control_that_beats_its_null():
    _, failures = gate.invariants(
        _seeded_cells(control_p=1 / 21), {"planted": True, "control": False},
        "sonority")
    assert failures == ["verdict/control: control language beats its null on "
                        "every verdict statistic"]


def test_invariants_reject_inconsistent_stars():
    cells = _seeded_cells()
    cells["global/planted/rsa"]["stars"] = ""
    _, failures = gate.invariants(cells, {"planted": True, "control": False},
                                  "sonority")
    assert len(failures) == 1 and failures[0].startswith("global/planted/rsa")


# ---------------------------------------------------------------------------
# Inputs

def test_replay_key_matches_segment_requests():
    from phonosem.segmentation import build_prompt

    _, user = build_prompt("en", [("w0001pab", "pab")])
    assert user == inputs.replay_key("w0001pab", "pab")


def test_lexicon_language_is_accepted_by_the_prompt_builder():
    from phonosem.segmentation import LANGUAGE_NAMES

    for spec in (inputs.WORKLOADS["lexicon"], inputs.REFERENCE_WORKLOADS["lexicon"]):
        assert all(lang.code in LANGUAGE_NAMES for lang in spec.languages)


def test_generated_inputs_depend_only_on_the_seed(tmp_path):
    spec = inputs.REFERENCE_WORKLOADS["lexicon"]
    digests = []
    for name in ("a", "b"):
        root = tmp_path / name
        inputs.generate(spec, 5, root)
        digests.append({p.relative_to(root): p.read_bytes() for p in root.rglob("*")
                        if p.is_file() and p.name != "config.json"})
    assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# BENCHMARK.json and metric names

@pytest.fixture(scope="module")
def spec():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_spec_shape(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"]
        assert len(w["why"]) <= 200
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60


def test_metric_names_and_units_are_valid(spec):
    names = [w["name"] for w in spec["workloads"]]
    for metric in spec["end_to_end"] + spec["per_layer"]:
        names.append(metric["name"])
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_spec_matches_what_the_benchmark_reports(spec):
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER


def test_setup_time_has_the_largest_bound(spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    setup = bounds.pop("setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(m["bound"] < setup["bound"] for m in bounds.values())


def test_timings_are_scaled_by_the_samples_taken_during_them():
    nominal, reach = run.SAMPLE_NOMINAL_S, run.SAMPLE_REACH_S
    # the CPU runs at nominal speed until t = 10 and at half speed after it
    samples = [[t / 10, nominal if t < 100 else 2 * nominal] for t in range(200)]
    speed = run.Speed(samples)
    assert speed.scaled([1.0, 5.0]) == pytest.approx(4.0)
    assert speed.scaled([12.0, 16.0]) == pytest.approx(2.0)
    # [8, 12] is half slow: its mean sample is 1.5 times nominal
    assert speed.scaled([8.0 + reach, 12.0 - reach]) == pytest.approx(
        (4.0 - 2 * reach) / 1.5, rel=0.02)
    result = {"samples": samples, "import": [0.0, 1.0], "generate": [[11.0, 12.0]] * 3,
              "timed": {"analyze-global": [[1.0, 5.0], [12.0, 16.0], [12.0, 13.0]],
                        "analyze-subspace": [[1.0, 2.0]], "interpret": [[15.0, 16.0]]},
              "failed": 0, "attempted": 9}
    got = run.end_to_end(result, peak_rss_mb=100.0)
    assert got["global_s"] == pytest.approx(2.0)
    assert got["wall_s"] == pytest.approx(2.0 + 1.0 + 0.5)
    assert got["setup_s"] == pytest.approx(1.0 + 0.5)
    assert got["passed_frac"] == 1.0


def test_an_interval_far_from_every_sample_takes_the_nearest():
    nominal = run.SAMPLE_NOMINAL_S
    speed = run.Speed([[0.0, nominal], [10.0, 4 * nominal]])
    assert speed.scaled([2.0, 3.0]) == pytest.approx(1.0)
    assert speed.scaled([8.0, 9.0]) == pytest.approx(0.25)
    assert speed.scaled([20.0, 22.0]) == pytest.approx(0.5)


def test_fill_spreads_the_run_over_the_commands(monkeypatch):
    clock = [0.0]
    cost = {"segment": 0.5, "analyze-global": 10.0, "analyze-subspace": 1.0,
            "interpret": 0.1}

    class FakeCli:
        @staticmethod
        def main(argv, standalone_mode):
            clock[0] += cost[argv[0]]

    monkeypatch.setattr(worker.time, "monotonic", lambda: clock[0])
    session = worker.Session(FakeCli)
    commands = [[name] for name in cost]
    windows = session.sequence(commands)
    session.fill(commands, windows, deadline=30.0)
    issues = {name: len(w) for name, w in windows.items()}
    # segment fills a cache, so it is issued once; analyze-global has had
    # the largest share of the run from its first issue on
    assert issues["segment"] == issues["analyze-global"] == 1
    assert issues["interpret"] > issues["analyze-subspace"] > 5
    assert max(end for w in windows.values() for _, end in w) <= 30.0
    assert session.failures == []


def test_sampler_samples_until_terminated(tmp_path):
    import subprocess

    out = tmp_path / "samples.txt"
    cpu = min(worker.os.sched_getaffinity(0))
    proc = subprocess.Popen([sys.executable, str(BENCH / "sampler.py"), str(cpu), str(out)],
                            stdout=subprocess.PIPE, text=True)
    try:
        assert proc.stdout.readline().strip() == "ready"
        worker.time.sleep(0.5)
    finally:
        proc.terminate()
        assert proc.wait(timeout=5) == 0
        proc.stdout.close()
    samples = [[float(v) for v in line.split()] for line in out.read_text().splitlines()]
    assert len(samples) >= 3
    assert all(a < b for (a, _), (b, _) in zip(samples, samples[1:]))
    assert all(0 < s < 0.1 for _, s in samples)
