"""Command-line workflow: exit codes, artifacts, and re-rendering."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import phonosem
from phonosem import pipeline
from phonosem.cca import PoleCandidates, build_pole_report
from phonosem.cli import main
from phonosem.corpus import load_lexicon
from phonosem.pipeline import PARAMS
from phonosem.segmentation import read_segmentation_cache
from phonosem.synth import FEATURES, SEGMENTS, make_planted_language


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, planted_dir):
    """A config file wired to the planted language, with a custom scale."""
    _, paths = planted_dir
    ws = tmp_path_factory.mktemp("cli")
    lexicon = load_lexicon(paths["lexicon"], "syn")
    words = [lx.word for lx in lexicon][:8]
    scales = {
        "scales": {
            "sonority_demo": {
                "phonetic": {"pos": ["m", "n", "l"], "neg": ["p", "t", "k"]},
                "semantic": {"syn": {"pos": words[:2], "neg": words[2:4]}},
            },
        },
    }
    scales_path = ws / "scales.json"
    scales_path.write_text(json.dumps(scales, ensure_ascii=False),
                           encoding="utf-8")
    config = {
        "languages": ["syn"],
        "feature_table": str(paths["feature_table"]),
        "inputs": {"syn": {
            "lexicon": str(paths["lexicon"]),
            "vectors": str(paths["vectors"]),
            "segmentations": str(paths["segmentations"]),
        }},
        "output_dir": str(ws / "results"),
        "scales": str(scales_path),
        "params": {
            "shuffles": 30, "null_points": 30,
            "subspace_shuffles": 30, "subspace_null_points": 30,
            "subspace_pool": 100, "n_components": 3,
        },
        "seed": 3,
    }
    config_path = ws / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return ws, config_path, config


def invoke(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def language_config(tmp_path, params):
    """A config file over a fresh 120-morpheme planted language of its
    own, so a test may change the input files."""
    paths = make_planted_language(tmp_path / "lang", n_morphemes=120, seed=9)
    cfg = {"languages": ["syn"],
           "feature_table": str(paths["feature_table"]),
           "inputs": {"syn": {k: str(v) for k, v in paths.items()
                              if k != "feature_table"}},
           "output_dir": str(tmp_path / "out"),
           "params": params}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path, paths


def scaled_language_config(tmp_path, params):
    """``language_config`` with a one-scale file over the language's own
    words; the scales file is returned among the paths."""
    path, paths = language_config(tmp_path, params)
    words = load_lexicon(paths["lexicon"], "syn").words()
    scales = tmp_path / "scales.json"
    scales.write_text(json.dumps({"scales": {"sonority_demo": {
        "phonetic": {"pos": ["m", "n", "l"], "neg": ["p", "t", "k"]},
        "semantic": {"syn": {"pos": words[:2], "neg": words[2:4]}}}}}),
        encoding="utf-8")
    cfg = json.loads(path.read_text("utf-8"))
    path.write_text(json.dumps({**cfg, "scales": str(scales)}), encoding="utf-8")
    return path, {**paths, "scales": scales}


SMALL_RUN = {"shuffles": 5, "null_points": 5, "n_components": 2,
             "subspace_shuffles": 5, "subspace_null_points": 5,
             "subspace_pool": 50}


@pytest.mark.parametrize("command,role", [
    *(("ingest", r) for r in ("feature_table", "lexicon", "vectors", "scales")),
    ("verify", "segmentations"),
    *(("embed", r) for r in ("feature_table", "vectors", "segmentations")),
    *(("analyze-global", r)
      for r in ("feature_table", "lexicon", "vectors", "segmentations")),
    *(("analyze-subspace", r)
      for r in ("feature_table", "lexicon", "vectors", "scales")),
    *(("interpret", r)
      for r in ("feature_table", "lexicon", "vectors", "segmentations")),
])
def test_missing_input_file_is_exit_one(tmp_path, command, role):
    path, paths = scaled_language_config(tmp_path, SMALL_RUN)
    if command == "interpret":
        result = invoke("analyze-global", "--config", path)
        assert result.exit_code == 0, result.output
    paths[role].unlink()
    result = invoke(command, "--config", path)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"input error: {paths[role]}: " in result.output


@pytest.mark.parametrize("command", ["ingest", "analyze-global", "interpret"])
def test_missing_config_is_exit_one(tmp_path, command):
    result = invoke(command, "--config", tmp_path / "nonexistent.json")
    assert result.exit_code == 1
    assert "nonexistent.json' does not exist" in result.output


class TestIngest:
    def test_summary(self, workspace):
        _, config_path, _ = workspace
        result = invoke("ingest", "--config", config_path)
        assert result.exit_code == 0
        assert "syn: 400 lexemes" in result.output
        assert "sonority_demo" in result.output

    def test_bad_params_exit_one(self, workspace, tmp_path):
        _, _, config = workspace
        broken = {**config, "params": {**config["params"], "null_points": 999}}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken), encoding="utf-8")
        result = invoke("ingest", "--config", path)
        assert result.exit_code == 1

    @pytest.mark.parametrize("entry", [
        {"params": {"k": "10"}}, {"params": {"k": True}},
        {"params": {"shuffles": 2.5}}, {"params": {"scatter": "no"}},
        {"seed": "x"}, {"seed": 1.7}, {"seed": True},
        {"analyses": {"rsa": "false"}}, {"analyses": ["rsa"]}, {"inputs": "syn"}],
        ids=["k-str", "k-bool", "shuffles-float", "scatter-str",
             "seed-str", "seed-float", "seed-bool", "analyses-str",
             "analyses-list", "inputs-str"])
    def test_value_of_the_wrong_type_is_exit_one(self, workspace, tmp_path,
                                                 entry):
        _, _, config = workspace
        broken = {**config, **entry,
                  "params": {**config["params"], **entry.get("params", {})}}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken), encoding="utf-8")
        result = invoke("ingest", "--config", path)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "expected" in result.output

    @pytest.mark.parametrize("name,value", [
        ("top_words", -1), ("percentile", 100.5)], ids=["top_words", "percentile"])
    def test_param_outside_its_bounds_is_exit_one(self, workspace, tmp_path,
                                                  name, value):
        _, _, config = workspace
        broken = {**config, "params": {**config["params"], name: value}}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken), encoding="utf-8")
        result = invoke("ingest", "--config", path)
        assert result.exit_code == 1
        assert (f"input error: parameter {name}={value} outside documented "
                "bounds") in result.output

    @pytest.mark.parametrize("roles,message", [
        ({"vector": "x.vec"}, "unknown inputs.syn key(s): vector"),
        ({}, "inputs.syn: missing role(s): vectors"),
        ("x.vec", "inputs.syn: expected a JSON object")],
        ids=["misspelt", "missing", "not-an-object"])
    def test_input_roles_other_than_the_three_are_exit_one(
            self, workspace, tmp_path, roles, message):
        _, _, config = workspace
        inputs = {k: v for k, v in config["inputs"]["syn"].items()
                  if k != "vectors"}
        syn = {**inputs, **roles} if isinstance(roles, dict) else roles
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({**config, "inputs": {"syn": syn}}),
                        encoding="utf-8")
        result = invoke("analyze-global", "--config", path)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"input error: {message}" in result.output

    def test_int_is_accepted_for_a_float_param(self, workspace, tmp_path):
        _, _, config = workspace
        path = tmp_path / "int.json"
        path.write_text(json.dumps(
            {**config, "params": {**config["params"], "percentile": 75}}),
            encoding="utf-8")
        result = invoke("ingest", "--config", path)
        assert result.exit_code == 0, result.output

    def test_scores_only_cca_null_is_exit_one(self, workspace, tmp_path):
        _, _, config = workspace
        broken = {**config, "params": {**config["params"], "cca_refit": False}}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken), encoding="utf-8")
        result = invoke("analyze-global", "--config", path)
        assert result.exit_code == 1
        assert "cca_refit=false, the scores-only CCA null, was removed" in result.output

    @pytest.mark.parametrize("section,key", [
        ("params", "shufles"), ("analyses", "rsaa"), (None, "sead")])
    def test_unknown_config_key_is_exit_one(self, workspace, tmp_path,
                                            section, key):
        _, _, config = workspace
        if section is None:
            broken = {**config, key: 1}
        else:
            broken = {**config, section: {**config.get(section, {}), key: 1}}
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(broken), encoding="utf-8")
        result = invoke("ingest", "--config", path)
        assert result.exit_code == 1
        assert key in result.output

    @pytest.mark.parametrize("text,message", [
        ("{not json", "not valid JSON"),
        ("[1, 2]", "top level must be a JSON object"),
        ("drop:languages", "missing required key(s): languages"),
        ("drop:feature_table", "missing required key(s): feature_table"),
        ("drop:inputs", "missing required key(s): inputs"),
    ])
    def test_malformed_config_is_input_error(self, workspace, tmp_path,
                                             text, message):
        _, _, config = workspace
        if text.startswith("drop:"):
            key = text.split(":", 1)[1]
            text = json.dumps({k: v for k, v in config.items() if k != key})
        path = tmp_path / "malformed.json"
        path.write_text(text, encoding="utf-8")
        result = invoke("ingest", "--config", path)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"input error: {path}: {message}" in result.output


class TestSegmentAndVerify:
    def test_segment_requires_provider(self, workspace):
        _, config_path, _ = workspace
        result = invoke("segment", "--config", config_path)
        assert result.exit_code == 1
        assert "provide --replay or --provider-url" in result.output

    @staticmethod
    def segment_config(config, tmp_path):
        cfg = {**config, "languages": ["en"],
               "inputs": {"en": {**config["inputs"]["syn"],
                                 "segmentations": str(tmp_path / "cache.jsonl")}}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return path

    def test_replay_miss_is_exit_three(self, workspace, tmp_path):
        ws, _, config = workspace
        replay = tmp_path / "replay.jsonl"
        replay.write_text("", encoding="utf-8")
        path = self.segment_config(config, tmp_path)
        result = invoke("segment", "--config", path, "--replay", replay)
        assert result.exit_code == 3
        assert "provider error" in result.output

    @pytest.mark.parametrize("line,message", [
        ('{"user": "b" "text": "c"}', "Expecting ',' delimiter"),
        ('{"user": "b", "logprobs": [-0.1]}', "missing key 'text'"),
    ], ids=["missing-comma", "missing-text"])
    def test_malformed_replay_line_is_exit_one(self, workspace, tmp_path,
                                               line, message):
        _, _, config = workspace
        replay = tmp_path / "replay.jsonl"
        replay.write_text(json.dumps({"user": "a", "text": "x"}) + "\n" + line
                          + "\n", encoding="utf-8")
        path = self.segment_config(config, tmp_path)
        result = invoke("segment", "--config", path, "--replay", replay)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"input error: {replay}:2: " in result.output
        assert message in result.output

    WORDS = [("run", "rʌn", 5.0), ("sit", "sɪt", 4.0), ("hop", "hɒp", 3.0)]

    def three_word_config(self, tmp_path, params=None):
        """A config over a three-word lexicon, with its cache path."""
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_text("word\tlemma\tzipf\tipa\n" + "".join(
            f"{w}\t{w}\t{z}\t{ipa}\n" for w, ipa, z in self.WORDS),
            encoding="utf-8")
        cache = tmp_path / "cache.jsonl"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "languages": ["en"], "feature_table": str(tmp_path / "features.tsv"),
            "inputs": {"en": {"lexicon": str(lexicon),
                              "vectors": str(tmp_path / "en.vec"),
                              "segmentations": str(cache)}},
            "output_dir": str(tmp_path / "results"),
            "params": params or {}}), encoding="utf-8")
        return path, cache

    def replay(self, path, with_logprobs=lambda w: True):
        """Recorded responses for every lexicon word."""
        path.write_text("".join(json.dumps({
            "user": f"input: {w},{ipa}", "text": f"({w},{ipa})",
            **({"logprobs": [-0.1]} if with_logprobs(w) else {})},
            ensure_ascii=False) + "\n" for w, ipa, _ in self.WORDS),
            encoding="utf-8")
        return path

    @pytest.mark.parametrize("top_words,sent", [
        (0, []), (2, ["run", "sit"]), (10, ["run", "sit", "hop"])],
        ids=["zero", "two", "more-than-the-lexicon"])
    def test_segment_sends_the_first_top_words_lexemes(self, tmp_path,
                                                       top_words, sent):
        path, cache = self.three_word_config(tmp_path, {"top_words": top_words})
        replay = self.replay(tmp_path / "replay.jsonl")
        result = invoke("segment", "--config", path, "--replay", replay)
        assert result.exit_code == 0, result.output
        assert f"en: {len(sent)} segmentations kept" in result.output
        assert [seg.word for seg in read_segmentation_cache(cache)] == sent

    def test_response_without_logprobs_is_exit_three_and_not_cached(
            self, tmp_path):
        path, cache = self.three_word_config(tmp_path)
        bad = self.replay(tmp_path / "bad.jsonl", lambda w: w == "run")
        result = invoke("segment", "--config", path, "--replay", bad)
        assert result.exit_code == 3
        assert ("provider error: response for 'sit' lacks log-probabilities"
                in result.output)
        assert [seg.word for seg in read_segmentation_cache(cache)] == ["run"]
        good = self.replay(tmp_path / "good.jsonl")
        result = invoke("segment", "--config", path, "--replay", good)
        assert result.exit_code == 0, result.output
        assert [seg.word for seg in read_segmentation_cache(cache)] == [
            "run", "sit", "hop"]

    @pytest.mark.parametrize("command,option", [
        ("verify", "--seed"), ("analyze-global", "--seed"),
        ("analyze-global", "--shuffles"), ("analyze-subspace", "--seed"),
        ("analyze-subspace", "--scatter"), ("analyze-subspace", "--no-scatter")])
    def test_config_value_is_no_option(self, workspace, command, option):
        _, config_path, _ = workspace
        args = [] if option.endswith("scatter") else [1]
        result = invoke(command, "--config", config_path, option, *args)
        assert result.exit_code == 1
        assert "No such option" in result.output and option in result.output

    def test_segment_takes_no_seed(self, workspace):
        _, config_path, _ = workspace
        result = invoke("segment", "--config", config_path, "--seed", 1)
        assert result.exit_code == 1
        assert "No such option" in result.output and "--seed" in result.output

    @pytest.mark.parametrize("n", [0, -1])
    def test_verify_sample_below_one_is_exit_one(self, workspace, n):
        _, config_path, _ = workspace
        result = invoke("verify", "--config", config_path, "-n", n)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert (f"input error: verification sample size n={n}: must be at "
                "least 1" in result.output)

    def test_verify_writes_sheet(self, workspace):
        ws, config_path, config = workspace
        result = invoke("verify", "--config", config_path, "-n", 20)
        assert result.exit_code == 0
        sheet = ws / "results" / "syn" / "verification.tsv"
        assert sheet.exists()
        assert len(sheet.read_text(encoding="utf-8").splitlines()) == 21

    def test_verify_samples_the_perplexity_filtered_set(self, workspace, tmp_path):
        _, _, config = workspace
        segs = tmp_path / "segs.jsonl"
        records = [("calm", "kam", 1.1), ("noisy", "nojzi", 2.0),
                   ("plain", "plen", 1.0)]
        segs.write_text("".join(json.dumps({
            "word": w, "ipa": ipa, "pairs": [[w, ipa]], "perplexity": ppl,
            "provider": "replay", "timestamp": 0.0}) + "\n"
            for w, ipa, ppl in records), encoding="utf-8")
        cfg = {**config,
               "inputs": {"syn": {**config["inputs"]["syn"],
                                  "segmentations": str(segs)}},
               "output_dir": str(tmp_path / "out")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        result = invoke("verify", "--config", path, "-n", 10)
        assert result.exit_code == 0, result.output
        sheet = (tmp_path / "out" / "syn" / "verification.tsv").read_text("utf-8")
        forms = [line.split("\t")[0] for line in sheet.splitlines()[1:]]
        assert sorted(forms) == ["calm", "plain"]

    def test_cache_with_a_record_without_perplexity_is_exit_one(
            self, workspace, tmp_path):
        _, _, config = workspace
        segs = tmp_path / "segs.jsonl"
        segs.write_text("".join(json.dumps({
            "word": w, "ipa": w, "pairs": [[w, w]], "perplexity": ppl,
            "provider": "replay", "timestamp": 0.0}) + "\n"
            for w, ppl in [("kam", 1.1), ("plen", None)]), encoding="utf-8")
        cfg = {**config,
               "inputs": {"syn": {**config["inputs"]["syn"],
                                  "segmentations": str(segs)}},
               "output_dir": str(tmp_path / "out")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        result = invoke("verify", "--config", path)
        assert result.exit_code == 1
        assert "input error: segmentation of 'plen' lacks a perplexity" in result.output


    @pytest.mark.parametrize("command", ["verify", "analyze-global"])
    @pytest.mark.parametrize("perplexity", ["1.1", True, [1.1]],
                             ids=["string", "bool", "list"])
    def test_cache_with_a_perplexity_that_is_not_a_number_is_exit_one(
            self, workspace, tmp_path, command, perplexity):
        _, _, config = workspace
        segs = tmp_path / "segs.jsonl"
        segs.write_text("".join(json.dumps({
            "word": w, "ipa": w, "pairs": [[w, w]], "perplexity": ppl,
            "provider": "replay", "timestamp": 0.0}) + "\n"
            for w, ppl in [("kam", 1.1), ("plen", perplexity)]), encoding="utf-8")
        cfg = {**config,
               "inputs": {"syn": {**config["inputs"]["syn"],
                                  "segmentations": str(segs)}},
               "output_dir": str(tmp_path / "out")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        result = invoke(command, "--config", path)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert (f"input error: {segs}:2: perplexity {perplexity!r} is not a number"
                in result.output)


class TestAnalyze:
    def test_global_writes_payloads(self, workspace):
        ws, config_path, _ = workspace
        result = invoke("analyze-global", "--config", config_path)
        assert result.exit_code == 0, result.output
        out = ws / "results"
        payload = json.loads((out / "syn" / "global.json").read_text("utf-8"))
        assert set(payload["results"]) == {"rsa", "mi", "knn", "cca"}
        assert len(payload["results"]["cca"]) == 3
        assert (out / "syn" / "cca_model.npz").exists()
        assert (out / "global.md").read_text("utf-8").startswith("| Language")
        assert (out / "manifest.json").exists()

    def test_cca_only_global_builds_no_similarity(self, workspace, tmp_path,
                                                  monkeypatch):
        _, _, config = workspace
        payloads = {}
        for name, analyses in [("all", {}), ("cca", {"rsa": False, "mi": False,
                                                     "knn": False})]:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({
                **config, "analyses": analyses,
                "output_dir": str(tmp_path / name)}), encoding="utf-8")
            if name == "cca":
                def refuse(matrix):
                    raise AssertionError("similarity built for a CCA-only run")
                monkeypatch.setattr("phonosem.stats.cosine_similarity_matrix",
                                    refuse)
            result = invoke("analyze-global", "--config", path)
            assert result.exit_code == 0, result.output
            payloads[name] = json.loads(
                (tmp_path / name / "syn" / "global.json").read_text("utf-8"))
        full, cca_only = payloads["all"], payloads["cca"]
        assert set(cca_only["results"]) == {"cca"}
        full["results"] = {"cca": full["results"]["cca"]}
        full["config_hash"] = cca_only["config_hash"]
        assert cca_only == full

    def test_subspace_writes_grid(self, workspace):
        ws, _, config = workspace
        path = ws / "scatter.json"
        path.write_text(json.dumps(
            {**config, "params": {**config["params"], "scatter": True}}),
            encoding="utf-8")
        result = invoke("analyze-subspace", "--config", path)
        assert result.exit_code == 0, result.output
        out = ws / "results"
        payload = json.loads((out / "subspace.json").read_text("utf-8"))
        cells = payload["cells"]
        assert [c["scale"] for c in cells] == ["sonority_demo"]
        assert cells[0]["n_words"] == 100
        scatter = out / "scatter" / "syn_sonority_demo.tsv"
        assert len(scatter.read_text("utf-8").splitlines()) == 101

    def test_subspace_switched_off_is_exit_one(self, workspace, tmp_path):
        _, _, config = workspace
        cfg = {**config, "analyses": {"subspace": False},
               "output_dir": str(tmp_path / "out")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        result = invoke("analyze-subspace", "--config", path)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "input error: analyses.subspace is false" in result.output
        assert not (tmp_path / "out" / "subspace.json").exists()

    def test_interpret_emits_poles(self, workspace):
        ws, config_path, _ = workspace
        result = invoke("interpret", "--config", config_path)
        assert result.exit_code == 0, result.output
        payload = json.loads(
            (ws / "results" / "syn" / "poles.json").read_text("utf-8"))
        # the planted signal makes at least the first variate significant
        assert payload["components"]
        assert payload["components"][0]["component"] == 1

    def test_cca_model_loads_without_pickle(self, workspace):
        ws, _, _ = workspace
        lang_dir = ws / "results" / "syn"
        payload = json.loads((lang_dir / "global.json").read_text("utf-8"))
        with np.load(lang_dir / "cca_model.npz") as z:
            arrays = {name: z[name] for name in z.files}
        assert str(arrays["config_hash"]) == payload["config_hash"]
        assert arrays["phonetic_ids"].dtype.kind == "U"
        assert arrays["feature_names"].dtype.kind == "U"
        assert int(arrays["n_components"]) == 3

    @staticmethod
    def copied_results(workspace, tmp_path):
        """A config whose output directory holds a copy of the
        workspace's analyze-global results."""
        ws, _, config = workspace
        shutil.copytree(ws / "results", tmp_path / "out")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**config, "output_dir": str(tmp_path / "out")}),
                        encoding="utf-8")
        return path, tmp_path / "out" / "syn"

    def test_interpret_rejects_a_model_from_another_run(self, workspace, tmp_path):
        path, lang_dir = self.copied_results(workspace, tmp_path)
        global_path = lang_dir / "global.json"
        payload = json.loads(global_path.read_text("utf-8"))
        payload["config_hash"] = "0" * 16
        global_path.write_text(json.dumps(payload), encoding="utf-8")
        result = invoke("interpret", "--config", path)
        assert result.exit_code == 1
        assert "run analyze-global again" in result.output

    def test_interpret_rejects_an_unstamped_model(self, workspace, tmp_path):
        path, lang_dir = self.copied_results(workspace, tmp_path)
        with np.load(lang_dir / "cca_model.npz") as z:
            arrays = {name: z[name] for name in z.files if name != "config_hash"}
        np.savez(lang_dir / "cca_model.npz", **arrays)
        result = invoke("interpret", "--config", path)
        assert result.exit_code == 1
        assert "with no config hash" in result.output

    @pytest.mark.parametrize("break_payload,error", [
        (lambda g: g.pop("config_hash"), "KeyError: 'config_hash'"),
        (lambda g: g["results"]["cca"][0].pop("p"), "KeyError: 'p'"),
        (lambda g: g["results"].update(cca=3), "TypeError"),
        (lambda g: g.update(results=[]), "AttributeError")],
        ids=["no-config-hash", "cca-without-p", "cca-not-a-list",
             "results-a-list"])
    def test_interpret_of_a_malformed_global_payload_is_exit_one(
            self, workspace, tmp_path, break_payload, error):
        path, lang_dir = self.copied_results(workspace, tmp_path)
        global_path = lang_dir / "global.json"
        payload = json.loads(global_path.read_text("utf-8"))
        break_payload(payload)
        global_path.write_text(json.dumps(payload), encoding="utf-8")
        result = invoke("interpret", "--config", path)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"input error: {global_path}: " in result.output
        assert error in result.output

    def test_interpret_after_global_with_other_shuffles(self, workspace, tmp_path):
        _, _, config = workspace
        cfg = {**config, "output_dir": str(tmp_path / "out")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, "params": {
            **config["params"], "shuffles": 20, "null_points": 20}}),
            encoding="utf-8")
        result = invoke("analyze-global", "--config", path)
        assert result.exit_code == 0, result.output
        path.write_text(json.dumps(cfg), encoding="utf-8")
        result = invoke("interpret", "--config", path)
        assert result.exit_code == 0, result.output

    def test_interpret_rejects_changed_vectors(self, tmp_path):
        path, paths = language_config(
            tmp_path, {"shuffles": 10, "null_points": 10, "n_components": 2})
        result = invoke("analyze-global", "--config", path)
        assert result.exit_code == 0, result.output
        assert invoke("interpret", "--config", path).exit_code == 0
        data = bytearray(paths["vectors"].read_bytes())
        i = next(j for j in range(data.index(b"\n") + 1, len(data))
                 if chr(data[j]).isdigit())
        data[i] = ord("1") if data[i] != ord("1") else ord("2")
        paths["vectors"].write_bytes(bytes(data))
        result = invoke("interpret", "--config", path)
        assert result.exit_code == 1
        assert f"{paths['vectors']}: not the vectors file" in result.output
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text("utf-8"))
        with np.load(tmp_path / "out" / "syn" / "cca_model.npz") as z:
            stamp = json.loads(str(z["input_sha256"]))
        assert stamp == {role: manifest["input_digests"][str(p)]
                         for role, p in paths.items()}

    def test_subspace_reads_and_hashes_no_segmentation_cache(self, tmp_path):
        path, paths = scaled_language_config(tmp_path, SMALL_RUN)
        paths["segmentations"].unlink()
        result = invoke("analyze-subspace", "--config", path)
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text("utf-8"))
        assert sorted(manifest["input_digests"]) == sorted(
            str(paths[role]) for role in
            ("feature_table", "lexicon", "vectors", "scales"))

    def test_interpret_reads_no_vectors_without_a_significant_variate(
            self, tmp_path, monkeypatch):
        # 10 null points put every p-value at 1/11 or above
        path, _ = language_config(
            tmp_path, {"shuffles": 10, "null_points": 10, "n_components": 2})
        result = invoke("analyze-global", "--config", path)
        assert result.exit_code == 0, result.output

        def refuse(*args, **kwargs):
            raise AssertionError("vectors loaded with no significant variate")
        monkeypatch.setattr("phonosem.pipeline.load_semantic_embeddings", refuse)
        result = invoke("interpret", "--config", path)
        assert result.exit_code == 0, result.output
        poles = json.loads((tmp_path / "out" / "syn" / "poles.json").read_text("utf-8"))
        assert poles["components"] == []

    def test_interpret_parses_only_the_pole_candidates(self, tmp_path,
                                                        monkeypatch):
        path, paths = language_config(
            tmp_path, {"shuffles": 40, "null_points": 40, "n_components": 2})
        lexicon = load_lexicon(paths["lexicon"], "syn")
        cutoff = lexicon.lexemes[len(lexicon) // 2].zipf
        top = lexicon.lexemes[0].word
        with paths["vectors"].open("a", encoding="utf-8") as fh:
            fh.write("zz_not_in_lexicon" + " 9.0" * 8 + "\n")
            fh.write(top + " -9.0" * 8 + "\n")  # a duplicate; the first wins
        cfg = json.loads(path.read_text("utf-8"))
        cfg["params"]["zipf_cutoff"] = cutoff  # one word sits at the cutoff
        path.write_text(json.dumps(cfg), encoding="utf-8")
        result = invoke("analyze-global", "--config", path)
        assert result.exit_code == 0, result.output

        requested = []
        load = pipeline.load_semantic_embeddings

        def spy(vectors_path, vocabulary, **kwargs):
            requested.append(list(vocabulary))
            return load(vectors_path, requested[-1], **kwargs)
        monkeypatch.setattr("phonosem.pipeline.load_semantic_embeddings", spy)
        result = invoke("interpret", "--config", path)
        assert result.exit_code == 0, result.output
        assert requested == [[lx.word for lx in lexicon if lx.zipf > cutoff]]
        assert lexicon.lexemes[len(lexicon) // 2].word not in requested[0]

        # the poles over the whole vocabulary's vectors filtered by the
        # cutoff, as interpret built them when it parsed every lexicon word
        vocab, _ = load(paths["vectors"], lexicon.words())
        zipf = {lx.word: lx.zipf for lx in lexicon}
        keep = [i for i, w in enumerate(vocab.ids) if zipf[w] > cutoff]
        candidates = PoleCandidates(
            ids=np.array([vocab.ids[i] for i in keep], dtype=str),
            vectors=vocab.vectors[keep],
            norms=np.linalg.norm(vocab.vectors[keep], axis=1))
        config = pipeline.RunConfig.from_file(path)
        lang_dir = tmp_path / "out" / "syn"
        payload = json.loads((lang_dir / "global.json").read_text("utf-8"))
        model, phon, names = pipeline._load_cca_artifacts(
            lang_dir, payload["config_hash"],
            pipeline._language_inputs(config, "syn"))
        p = config.params
        components = [build_pole_report(
            model, c, phon, names, candidates, k=p["k"],
            percentile=p["percentile"], threshold=p["threshold"]).to_record()
            for c, rec in enumerate(payload["results"]["cca"]) if rec["p"] < 0.05]
        assert components
        expected = {"language": "syn", "config_hash": config.config_hash(),
                    "components": components, "notes": []}
        assert (lang_dir / "poles.json").read_text("utf-8") == json.dumps(
            expected, sort_keys=True, ensure_ascii=False, indent=2) + "\n"

    def test_interpret_without_a_candidate_vector_has_empty_semantic_poles(
            self, tmp_path, caplog):
        path, paths = language_config(
            tmp_path, {"shuffles": 40, "null_points": 40, "n_components": 2,
                       "zipf_cutoff": 8.0})
        # the one word above the cutoff has no vector
        with paths["lexicon"].open("a", encoding="utf-8") as fh:
            fh.write("zz_frequent\tzz_frequent\t9.0\tpata\n")
        result = invoke("analyze-global", "--config", path)
        assert result.exit_code == 0, result.output
        result = invoke("interpret", "--config", path)
        assert result.exit_code == 0, result.output
        poles = json.loads((tmp_path / "out" / "syn" / "poles.json").read_text("utf-8"))
        assert poles["components"]
        for component in poles["components"]:
            assert component["semantic_pos"] == component["semantic_neg"] == []
        assert "no candidates above the zipf cutoff" in caplog.text

    def test_nan_in_a_row_below_the_cutoff_fails_only_a_command_that_reads_it(
            self, tmp_path):
        path, paths = scaled_language_config(
            tmp_path, {**SMALL_RUN, "shuffles": 40, "null_points": 40})
        with paths["lexicon"].open("a", encoding="utf-8") as fh:
            fh.write("zz_rare\tzz_rare\t1.0\tpata\n")
        with paths["vectors"].open("a", encoding="utf-8") as fh:
            fh.write("zz_rare" + " nan" * 8 + "\n")
        for command in ("analyze-global", "interpret"):
            result = invoke(command, "--config", path)
            assert result.exit_code == 0, result.output
        poles = json.loads((tmp_path / "out" / "syn" / "poles.json").read_text("utf-8"))
        assert poles["components"]
        result = invoke("analyze-subspace", "--config", path)
        assert result.exit_code == 1
        assert (f"input error: {paths['vectors']}: non-finite vector value "
                "for 'zz_rare'") in result.output

    def test_interpret_before_global_is_exit_one(self, workspace, tmp_path):
        _, _, config = workspace
        cfg = {**config, "output_dir": str(tmp_path / "empty")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        result = invoke("interpret", "--config", path)
        assert result.exit_code == 1

    def test_zero_semantic_vector_leaves_both_spaces(self, tmp_path):
        paths = make_planted_language(tmp_path / "lang", n_morphemes=60,
                                      semantic_dim=4, seed=5)
        lines = paths["vectors"].read_text(encoding="utf-8").splitlines()
        zeroed = lines[1].split(" ")[0]
        lines[1] = zeroed + " 0.0 0.0 0.0 0.0"
        paths["vectors"].write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = {"languages": ["syn"],
               "feature_table": str(paths["feature_table"]),
               "inputs": {"syn": {k: str(v) for k, v in paths.items()
                                  if k != "feature_table"}},
               "output_dir": str(tmp_path / "out"),
               "params": {"shuffles": 5, "null_points": 5, "n_components": 2}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        result = invoke("analyze-global", "--config", path)
        assert result.exit_code == 0, result.output
        lang_dir = tmp_path / "out" / "syn"
        payload = json.loads((lang_dir / "global.json").read_text("utf-8"))
        assert payload["n_morphemes_segmented"] == 60
        assert payload["n_morphemes"] == 59
        # CCA is fitted on the same 59 items the similarity statistics use
        ids = np.load(lang_dir / "cca_model.npz",
                      allow_pickle=True)["phonetic_ids"].tolist()
        assert len(ids) == 59
        assert not any(item.startswith(zeroed + "|") for item in ids)

    def test_phonetic_space_is_standardized_over_the_analysed_morphemes(
            self, tmp_path):
        path, paths = language_config(
            tmp_path, {"shuffles": 5, "null_points": 5, "n_components": 2})
        # no word left with a vector holds a labial segment
        labial = {s for s, v in SEGMENTS.items() if v[FEATURES.index("labial")] > 0}
        dropped = {lx.word for lx in load_lexicon(paths["lexicon"], "syn")
                   if labial & set(lx.ipa)}
        lines = paths["vectors"].read_text("utf-8").splitlines()
        paths["vectors"].write_text("".join(
            line + "\n" for line in lines
            if line.split(" ", 1)[0] not in dropped), encoding="utf-8")
        result = invoke("analyze-global", "--config", path)
        assert result.exit_code == 0, result.output
        with np.load(tmp_path / "out" / "syn" / "cca_model.npz") as z:
            names, vectors = z["feature_names"].tolist(), z["phonetic_vectors"]
        assert "labial" not in names
        assert np.allclose(vectors.std(axis=0), 1.0, rtol=0.0, atol=1e-9)

    def test_too_few_morphemes_is_exit_two(self, workspace, tmp_path):
        _, _, config = workspace
        lexicon = load_lexicon(config["inputs"]["syn"]["lexicon"], "syn")
        segs = tmp_path / "tiny.jsonl"
        with segs.open("w", encoding="utf-8") as fh:
            for lx in lexicon.lexemes[:2]:
                w, ipa = lx.word, lx.ipa
                fh.write(json.dumps({
                    "word": w, "ipa": ipa, "pairs": [[w, ipa]],
                    "perplexity": 1.0, "provider": "synthetic",
                    "timestamp": 0.0}) + "\n")
        cfg = {**config,
               "inputs": {"syn": {**config["inputs"]["syn"],
                                  "segmentations": str(segs)}},
               "output_dir": str(tmp_path / "out")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        result = invoke("analyze-global", "--config", path)
        assert result.exit_code == 2
        assert "analysis error" in result.output


class TestReport:
    @pytest.mark.parametrize("command,payload", [
        ("interpret", "syn/global.json"), ("report", "syn/global.json"),
        ("report", "subspace.json"), ("report", "syn/poles.json")])
    def test_truncated_payload_is_exit_one(self, workspace, tmp_path,
                                           command, payload):
        _, _, config = workspace
        out = tmp_path / "out"
        path = out / payload
        path.parent.mkdir(parents=True)
        # what a run killed while writing the payload leaves
        path.write_text('{"config_hash": "0", "results": {', encoding="utf-8")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**config, "output_dir": str(out)}),
                            encoding="utf-8")
        result = invoke(command, "--config", cfg_path)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"input error: {path}: not valid JSON" in result.output

    @pytest.mark.parametrize("command,payload", [
        ("interpret", "syn/global.json"), ("report", "syn/global.json"),
        ("report", "subspace.json"), ("report", "syn/poles.json")])
    @pytest.mark.parametrize("text", ["[]", '"global"', "3"])
    def test_payload_that_is_not_an_object_is_exit_one(
            self, workspace, tmp_path, command, payload, text):
        _, _, config = workspace
        out = tmp_path / "out"
        path = out / payload
        path.parent.mkdir(parents=True)
        path.write_text(text, encoding="utf-8")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**config, "output_dir": str(out)}),
                            encoding="utf-8")
        result = invoke(command, "--config", cfg_path)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"input error: {path}: top level must be a JSON object" in result.output

    @pytest.mark.parametrize("payload,key", [
        ("syn/global.json", "results"), ("subspace.json", "cells"),
        ("syn/poles.json", "language")])
    def test_payload_without_the_keys_it_renders_is_exit_one(
            self, workspace, tmp_path, payload, key):
        _, _, config = workspace
        out = tmp_path / "out"
        path = out / payload
        path.parent.mkdir(parents=True)
        path.write_text("{}", encoding="utf-8")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**config, "output_dir": str(out)}),
                            encoding="utf-8")
        result = invoke("report", "--config", cfg_path)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"input error: {path}: " in result.output
        assert f"KeyError: '{key}'" in result.output

    def test_report_renders_the_typed_interpretations(self, workspace, tmp_path):
        path, lang_dir = TestAnalyze.copied_results(workspace, tmp_path)
        poles_path = lang_dir / "poles.json"
        poles = json.loads(poles_path.read_text("utf-8"))
        poles["components"][0].update(interpretation_semantic="size",
                                      interpretation_phonetic="sonority")
        poles_path.write_text(json.dumps(poles), encoding="utf-8")
        assert invoke("report", "--config", path).exit_code == 0
        row = (lang_dir / "poles.md").read_text("utf-8").splitlines()[4]
        assert row.startswith("| 1 | ") and row.endswith(" | size | sonority |")

    def test_rerender_from_json(self, workspace):
        ws, config_path, _ = workspace
        out = ws / "results"
        (out / "global.md").unlink()
        (out / "subspace.md").unlink()
        result = invoke("report", "--config", config_path)
        assert result.exit_code == 0
        assert (out / "global.md").exists()
        assert (out / "subspace.md").exists()
        assert "sonority_demo" in (out / "subspace.md").read_text("utf-8")


def test_runtime_imports_no_test_only_package(tmp_path):
    path, _ = language_config(
        tmp_path, {"shuffles": 40, "null_points": 40, "n_components": 2})
    script = (
        "import sys\n"
        "from phonosem.cli import main\n"
        "for command in ('analyze-global', 'interpret'):\n"
        "    main([command, '--config', sys.argv[1]], standalone_mode=False)\n"
        "print(sorted({'scipy', 'hypothesis'} & set(sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(phonosem.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
    poles = json.loads((tmp_path / "out" / "syn" / "poles.json").read_text("utf-8"))
    assert poles["components"]


def test_readme_parameter_table_lists_every_param():
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    section = readme.split("\n## Parameters\n", 1)[1].split("\n## ", 1)[0]
    rows = {cells[0].strip("`"): cells[1:3] for cells in (
        [c.strip() for c in line.split("|")[1:-1]]
        for line in section.splitlines() if line.startswith("| `"))}
    assert sorted(rows) == sorted(PARAMS)
    for key, (default, _, _) in PARAMS.items():
        documented, kind = json.loads(rows[key][0]), rows[key][1]
        assert (documented, type(documented)) == (default, type(default)), key
        assert kind == type(default).__name__, key


def test_readme_options_are_options_of_their_command():
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    options = {name: {o for p in command.params for o in (*p.opts, *p.secondary_opts)}
               for name, command in main.commands.items()}
    anywhere = set().union(*options.values(),
                           *((*p.opts, *p.secondary_opts) for p in main.params))
    # "phonosem <command> ..." up to the end of its line or code span, and
    # every code span that shows an option, named after its command or not
    shown = re.findall(r"phonosem ([a-z-]+)([^`\n]*)", readme)
    shown += [(span.split()[0], span)
              for span in re.findall(r"`([^`\n]*--[^`\n]*)`", readme)]
    assert len(shown) > 8
    for command, text in shown:
        for option in re.findall(r"--[a-z][a-z-]*", text):
            assert option in options.get(command, anywhere), (command, option)
