"""Command-line workflow: exit codes, artifacts, and re-rendering."""

import ast
import hashlib
import importlib
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import unicodedata
from collections import Counter
from pathlib import Path
from urllib.parse import unquote

import numpy as np
import pytest
from click.testing import CliRunner

import phonosem
from phonosem import pipeline
from phonosem.cca import PoleCandidates, build_pole_report
from phonosem.cli import main
from phonosem.corpus import (EmbeddingMatrix, load_feature_table, load_lexicon,
                             load_semantic_embeddings)
from phonosem.errors import InputError
from phonosem.pipeline import PARAMS
from phonosem.segmentation import read_segmentation_cache
from phonosem.synth import FEATURES, SEGMENTS, make_planted_language


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, planted_dir):
    """A config file wired to the planted language, with a custom scale."""
    _, paths = planted_dir
    ws = tmp_path_factory.mktemp("cli")
    lexicon = load_lexicon(paths["lexicon"])
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
    words = [lx.word for lx in load_lexicon(paths["lexicon"])]
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

    def test_vectors_file_without_a_lexicon_word_is_exit_one(self, tmp_path):
        path, paths = language_config(tmp_path, SMALL_RUN)
        paths["vectors"].write_text("zz_none 1.0 2.0\nzz_nil 3.0 4.0\n",
                                    encoding="utf-8")
        result = invoke("ingest", "--config", path)
        assert result.exit_code == 1
        assert (f"input error: {paths['vectors']}: no vocabulary items matched"
                in result.output)

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

    @pytest.mark.parametrize("entry,message", [
        ({"languages": 3}, "languages=3: expected a non-empty list of distinct strings"),
        ({"languages": "syn"}, "languages='syn': expected a non-empty list"),
        ({"languages": []}, "languages=[]: expected a non-empty list"),
        ({"languages": ["syn", "syn"]}, "languages=['syn', 'syn']: expected"),
        ({"languages": [["syn"]]}, "languages=[['syn']]: expected"),
        ({"feature_table": 7}, "feature_table=7: expected a string"),
        ({"output_dir": ["out"]}, "output_dir=['out']: expected a string"),
        ({"scales": 5}, "scales=5: expected a string"),
        ({"inputs": {"syn": {"lexicon": 0, "vectors": "v", "segmentations": "s"}}},
         "inputs.syn.lexicon=0: expected a string")],
        ids=["languages-int", "languages-str", "languages-empty",
             "languages-repeated", "languages-nested", "feature_table-int",
             "output_dir-list", "scales-int", "input-path-int"])
    def test_top_level_value_of_the_wrong_type_is_exit_one(
            self, workspace, tmp_path, entry, message):
        _, _, config = workspace
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({**config, **entry}), encoding="utf-8")
        result = invoke("ingest", "--config", path)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"input error: {message}" in result.output

    def test_valid_config_keeps_its_hash(self, tmp_path):
        langs = ("en", "fi")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "languages": list(langs), "feature_table": "features.tsv",
            "inputs": {lang: {role: f"{lang}/{role}" for role in pipeline.INPUT_ROLES}
                       for lang in langs},
            "output_dir": "out", "scales": None, "seed": 3,
            "params": {"shuffles": 30, "null_points": 30}}), encoding="utf-8")
        config = pipeline.RunConfig.from_file(path)
        assert config.languages == langs
        assert config.config_hash() == "2453eea95fbc66f4"

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

    @pytest.mark.parametrize("prefix", ["", "subspace_"], ids=["global", "subspace"])
    def test_null_points_above_shuffles_is_exit_one(self, workspace, tmp_path,
                                                    prefix):
        _, _, config = workspace
        broken = {**config, "params": {**config["params"], f"{prefix}shuffles": 9,
                                       f"{prefix}null_points": 10}}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken), encoding="utf-8")
        result = invoke("ingest", "--config", path)
        assert result.exit_code == 1
        assert (f"input error: {prefix}null_points exceeds {prefix}shuffles"
                in result.output)

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
        ('{"user": "b", "text": 5}', "text 5 is not a string"),
        ('{"user": "b", "text": "(b,b)", "logprobs": ["a", "b"]}',
         "log-probability 'a' is not a number"),
        ('{"user": "b", "text": "(b,b)", "logprobs": [-0.1, NaN]}',
         "log-probability nan is not finite"),
        ('{"user": "b", "text": "(b,b)", "logprobs": [0.5]}',
         "log-probability 0.5 is above 0"),
    ], ids=["missing-comma", "missing-text", "text-int", "logprobs-str",
            "logprob-nan", "logprob-positive"])
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

    def replay(self, path, logprobs=lambda w: [-0.1]):
        """Recorded responses for every lexicon word, with the
        log-probabilities ``logprobs`` gives each word (none for None)."""
        path.write_text("".join(json.dumps({
            "user": f"input: {w},{ipa}", "text": f"({w},{ipa})",
            **({"logprobs": logprobs(w)} if logprobs(w) else {})},
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
        bad = self.replay(tmp_path / "bad.jsonl",
                          lambda w: [-0.1] if w == "run" else None)
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

    def test_word_cached_with_another_transcription_is_exit_one(self, tmp_path):
        path, cache = self.three_word_config(tmp_path)
        replay = self.replay(tmp_path / "replay.jsonl")
        assert invoke("segment", "--config", path, "--replay", replay).exit_code == 0
        cached = cache.read_bytes()
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_text(lexicon.read_text("utf-8").replace("\trʌn\n", "\tran\n"),
                           encoding="utf-8")
        result = invoke("segment", "--config", path, "--replay", replay)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert (f"input error: {cache}: 'run' is cached with the transcription "
                "/rʌn/, but the lexicon gives /ran/" in result.output)
        assert cache.read_bytes() == cached

    def test_response_whose_perplexity_overflows_is_exit_three_and_not_cached(
            self, tmp_path):
        path, cache = self.three_word_config(tmp_path)
        bad = self.replay(tmp_path / "bad.jsonl",
                          lambda w: [-1000.0] if w == "sit" else [-0.1])
        result = invoke("segment", "--config", path, "--replay", bad)
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert ("provider error: response for 'sit' has a perplexity that "
                "overflows a float" in result.output)
        assert [seg.word for seg in read_segmentation_cache(cache)] == ["run"]

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

    def test_verify_keeps_a_sheet_that_holds_a_verdict(self, workspace):
        ws, config_path, _ = workspace
        result = invoke("verify", "--config", config_path, "-n", 20)
        assert result.exit_code == 0, result.output
        sheet = ws / "results" / "syn" / "verification.tsv"
        blank = sheet.read_bytes()
        rows = blank.decode("utf-8").split("\n")
        assert all(row.endswith("\t") for row in rows[1:-1])
        for i, verdict in enumerate(
                ["correct", "error", "correct", " correct ", "error"], start=1):
            rows[i] += verdict
        rows[6] += "  "  # whitespace is no verdict
        sheet.write_bytes("\r\n".join(rows).encode("utf-8"))
        filled = sheet.read_bytes()
        result = invoke("verify", "--config", config_path, "-n", 20)
        assert result.exit_code == 0, result.output
        assert f"syn: kept {sheet}: 5 of 20 rows hold a verdict" in result.output
        assert sheet.read_bytes() == filled

        # a sheet with no verdict is drawn again
        sheet.write_bytes(b"morpheme\ttranscription\texample_source\tverdict\n"
                          b"x\ty\tz\t \n")
        result = invoke("verify", "--config", config_path, "-n", 20)
        assert result.exit_code == 0, result.output
        assert sheet.read_bytes() == blank

    def test_verify_refuses_a_sheet_that_is_not_utf8(self, workspace):
        ws, config_path, _ = workspace
        sheet = ws / "results" / "syn" / "verification.tsv"
        sheet.parent.mkdir(parents=True, exist_ok=True)
        sheet.write_bytes(b"morpheme\ttranscription\texample_source\tverdict\n"
                          b"caf\xe9\tkafe\tcaf\xe9\tok\n")
        damaged = sheet.read_bytes()
        result = invoke("verify", "--config", config_path, "-n", 20)
        assert result.exit_code == 1
        assert f"input error: {sheet}: not UTF-8 text" in result.output
        assert sheet.read_bytes() == damaged

    @staticmethod
    def filled_sheet(workspace, tmp_path, verdicts):
        """A config with its own output directory and the path of the
        150-row sheet ``verify`` draws there, its first rows given
        ``verdicts``; the sheet's bytes before they were filled."""
        _, _, config = workspace
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**config, "output_dir": str(tmp_path / "out")}),
                        encoding="utf-8")
        result = invoke("verify", "--config", path)
        assert result.exit_code == 0, result.output
        sheet = tmp_path / "out" / "syn" / "verification.tsv"
        blank = sheet.read_bytes()
        rows = blank.decode("utf-8").split("\n")
        for i, verdict in enumerate(verdicts, start=1):
            rows[i] += verdict
        sheet.write_bytes("\n".join(rows).encode("utf-8"))
        return path, sheet, blank

    def test_verify_scores_a_filled_sheet(self, workspace, tmp_path):
        path, sheet, _ = self.filled_sheet(
            workspace, tmp_path, ["correct"] * 100 + ["error"] * 3 + ["correct"] * 47)
        filled = sheet.read_bytes()
        score_path = sheet.with_suffix(".json")
        result = invoke("verify", "--config", path)
        assert result.exit_code == 0, result.output
        assert f"syn: kept {sheet}: 150 of 150 rows hold a verdict" in result.output
        assert ("syn: 3 errors in 150 reviewed rows: error rate 2.0 % ± 2.24 %"
                in result.output)
        score = json.loads(score_path.read_text("utf-8"))
        assert score == {"correct": 147, "error": 3, "unreviewed": 0,
                         "reviewed": 150, "error_rate": 0.02,
                         "half_width": pytest.approx(0.0224, abs=5e-5)}
        scored = score_path.read_bytes()
        result = invoke("verify", "--config", path)
        assert result.exit_code == 0, result.output
        assert sheet.read_bytes() == filled and score_path.read_bytes() == scored

    def test_verify_scores_only_the_reviewed_rows(self, workspace, tmp_path):
        path, sheet, blank = self.filled_sheet(
            workspace, tmp_path, ["error", "", " correct", "correct\t"])
        result = invoke("verify", "--config", path)
        assert result.exit_code == 0, result.output
        score = json.loads(sheet.with_suffix(".json").read_text("utf-8"))
        assert score["reviewed"] == 3 and score["unreviewed"] == 147
        assert score["error"] == 1 and score["error_rate"] == pytest.approx(1 / 3)
        # a sheet drawn again drops the score of the sheet it replaces
        sheet.write_bytes(blank)
        result = invoke("verify", "--config", path)
        assert result.exit_code == 0, result.output
        assert not sheet.with_suffix(".json").exists()

    @pytest.mark.parametrize("verdict", ["ok", "Correct", "errors", "?"])
    def test_verify_refuses_a_verdict_it_does_not_define(
            self, workspace, tmp_path, verdict):
        path, sheet, _ = self.filled_sheet(
            workspace, tmp_path, ["correct", "error", verdict])
        filled = sheet.read_bytes()
        result = invoke("verify", "--config", path)
        assert result.exit_code == 1
        assert (f"input error: {sheet}:4: verdict {verdict!r} is not 'correct' "
                "or 'error'" in result.output)
        assert sheet.read_bytes() == filled
        assert not sheet.with_suffix(".json").exists()

    def test_verify_refuses_a_sheet_of_other_morphemes(self, workspace, tmp_path):
        path, sheet, _ = self.filled_sheet(workspace, tmp_path, ["correct"])
        rows = sheet.read_text("utf-8").split("\n")
        form, transcription, rest = rows[3].split("\t", 2)
        rows[3] = "\t".join([form + "x", transcription, rest])
        sheet.write_text("\n".join(rows), encoding="utf-8")
        result = invoke("verify", "--config", path)
        assert result.exit_code == 1
        assert (f"input error: {sheet}:4: {form + 'x'!r} /{transcription}/ is not "
                "an analysed morpheme" in result.output)
        assert not sheet.with_suffix(".json").exists()

    @pytest.mark.parametrize("form,transcription", [
        ("wa\tlk", "wɔk"), ("walk", "wɔ\tk"), ("wa\nlk", "wɔk"),
        ("walk", "wɔk\r")])
    def test_verify_refuses_a_morpheme_that_would_break_the_sheet(
            self, workspace, tmp_path, form, transcription):
        _, _, config = workspace
        segs = tmp_path / "segs.jsonl"
        segs.write_text("".join(json.dumps({
            "word": word, "ipa": word, "pairs": pairs, "perplexity": 1.0,
            "provider": "replay", "timestamp": 0.0}) + "\n"
            for word, pairs in [("calm", [["calm", "kam"]]),
                                ("walked", [[form, transcription], ["ed", "t"]])]),
            encoding="utf-8")
        cfg = {**config,
               "inputs": {"syn": {**config["inputs"]["syn"],
                                  "segmentations": str(segs)}},
               "output_dir": str(tmp_path / "out")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        result = invoke("verify", "--config", path, "-n", 10)
        assert result.exit_code == 1
        assert (f"input error: morpheme {form!r} (transcription "
                f"{transcription!r}, example 'walked') holds a tab or a line "
                "break" in result.output)
        assert not (tmp_path / "out" / "syn" / "verification.tsv").exists()

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
            for w, ppl in [("kam", 1.1), ("plen", None)]).replace(
                ', "perplexity": null', ""), encoding="utf-8")
        cfg = {**config,
               "inputs": {"syn": {**config["inputs"]["syn"],
                                  "segmentations": str(segs)}},
               "output_dir": str(tmp_path / "out")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        result = invoke("verify", "--config", path)
        assert result.exit_code == 1
        assert f"input error: {segs}:2: missing key 'perplexity'" in result.output


    @pytest.mark.parametrize("command", ["verify", "analyze-global"])
    @pytest.mark.parametrize("perplexity", ["1.1", True, [1.1], None],
                             ids=["string", "bool", "list", "null"])
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

    def test_stage_counts_of_morphemes_without_a_segment(self, tmp_path):
        # three morphemes whose transcriptions match no segment; only the
        # one whose form has a non-zero vector counts as skipped
        path, paths = language_config(tmp_path, SMALL_RUN)
        global_path = tmp_path / "out" / "syn" / "global.json"
        assert invoke("analyze-global", "--config", path).exit_code == 0
        before = json.loads(global_path.read_text("utf-8"))
        dim = int(paths["vectors"].read_text("utf-8").split("\n", 1)[0].split()[1])
        with paths["vectors"].open("a", encoding="utf-8") as fh:
            fh.write("qvec " + " ".join(["0.5"] * dim) + "\n")
            fh.write("qzero " + " ".join(["0.0"] * dim) + "\n")
        with paths["segmentations"].open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "word": "qq", "ipa": "ʘʘʘ",
                "pairs": [["qvec", "ʘ"], ["qnone", "ʘʘ"], ["qzero", "ʘʘʘ"]],
                "perplexity": 1.0, "provider": "synthetic", "timestamp": 0.0},
                ensure_ascii=False) + "\n")
        result = invoke("analyze-global", "--config", path)
        assert result.exit_code == 0, result.output
        after = json.loads(global_path.read_text("utf-8"))
        assert before["n_skipped_phonetics"] == 0
        assert after["n_morphemes_segmented"] == before["n_morphemes_segmented"] + 3
        assert after["n_skipped_phonetics"] == 1
        assert after["n_morphemes"] == before["n_morphemes"]

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
    def global_results(workspace, tmp_path):
        """The workspace's config with an output directory of its own,
        which holds that config's analyze-global results (the output
        directory is part of the config hash that interpret checks)."""
        _, _, config = workspace
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**config, "output_dir": str(tmp_path / "out")}),
                        encoding="utf-8")
        result = invoke("analyze-global", "--config", path)
        assert result.exit_code == 0, result.output
        return path, tmp_path / "out" / "syn"

    def test_interpret_rejects_a_model_from_another_run(self, workspace, tmp_path):
        path, lang_dir = self.global_results(workspace, tmp_path)
        global_path = lang_dir / "global.json"
        payload = json.loads(global_path.read_text("utf-8"))
        payload["config_hash"] = "0" * 16
        global_path.write_text(json.dumps(payload), encoding="utf-8")
        result = invoke("interpret", "--config", path)
        assert result.exit_code == 1
        assert "run analyze-global again" in result.output

    def test_interpret_rejects_a_model_stamped_by_another_config(
            self, workspace, tmp_path):
        path, lang_dir = self.global_results(workspace, tmp_path)
        model_path = lang_dir / "cca_model.npz"
        with np.load(model_path) as z:
            arrays = {name: z[name] for name in z.files}
        arrays["config_hash"] = np.array("0" * 16)
        np.savez(model_path, **arrays)
        result = invoke("interpret", "--config", path)
        assert result.exit_code == 1
        assert f"input error: {model_path}: stamped {'0' * 16}" in result.output
        assert "run analyze-global again" in result.output
        assert not (lang_dir / "poles.json").exists()

    def test_interpret_rejects_an_unstamped_model(self, workspace, tmp_path):
        path, lang_dir = self.global_results(workspace, tmp_path)
        with np.load(lang_dir / "cca_model.npz") as z:
            arrays = {name: z[name] for name in z.files if name != "config_hash"}
        np.savez(lang_dir / "cca_model.npz", **arrays)
        result = invoke("interpret", "--config", path)
        assert result.exit_code == 1
        assert "with no config hash" in result.output

    @pytest.mark.parametrize("cut", [lambda b: b"", lambda b: b[:len(b) // 2]],
                             ids=["empty", "truncated"])
    def test_interpret_of_a_cut_model_is_exit_one(self, workspace, tmp_path, cut):
        # np.savez writes in place, so a killed analyze-global can leave these
        path, lang_dir = self.global_results(workspace, tmp_path)
        model_path = lang_dir / "cca_model.npz"
        model_path.write_bytes(cut(model_path.read_bytes()))
        result = invoke("interpret", "--config", path)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert re.search(rf"input error: {re.escape(str(model_path))}: .+; "
                         "run analyze-global again", result.output)
        assert not (lang_dir / "poles.json").exists()

    @pytest.mark.parametrize("break_payload,error", [
        (lambda g: g.pop("config_hash"), "KeyError: 'config_hash'"),
        (lambda g: g["results"]["cca"][0].pop("p"), "KeyError: 'p'"),
        (lambda g: g["results"].update(cca=3), "TypeError"),
        (lambda g: g.update(results=[]), "AttributeError")],
        ids=["no-config-hash", "cca-without-p", "cca-not-a-list",
             "results-a-list"])
    def test_interpret_of_a_malformed_global_payload_is_exit_one(
            self, workspace, tmp_path, break_payload, error):
        path, lang_dir = self.global_results(workspace, tmp_path)
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
        # an output directory holds the outputs of one config: interpret
        # refuses a global.json that an edited config file left behind
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
        global_path = tmp_path / "out" / "syn" / "global.json"
        assert result.exit_code == 1
        assert f"input error: {global_path}: written with config hash" in result.output
        assert "run analyze-global again" in result.output
        assert not (tmp_path / "out" / "syn" / "poles.json").exists()

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
        digests = manifest["runs"]["analyze-global"]["input_digests"]
        with np.load(tmp_path / "out" / "syn" / "cca_model.npz") as z:
            stamp = json.loads(str(z["input_sha256"]))
        assert stamp == {role: digests[str(p)] for role, p in paths.items()}

    @pytest.mark.parametrize("killed_at", ["global.json", "cca_model.npz"])
    def test_interpret_refuses_a_run_killed_between_its_writes(
            self, tmp_path, monkeypatch, killed_at):
        # a rerun after an input changed dies writing one of the two files:
        # the model left beside global.json is stamped with the old input
        path, paths = language_config(
            tmp_path, {"shuffles": 10, "null_points": 10, "n_components": 2})
        result = invoke("analyze-global", "--config", path)
        assert result.exit_code == 0, result.output
        with paths["vectors"].open("a", encoding="utf-8") as fh:
            fh.write("zz_new" + " 1.0" * 8 + "\n")

        class Killed(Exception):
            pass

        def kill(*args, **kwargs):
            raise Killed
        if killed_at == "global.json":
            dump = pipeline._dump_json
            monkeypatch.setattr(pipeline, "_dump_json", lambda obj, p: (
                kill() if p.name == "global.json" else dump(obj, p)))
        else:
            monkeypatch.setattr(pipeline, "_save_cca_artifacts", kill)
        result = invoke("analyze-global", "--config", path)
        assert isinstance(result.exception, Killed)
        monkeypatch.undo()
        result = invoke("interpret", "--config", path)
        assert result.exit_code == 1
        assert f"{paths['vectors']}: not the vectors file" in result.output
        assert not (tmp_path / "out" / "syn" / "poles.json").exists()

    def test_subspace_reads_and_hashes_no_segmentation_cache(self, tmp_path):
        path, paths = scaled_language_config(tmp_path, SMALL_RUN)
        paths["segmentations"].unlink()
        result = invoke("analyze-subspace", "--config", path)
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text("utf-8"))
        assert sorted(manifest["runs"]["analyze-subspace"]["input_digests"]) == sorted(
            str(paths[role]) for role in
            ("feature_table", "lexicon", "vectors", "scales"))

    def test_each_command_keeps_its_own_manifest_record(self, tmp_path, caplog):
        path, paths = scaled_language_config(tmp_path, SMALL_RUN)
        manifest = tmp_path / "out" / "manifest.json"
        manifest.parent.mkdir()
        manifest.write_text("[]", encoding="utf-8")  # not an object: replaced
        commands = {  # command -> the roles of its inputs, its outputs
            "analyze-global": (("feature_table", "lexicon", "vectors", "segmentations"),
                               ["global:grid", "global:syn"]),
            "analyze-subspace": (("feature_table", "lexicon", "vectors", "scales"),
                                 ["subspace", "subspace:grid"]),
            "interpret": (("feature_table", "lexicon", "vectors", "segmentations"),
                          ["poles:syn", "poles:syn:md"])}
        for command in commands:
            result = invoke(command, "--config", path)
            assert result.exit_code == 0, result.output
        assert "replacing the run manifest" in caplog.text
        runs = json.loads(manifest.read_text("utf-8"))["runs"]
        assert sorted(runs) == sorted(commands)
        for command, (roles, outputs) in commands.items():
            assert runs[command]["input_digests"] == {
                str(paths[role]): hashlib.sha256(paths[role].read_bytes()).hexdigest()
                for role in roles}
            assert sorted(runs[command]["results"]) == outputs

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
        path, paths = scaled_language_config(
            tmp_path, {**SMALL_RUN, "shuffles": 40, "null_points": 40})
        lexicon = load_lexicon(paths["lexicon"])
        cutoff = lexicon[len(lexicon) // 2].zipf
        top = lexicon[0].word
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
            requested.append(set(vocabulary))
            return load(vectors_path, requested[-1], **kwargs)
        monkeypatch.setattr("phonosem.pipeline.load_semantic_embeddings", spy)
        # with no store, interpret parses exactly its candidates
        shutil.rmtree(tmp_path / "out" / "vectors")
        result = invoke("interpret", "--config", path)
        assert result.exit_code == 0, result.output
        assert requested == [{lx.word for lx in lexicon if lx.zipf > cutoff}]
        assert lexicon[len(lexicon) // 2].word not in requested[0]
        poles = (tmp_path / "out" / "syn" / "poles.json").read_text("utf-8")
        # after analyze-subspace has read every lexicon word, it parses none
        result = invoke("analyze-subspace", "--config", path)
        assert result.exit_code == 0, result.output
        requested.clear()
        result = invoke("interpret", "--config", path)
        assert result.exit_code == 0, result.output
        assert requested == []
        assert (tmp_path / "out" / "syn" / "poles.json").read_text("utf-8") == poles

        # the poles over the whole vocabulary's vectors filtered by the
        # cutoff, as interpret built them when it parsed every lexicon word
        vocab, _ = load(paths["vectors"], [lx.word for lx in lexicon])
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
            pipeline._language_inputs(config, "syn"),
            pipeline.input_digests(config, pipeline.INPUT_ROLES, config.feature_table))
        p = config.params
        components = [build_pole_report(
            model, c, phon, names, candidates, k=p["k"],
            percentile=p["percentile"], threshold=p["threshold"])
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

    def test_interpret_never_lists_a_zero_vector(self, tmp_path):
        path, paths = language_config(
            tmp_path, {"shuffles": 40, "null_points": 40, "n_components": 2,
                       "zipf_cutoff": 8.0})
        # the two words above the cutoff are fewer than k = 10, and one of
        # them has a zero vector
        with paths["lexicon"].open("a", encoding="utf-8") as fh:
            fh.write("zz_zero\tzz_zero\t9.0\tpata\n")
            fh.write("zz_one\tzz_one\t9.0\tpata\n")
        with paths["vectors"].open("a", encoding="utf-8") as fh:
            fh.write("zz_zero" + " 0.0" * 8 + "\n")
            fh.write("zz_one" + " 1.0" * 8 + "\n")
        for command in ("analyze-global", "interpret"):
            result = invoke(command, "--config", path)
            assert result.exit_code == 0, result.output

        def refuse(name):
            raise ValueError(f"{name} is not JSON")
        poles = json.loads(
            (tmp_path / "out" / "syn" / "poles.json").read_text("utf-8"),
            parse_constant=refuse)
        assert poles["components"]
        for component in poles["components"]:
            for key in ("semantic_pos", "semantic_neg"):
                assert [e["item"] for e in component[key]] == ["zz_one"]

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
        assert zeroed not in {unquote(item.split("|")[0]) for item in ids}

    def test_phonetic_space_is_standardized_over_the_analysed_morphemes(
            self, tmp_path):
        path, paths = language_config(
            tmp_path, {"shuffles": 5, "null_points": 5, "n_components": 2})
        # no word left with a vector holds a labial segment
        labial = {s for s, v in SEGMENTS.items() if v[FEATURES.index("labial")] > 0}
        dropped = {lx.word for lx in load_lexicon(paths["lexicon"])
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
        lexicon = load_lexicon(config["inputs"]["syn"]["lexicon"])
        segs = tmp_path / "tiny.jsonl"
        with segs.open("w", encoding="utf-8") as fh:
            for lx in lexicon[:2]:
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


@pytest.mark.parametrize("forms", [{"pa": "pa", "pa|x": "pak"}, {"q|x": "ta"}],
                         ids=["prefix-is-a-form", "prefix-is-no-form"])
def test_each_morpheme_gets_its_own_forms_vector(tmp_path, forms):
    # a form may hold "|", which a morpheme's id escapes
    path, paths = language_config(tmp_path, SMALL_RUN)
    with paths["segmentations"].open("a", encoding="utf-8") as fh:
        for form, ipa in forms.items():
            fh.write(json.dumps({"word": form, "ipa": ipa, "pairs": [[form, ipa]],
                                 "perplexity": 1.0}) + "\n")
    with paths["vectors"].open("a", encoding="utf-8") as fh:
        for i, form in enumerate(forms):
            fh.write(form + f" {i + 1.5} -0.5" * 4 + "\n")
    config = pipeline.RunConfig.from_file(path)
    phon, sem, *_ = pipeline.load_language_spaces(
        config, "syn", load_feature_table(config.feature_table),
        pipeline.input_digests(config, ("vectors",)))
    decoded = [tuple(unquote(s) for s in item_id.split("|")) for item_id in phon.ids]
    assert set(forms.items()) <= set(decoded)
    vectors, _ = load_semantic_embeddings(paths["vectors"],
                                          {form for form, _ in decoded})
    by_form = dict(zip(vectors.ids, vectors.vectors))
    assert sem.ids == phon.ids
    for (form, _), row in zip(decoded, sem.vectors):
        assert np.array_equal(row, by_form[form]), form


def test_morpheme_ids_are_distinct_and_decode(tmp_path):
    # joined by a bare "|", (pa|ta, ka) and (pa, ta|ka) would share an id
    path, paths = language_config(tmp_path, SMALL_RUN)
    morphemes = [("pa|ta", "ka"), ("pa", "ta|ka")]
    with paths["segmentations"].open("a", encoding="utf-8") as fh:
        for form, ipa in morphemes:
            fh.write(json.dumps({"word": form, "ipa": ipa, "pairs": [[form, ipa]],
                                 "perplexity": 1.0}) + "\n")
    with paths["vectors"].open("a", encoding="utf-8") as fh:
        for i, (form, _) in enumerate(morphemes):
            fh.write(form + f" {i + 1.5} -0.5" * 4 + "\n")
    result = invoke("analyze-global", "--config", path)
    assert result.exit_code == 0, result.output
    with np.load(tmp_path / "out" / "syn" / "cca_model.npz") as z:
        ids = z["phonetic_ids"].tolist()
    assert len(set(ids)) == len(ids)
    decoded = {tuple(unquote(s) for s in item_id.split("|")) for item_id in ids}
    assert set(morphemes) <= decoded


class TestVectorStore:
    """The store of parsed vector rows under ``<output_dir>/vectors``."""

    COMMANDS = (("analyze-global", "syn/global.json"),
                ("analyze-subspace", "subspace.json"),
                ("interpret", "syn/poles.json"))

    @staticmethod
    def store(tmp_path, paths):
        return (tmp_path / "out" / "vectors"
                / pipeline._file_digest(paths["vectors"]))

    @staticmethod
    def odd_language(tmp_path):
        """A scaled language whose vectors file has a count header, lines
        that end in a space, NFD tokens, repeated tokens and a token that
        ends in NUL. The odd tokens are frequent lexicon words with no
        morpheme, so analyze-global does not read them and
        analyze-subspace does; one more such word has no vector."""
        path, paths = scaled_language_config(
            tmp_path, {**SMALL_RUN, "shuffles": 40, "null_points": 40})
        extra = {"caf\u00e9": "kafe", "na\u00efve": "naiv", "zz\x00": "pata",
                 "zz_absent": "tapa"}
        with paths["lexicon"].open("a", encoding="utf-8") as fh:
            for word, ipa in extra.items():
                fh.write(f"{word}\t{word}\t6.5\t{ipa}\n")
        lines = paths["vectors"].read_text("utf-8").splitlines()
        assert re.fullmatch(r"\d+ 8", lines[0])
        top = lines[1].split(" ", 1)[0]
        # the odd rows sit between the rows of morpheme forms
        lines[1:1] = ["zz\x00" + " 3e-5" * 8]
        lines[5:5] = ["cafe\u0301" + " 0.25" * 8]
        lines[-5:-5] = ["nai\u0308ve" + " -1.5" * 8]
        lines += ["caf\u00e9" + " 9.0" * 8, top + " -9.0" * 8]
        paths["vectors"].write_text("".join(line + " \n" for line in lines),
                                    encoding="utf-8")
        return path, paths

    def test_reads_through_the_store_equal_a_fresh_parse(self, tmp_path,
                                                          monkeypatch):
        path, paths = self.odd_language(tmp_path)
        out = tmp_path / "out"
        payloads = {}
        for command, payload in self.COMMANDS:
            result = invoke(command, "--config", path)
            assert result.exit_code == 0, result.output
            payloads[payload] = (out / payload).read_bytes()

        # the morpheme forms come from the store, the other words from the
        # text, and then every word from the store
        shutil.rmtree(out / "vectors")
        result = invoke("analyze-global", "--config", path)
        assert result.exit_code == 0, result.output
        vocabulary = [lx.word for lx in load_lexicon(paths["lexicon"])]
        fresh, fresh_missing = load_semantic_embeddings(paths["vectors"], vocabulary)
        assert {"caf\u00e9", "na\u00efve", "zz\x00"} <= set(fresh.ids)
        config = pipeline.RunConfig.from_file(path)
        digests = pipeline.input_digests(config, ("vectors",))
        merged = pipeline.load_vectors(config, "syn", digests, vocabulary)

        def refuse(*args, **kwargs):
            raise AssertionError("text parsed for rows the store holds")
        monkeypatch.setattr("phonosem.pipeline.load_semantic_embeddings", refuse)
        stored = pipeline.load_vectors(config, "syn", digests, vocabulary)
        monkeypatch.undo()
        for rows, missing in (merged, stored):
            assert rows.ids == fresh.ids
            assert rows.vectors.tobytes() == fresh.vectors.tobytes()
            assert missing == fresh_missing == ["zz_absent"]

        for command, payload in self.COMMANDS:
            shutil.rmtree(out / "vectors")
            result = invoke(command, "--config", path)
            assert result.exit_code == 0, result.output
            assert (out / payload).read_bytes() == payloads[payload], command

    @staticmethod
    def filled_store(tmp_path):
        """The odd language, with one more word that is no morpheme form
        on the last line of the vectors file, after ``analyze-subspace``,
        whose store then holds every lexicon word; with the store's
        header, where its rows start, and which of its rows hold a form."""
        path, paths = TestVectorStore.odd_language(tmp_path)
        with paths["lexicon"].open("a", encoding="utf-8") as fh:
            fh.write("zz_tail\tzz_tail\t6.5\tpata\n")
        with paths["vectors"].open("a", encoding="utf-8") as fh:
            fh.write("zz_tail" + " 0.5" * 8 + " \n")
        result = invoke("analyze-subspace", "--config", path)
        assert result.exit_code == 0, result.output
        store = TestVectorStore.store(tmp_path, paths)
        line = store.read_bytes().split(b"\n", 1)[0]
        header = json.loads(line)
        config = pipeline.RunConfig.from_file(path)
        forms = {m.form for m in pipeline.analysed_morphemes(config, "syn")}
        form_rows = [i for i, token in enumerate(header["tokens"]) if token in forms]
        return path, paths, store, header, len(line) + 1, form_rows

    def test_store_cut_short_after_the_wanted_rows_is_rewritten(self, tmp_path,
                                                               caplog):
        path, paths, store, header, start, form_rows = self.filled_store(tmp_path)
        width = 8 * header["dim"]
        assert form_rows[-1] < len(header["tokens"]) - 1
        # every form row is whole; the row after the last is cut short
        store.write_bytes(store.read_bytes()[:start + (form_rows[-1] + 1) * width + 8])
        caplog.clear()
        result = invoke("analyze-global", "--config", path)
        assert result.exit_code == 0, result.output
        assert f"{store}: store ignored (ValueError: " in caplog.text
        config = pipeline.RunConfig.from_file(path)
        forms = {m.form for m in pipeline.analysed_morphemes(config, "syn")}
        fresh, fresh_missing = load_semantic_embeddings(paths["vectors"], forms)
        line, body = store.read_bytes().split(b"\n", 1)
        rewritten = json.loads(line)
        assert rewritten["tokens"] == list(fresh.ids)
        assert rewritten["absent"] == fresh_missing
        assert body == fresh.vectors.astype("<f8").tobytes()
        kept = (tmp_path / "out" / "syn" / "global.json").read_bytes()
        shutil.rmtree(tmp_path / "out" / "vectors")
        result = invoke("analyze-global", "--config", path)
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "syn" / "global.json").read_bytes() == kept

    @pytest.mark.parametrize("damage", [
        lambda b: b[:len(b) // 2],
        lambda b: b[:40],
        lambda b: b"",
        lambda b: bytes(range(256)) * 4,
        lambda b: b + b"\0" * 8,
        lambda b: b.replace(b'"digest": "', b'"digest": "0', 1),
        lambda b: b.replace(b'"dim": 8', b'"dim": 16', 1)],
        ids=["truncated", "truncated-header", "empty", "garbage", "extra-bytes",
             "other-digest", "other-dimension"])
    def test_damaged_store_is_rewritten(self, tmp_path, damage):
        path, paths = scaled_language_config(tmp_path, SMALL_RUN)
        store = self.store(tmp_path, paths)
        result = invoke("analyze-subspace", "--config", path)
        assert result.exit_code == 0, result.output
        good = store.read_bytes()
        subspace = (tmp_path / "out" / "subspace.json").read_bytes()
        assert damage(good) != good
        store.write_bytes(damage(good))
        result = invoke("analyze-subspace", "--config", path)
        assert result.exit_code == 0, result.output
        assert store.read_bytes() == good
        assert (tmp_path / "out" / "subspace.json").read_bytes() == subspace

    def test_rows_that_do_not_fit_the_file_are_not_read(self, tmp_path, caplog):
        # the header's row count and dimension agree with the bytes, but
        # the dimension is not the file's
        path, paths = scaled_language_config(tmp_path, SMALL_RUN)
        store = self.store(tmp_path, paths)
        result = invoke("analyze-subspace", "--config", path)
        assert result.exit_code == 0, result.output
        good = store.read_bytes()
        subspace = (tmp_path / "out" / "subspace.json").read_bytes()
        header, rows = good.split(b"\n", 1)
        obj = json.loads(header)
        half = len(obj["tokens"]) // 2
        obj.update(dim=16, tokens=obj["tokens"][:half])
        store.write_bytes(json.dumps(obj).encode() + b"\n" + rows[:half * 16 * 8])
        caplog.clear()
        result = invoke("analyze-subspace", "--config", path)
        assert result.exit_code == 0, result.output
        assert (f"{paths['vectors']}: {half} known rows of dimension 16, but the "
                "file's is 8; they are parsed") in caplog.text
        assert store.read_bytes() == good
        assert (tmp_path / "out" / "subspace.json").read_bytes() == subspace

    def test_changed_vectors_file_does_not_read_the_old_store(self, tmp_path):
        path, paths = language_config(
            tmp_path, {"shuffles": 10, "null_points": 10, "n_components": 2})
        result = invoke("analyze-global", "--config", path)
        assert result.exit_code == 0, result.output
        old = self.store(tmp_path, paths)
        # a store that would change every result if it were read
        header, rows = old.read_bytes().split(b"\n", 1)
        old.write_bytes(header + b"\n" + bytes(len(rows)))
        data = bytearray(paths["vectors"].read_bytes())
        i = next(j for j in range(data.index(b"\n") + 1, len(data))
                 if chr(data[j]).isdigit())
        data[i] = ord("1") if data[i] != ord("1") else ord("2")
        paths["vectors"].write_bytes(bytes(data))
        result = invoke("interpret", "--config", path)
        assert result.exit_code == 1
        assert f"{paths['vectors']}: not the vectors file" in result.output

        result = invoke("analyze-global", "--config", path)
        assert result.exit_code == 0, result.output
        new = self.store(tmp_path, paths)
        assert new != old and new.exists()
        # the store of a file the config no longer names is deleted
        assert not old.exists()
        shutil.copy(tmp_path / "out" / "syn" / "global.json", tmp_path / "kept.json")
        shutil.rmtree(tmp_path / "out" / "vectors")
        result = invoke("analyze-global", "--config", path)
        assert result.exit_code == 0, result.output
        assert ((tmp_path / "out" / "syn" / "global.json").read_bytes()
                == (tmp_path / "kept.json").read_bytes())

    def test_stale_stores_and_temporaries_are_pruned(self, tmp_path):
        path, paths = scaled_language_config(tmp_path, SMALL_RUN)
        store = self.store(tmp_path, paths)
        result = invoke("analyze-subspace", "--config", path)
        assert result.exit_code == 0, result.output
        good = store.read_bytes()
        subspace = (tmp_path / "out" / "subspace.json").read_bytes()
        stale = store.parent / ("0" * 64)  # the store of another file
        stale.write_bytes(good)
        # what writes killed between creating a temporary file and
        # os.replace leave
        temporaries = [store.parent / f".{store.name}.k1ll3d",
                       store.parent / f".{'0' * 64}.x_y"]
        other = [store.parent / "notes.txt", store.parent / ("0" * 63)]
        for extra in temporaries + other:
            extra.write_bytes(good[:100])
        result = invoke("analyze-subspace", "--config", path)
        assert result.exit_code == 0, result.output
        assert not stale.exists()
        assert not any(t.exists() for t in temporaries)
        assert all(o.exists() for o in other)  # not named as a store is
        assert store.read_bytes() == good
        assert (tmp_path / "out" / "subspace.json").read_bytes() == subspace

    def test_every_configured_language_keeps_its_store(self, tmp_path):
        path, paths = language_config(tmp_path, SMALL_RUN)
        cfg = json.loads(path.read_text("utf-8"))
        alt = tmp_path / "alt.vec"  # the same rows under another digest
        alt.write_bytes(paths["vectors"].read_bytes() + b"zz_alt" + b" 1.0" * 8 + b"\n")
        cfg["languages"] = ["syn", "alt"]
        cfg["inputs"]["alt"] = {**cfg["inputs"]["syn"], "vectors": str(alt)}
        path.write_text(json.dumps(cfg), encoding="utf-8")
        result = invoke("analyze-global", "--config", path)
        assert result.exit_code == 0, result.output
        stores = sorted(p.name for p in (tmp_path / "out" / "vectors").iterdir())
        config = pipeline.RunConfig.from_file(path)
        assert stores == sorted(pipeline.input_digests(config, ("vectors",)).values())

    def test_store_that_lists_a_token_twice_is_ignored_and_rewritten(
            self, tmp_path, caplog):
        # one scan writes each token of a store once, so a token listed
        # twice is damage
        path, paths = self.odd_language(tmp_path)
        out = tmp_path / "out"
        for command in ("analyze-global", "analyze-subspace", "interpret"):
            result = invoke(command, "--config", path)
            assert result.exit_code == 0, result.output
        payloads = {name: (out / name).read_bytes()
                    for name in ("subspace.json", "syn/poles.json")}
        store = self.store(tmp_path, paths)
        header, body = store.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        width = 8 * header["dim"]
        assert len(body) == len(header["tokens"]) * width > 2 * width
        # the last row's token in place of the first's: the row count still
        # fits the bytes
        header["tokens"][0] = header["tokens"][-1]
        store.write_bytes(json.dumps(header).encode() + b"\n" + body)

        caplog.clear()
        result = invoke("analyze-subspace", "--config", path)
        assert result.exit_code == 0, result.output
        assert (f"{store}: store ignored (ValueError: a token listed twice)"
                in caplog.text)
        vocabulary = [lx.word for lx in load_lexicon(paths["lexicon"])]
        fresh, fresh_missing = load_semantic_embeddings(paths["vectors"], vocabulary)
        header, body = store.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        assert header["tokens"] == list(fresh.ids)
        assert header["absent"] == fresh_missing == ["zz_absent"]
        assert body == fresh.vectors.astype("<f8").tobytes()

        caplog.clear()
        result = invoke("interpret", "--config", path)
        assert result.exit_code == 0, result.output
        assert "store ignored" not in caplog.text
        for name, payload in payloads.items():
            assert (out / name).read_bytes() == payload, name

    def test_store_with_line_numbers_serves_a_warm_read(self, tmp_path,
                                                        monkeypatch):
        # a store written while its header held each row's line number has
        # its rows in file order, so it is read as it is
        path, paths = self.odd_language(tmp_path)
        result = invoke("analyze-subspace", "--config", path)
        assert result.exit_code == 0, result.output
        store = self.store(tmp_path, paths)
        header, body = store.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        text = paths["vectors"].read_text("utf-8").split("\n")
        first = {}  # token -> the number of its first line
        for lineno, line in enumerate(text[1:], start=2):
            first.setdefault(unicodedata.normalize("NFC", line.split(" ")[0]), lineno)
        header = {"digest": header["digest"], "dim": header["dim"],
                  "tokens": header["tokens"],
                  "lines": [first[token] for token in header["tokens"]],
                  "absent": header["absent"]}
        store.write_bytes(json.dumps(header).encode() + b"\n" + body)

        vocabulary = [lx.word for lx in load_lexicon(paths["lexicon"])]
        fresh, fresh_missing = load_semantic_embeddings(paths["vectors"], vocabulary)
        config = pipeline.RunConfig.from_file(path)
        digests = pipeline.input_digests(config, ("vectors",))

        def refuse(*args, **kwargs):
            raise AssertionError("text parsed for rows the store holds")
        monkeypatch.setattr("phonosem.pipeline.load_semantic_embeddings", refuse)
        for words in (set(vocabulary), set(vocabulary[::3])):
            rows, missing = pipeline.load_vectors(config, "syn", digests, words)
            expected = fresh.subset([i for i, token in enumerate(fresh.ids)
                                     if token in words])
            assert rows.ids == expected.ids
            assert rows.vectors.tobytes() == expected.vectors.tobytes()
            assert missing == sorted(words.intersection(fresh_missing))

    def test_nothing_matched_names_the_file(self, tmp_path, monkeypatch):
        path, paths = language_config(tmp_path, SMALL_RUN)
        config = pipeline.RunConfig.from_file(path)
        digests = pipeline.input_digests(config, ("vectors",))
        store = self.store(tmp_path, paths)
        error = f"{re.escape(str(paths['vectors']))}: no vocabulary items matched"
        # after a scan of the text, which adds nothing to the store
        with pytest.raises(InputError, match=error):
            pipeline.load_vectors(config, "syn", digests, ["zz_q", "zz_r"])
        assert not store.exists()
        rows, missing = pipeline.load_vectors(config, "syn", digests,
                                              ["zz_q", "zz_r"], allow_none=True)
        assert rows.ids == () and rows.n_items == 0
        assert missing == ["zz_q", "zz_r"]
        assert store.exists()

        # on a read of the store alone
        def refuse(*args, **kwargs):
            raise AssertionError("text parsed for items the store holds")
        monkeypatch.setattr("phonosem.pipeline.load_semantic_embeddings", refuse)
        with pytest.raises(InputError, match=error):
            pipeline.load_vectors(config, "syn", digests, ["zz_q"])
        rows, missing = pipeline.load_vectors(config, "syn", digests, ["zz_q"],
                                              allow_none=True)
        assert rows.n_items == 0 and missing == ["zz_q"]

    @pytest.mark.parametrize("value,error", [
        ("abc", "{path}:{line}: non-numeric vector value"),
        ("nan", "{path}: non-finite vector value for 'zz_rare'")])
    def test_bad_value_read_only_by_a_later_command_fails_that_command(
            self, tmp_path, value, error):
        path, paths = scaled_language_config(
            tmp_path, {**SMALL_RUN, "shuffles": 40, "null_points": 40})
        with paths["lexicon"].open("a", encoding="utf-8") as fh:
            fh.write("zz_rare\tzz_rare\t1.0\tpata\n")
        with paths["vectors"].open("a", encoding="utf-8") as fh:
            fh.write("zz_rare" + " 1.0" * 7 + f" {value}\n")
        line = len(paths["vectors"].read_text("utf-8").splitlines())
        for command in ("analyze-global", "interpret"):
            result = invoke(command, "--config", path)
            assert result.exit_code == 0, result.output
        store = self.store(tmp_path, paths)
        stored = store.read_bytes()
        for _ in range(2):
            result = invoke("analyze-subspace", "--config", path)
            assert result.exit_code == 1
            assert ("input error: " + error.format(path=paths["vectors"], line=line)
                    in result.output)
            # a failed read adds nothing to the store
            assert store.read_bytes() == stored

    def test_each_command_hashes_each_input_once(self, tmp_path, monkeypatch):
        path, paths = scaled_language_config(
            tmp_path, {**SMALL_RUN, "shuffles": 40, "null_points": 40})
        digest = pipeline._file_digest
        hashed = Counter()

        def counting(path):
            hashed[Path(path)] += 1
            return digest(path)
        monkeypatch.setattr(pipeline, "_file_digest", counting)
        read = {"analyze-global": ("feature_table", "lexicon", "vectors",
                                   "segmentations"),
                "analyze-subspace": ("feature_table", "lexicon", "vectors",
                                     "scales"),
                "interpret": ("feature_table", "lexicon", "vectors",
                              "segmentations")}
        for command, roles in read.items():
            hashed.clear()
            result = invoke(command, "--config", path)
            assert result.exit_code == 0, result.output
            assert hashed == Counter(paths[role] for role in roles), command
        poles = json.loads((tmp_path / "out" / "syn" / "poles.json").read_text("utf-8"))
        assert poles["components"]

    def test_each_read_logs_where_its_rows_came_from(self, tmp_path, caplog):
        path, paths = self.odd_language(tmp_path)
        n_forms = len(read_segmentation_cache(paths["segmentations"]))
        n_words = len(load_lexicon(paths["lexicon"]))
        expected = {
            "analyze-global": f"0 rows from the store, {n_forms} parsed from "
                              "the text, 0 missing; text file opened",
            "analyze-subspace": f"{n_forms} rows from the store, 3 parsed from "
                                "the text, 1 missing; text file opened",
            "interpret": "from the store, 0 parsed from the text, 1 missing; "
                         "text file not opened"}
        for command, message in expected.items():
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="phonosem.pipeline"):
                result = invoke(command, "--config", path)
            assert result.exit_code == 0, result.output
            reads = [r.getMessage() for r in caplog.records
                     if r.getMessage().startswith(f"{paths['vectors']}: ")]
            assert len(reads) == 1 and message in reads[0], (command, reads)
        assert n_words == n_forms + 4

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o002], ids=oct)
    def test_store_has_the_mode_of_a_plain_file(self, tmp_path, umask):
        path, paths = language_config(tmp_path, SMALL_RUN)
        config = pipeline.RunConfig.from_file(path)
        digests = pipeline.input_digests(config, ("vectors",))
        store = self.store(tmp_path, paths)
        words = [lx.word for lx in load_lexicon(paths["lexicon"])]
        before = os.umask(umask)
        try:
            pipeline.load_vectors(config, "syn", digests, words)
            with open(store.parent / "plain.txt", "w", encoding="utf-8"):
                pass
        finally:
            os.umask(before)
        assert (store.stat().st_mode
                == (store.parent / "plain.txt").stat().st_mode)

    @staticmethod
    def many_rows_store(tmp_path, n_rows, dim=4):
        """A config over a vectors file of ``n_rows`` random rows of
        dimension ``dim``, with its store filled with every row; with the
        words."""
        path, paths = language_config(tmp_path, SMALL_RUN)
        words = [f"v{i:05d}" for i in range(n_rows)]
        vectors = tmp_path / "many.vec"
        rng = np.random.default_rng(n_rows)
        vectors.write_text("".join(
            w + "".join(f" {x!r}" for x in row) + "\n"
            for w, row in zip(words, rng.normal(size=(n_rows, dim)).tolist())),
            encoding="utf-8")
        cfg = json.loads(path.read_text("utf-8"))
        cfg["inputs"]["syn"]["vectors"] = str(vectors)
        path.write_text(json.dumps(cfg), encoding="utf-8")
        config = pipeline.RunConfig.from_file(path)
        digests = pipeline.input_digests(config, ("vectors",))
        pipeline.load_vectors(config, "syn", digests, words)
        return config, digests, vectors, words

    def test_warm_read_allocates_only_the_wanted_rows(self, tmp_path,
                                                      monkeypatch):
        n_rows, dim = 3000, 300
        config, digests, vectors, words = self.many_rows_store(tmp_path, n_rows,
                                                               dim)
        store = tmp_path / "out" / "vectors" / digests[str(vectors)]
        stored = store.read_bytes()
        wanted = words[7::250]
        fresh, _ = load_semantic_embeddings(vectors, wanted)

        def refuse(*args, **kwargs):
            raise AssertionError("text parsed for rows the store holds")
        monkeypatch.setattr(pipeline, "load_semantic_embeddings", refuse)
        tracemalloc.start()
        try:
            rows, missing = pipeline.load_vectors(config, "syn", digests, wanted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.ids == fresh.ids and missing == []
        assert rows.vectors.tobytes() == fresh.vectors.tobytes()
        assert store.read_bytes() == stored
        # the wanted rows, plus the parsed header (each stored row's token)
        # under 256 bytes a stored row: a tenth of a row
        # at d = 300, where reading the whole body takes 2,400 bytes a row
        assert peak <= 8 * dim * len(wanted) + 256 * n_rows

    @pytest.mark.parametrize("seed", range(8))
    def test_read_rows_equals_a_gather(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        dim = [1, 4, 100, 300][seed % 4]
        n = int(rng.integers(1, 200_000 // dim))
        body = rng.normal(size=(n, dim))
        tokens = tuple(f"w{i}" for i in range(n))
        store, digest = tmp_path / "store", "0" * 64
        pipeline._write_store(store, digest, EmbeddingMatrix(ids=tokens, vectors=body),
                              frozenset({"zz"}))
        # stretches of 50 rows that want a few, most or all of their rows
        share = np.repeat(rng.choice([0.02, 0.7, 1.0], size=n // 50 + 1), 50)[:n]
        for take in (np.arange(0), np.arange(n),
                     np.flatnonzero(rng.random(n) < 0.02),
                     np.flatnonzero(rng.random(n) < share)):
            wanted = {tokens[i] for i in take.tolist()} | {"zz"}
            rows, absent = pipeline._read_store(store, digest, wanted)
            assert type(rows.vectors) is np.ndarray and absent == {"zz"}
            assert rows.ids == tuple(tokens[i] for i in take.tolist())
            assert rows.vectors.tobytes() == body[take].tobytes()

    @pytest.mark.skipif(not Path("/proc/self/maps").exists(),
                        reason="no /proc/self/maps")
    def test_no_map_of_the_store_outlives_a_read(self, tmp_path, monkeypatch):
        config, digests, vectors, words = self.many_rows_store(tmp_path, 12_000)
        store = tmp_path / "out" / "vectors" / digests[str(vectors)]
        stored = store.read_bytes()

        def mapped():
            return str(store.resolve()) in Path("/proc/self/maps").read_text()
        seen = []  # whether each map shows while it is in place
        memmap = np.memmap

        def spy(*args, **kwargs):
            body = memmap(*args, **kwargs)
            seen.append(mapped())
            return body
        monkeypatch.setattr(np, "memmap", spy)
        # two of every three rows, one row apart, but for a 1,000-row gap;
        # then the same with a word to parse, which reads every stored row
        wanted = [w for i, w in enumerate(words) if i % 3 and not 1000 <= i < 2000]
        fresh, _ = load_semantic_embeddings(vectors, wanted)
        rows, missing = pipeline.load_vectors(config, "syn", digests, wanted)
        assert seen == [True] and not mapped()
        assert rows.ids == fresh.ids and missing == []
        assert rows.vectors.tobytes() == fresh.vectors.tobytes()
        assert store.read_bytes() == stored
        pipeline.load_vectors(config, "syn", digests, wanted + ["zz_q"])
        assert seen == [True, True] and not mapped()

    def test_scattered_read_of_a_store_cut_short_is_rewritten(self, tmp_path,
                                                              caplog):
        config, digests, vectors, words = self.many_rows_store(tmp_path, 1500)
        store = tmp_path / "out" / "vectors" / digests[str(vectors)]
        stored = store.read_bytes()
        wanted = [w for i, w in enumerate(words[:-3]) if i % 3]
        store.write_bytes(stored[:-40])  # every wanted row is whole
        caplog.clear()
        rows, _ = pipeline.load_vectors(config, "syn", digests, wanted)
        assert f"{store}: store ignored (ValueError: " in caplog.text
        fresh, _ = load_semantic_embeddings(vectors, wanted)
        assert rows.ids == fresh.ids
        assert rows.vectors.tobytes() == fresh.vectors.tobytes()
        header = json.loads(store.read_bytes().split(b"\n", 1)[0])
        assert header["tokens"] == list(fresh.ids)


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

    @pytest.mark.parametrize("payload,command", [
        ("syn/global.json", "analyze-global"), ("subspace.json", "analyze-subspace"),
        ("syn/poles.json", "interpret")])
    def test_payload_of_another_config_is_exit_one(self, workspace, tmp_path,
                                                   payload, command):
        _, _, config = workspace
        out = tmp_path / "out"
        path = out / payload
        path.parent.mkdir(parents=True)
        # every key any of the three renders reads
        path.write_text(json.dumps({
            "config_hash": "0" * 16, "language": "syn", "n_morphemes": 3,
            "results": {}, "cells": [], "components": []}), encoding="utf-8")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**config, "output_dir": str(out)}),
                            encoding="utf-8")
        config_hash = pipeline.RunConfig.from_file(cfg_path).config_hash()
        result = invoke("report", "--config", cfg_path)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert (f"input error: {path}: written with config hash {'0' * 16}, but "
                f"this config's hash is {config_hash}; run {command} again"
                in result.output)
        assert not list(out.rglob("*.md"))

    def test_stale_payload_leaves_every_markdown_file_as_it_was(
            self, workspace, tmp_path):
        path, lang_dir = TestAnalyze.global_results(workspace, tmp_path)
        for command in ("analyze-subspace", "interpret"):
            result = invoke(command, "--config", path)
            assert result.exit_code == 0, result.output
        out = tmp_path / "out"
        mds = sorted(out.rglob("*.md"))
        assert [md.relative_to(out).as_posix() for md in mds] == [
            "global.md", "subspace.md", "syn/poles.md"]
        # what the commands wrote is what report writes from their payloads
        written = [md.read_bytes() for md in mds]
        result = invoke("report", "--config", path)
        assert result.exit_code == 0, result.output
        assert result.output == "".join(f"rendered {md}\n" for md in mds)
        assert [md.read_bytes() for md in mds] == written

        poles_path = lang_dir / "poles.json"
        poles = json.loads(poles_path.read_text("utf-8"))
        poles["config_hash"] = "0" * 16
        poles_path.write_text(json.dumps(poles), encoding="utf-8")
        for md in mds:
            md.write_text(f"an earlier render of {md.name}\n", encoding="utf-8")
        result = invoke("report", "--config", path)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert (f"input error: {poles_path}: written with config hash {'0' * 16}"
                in result.output)
        assert [md.read_text("utf-8") for md in mds] == [
            f"an earlier render of {md.name}\n" for md in mds]

    def test_report_renders_the_typed_interpretations(self, workspace, tmp_path):
        path, lang_dir = TestAnalyze.global_results(workspace, tmp_path)
        assert invoke("interpret", "--config", path).exit_code == 0
        poles_path = lang_dir / "poles.json"
        poles = json.loads(poles_path.read_text("utf-8"))
        poles["components"][0].update(interpretation_semantic="size",
                                      interpretation_phonetic="sonority")
        poles_path.write_text(json.dumps(poles), encoding="utf-8")
        assert invoke("report", "--config", path).exit_code == 0
        row = (lang_dir / "poles.md").read_text("utf-8").splitlines()[4]
        assert row.startswith("| 1 | ") and row.endswith(" | size | sonority |")

    def test_markdown_bytes(self):
        stat = lambda value, stars: {"value": value, "stars": stars}  # noqa: E731
        assert pipeline.render_global_grid([
            {"language": "en", "n_morphemes": 412,
             "results": {"rsa": stat(0.1234, "**"), "knn": stat(0.0101, ""),
                         "cca": [stat(0.8765, "***"), stat(0.2, "")]}},
            {"language": "fi", "n_morphemes": 37,
             "results": {"mi": stat(0.05, "*"), "cca": [stat(-0.0004, "")]}},
            {"language": "tr", "n_morphemes": 3, "results": {}}]) == (
            "| Language | n morphemes | RSA (rho) | MI (bits) | kNN overlap "
            "| CCA CV1 (rho) | CCA CV2 (rho) |\n"
            "|---|---|---|---|---|---|---|\n"
            "| en | 412 | 0.123** | - | 0.010 | 0.876*** | 0.200 |\n"
            "| fi | 37 | - | 0.050* | - | -0.000 | - |\n"
            "| tr | 3 | - | - | - | - | - |\n"
            "\n"
            "Significance: * p < 0.05, ** p < 0.01, *** p < 0.001.\n")
        assert pipeline.render_global_grid([]) == (
            "| Language | n morphemes | RSA (rho) | MI (bits) | kNN overlap |\n"
            "|---|---|---|---|---|\n"
            "\n"
            "Significance: * p < 0.05, ** p < 0.01, *** p < 0.001.\n")
        assert pipeline.render_subspace_grid({"cells": [
            {"language": "fi", "scale": "voicing", "rho": -0.0625, "stars": ""},
            {"language": "en", "scale": "sonority", "rho": 0.31, "stars": "***"},
            {"language": "en", "scale": "voicing", "rho": 0.0004999, "stars": "*"},
        ]}) == (
            "| Language | sonority | voicing |\n"
            "|---|---|---|\n"
            "| en | 0.310*** | 0.000* |\n"
            "| fi | - | -0.062 |\n"
            "\n"
            "Significance: * p < 0.05, ** p < 0.01, *** p < 0.001.\n")

        def items(*names):
            return [{"item": name, "score": 0.0} for name in names]
        assert pipeline.render_pole_tables({"language": "en", "components": [
            {"component": 1, "semantic_pos": items("big", "large"),
             "semantic_neg": items("small"), "phonetic_pos": items("a"),
             "phonetic_neg": items("i", "e"), "interpretation_semantic": "size",
             "interpretation_phonetic": "openness"},
            {"component": 3, "semantic_pos": [], "semantic_neg": items("x"),
             "phonetic_pos": items("m"), "phonetic_neg": [],
             "interpretation_semantic": "", "interpretation_phonetic": ""}]}) == (
            "# Canonical variate poles: en\n"
            "\n"
            "| CV | Semantic Pole (+) | Phonetic Pole (+) | Semantic Pole (-) "
            "| Phonetic Pole (-) | Semantic Interpretation "
            "| Phonetic Interpretation |\n"
            "|---|---|---|---|---|---|---|\n"
            "| 1 | big, large | a | small | i, e | size | openness |\n"
            "| 3 |  | m | x |  |  |  |\n")
        assert pipeline.render_pole_tables({"language": "fi", "components": []}) == (
            "# Canonical variate poles: fi\n"
            "\n"
            "No significant canonical variates.\n")

    def test_rerender_from_json(self, workspace):
        ws, config_path, _ = workspace
        out = ws / "results"
        # test_subspace_writes_grid's subspace.json is another config's
        result = invoke("analyze-subspace", "--config", config_path)
        assert result.exit_code == 0, result.output
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


def test_every_imported_name_is_used():
    for path in sorted(Path(phonosem.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not imported - used, (path.name, sorted(imported - used))


def test_every_library_function_has_a_caller():
    """Each top-level function and class of ``src/phonosem`` is named
    elsewhere in the package, is a command of ``main`` or is imported in
    a README python block: library code that only tests call goes."""
    package = Path(phonosem.__file__).parent
    trees = [ast.parse(path.read_text("utf-8"))
             for path in sorted(package.glob("*.py"))]
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    commands = {command.callback.__name__ for command in main.commands.values()}
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    shown = {alias.name
             for block in re.findall(r"```python\n(.*?)```", readme, re.S)
             for node in ast.walk(ast.parse(block))
             if isinstance(node, ast.ImportFrom)
             and (node.module or "").startswith("phonosem")
             for alias in node.names}
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined - named - commands - shown, sorted(
        defined - named - commands - shown)


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


def test_readme_imports_exist():
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    imports = [node for block in blocks for node in ast.walk(ast.parse(block))
               if isinstance(node, ast.ImportFrom)
               and node.module.split(".")[0] == "phonosem"]
    assert len(imports) > 5
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), (node.module, alias.name)
