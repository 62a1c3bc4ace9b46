"""Prompt assembly, response parsing, filtering, sampling, and the
provider boundary."""

import json
import math
import re
import time
from importlib import resources

import numpy as np
import pytest
import requests
from click.testing import CliRunner

from phonosem import segmentation
from phonosem.cli import main
from phonosem.corpus import MorphemeSet
from phonosem.errors import InputError, ParseError, ProviderError
from phonosem.segmentation import (LANGUAGE_NAMES, HttpProvider, ProviderResponse,
                                   ReplayProvider, Segmentation, build_prompt,
                                   dedupe_into_morpheme_set,
                                   error_rate_ci,
                                   load_example_set, parse_response,
                                   perplexity_filter, read_segmentation_cache,
                                   response_perplexity,
                                   sample_for_verification, segment_words,
                                   write_verification_sheet)


class TestBuildPrompt:
    def test_english_prompt_contains_examples(self):
        system, user = build_prompt("en", [("run", "rʌn")])
        assert "input: run,rʌn" in system
        assert "(run,rʌn)" in system
        assert "English" in system
        assert user == "input: run,rʌn"

    def test_unsupported_language(self):
        with pytest.raises(InputError, match="language"):
            build_prompt("xx", [("a", "a")])

    def test_empty_batch(self):
        with pytest.raises(InputError, match="empty"):
            build_prompt("en", [])

    @pytest.mark.parametrize("lang", sorted(LANGUAGE_NAMES))
    def test_system_prompt_is_the_template_around_the_examples(self, lang):
        template = resources.files("phonosem.data.prompts").joinpath(
            "system.txt").read_text("utf-8")
        expected = template.format(lang=LANGUAGE_NAMES[lang], examples="\n\n".join(
            f"input: {ex['input']}\n{ex['output']}" for ex in load_example_set(lang)))
        system, _ = build_prompt(lang, [("a", "a")])
        assert system == expected

    def test_all_languages_have_examples(self):
        for lang in ("en", "es", "hi", "fi", "tr", "ta"):
            examples = load_example_set(lang)
            assert len(examples) >= 10
            for ex in examples:
                assert parse_response(ex["output"])


class TestParseResponse:
    def test_three_pairs(self):
        assert parse_response("(de,di:),(con,kən),(struct,strʌkt)") == [
            ("de", "di:"), ("con", "kən"), ("struct", "strʌkt")]

    def test_single_pair(self):
        assert parse_response("(run,rʌn)") == [("run", "rʌn")]

    def test_unbalanced(self):
        with pytest.raises(ParseError, match="unbalanced"):
            parse_response("(de,di:")

    def test_stray_text(self):
        with pytest.raises(ParseError, match="unexpected"):
            parse_response("sure! (run,rʌn)")

    def test_missing_comma(self):
        with pytest.raises(ParseError, match="comma"):
            parse_response("(run)")

    def test_fully_empty_pair(self):
        with pytest.raises(ParseError, match="empty"):
            parse_response("(,)")

    def test_single_empty_side_preserved(self):
        assert parse_response("(,ṭṭ)") == [("", "ṭṭ")]

    def test_whitespace_and_wraps_tolerated(self):
        text = "(a,b), (c,d),\n(e,f)"
        assert parse_response(text) == [("a", "b"), ("c", "d"), ("e", "f")]

    def test_round_trip(self):
        pairs = [("un", "ʌn"), ("happi", "hæpi"), ("ness", "nəs")]
        assert parse_response("(un,ʌn),(happi,hæpi),(ness,nəs)") == pairs


class TestPerplexity:
    def test_formula(self):
        assert response_perplexity("w", [-0.5, -1.5]) == pytest.approx(math.e)

    def test_empty_rejected(self):
        with pytest.raises(ProviderError, match="'w' lacks log-probabilities"):
            response_perplexity("w", [])

    def test_perplexity_that_overflows_a_float_rejected(self):
        assert math.isfinite(response_perplexity("w", [-709.0]))
        with pytest.raises(ProviderError, match="'w' has a perplexity that "
                                                "overflows a float"):
            response_perplexity("w", [-1000.0])

    def make(self, word, perplexity):
        return Segmentation(word=word, ipa="a", pairs=(("a", "a"),),
                            perplexity=perplexity)

    def test_strict_boundary(self):
        segs = [self.make("a", 1.1), self.make("b", 1.4), self.make("c", 1.5)]
        kept, dropped = perplexity_filter(segs)
        assert [s.word for s in kept] == ["a", "b"]
        assert [s.word for s in dropped] == ["c"]

    def test_nothing_dropped(self):
        segs = [self.make("a", 1.0), self.make("b", 1.2)]
        kept, dropped = perplexity_filter(segs)
        assert len(kept) == 2 and dropped == []

    def test_partition_property(self):
        rng = np.random.default_rng(70)
        segs = [self.make(f"w{i}", float(p))
                for i, p in enumerate(rng.uniform(1.0, 2.0, size=30))]
        kept, dropped = perplexity_filter(segs)
        assert sorted(s.word for s in kept + dropped) == \
            sorted(s.word for s in segs)
        assert not {s.word for s in kept} & {s.word for s in dropped}

    @staticmethod
    def cache(path, **second):
        """A cache whose second record is ``second`` over a complete one."""
        record = {"word": "a", "ipa": "a", "pairs": [["a", "a"]],
                  "perplexity": 1.0}
        path.write_text(json.dumps(record) + "\n" + json.dumps(
            {k: v for k, v in {**record, **second}.items() if v != "drop"})
            + "\n", encoding="utf-8")
        return path

    def test_missing_perplexity_rejected(self, tmp_path):
        cache = self.cache(tmp_path / "c.jsonl", perplexity="drop")
        with pytest.raises(ParseError,
                           match=re.escape(f"{cache}:2: missing key 'perplexity'")):
            read_segmentation_cache(cache)

    @pytest.mark.parametrize("value,message", [
        (None, "perplexity None is not a number"),
        (float("nan"), "perplexity nan is not finite"),
        (float("inf"), "perplexity inf is not finite")],
        ids=["null", "nan", "inf"])
    def test_perplexity_that_is_no_finite_number_rejected(self, tmp_path,
                                                         value, message):
        cache = self.cache(tmp_path / "c.jsonl", perplexity=value)
        with pytest.raises(ParseError, match=re.escape(f"{cache}:2: {message}")):
            read_segmentation_cache(cache)


class TestDedupe:
    def seg(self, word, pairs):
        return Segmentation(word=word, ipa="", pairs=tuple(pairs),
                            perplexity=1.0)

    def test_shared_morpheme_sources(self):
        segs = [
            self.seg("connection", [("con", "kən"), ("nect", "nɛkt"), ("ion", "ʃən")]),
            self.seg("construction", [("con", "kən"), ("struct", "strʌkt"), ("ion", "ʃən")]),
        ]
        mset = dedupe_into_morpheme_set(segs)
        assert len(mset) == 4
        by_key = {m.key(): m for m in mset}
        assert by_key[("con", "kən")].sources == {"connection", "construction"}

    def test_single_word(self):
        mset = dedupe_into_morpheme_set(
            [self.seg("run", [("run", "rʌn")])])
        assert [(m.form, m.transcription) for m in mset] == [("run", "rʌn")]

    def test_same_form_distinct_transcription(self):
        mset = dedupe_into_morpheme_set(
            [self.seg("a", [("re", "ri"), ("re", "rə")])])
        assert len(mset) == 2

    def test_empty_transcription_skipped(self):
        mset = dedupe_into_morpheme_set(
            [self.seg("a", [("x", ""), ("y", "j")])])
        assert len(mset) == 1

    def test_order_insensitive(self):
        segs = [self.seg("a", [("x", "x")]), self.seg("b", [("y", "y")])]
        assert dedupe_into_morpheme_set(segs) == \
            dedupe_into_morpheme_set(segs[::-1])


class TestVerificationSampling:
    def make_set(self, n):
        from phonosem.corpus import Morpheme
        return MorphemeSet(tuple(
            Morpheme(f"m{i}", f"t{i}", frozenset({f"w{i}"}))
            for i in range(n)))

    def test_small_set_flagged(self, caplog):
        with caplog.at_level("WARNING", logger="phonosem.segmentation"):
            sample = sample_for_verification(self.make_set(100), n=150, seed=0)
        assert len(sample) == 100
        assert "only 100 morphemes available for n=150" in caplog.text

    def test_same_seed_identical(self):
        mset = self.make_set(300)
        a = sample_for_verification(mset, n=150, seed=9)
        b = sample_for_verification(mset, n=150, seed=9)
        assert a == b

    def test_different_seeds_differ(self):
        mset = self.make_set(2000)
        a = sample_for_verification(mset, n=150, seed=1)
        b = sample_for_verification(mset, n=150, seed=2)
        assert a != b

    def test_sheet_format(self, tmp_path):
        sample = sample_for_verification(self.make_set(5), n=3, seed=0)
        path = tmp_path / "sheet.tsv"
        write_verification_sheet(sample, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "morpheme\ttranscription\texample_source\tverdict"
        assert all(line.endswith("\t") for line in lines[1:])


class TestErrorRateCi:
    @pytest.mark.parametrize("errors,rate,half", [
        (3, 2.0, 2.24), (1, 0.67, 1.3), (0, 0.0, 0.0),
        (7, 4.67, 3.38), (6, 4.0, 3.14),
    ])
    def test_reference_rows(self, errors, rate, half):
        r, hw = error_rate_ci(errors, 150)
        assert round(r * 100, 2) == rate
        assert round(hw * 100, 2) == half

    def test_bounds_checked(self):
        with pytest.raises(InputError):
            error_rate_ci(5, 0)
        with pytest.raises(InputError):
            error_rate_ci(-1, 10)
        with pytest.raises(InputError):
            error_rate_ci(11, 10)


class TestProviders:
    def write_replay(self, path, records):
        with path.open("w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, ensure_ascii=False) + "\n")

    def test_replay_round_trip(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        self.write_replay(path, [
            {"user": "input: run,rʌn", "text": "(run,rʌn)", "logprobs": [-0.1]},
        ])
        provider = ReplayProvider(path)
        resp = provider.complete("sys", "input: run,rʌn")
        assert resp.text == "(run,rʌn)"
        assert resp.logprobs == (-0.1,)

    @pytest.mark.parametrize("record,message", [
        ({"text": 5, "logprobs": [-0.1]}, "text 5 is not a string"),
        ({"text": "(a,a)", "logprobs": ["a", "b"]},
         "log-probability 'a' is not a number"),
        ({"text": "(a,a)", "logprobs": [True]}, "log-probability True is not a number"),
        ({"text": "(a,a)", "logprobs": [-0.1, float("nan")]},
         "log-probability nan is not finite"),
        ({"text": "(a,a)", "logprobs": [-0.1, 0.5]},
         "log-probability 0.5 is above 0"),
        ({"text": "(a,a)", "logprobs": -0.1}, "logprobs -0.1 is not a list")],
        ids=["text-int", "logprob-str", "logprob-bool", "logprob-nan",
             "logprob-positive", "logprobs-number"])
    def test_replay_record_with_a_malformed_response_raises(self, tmp_path,
                                                            record, message):
        path = tmp_path / "replay.jsonl"
        self.write_replay(path, [{"user": "input: b,b", "text": "(b,b)"},
                                 {"user": "input: a,a", **record}])
        with pytest.raises(ParseError, match=re.escape(f"{path}:2: {message}")):
            ReplayProvider(path)

    def test_replay_response_without_logprobs_has_none(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        self.write_replay(path, [{"user": "a", "text": "(a,a)"},
                                 {"user": "b", "text": "(b,b)", "logprobs": None}])
        provider = ReplayProvider(path)
        assert [provider.complete("sys", u).logprobs for u in "ab"] == [(), ()]

    def test_replay_missing_request(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        self.write_replay(path, [])
        with pytest.raises(ProviderError):
            ReplayProvider(path).complete("sys", "unknown")

    def test_segment_words_pipeline(self, tmp_path):
        replay = tmp_path / "replay.jsonl"
        self.write_replay(replay, [
            {"user": "input: run,rʌn", "text": "(run,rʌn)", "logprobs": [-0.1]},
            {"user": "input: redo,ri:du:", "text": "(re,ri:),(do,du:)",
             "logprobs": [-0.2]},
            {"user": "input: odd,ɒd", "text": "(odd,ɒd)", "logprobs": [-2.0]},
        ])
        cache = tmp_path / "cache.jsonl"
        words = [("run", "run", "rʌn"), ("redo", "redo", "ri:du:"),
                 ("odd", "odd", "ɒd")]
        segs = segment_words(words, "en", ReplayProvider(replay), cache)
        # exp(2.0) > 1.4, so "odd" is filtered
        assert [s.word for s in segs] == ["run", "redo"]
        assert segs[1].pairs == (("re", "ri:"), ("do", "du:"))
        # cache retains all three and is honored on re-run
        assert len(read_segmentation_cache(cache)) == 3
        again = segment_words(words, "en", _FailingProvider(), cache)
        assert [s.word for s in again] == ["run", "redo"]

    def test_segment_words_reads_the_prompt_resources_once_per_language(
            self, tmp_path, monkeypatch):
        reads = []

        class CountingResources:
            @staticmethod
            def files(package):
                reads.append(package)
                return resources.files(package)

        monkeypatch.setattr(segmentation, "resources", CountingResources)
        segmentation._system_prompt.cache_clear()
        words = [(f"w{i}", f"w{i}", "pab") for i in range(5)]
        replay = tmp_path / "replay.jsonl"
        self.write_replay(replay, [
            {"user": f"input: {lemma},{ipa}", "text": f"({lemma},{ipa})",
             "logprobs": [-0.1]} for _, lemma, ipa in words])
        for lang in ("en", "fi"):
            segs = segment_words(words, lang, ReplayProvider(replay),
                                 tmp_path / f"{lang}.jsonl")
            assert len(segs) == 5
        # the example set and the template, once for each language
        assert len(reads) == 4

    def test_segment_words_line_count_mismatch(self, tmp_path):
        replay = tmp_path / "replay.jsonl"
        self.write_replay(replay, [
            {"user": "input: run,rʌn", "text": "(run,rʌn)\n(x,x)",
             "logprobs": [-0.1]},
        ])
        with pytest.raises(ProviderError, match="response lines"):
            segment_words([("run", "run", "rʌn")], "en",
                          ReplayProvider(replay), tmp_path / "c.jsonl")

    def test_record_round_trip(self):
        seg = Segmentation(word="a", ipa="ab", pairs=(("a", "ab"),),
                           perplexity=1.25, provider="replay", timestamp=5.0)
        assert Segmentation.from_record(seg.to_record()) == seg


class TestCacheResume:
    """A run killed mid-write leaves a partial last line in the cache."""

    WORDS = [("run", "run", "rʌn"), ("redo", "redo", "ri:du:"),
             ("odd", "odd", "ɒd")]

    @staticmethod
    def line(word, ipa):
        return json.dumps({"word": word, "ipa": ipa, "pairs": [[word, ipa]],
                           "perplexity": 1.0, "provider": "replay",
                           "timestamp": 0.0}, ensure_ascii=False) + "\n"

    def killed_cache(self, path):
        """Two complete records, then the third cut inside a two-byte
        character."""
        partial = self.line("odd", "ɒd").encode("utf-8")
        cut = partial.index("ɒ".encode("utf-8")) + 1
        path.write_bytes((self.line("run", "rʌn") + self.line("redo", "ri:du:"))
                         .encode("utf-8") + partial[:cut])

    def replay(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        path.write_text("".join(
            json.dumps({"user": f"input: {lemma},{ipa}", "text": f"({lemma},{ipa})",
                        "logprobs": [-0.1]}, ensure_ascii=False) + "\n"
            for _, lemma, ipa in self.WORDS), encoding="utf-8")
        return ReplayProvider(path)

    def assert_each_word_once(self, cache):
        text = cache.read_text(encoding="utf-8")
        assert text.endswith("\n")
        words = [json.loads(ln)["word"] for ln in text.splitlines()]
        assert words == [w for w, _, _ in self.WORDS]

    def test_read_drops_partial_last_line(self, tmp_path, caplog):
        cache = tmp_path / "cache.jsonl"
        self.killed_cache(cache)
        with caplog.at_level("WARNING", logger="phonosem.segmentation"):
            segs = read_segmentation_cache(cache)
        assert [s.word for s in segs] == ["run", "redo"]
        assert any("partial last line" in r.getMessage() for r in caplog.records)

    def test_resume_appends_after_cut(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        self.killed_cache(cache)
        segs = segment_words(self.WORDS, "en", self.replay(tmp_path), cache)
        assert [s.word for s in segs] == ["run", "redo", "odd"]
        self.assert_each_word_once(cache)

    def test_resume_after_complete_last_line_without_newline(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(self.line("run", "rʌn") + self.line("redo", "ri:du:")
                         + self.line("odd", "ɒd").rstrip("\n"), encoding="utf-8")
        assert len(read_segmentation_cache(cache)) == 3
        segment_words(self.WORDS, "en", self.replay(tmp_path), cache)
        self.assert_each_word_once(cache)

    def test_complete_last_line_without_newline_is_not_requested_again(
            self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(self.line("run", "rʌn").rstrip("\n"), encoding="utf-8")
        replay = tmp_path / "replay.jsonl"
        replay.write_text("", encoding="utf-8")  # any request fails
        segs = segment_words(self.WORDS[:1], "en", ReplayProvider(replay), cache)
        assert [s.word for s in segs] == ["run"]
        assert cache.read_text(encoding="utf-8") == self.line("run", "rʌn")

    def test_word_cached_with_another_transcription_raises(self, tmp_path):
        # the lexicon changed "run" from /rʌn/ to /ran/ since it was cached
        cache = tmp_path / "cache.jsonl"
        cache.write_text(self.line("run", "rʌn"), encoding="utf-8")
        words = [("odd", "odd", "ɒd"), ("run", "run", "ran")]
        with pytest.raises(InputError, match=re.escape(
                f"{cache}: 'run' is cached with the transcription /rʌn/, "
                "but the lexicon gives /ran/")):
            segment_words(words, "en", self.replay(tmp_path), cache)
        # raised before any request: "odd" is not cached either
        assert cache.read_text(encoding="utf-8") == self.line("run", "rʌn")

    @pytest.mark.parametrize("after", ["odd line", "odd line cut", ""])
    def test_malformed_complete_line_raises(self, tmp_path, after):
        """A malformed line that ends in a newline is an error, whether
        complete or partial lines follow it or none do."""
        rest = {"odd line": self.line("odd", "ɒd"),
                "odd line cut": self.line("odd", "ɒd")[:12], "": ""}[after]
        cache = tmp_path / "cache.jsonl"
        cache.write_text(self.line("run", "rʌn") + '{"word": "re\n' + rest,
                         encoding="utf-8")
        with pytest.raises(ParseError, match=":2:"):
            read_segmentation_cache(cache)


    @pytest.mark.parametrize("record", [
        [1], {"word": 5, "ipa": "a", "pairs": [], "perplexity": 1.0},
        {"word": "a", "ipa": "a", "pairs": 5, "perplexity": 1.0}],
        ids=["list", "word-int", "pairs-int"])
    def test_record_of_the_wrong_shape_raises(self, tmp_path, record):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(self.line("run", "rʌn") + json.dumps(record) + "\n",
                         encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(f"{cache}:2: ")):
            read_segmentation_cache(cache)


class _FakeResponse:
    def __init__(self, status, body=None):
        self.status_code = status
        self._body = body

    def raise_for_status(self):
        if self.status_code >= 400:
            raise requests.HTTPError(f"{self.status_code} error", response=self)

    def json(self):
        return self._body


class TestHttpProvider:
    def serve(self, monkeypatch, outcomes):
        """Answer successive posts with ``outcomes`` (a response or an
        exception to raise); return the post and sleep call logs."""
        posts, sleeps = [], []

        def post(url, json, timeout):
            posts.append(json)
            outcome = outcomes[len(posts) - 1]
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setattr(requests, "post", post)
        monkeypatch.setattr(time, "sleep", sleeps.append)
        return posts, sleeps

    def test_client_error_is_not_retried(self, monkeypatch):
        posts, sleeps = self.serve(monkeypatch, [_FakeResponse(404)])
        with pytest.raises(ProviderError, match="rejected"):
            HttpProvider("http://localhost:1/seg", "m").complete("sys", "user")
        assert len(posts) == 1
        assert sleeps == []

    def test_transient_errors_are_retried(self, monkeypatch):
        posts, sleeps = self.serve(monkeypatch, [
            requests.ConnectionError("refused"), _FakeResponse(503),
            _FakeResponse(200, {"text": "(run,rʌn)", "logprobs": [-0.1]})])
        resp = HttpProvider("http://localhost:1/seg", "m").complete("sys", "user")
        assert resp.text == "(run,rʌn)"
        assert len(posts) == 3
        assert sleeps == [1.0, 2.0]

    @pytest.mark.parametrize("body,message", [
        (["(run,rʌn)"], "provider response is not a JSON object (list)"),
        ("(run,rʌn)", "provider response is not a JSON object (str)"),
        ({"logprobs": [-0.1]}, "provider response: missing key 'text'"),
        ({"text": 5}, "provider response: text 5 is not a string"),
        ({"text": "(run,rʌn)", "logprobs": [float("nan")]},
         "provider response: log-probability nan is not finite"),
        ({"text": "(run,rʌn)", "logprobs": [-0.1, 0.5]},
         "provider response: log-probability 0.5 is above 0")],
        ids=["list", "string", "no-text", "text-int", "logprob-nan",
             "logprob-positive"])
    def test_malformed_body_is_a_provider_error(self, monkeypatch, tmp_path,
                                                body, message):
        posts, _ = self.serve(monkeypatch, [_FakeResponse(200, body)])
        with pytest.raises(ProviderError, match=re.escape(message)):
            HttpProvider("http://localhost:1/seg", "m").complete("sys", "user")
        assert len(posts) == 1

    def test_audit_log_in_a_new_directory(self, monkeypatch, tmp_path):
        self.serve(monkeypatch, [_FakeResponse(200, {"text": "(run,rʌn)"})])
        audit = tmp_path / "new" / "audit.jsonl"
        resp = HttpProvider("http://localhost:1/seg", "m",
                            audit_path=audit).complete("sys", "user")
        assert resp == ProviderResponse(text="(run,rʌn)", logprobs=())
        assert json.loads(audit.read_text("utf-8"))["response"] == {
            "text": "(run,rʌn)"}

    def test_segment_into_new_directories(self, monkeypatch, tmp_path):
        # the first run of a project: neither results/ nor the cache's
        # directory exists yet
        words = [("run", "rʌn"), ("sit", "sɪt"), ("hop", "hɒp")]
        self.serve(monkeypatch, [_FakeResponse(200, {
            "text": f"({w},{ipa})", "logprobs": [-0.1]}) for w, ipa in words])
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_text("word\tlemma\tzipf\tipa\n" + "".join(
            f"{w}\t{w}\t5.0\t{ipa}\n" for w, ipa in words), encoding="utf-8")
        cache = tmp_path / "segs" / "en.jsonl"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "languages": ["en"], "feature_table": str(tmp_path / "features.tsv"),
            "inputs": {"en": {"lexicon": str(lexicon),
                              "vectors": str(tmp_path / "en.vec"),
                              "segmentations": str(cache)}},
            "output_dir": str(tmp_path / "results")}), encoding="utf-8")
        result = CliRunner().invoke(main, [
            "segment", "--config", str(config),
            "--provider-url", "http://localhost:1/seg"])
        assert result.exit_code == 0, result.output
        assert len(read_segmentation_cache(cache)) == 3
        audit = tmp_path / "results" / "provider_audit.jsonl"
        assert len(audit.read_text("utf-8").splitlines()) == 3


class _FailingProvider:
    """Asserts the cache is honored: any network call is a test failure."""

    name = "failing"

    def complete(self, system, user):
        raise AssertionError("provider should not be called for cached words")
