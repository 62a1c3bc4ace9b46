"""Morphological-segmentation plumbing around a pluggable LLM provider.

This module owns everything except the model itself: 10-shot prompt
assembly from the shipped templates, parsing of the structured
morpheme-transcription responses, the perplexity filter, deduplication
into a MorphemeSet, verification sampling, and error-rate confidence
intervals. An HTTP adapter and an offline replay provider implement the
provider boundary.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import sys
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from .corpus import Morpheme, MorphemeSet, _nfc, _open_input
from .errors import InputError, ParseError, ProviderError

log = logging.getLogger(__name__)

PERPLEXITY_THRESHOLD = 1.4
# HttpProvider: attempts per request and seconds per attempt
HTTP_ATTEMPTS = 3
HTTP_TIMEOUT_S = 60.0
# the largest x whose exp a float holds
_MAX_EXP = math.log(sys.float_info.max)

LANGUAGE_NAMES = {
    "en": "English",
    "es": "Spanish",
    "hi": "Hindi",
    "fi": "Finnish",
    "tr": "Turkish",
    "ta": "Tamil",
}


# ---------------------------------------------------------------------------
# Prompt construction

def load_example_set(language: str) -> list[dict]:
    """Shipped few-shot demonstrations for one language."""
    try:
        text = resources.files("phonosem.data.prompts").joinpath(
            f"examples_{language}.json").read_text("utf-8")
    except FileNotFoundError:
        raise InputError(f"no example set configured for language {language!r}") from None
    return json.loads(text)


@functools.lru_cache(maxsize=None)
def _system_prompt(language: str) -> str:
    """A language's system prompt: the shipped template around its
    few-shot examples, built once per language."""
    if language not in LANGUAGE_NAMES:
        raise InputError(f"unsupported language {language!r}")
    examples = "\n\n".join(f"input: {ex['input']}\n{ex['output']}"
                           for ex in load_example_set(language))
    template = resources.files("phonosem.data.prompts").joinpath(
        "system.txt").read_text("utf-8")
    return template.format(lang=LANGUAGE_NAMES[language], examples=examples)


def build_prompt(language: str, batch: Sequence[tuple[str, str]]) -> tuple[str, str]:
    """The (system, user) texts of one request: the language's system
    prompt and an ``input: <lemma>,<ipa>`` line per (lemma, ipa).

    Raises on an unknown language or an empty batch.
    """
    if not batch:
        raise InputError("empty segmentation batch")
    user = "\n".join(f"input: {lemma},{ipa}" for lemma, ipa in batch)
    return _system_prompt(language), user


# ---------------------------------------------------------------------------
# Response parsing

def parse_response(text: str) -> list[tuple[str, str]]:
    """Parse a ``(m1,t1),(m2,t2)`` pair list.

    Pairs may be separated by commas and whitespace (including line
    wraps). Sides are whitespace-trimmed; a single empty side is
    preserved (some example sets mark pure-phonological alternations
    with an empty orthographic side), but a fully empty pair or any
    stray text outside parentheses is an error.
    """
    pairs: list[tuple[str, str]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace() or ch == ",":
            i += 1
            continue
        if ch != "(":
            raise ParseError(f"unexpected character {ch!r} at offset {i}")
        close = text.find(")", i + 1)
        if close == -1:
            raise ParseError(f"unbalanced parenthesis at offset {i}")
        body = text[i + 1:close]
        if "(" in body:
            raise ParseError(f"nested parenthesis at offset {i}")
        if "," not in body:
            raise ParseError(f"pair {body!r} lacks a comma")
        left, right = body.split(",", 1)
        left, right = _nfc(left.strip()), _nfc(right.strip())
        if not left and not right:
            raise ParseError(f"empty pair at offset {i}")
        pairs.append((left, right))
        i = close + 1
    return pairs


# ---------------------------------------------------------------------------
# Provider boundary

@dataclass(frozen=True)
class ProviderResponse:
    """A response text and its per-token log-probabilities, empty where
    the provider sent none. A text that is not a string, or a
    log-probability that is not a finite number at most 0, is a
    ValueError."""

    text: str
    logprobs: tuple[float, ...] = ()

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise ValueError(f"text {self.text!r} is not a string")
        for logprob in self.logprobs:
            if _finite_number(logprob, "log-probability") > 0:
                raise ValueError(f"log-probability {logprob!r} is above 0")

    @classmethod
    def from_body(cls, body: Mapping) -> "ProviderResponse":
        """The response in a ``{"text", "logprobs"?}`` JSON object; a
        ``null`` logprobs is none."""
        logprobs = body.get("logprobs")
        if logprobs is not None and not isinstance(logprobs, list):
            raise ValueError(f"logprobs {logprobs!r} is not a list")
        return cls(text=body["text"], logprobs=tuple(logprobs or ()))


class SegmentationProvider(Protocol):
    name: str

    def complete(self, system: str, user: str) -> ProviderResponse: ...


class HttpProvider:
    """Thin JSON-over-HTTP adapter.

    Request: ``{"model", "system", "user", "structured"}``; response:
    ``{"text", "logprobs"?}``. Transient failures (connection errors,
    timeouts, 5xx responses) are retried with exponential backoff
    (3 attempts); a 4xx response fails at once. All exchanges are
    appended to an audit log when one is configured.
    """

    def __init__(self, url: str, model: str,
                 audit_path: str | Path | None = None):
        self.url = url
        self.model = model
        self.audit_path = Path(audit_path) if audit_path else None
        self.name = f"http:{model}"

    def complete(self, system: str, user: str) -> ProviderResponse:
        import requests

        payload = {"model": self.model, "system": system, "user": user,
                   "structured": True}
        last_exc: Exception | None = None
        for attempt in range(HTTP_ATTEMPTS):
            try:
                resp = requests.post(self.url, json=payload, timeout=HTTP_TIMEOUT_S)
                resp.raise_for_status()
                body = resp.json()
                break
            except requests.HTTPError as exc:
                # a 4xx means the request itself is wrong; a retry repeats it
                if exc.response is not None and exc.response.status_code < 500:
                    raise ProviderError(f"provider rejected the request: {exc}") from None
                last_exc = exc
            except (requests.ConnectionError, requests.Timeout, ValueError) as exc:
                last_exc = exc
            if attempt + 1 < HTTP_ATTEMPTS:
                time.sleep(2.0 ** attempt)
        else:
            raise ProviderError(
                f"provider call failed after {HTTP_ATTEMPTS} attempts: {last_exc}"
            )
        if not isinstance(body, dict):
            raise ProviderError("provider response is not a JSON object "
                                f"({type(body).__name__})")
        try:
            response = ProviderResponse.from_body(body)
        except (KeyError, ValueError) as exc:
            raise ProviderError(f"provider response: {_record_error(exc)}") from None
        if self.audit_path is not None:
            self.audit_path.parent.mkdir(parents=True, exist_ok=True)
            with self.audit_path.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps({"request": payload, "response": body},
                                    ensure_ascii=False) + "\n")
        return response


class ReplayProvider:
    """Serves recorded responses from a JSONL file, keyed by user text.

    Records: ``{"user": ..., "text": ..., "logprobs": [...]}``. The
    default in tests, so the pipeline runs offline. A line that is not
    such a record, or holds a response ProviderResponse refuses, is a
    ParseError naming the file and line.
    """

    def __init__(self, path: str | Path):
        self.name = "replay"
        self._by_user: dict[str, ProviderResponse] = {}
        with _open_input(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    self._by_user[rec["user"]] = ProviderResponse.from_body(rec)
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    raise ParseError(f"{path}:{lineno}: {_record_error(exc)}") from None

    def complete(self, system: str, user: str) -> ProviderResponse:
        try:
            return self._by_user[user]
        except KeyError:
            raise ProviderError(f"no recorded response for request {user!r}") from None


# ---------------------------------------------------------------------------
# Segmentation records and filtering

@dataclass(frozen=True)
class Segmentation:
    word: str
    ipa: str
    pairs: tuple[tuple[str, str], ...]
    perplexity: float
    provider: str = ""
    timestamp: float = 0.0

    def to_record(self) -> dict:
        return {
            "word": self.word,
            "ipa": self.ipa,
            "pairs": [list(p) for p in self.pairs],
            "perplexity": self.perplexity,
            "provider": self.provider,
            "timestamp": self.timestamp,
        }

    @classmethod
    def from_record(cls, rec: Mapping) -> "Segmentation":
        return cls(
            word=_nfc(rec["word"]),
            ipa=_nfc(rec["ipa"]),
            pairs=tuple((_nfc(m), _nfc(t)) for m, t in rec["pairs"]),
            perplexity=_finite_number(rec["perplexity"], "perplexity"),
            provider=rec.get("provider", ""),
            timestamp=rec.get("timestamp", 0.0),
        )


def _finite_number(value, what: str) -> float:
    """``value`` if it is a finite number; a ValueError naming ``what``
    otherwise (a JSON ``true`` is no number)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} {value!r} is not a number")
    if not math.isfinite(value):
        raise ValueError(f"{what} {value!r} is not finite")
    return value


def _record_error(exc: Exception) -> str:
    """What is wrong with a JSON record, from the error reading it."""
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def response_perplexity(word: str, logprobs: Sequence[float]) -> float:
    """exp of the negative mean per-token log-probability of the response
    for ``word``. A response without log-probabilities, or one whose
    perplexity overflows a float, is a ProviderError naming the word."""
    if not logprobs:
        raise ProviderError(f"response for {word!r} lacks log-probabilities")
    neg_mean = -sum(logprobs) / len(logprobs)
    if neg_mean > _MAX_EXP:
        raise ProviderError(f"response for {word!r} has a perplexity that "
                            f"overflows a float (mean log-probability "
                            f"{-neg_mean!r})")
    return math.exp(neg_mean)


def perplexity_filter(
    segmentations: Iterable[Segmentation],
    threshold: float = PERPLEXITY_THRESHOLD,
) -> tuple[list[Segmentation], list[Segmentation]]:
    """Partition responses; strictly-above-threshold perplexity drops."""
    kept, dropped = [], []
    for seg in segmentations:
        (dropped if seg.perplexity > threshold else kept).append(seg)
    if dropped:
        log.info("perplexity filter dropped %d responses: %s", len(dropped),
                 ", ".join(f"{s.word}={s.perplexity:.3f}" for s in dropped[:10]))
    return kept, dropped


def dedupe_into_morpheme_set(segmentations: Iterable[Segmentation]) -> MorphemeSet:
    """Unique (form, transcription) pairs with accumulated source words.

    Pairs with an empty transcription cannot become morphemes and are
    skipped with a log line. Output is sorted by (form, transcription)
    so downstream item order is deterministic.
    """
    sources: dict[tuple[str, str], set[str]] = {}
    n_skipped = 0
    for seg in segmentations:
        for form, transcription in seg.pairs:
            if not transcription:
                n_skipped += 1
                continue
            sources.setdefault((form, transcription), set()).add(seg.word)
    if n_skipped:
        log.warning("skipped %d pairs with empty transcriptions", n_skipped)
    return MorphemeSet(tuple(
        Morpheme(form=f, transcription=t, sources=frozenset(ws))
        for (f, t), ws in sorted(sources.items())))


def sample_for_verification(
    mset: MorphemeSet, n: int = 150, seed: int = 0
) -> list[Morpheme]:
    """Uniform sample without replacement, deterministic under seed."""
    if n < 1:
        raise InputError(f"verification sample size n={n}: must be at least 1")
    if len(mset) == 0:
        raise InputError("cannot sample from an empty morpheme set")
    rng = np.random.default_rng(seed)
    size = min(n, len(mset))
    idx = rng.choice(len(mset), size=size, replace=False)
    if size < n:
        log.warning("verification sample: only %d morphemes available for n=%d",
                    size, n)
    return [mset.morphemes[i] for i in idx]


def write_verification_sheet(sample: Sequence[Morpheme], path: str | Path) -> None:
    """TSV review sheet with a blank verdict column."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("morpheme\ttranscription\texample_source\tverdict\n")
        for m in sample:
            example = min(m.sources) if m.sources else ""
            fh.write(f"{m.form}\t{m.transcription}\t{example}\t\n")


def read_verdicts(path: str | Path) -> list[str]:
    """The ``verdict`` cell of each row of a review sheet, stripped of
    whitespace; blank for a row not yet reviewed. Text that is not UTF-8
    is a ParseError naming the file."""
    with _open_input(path) as fh:
        rows = fh.read().split("\n")[1:]
    verdicts = []
    for row in filter(None, rows):
        cells = row.split("\t")
        verdicts.append(cells[3].strip() if len(cells) > 3 else "")
    return verdicts


def error_rate_ci(errors: int, n: int) -> tuple[float, float]:
    """Verification error rate with a 95% normal-approximation half-width."""
    if n <= 0:
        raise InputError("n must be positive")
    if not 0 <= errors <= n:
        raise InputError(f"errors={errors} outside [0, {n}]")
    rate = errors / n
    half_width = 1.96 * math.sqrt(rate * (1.0 - rate) / n)
    return rate, half_width


# ---------------------------------------------------------------------------
# Orchestration

def segment_words(
    words: Sequence[tuple[str, str, str]],
    language: str,
    provider: SegmentationProvider,
    cache_path: str | Path,
    perplexity_threshold: float = PERPLEXITY_THRESHOLD,
) -> list[Segmentation]:
    """Segment (word, lemma, ipa) triples through the provider, one word
    per request.

    Results are appended to the line-delimited JSON cache as they
    arrive; words already cached are not re-requested, and one cached
    with another transcription is an InputError, raised before any
    request. A response without log-probabilities, or whose perplexity
    overflows a float, is a ProviderError, raised before its word is
    cached.
    """
    cache_path = Path(cache_path)
    done: dict[str, Segmentation] = {}
    if cache_path.exists():
        _end_last_line(cache_path)
        done = {seg.word: seg for seg in read_segmentation_cache(cache_path)}
    for word, _, ipa in words:
        if word in done and done[word].ipa != ipa:
            raise InputError(
                f"{cache_path}: {word!r} is cached with the transcription "
                f"/{done[word].ipa}/, but the lexicon gives /{ipa}/; remove "
                "its record from the cache and segment again")
    out: list[Segmentation] = []
    cache_path.parent.mkdir(parents=True, exist_ok=True)
    with cache_path.open("a", encoding="utf-8") as fh:
        for word, lemma, ipa in words:
            if word in done:
                out.append(done[word])
                continue
            system, user = build_prompt(language, [(lemma, ipa)])
            resp = provider.complete(system, user)
            perplexity = response_perplexity(word, resp.logprobs)
            lines = [ln for ln in resp.text.splitlines() if ln.strip()]
            if len(lines) != 1:
                raise ProviderError(
                    f"expected 1 response line per word, got {len(lines)} "
                    f"response lines"
                )
            seg = Segmentation(
                word=word, ipa=ipa, pairs=tuple(parse_response(lines[0])),
                perplexity=perplexity,
                provider=provider.name, timestamp=time.time())
            fh.write(json.dumps(seg.to_record(), ensure_ascii=False) + "\n")
            out.append(seg)
    kept, _ = perplexity_filter(out, perplexity_threshold)
    return kept


def read_segmentation_cache(path: str | Path) -> list[Segmentation]:
    """The cached records in file order.

    A last line that lacks its newline and does not parse is what a
    killed run leaves behind: it is dropped with a warning. Any other
    malformed line is a ParseError.
    """
    segs = []
    with _open_input(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                segs.append(_cache_record(line))
            except _NOT_A_RECORD as exc:
                if line.endswith(b"\n"):
                    raise ParseError(f"{path}:{lineno}: {_record_error(exc)}") from None
                log.warning("%s:%d: dropped a partial last line (%s)",
                            path, lineno, exc)
    return segs


# what a cache line that holds no record raises; UnicodeDecodeError and
# json.JSONDecodeError are ValueErrors
_NOT_A_RECORD = (ValueError, KeyError, TypeError)


def _cache_record(line: bytes) -> Segmentation:
    return Segmentation.from_record(json.loads(line.decode("utf-8")))


def _end_last_line(path: Path) -> None:
    """End the cache with a newline, so that appended records start on a
    line of their own. A last line without one that holds a record, which
    ``read_segmentation_cache`` keeps, gets one; any other, the partial
    record a killed run leaves, is cut off."""
    with path.open("rb+") as fh:
        data = fh.read()
        end = data.rfind(b"\n") + 1
        if end == len(data):
            return
        try:
            _cache_record(data[end:])
        except _NOT_A_RECORD:
            log.warning("%s: cut off a partial last line", path)
            fh.truncate(end)
        else:
            fh.write(b"\n")
