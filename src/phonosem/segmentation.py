"""Morphological-segmentation plumbing around a pluggable LLM provider.

This module owns everything except the model itself: 10-shot prompt
assembly from the shipped templates, parsing of the structured
morpheme-transcription responses, the perplexity filter, deduplication
into a MorphemeSet, verification sampling, and error-rate confidence
intervals. An HTTP adapter and an offline replay provider implement the
provider boundary.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field
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


def load_system_template() -> str:
    return resources.files("phonosem.data.prompts").joinpath(
        "system.txt").read_text("utf-8")


def render_examples(examples: Sequence[Mapping[str, str]]) -> str:
    blocks = []
    for ex in examples:
        blocks.append(f"input: {ex['input']}\n{ex['output']}")
    return "\n\n".join(blocks)


def build_prompt(language: str, batch: Sequence[tuple[str, str]]) -> tuple[str, str]:
    """Assemble the (system, user) texts for one batch of (lemma, ipa).

    Raises on an unknown language or an empty batch.
    """
    if not batch:
        raise InputError("empty segmentation batch")
    if language not in LANGUAGE_NAMES:
        raise InputError(f"unsupported language {language!r}")
    examples = load_example_set(language)
    system = load_system_template().format(
        lang=LANGUAGE_NAMES[language], examples=render_examples(examples))
    user = "\n".join(f"input: {lemma},{ipa}" for lemma, ipa in batch)
    return system, user


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


def render_pairs(pairs: Sequence[tuple[str, str]]) -> str:
    return ",".join(f"({m},{t})" for m, t in pairs)


# ---------------------------------------------------------------------------
# Provider boundary

@dataclass(frozen=True)
class ProviderResponse:
    text: str
    logprobs: tuple[float, ...] | None = None


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
        if "text" not in body:
            raise ProviderError("provider response lacks 'text'")
        logprobs = tuple(body["logprobs"]) if body.get("logprobs") else None
        if self.audit_path is not None:
            self.audit_path.parent.mkdir(parents=True, exist_ok=True)
            with self.audit_path.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps({"request": payload, "response": body},
                                    ensure_ascii=False) + "\n")
        return ProviderResponse(text=body["text"], logprobs=logprobs)


class ReplayProvider:
    """Serves recorded responses from a JSONL file, keyed by user text.

    Records: ``{"user": ..., "text": ..., "logprobs": [...]}``. The
    default in tests, so the pipeline runs offline. A line that is not
    such a record is a ParseError naming the file and line.
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
                    lp = tuple(rec["logprobs"]) if rec.get("logprobs") else None
                    self._by_user[rec["user"]] = ProviderResponse(
                        text=rec["text"], logprobs=lp)
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
    perplexity: float | None
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
            perplexity=_perplexity(rec.get("perplexity")),
            provider=rec.get("provider", ""),
            timestamp=rec.get("timestamp", 0.0),
        )


def _perplexity(value) -> float | None:
    """A record's perplexity: a number, or None where it has none."""
    if value is not None and (isinstance(value, bool)
                              or not isinstance(value, (int, float))):
        raise ValueError(f"perplexity {value!r} is not a number")
    return value


def _record_error(exc: Exception) -> str:
    """What is wrong with a JSONL record, from the error reading it."""
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def response_perplexity(logprobs: Sequence[float]) -> float:
    """exp of the negative mean per-token log-probability."""
    if not logprobs:
        raise InputError("cannot compute perplexity without log-probabilities")
    return math.exp(-sum(logprobs) / len(logprobs))


def perplexity_filter(
    segmentations: Iterable[Segmentation],
    threshold: float = PERPLEXITY_THRESHOLD,
) -> tuple[list[Segmentation], list[Segmentation]]:
    """Partition responses; strictly-above-threshold perplexity drops."""
    kept, dropped = [], []
    for seg in segmentations:
        if seg.perplexity is None:
            raise InputError(f"segmentation of {seg.word!r} lacks a perplexity")
        (dropped if seg.perplexity > threshold else kept).append(seg)
    if dropped:
        log.info("perplexity filter dropped %d responses: %s", len(dropped),
                 ", ".join(f"{s.word}={s.perplexity:.3f}" for s in dropped[:10]))
    return kept, dropped


def dedupe_into_morpheme_set(
    segmentations: Iterable[Segmentation], language: str
) -> MorphemeSet:
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
    morphemes = tuple(
        Morpheme(form=f, transcription=t, sources=frozenset(ws), language=language)
        for (f, t), ws in sorted(sources.items())
    )
    return MorphemeSet(language=language, morphemes=morphemes)


def sample_for_verification(
    mset: MorphemeSet, n: int = 150, seed: int = 0
) -> tuple[list[Morpheme], bool]:
    """Uniform sample without replacement, deterministic under seed."""
    if n < 1:
        raise InputError(f"verification sample size n={n}: must be at least 1")
    if len(mset) == 0:
        raise InputError("cannot sample from an empty morpheme set")
    rng = np.random.default_rng(seed)
    size = min(n, len(mset))
    idx = rng.choice(len(mset), size=size, replace=False)
    short = size < n
    if short:
        log.warning("verification sample: only %d morphemes available for n=%d",
                    size, n)
    return [mset.morphemes[i] for i in idx], short


def write_verification_sheet(sample: Sequence[Morpheme], path: str | Path) -> None:
    """TSV review sheet with a blank verdict column."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("morpheme\ttranscription\texample_source\tverdict\n")
        for m in sample:
            example = min(m.sources) if m.sources else ""
            fh.write(f"{m.form}\t{m.transcription}\t{example}\t\n")


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
    arrive; words already cached are not re-requested. A response
    without log-probabilities is a ProviderError, raised before its
    word is cached.
    """
    cache_path = Path(cache_path)
    done: dict[str, Segmentation] = {}
    if cache_path.exists():
        _cut_partial_line(cache_path)
        done = {seg.word: seg for seg in read_segmentation_cache(cache_path)}
    out: list[Segmentation] = []
    cache_path.parent.mkdir(parents=True, exist_ok=True)
    with cache_path.open("a", encoding="utf-8") as fh:
        for word, lemma, ipa in words:
            if word in done:
                out.append(done[word])
                continue
            system, user = build_prompt(language, [(lemma, ipa)])
            resp = provider.complete(system, user)
            if not resp.logprobs:
                raise ProviderError(f"response for {word!r} lacks log-probabilities")
            lines = [ln for ln in resp.text.splitlines() if ln.strip()]
            if len(lines) != 1:
                raise ProviderError(
                    f"expected 1 response line per word, got {len(lines)} "
                    f"response lines"
                )
            seg = Segmentation(
                word=word, ipa=ipa, pairs=tuple(parse_response(lines[0])),
                perplexity=response_perplexity(resp.logprobs),
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
                segs.append(Segmentation.from_record(json.loads(line.decode("utf-8"))))
            # UnicodeDecodeError and json.JSONDecodeError are ValueErrors
            except (ValueError, KeyError) as exc:
                if line.endswith(b"\n"):
                    raise ParseError(f"{path}:{lineno}: {_record_error(exc)}") from None
                log.warning("%s:%d: dropped a partial last line (%s)",
                            path, lineno, exc)
    return segs


def _cut_partial_line(path: Path) -> None:
    """Cut off what follows the cache's last newline, where a killed run
    leaves a partial record, so that appended records start on a line
    of their own."""
    with path.open("rb+") as fh:
        data = fh.read()
        end = data.rfind(b"\n") + 1
        if end < len(data):
            log.warning("%s: cut off a partial last line", path)
            fh.truncate(end)
