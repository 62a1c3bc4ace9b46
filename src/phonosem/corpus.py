"""Input data model and loaders.

All loaders are pure functions of file contents. Text is normalized to
Unicode NFC at load time so that composed/decomposed IPA diacritics
cannot break segment lookup later. Loaded structures are immutable and
safe to share across threads.

File formats:

* Lexicon: UTF-8 TSV, header ``word  lemma  zipf  ipa``.
* Feature table: UTF-8 TSV, first column ``segment``, remaining columns
  feature names, cells in {-1, 0, 1}.
* Semantic vectors: word2vec-style text, optional ``N D`` first line,
  then ``token v1 ... vD``.
* Scale config: JSON listing per-scale phonetic exemplar segments and
  per-language semantic exemplar words.
"""

from __future__ import annotations

import json
import logging
import math
import re
import unicodedata
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InputError, ParseError

log = logging.getLogger(__name__)

LEXICON_HEADER = ("word", "lemma", "zipf", "ipa")


def _nfc(s: str) -> str:
    return unicodedata.normalize("NFC", s)


@contextmanager
def _open_input(path: str | Path, mode: str = "r"):
    """An input file open for reading; a missing or unreadable file, or
    text that is not UTF-8, is an InputError that names the file."""
    try:
        fh = open(path, mode, encoding=None if "b" in mode else "utf-8")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise ParseError(f"{path}: not UTF-8 text") from None


class Lexeme(NamedTuple):
    word: str
    lemma: str
    zipf: float
    ipa: str  # empty string marks an untranscribable lexeme

    @property
    def transcribable(self) -> bool:
        return bool(self.ipa)


@dataclass(frozen=True)
class Morpheme:
    form: str
    transcription: str
    sources: frozenset[str]

    def key(self) -> tuple[str, str]:
        return (self.form, self.transcription)


@dataclass(frozen=True)
class MorphemeSet:
    morphemes: tuple[Morpheme, ...]

    def __post_init__(self):
        keys = [m.key() for m in self.morphemes]
        if len(set(keys)) != len(keys):
            raise InputError("duplicate (form, transcription) in MorphemeSet")

    def __len__(self) -> int:
        return len(self.morphemes)

    def __iter__(self) -> Iterator[Morpheme]:
        return iter(self.morphemes)


@dataclass(frozen=True)
class SegmentFeatureTable:
    feature_names: tuple[str, ...]
    vectors: Mapping[str, np.ndarray]  # segment -> ternary vector

    def __contains__(self, segment: str) -> bool:
        return segment in self.vectors

    def __getitem__(self, segment: str) -> np.ndarray:
        return self.vectors[segment]

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @cached_property
    def segment_pattern(self) -> re.Pattern:
        """Greedy longest-match tokenizer of IPA strings: every key,
        longest first, then any single character, which matches only
        where no key does (a dropped character)."""
        keys = sorted((s for s in self.vectors if s), key=len, reverse=True)
        return re.compile("|".join([*map(re.escape, keys), "."]), re.S)


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Rows are items, columns are dimensions."""

    ids: tuple[str, ...]
    vectors: np.ndarray

    def __post_init__(self):
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.ids):
            raise InputError(
                f"embedding shape {self.vectors.shape} does not match "
                f"{len(self.ids)} ids"
            )

    @property
    def n_items(self) -> int:
        return self.vectors.shape[0]

    @property
    def n_dims(self) -> int:
        return self.vectors.shape[1]

    def subset(self, keep: Sequence[int]) -> "EmbeddingMatrix":
        """The rows at ``keep``, in that order: the matrix itself, not a
        copy, when that is every row in order."""
        keep = list(keep)
        if keep == list(range(self.n_items)):
            return self
        return EmbeddingMatrix(
            ids=tuple(self.ids[i] for i in keep),
            vectors=self.vectors[keep],
        )


@dataclass(frozen=True)
class VectorRows(EmbeddingMatrix):
    """Rows read from a vectors file, with the number of the line each
    was read from."""

    lines: np.ndarray  # int64, one per row


@dataclass(frozen=True)
class ScaleConfig:
    """One hypothesized sound/meaning scale.

    Phonetic exemplars are single IPA segments shared across languages;
    semantic exemplars are words, per language.
    """

    name: str
    phonetic_pos: tuple[str, ...]
    phonetic_neg: tuple[str, ...]
    semantic_pos: Mapping[str, tuple[str, ...]]
    semantic_neg: Mapping[str, tuple[str, ...]]

    def __post_init__(self):
        if not self.phonetic_pos or not self.phonetic_neg:
            raise InputError(f"scale {self.name}: empty phonetic exemplar list")
        if set(self.phonetic_pos) & set(self.phonetic_neg):
            raise InputError(f"scale {self.name}: phonetic pos/neg overlap")
        for lang in self.semantic_pos:
            pos, neg = self.semantic_pos[lang], self.semantic_neg.get(lang, ())
            if not pos or not neg:
                raise InputError(
                    f"scale {self.name}/{lang}: empty semantic exemplar list"
                )
            if set(pos) & set(neg):
                raise InputError(f"scale {self.name}/{lang}: semantic pos/neg overlap")


# ---------------------------------------------------------------------------
# Lexicon

def load_lexicon(path: str | Path) -> tuple[Lexeme, ...]:
    """Load a TSV lexicon, dedupe by word (highest zipf wins), sort by
    descending zipf with lexicographic tie-break."""
    with _open_input(path) as fh:
        text = fh.read()
    # NFC of the whole text is NFC per line, as "\n" never composes or reorders;
    # unlike str.splitlines, "\n" alone leaves "\f", "\x85", U+2028 in a line
    header, *lines = _nfc(text).split("\n")
    if text and tuple(header.split("\t")) != LEXICON_HEADER:
        raise ParseError(f"{path}:1: expected header {'/'.join(LEXICON_HEADER)}")
    best: dict[str, Lexeme] = {}
    for lineno, line in enumerate(lines, start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ParseError(f"{path}:{lineno}: expected 4 columns, got {len(parts)}")
        word, lemma, zipf_s, ipa = parts
        if not word:
            raise ParseError(f"{path}:{lineno}: empty word")
        try:
            zipf = float(zipf_s)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric zipf {zipf_s!r}") from None
        if not math.isfinite(zipf):
            raise ParseError(f"{path}:{lineno}: non-finite zipf for {word!r}")
        prev = best.get(word)
        if prev is None:
            best[word] = Lexeme(word, lemma, zipf, ipa)
            continue
        if prev.ipa != ipa:
            log.warning("%s:%d: duplicate %r with differing IPA, first kept",
                        path, lineno, word)
        if zipf > prev.zipf:
            # highest zipf wins, but a conflicting IPA never displaces
            # the first-seen transcription
            best[word] = Lexeme(word, lemma, zipf, prev.ipa)
    # words are unique, so two stable sorts give (-zipf, word) order
    lexicon = sorted(best.values(), key=itemgetter(0))
    lexicon.sort(key=itemgetter(2), reverse=True)
    return tuple(lexicon)


def save_lexicon(lexicon: tuple[Lexeme, ...], path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write("\t".join(LEXICON_HEADER) + "\n")
        for lx in lexicon:
            fh.write(f"{lx.word}\t{lx.lemma}\t{lx.zipf!r}\t{lx.ipa}\n")


# ---------------------------------------------------------------------------
# Segment feature table

def load_feature_table(path: str | Path) -> SegmentFeatureTable:
    vectors: dict[str, np.ndarray] = {}
    with _open_input(path) as fh:
        header = _nfc(fh.readline()).rstrip("\n").split("\t")
        if not header or header[0] != "segment":
            raise ParseError(f"{path}:1: first column must be 'segment'")
        feature_names = tuple(header[1:])
        if len(set(feature_names)) != len(feature_names):
            raise ParseError(f"{path}:1: duplicate feature names")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = _nfc(line).split("\t")
            seg = parts[0]
            if not seg:
                raise ParseError(f"{path}:{lineno}: empty segment key")
            if seg in vectors:
                raise ParseError(f"{path}:{lineno}: duplicate segment {seg!r}")
            if len(parts) - 1 != len(feature_names):
                raise ParseError(
                    f"{path}:{lineno}: ragged row for segment {seg!r} "
                    f"({len(parts) - 1} values, expected {len(feature_names)})"
                )
            vals = []
            for name, cell in zip(feature_names, parts[1:]):
                try:
                    v = int(cell)
                except ValueError:
                    v = None
                if v not in (-1, 0, 1):
                    raise ParseError(
                        f"{path}:{lineno}: segment {seg!r} feature {name!r} "
                        f"value {cell!r} not in -1/0/1"
                    )
                vals.append(v)
            vectors[seg] = np.asarray(vals, dtype=np.float64)
    table = SegmentFeatureTable(feature_names=feature_names, vectors=vectors)
    log.info("%s: %d segments x %d features", path, len(vectors), table.n_features)
    return table


def save_feature_table(table: SegmentFeatureTable, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write("segment\t" + "\t".join(table.feature_names) + "\n")
        for seg, vec in table.vectors.items():
            fh.write(seg + "\t" + "\t".join(str(int(v)) for v in vec) + "\n")


# ---------------------------------------------------------------------------
# Semantic vectors

def load_semantic_embeddings(
    path: str | Path, vocabulary: Iterable[str]
) -> tuple[VectorRows, list[str]]:
    """Load vectors for the given vocabulary from a word2vec-style text file.

    Only the rows of vocabulary items are parsed; every other row is only
    checked for its dimension, so a bad value there is no error. Trailing
    whitespace on a line is ignored. A token listed more than once keeps
    its first vector. Returns the rows (in file order of first
    occurrence, each with its line number) and the sorted list of
    vocabulary items not found in the file; a file that holds none of the
    vocabulary gives no rows.
    """
    wanted = {_nfc(w) for w in vocabulary}
    ids: list[str] = []
    lines: list[int] = []
    vectors = np.empty((0, 0))  # then one row per wanted item, filled in order
    dim: int | None = None
    with _open_input(path) as fh:
        first = fh.readline()
        lineno = 1
        parts = first.split()
        # optional "N D" count header
        if len(parts) == 2 and all(p.isdigit() for p in parts):
            pass
        else:
            lineno = 0
            fh.seek(0)
        for lineno, line in enumerate(fh, start=lineno + 1):
            line = line.rstrip()
            end = line.find(" ")
            if end < 0:
                continue
            token = _nfc(line[:end])
            # a token leaves ``wanted`` once read, so a repeat is not kept
            keep = token in wanted
            # only the kept lines are split; the others are counted
            cells = line.split(" ") if keep else None
            n_values = len(cells) - 1 if keep else line.count(" ")
            if dim is None:
                dim = n_values
                vectors = np.empty((len(wanted), dim))
            elif n_values != dim:
                raise ParseError(
                    f"{path}:{lineno}: dimension {n_values} != {dim}"
                )
            if keep:
                try:
                    vectors[len(ids)] = list(map(float, cells[1:]))
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: non-numeric vector value") from None
                wanted.remove(token)
                ids.append(token)
                lines.append(lineno)
    # the rows of items not found were never filled
    vectors.resize((len(ids), vectors.shape[1]), refcheck=False)
    finite = np.isfinite(vectors).all(axis=1)
    if not finite.all():
        token = ids[int(np.argmin(finite))]
        raise ParseError(f"{path}: non-finite vector value for {token!r}")
    return VectorRows(ids=tuple(ids), vectors=vectors,
                      lines=np.asarray(lines, dtype=np.int64)), sorted(wanted)


def save_semantic_embeddings(matrix: EmbeddingMatrix, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"{matrix.n_items} {matrix.n_dims}\n")
        for token, vec in zip(matrix.ids, matrix.vectors):
            fh.write(token + " " + " ".join(repr(float(v)) for v in vec) + "\n")


# ---------------------------------------------------------------------------
# Scale configs

def load_scale_configs(path: str | Path | None = None) -> list[ScaleConfig]:
    """Load scale definitions; with no path, the shipped defaults."""
    source = path or "shipped scales.json"
    if path is None:
        text = resources.files("phonosem.data").joinpath("scales.json").read_text("utf-8")
    else:
        with _open_input(path) as fh:
            text = fh.read()
    try:
        return [ScaleConfig(
            name=name,
            phonetic_pos=tuple(_nfc(s) for s in entry["phonetic"]["pos"]),
            phonetic_neg=tuple(_nfc(s) for s in entry["phonetic"]["neg"]),
            semantic_pos={lang: tuple(_nfc(w) for w in d["pos"])
                          for lang, d in entry["semantic"].items()},
            semantic_neg={lang: tuple(_nfc(w) for w in d["neg"])
                          for lang, d in entry["semantic"].items()},
        ) for name, entry in json.loads(text)["scales"].items()]
    except json.JSONDecodeError as exc:
        raise ParseError(f"scale config: {source}: {exc}") from None
    except KeyError as exc:
        raise ParseError(f"scale config: {source}: missing key {exc}") from None
    except (AttributeError, TypeError):
        raise ParseError(f"scale config: {source}: \"scales\" must map each scale to "
                         "phonetic and per-language semantic pos/neg lists") from None
