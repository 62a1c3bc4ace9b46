"""Paired 1-D subspace ("scale") analyses.

Each hypothesized scale defines a semantic line (between the centroids
of two opposing exemplar word sets in raw embedding space) and a
phonetic line (between the centroids of the opposing exemplar segments'
feature vectors). Whole words, not morphemes, are analyzed: the words
nearest the semantic line are projected onto both lines and the two
coordinate vectors are rank-correlated.

Projection coordinates use the convention t = 0 at the negative
centroid and t = 1 at the positive centroid.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import EmbeddingMatrix, Lexicon, ScaleConfig, SegmentFeatureTable
from .errors import AnalysisError, InputError
from .phonetic import _tokenize_and_pool, standardize
from .stats import (AlignmentResult, _centered, _doubled_ranks, _rho,
                    _summarize, permutation_test, stars)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CentroidLine:
    origin: np.ndarray      # negative-pole centroid
    direction: np.ndarray   # positive centroid - negative centroid
    midpoint: np.ndarray    # (positive centroid + negative centroid) / 2

    def __post_init__(self):
        if np.linalg.norm(self.direction) == 0.0:
            raise AnalysisError("coincident centroids; line direction is zero")


def build_line(pos_exemplars: np.ndarray, neg_exemplars: np.ndarray) -> CentroidLine:
    """Line through the centroids of the two opposing exemplar sets."""
    pos = np.atleast_2d(np.asarray(pos_exemplars, dtype=np.float64))
    neg = np.atleast_2d(np.asarray(neg_exemplars, dtype=np.float64))
    if pos.size == 0 or neg.size == 0:
        raise InputError("empty exemplar set")
    origin = neg.mean(axis=0)
    pos_centroid = pos.mean(axis=0)
    # the midpoint is stored separately because (pos + neg) / 2 is exactly
    # symmetric under a pole swap, which makes swap antisymmetry of the
    # projection coordinates exact in floating point
    return CentroidLine(origin=origin, direction=pos_centroid - origin,
                        midpoint=(pos_centroid + origin) / 2.0)


def project(points: np.ndarray, line: CentroidLine) -> np.ndarray:
    """Scalar line coordinate(s) of one point or a stack of points.

    t = 0 at the negative centroid, t = 1 at the positive centroid;
    computed about the centroid midpoint for exact pole-swap symmetry.
    """
    return _midpoint_coord(points, line) + 0.5


def _midpoint_coord(points: np.ndarray, line: CentroidLine) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    d2 = float(np.dot(line.direction, line.direction))
    return (pts - line.midpoint) @ line.direction / d2


def perpendicular_distance(points: np.ndarray, line: CentroidLine) -> np.ndarray:
    """Euclidean distance from the point(s) to the line."""
    pts = np.asarray(points, dtype=np.float64)
    u = _midpoint_coord(pts, line)
    foot = line.midpoint + np.multiply.outer(u, line.direction)
    return np.linalg.norm(pts - foot, axis=-1)


def select_words(
    vocabulary: EmbeddingMatrix, line: CentroidLine, n: int = 10000
) -> np.ndarray:
    """The rows of the n words nearest the line by perpendicular
    distance, nearest first.

    Ties break by ascending word order; if the vocabulary is smaller
    than n, every row is returned, with a warning.
    """
    dist = perpendicular_distance(vocabulary.vectors, line)
    order = np.lexsort((np.array(vocabulary.ids), dist))
    if vocabulary.n_items < n:
        log.warning("select_words: vocabulary %d smaller than n=%d",
                    vocabulary.n_items, n)
    return order[:n]


@dataclass(frozen=True)
class ScaleResult:
    scale: str
    language: str
    rho: float
    p_value: float
    n_words: int
    n_dropped_no_embedding: int
    n_dropped_no_phonetics: int
    semantic_coords: np.ndarray
    phonetic_coords: np.ndarray
    words: tuple[str, ...]
    alignment: AlignmentResult

    @property
    def stars(self) -> str:
        return stars(self.p_value)

    def to_record(self) -> dict:
        return {
            "scale": self.scale,
            "language": self.language,
            "rho": self.rho,
            "p": self.p_value,
            "stars": self.stars,
            "n_words": self.n_words,
            "dropped_no_embedding": self.n_dropped_no_embedding,
            "dropped_no_phonetics": self.n_dropped_no_phonetics,
            "test": self.alignment.to_record(),
        }


def _exemplar_vectors(
    words: tuple[str, ...], vocabulary: EmbeddingMatrix, scale: str, language: str
) -> np.ndarray:
    index = {w: i for i, w in enumerate(vocabulary.ids)}
    missing = [w for w in words if w not in index]
    if missing:
        raise InputError(
            f"scale {scale!r} ({language}): semantic exemplars missing from "
            f"embeddings: {', '.join(missing)}"
        )
    return vocabulary.vectors[[index[w] for w in words]]


def _segment_vectors(
    segments: tuple[str, ...], table: SegmentFeatureTable, scale: str
) -> np.ndarray:
    missing = [s for s in segments if s not in table]
    if missing:
        raise InputError(
            f"scale {scale!r}: phonetic exemplar segments missing from "
            f"feature table: {', '.join(missing)}"
        )
    return np.vstack([table[s] for s in segments])


@dataclass(frozen=True)
class ScaleCandidates:
    """A language's candidate words for every scale: the words with an
    embedding, an IPA transcription and a non-empty tokenization, with
    their semantic vectors and mean-pooled phonetic feature vectors (rows
    in word order)."""

    words: EmbeddingMatrix
    phonetic: np.ndarray
    dropped_no_embedding: int
    dropped_no_phonetics: int


def pool_candidates(
    vocabulary: EmbeddingMatrix, lexicon: Lexicon, table: SegmentFeatureTable
) -> ScaleCandidates:
    ipa = {lx.word: lx.ipa for lx in lexicon}
    emb_index = {w: i for i, w in enumerate(vocabulary.ids)}
    words, rows, no_phon = _tokenize_and_pool(
        [(w, ipa.get(w, "")) for w in vocabulary.ids], table)
    return ScaleCandidates(
        words=EmbeddingMatrix(
            ids=tuple(words),
            vectors=vocabulary.vectors[[emb_index[w] for w in words]]),
        phonetic=rows,
        dropped_no_embedding=sum(1 for lx in lexicon if lx.word not in emb_index),
        dropped_no_phonetics=len(no_phon),
    )


def scale_alignment(
    scale: ScaleConfig,
    language: str,
    vocabulary: EmbeddingMatrix,
    table: SegmentFeatureTable,
    candidates: ScaleCandidates,
    n_words: int = 10000,
    n_shuffles: int = 5000,
    null_points: int = 5000,
    seed: int = 0,
) -> ScaleResult:
    """Correlate word projections onto one scale's paired lines.

    The candidates are the vocabulary's words with phonetics
    (``pool_candidates``), the same for every scale. Words are selected
    among them near the semantic line; their phonetic embeddings
    are mean-pooled feature vectors post-processed (zero-variance drop +
    z-scoring) over the selected set, and the phonetic exemplar segments
    are mapped through the same transform before the phonetic line is
    built. Significance shuffles the word-to-phonetic-coordinate
    assignment, two-sided; both coordinate vectors are ranked once.
    """
    if language not in scale.semantic_pos:
        raise InputError(f"scale {scale.name!r} has no exemplars for {language!r}")

    sem_line = build_line(
        _exemplar_vectors(scale.semantic_pos[language], vocabulary, scale.name, language),
        _exemplar_vectors(scale.semantic_neg[language], vocabulary, scale.name, language),
    )

    if candidates.words.n_items < 3:
        raise AnalysisError(
            f"scale {scale.name!r} ({language}): fewer than 3 usable words"
        )

    rows = select_words(candidates.words, sem_line, n=n_words)
    phon_std, kept, mean, std = standardize(candidates.phonetic[rows])

    pos_seg = _segment_vectors(scale.phonetic_pos, table, scale.name)[:, kept]
    neg_seg = _segment_vectors(scale.phonetic_neg, table, scale.name)[:, kept]
    phon_line = build_line((pos_seg - mean) / std, (neg_seg - mean) / std)

    sem_coords = project(candidates.words.vectors[rows], sem_line)
    phon_coords = project(phon_std, phon_line)

    centered_sem = _centered(_doubled_ranks(sem_coords))
    centered_phon = _centered(_doubled_ranks(phon_coords))
    rho = _rho(centered_sem, centered_phon)

    def stat(perm: np.ndarray) -> float:
        return _rho(centered_sem, centered_phon[perm])

    p, null = permutation_test(stat, rho, rows.size, n_shuffles,
                               null_points, seed, "two-sided")
    alignment = _summarize(f"scale:{scale.name}", rho, null, p, n_shuffles,
                           seed, "two-sided")
    return ScaleResult(
        scale=scale.name,
        language=language,
        rho=rho,
        p_value=p,
        n_words=rows.size,
        n_dropped_no_embedding=candidates.dropped_no_embedding,
        n_dropped_no_phonetics=candidates.dropped_no_phonetics,
        semantic_coords=sem_coords,
        phonetic_coords=phon_coords,
        words=tuple(candidates.words.ids[i] for i in rows),
        alignment=alignment,
    )
