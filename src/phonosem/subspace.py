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

from .corpus import EmbeddingMatrix, Lexeme, ScaleConfig, SegmentFeatureTable
from .errors import AnalysisError, InputError
from .phonetic import _tokenize_and_pool, standardize
from .stats import (AlignmentResult, _centered, _doubled_ranks, _rho,
                    _row_blocks, _summarize, permutation_test, stars)

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
    return _centred_coord(np.asarray(points, dtype=np.float64) - line.midpoint, line)


def _centred_coord(centred: np.ndarray, line: CentroidLine) -> np.ndarray:
    """:func:`_midpoint_coord` of points already less ``line.midpoint``."""
    d2 = float(np.dot(line.direction, line.direction))
    return centred @ line.direction / d2


def perpendicular_distance(points: np.ndarray, line: CentroidLine) -> np.ndarray:
    """Euclidean distance from each point of a stack (one point is a
    stack of one) to the line.

    The feet and their distances are taken one row block at a time
    (:func:`~phonosem.stats._row_blocks`) in one buffer, by the steps of
    ``np.linalg.norm(points - feet, axis=-1)``; the line coordinates stay
    one product over all rows, which a blocked product could round
    differently.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    u = _midpoint_coord(pts, line)
    dist = np.empty(pts.shape[0])
    buf = np.empty((next(_row_blocks(*pts.shape), (0, 0))[1], pts.shape[1]))
    for r0, r1 in _row_blocks(*pts.shape):
        diff = buf[:r1 - r0]
        np.multiply.outer(u[r0:r1], line.direction, out=diff)
        diff += line.midpoint
        np.subtract(pts[r0:r1], diff, out=diff)
        diff *= diff
        np.add.reduce(diff, axis=-1, out=dist[r0:r1])
    return np.sqrt(dist, out=dist)


def select_words(
    vocabulary: EmbeddingMatrix, line: CentroidLine, n: int = 10000
) -> np.ndarray:
    """The rows of the n words nearest the line by perpendicular
    distance, nearest first.

    Ties break by ascending word order; if the vocabulary is smaller
    than n, every row is returned, with a warning.
    """
    dist = perpendicular_distance(vocabulary.vectors, line)
    order = np.argsort(dist, kind="stable")
    # sort by word each run of equal distances, order[r0:r1 + 1], left in row order
    sorted_dist = dist[order]
    tied = sorted_dist[1:] == sorted_dist[:-1]
    edges = np.flatnonzero(np.diff(tied, prepend=False, append=False)).tolist()
    for r0, r1 in zip(edges[::2], edges[1::2]):
        order[r0:r1 + 1] = sorted(order[r0:r1 + 1].tolist(),
                                  key=vocabulary.ids.__getitem__)
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


def _exemplars(items: tuple[str, ...], source, missing_from: str) -> list:
    """``source[item]`` of each exemplar; exemplars missing from
    ``source`` are an InputError naming every one after
    ``missing_from``."""
    missing = [x for x in items if x not in source]
    if missing:
        raise InputError(f"{missing_from}: {', '.join(missing)}")
    return [source[x] for x in items]


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
    vocabulary: EmbeddingMatrix, lexicon: tuple[Lexeme, ...],
    table: SegmentFeatureTable
) -> ScaleCandidates:
    """The candidates among the vocabulary's words. Their semantic rows
    are the vocabulary itself when every word pools (``subset``), else a
    compact copy of their rows; the scales only read them."""
    ipa = {lx.word: lx.ipa for lx in lexicon}
    _, rows, no_phon = _tokenize_and_pool(
        [(w, ipa.get(w, "")) for w in vocabulary.ids], table)
    skipped = set(no_phon)
    in_vocabulary = set(vocabulary.ids)
    return ScaleCandidates(
        words=vocabulary.subset(
            [i for i, w in enumerate(vocabulary.ids) if w not in skipped]),
        phonetic=rows,
        dropped_no_embedding=sum(1 for lx in lexicon if lx.word not in in_vocabulary),
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

    The semantic exemplars' rows are read from ``vocabulary``, which
    needs to hold only those rows.
    """
    if language not in scale.semantic_pos:
        raise InputError(f"scale {scale.name!r} has no exemplars for {language!r}")

    exemplars = set(scale.semantic_pos[language]).union(
        scale.semantic_neg.get(language, ()))
    index = {w: i for i, w in enumerate(vocabulary.ids) if w in exemplars}
    no_vector = (f"scale {scale.name!r} ({language}): semantic exemplars "
                 "missing from embeddings")
    sem_line = build_line(
        vocabulary.vectors[_exemplars(scale.semantic_pos[language], index, no_vector)],
        vocabulary.vectors[_exemplars(scale.semantic_neg[language], index, no_vector)],
    )

    if candidates.words.n_items < 3:
        raise AnalysisError(
            f"scale {scale.name!r} ({language}): fewer than 3 usable words"
        )

    rows = select_words(candidates.words, sem_line, n=n_words)
    phon_std, kept, mean, std = standardize(candidates.phonetic[rows])

    no_segment = (f"scale {scale.name!r}: phonetic exemplar segments missing "
                  "from feature table")
    pos_seg = np.vstack(_exemplars(scale.phonetic_pos, table, no_segment))[:, kept]
    neg_seg = np.vstack(_exemplars(scale.phonetic_neg, table, no_segment))[:, kept]
    phon_line = build_line((pos_seg - mean) / std, (neg_seg - mean) / std)

    # the gathered rows are this call's own, so they are centred in place
    selected = candidates.words.vectors[rows]
    selected -= sem_line.midpoint
    sem_coords = _centred_coord(selected, sem_line) + 0.5
    del selected
    phon_coords = project(phon_std, phon_line)

    centered_sem = _centered(_doubled_ranks(sem_coords))
    centered_phon = _centered(_doubled_ranks(phon_coords))
    sem_sq = np.dot(centered_sem, centered_sem)
    rho = _rho(centered_sem, centered_phon, sem_sq)

    def stat(perm: np.ndarray) -> float:
        return _rho(centered_sem, centered_phon[perm], sem_sq)

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
