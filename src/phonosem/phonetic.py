"""Phonetic embeddings and pairwise similarity matrices.

IPA strings are tokenized into segments by greedy longest match against
the feature table, mean-pooled into one vector per item (all items in
one batch), and the resulting matrix is cleaned (zero-variance
dimensions dropped) and dataset-normalized. Cosine similarity is used
for both modalities.

All operations here are pure; similarity construction uses a fixed
summation order so results do not depend on parallelism.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .corpus import EmbeddingMatrix, SegmentFeatureTable
from .errors import AnalysisError, InputError

log = logging.getLogger(__name__)

ZERO_VARIANCE_TOL = 1e-12


def standardize(
    vectors: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Drop zero-variance columns, then z-score the rest.

    Columns are mapped to mean 0 and standard deviation 1 with the
    population (n) divisor; rank and cosine statistics downstream are
    insensitive to the divisor choice. Returns ``(standardized, kept,
    mean, std)``: the kept column indices in original order and the
    transform's moments, so other points can be mapped the same way as
    ``(x[:, kept] - mean) / std``. Raises if every column is constant.
    """
    var = vectors.var(axis=0)
    kept = np.flatnonzero(var > ZERO_VARIANCE_TOL)
    if kept.size == 0:
        raise AnalysisError("all columns are zero-variance; degenerate space")
    if kept.size < vectors.shape[1]:
        log.info("dropped %d zero-variance dimensions", vectors.shape[1] - kept.size)
    x = vectors[:, kept]
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    return (x - mean) / std, kept, mean, std


def _tokenize_and_pool(
    items: Sequence[tuple[str, str]], table: SegmentFeatureTable
) -> tuple[list[str], np.ndarray, list[str]]:
    """Mean-pooled feature vectors of (item id, IPA) pairs, as one batch.

    Each transcription is split by the table's ``segment_pattern``, a
    greedy longest match over the table's segments: at each position the
    longest segment that starts there is taken, else one character.
    Characters no segment matches (stress and length marks, typically)
    are dropped. The segments of all items form one flat array of
    indices, and each row is the sum of its segments' feature vectors
    over their count. Features are ternary, so every partial sum is an
    exact integer and a row equals the mean of its segments' vectors bit
    for bit, in any summation order.

    Returns ``(ids, rows, skipped)``; items whose transcription is empty
    or matches nothing in the table are left out and listed in
    ``skipped``.
    """
    find = table.segment_pattern.findall
    index = {segment: j for j, segment in enumerate(table.vectors)}
    ids: list[str] = []
    skipped: list[str] = []
    flat: list[int] = []
    counts: list[int] = []
    for item_id, ipa in items:
        segments = [j for j in map(index.get, find(ipa)) if j is not None]
        if segments:
            ids.append(item_id)
            flat += segments
            counts.append(len(segments))
        else:
            skipped.append(item_id)
    if not ids:
        return ids, np.empty((0, table.n_features)), skipped
    features = np.vstack(list(table.vectors.values()))
    n_segments = np.asarray(counts)
    starts = np.cumsum(n_segments) - n_segments
    rows = np.add.reduceat(features[flat], starts, axis=0) / n_segments[:, None]
    return ids, rows, skipped


def build_phonetic_embeddings(
    items: Sequence[tuple[str, str]],
    table: SegmentFeatureTable,
) -> tuple[EmbeddingMatrix, list[str], list[str]]:
    """Tokenize + mean-pool a batch of (item id, IPA) pairs.

    Items whose transcription matches nothing are excluded and returned
    in the skipped list. Returns ``(matrix, kept_feature_names, skipped)``;
    the matrix is standardized (see :func:`standardize`).
    """
    ids, rows, skipped = _tokenize_and_pool(items, table)
    if not ids:
        raise AnalysisError("no item produced a phonetic embedding")
    vectors, kept, _, _ = standardize(rows)
    names = [table.feature_names[i] for i in kept]
    if skipped:
        log.info("phonetic embeddings: skipped %d untokenizable items", len(skipped))
    return EmbeddingMatrix(ids=tuple(ids), vectors=vectors), names, skipped


# ---------------------------------------------------------------------------
# Similarity matrices

# Side of the tiles symmetric matrices are checked and mirrored in: a
# float64 tile and its mirror image stay in cache together.
_TILE = 128


def _upper_tiles(n: int) -> Iterator[tuple[int, int, int, int]]:
    """(i0, i1, j0, j1) of each tile ``[i0:i1, j0:j1]`` with j0 >= i0."""
    for i0 in range(0, n, _TILE):
        for j0 in range(i0, n, _TILE):
            yield i0, min(n, i0 + _TILE), j0, min(n, j0 + _TILE)


def _mirror_upper(values: np.ndarray) -> None:
    """Copy a square matrix's strict upper triangle onto its lower one."""
    for i0, i1, j0, j1 in _upper_tiles(len(values)):
        if i0 == j0:
            tile = values[i0:i1, i0:i1]
            lower = np.tri(i1 - i0, k=-1, dtype=bool)
            tile[lower] = tile.T[lower]
        else:
            values[j0:j1, i0:i1] = values[i0:i1, j0:j1].T


def _upper_rows(n: int) -> Iterator[tuple[int, int, int]]:
    """(i, start, stop) for each row i of an n x n matrix: its strict upper
    triangle ``[i, i + 1:]`` is ``[start:stop]`` of the pair vector."""
    for i in range(n - 1):
        start = i * (2 * n - i - 1) // 2
        yield i, start, start + n - 1 - i


@dataclass(frozen=True)
class SimilarityMatrix:
    ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        n = len(self.ids)
        if self.values.shape != (n, n):
            raise InputError(
                f"similarity shape {self.values.shape} does not match {n} ids"
            )
        # exact: the permutation nulls read each pair from one triangle
        if not all(np.array_equal(self.values[i0:i1, j0:j1],
                                  self.values[j0:j1, i0:i1].T)
                   for i0, i1, j0, j1 in _upper_tiles(n)):
            raise AnalysisError("similarity matrix is not exactly symmetric")

    @property
    def n_items(self) -> int:
        return len(self.ids)

    def pair_vector(self) -> np.ndarray:
        """Strict upper triangle in fixed (i < j) row-major order."""
        n = self.n_items
        out = np.empty(n * (n - 1) // 2, dtype=self.values.dtype)
        for i, start, stop in _upper_rows(n):
            out[start:stop] = self.values[i, i + 1:]
        return out

    # -- serialization ------------------------------------------------------

    def save_binary(self, path: str | Path) -> None:
        """Row-major float64 matrix next to a ``.ids`` sidecar."""
        path = Path(path)
        np.ascontiguousarray(self.values, dtype=np.float64).tofile(path)
        path.with_suffix(path.suffix + ".ids").write_text(
            "\n".join(self.ids) + "\n", encoding="utf-8")


def cosine_similarity_matrix(matrix: EmbeddingMatrix) -> SimilarityMatrix:
    """Pairwise cosine similarity; a zero-norm row is an AnalysisError,
    since its cosine is undefined. Mirroring the upper triangle makes it
    exactly symmetric on any BLAS; numpy's ``syrk`` product already is."""
    norms = np.linalg.norm(matrix.vectors, axis=1)
    if not norms.all():
        item = matrix.ids[int(np.argmin(norms))]
        raise AnalysisError(f"cosine similarity: {item!r} has a zero-norm vector")
    unit = matrix.vectors / norms[:, None]
    values = unit @ unit.T
    np.clip(values, -1.0, 1.0, out=values)
    _mirror_upper(values)
    np.fill_diagonal(values, 1.0)
    return SimilarityMatrix(ids=matrix.ids, values=values)
