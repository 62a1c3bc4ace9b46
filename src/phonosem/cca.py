"""Canonical correlation between the phonetic and semantic embedding
spaces, plus the loadings-based pole extraction used for interpretation.

The fit standardizes both matrices, adds a small ridge to each
within-space covariance block (the semantic dimensionality approaches
the sample size, so bare CCA is ill-conditioned), whitens via symmetric
eigendecomposition, and reads the canonical directions off an SVD of the
whitened cross-covariance. Signs are oriented so that the phonetic
loading of largest magnitude is positive in every component, which makes
reports and tests deterministic.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import EmbeddingMatrix
from .errors import AnalysisError
from .stats import (AlignmentResult, _summarize, permutation_test,
                    spearman_rho)

log = logging.getLogger(__name__)

DEFAULT_RIDGE = 1e-8


@dataclass(frozen=True)
class CcaModel:
    n_components: int
    weights_semantic: np.ndarray   # (dy, k), act on standardized columns
    scores_phonetic: np.ndarray    # (n, k)
    scores_semantic: np.ndarray    # (n, k)
    canonical_pearson: np.ndarray  # (k,)
    scale_semantic: np.ndarray     # (dy,)
    ridge: float

    @property
    def n_items(self) -> int:
        return self.scores_phonetic.shape[0]


def _standardize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    if np.any(scale <= 0.0):
        raise AnalysisError("constant column; CCA requires varying inputs")
    return (x - mean) / scale, scale


def _inv_sqrt(cov: np.ndarray, ridge: float) -> np.ndarray:
    cov = cov + ridge * np.eye(cov.shape[0])
    evals, evecs = np.linalg.eigh(cov)
    if evals[0] <= 0.0:
        raise AnalysisError("covariance not positive definite despite ridge")
    return evecs @ ((evecs / np.sqrt(evals)).T)


def _whitened_blocks(
    X: np.ndarray,
    Y: np.ndarray,
    n_components: int,
    ridge: float,
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Check a pair of per-item blocks and return, for X and then Y, the
    standardized block, its column scale, and its whitening matrix
    W = (C + ridge*I)^-1/2 of the within-block covariance C.

    A row permutation of Y leaves its scale and W unchanged, so a
    permuted refit needs only the cross-covariance anew.
    """
    xs = np.asarray(X, dtype=np.float64)
    ys = np.asarray(Y, dtype=np.float64)
    n = xs.shape[0]
    if ys.shape[0] != n:
        raise AnalysisError("X and Y row counts differ")
    dx, dy = xs.shape[1], ys.shape[1]
    if n_components > min(dx, dy):
        raise AnalysisError(
            f"n_components={n_components} exceeds min(dims)={min(dx, dy)}"
        )
    if n <= max(dx, dy):
        raise AnalysisError("need more items than the larger dimensionality")

    def whiten(block: np.ndarray) -> tuple[np.ndarray, ...]:
        z, scale = _standardize(block)
        return z, scale, _inv_sqrt(z.T @ z / n, ridge)
    return whiten(xs), whiten(ys)


def fit_cca(
    X: np.ndarray,
    Y: np.ndarray,
    n_components: int = 5,
    ridge: float = DEFAULT_RIDGE,
) -> CcaModel:
    """Fit ridge-stabilized CCA between two per-item matrices.

    X holds the phonetic space, Y the semantic space; rows must be the
    same items in the same order.
    """
    (xs, _, wx_white), (ys, sy, wy_white) = _whitened_blocks(
        X, Y, n_components, ridge)
    n = xs.shape[0]
    cxy = xs.T @ ys / n
    u, s, vt = np.linalg.svd(wx_white @ cxy @ wy_white, full_matrices=False)

    wx = wx_white @ u[:, :n_components]
    wy = wy_white @ vt[:n_components].T
    scores_x = xs @ wx
    scores_y = ys @ wy

    # orient each variate pair so the dominant phonetic loading is positive
    for c in range(n_components):
        loadings = structure_loadings(xs, scores_x[:, c])
        if loadings[np.argmax(np.abs(loadings))] < 0:
            wy[:, c] *= -1
            scores_x[:, c] *= -1
            scores_y[:, c] *= -1

    pearson = np.empty(n_components)
    for c in range(n_components):
        a, b = scores_x[:, c], scores_y[:, c]
        pearson[c] = np.dot(a - a.mean(), b - b.mean()) / (
            n * a.std() * b.std())

    return CcaModel(
        n_components=n_components,
        weights_semantic=wy,
        scores_phonetic=scores_x,
        scores_semantic=scores_y,
        canonical_pearson=pearson,
        scale_semantic=sy,
        ridge=ridge,
    )


def structure_loadings(original: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Pearson correlation of each original column with the variate scores.

    Constant columns get loading 0 (logged) rather than NaN.
    """
    x = np.asarray(original, dtype=np.float64)
    s = np.asarray(scores, dtype=np.float64)
    if x.shape[0] != s.shape[0]:
        raise AnalysisError("loadings: row counts differ")
    xc = x - x.mean(axis=0)
    sc = s - s.mean()
    denom = np.sqrt((xc ** 2).sum(axis=0)) * np.sqrt((sc ** 2).sum())
    out = np.zeros(x.shape[1])
    ok = denom > 0.0
    if not np.all(ok):
        log.warning("loadings: %d constant columns set to 0", int((~ok).sum()))
    out[ok] = (xc.T @ sc)[ok] / denom[ok]
    return np.clip(out, -1.0, 1.0)


def _rank_correlations(scores_x: np.ndarray, scores_y: np.ndarray) -> np.ndarray:
    """Spearman rho of each pair of variate score columns."""
    return np.array([spearman_rho(scores_x[:, c], scores_y[:, c])
                     for c in range(scores_x.shape[1])])


def canonical_rank_correlations(
    model: CcaModel,
    X: np.ndarray,
    Y: np.ndarray,
    n_shuffles: int = 1000,
    null_points: int = 500,
    seed: int = 0,
) -> list[AlignmentResult]:
    """Per-component Spearman correlation of the paired variate scores.

    Every shuffle permutes the item assignment of the semantic matrix and
    re-fits the CCA, so the null reflects the whole estimation pipeline.
    A refit differs from the observed fit only in its cross-covariance:
    each block's standardization and whitening are computed once, and
    each shuffle takes one d_x×d_y SVD. The variates are not oriented,
    since a rank correlation is the same when both of a pair flip sign.
    """
    k = model.n_components
    observed = _rank_correlations(model.scores_phonetic, model.scores_semantic)
    (xs, _, wx), (ys, _, wy) = _whitened_blocks(X, Y, k, model.ridge)
    n = xs.shape[0]
    xw = xs @ wx
    items = np.arange(n)
    inverse = np.empty(n, dtype=np.intp)

    def stat(perm: np.ndarray) -> np.ndarray:
        # Item i meets semantic row perm[i]. Moving the narrow phonetic
        # block by the inverse instead gives the same pairs.
        inverse[perm] = items
        xp = xw[inverse]
        u, _, vt = np.linalg.svd((xp.T @ ys) @ wy / n, full_matrices=False)
        return _rank_correlations(xp @ u[:, :k], ys @ (wy @ vt[:k].T))

    p, null = permutation_test(stat, observed, model.n_items, n_shuffles,
                               null_points, seed, "greater")
    return [_summarize(f"cca_cv{c + 1}", observed[c], null[:, c], p[c],
                       n_shuffles, seed, "greater")
            for c in range(k)]


# ---------------------------------------------------------------------------
# Pole extraction

@dataclass(frozen=True)
class PoleCandidates:
    """The candidate words of the semantic poles, in vocabulary order,
    with their vectors and the vectors' norms, none of them zero."""

    ids: np.ndarray
    vectors: np.ndarray
    norms: np.ndarray


def pole_candidates(vocabulary: EmbeddingMatrix) -> PoleCandidates:
    """Every word of ``vocabulary`` whose vector has a non-zero norm, as a
    pole candidate; a zero vector has no cosine with any direction. The
    caller picks the words: ``interpret`` loads the vectors of the
    lexicon words above ``zipf_cutoff`` alone
    (``pipeline.load_pole_candidates``)."""
    norms = np.linalg.norm(vocabulary.vectors, axis=1)
    keep = norms > 0.0
    return PoleCandidates(ids=np.array(vocabulary.ids, dtype=str)[keep],
                          vectors=vocabulary.vectors[keep], norms=norms[keep])


def _phonetic_poles(loadings: np.ndarray, feature_names: Sequence[str],
                    percentile: float, threshold: float) -> tuple[list, list]:
    """The features of the + pole and of the - pole, as records.

    For the + pole: among strictly positive loadings, keep those at or
    above the given percentile of the positive subset (linear
    interpolation) and at or above the absolute threshold. The - pole is
    the + pole of the negated loadings. Each lists signed loadings,
    sorted by |loading| descending, ties by feature name.
    """
    def pole(signed: np.ndarray) -> list[dict]:
        idx = np.flatnonzero(signed > 0)
        if idx.size == 0:
            return []
        mags = signed[idx]
        cut = np.percentile(mags, percentile)  # linear interpolation
        kept = sorted(((feature_names[i], float(loadings[i])) for i, m
                       in zip(idx, mags) if m >= cut and m >= threshold),
                      key=lambda t: (-abs(t[1]), t[0]))
        return [{"item": name, "value": value} for name, value in kept]
    return pole(loadings), pole(-loadings)


def _semantic_poles(model: CcaModel, component: int, candidates: PoleCandidates,
                    k: int) -> tuple[list, list]:
    """The k candidate words nearest in cosine to the + and to the -
    semantic pole direction, ties by word, as records.

    The + direction is the semantic weight vector mapped back to raw
    embedding coordinates (weights divided by the per-dimension
    standardization scale, so that raw-space projections reproduce the
    variate up to a constant); the - direction is its negation. Fewer
    than k candidates give fewer neighbours, with a warning.
    """
    direction = model.weights_semantic[:, component] / model.scale_semantic
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        raise AnalysisError("zero pole direction")
    n = candidates.ids.size
    if not n:
        log.warning("semantic pole: no candidates above the zipf cutoff")
        return [], []
    if n < k:
        log.warning("semantic pole: only %d candidates for k=%d", n, k)
    dots = candidates.vectors @ (direction / norm)

    def pole(cosines: np.ndarray) -> list[dict]:
        return [{"item": str(candidates.ids[j]), "value": float(cosines[j])}
                for j in np.lexsort((candidates.ids, -cosines))[:k]]
    # 0.0 - dots, as the product with the negated direction gives, where
    # -dots would turn the +0.0 cosine of an orthogonal candidate to -0.0
    return pole(dots / candidates.norms), pole((0.0 - dots) / candidates.norms)


def build_pole_report(
    model: CcaModel,
    component: int,
    phonetic_matrix: np.ndarray,
    feature_names: Sequence[str],
    candidates: PoleCandidates,
    k: int = 10,
    percentile: float = 75.0,
    threshold: float = 0.05,
) -> dict:
    """The ``poles.json`` record of one canonical variate (``component``
    is 0-based, the record's 1-based, matching report tables)."""
    if not 0 <= component < model.n_components:
        raise AnalysisError(f"component {component} out of range")
    loadings = structure_loadings(phonetic_matrix,
                                  model.scores_phonetic[:, component])
    phonetic_pos, phonetic_neg = _phonetic_poles(loadings, feature_names,
                                                 percentile, threshold)
    semantic_pos, semantic_neg = _semantic_poles(model, component, candidates, k)
    return {
        "component": component + 1,
        "phonetic_pos": phonetic_pos,
        "phonetic_neg": phonetic_neg,
        "semantic_pos": semantic_pos,
        "semantic_neg": semantic_neg,
        "interpretation_semantic": "",
        "interpretation_phonetic": "",
    }
