"""Alignment statistics and the shared permutation-testing engine.

The null model permutes item identities of the second space: one random
permutation is applied to both rows and columns of its similarity
matrix (or to one variable's values, for plain vector statistics). This
preserves each space's internal geometry while destroying the
cross-space correspondence under test.

Each shuffle draws its permutation from an independent substream seeded
by (seed, shuffle index), so results are identical regardless of
evaluation order or parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.stats import rankdata

from .errors import AnalysisError
from .phonetic import SimilarityMatrix

NULL_QUANTILES = (0.025, 0.25, 0.5, 0.75, 0.975)


def stars(p: float) -> str:
    """Significance stars at the conventional strict thresholds."""
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


@dataclass(frozen=True)
class AlignmentResult:
    statistic: str
    value: float
    p_value: float
    null_mean: float
    null_sd: float
    null_quantiles: dict[float, float]
    n_shuffles: int
    null_points: int
    seed: int
    alternative: str
    notes: tuple[str, ...] = ()

    @property
    def stars(self) -> str:
        return stars(self.p_value)

    def to_record(self) -> dict:
        return {
            "statistic": self.statistic,
            "value": self.value,
            "p": self.p_value,
            "stars": self.stars,
            "null": {
                "mean": self.null_mean,
                "sd": self.null_sd,
                "quantiles": {str(q): v for q, v in self.null_quantiles.items()},
            },
            "n_shuffles": self.n_shuffles,
            "null_points": self.null_points,
            "seed": self.seed,
            "alternative": self.alternative,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# Core statistics

def spearman_rho(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman correlation: Pearson over midranks (average tie ranks)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise AnalysisError("spearman_rho needs two 1-D vectors of equal length")
    if x.size < 3:
        raise AnalysisError(f"spearman_rho needs >= 3 points, got {x.size}")
    rho = _rho_of_ranks(rankdata(x), rankdata(y))
    return float(min(1.0, max(-1.0, rho)))


def _rho_of_ranks(rx: np.ndarray, ry: np.ndarray) -> float:
    # midranks always average exactly (n+1)/2; centering analytically keeps
    # rho exactly antisymmetric under rank reversal
    center = (rx.size + 1) / 2.0
    cx = rx - center
    cy = ry - center
    denom = float(np.sqrt(np.dot(cx, cx) * np.dot(cy, cy)))
    if denom == 0.0:
        raise AnalysisError("spearman_rho undefined for a constant vector")
    return float(np.dot(cx, cy) / denom)


def mutual_information_value(
    x: np.ndarray, y: np.ndarray, bins: int = 20
) -> float:
    """Plug-in mutual information in bits over equal-width bins.

    Bins span each variable's observed [min, max]; the top bin is
    right-closed. A constant variable occupies a single bin and yields
    0 bits by convention.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise AnalysisError("mutual information needs two 1-D vectors of equal length")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise AnalysisError("mutual information needs finite values")
    if x.size < bins:
        raise AnalysisError(f"need at least bins={bins} samples, got {x.size}")
    joint, _, _ = np.histogram2d(x, y, bins=bins)
    pxy = joint / joint.sum()
    px = pxy.sum(axis=1)
    py = pxy.sum(axis=0)
    nz = pxy > 0
    mi = float(np.sum(pxy[nz] * np.log2(pxy[nz] / np.outer(px, py)[nz])))
    return max(0.0, mi)


def _neighbor_sets(sim: SimilarityMatrix, k: int) -> list[frozenset[int]]:
    """Top-k most similar other items per item; ties broken by ascending
    item index (stable sort on descending similarity)."""
    n = sim.n_items
    out = []
    for i in range(n):
        row = sim.values[i].copy()
        row[i] = -np.inf  # exclude self
        order = np.argsort(-row, kind="stable")
        out.append(frozenset(order[:k].tolist()))
    return out


def knn_overlap_value(sim_a: SimilarityMatrix, sim_b: SimilarityMatrix, k: int = 10) -> float:
    """Mean proportion of shared k-nearest neighbors across items."""
    if sim_a.ids != sim_b.ids:
        raise AnalysisError("kNN overlap: item ids differ between spaces")
    n = sim_a.n_items
    if n <= k:
        raise AnalysisError(f"kNN overlap needs more than k={k} items, got {n}")
    na = _neighbor_sets(sim_a, k)
    nb = _neighbor_sets(sim_b, k)
    return float(np.mean([len(a & b) / k for a, b in zip(na, nb)]))


# ---------------------------------------------------------------------------
# Permutation engine

def shuffle_rng(seed: int, index: int) -> np.random.Generator:
    """Independent deterministic substream for one shuffle."""
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, index])


def permutation_pvalue(
    observed: float, null_sample: np.ndarray, alternative: str
) -> float:
    """Add-one permutation p-value; never 0, never above 1."""
    m = null_sample.size
    if alternative == "greater":
        hits = int(np.sum(null_sample >= observed))
    elif alternative == "two-sided":
        hits = int(np.sum(np.abs(null_sample) >= abs(observed)))
    else:
        raise AnalysisError(f"unknown alternative {alternative!r}")
    return (1 + hits) / (1 + m)


def permutation_test(
    statistic: Callable[[np.ndarray], float],
    observed: float,
    n_items: int,
    n_shuffles: int = 1000,
    null_points: int = 500,
    seed: int = 0,
    alternative: str = "greater",
) -> tuple[float, np.ndarray]:
    """Recompute ``statistic`` under random item permutations.

    ``statistic`` receives one permutation of ``range(n_items)`` per
    shuffle. The null sample is the first ``null_points`` shuffle values;
    p uses the add-one rule on that sample.
    """
    if n_shuffles < 1:
        raise AnalysisError("n_shuffles must be >= 1")
    if null_points > n_shuffles:
        raise AnalysisError(
            f"null_points={null_points} exceeds n_shuffles={n_shuffles}"
        )
    null = np.empty(n_shuffles, dtype=np.float64)
    for i in range(n_shuffles):
        perm = shuffle_rng(seed, i).permutation(n_items)
        null[i] = statistic(perm)
    null_sample = null[:null_points]
    p = permutation_pvalue(observed, null_sample, alternative)
    return p, null_sample


def _summarize(
    name: str,
    observed: float,
    null_sample: np.ndarray,
    p: float,
    n_shuffles: int,
    seed: int,
    alternative: str,
    notes: Sequence[str] = (),
) -> AlignmentResult:
    return AlignmentResult(
        statistic=name,
        value=float(observed),
        p_value=float(p),
        null_mean=float(null_sample.mean()),
        null_sd=float(null_sample.std()),
        null_quantiles={q: float(np.quantile(null_sample, q)) for q in NULL_QUANTILES},
        n_shuffles=n_shuffles,
        null_points=int(null_sample.size),
        seed=seed,
        alternative=alternative,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Matrix-level alignment tests

def _check_same_items(sim_a: SimilarityMatrix, sim_b: SimilarityMatrix) -> None:
    if sim_a.ids != sim_b.ids:
        raise AnalysisError("similarity matrices cover different item sets")


def rsa(
    sim_a: SimilarityMatrix,
    sim_b: SimilarityMatrix,
    n_shuffles: int = 1000,
    null_points: int = 500,
    seed: int = 0,
) -> AlignmentResult:
    """Spearman correlation of the two pair vectors, permutation-tested."""
    _check_same_items(sim_a, sim_b)
    tri_a = sim_a.pair_vector()
    n = sim_a.n_items
    observed = spearman_rho(tri_a, sim_b.pair_vector())
    rank_a = rankdata(tri_a)

    def stat(perm: np.ndarray) -> float:
        tri = sim_b.values[np.ix_(perm, perm)][np.triu_indices(n, k=1)]
        return _rho_of_ranks(rank_a, rankdata(tri))

    p, null = permutation_test(stat, observed, n, n_shuffles, null_points,
                               seed, "greater")
    return _summarize("rsa", observed, null, p, n_shuffles, seed, "greater")


def mi_alignment(
    sim_a: SimilarityMatrix,
    sim_b: SimilarityMatrix,
    bins: int = 20,
    n_shuffles: int = 1000,
    null_points: int = 500,
    seed: int = 0,
) -> AlignmentResult:
    """Binned MI between the two pair vectors with an item-identity null."""
    _check_same_items(sim_a, sim_b)
    tri_a = sim_a.pair_vector()
    n = sim_a.n_items
    observed = mutual_information_value(tri_a, sim_b.pair_vector(), bins=bins)

    def stat(perm: np.ndarray) -> float:
        tri = sim_b.values[np.ix_(perm, perm)][np.triu_indices(n, k=1)]
        return mutual_information_value(tri_a, tri, bins=bins)

    p, null = permutation_test(stat, observed, n, n_shuffles, null_points,
                               seed, "greater")
    return _summarize("mutual_information", observed, null, p, n_shuffles,
                      seed, "greater",
                      notes=("computed on pair vectors",))


def knn_overlap(
    sim_a: SimilarityMatrix,
    sim_b: SimilarityMatrix,
    k: int = 10,
    n_shuffles: int = 1000,
    null_points: int = 500,
    seed: int = 0,
) -> AlignmentResult:
    """Mean k-nearest-neighbor overlap with an item-identity null."""
    _check_same_items(sim_a, sim_b)
    observed = knn_overlap_value(sim_a, sim_b, k=k)
    na = _neighbor_sets(sim_a, k)
    values_b = sim_b.values
    n = sim_a.n_items

    def stat(perm: np.ndarray) -> float:
        permuted = SimilarityMatrix(ids=sim_a.ids,
                                    values=values_b[np.ix_(perm, perm)])
        nb = _neighbor_sets(permuted, k)
        return float(np.mean([len(a & b) / k for a, b in zip(na, nb)]))

    p, null = permutation_test(stat, observed, n, n_shuffles, null_points,
                               seed, "greater")
    return _summarize("knn_overlap", observed, null, p, n_shuffles, seed, "greater")
