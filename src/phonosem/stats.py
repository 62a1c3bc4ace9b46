"""Alignment statistics and the shared permutation-testing engine.

The null model permutes item identities of the second space: one random
permutation is applied to both rows and columns of its similarity
matrix (or to one variable's values, for plain vector statistics). This
preserves each space's internal geometry while destroying the
cross-space correspondence under test.

Each shuffle draws its permutation from an independent substream seeded
by (seed, shuffle index), so results are identical regardless of
evaluation order or parallelism.

Whatever a permutation leaves unchanged is computed once per space by
:func:`prepare`: the pair ranks (RSA), the pair bin indices (MI) and
each row's top-k neighbours (kNN); the scale test ranks both coordinate
vectors once. Ranks are doubled integers (:func:`_doubled_ranks`) and
every rho, observed or null, goes through :func:`_rho`. The statistics
then read only that prepared content: B's ranks and bins are spread into
symmetric item-by-item matrices, and each shuffle is a gather plus a
reduction that gives the same bits as recomputing the statistic on the
permuted matrix. This relies on the permuted similarity matrix being
exactly symmetric, as :func:`~phonosem.phonetic.cosine_similarity_matrix`
makes it: a permuted pair vector then holds the same multiset of values.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Callable, Collection, Iterator, Sequence

import numpy as np

from .corpus import EmbeddingMatrix
from .errors import AnalysisError
from .phonetic import SimilarityMatrix, cosine_similarity_matrix

log = logging.getLogger(__name__)

NULL_QUANTILES = (0.025, 0.25, 0.5, 0.75, 0.975)
# Matrix elements one row block of a pair gather covers: small enough that
# each block's temporaries reuse freed heap memory; blocks of a few MB are
# mapped afresh each time, and their page faults cost more than the gather.
_BLOCK_ELEMENTS = 1 << 16


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
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise AnalysisError("spearman_rho needs finite values")
    return _rho(_centered(_doubled_ranks(x)), _centered(_doubled_ranks(y)))


def _doubled_ranks(x: np.ndarray) -> np.ndarray:
    """Twice the 1-based midranks of finite values (``2 *
    scipy.stats.rankdata``), as float64: a tie group of m values at
    0-based sorted position s gets 2s + m + 1, an exact integer."""
    order = np.argsort(x)
    xs = x[order]
    new = np.empty(x.size, dtype=bool)
    new[:1] = True
    np.not_equal(xs[1:], xs[:-1], out=new[1:])
    del xs
    starts = np.flatnonzero(new)
    del new
    sizes = np.diff(starts, append=x.size)
    doubled = starts * 2.0
    del starts
    doubled += sizes
    doubled += 1.0
    in_order = np.repeat(doubled, sizes)
    del doubled, sizes
    ranks = np.empty(x.size)
    ranks[order] = in_order
    return ranks


def _centered(doubled: np.ndarray) -> np.ndarray:
    """Doubled ranks minus their mean n + 1, as float64 (exactly twice the
    centred midranks; an exact centre keeps rho antisymmetric)."""
    return np.subtract(doubled, doubled.size + 1, dtype=np.float64)


def _rho(cx: np.ndarray, cy: np.ndarray) -> float:
    """Spearman's rho of two centred doubled-rank vectors, clipped to [-1, 1]."""
    if cx.size < 3:
        raise AnalysisError(f"spearman_rho needs >= 3 points, got {cx.size}")
    denom = float(np.sqrt(np.dot(cx, cx) * np.dot(cy, cy)))
    if denom == 0.0:
        raise AnalysisError("spearman_rho undefined for a constant vector")
    return min(1.0, max(-1.0, float(np.dot(cx, cy) / denom)))


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
    codes = _bins(x, bins) * bins + _bins(y, bins)
    return _mi_bits(np.bincount(codes, minlength=bins * bins), bins)


def _bins(values: np.ndarray, bins: int) -> np.ndarray:
    """0-based bin of each finite value among ``bins`` equal-width bins
    over [min, max], edges drawn as ``np.histogram2d`` draws them; the
    top bin is right-closed, and a constant vector gets [v - 0.5, v + 0.5]."""
    if not np.all(np.isfinite(values)):
        raise AnalysisError("mutual information needs finite values")
    if values.size < bins:
        raise AnalysisError(f"need at least bins={bins} samples, got {values.size}")
    lo, hi = values.min(), values.max()
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, bins + 1)
    idx = np.searchsorted(edges, values, side="right")
    idx[values == edges[-1]] -= 1
    idx -= 1
    return idx


def _mi_bits(counts: np.ndarray, bins: int) -> float:
    """Plug-in MI of a joint histogram given as flat bin counts."""
    joint = counts.reshape(bins, bins).astype(np.float64)
    pxy = joint / joint.sum()
    px = pxy.sum(axis=1)
    py = pxy.sum(axis=0)
    nz = pxy > 0
    mi = float(np.sum(pxy[nz] * np.log2(pxy[nz] / np.outer(px, py)[nz])))
    return max(0.0, mi)


def _top_k(values: np.ndarray, k: int) -> tuple[np.ndarray, list]:
    """Each row's k most similar other items, ties broken by ascending
    item index (as a stable sort on descending similarity breaks them).

    Returns an n x k array of neighbour indices, unordered within a row,
    and the tie rows: ``(row, above, tied)`` for each row whose k-th and
    (k+1)-th most similar items are equally similar, where ``above`` are
    the items more similar than the k-th and ``tied`` the items as
    similar. Only on those rows does relabelling the items change which
    of them the tie-break keeps (see :func:`_break_ties`).
    """
    n = values.shape[0]
    nb = np.empty((n, k), dtype=np.intp)
    ties = []
    for i0, i1 in _row_blocks(n):
        rows = np.arange(i1 - i0)
        neg = -values[i0:i1]
        neg[rows, rows + i0] = np.inf  # self sorts last
        part = np.argpartition(neg, (k - 1, k), axis=1)
        nb[i0:i1] = part[:, :k]
        kth = np.take_along_axis(neg, part[:, k - 1:k + 1], axis=1)
        for t in np.flatnonzero(kth[:, 0] == kth[:, 1]):
            ties.append((i0 + int(t), np.flatnonzero(neg[t] < kth[t, 0]),
                         np.flatnonzero(neg[t] == kth[t, 0])))
    _break_ties(nb, ties, np.arange(n), k)
    return nb, ties


def _break_ties(nb: np.ndarray, ties: list, inv: np.ndarray, k: int) -> None:
    """Fill the tie rows of ``nb``, whose items are relabelled by ``inv``
    (row ``r`` becomes row ``inv[r]``): the items above the tie, then the
    tied items with the smallest new labels."""
    for r, above, tied in ties:
        row = nb[inv[r]]
        row[:above.size] = inv[above]
        row[above.size:] = np.sort(inv[tied])[:k - above.size]


def _mean_overlap(na: np.ndarray, nb: np.ndarray, k: int) -> float:
    """Mean over rows of |na[i] & nb[i]| / k, for rows of distinct items."""
    both = np.sort(np.concatenate((na, nb), axis=1), axis=1)
    shared = np.count_nonzero(both[:, 1:] == both[:, :-1], axis=1)
    return float(np.mean(shared / k))


# ---------------------------------------------------------------------------
# Pair gathers

def _row_blocks(n: int) -> Iterator[tuple[int, int]]:
    """(start, stop) row ranges covering about ``_BLOCK_ELEMENTS``
    elements of an n x n matrix each."""
    step = max(1, _BLOCK_ELEMENTS // max(n, 1))
    for i0 in range(0, n, step):
        yield i0, min(n, i0 + step)


def _permuted_pairs(matrix: np.ndarray, perm: np.ndarray) -> Iterator[np.ndarray]:
    """The pair vector of ``matrix[perm][:, perm]`` (strict upper
    triangle, row-major), one row block at a time."""
    n = perm.size
    for i0, i1 in _row_blocks(n):
        block = matrix.take(perm[i0:i1], axis=0).take(perm[i0 + 1:], axis=1)
        yield block[np.arange(n - i0 - 1) >= np.arange(i1 - i0)[:, None]]


def _symmetric(pairs: np.ndarray, n: int) -> np.ndarray:
    """The symmetric n x n matrix with a zero diagonal whose pair vector
    is ``pairs``."""
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    out = np.zeros((n, n), dtype=pairs.dtype)
    out[upper] = pairs
    out.T[upper] = pairs
    return out


# ---------------------------------------------------------------------------
# Permutation engine

def shuffle_rng(seed: int, index: int) -> np.random.Generator:
    """Independent deterministic substream for one shuffle."""
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, index])


def permutation_pvalue(
    observed: float | np.ndarray, null_sample: np.ndarray, alternative: str
) -> float | np.ndarray:
    """Add-one permutation p-value; never 0, never above 1. A null
    sample of shape (m, k) gives one p per column."""
    m = null_sample.shape[0]
    if alternative == "greater":
        hits = np.sum(null_sample >= observed, axis=0)
    elif alternative == "two-sided":
        hits = np.sum(np.abs(null_sample) >= np.abs(observed), axis=0)
    else:
        raise AnalysisError(f"unknown alternative {alternative!r}")
    p = (1 + hits) / (1 + m)
    return p if np.ndim(p) else float(p)


def permutation_test(
    statistic: Callable[[np.ndarray], float | np.ndarray],
    observed: float | np.ndarray,
    n_items: int,
    n_shuffles: int = 1000,
    null_points: int = 500,
    seed: int = 0,
    alternative: str = "greater",
) -> tuple[float | np.ndarray, np.ndarray]:
    """Recompute ``statistic`` under random item permutations.

    ``statistic`` receives one permutation of ``range(n_items)`` per
    shuffle and returns a scalar or, like ``observed``, k values tested
    one by one. Shuffle i draws its permutation from (seed, i) alone.
    Only the first ``null_points`` shuffles are drawn; they are the null
    sample, and ``n_shuffles``, which callers record, bounds it. p uses
    the add-one rule on that sample (per column for k values). Progress
    (shuffles done, rate, time left) is logged at INFO each time another
    tenth is done.
    """
    if not 1 <= null_points <= n_shuffles:
        raise AnalysisError(
            f"null_points={null_points} outside 1..n_shuffles={n_shuffles}")
    null = np.empty((null_points,) + np.shape(observed), dtype=np.float64)
    start = time.perf_counter()
    for i in range(null_points):
        perm = shuffle_rng(seed, i).permutation(n_items)
        null[i] = statistic(perm)
        if (i + 1) * 10 // null_points > i * 10 // null_points:
            elapsed = time.perf_counter() - start
            rate = (i + 1) / elapsed if elapsed > 0 else float("inf")
            log.info("permutation test: %d/%d shuffles, %.1f/s, ETA %.1f s",
                     i + 1, null_points, rate, (null_points - i - 1) / rate)
    return permutation_pvalue(observed, null, alternative), null


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
# Prepared spaces

@dataclass(frozen=True)
class PreparedSpace:
    """What the similarity statistics read of one space, computed once by
    :func:`prepare`; an item permutation leaves all of it unchanged.

    ``doubled_ranks`` (RSA) holds twice the midranks of the pair vector
    (integers) in the smallest unsigned dtype that fits them;
    ``bin_index`` (MI) holds each pair's bin among ``bins`` equal-width
    bins; ``neighbours`` and ``ties`` (kNN) hold each row's top-``k``
    items and the rows tied at the k-th, as :func:`_top_k` returns them.
    Content that no analysis in ``analyses`` reads is None.
    """

    ids: tuple[str, ...]
    analyses: frozenset[str]
    bins: int
    k: int
    doubled_ranks: np.ndarray | None
    bin_index: np.ndarray | None
    neighbours: np.ndarray | None
    ties: list | None

    @property
    def n_items(self) -> int:
        return len(self.ids)


def prepare(
    space: EmbeddingMatrix | SimilarityMatrix,
    analyses: Collection[str],
    bins: int = 20,
    k: int = 10,
) -> PreparedSpace:
    """The content that ``analyses`` (any of "rsa", "mi", "knn") read of
    one similarity space, computed once.

    An :class:`EmbeddingMatrix` gets its cosine similarity matrix built
    here, and that n x n float64 matrix is freed as soon as the kNN lists
    and the one pair vector are taken from it: the doubled ranks and bin
    indices are derived from the pair vector alone.
    """
    analyses = frozenset(analyses)
    sim = (cosine_similarity_matrix(space) if isinstance(space, EmbeddingMatrix)
           else space)
    ids = sim.ids
    pairs = neighbours = ties = None
    if analyses & {"rsa", "mi"}:
        pairs = sim.pair_vector()
    if "knn" in analyses:
        if len(ids) <= k:
            raise AnalysisError(
                f"kNN overlap needs more than k={k} items, got {len(ids)}")
        neighbours, ties = _top_k(sim.values, k)
    del sim
    bin_index = doubled_ranks = None
    if "mi" in analyses:
        bin_index = _bins(pairs, bins).astype(np.min_scalar_type(bins - 1))
    if "rsa" in analyses:
        ranks = _doubled_ranks(pairs)
        del pairs
        doubled_ranks = ranks.astype(np.min_scalar_type(2 * ranks.size))
    return PreparedSpace(ids=ids, analyses=analyses, bins=bins, k=k,
                         doubled_ranks=doubled_ranks, bin_index=bin_index,
                         neighbours=neighbours, ties=ties)


def _prepared(space: SimilarityMatrix | PreparedSpace, analysis: str,
              **params) -> PreparedSpace:
    """``space`` prepared for ``analysis`` with ``params``: a similarity
    matrix is prepared here, a prepared space must have been."""
    if not isinstance(space, PreparedSpace):
        return prepare(space, (analysis,), **params)
    if analysis not in space.analyses or any(
            getattr(space, name) != value for name, value in params.items()):
        raise AnalysisError(f"space was not prepared for {analysis} with {params}")
    return space


# ---------------------------------------------------------------------------
# Matrix-level alignment tests

def _check_same_items(sim_a, sim_b) -> None:
    if sim_a.ids != sim_b.ids:
        raise AnalysisError("similarity matrices cover different item sets")


def rsa(
    sim_a: SimilarityMatrix | PreparedSpace,
    sim_b: SimilarityMatrix | PreparedSpace,
    n_shuffles: int = 1000,
    null_points: int = 500,
    seed: int = 0,
) -> AlignmentResult:
    """Spearman correlation of the two pair vectors, permutation-tested.

    The ranks of a permuted pair vector are the permuted ranks, so a
    shuffle gathers B's prepared doubled ranks, spread into a symmetric
    matrix, in permuted pair order and centres them in one reused buffer.
    """
    _check_same_items(sim_a, sim_b)
    a, b = _prepared(sim_a, "rsa"), _prepared(sim_b, "rsa")
    # A's ranks are centred once, B's in one reused buffer
    centered_a = _centered(a.doubled_ranks)
    centered_b = _centered(b.doubled_ranks)
    observed = _rho(centered_a, centered_b)
    doubled_b = _symmetric(b.doubled_ranks, b.n_items)
    shift = centered_b.size + 1

    def stat(perm: np.ndarray) -> float:
        start = 0
        for block in _permuted_pairs(doubled_b, perm):
            np.subtract(block, shift, out=centered_b[start:start + block.size],
                        dtype=np.float64)
            start += block.size
        return _rho(centered_a, centered_b)

    p, null = permutation_test(stat, observed, a.n_items, n_shuffles,
                               null_points, seed, "greater")
    return _summarize("rsa", observed, null, p, n_shuffles, seed, "greater")


def mi_alignment(
    sim_a: SimilarityMatrix | PreparedSpace,
    sim_b: SimilarityMatrix | PreparedSpace,
    bins: int = 20,
    n_shuffles: int = 1000,
    null_points: int = 500,
    seed: int = 0,
) -> AlignmentResult:
    """Binned MI between the two pair vectors with an item-identity null.

    Bin edges depend only on each pair vector's value set, so every
    pair's bin is prepared once (B's spread into a symmetric matrix); a
    shuffle counts the gathered joint bins.
    """
    _check_same_items(sim_a, sim_b)
    a = _prepared(sim_a, "mi", bins=bins)
    b = _prepared(sim_b, "mi", bins=bins)
    n = a.n_items
    cells = bins * bins
    codes_a = a.bin_index.astype(np.min_scalar_type(cells - 1))
    codes_a *= bins
    bins_b = _symmetric(b.bin_index, n)

    def stat(perm: np.ndarray) -> float:
        counts = np.zeros(cells, dtype=np.intp)
        start = 0
        for pairs in _permuted_pairs(bins_b, perm):
            counts += np.bincount(codes_a[start:start + pairs.size] + pairs,
                                  minlength=cells)
            start += pairs.size
        return _mi_bits(counts, bins)

    observed = stat(np.arange(n))
    p, null = permutation_test(stat, observed, n, n_shuffles, null_points,
                               seed, "greater")
    return _summarize("mutual_information", observed, null, p, n_shuffles,
                      seed, "greater",
                      notes=("computed on pair vectors",))


def knn_overlap(
    sim_a: SimilarityMatrix | PreparedSpace,
    sim_b: SimilarityMatrix | PreparedSpace,
    k: int = 10,
    n_shuffles: int = 1000,
    null_points: int = 500,
    seed: int = 0,
) -> AlignmentResult:
    """Mean k-nearest-neighbor overlap with an item-identity null.

    Both spaces' top-k lists are prepared once; a shuffle relabels B's
    lists and redoes the tie-break only on rows tied at the k-th
    neighbour, where it depends on the labels.
    """
    _check_same_items(sim_a, sim_b)
    a, b = _prepared(sim_a, "knn", k=k), _prepared(sim_b, "knn", k=k)
    n = a.n_items
    na, nb, ties = a.neighbours, b.neighbours, b.ties
    observed = _mean_overlap(na, nb, k)

    def stat(perm: np.ndarray) -> float:
        inv = np.empty_like(perm)
        inv[perm] = np.arange(n)
        nb_perm = inv[nb[perm]]
        _break_ties(nb_perm, ties, inv, k)
        return _mean_overlap(na, nb_perm, k)

    p, null = permutation_test(stat, observed, n, n_shuffles, null_points,
                               seed, "greater")
    return _summarize("knn_overlap", observed, null, p, n_shuffles, seed, "greater")
