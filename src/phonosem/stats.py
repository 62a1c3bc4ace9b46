"""Alignment statistics and the shared permutation-testing engine.

The null model permutes item identities of the second space: one random
permutation is applied to both rows and columns of its similarity
matrix (or to one variable's values, for plain vector statistics). This
preserves each space's internal geometry while destroying the
cross-space correspondence under test.

Each shuffle draws its permutation from an independent substream seeded
by (seed, shuffle index), so results are identical regardless of
evaluation order or parallelism. The seed words of a null's shuffles are
hashed in one pass, as NumPy's SeedSequence would hash each of them.

Whatever a permutation leaves unchanged is computed once per space by
:func:`prepare`: the pair ranks (RSA), the pair bin indices (MI) and
each row's top-k neighbours (kNN); the scale test ranks both coordinate
vectors once. Ranks are doubled integers (:func:`_doubled_ranks`) and
every rho, observed or null, goes through :func:`_rho`. The statistics
then read only that prepared content: each observed value is reduced
from it as prepared, B's ranks and bins are spread into symmetric
item-by-item matrices, and each shuffle is a gather plus a
reduction that gives the same bits as recomputing the statistic on the
permuted matrix. This relies on the permuted similarity matrix being
exactly symmetric, as :func:`~phonosem.phonetic.cosine_similarity_matrix`
makes it by mirroring its upper triangle: a permuted pair vector then
holds the same multiset of values.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Callable, Collection, Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .corpus import EmbeddingMatrix
from .errors import AnalysisError
from .phonetic import (SimilarityMatrix, _mirror_upper, _upper_rows,
                       cosine_similarity_matrix)

log = logging.getLogger(__name__)

NULL_QUANTILES = (0.025, 0.25, 0.5, 0.75, 0.975)
# Elements one block of any blocked loop covers (see _row_blocks): small
# enough that each block's temporaries reuse freed heap memory; blocks of
# a few MB are mapped afresh each time, and their page faults cost more
# than the work.
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


def _sort(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, x[order])`` of a float64 vector: an order that sorts
    ``x``, and ``x`` sorted, with NaNs at the ends.

    One in-place sort of 64-bit words. Each word is the value's
    order-preserving key (every bit of a negative value flipped, the
    sign bit of any other set) with its low b bits replaced by the
    item's index, b bits being enough for any index. Distinct values
    that share the rest of their key come out in index order; only the
    key runs holding such a pair are re-sorted by value
    (:func:`_sort_runs`). Exact ties, and -0.0 beside +0.0, may come out
    in any order, which neither the tie groups nor the bins read. Keys
    and the sorted copy are built a chunk at a time, so besides ``x`` the
    sort holds two arrays of its length: the words, which become the
    order, and the sorted copy.
    """
    n = x.size
    bits = max(n - 1, 0).bit_length()
    low = (1 << bits) - 1
    words = np.empty(n, dtype=np.uint64)
    signed, keys = x.view(np.int64), words.view(np.int64)
    for c0, c1 in _row_blocks(n, 1):
        key = keys[c0:c1]
        np.right_shift(signed[c0:c1], 63, out=key)  # all ones if negative
        key |= -1 << 63
        key ^= signed[c0:c1]
        key &= ~low
        key |= np.arange(c0, c1)
    words.sort()
    xs = np.empty(n)
    items = np.empty(min(n, _BLOCK_ELEMENTS), dtype=np.int64)
    for c0, c1 in _row_blocks(n, 1):
        np.bitwise_and(keys[c0:c1], low, out=items[:c1 - c0])
        # every index is in range; "clip" writes to out without a buffer
        x.take(items[:c1 - c0], out=xs[c0:c1], mode="clip")
    _sort_runs(words, xs, bits)
    keys &= low
    return keys, xs


def _row_blocks(rows: int, width: int) -> Iterator[tuple[int, int]]:
    """(start, stop) ranges covering ``rows`` rows of ``width`` elements,
    each about ``_BLOCK_ELEMENTS`` elements (at least one row)."""
    step = max(1, _BLOCK_ELEMENTS // max(width, 1))
    for r0 in range(0, rows, step):
        yield r0, min(rows, r0 + step)


def _sort_runs(words: np.ndarray, xs: np.ndarray, bits: int) -> None:
    """Finish :func:`_sort`: re-sort by value, one chunk of ``xs`` at a
    time, every key run (words whose bits above the low ``bits`` agree)
    that holds a descent of ``xs``, and move ``words`` along.

    Words of different runs are in value order, so a descent lies inside
    one run, and the runs a chunk touches, taken together, sort as one
    array. Sorting runs by value keeps the bits above ``bits`` in order,
    so a binary search of the words still finds each run's edges. A run
    longer than a chunk is re-sorted with temporaries of its own length.
    """
    shift = np.uint64(bits)
    low = np.uint64((1 << bits) - 1)
    start, last = 0, xs.size - 1
    while start < last:
        stop = min(start + _BLOCK_ELEMENTS, last)
        down = np.flatnonzero(xs[start + 1:stop + 1] < xs[start:stop])
        if down.size:
            runs = words[start + down] >> shift << shift
            runs = runs[_tie_starts(runs)]
            # search all runs' edges within the first and last runs' span,
            # which is cache-sized unless a run is longer than a chunk
            w0 = int(np.searchsorted(words, runs[0], side="left"))
            span = words[w0:np.searchsorted(words, runs[-1] | low, side="right")]
            lo = np.searchsorted(span, runs, side="left") + w0
            hi = np.searchsorted(span, runs | low, side="right") + w0
            # the positions of those runs, one after another
            sizes = hi - lo
            before = np.cumsum(sizes) - sizes
            at = np.arange(sizes.sum()) + np.repeat(lo - before, sizes)
            by_value = np.argsort(xs[at])
            xs[at] = xs[at][by_value]
            words[at] = words[at][by_value]
            stop = max(stop, int(hi[-1]))
        start = stop


def _doubled_ranks(x: np.ndarray) -> np.ndarray:
    """Twice the 1-based midranks of finite values (``2 *
    scipy.stats.rankdata``), in the smallest unsigned dtype that holds
    2n."""
    order, xs = _sort(x)
    return _tie_doubled_ranks(order, _tie_starts(xs))


def _tie_starts(xs: np.ndarray) -> np.ndarray:
    """The position of each tie group's first value in the sorted ``xs``."""
    return np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))


def _tie_doubled_ranks(order: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """:func:`_doubled_ranks` of ``x`` from its sort order and tie groups:
    a group of m values at 0-based sorted position s gets 2s + m + 1, an
    exact integer, written over ``starts`` to hold one array less and
    spread in the rank dtype; without ties that is 2s + 2."""
    n = order.size
    ranks = np.empty(n, dtype=np.min_scalar_type(2 * n))
    if starts.size == n:
        ranks[order] = np.arange(2, 2 * n + 1, 2, dtype=ranks.dtype)
        return ranks
    sizes = np.diff(starts, append=n)
    starts *= 2
    starts += sizes
    starts += 1
    ranks[order] = np.repeat(starts.astype(ranks.dtype), sizes)
    return ranks


def _centered(doubled: np.ndarray) -> np.ndarray:
    """Doubled ranks minus their mean n + 1, as float64 (exactly twice the
    centred midranks; an exact centre keeps rho antisymmetric)."""
    return np.subtract(doubled, doubled.size + 1, dtype=np.float64)


def _rho(cx: np.ndarray, cy: np.ndarray, xx: float | None = None) -> float:
    """Spearman's rho of two centred doubled-rank vectors, clipped to
    [-1, 1]; ``xx``, when given, is ``np.dot(cx, cx)`` taken once by a
    caller whose ``cx`` is fixed."""
    if cx.size < 3:
        raise AnalysisError(f"spearman_rho needs >= 3 points, got {cx.size}")
    if xx is None:
        xx = np.dot(cx, cx)
    denom = float(np.sqrt(xx * np.dot(cy, cy)))
    if denom == 0.0:
        raise AnalysisError("spearman_rho undefined for a constant vector")
    return min(1.0, max(-1.0, float(np.dot(cx, cy) / denom)))


def _sorted_bins(order: np.ndarray, xs: np.ndarray, bins: int) -> np.ndarray:
    """0-based bin of each finite value of ``x`` among ``bins`` equal-width
    bins over [min, max], from its sort ``(order, xs)``; edges drawn as
    ``np.histogram2d`` draws them, the top bin right-closed, and a
    constant vector gets [v - 0.5, v + 0.5]."""
    if xs.size and not (np.isfinite(xs[0]) and np.isfinite(xs[-1])):
        raise AnalysisError("mutual information needs finite values")
    if xs.size < bins:
        raise AnalysisError(f"need at least bins={bins} samples, got {xs.size}")
    lo, hi = xs[0], xs[-1]
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, bins + 1)
    # a value's bin is the number of inner edges at or below it
    cuts = np.searchsorted(xs, edges[1:-1], side="left")
    idx = np.empty(xs.size, dtype=np.min_scalar_type(bins - 1))
    idx[order] = np.repeat(np.arange(bins, dtype=idx.dtype),
                           np.diff(cuts, prepend=0, append=xs.size))
    return idx


def _mi_bits(counts: np.ndarray, bins: int) -> float:
    """Plug-in MI of a joint histogram given as flat bin counts; exactly 0
    when a variable fills one bin, which only a constant one does."""
    joint = counts.reshape(bins, bins).astype(np.float64)
    pxy = joint / joint.sum()
    px = pxy.sum(axis=1)
    py = pxy.sum(axis=0)
    if np.count_nonzero(px) == 1 or np.count_nonzero(py) == 1:
        return 0.0
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
    for i0, i1 in _row_blocks(n, n):
        rows = np.arange(i1 - i0)
        neg = -values[i0:i1]
        neg[rows, rows + i0] = np.inf  # self sorts last
        part = np.argpartition(neg, k, axis=1)  # the (k+1)-th at k
        nb[i0:i1] = part[:, :k]
        near = np.take_along_axis(neg, part[:, :k + 1], axis=1)
        kth = near[:, :k].max(axis=1)
        for t in np.flatnonzero(kth == near[:, k]):
            ties.append((i0 + int(t), np.flatnonzero(neg[t] < kth[t]),
                         np.flatnonzero(neg[t] == kth[t])))
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

def _permuted_block(matrix: np.ndarray, perm: np.ndarray, i0: int,
                    i1: int) -> np.ndarray:
    """Rows ``i0:i1`` and columns ``i0 + 1:`` of ``matrix[perm][:, perm]``,
    a row take then a column take: row r of the block holds its strict
    upper triangle in the columns c >= r."""
    return matrix.take(perm[i0:i1], axis=0).take(perm[i0 + 1:], axis=1)


def _symmetric(pairs: np.ndarray, n: int) -> np.ndarray:
    """The symmetric n x n matrix with a zero diagonal whose pair vector
    is ``pairs``."""
    out = np.zeros((n, n), dtype=pairs.dtype)
    for i, start, stop in _upper_rows(n):
        out[i, i + 1:] = pairs[start:stop]
    _mirror_upper(out)
    return out


# ---------------------------------------------------------------------------
# Permutation engine

def _hash_constants(init: int, mult: int, steps: int) -> np.ndarray:
    """SeedSequence's hash constant before and after each of ``steps``
    multiplies, as a (2, steps, 1) array of xor and multiply words."""
    pairs, const = [], init
    for _ in range(steps):
        pairs.append((const, const * mult & 0xFFFFFFFF))
        const = pairs[-1][1]
    return np.array(pairs, dtype=np.uint32).T[..., None]


# NumPy's SeedSequence (numpy/random/bit_generator.pyx) with its pool of
# four words. Its hash constants do not depend on the entropy: 4 steps
# fill the pool, then each source word is hashed into the other three in
# turn, then generate_state draws 8 words. The entropy (one or two seed
# words, then the index) never outgrows the pool, so SeedSequence's loop
# over the words past the pool never runs.
_ENTROPY_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_FILL = _ENTROPY_HASH[:, :4]
_MIX = _ENTROPY_HASH[:, 4:].reshape(2, 4, 3, 1).transpose(1, 0, 2, 3)
_DRAW = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_OTHERS = [np.array([w for w in range(4) if w != src]) for src in range(4)]
# uint32 arrays, not scalars, so no operation converts a constant
_MIX_L, _MIX_R, _SHIFT = np.array([[0xCA01F9DD], [0x4973F715], [16]],
                                  dtype=np.uint32)


def shuffle_seeds(seed: int, count: int) -> np.ndarray:
    """The seed words of shuffles 0..count-1: row i is
    ``SeedSequence([seed mod 2**64, i]).generate_state(4, np.uint64)``,
    hashed for every i at once in uint32 arithmetic. Each index is one
    32-bit word, so more than 2**32 shuffles is an AnalysisError."""
    if count > 1 << 32:
        raise AnalysisError(f"{count} shuffles: at most 2**32 have seeds")
    seed &= 0xFFFFFFFFFFFFFFFF
    # SeedSequence splits an integer into 32-bit words, low first
    words = [seed & 0xFFFFFFFF, seed >> 32] if seed >> 32 else [seed]
    pool = np.zeros((4, count), dtype=np.uint32)
    pool[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    pool[len(words)] = np.arange(count, dtype=np.uint32)
    pool ^= _FILL[0]
    pool *= _FILL[1]
    pool ^= pool >> _SHIFT
    for (xor, mul), others, src in zip(_MIX, _OTHERS, pool):
        hashed = src ^ xor
        hashed *= mul
        hashed ^= hashed >> _SHIFT
        hashed *= _MIX_R
        mixed = pool[others]
        mixed *= _MIX_L
        mixed -= hashed
        mixed ^= mixed >> _SHIFT
        pool[others] = mixed
    state = np.concatenate((pool, pool))
    state ^= _DRAW[0]
    state *= _DRAW[1]
    state ^= state >> _SHIFT
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(
        np.uint64, copy=False)


class _SeedWords(ISeedSequence):
    """One row of :func:`shuffle_seeds`, handed to PCG64 as the four
    uint64 words it draws from its seed sequence. PCG64 reads them
    through a raw pointer, so they are made four contiguous words."""

    def __init__(self, words: np.ndarray):
        self.words = np.ascontiguousarray(words, dtype=np.uint64)
        if self.words.shape != (4,):
            raise AnalysisError(f"shuffle seed words of shape "
                                f"{self.words.shape}: PCG64 takes 4")

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def shuffle_rng(words: np.ndarray) -> np.random.Generator:
    """The generator of one shuffle from its row of :func:`shuffle_seeds`:
    the same stream as ``np.random.default_rng([seed, i])``."""
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


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
    seeds = shuffle_seeds(seed, null_points)
    start = time.perf_counter()
    for i in range(null_points):
        perm = shuffle_rng(seeds[i]).permutation(n_items)
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
    (integers) and ``bin_index`` (MI) each pair's bin among ``bins``
    equal-width bins, both from the pair vector's one sort and each in
    the smallest unsigned dtype that fits it; ``neighbours`` and ``ties``
    (kNN) hold each row's top-``k`` items and the rows tied at the k-th,
    as :func:`_top_k` returns them.
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
    and the one pair vector are taken from it. The bin indices and the
    doubled ranks are both read off the pair vector's one sort.
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
    if pairs is not None:
        order, xs = _sort(pairs)
        del pairs
        if "mi" in analyses:
            bin_index = _sorted_bins(order, xs, bins)
        if "rsa" in analyses:
            starts = _tie_starts(xs)
            del xs
            doubled_ranks = _tie_doubled_ranks(order, starts)
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
    shuffle gathers B's prepared doubled ranks, centred and spread into a
    symmetric matrix of their signed dtype, in permuted pair order, into
    one reused float64 buffer. A's centred ranks and their sum of
    squares are computed once.
    """
    _check_same_items(sim_a, sim_b)
    a, b = _prepared(sim_a, "rsa"), _prepared(sim_b, "rsa")
    n = a.n_items
    centered_a = _centered(a.doubled_ranks)
    centered_b = _centered(b.doubled_ranks)
    aa = np.dot(centered_a, centered_a)
    observed = _rho(centered_a, centered_b, aa)
    # doubled ranks are at most 2P for P pairs, so r - (P + 1) fits the
    # signed type of their width: subtract with wrap-around, view as signed
    ranks_b = _symmetric(b.doubled_ranks, n)
    ranks_b -= centered_b.size + 1
    ranks_b = ranks_b.view(np.dtype(f"i{ranks_b.itemsize}"))
    # every block's pairs are its rows' columns c >= r: the top-left
    # corner of the first block's mask
    rows = next(_row_blocks(n, n))[1]
    mask = np.arange(n - 1) >= np.arange(rows)[:, None]

    def stat(perm: np.ndarray) -> float:
        start = 0
        for i0, i1 in _row_blocks(n, n):
            block = _permuted_block(ranks_b, perm, i0, i1)
            pairs = block[mask[:i1 - i0, :n - i0 - 1]]
            np.copyto(centered_b[start:start + pairs.size], pairs)
            start += pairs.size
        return _rho(centered_a, centered_b, aa)

    p, null = permutation_test(stat, observed, n, n_shuffles,
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
    pair's bin is prepared once (B's spread into a symmetric matrix), and
    the observed MI is the shuffle by the identity. A's joint-bin codes lie
    in the strict upper triangle of an n x n matrix whose other cells
    hold the sentinel code ``bins * bins``, so a shuffle adds each
    gathered block of B's bins to its codes and counts the whole block:
    the sentinel's counts fall past the joint bins and are dropped, and
    no mask is applied.
    """
    _check_same_items(sim_a, sim_b)
    a = _prepared(sim_a, "mi", bins=bins)
    b = _prepared(sim_b, "mi", bins=bins)
    n = a.n_items
    cells = bins * bins
    # A's bin times bins in the strict upper triangle, the sentinel bins
    # times bins elsewhere; the sentinel plus B's largest bin must fit,
    # which a dtype holding only the codes need not (cells = 256 at 16 bins)
    codes = np.full((n, n), bins, dtype=np.min_scalar_type(cells + bins - 1))
    for i, start, stop in _upper_rows(n):
        codes[i, i + 1:] = a.bin_index[start:stop]
    codes *= bins
    bins_b = _symmetric(b.bin_index, n)

    def stat(perm: np.ndarray) -> float:
        counts = np.zeros(cells, dtype=np.intp)
        for i0, i1 in _row_blocks(n, n):
            joint = codes[i0:i1, i0 + 1:] + _permuted_block(bins_b, perm, i0, i1)
            counts += np.bincount(joint.ravel(), minlength=cells + bins)[:cells]
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
