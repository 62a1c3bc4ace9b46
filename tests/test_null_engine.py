"""The precomputed null engine against the per-shuffle recomputation it
replaced.

Each oracle below is the statistic as it used to be computed inside a
shuffle: gather the permuted matrix with ``np.ix_`` and re-rank its pair
vector, re-bin it with ``np.histogram2d``, re-sort every row for its
neighbours with a ``SimilarityMatrix`` per shuffle, or re-rank the
permuted coordinates. Driven through the same ``permutation_test`` loop,
they must give records equal with ``==`` to the engine's. The CCA
oracle is the hand-written shuffle loop the canonical variates had
before they ran on ``permutation_test``.
"""

import numpy as np
import pytest
from scipy.stats import rankdata

from phonosem.cca import canonical_rank_correlations, fit_cca
from phonosem.corpus import EmbeddingMatrix, ScaleConfig
from phonosem.errors import AnalysisError
from phonosem.phonetic import SimilarityMatrix, cosine_similarity_matrix
from phonosem.stats import (_doubled_ranks, _summarize, knn_overlap,
                            mi_alignment, permutation_test, prepare, rsa,
                            shuffle_rng, spearman_rho)
from phonosem.subspace import pool_candidates, scale_alignment


# ---------------------------------------------------------------------------
# Oracles: the per-shuffle closures

def oracle_rho_of_ranks(rx, ry):
    center = (rx.size + 1) / 2.0
    cx = rx - center
    cy = ry - center
    return float(np.dot(cx, cy) / float(np.sqrt(np.dot(cx, cx) * np.dot(cy, cy))))


def oracle_spearman(x, y):
    rho = oracle_rho_of_ranks(rankdata(x), rankdata(y))
    return float(min(1.0, max(-1.0, rho)))


def oracle_mi(x, y, bins):
    joint, _, _ = np.histogram2d(x, y, bins=bins)
    pxy = joint / joint.sum()
    px = pxy.sum(axis=1)
    py = pxy.sum(axis=0)
    nz = pxy > 0
    return max(0.0, float(np.sum(pxy[nz] * np.log2(pxy[nz] / np.outer(px, py)[nz]))))


def oracle_neighbor_sets(sim, k):
    out = []
    for i in range(sim.n_items):
        row = sim.values[i].copy()
        row[i] = -np.inf
        out.append(frozenset(np.argsort(-row, kind="stable")[:k].tolist()))
    return out


def oracle_knn(na, nb, k):
    return float(np.mean([len(a & b) / k for a, b in zip(na, nb)]))


def permuted_pairs(sim, perm):
    n = sim.n_items
    return sim.values[np.ix_(perm, perm)][np.triu_indices(n, k=1)]


def oracle_record(name, stat, observed, n, shuffles, points, seed,
                  alternative="greater", notes=()):
    p, null = permutation_test(stat, observed, n, shuffles, points, seed,
                               alternative)
    return _summarize(name, observed, null, p, shuffles, seed, alternative,
                      notes).to_record()


def oracle_rsa(sim_a, sim_b, shuffles, points, seed):
    tri_a = sim_a.pair_vector()
    rank_a = rankdata(tri_a)
    observed = oracle_spearman(tri_a, sim_b.pair_vector())
    return oracle_record(
        "rsa", lambda perm: oracle_rho_of_ranks(
            rank_a, rankdata(permuted_pairs(sim_b, perm))),
        observed, sim_a.n_items, shuffles, points, seed)


def oracle_mi_alignment(sim_a, sim_b, bins, shuffles, points, seed):
    tri_a = sim_a.pair_vector()
    observed = oracle_mi(tri_a, sim_b.pair_vector(), bins)
    return oracle_record(
        "mutual_information",
        lambda perm: oracle_mi(tri_a, permuted_pairs(sim_b, perm), bins),
        observed, sim_a.n_items, shuffles, points, seed,
        notes=("computed on pair vectors",))


def oracle_knn_overlap(sim_a, sim_b, k, shuffles, points, seed):
    na = oracle_neighbor_sets(sim_a, k)
    observed = oracle_knn(na, oracle_neighbor_sets(sim_b, k), k)

    def stat(perm):
        permuted = SimilarityMatrix(sim_a.ids, sim_b.values[np.ix_(perm, perm)])
        return oracle_knn(na, oracle_neighbor_sets(permuted, k), k)

    return oracle_record("knn_overlap", stat, observed, sim_a.n_items,
                         shuffles, points, seed)


# ---------------------------------------------------------------------------
# Fixtures

def cosine(vectors):
    ids = tuple(f"i{j}" for j in range(len(vectors)))
    return cosine_similarity_matrix(EmbeddingMatrix(ids, vectors))


def kth_ties(sim, k):
    """Rows whose k-th and (k+1)-th most similar other items tie."""
    out = []
    for i in range(sim.n_items):
        row = np.sort(np.delete(sim.values[i], i))[::-1]
        if row.size > k and row[k - 1] == row[k]:
            out.append(i)
    return out


def duplicated(rng, n_base, copies, dims):
    base = rng.normal(size=(n_base, dims))
    return cosine(np.repeat(base, copies, axis=0)[rng.permutation(n_base * copies)])


def grid(rng, n, steps):
    """Similarities on the grid {0, 1/steps, ..., 1}: with bins=steps
    every pair value lies on a bin edge, the maximum on the top edge."""
    upper = np.triu(rng.integers(0, steps + 1, size=(n, n)) / steps, k=1)
    values = upper + upper.T
    np.fill_diagonal(values, 1.0)
    return SimilarityMatrix(tuple(f"i{j}" for j in range(n)), values)


def random_pair(seed, n):
    rng = np.random.default_rng(seed)
    return cosine(rng.normal(size=(n, 5))), cosine(rng.normal(size=(n, 8)))


def tied_pair():
    """Three copies of each row in both spaces: with k=4 every row ties
    at the k-th neighbour, with k=1 at the first, with k=5 at neither."""
    sim_a = duplicated(np.random.default_rng(301), 14, 3, 4)
    sim_b = duplicated(np.random.default_rng(303), 14, 3, 6)
    assert kth_ties(sim_a, 4) and kth_ties(sim_b, 4) and kth_ties(sim_b, 1)
    assert not kth_ties(sim_b, 5)
    return sim_a, sim_b


PAIRS = {
    "tied": tied_pair,
    "grid": lambda: (grid(np.random.default_rng(304), 30, 4),
                     grid(np.random.default_rng(305), 30, 4)),
    "random": lambda: random_pair(306, 45),
}


def test_grid_puts_pairs_on_the_top_edge():
    sim, _ = PAIRS["grid"]()
    tri = sim.pair_vector()
    assert np.sum(tri == tri.max()) > 1
    assert np.all(np.isin(tri, np.linspace(0.0, 1.0, 5)))


# ---------------------------------------------------------------------------
# Equivalence

@pytest.mark.parametrize("case", sorted(PAIRS))
def test_rsa_equals_oracle(case):
    sim_a, sim_b = PAIRS[case]()
    got = rsa(sim_a, sim_b, n_shuffles=30, null_points=20, seed=7).to_record()
    assert got == oracle_rsa(sim_a, sim_b, 30, 20, 7)


@pytest.mark.parametrize("case,bins", [
    ("tied", 20), ("grid", 4), ("grid", 20), ("random", 7), ("random", 300)])
def test_mi_alignment_equals_oracle(case, bins):
    sim_a, sim_b = PAIRS[case]()
    got = mi_alignment(sim_a, sim_b, bins=bins, n_shuffles=30, null_points=20,
                       seed=8).to_record()
    assert got == oracle_mi_alignment(sim_a, sim_b, bins, 30, 20, 8)


@pytest.mark.parametrize("case,k", [
    ("tied", 4), ("tied", 1), ("tied", 5), ("grid", 3), ("random", 6)])
def test_knn_overlap_equals_oracle(case, k):
    sim_a, sim_b = PAIRS[case]()
    got = knn_overlap(sim_a, sim_b, k=k, n_shuffles=30, null_points=20,
                      seed=9).to_record()
    assert got == oracle_knn_overlap(sim_a, sim_b, k, 30, 20, 9)


def test_n_is_k_plus_one():
    sim_a, sim_b = random_pair(307, 6)
    assert knn_overlap(sim_a, sim_b, k=5, n_shuffles=20, null_points=20,
                       seed=10).to_record() == oracle_knn_overlap(
                           sim_a, sim_b, 5, 20, 20, 10)
    assert rsa(sim_a, sim_b, n_shuffles=20, null_points=20,
               seed=10).to_record() == oracle_rsa(sim_a, sim_b, 20, 20, 10)


@pytest.mark.parametrize("case,bins,k", [("tied", 20, 4), ("grid", 4, 3)])
def test_prepared_spaces_equal_matrices_and_oracles(case, bins, k):
    sim_a, sim_b = PAIRS[case]()
    a, b = (prepare(s, ("rsa", "mi", "knn"), bins=bins, k=k)
            for s in (sim_a, sim_b))
    for got, from_matrix, oracle in [
        (rsa(a, b, 30, 20, 7), rsa(sim_a, sim_b, 30, 20, 7),
         oracle_rsa(sim_a, sim_b, 30, 20, 7)),
        (mi_alignment(a, b, bins, 30, 20, 8),
         mi_alignment(sim_a, sim_b, bins, 30, 20, 8),
         oracle_mi_alignment(sim_a, sim_b, bins, 30, 20, 8)),
        (knn_overlap(a, b, k, 30, 20, 9), knn_overlap(sim_a, sim_b, k, 30, 20, 9),
         oracle_knn_overlap(sim_a, sim_b, k, 30, 20, 9)),
    ]:
        assert got.to_record() == from_matrix.to_record() == oracle


def test_prepare_for_knn_alone_ranks_and_bins_nothing(monkeypatch):
    sim, _ = PAIRS["random"]()

    def refuse(*args):
        raise AssertionError("pair content computed for kNN alone")

    monkeypatch.setattr("phonosem.stats._doubled_ranks", refuse)
    monkeypatch.setattr(SimilarityMatrix, "pair_vector", refuse)
    space = prepare(sim, ("knn",), k=6)
    assert space.doubled_ranks is None and space.bin_index is None
    assert space.neighbours.shape == (sim.n_items, 6)


def test_space_prepared_otherwise_is_rejected():
    sim_a, sim_b = PAIRS["random"]()
    a, b = (prepare(s, ("mi",), bins=7) for s in (sim_a, sim_b))
    with pytest.raises(AnalysisError, match="not prepared for mi"):
        mi_alignment(a, b, bins=8, n_shuffles=5, null_points=5)
    with pytest.raises(AnalysisError, match="not prepared for rsa"):
        rsa(a, b, n_shuffles=5, null_points=5)


def test_doubled_ranks_equal_twice_scipy():
    rng = np.random.default_rng(308)
    for n in (1, 2, 3, 10, 500):
        for values in (rng.normal(size=n), rng.integers(0, 4, size=n) * 0.5,
                       np.zeros(n), np.array([0.0, -0.0] * n)):
            assert np.array_equal(_doubled_ranks(values), 2 * rankdata(values))


@pytest.mark.parametrize("case", ["random", "tied"])
def test_space_prepared_for_rsa_holds_doubled_pair_ranks(case):
    sim, _ = PAIRS[case]()
    pairs = sim.pair_vector()
    space = prepare(sim, ("rsa",))
    assert space.doubled_ranks.dtype == np.min_scalar_type(2 * pairs.size)
    assert np.array_equal(space.doubled_ranks, 2 * rankdata(pairs))


# ---------------------------------------------------------------------------
# Subspace scales

def make_scale(words, segments):
    return ScaleConfig("demo", (segments[0], segments[1]),
                       (segments[2], segments[3]),
                       {"en": (words[0], words[1])}, {"en": (words[2], words[3])})


def test_scale_alignment_equals_oracle(small_language, feature_table):
    words, lexicon, vectors = small_language
    vocab = EmbeddingMatrix(tuple(words), vectors)
    scale = make_scale(words, list(feature_table.vectors))
    res = scale_alignment(scale, "en", vocab, feature_table,
                          pool_candidates(vocab, lexicon, feature_table),
                          n_words=60, n_shuffles=50, null_points=40, seed=11)
    sem, phon = res.semantic_coords, res.phonetic_coords
    assert np.unique(phon).size < phon.size  # tied phonetic coordinates
    assert res.rho == oracle_spearman(sem, phon)
    expected = oracle_record(
        "scale:demo", lambda perm: oracle_spearman(sem, phon[perm]),
        oracle_spearman(sem, phon), phon.size, 50, 40, 11, "two-sided")
    assert res.alignment.to_record() == expected


# ---------------------------------------------------------------------------
# CCA canonical variates

def oracle_cca(model, X, Y, shuffles, points, seed):
    """One record per variate from a loop over shuffles with a full
    refit per shuffle."""
    k, n = model.n_components, model.n_items
    observed = [spearman_rho(model.scores_phonetic[:, c],
                             model.scores_semantic[:, c]) for c in range(k)]
    null = np.empty((shuffles, k))
    for i in range(shuffles):
        perm = shuffle_rng(seed, i).permutation(n)
        shuffled = fit_cca(X, np.asarray(Y)[perm], n_components=k,
                           ridge=model.ridge)
        for c in range(k):
            null[i, c] = spearman_rho(shuffled.scores_phonetic[:, c],
                                      shuffled.scores_semantic[:, c])
    records = []
    for c in range(k):
        sample = null[:points, c]
        p = (1 + int(np.sum(sample >= observed[c]))) / (1 + sample.size)
        records.append(_summarize(f"cca_cv{c + 1}", observed[c], sample, p,
                                  shuffles, seed, "greater").to_record())
    return records


def tied_blocks():
    """Both spaces repeat every item three times, so each variate's
    scores tie in threes; the semantic block is a noisy linear map of
    the phonetic one."""
    rng = np.random.default_rng(309)
    base = rng.normal(size=(25, 4))
    x = np.repeat(base, 3, axis=0)
    y = np.repeat(base @ rng.normal(size=(4, 6))
                  + rng.normal(size=(25, 6)), 3, axis=0)
    return x, y


def test_cca_variates_equal_oracle():
    x, y = tied_blocks()
    model = fit_cca(x, y, n_components=3)
    assert np.unique(model.scores_phonetic[:, 1]).size < model.n_items
    got = [r.to_record() for r in canonical_rank_correlations(
        model, X=x, Y=y, n_shuffles=25, null_points=20, seed=13)]
    assert got == oracle_cca(model, x, y, 25, 20, 13)
    assert len(got) == 3


def untied_blocks(seed):
    """Continuous random blocks with d_x 2-9, d_y 2-120 and n from
    d_y + 2, the semantic one a linear map of the phonetic one of random
    strength plus noise, and a random number of variates."""
    rng = np.random.default_rng(seed)
    dx = int(rng.integers(2, 10))
    dy = int(rng.integers(2, 121))
    n = dy + 2 + int(rng.integers(0, 40))
    x = rng.normal(size=(n, dx))
    y = rng.uniform() * x @ rng.normal(size=(dx, dy)) + rng.normal(size=(n, dy))
    return x, y, int(rng.integers(1, min(dx, dy) + 1))


@pytest.mark.parametrize("seed", range(40))
def test_cca_refit_equals_oracle_on_untied_blocks(seed):
    x, y, k = untied_blocks(seed)
    model = fit_cca(x, y, n_components=k)
    got = [r.to_record() for r in canonical_rank_correlations(
        model, X=x, Y=y, n_shuffles=20, null_points=20, seed=seed)]
    assert got == oracle_cca(model, x, y, 20, 20, seed)
