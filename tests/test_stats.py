"""Alignment statistics against brute-force oracles, plus the
permutation engine's contract."""

import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonosem.errors import AnalysisError
from phonosem.phonetic import SimilarityMatrix, cosine_similarity_matrix
from phonosem.corpus import EmbeddingMatrix
from phonosem.pipeline import derive_seed
from phonosem.stats import (knn_overlap, mi_alignment, permutation_pvalue,
                            permutation_test, rsa, shuffle_rng, shuffle_seeds,
                            spearman_rho, stars)
from reference_streams import SEED_MASK, reference_rng


# ---------------------------------------------------------------------------
# Oracles

def oracle_midranks(values):
    """Average-tie ranks by explicit sorting, no scipy."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and values[order[j]] == values[order[i]]:
            j += 1
        avg = (i + j + 1) / 2.0  # mean of 1-based positions i+1 .. j
        for k in range(i, j):
            ranks[order[k]] = avg
        i = j
    return ranks


def oracle_spearman(x, y):
    rx, ry = oracle_midranks(list(x)), oracle_midranks(list(y))
    n = len(rx)
    mx, my = sum(rx) / n, sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / np.sqrt(vx * vy)


def oracle_mi(x, y, bins):
    """Hand-rolled equal-width joint histogram + plug-in formula."""
    def bin_of(v, lo, hi, edges):
        if hi == lo:
            return 0
        idx = int(np.searchsorted(edges, v, side="right")) - 1
        return min(max(idx, 0), bins - 1)

    xe = np.linspace(min(x), max(x), bins + 1)
    ye = np.linspace(min(y), max(y), bins + 1)
    joint = np.zeros((bins, bins))
    for a, b in zip(x, y):
        joint[bin_of(a, min(x), max(x), xe), bin_of(b, min(y), max(y), ye)] += 1
    pxy = joint / len(x)
    px, py = pxy.sum(axis=1), pxy.sum(axis=0)
    mi = 0.0
    for i in range(bins):
        for j in range(bins):
            if pxy[i, j] > 0:
                mi += pxy[i, j] * np.log2(pxy[i, j] / (px[i] * py[j]))
    return mi


def oracle_neighbors(sim, k):
    out = []
    for i in range(sim.n_items):
        others = [j for j in range(sim.n_items) if j != i]
        others.sort(key=lambda j: (-sim.values[i, j], j))
        out.append(set(others[:k]))
    return out


# ---------------------------------------------------------------------------
# Spearman

class TestSpearman:
    def test_monotone(self):
        assert spearman_rho([1, 2, 3], [10, 20, 30]) == 1.0

    def test_reversed(self):
        assert spearman_rho([1, 2, 3], [3, 2, 1]) == -1.0

    def test_rank_difference_formula(self):
        # d = (1,1,1,1): rho = 1 - 6*4 / (4*15) = 0.6
        assert spearman_rho([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6, abs=1e-15)

    def test_constant_rejected(self):
        with pytest.raises(AnalysisError):
            spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(AnalysisError):
            spearman_rho([1.0, 2.0], [2.0, 1.0])

    def test_matches_oracle_with_ties(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            x = rng.integers(0, 5, size=n).astype(float)
            y = rng.integers(0, 5, size=n).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert spearman_rho(x, y) == pytest.approx(
                oracle_spearman(x, y), abs=1e-12)

    def test_exact_reversal_antisymmetry(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=31)
        y = rng.normal(size=31)
        assert spearman_rho(x, -y) == -spearman_rho(x, y)

    @given(st.lists(st.integers(0, 6), min_size=3, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_monotone_invariance(self, xs):
        rng = np.random.default_rng(len(xs))
        x = np.asarray(xs, dtype=float)
        y = rng.normal(size=len(xs))
        if np.all(x == x[0]):
            return
        rho = spearman_rho(x, y)
        assert spearman_rho(y, x) == pytest.approx(rho, abs=1e-12)
        assert spearman_rho(np.exp(x), y) == pytest.approx(rho, abs=1e-12)


# ---------------------------------------------------------------------------
# Mutual information

def pair_similarity(pairs):
    """The symmetric similarity matrix whose pair vector (strict upper
    triangle, row-major) is ``pairs``, of length n(n-1)/2."""
    n = int(round((1 + np.sqrt(1 + 8 * len(pairs))) / 2))
    upper = np.triu_indices(n, k=1)
    values = np.eye(n)
    values[upper] = pairs
    values.T[upper] = pairs
    return SimilarityMatrix(ids=tuple(map(str, range(n))), values=values)


def observed_mi(x, y, bins=20):
    """MI between two pair vectors, as ``mi_alignment`` observes it."""
    return mi_alignment(pair_similarity(x), pair_similarity(y), bins=bins,
                        n_shuffles=1, null_points=1).value


class TestMutualInformation:
    def test_constant_is_zero(self):
        x = np.full(45, 2.0)
        y = np.arange(45, dtype=float)
        assert observed_mi(x, y, bins=20) == 0.0

    def test_two_bin_identity_is_one_bit(self):
        x = np.repeat([0.0, 1.0], 60)
        assert observed_mi(x, x, bins=20) == 1.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(8, 17))
            m = n * (n - 1) // 2
            x, y = rng.uniform(size=m), rng.uniform(size=m)
            assert observed_mi(x, y, bins=20) == pytest.approx(
                oracle_mi(x, y, 20), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        x, y = rng.uniform(size=78), rng.uniform(size=78)
        assert observed_mi(x, y) == pytest.approx(observed_mi(y, x), abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(14)
        x, y = rng.uniform(size=78), rng.uniform(size=78)
        base = observed_mi(x, y)
        assert observed_mi(3.0 * x - 7.0, 0.5 * y + 2.0) == \
            pytest.approx(base, abs=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(AnalysisError):
            observed_mi(np.arange(10.0), np.arange(10.0), bins=20)


# ---------------------------------------------------------------------------
# kNN overlap

def random_similarity(rng, n, dims=4):
    m = EmbeddingMatrix(tuple(f"i{j}" for j in range(n)),
                        rng.normal(size=(n, dims)))
    sim = cosine_similarity_matrix(m)
    return sim


class TestKnnOverlap:
    def test_identical_spaces(self):
        rng = np.random.default_rng(16)
        sim = random_similarity(rng, 15)
        assert knn_overlap(sim, sim, k=5, n_shuffles=1,
                           null_points=1).value == 1.0

    def test_disjoint_blocks(self):
        # A: two 4-cliques; B = negated off-diagonal similarities, so each
        # item's top-3 sets land in the opposite block
        n, k = 8, 3
        a = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                a[i, j] = 1.0 if (i < 4) == (j < 4) else -1.0
        np.fill_diagonal(a, 1.0)
        b = -a
        np.fill_diagonal(b, 1.0)
        ids = tuple(f"i{j}" for j in range(n))
        sim_a = SimilarityMatrix(ids, a)
        sim_b = SimilarityMatrix(ids, b)
        assert knn_overlap(sim_a, sim_b, k=k, n_shuffles=1,
                           null_points=1).value == 0.0

    def test_k_too_large(self):
        rng = np.random.default_rng(17)
        sim = random_similarity(rng, 5)
        with pytest.raises(AnalysisError):
            knn_overlap(sim, sim, k=5, n_shuffles=1, null_points=1)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            sim_a = random_similarity(rng, 20)
            sim_b = random_similarity(rng, 20)
            na = oracle_neighbors(sim_a, 6)
            nb = oracle_neighbors(sim_b, 6)
            expected = np.mean([len(x & y) / 6 for x, y in zip(na, nb)])
            got = knn_overlap(sim_a, sim_b, k=6, n_shuffles=1,
                              null_points=1).value
            assert got == pytest.approx(expected, abs=1e-15)

    def test_rank_invariance(self):
        rng = np.random.default_rng(19)
        sim_a = random_similarity(rng, 12)
        sim_b = random_similarity(rng, 12)
        base = knn_overlap(sim_a, sim_b, k=4, n_shuffles=1, null_points=1)
        warped = SimilarityMatrix(sim_a.ids, np.tanh(2.0 * sim_a.values))
        assert knn_overlap(warped, sim_b, k=4, n_shuffles=1,
                           null_points=1).value == base.value

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 2: a tie at the k-th "
                       "neighbour is broken by item index")
    def test_observed_value_is_free_of_item_order(self):
        # 40 items over 10 distinct phonetic rows, so many rows tie at the
        # k-th neighbour; reversing the items relabels both spaces jointly
        rng = np.random.default_rng(0)
        phon = rng.integers(-1, 2, size=(10, 6)).astype(float)
        phon = phon[rng.integers(0, 10, size=40)]
        sem = rng.standard_normal((40, 8))

        def observed(order):
            ids = tuple(f"m{i}" for i in order)
            sim_a, sim_b = (cosine_similarity_matrix(EmbeddingMatrix(ids, x[order]))
                            for x in (phon, sem))
            return knn_overlap(sim_a, sim_b, k=4, n_shuffles=1, null_points=1).value
        assert observed(np.arange(40)) == observed(np.arange(40)[::-1])


# ---------------------------------------------------------------------------
# Permutation engine

class TestPermutationEngine:
    def test_constant_statistic_p_one(self):
        p, null = permutation_test(lambda perm: 0.5, 0.5, n_items=10,
                                   n_shuffles=100, null_points=100, seed=0)
        assert p == 1.0
        assert null.size == 100

    def test_add_one_floor(self):
        p, _ = permutation_test(lambda perm: 0.0, 1.0, n_items=10,
                                n_shuffles=500, null_points=500, seed=0)
        assert p == 1 / 501

    def test_two_sided_uses_magnitudes(self):
        null = np.array([-0.9, 0.1, -0.1, 0.2])
        assert permutation_pvalue(0.5, null, "two-sided") == pytest.approx(2 / 5)

    def test_null_points_prefix(self):
        seen = []

        def stat(perm):
            seen.append(tuple(perm))
            return float(perm[0])

        p_full, null = permutation_test(stat, 100.0, n_items=6, n_shuffles=40,
                                        null_points=10, seed=3)
        assert null.size == 10
        # null sample is exactly the first ten shuffles' values
        assert np.array_equal(null, [s[0] for s in seen[:10]])

    def test_substreams_reproducible(self):
        a = reference_rng(42, 7).permutation(50)
        b = reference_rng(42, 7).permutation(50)
        c = reference_rng(42, 8).permutation(50)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("count", [1, 2, 1000])
    @pytest.mark.parametrize("seed", [
        0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1, 2 ** 64 - 1, -1,
        derive_seed(1, "subspace:size", "syn")])
    def test_shuffle_seeds_are_numpys_seed_sequence(self, seed, count):
        rows = shuffle_seeds(seed, count)
        assert rows.dtype == np.uint64 and rows.shape == (count, 4)
        for i, row in enumerate(rows):
            words = np.random.SeedSequence([seed & SEED_MASK, i])
            assert np.array_equal(row, words.generate_state(4, np.uint64)), i
            assert np.array_equal(shuffle_rng(row).permutation(20),
                                  reference_rng(seed, i).permutation(20)), i

    def test_shuffle_seeds_refuse_an_index_past_32_bits(self):
        tracemalloc.start()
        try:
            with pytest.raises(AnalysisError, match="at most 2\\*\\*32"):
                shuffle_seeds(0, 2 ** 32 + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_shuffle_rng_reads_four_words_of_any_stride(self):
        rows = shuffle_seeds(9, 3)
        strided = np.repeat(rows, 2, axis=1)[2, ::2]
        assert np.array_equal(shuffle_rng(strided).permutation(30),
                              reference_rng(9, 2).permutation(30))
        for words in (rows[0, :2], rows[:2]):
            with pytest.raises(AnalysisError, match="PCG64 takes 4"):
                shuffle_rng(words)

    def test_null_points_exceeding_shuffles_rejected(self):
        with pytest.raises(AnalysisError):
            permutation_test(lambda perm: 0.0, 0.0, n_items=5,
                             n_shuffles=10, null_points=20, seed=0)

    def test_empty_null_sample_rejected(self):
        with pytest.raises(AnalysisError):
            permutation_test(lambda perm: 0.0, 0.0, n_items=5,
                             n_shuffles=10, null_points=0, seed=0)

    def test_draws_only_the_null_sample(self):
        drawn = []

        def stat(perm):
            drawn.append(perm)
            return float(perm[0])

        _, null = permutation_test(stat, 0.0, n_items=9, n_shuffles=1000,
                                   null_points=7, seed=5)
        assert len(drawn) == 7
        for i, perm in enumerate(drawn):
            assert np.array_equal(perm, reference_rng(5, i).permutation(9))
        assert np.array_equal(null, [perm[0] for perm in drawn])

    @pytest.mark.parametrize("n_shuffles,lines", [(100, 10), (25, 10),
                                                  (7, 7), (1, 1)])
    def test_progress_logged_each_tenth(self, caplog, n_shuffles, lines):
        def stat(perm):
            return float(perm[0])

        quiet = permutation_test(stat, 2.0, n_items=8, n_shuffles=n_shuffles,
                                 null_points=n_shuffles, seed=4)
        with caplog.at_level(logging.INFO, logger="phonosem.stats"):
            logged = permutation_test(stat, 2.0, n_items=8,
                                      n_shuffles=n_shuffles,
                                      null_points=n_shuffles, seed=4)
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "phonosem.stats"]
        assert len(messages) == lines
        assert messages[-1].startswith(
            f"permutation test: {n_shuffles}/{n_shuffles} shuffles, ")
        assert all("/s, ETA " in m for m in messages)
        assert logged[0] == quiet[0]
        assert np.array_equal(logged[1], quiet[1])

    @pytest.mark.parametrize("alternative", ["greater", "two-sided"])
    def test_vector_statistic_tests_each_column(self, alternative):
        x = np.arange(12.0)
        columns = (lambda perm: spearman_rho(x, x[perm]),
                   lambda perm: float(perm[0]) - 5.0,
                   lambda perm: 0.25)
        observed = np.array([0.1, 3.0, 0.25])
        p, null = permutation_test(
            lambda perm: np.array([f(perm) for f in columns]), observed,
            n_items=12, n_shuffles=40, null_points=30, seed=5,
            alternative=alternative)
        assert null.shape == (30, 3)
        for c, f in enumerate(columns):
            p_c, null_c = permutation_test(f, observed[c], n_items=12,
                                           n_shuffles=40, null_points=30,
                                           seed=5, alternative=alternative)
            assert p[c] == p_c
            assert np.array_equal(null[:, c], null_c)

    def test_p_never_zero_or_above_one(self):
        rng = np.random.default_rng(20)
        null = rng.normal(size=199)
        for obs in (-10.0, 0.0, 10.0):
            for alt in ("greater", "two-sided"):
                p = permutation_pvalue(obs, null, alt)
                assert 0.0 < p <= 1.0


# ---------------------------------------------------------------------------
# Matrix-level wrappers

class TestMatrixAlignment:
    def test_rsa_identical(self):
        rng = np.random.default_rng(21)
        sim = random_similarity(rng, 10)
        res = rsa(sim, sim, n_shuffles=99, null_points=99, seed=0)
        assert res.value == 1.0
        assert res.p_value < 0.05

    def test_rsa_negated(self):
        rng = np.random.default_rng(22)
        sim = random_similarity(rng, 10)
        neg = SimilarityMatrix(sim.ids, 2.0 - sim.values)  # rank reversal
        res = rsa(sim, neg, n_shuffles=50, null_points=50, seed=0)
        assert res.value == -1.0

    def test_rsa_matches_pair_vector_oracle(self):
        rng = np.random.default_rng(23)
        sim_a = random_similarity(rng, 5)
        sim_b = random_similarity(rng, 5)
        tri_a = [sim_a.values[i, j] for i in range(5) for j in range(i + 1, 5)]
        tri_b = [sim_b.values[i, j] for i in range(5) for j in range(i + 1, 5)]
        res = rsa(sim_a, sim_b, n_shuffles=10, null_points=10, seed=0)
        assert res.value == pytest.approx(oracle_spearman(tri_a, tri_b), abs=1e-12)

    def test_rsa_joint_reorder_invariance(self):
        rng = np.random.default_rng(24)
        sim_a = random_similarity(rng, 9)
        sim_b = random_similarity(rng, 9)
        base = rsa(sim_a, sim_b, n_shuffles=10, null_points=10, seed=0)
        perm = rng.permutation(9)

        def relabel(sim):
            return SimilarityMatrix(tuple(sim.ids[i] for i in perm),
                                    sim.values[np.ix_(perm, perm)])

        res = rsa(relabel(sim_a), relabel(sim_b),
                  n_shuffles=10, null_points=10, seed=0)
        assert res.value == pytest.approx(base.value, abs=1e-12)

    def test_id_mismatch_rejected(self):
        rng = np.random.default_rng(25)
        sim_a = random_similarity(rng, 6)
        sim_b = SimilarityMatrix(tuple(f"x{i}" for i in range(6)),
                                 sim_a.values)
        with pytest.raises(AnalysisError, match="different item"):
            rsa(sim_a, sim_b)

    def test_mi_alignment_notes(self):
        rng = np.random.default_rng(26)
        sim_a = random_similarity(rng, 10)
        sim_b = random_similarity(rng, 10)
        res = mi_alignment(sim_a, sim_b, bins=10, n_shuffles=20,
                           null_points=20, seed=0)
        assert "computed on pair vectors" in res.notes
        assert res.value >= 0.0

    def test_knn_wrapper_determinism(self):
        rng = np.random.default_rng(27)
        sim_a = random_similarity(rng, 14)
        sim_b = random_similarity(rng, 14)
        r1 = knn_overlap(sim_a, sim_b, k=4, n_shuffles=50, null_points=50, seed=9)
        r2 = knn_overlap(sim_a, sim_b, k=4, n_shuffles=50, null_points=50, seed=9)
        assert r1 == r2


class TestStars:
    @pytest.mark.parametrize("p,expected", [
        (0.0009, "***"), (0.001, "**"), (0.009, "**"), (0.01, "*"),
        (0.03, "*"), (0.05, ""), (0.5, ""),
    ])
    def test_thresholds_strict(self, p, expected):
        assert stars(p) == expected
