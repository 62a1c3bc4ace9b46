"""Tokenization, pooling, post-processing, and similarity matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonosem.corpus import EmbeddingMatrix, SegmentFeatureTable
from phonosem.errors import AnalysisError, InputError
from phonosem.phonetic import (EmptyTokenizationError, SimilarityMatrix,
                               build_phonetic_embeddings,
                               cosine_similarity_matrix, mean_pool,
                               standardize, tokenize_ipa)


@pytest.fixture
def affricate_table():
    return SegmentFeatureTable(
        feature_names=("f1", "f2"),
        vectors={"tʃ": np.array([1.0, -1.0]), "t": np.array([-1.0, 0.0]),
                 "a": np.array([1.0, 1.0])},
    )


class TestTokenize:
    def test_longest_match_wins(self, affricate_table):
        segments, dropped = tokenize_ipa("tʃa", affricate_table)
        assert segments == ["tʃ", "a"]
        assert dropped == ""

    def test_single_segment(self, affricate_table):
        assert tokenize_ipa("a", affricate_table)[0] == ["a"]

    def test_nothing_matched(self, affricate_table):
        with pytest.raises(EmptyTokenizationError):
            tokenize_ipa("xq", affricate_table)

    def test_empty_rejected(self, affricate_table):
        with pytest.raises(InputError):
            tokenize_ipa("", affricate_table)

    def test_unknowns_dropped_and_reported(self, affricate_table):
        segments, dropped = tokenize_ipa("ˈtʃaː", affricate_table)
        assert segments == ["tʃ", "a"]
        assert dropped == "ˈː"

    def test_round_trip_minus_unknowns(self, feature_table):
        segments, dropped = tokenize_ipa("paˈtil", feature_table)
        assert "".join(segments) + dropped == "patil" + "ˈ"
        assert "".join(segments) == "patil"


class TestMeanPool:
    def test_single_segment_identity(self, affricate_table):
        assert np.array_equal(mean_pool(["t"], affricate_table),
                              affricate_table["t"])

    def test_symmetric_pair_cancels(self):
        table = SegmentFeatureTable(("f1", "f2", "f3"), {
            "x": np.array([1.0, 0.0, -1.0]), "y": np.array([-1.0, 0.0, 1.0])})
        assert np.array_equal(mean_pool(["x", "y"], table), [0.0, 0.0, 0.0])

    def test_matches_sum_then_divide_oracle(self, feature_table):
        segs = ["p", "n", "u"]
        expected = sum(feature_table[s] for s in segs) / len(segs)
        assert np.allclose(mean_pool(segs, feature_table), expected, atol=1e-15)

    def test_unknown_segment(self, affricate_table):
        with pytest.raises(InputError, match="unknown"):
            mean_pool(["zz"], affricate_table)

    @given(st.permutations(["p", "t", "m", "a", "u"]))
    @settings(max_examples=30, deadline=None)
    def test_order_invariant(self, order):
        table = _module_table()
        base = mean_pool(["p", "t", "m", "a", "u"], table)
        assert np.allclose(mean_pool(order, table), base, atol=1e-15)


def _module_table():
    from phonosem.synth import make_feature_table
    return make_feature_table()


class TestPostProcessing:
    def test_constant_column_dropped(self):
        out, kept, _, _ = standardize(np.array([[0.5, 1.0], [0.5, 2.0]]))
        assert kept.tolist() == [1]
        assert out.shape == (2, 1)

    def test_no_constant_columns_unchanged(self):
        x = np.array([[0.0, 1.0], [1.0, 2.5]])
        out, kept, mean, std = standardize(x)
        assert kept.tolist() == [0, 1]
        assert np.array_equal(out * std + mean, x)

    def test_all_constant_is_error(self):
        with pytest.raises(AnalysisError, match="degenerate"):
            standardize(np.full((2, 3), 0.25))

    def test_two_point_zscore(self):
        out, _, _, _ = standardize(np.array([[1.0], [3.0]]))
        assert np.allclose(out[:, 0], [-1.0, 1.0])

    def test_zscore_idempotent(self):
        rng = np.random.default_rng(0)
        once, _, _, _ = standardize(rng.normal(size=(5, 3)))
        twice, _, _, _ = standardize(once)
        assert np.allclose(once, twice, atol=1e-12)

    def test_zscore_moments(self):
        rng = np.random.default_rng(1)
        out, _, _, _ = standardize(rng.normal(size=(5, 3)))
        assert np.all(np.abs(out.mean(axis=0)) < 1e-12)
        assert np.allclose(out.var(axis=0), 1.0, atol=1e-9)

    def test_zero_variance_guard(self):
        # a constant column never reaches the division by its std
        with pytest.raises(AnalysisError):
            standardize(np.array([[1.0], [1.0]]))

    def test_drop_then_normalize_unit_variance(self, feature_table):
        rng = np.random.default_rng(3)
        segs = list(feature_table.vectors)
        items = [(f"i{k}", "".join(rng.choice(segs, size=3))) for k in range(30)]
        matrix, names, skipped = build_phonetic_embeddings(items, feature_table)
        assert skipped == []
        assert matrix.n_dims == len(names)
        assert np.allclose(matrix.vectors.var(axis=0), 1.0, atol=1e-9)


class TestCosineSimilarity:
    def test_identical_rows(self):
        m = EmbeddingMatrix(("a", "b"), np.array([[1.0, 2.0], [1.0, 2.0]]))
        sim = cosine_similarity_matrix(m)
        assert sim.values[0, 1] == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_rows(self):
        m = EmbeddingMatrix(("a", "b"), np.array([[1.0, 0.0], [0.0, 1.0]]))
        sim = cosine_similarity_matrix(m)
        assert sim.values[0, 1] == 0.0

    def test_antipodal_rows(self):
        m = EmbeddingMatrix(("a", "b"), np.array([[1.0, 1.0], [-1.0, -1.0]]))
        sim = cosine_similarity_matrix(m)
        assert sim.values[0, 1] == pytest.approx(-1.0, abs=1e-15)

    def test_zero_norm_row_raises(self):
        m = EmbeddingMatrix(("a", "z", "b"),
                            np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]]))
        with pytest.raises(AnalysisError, match="'z' has a zero-norm vector"):
            cosine_similarity_matrix(m)

    def test_positive_row_scaling_invariance(self):
        rng = np.random.default_rng(4)
        vecs = rng.normal(size=(6, 4))
        sim1 = cosine_similarity_matrix(EmbeddingMatrix(tuple("abcdef"), vecs))
        scaled = vecs * rng.uniform(0.5, 3.0, size=(6, 1))
        sim2 = cosine_similarity_matrix(EmbeddingMatrix(tuple("abcdef"), scaled))
        assert np.allclose(sim1.values, sim2.values, atol=1e-12)

    def test_diagonal_and_symmetry(self):
        rng = np.random.default_rng(5)
        sim = cosine_similarity_matrix(
            EmbeddingMatrix(tuple("abcdefgh"), rng.normal(size=(8, 3))))
        assert np.array_equal(np.diag(sim.values), np.ones(8))
        assert np.array_equal(sim.values, sim.values.T)

    def test_pair_vector_order(self):
        values = np.array([[1.0, 0.1, 0.2], [0.1, 1.0, 0.3], [0.2, 0.3, 1.0]])
        sim = SimilarityMatrix(("a", "b", "c"), values)
        assert np.array_equal(sim.pair_vector(), [0.1, 0.2, 0.3])

    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        sim = cosine_similarity_matrix(
            EmbeddingMatrix(tuple("abcd"), rng.normal(size=(4, 3))))
        path = tmp_path / "sim.bin"
        sim.save_binary(path)
        ids = tuple((tmp_path / "sim.bin.ids").read_text("utf-8").splitlines())
        values = np.fromfile(path, dtype=np.float64).reshape(len(ids), -1)
        assert ids == sim.ids
        assert np.array_equal(values, sim.values)

    def test_asymmetric_rejected(self):
        with pytest.raises(AnalysisError, match="symmetric"):
            SimilarityMatrix(("a", "b"), np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rounding_asymmetry_rejected(self):
        values = np.array([[1.0, 0.5], [0.5 + 1e-15, 1.0]])
        with pytest.raises(AnalysisError, match="exactly symmetric"):
            SimilarityMatrix(("a", "b"), values)
