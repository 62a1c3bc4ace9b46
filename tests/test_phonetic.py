"""Tokenization, pooling, post-processing, and similarity matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonosem.corpus import EmbeddingMatrix, SegmentFeatureTable
from phonosem.errors import AnalysisError
from phonosem.phonetic import (_TILE, SimilarityMatrix, _tokenize_and_pool,
                               build_phonetic_embeddings,
                               cosine_similarity_matrix, standardize)


@pytest.fixture
def affricate_table():
    return SegmentFeatureTable(
        feature_names=("f1", "f2"),
        vectors={"tʃ": np.array([1.0, -1.0]), "t": np.array([-1.0, 0.0]),
                 "a": np.array([1.0, 1.0])},
    )


def pooled(ipa, table):
    """The batch pooler's row for one transcription."""
    ids, rows, _ = _tokenize_and_pool([("w", ipa)], table)
    assert ids == ["w"]
    return rows[0]


def mean_of(table, segments):
    return np.vstack([table[s] for s in segments]).mean(axis=0)


class TestTokenize:
    def test_longest_match_wins(self, affricate_table):
        row = pooled("tʃa", affricate_table)
        assert np.array_equal(row, mean_of(affricate_table, ["tʃ", "a"]))
        assert not np.array_equal(row, mean_of(affricate_table, ["t", "a"]))

    def test_single_segment(self, affricate_table):
        assert np.array_equal(pooled("a", affricate_table), affricate_table["a"])

    def test_nothing_matched(self, affricate_table):
        ids, _, skipped = _tokenize_and_pool([("w", "xq")], affricate_table)
        assert (ids, skipped) == ([], ["w"])

    def test_empty_rejected(self, affricate_table):
        ids, _, skipped = _tokenize_and_pool([("w", "")], affricate_table)
        assert (ids, skipped) == ([], ["w"])

    def test_unknowns_dropped_and_reported(self, affricate_table):
        ids, rows, skipped = _tokenize_and_pool(
            [("w", "ˈtʃaː"), ("v", "ˈː")], affricate_table)
        assert (ids, skipped) == (["w"], ["v"])
        assert np.array_equal(rows[0], mean_of(affricate_table, ["tʃ", "a"]))

    def test_round_trip_minus_unknowns(self, feature_table):
        row = pooled("paˈtil", feature_table)
        assert np.array_equal(row, pooled("patil", feature_table))
        assert np.array_equal(row, mean_of(feature_table, "patil"))


class TestMeanPool:
    def test_single_segment_identity(self, affricate_table):
        assert np.array_equal(pooled("t", affricate_table), affricate_table["t"])

    def test_symmetric_pair_cancels(self):
        table = SegmentFeatureTable(("f1", "f2", "f3"), {
            "x": np.array([1.0, 0.0, -1.0]), "y": np.array([-1.0, 0.0, 1.0])})
        assert np.array_equal(pooled("xy", table), [0.0, 0.0, 0.0])

    def test_matches_sum_then_divide_oracle(self, feature_table):
        segs = ["p", "n", "u"]
        expected = sum(feature_table[s] for s in segs) / len(segs)
        assert np.array_equal(pooled("pnu", feature_table), expected)

    def test_unknown_segment(self, affricate_table):
        ids, rows, skipped = _tokenize_and_pool([("w", "zz")], affricate_table)
        assert (ids, rows.shape, skipped) == ([], (0, 2), ["w"])

    @given(st.permutations(["p", "t", "m", "a", "u"]))
    @settings(max_examples=30, deadline=None)
    def test_order_invariant(self, order):
        table = _module_table()
        base = pooled("ptmau", table)
        assert np.array_equal(pooled("".join(order), table), base)


def oracle_tokenize(ipa, table):
    """Greedy longest match, one position at a time: at each position
    the longest table key there, else the character is dropped."""
    max_len = max((len(s) for s in table.vectors), default=0)
    segments, i = [], 0
    while i < len(ipa):
        for width in range(min(max_len, len(ipa) - i), 0, -1):
            if ipa[i:i + width] in table:
                segments.append(ipa[i:i + width])
                i += width
                break
        else:
            i += 1
    return segments


def oracle_pool(items, table):
    """Per-item tokenize, then the mean of the segments' vectors."""
    ids, rows, skipped = [], [], []
    for item_id, ipa in items:
        segments = oracle_tokenize(ipa, table)
        if segments:
            ids.append(item_id)
            rows.append(np.vstack([table[s] for s in segments]).mean(axis=0))
        else:
            skipped.append(item_id)
    return ids, rows, skipped


# single characters that are special in a regular expression
REGEX_SPECIALS = list(".*+?^$|\\()[]{}")


def random_table_and_items(rng):
    """A random ternary table whose keys overlap (t, tʃ, ʃ) and hold
    regex-special characters, and items of 1 to 40 segments mixed with
    unknown characters, plus an empty and an all-unknown transcription."""
    alphabet = ["t", "ʃ", "a", "ː", "s", "\n"] + REGEX_SPECIALS
    keys = {"t", "tʃ", "ʃ"}
    for _ in range(int(rng.integers(0, 12))):
        width = int(rng.integers(1, 4))
        keys.add("".join(rng.choice(alphabet, size=width)))
    n_features = int(rng.integers(1, 9))
    table = SegmentFeatureTable(
        tuple(f"f{i}" for i in range(n_features)),
        {key: rng.integers(-1, 2, size=n_features).astype(np.float64)
         for key in sorted(keys)})
    unknown = [c for c in ["x", "ˈ", "-", *alphabet] if c not in table]
    tokens = sorted(keys) + unknown
    items = [("empty", ""), ("unknown", "".join(rng.choice(unknown, size=3)))]
    for i in range(30):
        n = int(rng.integers(1, 41))
        items.append((f"w{i}", "".join(rng.choice(tokens, size=n))))
    return table, items


class TestBatchPooling:
    def test_equals_per_word_oracle_on_random_tables(self):
        rng = np.random.default_rng(20261018)
        for _ in range(60):
            table, items = random_table_and_items(rng)
            ids, rows, skipped = _tokenize_and_pool(items, table)
            want_ids, want_rows, want_skipped = oracle_pool(items, table)
            assert ids == want_ids
            assert skipped == want_skipped
            assert "empty" in skipped and "unknown" in skipped
            assert rows.shape == (len(ids), table.n_features)
            for row, want in zip(rows, want_rows):
                assert row.tobytes() == want.tobytes()

    def test_tokenizer_equals_the_oracle_on_random_tables(self):
        # one-hot features: a row is the share of each segment, so equal
        # rows mean equal segment counts
        rng = np.random.default_rng(20261019)
        for _ in range(60):
            table, items = random_table_and_items(rng)
            keys = list(table.vectors)
            one_hot = SegmentFeatureTable(
                tuple(keys), dict(zip(keys, np.eye(len(keys)))))
            ids, rows, skipped = _tokenize_and_pool(items, one_hot)
            for item_id, ipa in items:
                want = oracle_tokenize(ipa, table)
                if want:
                    counts = np.array([want.count(key) for key in keys])
                    row = rows[ids.index(item_id)]
                    assert np.array_equal(row, counts / len(want))
                else:
                    assert item_id in skipped

    def test_no_items_give_no_rows(self, affricate_table):
        ids, rows, skipped = _tokenize_and_pool([], affricate_table)
        assert (ids, rows.shape, skipped) == ([], (0, 2), [])


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


# Sizes around the tile edges of the tiled triangle code.
TILED_SIZES = (1, 2, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 3)


def ids_of(n):
    return tuple(f"i{j}" for j in range(n))


def averaged_cosine(vectors):
    """The cosine matrix as a transpose average built it."""
    unit = vectors / np.linalg.norm(vectors, axis=1)[:, None]
    values = unit @ unit.T
    np.clip(values, -1.0, 1.0, out=values)
    values = (values + values.T) / 2.0
    np.fill_diagonal(values, 1.0)
    return values


class TestTiledTriangles:
    @pytest.mark.parametrize("d", [1, 6, 300])
    @pytest.mark.parametrize("n", TILED_SIZES)
    def test_cosine_equals_transpose_average(self, n, d):
        vectors = np.random.default_rng(n * 1000 + d).normal(size=(n, d))
        sim = cosine_similarity_matrix(EmbeddingMatrix(ids_of(n), vectors))
        assert np.array_equal(sim.values, averaged_cosine(vectors))

    @pytest.mark.parametrize("d", [1, 6, 300])
    @pytest.mark.parametrize("n", TILED_SIZES)
    def test_pair_vector_equals_mask_gather(self, n, d):
        vectors = np.random.default_rng(n * 1000 + d + 1).normal(size=(n, d))
        sim = cosine_similarity_matrix(EmbeddingMatrix(ids_of(n), vectors))
        upper = np.triu(np.ones((n, n), dtype=bool), k=1)
        assert np.array_equal(sim.pair_vector(), sim.values[upper])

    @pytest.mark.parametrize("i,j", [
        (_TILE - 1, 2 * _TILE + 2),       # last off-diagonal tile
        (2 * _TILE + 2, _TILE - 1),       # its mirror image
        (0, 1), (2 * _TILE + 1, 2 * _TILE + 2)])  # first and last diagonal tiles
    def test_one_ulp_asymmetry_in_any_tile_rejected(self, i, j):
        n = 2 * _TILE + 3
        values = averaged_cosine(np.random.default_rng(7).normal(size=(n, 4)))
        values[i, j] = np.nextafter(values[i, j], np.inf)
        with pytest.raises(AnalysisError, match="exactly symmetric"):
            SimilarityMatrix(ids_of(n), values)

    @pytest.mark.parametrize("i,j", [
        (0, 0), (2 * _TILE + 2, 2 * _TILE + 2), (3, _TILE + 5),
        (_TILE - 1, 2 * _TILE + 2)])
    def test_nan_anywhere_rejected(self, i, j):
        n = 2 * _TILE + 3
        values = averaged_cosine(np.random.default_rng(8).normal(size=(n, 4)))
        values[i, j] = values[j, i] = np.nan
        with pytest.raises(AnalysisError, match="exactly symmetric"):
            SimilarityMatrix(ids_of(n), values)
