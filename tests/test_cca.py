"""CCA fitting, canonical rank correlations, loadings, and poles."""

import dataclasses
import json
import logging

import numpy as np
import pytest

from phonosem import cca
from phonosem.cca import (CcaModel, _phonetic_poles, _semantic_poles,
                          build_pole_report, canonical_rank_correlations,
                          fit_cca, pole_candidates, structure_loadings)
from phonosem.corpus import EmbeddingMatrix
from phonosem.errors import AnalysisError


def random_pair(rng, n=200, dx=5, dy=4):
    x = rng.normal(size=(n, dx))
    y = rng.normal(size=(n, dy))
    return x, y


class TestFitCca:
    def test_linear_dependence_perfect(self):
        rng = np.random.default_rng(30)
        x = rng.normal(size=(300, 6))
        a = rng.normal(size=(6, 6))
        model = fit_cca(x, x @ a, n_components=5)
        assert np.all(model.canonical_pearson >= 1.0 - 1e-6)

    def test_correlations_non_increasing(self):
        rng = np.random.default_rng(31)
        x, y = random_pair(rng)
        model = fit_cca(x, y, n_components=4)
        assert np.all(np.diff(model.canonical_pearson) <= 1e-10)

    def test_score_columns_unit_variance(self):
        rng = np.random.default_rng(32)
        x, y = random_pair(rng)
        model = fit_cca(x, y, n_components=3)
        assert np.allclose(model.scores_phonetic.var(axis=0), 1.0, atol=1e-6)
        assert np.allclose(model.scores_semantic.var(axis=0), 1.0, atol=1e-6)

    def test_within_space_orthogonality(self):
        rng = np.random.default_rng(33)
        x, y = random_pair(rng, n=400)
        model = fit_cca(x, y, n_components=4)
        corr = np.corrcoef(model.scores_phonetic.T)
        off = corr - np.diag(np.diag(corr))
        assert np.max(np.abs(off)) < 1e-6

    def test_sign_orientation(self):
        rng = np.random.default_rng(34)
        x, y = random_pair(rng)
        model = fit_cca(x, y, n_components=3)
        xs = (x - x.mean(axis=0)) / x.std(axis=0)
        for c in range(3):
            loadings = structure_loadings(xs, model.scores_phonetic[:, c])
            assert loadings[np.argmax(np.abs(loadings))] > 0

    def test_affine_invariance_of_correlations(self):
        rng = np.random.default_rng(35)
        x, y = random_pair(rng, n=500)
        base = fit_cca(x, y, n_components=3)
        a = rng.normal(size=(5, 5))
        shifted = fit_cca(x @ a + rng.normal(size=5), y, n_components=3)
        assert np.allclose(base.canonical_pearson, shifted.canonical_pearson,
                           atol=1e-4)

    def test_too_many_components_rejected(self):
        rng = np.random.default_rng(36)
        x, y = random_pair(rng)
        with pytest.raises(AnalysisError):
            fit_cca(x, y, n_components=5)  # min(dims) = 4

    def test_too_few_rows_rejected(self):
        rng = np.random.default_rng(37)
        with pytest.raises(AnalysisError):
            fit_cca(rng.normal(size=(5, 6)), rng.normal(size=(5, 4)))

    def test_constant_column_rejected(self):
        rng = np.random.default_rng(38)
        x, y = random_pair(rng)
        x[:, 0] = 2.0
        with pytest.raises(AnalysisError, match="constant"):
            fit_cca(x, y, n_components=2)


class TestCanonicalRankCorrelations:
    def test_perfect_dependence_rho_one(self):
        rng = np.random.default_rng(39)
        x = rng.normal(size=(150, 4))
        a = rng.normal(size=(4, 4))
        model = fit_cca(x, x @ a, n_components=2)
        results = canonical_rank_correlations(
            model, X=x, Y=x @ a, n_shuffles=30, null_points=30, seed=0)
        for res in results:
            assert res.value == pytest.approx(1.0, abs=1e-6)
            assert res.p_value == 1 / 31

    def test_toy_rank_formula(self):
        # rho([1,2,3],[2,3,1]) = 1 - 6*(1+1+4)/(3*8) = -0.5
        from phonosem.stats import spearman_rho
        assert spearman_rho([1, 2, 3], [2, 3, 1]) == pytest.approx(-0.5, abs=1e-15)

    def test_progress_logged(self, caplog):
        rng = np.random.default_rng(42)
        x, y = random_pair(rng)
        model = fit_cca(x, y, n_components=2)
        with caplog.at_level(logging.INFO, logger="phonosem.stats"):
            canonical_rank_correlations(model, X=x, Y=y, n_shuffles=20,
                                        null_points=20, seed=0)
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "phonosem.stats"]
        assert len(messages) == 10
        assert messages[-1].startswith("permutation test: 20/20 shuffles, ")


class TestStructureLoadings:
    def test_scores_equal_column(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(50, 3))
        loadings = structure_loadings(x, x[:, 1])
        assert loadings[1] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_column_zero(self):
        x = np.zeros((4, 2))
        x[:, 0] = [1.0, -1.0, 1.0, -1.0]
        x[:, 1] = [1.0, 1.0, -1.0, -1.0]
        loadings = structure_loadings(x, x[:, 0])
        assert abs(loadings[1]) < 1e-12

    def test_matches_covariance_oracle(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(50, 4))
        s = rng.normal(size=50)
        loadings = structure_loadings(x, s)
        for j in range(4):
            expected = np.corrcoef(x[:, j], s)[0, 1]
            assert loadings[j] == pytest.approx(expected, abs=1e-10)

    def test_constant_column_zero_by_convention(self):
        rng = np.random.default_rng(44)
        x = rng.normal(size=(20, 3))
        x[:, 2] = 5.0
        loadings = structure_loadings(x, rng.normal(size=20))
        assert loadings[2] == 0.0


def pairs(pole):
    """A pole's records as (item, value) pairs."""
    return [(e["item"], e["value"]) for e in pole]


class TestExtractPhoneticPole:
    names = ["a", "b", "c", "d"]

    @staticmethod
    def poles(loadings, names):
        pos, neg = _phonetic_poles(np.asarray(loadings), names, 75.0, 0.05)
        return pairs(pos), pairs(neg)

    def test_percentile_and_threshold(self):
        pos, _ = self.poles([0.9, 0.2, 0.04, -0.5], self.names)
        assert pos == [("a", 0.9)]

    def test_all_negative_sign_plus_empty(self):
        assert self.poles([-0.3, -0.1], ["a", "b"])[0] == []

    def test_tie_kept_name_order(self):
        _, neg = self.poles([-0.6, -0.6], ["b", "a"])
        assert neg == [("a", -0.6), ("b", -0.6)]

    def test_negative_sign_symmetric(self):
        _, neg = self.poles([0.9, -0.9, -0.2, -0.04], self.names)
        assert neg == [("b", -0.9)]

    def test_feature_permutation_invariance(self):
        rng = np.random.default_rng(45)
        loadings = rng.uniform(-1, 1, size=8)
        names = [f"f{i}" for i in range(8)]
        perm = rng.permutation(8)
        base = self.poles(loadings, names)
        permuted = self.poles(loadings[perm], [names[i] for i in perm])
        for got, want in zip(permuted, base):
            assert sorted(got) == sorted(want)


class TestSemanticPoleNeighbors:
    def make_fixture(self, rng, n_words=20, dim=4):
        x = rng.normal(size=(150, 3))
        y = rng.normal(size=(150, dim))
        model = fit_cca(x, y, n_components=2)
        words = tuple(f"w{i}" for i in range(n_words))
        vocab = EmbeddingMatrix(words, rng.normal(size=(n_words, dim)))
        return model, vocab

    def test_exact_direction_ranked_first(self):
        rng = np.random.default_rng(46)
        model, vocab = self.make_fixture(rng)
        direction = model.weights_semantic[:, 0] / model.scale_semantic
        vectors = vocab.vectors.copy()
        vectors[7] = direction / np.linalg.norm(direction)
        vocab = EmbeddingMatrix(vocab.ids, vectors)
        pos, _ = _semantic_poles(model, 0, pole_candidates(vocab), 10)
        assert len(pos) == 10
        assert pos[0]["item"] == "w7"
        assert pos[0]["value"] == pytest.approx(1.0, abs=1e-12)

    def test_zipf_cutoff_empties_candidates(self, caplog):
        # no word above the cutoff had a vector, so none was loaded
        rng = np.random.default_rng(47)
        model, vocab = self.make_fixture(rng)
        poles = _semantic_poles(model, 0, pole_candidates(vocab.subset([])), 10)
        assert poles == ([], [])
        assert "no candidates above the zipf cutoff" in caplog.text

    def test_matches_brute_force_ranking(self):
        rng = np.random.default_rng(48)
        model, vocab = self.make_fixture(rng)
        _, neg = _semantic_poles(model, 1, pole_candidates(vocab), 5)
        direction = -model.weights_semantic[:, 1] / model.scale_semantic
        direction = direction / np.linalg.norm(direction)
        sims = {}
        for w, vec in zip(vocab.ids, vocab.vectors):
            sims[w] = float(vec @ direction / np.linalg.norm(vec))
        expected = sorted(vocab.ids, key=lambda w: (-sims[w], w))[:5]
        assert [e["item"] for e in neg] == expected

    def test_tied_similarities_break_by_word(self):
        rng = np.random.default_rng(50)
        model, vocab = self.make_fixture(rng)
        words = ("z", "b", "é", "ab", "a", "w3", "w1", "w2")
        base = rng.normal(size=(2, 4))
        vocab = EmbeddingMatrix(words, np.repeat(base, 4, axis=0))
        pos, _ = _semantic_poles(model, 0, pole_candidates(vocab), 6)
        assert len({e["value"] for e in pos}) == 2
        direction = model.weights_semantic[:, 0] / model.scale_semantic
        cosine = base @ direction / np.linalg.norm(base, axis=1)
        groups = [sorted(words[:4]), sorted(words[4:])]
        if cosine[1] > cosine[0]:
            groups.reverse()
        assert [e["item"] for e in pos] == (groups[0] + groups[1])[:6]

    def test_sign_flip_swaps_poles(self):
        rng = np.random.default_rng(49)
        model, vocab = self.make_fixture(rng)
        candidates = pole_candidates(vocab)
        pos, neg = _semantic_poles(model, 0, candidates, 5)
        flipped = dataclasses.replace(
            model, weights_semantic=-model.weights_semantic)
        assert _semantic_poles(flipped, 0, candidates, 5) == (neg, pos)


# A hand-built model over 3 semantic dimensions: variate 1 points along
# the first axis, variate 2 along the diagonal of the first two
POLE_MODEL = CcaModel(
    n_components=2,
    weights_semantic=np.array([[2.0, 1.0], [0.0, 1.0], [0.0, 0.0]]),
    scores_phonetic=np.zeros((4, 2)), scores_semantic=np.zeros((4, 2)),
    canonical_pearson=np.zeros(2), scale_semantic=np.ones(3), ridge=0.0)
# fewer than k = 10 candidates, none of zero norm: "zeta" is orthogonal
# to variate 1, "orth" to variate 2, and "tie_a" and "tie_b" tie
POLE_WORDS = EmbeddingMatrix(
    ("zeta", "orth", "tie_b", "tie_a", "neg", "pos"),
    np.array([[0.0, 1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 2.0, 3.0],
              [1.0, 2.0, 3.0], [-3.0, 1.0, 0.0], [4.0, 0.0, 1.0]]))
POLE_CASES = [
    # component, loadings of f00..f11, percentile, threshold. Variate 1:
    # 0.5 and -0.5; -0.05 at the threshold; 0.1 and -0.03 at the
    # percentile cut; a tie at 0.3; 0.0 and -0.0. Variate 2: no negative
    # loading
    (0, [0.5, 0.3, -0.5, 0.3, -0.05, 0.1, -0.04, 0.06, -0.03, 0.0, -0.02, -0.0],
     25.0, 0.05),
    (1, [0.7, 0.0, 0.2, -0.0, 0.0, 0.2, 0.01, 0.0, 0.0, 0.0, 0.0, 0.0],
     75.0, 0.05),
]
# the records PoleReport.to_record() gave for these cases, before
# build_pole_report returned them itself
POLE_RECORDS = [
    '{"component": 1, "interpretation_phonetic": "", "interpretation_semantic": '
    '"", "phonetic_neg": [{"item": "f02", "value": -0.5}, {"item": "f04", '
    '"value": -0.05}], "phonetic_pos": [{"item": "f00", "value": 0.5}, {"item": '
    '"f01", "value": 0.3}, {"item": "f03", "value": 0.3}, {"item": "f05", '
    '"value": 0.1}], "semantic_neg": [{"item": "neg", "value": '
    '0.9486832980505138}, {"item": "zeta", "value": 0.0}, {"item": "tie_a", '
    '"value": -0.2672612419124244}, {"item": "tie_b", "value": '
    '-0.2672612419124244}, {"item": "orth", "value": -0.7071067811865475}, '
    '{"item": "pos", "value": -0.9701425001453319}], "semantic_pos": [{"item": '
    '"pos", "value": 0.9701425001453319}, {"item": "orth", "value": '
    '0.7071067811865475}, {"item": "tie_a", "value": 0.2672612419124244}, '
    '{"item": "tie_b", "value": 0.2672612419124244}, {"item": "zeta", "value": '
    '0.0}, {"item": "neg", "value": -0.9486832980505138}]}',
    '{"component": 2, "interpretation_phonetic": "", "interpretation_semantic": '
    '"", "phonetic_neg": [], "phonetic_pos": [{"item": "f00", "value": 0.7}], '
    '"semantic_neg": [{"item": "neg", "value": 0.44721359549995787}, {"item": '
    '"orth", "value": 0.0}, {"item": "tie_a", "value": -0.5669467095138409}, '
    '{"item": "tie_b", "value": -0.5669467095138409}, {"item": "pos", "value": '
    '-0.6859943405700353}, {"item": "zeta", "value": -0.7071067811865475}], '
    '"semantic_pos": [{"item": "zeta", "value": 0.7071067811865475}, {"item": '
    '"pos", "value": 0.6859943405700353}, {"item": "tie_a", "value": '
    '0.5669467095138409}, {"item": "tie_b", "value": 0.5669467095138409}, '
    '{"item": "orth", "value": 0.0}, {"item": "neg", "value": '
    '-0.44721359549995787}]}',
]


class TestPoleReport:
    def test_report_shape(self):
        rng = np.random.default_rng(50)
        x = rng.normal(size=(200, 4))
        y = rng.normal(size=(200, 5))
        model = fit_cca(x, y, n_components=2)
        words = tuple(f"w{i}" for i in range(30))
        vocab = EmbeddingMatrix(words, rng.normal(size=(30, 5)))
        xs = (x - x.mean(axis=0)) / x.std(axis=0)
        rec = build_pole_report(model, 0, xs, ["f0", "f1", "f2", "f3"],
                                pole_candidates(vocab), k=5)
        assert rec["component"] == 1
        assert len(rec["semantic_pos"]) == 5
        assert len(rec["semantic_neg"]) == 5
        assert rec["interpretation_semantic"] == ""
        assert rec["interpretation_phonetic"] == ""
        assert all(isinstance(e["item"], str) for e in rec["phonetic_pos"])

    @pytest.mark.parametrize("case,expected", zip(POLE_CASES, POLE_RECORDS),
                             ids=["cv1", "cv2"])
    def test_record_pinned(self, monkeypatch, case, expected):
        # the loadings are given, since structure_loadings cannot give a
        # -0.0; sort_keys text tells -0.0 from 0.0
        component, loadings, percentile, threshold = case
        monkeypatch.setattr(cca, "structure_loadings",
                            lambda x, s: np.array(loadings))
        rec = build_pole_report(
            POLE_MODEL, component, np.zeros((4, 12)),
            [f"f{i:02d}" for i in range(12)], pole_candidates(POLE_WORDS),
            k=10, percentile=percentile, threshold=threshold)
        assert json.dumps(rec, sort_keys=True) == expected

    @pytest.mark.parametrize("component", [-1, 2])
    def test_component_out_of_range(self, component):
        with pytest.raises(AnalysisError, match="out of range"):
            build_pole_report(POLE_MODEL, component, np.zeros((4, 12)),
                              [f"f{i:02d}" for i in range(12)],
                              pole_candidates(POLE_WORDS))
