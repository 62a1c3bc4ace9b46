"""Centroid lines, projections, word selection, and scale alignment."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from phonosem import pipeline, subspace
from phonosem.corpus import (EmbeddingMatrix, Lexeme, ScaleConfig,
                             load_feature_table, load_lexicon, load_scale_configs,
                             load_semantic_embeddings, save_lexicon)
from phonosem.errors import AnalysisError, InputError
from phonosem.phonetic import _tokenize_and_pool
from phonosem.stats import _BLOCK_ELEMENTS, _row_blocks
from phonosem.subspace import (CentroidLine, build_line,
                               perpendicular_distance, pool_candidates,
                               project, scale_alignment, select_words)
from phonosem.synth import make_planted_language


class TestBuildLine:
    def test_centroid_arithmetic(self):
        line = build_line([(1.0, 0.0), (3.0, 0.0)], [(-1.0, 0.0), (-3.0, 0.0)])
        assert np.array_equal(line.origin, [-2.0, 0.0])
        assert np.array_equal(line.direction, [4.0, 0.0])

    def test_singletons(self):
        line = build_line([(1.0, 1.0)], [(0.0, 0.0)])
        assert np.array_equal(line.origin, [0.0, 0.0])
        assert np.array_equal(line.direction, [1.0, 1.0])

    def test_coincident_centroids_rejected(self):
        with pytest.raises(AnalysisError, match="coincident"):
            build_line([(1.0, 2.0)], [(1.0, 2.0)])

    def test_empty_set_rejected(self):
        with pytest.raises(InputError):
            build_line(np.empty((0, 2)), [(0.0, 0.0)])


class TestProject:
    line = build_line([(2.0, 0.0)], [(0.0, 0.0)])

    def test_positive_centroid_is_one(self):
        assert project(np.array([2.0, 0.0]), self.line) == 1.0

    def test_negative_centroid_is_zero(self):
        assert project(np.array([0.0, 0.0]), self.line) == 0.0

    def test_perpendicular_offset_ignored(self):
        assert project(np.array([1.0, 5.0]), self.line) == 0.5

    def test_translation_invariance(self):
        rng = np.random.default_rng(60)
        pts = rng.normal(size=(20, 3))
        pos, neg = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        shift = rng.normal(size=3)
        base = project(pts, build_line(pos, neg))
        shifted = project(pts + shift, build_line(pos + shift, neg + shift))
        assert np.allclose(base, shifted, atol=1e-9)

    def test_direction_scale_invariance(self):
        line = self.line
        doubled = CentroidLine(origin=line.origin, direction=2 * line.direction,
                               midpoint=line.origin + line.direction)
        # scaling direction moves the positive centroid; the coordinate of
        # a fixed physical point relative to each line still normalizes out
        assert project(np.array([4.0, 0.0]), doubled) == 1.0


class TestPerpendicularDistance:
    def test_point_on_line(self):
        line = build_line([(1.0, 0.0)], [(0.0, 0.0)])
        assert perpendicular_distance(np.array([0.3, 0.0]), line) == \
            pytest.approx(0.0, abs=1e-12)

    def test_axis_aligned_offset(self):
        line = build_line([(1.0, 0.0)], [(0.0, 0.0)])
        assert perpendicular_distance(np.array([0.0, 5.0]), line) == \
            pytest.approx(5.0, abs=1e-12)

    def test_pythagorean_identity(self):
        rng = np.random.default_rng(61)
        line = build_line(rng.normal(size=(3, 10)), rng.normal(size=(4, 10)))
        pts = rng.normal(size=(200, 10))
        t = project(pts, line)
        dist = perpendicular_distance(pts, line)
        d2 = np.dot(line.direction, line.direction)
        lhs = dist ** 2 + t ** 2 * d2
        rhs = np.sum((pts - line.origin) ** 2, axis=1)
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-10)

    # points of DIMS dimensions, so one row block covers BLOCK rows
    DIMS = 256
    BLOCK = _BLOCK_ELEMENTS // DIMS

    @pytest.mark.parametrize("rows", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_row_blocks_equal_the_one_shot_formula(self, rows):
        assert len(list(_row_blocks(rows, self.DIMS))) == -(-rows // self.BLOCK)
        rng = np.random.default_rng(rows)
        line = build_line(rng.normal(size=(3, self.DIMS)),
                          rng.normal(size=(2, self.DIMS)))
        pts = rng.normal(size=(rows, self.DIMS))
        d2 = np.dot(line.direction, line.direction)
        u = (pts - line.midpoint) @ line.direction / d2
        foot = line.midpoint + np.multiply.outer(u, line.direction)
        expected = np.linalg.norm(pts - foot, axis=-1)
        assert np.array_equal(perpendicular_distance(pts, line), expected)


@pytest.mark.parametrize("dims", [2, 100, 300])
@pytest.mark.parametrize("extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)],
                         ids=["1", "step-1", "step", "step+1", "2step+3"])
def test_blocked_distance_equals_the_norm_bit_for_bit(dims, extra):
    step = _BLOCK_ELEMENTS // dims
    rows = extra[0] * step + extra[1]
    rng = np.random.default_rng([dims, rows])
    line = build_line(rng.normal(size=(3, dims)), rng.normal(size=(2, dims)))
    pts = rng.normal(size=(rows, dims)) * rng.uniform(0.1, 10.0, size=(rows, 1))
    u = subspace._midpoint_coord(pts, line)
    expected = np.linalg.norm(
        pts - (line.midpoint + np.multiply.outer(u, line.direction)), axis=-1)
    assert (perpendicular_distance(pts, line) == expected).all()


def lexsort_rows(vocab, line, n):
    """The rows ``select_words`` must return: a lexsort by distance, then
    by word."""
    dist = perpendicular_distance(vocab.vectors, line)
    return np.lexsort((np.array(vocab.ids), dist))[:n]


@pytest.mark.parametrize("seed", range(6))
def test_select_words_equals_the_lexsort(seed):
    # few distinct vectors under many words, so distances tie exactly;
    # the words mix ASCII and non-ASCII, in no sorted order
    rng = np.random.default_rng(seed)
    alphabet = list("abzAZ") + ["\u00e9", "\u00e4", "\u00f8", "\u0101",
                                 "\u4e00", "\U0001f600", "e\u0301"]
    words = sorted({"".join(rng.choice(alphabet, size=rng.integers(1, 4)))
                    for _ in range(300)})
    ids = tuple(rng.permutation(words).tolist())
    distinct = rng.integers(-2, 3, size=(int(rng.integers(2, 12)), 4)).astype(float)
    vectors = distinct[rng.integers(0, len(distinct), size=len(ids))]
    line = build_line(rng.normal(size=(2, 4)), rng.normal(size=(2, 4)))
    vocab = EmbeddingMatrix(ids, vectors)
    dist = perpendicular_distance(vectors, line)
    assert np.unique(dist).size < len(ids) // 10
    for n in (1, len(ids) // 3, len(ids), len(ids) + 5):
        assert np.array_equal(select_words(vocab, line, n=n),
                              lexsort_rows(vocab, line, n))


def selected(vocab, line, n):
    """The words of the rows ``select_words`` picks."""
    return [vocab.ids[i] for i in select_words(vocab, line, n=n)]


class TestSelectWords:
    def test_small_vocabulary_flagged(self, caplog):
        rng = np.random.default_rng(62)
        vocab = EmbeddingMatrix(tuple("abcde"), rng.normal(size=(5, 3)))
        line = build_line(rng.normal(size=(1, 3)), rng.normal(size=(1, 3)))
        assert sorted(selected(vocab, line, n=10_000)) == list("abcde")
        assert "vocabulary 5 smaller than n=10000" in caplog.text

    def test_on_line_word_always_selected(self):
        rng = np.random.default_rng(63)
        line = build_line([(1.0, 0.0, 0.0)], [(0.0, 0.0, 0.0)])
        vectors = rng.normal(size=(10, 3)) + 5.0
        vectors[4] = [0.25, 0.0, 0.0]  # exactly on the line
        vocab = EmbeddingMatrix(tuple(f"w{i}" for i in range(10)), vectors)
        assert selected(vocab, line, n=1) == ["w4"]

    def test_matches_full_sort_oracle(self, caplog):
        rng = np.random.default_rng(64)
        vocab = EmbeddingMatrix(tuple(f"w{i:03d}" for i in range(100)),
                                rng.normal(size=(100, 4)))
        line = build_line(rng.normal(size=(2, 4)), rng.normal(size=(2, 4)))
        words = selected(vocab, line, n=30)
        assert "smaller than n" not in caplog.text
        dist = perpendicular_distance(vocab.vectors, line)
        expected = [w for _, w in sorted(zip(dist, vocab.ids))][:30]
        assert words == expected

    def test_tied_distances_break_by_word(self):
        rng = np.random.default_rng(66)
        ids = tuple(rng.permutation(
            ["a", "ab", "b", "ba", "é", "z", "zz", "ø", "aé", "ä"]).tolist()
        ) + tuple(f"w{i}" for i in range(30))
        vectors = np.repeat(rng.integers(0, 3, size=(8, 3)).astype(float),
                            5, axis=0)[rng.permutation(40)]
        line = build_line([(1.0, 0.0, 0.0)], [(0.0, 0.0, 0.0)])
        dist = perpendicular_distance(vectors, line)
        assert np.unique(dist).size < 10
        words = selected(EmbeddingMatrix(ids, vectors), line, n=25)
        assert words == [w for _, w in sorted(zip(dist, ids))][:25]

    def test_input_order_invariance(self):
        rng = np.random.default_rng(65)
        ids = tuple(f"w{i}" for i in range(40))
        vectors = rng.normal(size=(40, 3))
        line = build_line(rng.normal(size=(1, 3)), rng.normal(size=(1, 3)))
        base = selected(EmbeddingMatrix(ids, vectors), line, n=10)
        perm = rng.permutation(40)
        shuffled = selected(
            EmbeddingMatrix(tuple(ids[i] for i in perm), vectors[perm]),
            line, n=10)
        assert base == shuffled


def make_scale(words, segments, swap_semantic=False, swap_phonetic=False):
    sem_pos, sem_neg = (words[0], words[1]), (words[2], words[3])
    phon_pos, phon_neg = (segments[0], segments[1]), (segments[2], segments[3])
    if swap_semantic:
        sem_pos, sem_neg = sem_neg, sem_pos
    if swap_phonetic:
        phon_pos, phon_neg = phon_neg, phon_pos
    return ScaleConfig("demo", phon_pos, phon_neg,
                       {"en": sem_pos}, {"en": sem_neg})


class TestScaleAlignment:
    def run(self, small_language, feature_table, **scale_kwargs):
        words, lexicon, vectors = small_language
        segments = list(feature_table.vectors)
        scale = make_scale(words, segments, **scale_kwargs)
        vocab = EmbeddingMatrix(tuple(words), vectors)
        return scale_alignment(scale, "en", vocab, feature_table,
                               pool_candidates(vocab, lexicon, feature_table),
                               n_words=50, n_shuffles=40, null_points=40,
                               seed=5)

    def test_result_shape(self, small_language, feature_table):
        res = self.run(small_language, feature_table)
        assert res.n_words == 50
        assert -1.0 <= res.rho <= 1.0
        assert res.semantic_coords.shape == (50,)
        assert res.alignment.alternative == "two-sided"

    def test_semantic_swap_negates_exactly(self, small_language, feature_table):
        base = self.run(small_language, feature_table)
        swapped = self.run(small_language, feature_table, swap_semantic=True)
        assert swapped.rho == -base.rho
        assert swapped.words == base.words

    def test_phonetic_swap_negates_exactly(self, small_language, feature_table):
        base = self.run(small_language, feature_table)
        swapped = self.run(small_language, feature_table, swap_phonetic=True)
        assert swapped.rho == -base.rho

    def test_double_swap_identity(self, small_language, feature_table):
        base = self.run(small_language, feature_table)
        both = self.run(small_language, feature_table,
                        swap_semantic=True, swap_phonetic=True)
        assert both.rho == base.rho

    def test_planted_signal_detected(self):
        # semantic dimension 0 tracks each word's mean sonorancy; the
        # "extra" feature is balanced within each class so the phonetic
        # line reduces to the sonorancy axis
        from phonosem.corpus import SegmentFeatureTable
        seg = {"m": (1, 1), "n": (1, -1), "l": (1, 0), "a": (1, 0),
               "p": (-1, 1), "t": (-1, -1), "k": (-1, 0), "s": (-1, 0)}
        table = SegmentFeatureTable(
            ("son", "extra"), {s: np.asarray(v, float) for s, v in seg.items()})
        rng = np.random.default_rng(66)
        segments = list(seg)
        words, lexemes, vectors = [], [], []
        seen = set()
        while len(words) < 60:
            length = int(rng.integers(3, 7))
            ipa = "".join(rng.choice(segments, size=length))
            if ipa in seen:
                continue
            seen.add(ipa)
            word = f"w{len(words):02d}"
            sonorancy = np.mean([seg[c][0] for c in ipa])
            vec = np.array([sonorancy + 0.05 * rng.normal(),
                            0.3 * rng.normal(), 0.3 * rng.normal()])
            words.append(word)
            lexemes.append(Lexeme(word, word, 5.0, ipa))
            vectors.append(vec)
        vectors = np.array(vectors)
        order = np.argsort(vectors[:, 0])
        scale = ScaleConfig("son", ("m", "n"), ("p", "t"),
                            {"en": tuple(words[j] for j in order[-2:])},
                            {"en": tuple(words[j] for j in order[:2])})
        vocab = EmbeddingMatrix(tuple(words), vectors)
        res = scale_alignment(
            scale, "en", vocab, table,
            pool_candidates(vocab, tuple(lexemes), table),
            n_words=60, n_shuffles=200, null_points=200, seed=1)
        assert res.rho > 0.9
        assert res.p_value == 1 / 201

    def test_missing_exemplar_named(self, small_language, feature_table):
        words, lexicon, vectors = small_language
        vocab = EmbeddingMatrix(tuple(words), vectors)
        candidates = pool_candidates(vocab, lexicon, feature_table)
        scale = ScaleConfig("demo", ("p",), ("t",),
                            {"en": ("nosuchword", words[1], "nosuchword2")},
                            {"en": (words[0],)})
        with pytest.raises(InputError, match=re.escape(
                "scale 'demo' (en): semantic exemplars missing from embeddings: "
                "nosuchword, nosuchword2")):
            scale_alignment(scale, "en", vocab, feature_table, candidates)
        scale = ScaleConfig("demo", ("p", "q0", "q1"), ("t",),
                            {"en": (words[1],)}, {"en": (words[0],)})
        with pytest.raises(InputError, match=re.escape(
                "scale 'demo': phonetic exemplar segments missing from feature "
                "table: q0, q1")):
            scale_alignment(scale, "en", vocab, feature_table, candidates)

    def test_missing_language(self, small_language, feature_table):
        words, lexicon, vectors = small_language
        scale = make_scale(words, list(feature_table.vectors))
        vocab = EmbeddingMatrix(tuple(words), vectors)
        with pytest.raises(InputError, match="'fi'"):
            scale_alignment(scale, "fi", vocab, feature_table,
                            pool_candidates(vocab, lexicon, feature_table))


def test_run_subspace_pools_once_per_language(planted_dir, tmp_path, monkeypatch):
    _, paths = planted_dir
    words = [lx.word for lx in load_lexicon(paths["lexicon"])]
    languages = ("syn", "alt")
    scales = {"scales": {
        name: {"phonetic": {"pos": pos, "neg": neg},
               "semantic": {lang: {"pos": words[i:i + 2], "neg": words[i + 2:i + 4]}
                            for lang in languages}}
        for i, (name, pos, neg) in enumerate([
            ("one", ["m", "n"], ["p", "t"]), ("two", ["l", "m"], ["k", "t"]),
            ("three", ["n", "l"], ["p", "k"])])}}
    scales_path = tmp_path / "scales.json"
    scales_path.write_text(json.dumps(scales), encoding="utf-8")
    inputs = {role: str(paths[role]) for role in ("lexicon", "vectors", "segmentations")}
    config = pipeline.RunConfig(
        languages=languages, feature_table=str(paths["feature_table"]),
        inputs={lang: inputs for lang in languages},
        output_dir=str(tmp_path / "out"), scales=str(scales_path),
        params={"subspace_shuffles": 5, "subspace_null_points": 5,
                "subspace_pool": 50})

    calls = []
    original = subspace.pool_candidates

    def counting(vocabulary, lexicon, table):
        calls.append(None)
        return original(vocabulary, lexicon, table)

    monkeypatch.setattr(pipeline, "pool_candidates", counting)
    pipeline.run_subspace(config)
    assert len(calls) == len(languages)
    payload = json.loads((tmp_path / "out" / "subspace.json").read_text(encoding="utf-8"))
    assert len(payload["cells"]) == 6


def copying_pool(vocabulary, lexicon, table):
    """``pool_candidates`` as it was when the candidates' rows were always
    a copy gathered from the vocabulary: the oracle of the pooling that
    reuses the vocabulary's array."""
    ipa = {lx.word: lx.ipa for lx in lexicon}
    emb_index = {w: i for i, w in enumerate(vocabulary.ids)}
    words, rows, no_phon = _tokenize_and_pool(
        [(w, ipa.get(w, "")) for w in vocabulary.ids], table)
    return subspace.ScaleCandidates(
        words=EmbeddingMatrix(
            ids=tuple(words),
            vectors=vocabulary.vectors[[emb_index[w] for w in words]]),
        phonetic=rows,
        dropped_no_embedding=sum(1 for lx in lexicon if lx.word not in emb_index),
        dropped_no_phonetics=len(no_phon),
    )


def subspace_language(tmp_path, all_pool):
    """A config over a 300-word planted language and three scales. Unless
    ``all_pool``, every seventh word (two semantic exemplars among them)
    has a transcription no segment matches, and one more word has no
    vector."""
    paths = make_planted_language(tmp_path / "lang", n_morphemes=300, seed=4)
    lexicon = load_lexicon(paths["lexicon"])
    words = [lx.word for lx in lexicon]
    if not all_pool:
        lexicon = [Lexeme(lx.word, lx.lemma, lx.zipf, "ʔʔ" if i % 7 == 0
                          else lx.ipa) for i, lx in enumerate(lexicon)]
        lexicon.append(Lexeme("zz_no_vector", "zz_no_vector", 5.0, "pata"))
        save_lexicon(lexicon, paths["lexicon"])
    scales = paths["lexicon"].parent / "scales.json"
    scales.write_text(json.dumps({"scales": {
        name: {"phonetic": {"pos": pos, "neg": neg},
               "semantic": {"syn": {"pos": words[i:i + 2],
                                    "neg": words[i + 2:i + 4]}}}
        for name, i, pos, neg in [("one", 0, ["m", "n"], ["p", "t"]),
                                  ("two", 5, ["l", "a"], ["k", "s"]),
                                  ("three", 15, ["i", "u"], ["b", "d"])]}}),
        encoding="utf-8")
    return pipeline.RunConfig(
        languages=("syn",), feature_table=str(paths["feature_table"]),
        inputs={"syn": {role: str(paths[role])
                        for role in ("lexicon", "vectors", "segmentations")}},
        output_dir=str(tmp_path / "out"), scales=str(scales),
        params={"subspace_shuffles": 30, "subspace_null_points": 20,
                "subspace_pool": 120})


@pytest.mark.parametrize("all_pool", [True, False], ids=["all-pool", "some-pool"])
def test_run_subspace_equals_a_copying_oracle(tmp_path, all_pool):
    config = subspace_language(tmp_path, all_pool)
    lexicon = load_lexicon(config.inputs["syn"]["lexicon"])
    # a store of every fifth word, so the read merges parsed rows into it
    pipeline.load_vectors(config, "syn", pipeline.input_digests(config, ("vectors",)),
                          [lx.word for lx in lexicon[::5]])
    pipeline.run_subspace(config)
    payload = json.loads((tmp_path / "out" / "subspace.json").read_text("utf-8"))

    table = load_feature_table(config.feature_table)
    vocab, _ = load_semantic_embeddings(config.inputs["syn"]["vectors"],
                                        [lx.word for lx in lexicon])
    candidates = copying_pool(vocab, lexicon, table)
    assert (candidates.words.n_items == vocab.n_items) == all_pool
    assert candidates.dropped_no_embedding == (0 if all_pool else 1)
    row = {w: i for i, w in enumerate(vocab.ids)}
    cells = []
    for scale in load_scale_configs(config.scales):
        pooled = [w for w in scale.semantic_pos["syn"] + scale.semantic_neg["syn"]
                  if w in candidates.words.ids]
        assert (len(pooled) == 4) == (all_pool or scale.name == "three")
        result = scale_alignment(
            scale, "syn", vocab, table, candidates, n_words=120,
            **pipeline._null(config, f"subspace:{scale.name}", "syn", "subspace_"))
        # the in-place centring gives the bits of project over a gather
        line = build_line(vocab.vectors[[row[w] for w in scale.semantic_pos["syn"]]],
                          vocab.vectors[[row[w] for w in scale.semantic_neg["syn"]]])
        expected = project(vocab.vectors[[row[w] for w in result.words]], line)
        assert result.semantic_coords.tobytes() == expected.tobytes()
        cells.append(result.to_record())
    assert (json.dumps(payload["cells"], sort_keys=True)
            == json.dumps(cells, sort_keys=True))


def test_run_subspace_names_missing_exemplars_in_scale_order(tmp_path):
    config = subspace_language(tmp_path, all_pool=False)
    scales = json.loads(Path(config.scales).read_text("utf-8"))
    scales["scales"]["two"]["semantic"]["syn"]["pos"][1] = "zz_q"
    scales["scales"]["two"]["semantic"]["syn"]["pos"][0] = "zz_no_vector"
    scales["scales"]["three"]["semantic"]["syn"]["neg"][0] = "zz_r"
    Path(config.scales).write_text(json.dumps(scales), encoding="utf-8")
    with pytest.raises(InputError, match=re.escape(
            "scale 'two' (syn): semantic exemplars missing from embeddings: "
            "zz_no_vector, zz_q")):
        pipeline.run_subspace(config)
