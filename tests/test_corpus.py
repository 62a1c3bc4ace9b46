"""Loaders, data model invariants, and round-trips."""

import json
import unicodedata

import numpy as np
import pytest

from phonosem.corpus import (EmbeddingMatrix, Morpheme,
                             MorphemeSet, ScaleConfig, load_feature_table,
                             load_lexicon, load_scale_configs,
                             load_semantic_embeddings, save_feature_table,
                             save_lexicon, save_semantic_embeddings)
from phonosem.errors import InputError, ParseError


def write_lexicon(path, rows):
    lines = ["word\tlemma\tzipf\tipa"]
    lines += ["\t".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadLexicon:
    def test_dedupe_and_sort(self, tmp_path):
        path = tmp_path / "lex.tsv"
        write_lexicon(path, [("a", "a", 5.1, "a"), ("b", "b", 4.0, "b"),
                             ("a", "a", 5.1, "a")])
        lex = load_lexicon(path)
        assert [lx.word for lx in lex] == ["a", "b"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "lex.tsv"
        write_lexicon(path, [])
        assert len(load_lexicon(path)) == 0

    def test_non_numeric_zipf_names_row(self, tmp_path):
        path = tmp_path / "lex.tsv"
        write_lexicon(path, [("a", "a", "high", "a")])
        with pytest.raises(ParseError, match=":2"):
            load_lexicon(path)

    def test_text_that_is_not_utf8_names_file(self, tmp_path):
        path = tmp_path / "lex.tsv"
        write_lexicon(path, [("a", "a", 5.1, "a")])
        path.write_bytes(path.read_bytes() + "caf\xe9\tcaf\xe9\t3.0\tkafe\n".encode("latin-1"))
        with pytest.raises(ParseError, match=r"lex\.tsv: not UTF-8 text"):
            load_lexicon(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("word\tzipf\na\t1\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_lexicon(path)

    def test_highest_zipf_wins_but_first_ipa_kept(self, tmp_path):
        path = tmp_path / "lex.tsv"
        write_lexicon(path, [("a", "x", 4.0, "ab"), ("a", "y", 6.0, "cd")])
        lex = load_lexicon(path)
        assert len(lex) == 1
        assert lex[0].zipf == 6.0
        assert lex[0].ipa == "ab"

    def test_nfc_normalization(self, tmp_path):
        decomposed = unicodedata.normalize("NFD", "é")
        path = tmp_path / "lex.tsv"
        write_lexicon(path, [(decomposed, decomposed, 5.0, decomposed)])
        lex = load_lexicon(path)
        assert lex[0].word == "é"

    def test_round_trip(self, tmp_path):
        path = tmp_path / "lex.tsv"
        write_lexicon(path, [("a", "a", 5.25, "ab"), ("b", "b", 4.5, "")])
        lex = load_lexicon(path)
        out = tmp_path / "out.tsv"
        save_lexicon(lex, out)
        assert load_lexicon(out) == lex


class TestTopNAndZipf:
    def test_tie_break_lexicographic(self, tmp_path):
        path = tmp_path / "lex.tsv"
        write_lexicon(path, [("b", "b", 4.0, "b"), ("a", "a", 4.0, "a"),
                             ("c", "c", 4.5, "c")])
        assert [lx.word for lx in load_lexicon(path)] == ["c", "a", "b"]


class TestFeatureTable:
    def test_valid_table(self, tmp_path):
        path = tmp_path / "feat.tsv"
        path.write_text("segment\tf1\tf2\tf3\na\t1\t0\t-1\nb\t-1\t-1\t0\n",
                        encoding="utf-8")
        table = load_feature_table(path)
        assert table.n_features == 3
        assert list(table.vectors) == ["a", "b"]
        assert np.array_equal(table["a"], [1.0, 0.0, -1.0])

    def test_value_out_of_range_names_segment(self, tmp_path):
        path = tmp_path / "feat.tsv"
        path.write_text("segment\tf1\na\t2\n", encoding="utf-8")
        with pytest.raises(ParseError, match="'a'"):
            load_feature_table(path)

    def test_duplicate_segment(self, tmp_path):
        path = tmp_path / "feat.tsv"
        path.write_text("segment\tf1\na\t1\na\t0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="duplicate"):
            load_feature_table(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "feat.tsv"
        path.write_text("segment\tf1\tf2\na\t1\n", encoding="utf-8")
        with pytest.raises(ParseError, match="ragged"):
            load_feature_table(path)

    def test_round_trip(self, tmp_path, feature_table):
        path = tmp_path / "feat.tsv"
        save_feature_table(feature_table, path)
        loaded = load_feature_table(path)
        assert loaded.feature_names == feature_table.feature_names
        for seg in feature_table.vectors:
            assert np.array_equal(loaded[seg], feature_table[seg])


class TestSemanticEmbeddings:
    def write_vec(self, path, rows, header=None):
        lines = [header] if header else []
        lines += [f"{tok} " + " ".join(str(v) for v in vec) for tok, vec in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_all_found(self, tmp_path):
        path = tmp_path / "v.vec"
        self.write_vec(path, [("x", [1, 2, 3, 4]), ("y", [0, 0, 1, 0]),
                              ("z", [9, 9, 9, 9])])
        matrix, missing = load_semantic_embeddings(path, {"x", "y"})
        assert matrix.vectors.shape == (2, 4)
        assert missing == []

    def test_missing_reported(self, tmp_path):
        path = tmp_path / "v.vec"
        self.write_vec(path, [("x", [1, 2, 3, 4])])
        matrix, missing = load_semantic_embeddings(path, {"x", "w"})
        assert matrix.vectors.shape == (1, 4)
        assert missing == ["w"]

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "v.vec"
        self.write_vec(path, [("x", [1, 2]), ("y", [1, 2, 3])])
        with pytest.raises(ParseError, match="dimension"):
            load_semantic_embeddings(path, {"x", "y"})

    def test_ragged_row_outside_vocabulary_names_line(self, tmp_path):
        path = tmp_path / "v.vec"
        self.write_vec(path, [("x", [1, 2, 3]), ("y", [4, 5, 6]),
                              ("q", [1, 2]), ("z", [7, 8, 9])], header="4 3")
        with pytest.raises(ParseError, match=r"v\.vec:4: dimension 2 != 3"):
            load_semantic_embeddings(path, {"x", "z"})

    def test_count_header_skipped(self, tmp_path):
        path = tmp_path / "v.vec"
        self.write_vec(path, [("x", [1.0, 2.0])], header="1 2")
        matrix, _ = load_semantic_embeddings(path, {"x"})
        assert matrix.n_dims == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_token(self, tmp_path, value):
        path = tmp_path / "v.vec"
        self.write_vec(path, [("x", [1.0, 2.0]), ("y", [3.0, value])])
        with pytest.raises(ParseError, match=r"v\.vec: non-finite vector value for 'y'"):
            load_semantic_embeddings(path, {"x", "y"})

    def test_non_numeric_value_in_a_row_read_names_line(self, tmp_path):
        path = tmp_path / "v.vec"
        self.write_vec(path, [("x", [1.0, 2.0]), ("y", [3.0, "abc"])],
                       header="2 2")
        with pytest.raises(ParseError,
                           match=r"v\.vec:3: non-numeric vector value"):
            load_semantic_embeddings(path, {"x", "y"})

    @pytest.mark.parametrize("value", ["abc", "nan"])
    def test_bad_value_in_a_row_not_read_is_no_error(self, tmp_path, value):
        path = tmp_path / "v.vec"
        self.write_vec(path, [("x", [1.0, 2.0]), ("y", [3.0, value]),
                              ("z", [5.0, 6.0])])
        matrix, missing = load_semantic_embeddings(path, {"x", "z"})
        assert matrix.ids == ("x", "z")
        assert np.array_equal(matrix.vectors, [[1.0, 2.0], [5.0, 6.0]])
        assert missing == []

    def test_nothing_matched_is_no_rows(self, tmp_path):
        # the error for a read that matched nothing is pipeline.load_vectors's
        path = tmp_path / "v.vec"
        self.write_vec(path, [("x", [1.0, 2.0])])
        matrix, missing = load_semantic_embeddings(path, {"q", "r"})
        assert matrix.ids == ()
        assert matrix.vectors.shape == (0, 2)
        assert matrix.lines.shape == (0,)
        assert missing == ["q", "r"]

    @pytest.mark.parametrize("eol", [" \n", " \r\n"])
    def test_trailing_whitespace_ignored(self, tmp_path, eol):
        # fastText .vec files end every line in a space
        path = tmp_path / "v.vec"
        path.write_text(f"2 3{eol}x 1.0 2.0 3.0{eol}y -1 0.5 0{eol}",
                        encoding="utf-8", newline="")
        matrix, missing = load_semantic_embeddings(path, {"x", "y"})
        assert missing == []
        assert np.array_equal(matrix.vectors, [[1.0, 2.0, 3.0], [-1.0, 0.5, 0.0]])

    def test_duplicate_token_keeps_first_vector(self, tmp_path):
        path = tmp_path / "v.vec"
        self.write_vec(path, [("x", [1.0, 2.0]), ("y", [3.0, 4.0]),
                              ("x", [5.0, 6.0])])
        matrix, _ = load_semantic_embeddings(path, {"x", "y"})
        assert matrix.ids == ("x", "y")
        assert np.array_equal(matrix.vectors, [[1.0, 2.0], [3.0, 4.0]])

    def test_round_trip(self, tmp_path):
        matrix = EmbeddingMatrix(ids=("x", "y"),
                                 vectors=np.array([[0.1, -2.5], [3.25, 0.0]]))
        path = tmp_path / "v.vec"
        save_semantic_embeddings(matrix, path)
        loaded, missing = load_semantic_embeddings(path, {"x", "y"})
        assert missing == []
        assert loaded.ids == matrix.ids
        assert np.array_equal(loaded.vectors, matrix.vectors)


class TestMorphemeSet:
    def test_duplicate_key_rejected(self):
        m = Morpheme("con", "kən", frozenset({"w"}))
        with pytest.raises(InputError):
            MorphemeSet((m, m))


class TestScaleConfig:
    def test_pos_neg_overlap_rejected(self):
        with pytest.raises(InputError, match="overlap"):
            ScaleConfig("s", ("p",), ("p", "b"), {"en": ("big",)},
                        {"en": ("small",)})

    def test_empty_exemplars_rejected(self):
        with pytest.raises(InputError, match="empty"):
            ScaleConfig("s", (), ("b",), {"en": ("big",)}, {"en": ("small",)})

    @pytest.mark.parametrize("obj", [
        {"scales": {"s": {"phonetic": {"pos": ["m"]},
                          "semantic": {"en": {"pos": ["big"], "neg": ["small"]}}}}},
        {"scales": []},
        [{"scales": {}}],
        {"scale": {}},
    ])
    def test_malformed_file_is_parse_error(self, tmp_path, obj):
        path = tmp_path / "scales.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ParseError, match=f"scale config: {path}: "):
            load_scale_configs(path)

    def test_shipped_defaults_load(self):
        scales = load_scale_configs()
        assert len(scales) == 5
        by_name = {s.name for s in scales}
        assert "angularity_obstruency" in by_name
        for scale in scales:
            assert sorted(scale.semantic_pos) == ["en", "es", "fi", "hi", "ta", "tr"]
