"""Loaders, data model invariants, and round-trips."""

import json
import logging
import math
import unicodedata

import numpy as np
import pytest

from phonosem.corpus import (LEXICON_HEADER, EmbeddingMatrix, Lexeme, Morpheme,
                             MorphemeSet, ScaleConfig, load_feature_table,
                             load_lexicon, load_scale_configs,
                             load_semantic_embeddings, save_feature_table,
                             save_lexicon, save_semantic_embeddings, _nfc,
                             _open_input)
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


def per_line_load_lexicon(path):
    """The lexicon parse as one pass per text-mode line, NFC per line: the
    reference that ``load_lexicon`` must equal."""
    log = logging.getLogger("phonosem.corpus")
    best = {}
    with _open_input(path) as fh:
        header = fh.readline()
        if header and tuple(_nfc(header).rstrip("\n").split("\t")) != LEXICON_HEADER:
            raise ParseError(f"{path}:1: expected header {'/'.join(LEXICON_HEADER)}")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = _nfc(line).split("\t")
            if len(parts) != 4:
                raise ParseError(f"{path}:{lineno}: expected 4 columns, got {len(parts)}")
            word, lemma, zipf_s, ipa = parts
            if not word:
                raise ParseError(f"{path}:{lineno}: empty word")
            try:
                zipf = float(zipf_s)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric zipf {zipf_s!r}") from None
            if not math.isfinite(zipf):
                raise ParseError(f"{path}:{lineno}: non-finite zipf for {word!r}")
            lx = Lexeme(word=word, lemma=lemma, zipf=zipf, ipa=ipa)
            prev = best.get(word)
            if prev is not None and prev.ipa != lx.ipa:
                log.warning("%s:%d: duplicate %r with differing IPA, first kept",
                            path, lineno, word)
            if prev is None:
                best[word] = lx
            elif lx.zipf > prev.zipf:
                best[word] = lx if prev.ipa == lx.ipa else Lexeme(
                    word=word, lemma=lx.lemma, zipf=lx.zipf, ipa=prev.ipa)
    return tuple(sorted(best.values(), key=lambda lx: (-lx.zipf, lx.word)))


HEADER = "word\tlemma\tzipf\tipa\n"
# file texts, written as UTF-8 bytes with their line endings as given
LEXICON_TEXTS = {
    "decomposed": HEADER + "cafe\u0301\tcafe\u0301\t4.0\tkafe\u0301\n"
                  "\u0301x\t\u0301x\t3.0\t\u0301a\n\u0308a\ta\t3.0\ta\u0301\u0323\n"
                  "\u1100\t\u1100\t2.0\t\u1100\n\u1161\t\u1161\t2.0\t\u1161\n"
                  "caf\u00e9\tcafe\t5.0\tkafe\u0301\n",
    "crlf": HEADER.replace("\n", "\r\n") + "a\ta\t1.0\ta\r\nb\tb\t2.0\tb\r\n",
    "cr": HEADER.replace("\n", "\r") + "a\ta\t1.0\ta\rb\tb\t2.0\tb\r",
    "breaks-inside-fields": HEADER + "a\x0cb\ta\x0b\t1.0\tx\x85y\n"
                            "c\u2028d\tc\u2029\t2.0\tz\x1c\x1d\x1e\n",
    "break-inside-zipf": HEADER + "a\ta\t1.0\x85\ta\n",
    "blank-lines-before-bad-row": HEADER + "a\ta\t1.0\ta\n\n\n\nb\tb\thigh\tb\n",
    "blank-lines-before-short-row": HEADER + "\n\r\n\ra\ta\t1.0\n",
    "no-final-newline": HEADER + "a\ta\t1.0\ta\nb\tb\t2.0\tb",
    "empty": "",
    "header-only": HEADER,
    "header-without-newline": HEADER.rstrip("\n"),
    "newline-only": "\n",
    "bad-header": "word\tzipf\na\t1\n",
    "duplicates": HEADER + "a\tx\t4.0\tab\nb\tb\t3.0\tbb\nc\tc\t3.0\tcc\n"
                  "d\td\t2.0\tdd\na\ty\t6.0\tab\nb\ty\t5.0\tBB\nc\ty\t1.0\tCC\n"
                  "d\ty\t1.0\tdd\na\tz\t6.0\tAB\nb\tz\t5.0\tbb\n",
    "equal-zipf": HEADER + "z\tz\t4.0\tz\nb\tb\t4.0\tb\n\u00e9\te\t4.0\te\n"
                  "a\ta\t4.0\ta\nZ\tZ\t4.0\tZ\nm\tm\t4.5\tm\nc\tc\t4\tc\n"
                  "-0\t-0\t-0.0\t\n0\t0\t0.0\t\n",
    "empty-word": HEADER + "a\ta\t1.0\ta\n\tb\t2.0\tb\n",
    "non-finite": HEADER + "a\ta\tinf\ta\n",
    "nan": HEADER + "a\ta\tnan\ta\n",
    "five-columns": HEADER + "a\ta\t1.0\ta\textra\n",
}


class TestLoadLexiconOracle:
    @staticmethod
    def outcome(load, path, caplog):
        caplog.clear()
        try:
            lexicon = load(path)
        except ParseError as exc:
            return f"ParseError: {exc}", caplog.messages
        assert all(type(lx) is Lexeme for lx in lexicon)
        return [(lx.word, lx.lemma, repr(lx.zipf), lx.ipa) for lx in lexicon], \
            caplog.messages

    @pytest.mark.parametrize("name", list(LEXICON_TEXTS))
    def test_equals_the_per_line_parse(self, tmp_path, caplog, name):
        path = tmp_path / "lex.tsv"
        path.write_bytes(LEXICON_TEXTS[name].encode("utf-8"))
        expected = self.outcome(per_line_load_lexicon, path, caplog)
        assert self.outcome(load_lexicon, path, caplog) == expected

    def test_fixtures_reach_each_rule(self, tmp_path, caplog):
        outcomes = {}
        for name, text in LEXICON_TEXTS.items():
            path = tmp_path / f"{name}.tsv"
            path.write_bytes(text.encode("utf-8"))
            outcomes[name] = self.outcome(load_lexicon, path, caplog)
        # float() strips the break as whitespace; a split there would not
        assert outcomes["break-inside-zipf"][0] == [("a", "a", "1.0", "a")]
        assert outcomes["blank-lines-before-bad-row"][0].endswith(
            ":6: non-numeric zipf 'high'")
        assert outcomes["blank-lines-before-short-row"][0].endswith(
            ":5: expected 4 columns, got 3")
        assert outcomes["newline-only"][0].endswith(":1: expected header word/lemma/zipf/ipa")
        assert [w for w, *_ in outcomes["breaks-inside-fields"][0]] == [
            "c\u2028d", "a\x0cb"]
        assert [w for w, *_ in outcomes["equal-zipf"][0]] == [
            "m", "Z", "a", "b", "c", "z", "\u00e9", "-0", "0"]
        assert [w for w, *_ in outcomes["decomposed"][0]][:2] == ["caf\u00e9", "\u0301x"]
        duplicates, warnings = outcomes["duplicates"]
        assert duplicates == [("a", "y", "6.0", "ab"), ("b", "y", "5.0", "bb"),
                              ("c", "c", "3.0", "cc"), ("d", "d", "2.0", "dd")]
        assert [w.split(": ", 1)[1] for w in warnings] == [
            f"duplicate {w!r} with differing IPA, first kept" for w in "bca"]

    def test_lexeme_is_a_plain_tuple(self):
        lx = Lexeme(word="a", lemma="b", zipf=1.5, ipa="")
        assert lx == ("a", "b", 1.5, "") and hash(lx) == hash(("a", "b", 1.5, ""))
        word, lemma, zipf, ipa = lx
        assert (word, lemma, zipf, ipa) == ("a", "b", 1.5, "")
        assert not lx.transcribable and Lexeme("a", "b", 1.5, "ab").transcribable
        with pytest.raises(AttributeError):
            lx.word = "c"


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

    def test_known_rows_are_placed_in_file_order(self, tmp_path):
        path = tmp_path / "v.vec"
        self.write_vec(path, [("a", [1.0, 2.0]), ("k1", [3.0, 4.0]),
                              ("b", [5.0, 6.0]), ("k2", [7.0, 8.0]),
                              ("c", [9.0, 10.0]), ("k1", [11.0, 12.0])],
                       header="6 2")
        # rows unlike their lines' text, so a row parsed shows
        known = EmbeddingMatrix(ids=("k2", "k1"),
                                vectors=np.array([[-0.5, 1e-300], [np.pi, -7.25]]))
        matrix, missing = load_semantic_embeddings(path, {"c", "a", "q"}, known=known)
        expected = np.array([[1.0, 2.0], [np.pi, -7.25], [-0.5, 1e-300],
                             [9.0, 10.0]])
        assert matrix.ids == ("a", "k1", "k2", "c")
        assert matrix.vectors.tobytes() == expected.tobytes()
        # the second k1 line is a later duplicate; no known token is missing
        assert missing == ["q"]

    def test_known_rows_of_another_dimension_are_parsed(self, tmp_path, caplog):
        path = tmp_path / "v.vec"
        # the first line, whose dimension the known rows are checked against,
        # is a known token's
        self.write_vec(path, [("k", [3.0, 4.0]), ("a", [1.0, 2.0])])
        known = EmbeddingMatrix(ids=("k",), vectors=np.array([[9.0, 9.0, 9.0]]))
        with caplog.at_level(logging.WARNING, logger="phonosem.corpus"):
            matrix, missing = load_semantic_embeddings(path, {"a"}, known=known)
        assert matrix.ids == ("k", "a") and missing == []
        assert matrix.vectors.tobytes() == np.array([[3.0, 4.0], [1.0, 2.0]]).tobytes()
        warnings = [r.getMessage() for r in caplog.records]
        assert len(warnings) == 1 and warnings[0].startswith(f"{path}: ")

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
