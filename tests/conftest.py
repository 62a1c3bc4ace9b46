"""Shared fixtures: a small ternary feature table and synthetic
language directories reused across test modules."""

import numpy as np
import pytest

from phonosem.corpus import Lexeme, SegmentFeatureTable
from phonosem.synth import make_feature_table, make_planted_language


@pytest.fixture(scope="session")
def feature_table() -> SegmentFeatureTable:
    return make_feature_table()


@pytest.fixture(scope="session")
def planted_dir(tmp_path_factory):
    """A 400-morpheme planted-signal language on disk."""
    out = tmp_path_factory.mktemp("planted")
    paths = make_planted_language(out, n_morphemes=400, seed=11, planted=True)
    return out, paths


@pytest.fixture(scope="session")
def small_language(feature_table):
    """An in-memory 80-word random language: lexicon + embeddings."""
    rng = np.random.default_rng(7)
    segs = list(feature_table.vectors)
    words, lexemes, vectors = [], [], []
    for i in range(80):
        ipa = "".join(rng.choice(segs, size=3))
        word = f"w{i:03d}"
        words.append(word)
        lexemes.append(Lexeme(word=word, lemma=word, zipf=5.0, ipa=ipa))
        vectors.append(rng.normal(size=6))
    return words, tuple(lexemes), np.array(vectors)
