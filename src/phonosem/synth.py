"""Synthetic language generators for fixtures and calibration.

The planted-signal generator builds a small language whose semantic
dimension 0 is a monotone function of one phonetic feature, so the
pipeline should recover a strong first canonical variate. The control
variant permutes that dimension across items, destroying the link while
keeping all marginals.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .corpus import (EmbeddingMatrix, Lexicon, Lexeme, SegmentFeatureTable,
                     save_feature_table, save_lexicon, save_semantic_embeddings)

FEATURES = ("syllabic", "sonorant", "consonantal", "voice", "continuant", "labial")

# small inventory; 'sonorant' (index 1) is the planted feature
SEGMENTS = {
    "p": (-1, -1, 1, -1, -1, 1),
    "t": (-1, -1, 1, -1, -1, -1),
    "k": (-1, -1, 1, -1, -1, -1),
    "b": (-1, -1, 1, 1, -1, 1),
    "d": (-1, -1, 1, 1, -1, -1),
    "s": (-1, -1, 1, -1, 1, -1),
    "m": (-1, 1, 1, 1, -1, 1),
    "n": (-1, 1, 1, 1, -1, -1),
    "l": (-1, 1, 1, 1, 1, -1),
    "a": (1, 1, -1, 1, 1, -1),
    "i": (1, 1, -1, 1, 1, -1),
    "u": (1, 1, -1, 1, 1, 1),
}


def make_feature_table() -> SegmentFeatureTable:
    return SegmentFeatureTable(
        feature_names=FEATURES,
        vectors={s: np.asarray(v, dtype=np.float64) for s, v in SEGMENTS.items()},
    )


def make_planted_language(
    out_dir: str | Path,
    n_morphemes: int = 400,
    semantic_dim: int = 8,
    noise: float = 0.1,
    seed: int = 0,
    planted: bool = True,
) -> dict[str, Path]:
    """Write lexicon, feature table, vectors, and segmentations.

    Every word is a single morpheme whose transcription is a random
    2-4 segment string. With ``planted`` the first semantic dimension
    tracks the mean sonorancy of the transcription; otherwise that
    dimension is randomly permuted across items (the null control).

    Returns the paths keyed by input role.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    table = make_feature_table()
    segs = list(SEGMENTS)
    son_idx = FEATURES.index("sonorant")

    words: list[str] = []
    ipas: list[str] = []
    sonorancy = np.empty(n_morphemes)
    seen: set[str] = set()
    while len(words) < n_morphemes:
        length = int(rng.integers(2, 5))
        parts = [segs[int(j)] for j in rng.integers(0, len(segs), size=length)]
        ipa = "".join(parts)
        word = f"w{len(words):04d}{ipa}"
        if ipa in seen:
            continue
        seen.add(ipa)
        sonorancy[len(words)] = np.mean([SEGMENTS[s][son_idx] for s in parts])
        words.append(word)
        ipas.append(ipa)

    vectors = rng.standard_normal((n_morphemes, semantic_dim))
    signal = sonorancy + noise * rng.standard_normal(n_morphemes)
    if not planted:
        signal = signal[rng.permutation(n_morphemes)]
    vectors[:, 0] = signal

    lexicon = Lexicon(language="syn", lexemes=tuple(
        Lexeme(word=w, lemma=w, zipf=float(z), ipa=ipa)
        for w, ipa, z in zip(words, ipas, rng.uniform(3.0, 7.0, n_morphemes))
    ))

    paths = {
        "lexicon": out_dir / "lexicon.tsv",
        "feature_table": out_dir / "features.tsv",
        "vectors": out_dir / "vectors.vec",
        "segmentations": out_dir / "segmentations.jsonl",
    }
    save_lexicon(lexicon, paths["lexicon"])
    save_feature_table(table, paths["feature_table"])
    save_semantic_embeddings(EmbeddingMatrix(ids=tuple(words), vectors=vectors),
                             paths["vectors"])
    with paths["segmentations"].open("w", encoding="utf-8") as fh:
        for w, ipa in zip(words, ipas):
            fh.write(json.dumps({
                "word": w, "ipa": ipa, "pairs": [[w, ipa]],
                "perplexity": 1.0, "provider": "synthetic", "timestamp": 0.0,
            }, ensure_ascii=False) + "\n")
    return paths
