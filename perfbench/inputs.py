"""Seeded workload inputs and the command sequence each workload runs.

Everything a workload reads is generated here from one seed: planted and
control languages (``phonosem.synth.make_planted_language``), a scale
file whose phonetic exemplars are synthetic segments and whose semantic
exemplars are the words at the extremes of one embedding dimension each,
recorded provider responses for ``segment``, and the run configuration.
The program under test only ever sees these files.

All paths written into configs are relative to the checkout root, so the
config hash stored in every payload does not depend on where the checkout
lives.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

# Five synthetic scales over the ``phonosem.synth`` segment inventory. Each
# reads its semantic exemplars off one embedding dimension; dimension 0 is
# the planted one (it tracks mean sonorancy), the others are pure noise.
SCALES = (
    ("sonority", 0, ("m", "n", "l", "a", "i", "u"), ("p", "t", "k", "b", "d", "s")),
    ("voicing", 1, ("b", "d"), ("p", "t")),
    ("labiality", 2, ("p", "b", "m", "u"), ("t", "k", "d", "n")),
    ("continuancy", 3, ("s", "l"), ("t", "d")),
    ("syllabicity", 4, ("a", "i", "u"), ("p", "t", "k")),
)
EXEMPLARS_PER_POLE = 10
PLANTED_SCALE = "sonority"

# Share of recorded segmentation responses whose log-probabilities put them
# above the default perplexity threshold (1.4), so the filter drops them.
HIGH_PERPLEXITY_SHARE = 0.05

# Commands whose repeat would do different work: segment fills its cache on
# the first issue. Every other command rewrites the same outputs from the
# same inputs, so it can be timed more than once.
ONCE = frozenset({"segment"})


@dataclass(frozen=True)
class Language:
    code: str
    planted: bool


@dataclass(frozen=True)
class Workload:
    name: str
    languages: tuple[Language, ...]
    n_morphemes: int
    semantic_dim: int
    params: dict
    analyses: dict
    replay_words: int = 0  # if set, segment + verify over recorded responses


ALL_STATS = {"rsa": True, "mi": True, "knn": True, "cca": True, "subspace": True}

WORKLOADS = {
    "permutation": Workload(
        name="permutation",
        languages=(Language("planted", True), Language("control", False)),
        n_morphemes=1000, semantic_dim=50,
        params={"shuffles": 20, "null_points": 20,
                "subspace_shuffles": 200, "subspace_null_points": 200,
                "subspace_pool": 1000},
        analyses=ALL_STATS,
    ),
    "wide": Workload(
        name="wide",
        languages=(Language("planted", True),),
        n_morphemes=3000, semantic_dim=300,
        params={"shuffles": 1, "null_points": 1,
                "subspace_shuffles": 200, "subspace_null_points": 200,
                "subspace_pool": 3000},
        analyses=ALL_STATS,
    ),
    "lexicon": Workload(
        name="lexicon",
        languages=(Language("en", True),),
        n_morphemes=20000, semantic_dim=100,
        params={"shuffles": 100, "null_points": 100, "top_words": 2000,
                "subspace_shuffles": 200, "subspace_null_points": 200,
                "subspace_pool": 10000},
        analyses={"rsa": False, "mi": False, "knn": False, "cca": True,
                  "subspace": True},
        replay_words=2000,
    ),
}

# Small versions of each workload, run at a fixed seed for the reference
# comparison in the correctness gate.
REFERENCE_SEED = 20251017
REFERENCE_WORKLOADS = {
    "permutation": replace(
        WORKLOADS["permutation"], n_morphemes=150, semantic_dim=8,
        params={"shuffles": 20, "null_points": 20, "subspace_shuffles": 50,
                "subspace_null_points": 50, "subspace_pool": 150, "n_components": 3}),
    "wide": replace(
        WORKLOADS["wide"], n_morphemes=300, semantic_dim=30,
        params={"shuffles": 2, "null_points": 2, "subspace_shuffles": 50,
                "subspace_null_points": 50, "subspace_pool": 300}),
    "lexicon": replace(
        WORKLOADS["lexicon"], n_morphemes=600, semantic_dim=12, replay_words=200,
        params={"shuffles": 20, "null_points": 20, "top_words": 200,
                "subspace_shuffles": 50, "subspace_null_points": 50,
                "subspace_pool": 300, "n_components": 3}),
}


def language_seed(seed: int, index: int) -> int:
    return seed * 16 + index


def replay_key(lemma: str, ipa: str) -> str:
    """User text ``segment`` sends for one word (its batch size is 1)."""
    return f"input: {lemma},{ipa}"


def _dimension_extremes(vectors_path: Path, dims: int) -> list[list[str]]:
    """Words sorted by each of the first ``dims`` coordinates, ascending.

    Ties break by word, so the order is a pure function of the file.
    """
    rows = []
    with vectors_path.open(encoding="utf-8") as fh:
        fh.readline()  # "N D" header written by synth
        for line in fh:
            parts = line.split(" ", dims + 1)
            rows.append((parts[0], [float(v) for v in parts[1:dims + 1]]))
    return [[w for w, _ in sorted(rows, key=lambda r: (r[1][j], r[0]))]
            for j in range(dims)]


def _write_scales(path: Path, extremes: dict[str, list[list[str]]]) -> None:
    obj = {"scales": {}}
    for name, dim, pos_segments, neg_segments in SCALES:
        semantic = {}
        for code, orders in extremes.items():
            order = orders[dim]
            semantic[code] = {"pos": order[-EXEMPLARS_PER_POLE:][::-1],
                              "neg": order[:EXEMPLARS_PER_POLE]}
        obj["scales"][name] = {
            "phonetic": {"pos": list(pos_segments), "neg": list(neg_segments)},
            "semantic": semantic,
        }
    path.write_text(json.dumps(obj, ensure_ascii=False, indent=1) + "\n",
                    encoding="utf-8")


def _top_words(lexicon_path: Path, n: int) -> list[tuple[str, str, str]]:
    """(word, lemma, ipa) of the n most frequent words, in lexicon order
    (descending zipf, then word), as ``segment`` reads them."""
    rows = []
    with lexicon_path.open(encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            word, lemma, zipf, ipa = line.rstrip("\n").split("\t")
            rows.append((-float(zipf), word, lemma, ipa))
    rows.sort()
    return [(w, lm, ipa) for _, w, lm, ipa in rows[:n] if ipa]


def _write_replay(path: Path, words, seed: int) -> None:
    rng = random.Random(seed)
    with path.open("w", encoding="utf-8") as fh:
        for word, lemma, ipa in words:
            noisy = rng.random() < HIGH_PERPLEXITY_SHARE
            logprobs = [-0.5, -0.4] if noisy else [-0.05, -0.02, -0.1]
            fh.write(json.dumps({"user": replay_key(lemma, ipa),
                                 "text": f"({word},{ipa})",
                                 "logprobs": logprobs},
                                ensure_ascii=False) + "\n")


def generate(workload: Workload, seed: int, root: Path) -> dict:
    """Write every input of one workload under ``root`` (relative to the
    checkout root) and return the run description: the config path, the
    output directory and the CLI argument lists in order."""
    from phonosem.synth import make_planted_language

    root.mkdir(parents=True, exist_ok=True)
    out_dir = root / "out"
    inputs, extremes = {}, {}
    feature_table = None
    for i, lang in enumerate(workload.languages):
        paths = make_planted_language(
            root / lang.code, n_morphemes=workload.n_morphemes,
            semantic_dim=workload.semantic_dim, seed=language_seed(seed, i),
            planted=lang.planted)
        feature_table = paths["feature_table"]
        extremes[lang.code] = _dimension_extremes(paths["vectors"], len(SCALES))
        segmentations = (out_dir / f"{lang.code}_segmentations.jsonl"
                         if workload.replay_words else paths["segmentations"])
        inputs[lang.code] = {"lexicon": str(paths["lexicon"]),
                             "vectors": str(paths["vectors"]),
                             "segmentations": str(segmentations)}
    scales = root / "scales.json"
    _write_scales(scales, extremes)

    config = {
        "languages": [lang.code for lang in workload.languages],
        "feature_table": str(feature_table),
        "inputs": inputs,
        "output_dir": str(out_dir),
        "scales": str(scales),
        "analyses": workload.analyses,
        "params": workload.params,
        "seed": seed,
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")

    cfg = ["--config", str(config_path)]
    commands = []
    if workload.replay_words:
        replay = root / "replay.jsonl"
        (lang,) = workload.languages
        _write_replay(replay, _top_words(root / lang.code / "lexicon.tsv",
                                         workload.replay_words), seed)
        commands += [["segment", *cfg, "--replay", str(replay)],
                     ["verify", *cfg]]
    commands += [["analyze-global", *cfg], ["analyze-subspace", *cfg],
                 ["interpret", *cfg], ["report", *cfg]]
    return {"config": str(config_path), "output_dir": str(out_dir),
            "commands": commands}
