"""Peak memory of the global suite, traced by ``tracemalloc``.

The RSA, MI and kNN statistics compare two n x n similarity spaces. Each
space is reduced to its prepared content (``stats.prepare``) and its
float64 matrix freed before the other is built, so the traced peak stays
well under the 41 bytes per n^2 cell that holding both matrices through
all three statistics took. The cosine build itself makes the matrix
symmetric in place, where averaging it with its transpose held two more
n x n temporaries.

Inside the global suite, ``rsa`` holds both spaces' centred float64 ranks
beside B's symmetric rank matrix, and ``mi_alignment`` its n x n joint-bin
code matrix (2 bytes per cell at 20 bins) beside B's symmetric bin
matrix; each is bounded on its own, with MI's bound below RSA's peak.

A cold ``analyze-subspace`` holds one full-size copy of the vocabulary's
vector rows, the candidates' (which are the vocabulary's own array when
every word pools), plus one full-size temporary while it selects words.
"""

import json
import tracemalloc

import numpy as np
import pytest

from phonosem.corpus import EmbeddingMatrix, load_lexicon
from phonosem.phonetic import cosine_similarity_matrix
from phonosem.pipeline import RunConfig, run_global, run_subspace
from phonosem.stats import mi_alignment, prepare, rsa
from phonosem.synth import make_planted_language

MAX_BYTES_PER_CELL = 30
# The n x n float64 result plus the unit vectors and one tile's temporaries.
MAX_COSINE_MATRICES = 1.5
# The pair vector, the sort words that become the order and the sorted
# copy, each 8 bytes per pair, plus one chunk's temporaries: a fourth
# pair-length 8-byte array would pass 4.
MAX_PREPARE_PAIR_ARRAYS = 3.5
# Traced peaks inside each statistic, with both spaces prepared for RSA,
# MI and kNN, in bytes per n^2 cell at n = 800: 19.3 for RSA and 9.4 for
# MI (20 bins), plus under one byte per cell. A float64 centred rank
# matrix (4 more bytes per cell) would fail the first; an 8-byte code
# matrix, or an observed MI counted from a pair-length sum cast to intp
# (11.4), the second.
MAX_RSA_BYTES_PER_CELL = 20
MAX_MI_BYTES_PER_CELL = 10
# The candidates' rows and the selection's (rows - midpoint) temporary,
# plus the lexicon and the ids: a third full-size copy of the rows, as a
# merge into a new array or a copy of the candidates holds, would pass it.
MAX_SUBSPACE_ROW_COPIES = 2.5


def test_global_suite_peak_per_cell(tmp_path):
    paths = make_planted_language(tmp_path / "lang", n_morphemes=800,
                                  semantic_dim=50)
    cfg = {"languages": ["syn"],
           "feature_table": str(paths["feature_table"]),
           "inputs": {"syn": {k: str(v) for k, v in paths.items()
                              if k != "feature_table"}},
           "output_dir": str(tmp_path / "out"),
           "params": {"shuffles": 2, "null_points": 2}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    config = RunConfig.from_file(path)
    tracemalloc.start()
    try:
        run_global(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    payload = json.loads((tmp_path / "out" / "syn" / "global.json")
                         .read_text("utf-8"))
    n = payload["n_morphemes"]
    assert set(payload["results"]) == {"rsa", "mi", "knn", "cca"}
    assert peak / n ** 2 <= MAX_BYTES_PER_CELL


def test_cosine_build_peak():
    n = 800
    vectors = np.random.default_rng(11).normal(size=(n, 50))
    matrix = EmbeddingMatrix(tuple(f"w{i}" for i in range(n)), vectors)
    tracemalloc.start()
    try:
        cosine_similarity_matrix(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= MAX_COSINE_MATRICES * 8 * n ** 2


def test_prepare_peak_in_pair_arrays():
    n = 800
    vectors = np.random.default_rng(12).normal(size=(n, 50))
    sim = cosine_similarity_matrix(
        EmbeddingMatrix(tuple(f"w{i}" for i in range(n)), vectors))
    tracemalloc.start()
    try:
        space = prepare(sim, ("rsa", "mi"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.doubled_ranks is not None and space.bin_index is not None
    assert peak <= MAX_PREPARE_PAIR_ARRAYS * 8 * n * (n - 1) // 2


@pytest.mark.parametrize("statistic,bound", [
    (lambda a, b: rsa(a, b, n_shuffles=2, null_points=2), MAX_RSA_BYTES_PER_CELL),
    (lambda a, b: mi_alignment(a, b, bins=20, n_shuffles=2, null_points=2),
     MAX_MI_BYTES_PER_CELL),
], ids=["rsa", "mi_alignment"])
def test_statistic_peak_per_cell(statistic, bound):
    n = 800
    rng = np.random.default_rng(13)
    tracemalloc.start()
    try:
        a, b = (prepare(EmbeddingMatrix(tuple(f"w{i}" for i in range(n)),
                                        rng.normal(size=(n, d))),
                        ("rsa", "mi", "knn"))
                for d in (50, 100))
        tracemalloc.reset_peak()
        statistic(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n ** 2 <= bound


def test_cold_subspace_peak_in_row_copies(tmp_path):
    n, d = 2000, 100
    paths = make_planted_language(tmp_path / "lang", n_morphemes=n,
                                  semantic_dim=d)
    words = [lx.word for lx in load_lexicon(paths["lexicon"])]
    scales = tmp_path / "scales.json"
    scales.write_text(json.dumps({"scales": {"demo": {
        "phonetic": {"pos": ["m", "n"], "neg": ["p", "t"]},
        "semantic": {"syn": {"pos": words[:2], "neg": words[2:4]}}}}}),
        encoding="utf-8")
    cfg = {"languages": ["syn"],
           "feature_table": str(paths["feature_table"]),
           "inputs": {"syn": {k: str(v) for k, v in paths.items()
                              if k != "feature_table"}},
           "output_dir": str(tmp_path / "out"), "scales": str(scales),
           "params": {"subspace_shuffles": 2, "subspace_null_points": 2,
                      "subspace_pool": n // 2}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    config = RunConfig.from_file(path)
    tracemalloc.start()
    try:
        run_subspace(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    payload = json.loads((tmp_path / "out" / "subspace.json").read_text("utf-8"))
    assert [cell["n_words"] for cell in payload["cells"]] == [n // 2]
    assert peak <= MAX_SUBSPACE_ROW_COPIES * 8 * n * d
