"""Peak memory of the global suite, traced by ``tracemalloc``.

The RSA, MI and kNN statistics compare two n x n similarity spaces. Each
space is reduced to its prepared content (``stats.prepare``) and its
float64 matrix freed before the other is built, so the traced peak stays
well under the 41 bytes per n^2 cell that holding both matrices through
all three statistics took.
"""

import json
import tracemalloc

from phonosem.pipeline import RunConfig, run_global
from phonosem.synth import make_planted_language

MAX_BYTES_PER_CELL = 30


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
