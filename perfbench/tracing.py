"""Spans around the calls into each phonosem layer, recorded from outside.

``Tracer.install`` wraps every public function of the layer modules (and
the private JSON/npz writers of ``pipeline``) and rebinds each wrapper
under every name a phonosem module looks it up by, so ``pipeline.rsa`` is
traced as well as ``stats.rsa``, and the refits inside
``cca.canonical_rank_correlations`` go through the wrapped
``cca.fit_cca``. Each span keeps its name, start, end and parent span in
memory; ``save`` writes them out once the run is over.

A span's self time is its duration minus the part of its interval that
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pathlib
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("corpus", "segmentation", "phonetic", "stats", "cca", "subspace",
          "pipeline")
# Modules whose globals may hold imported layer functions; ``synth`` only
# generates inputs and is never traced.
CALLERS = LAYERS + ("cli",)
# Private pipeline helpers that write payloads, wrapped for pipeline.io_s.
IO_HELPERS = ("_dump_json", "_save_cca_artifacts")
IO_SPANS = ("pipeline._dump_json", "pipeline._save_cca_artifacts",
            "pipeline.write_manifest", "pipeline.write_text")

# Per-layer metrics reported by a traced run, with their units.
PER_LAYER = {
    "stats.rsa_s": "s", "stats.mi_s": "s", "stats.knn_s": "s",
    "stats.rsa_ms_per_shuffle": "ms", "stats.mi_ms_per_shuffle": "ms",
    "stats.knn_ms_per_shuffle": "ms", "stats.shuffles": "count",
    "cca.fit_s": "s", "cca.null_s": "s", "cca.refit_ms_per_shuffle": "ms",
    "cca.refits": "count", "cca.pole_report_s": "s",
    "phonetic.embed_s": "s", "phonetic.similarity_s": "s",
    "phonetic.skipped": "count", "pipeline.load_spaces_s": "s",
    "corpus.load_vectors_s": "s", "corpus.load_vectors_calls": "count",
    "corpus.vocab_matched_frac": "frac", "corpus.load_lexicon_s": "s",
    "subspace.scale_s": "s", "subspace.select_s": "s",
    "subspace.null_ms_per_shuffle": "ms", "subspace.shuffles": "count",
    "segmentation.segment_s": "s", "segmentation.requests": "count",
    "segmentation.read_cache_s": "s", "segmentation.kept_frac": "frac",
    "pipeline.io_s": "s", "pipeline.self_s": "s",
    **{f"{layer}.share": "frac" for layer in ("cli",) + LAYERS},
    "trace.onetime_frac": "frac", "trace.wall_s": "s", "trace.spans": "count",
    "trace.overhead_frac": "frac",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.spans())

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, span_name: str, fn, hook=None):
        sig = inspect.signature(fn) if hook is not None else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer.counters, bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layers' functions and rebind them wherever phonosem
        modules look them up."""
        modules = {m: importlib.import_module(f"phonosem.{m}") for m in CALLERS}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in vars(mod).items():
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                if attr.startswith("_") and not (layer == "pipeline"
                                                 and attr in IO_HELPERS):
                    continue
                span = f"{layer}.{attr}"
                wrappers[obj] = self._wrap(span, obj, HOOKS.get(span))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        # markdown and other text writes happen through Path.write_text
        self._patch(pathlib.Path, "write_text",
                    self._wrap("pipeline.write_text", pathlib.Path.write_text))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# Counters read at the layer boundaries

def _shuffles(key):
    def hook(counters, args, result):
        counters[key] += args["n_shuffles"]
    return hook


def _embeddings_hook(counters, args, result):
    counters["phonetic.skipped"] += len(result[2])


def _vectors_hook(counters, args, result):
    matrix, missing = result
    counters["corpus.vectors_matched"] += matrix.n_items
    counters["corpus.vectors_wanted"] += matrix.n_items + len(missing)


def _perplexity_hook(counters, args, result):
    kept, dropped = result
    counters["segmentation.kept"] += len(kept)
    counters["segmentation.filtered"] += len(kept) + len(dropped)


HOOKS = {
    "stats.rsa": _shuffles("stats.rsa_shuffles"),
    "stats.mi_alignment": _shuffles("stats.mi_shuffles"),
    "stats.knn_overlap": _shuffles("stats.knn_shuffles"),
    "cca.canonical_rank_correlations": _shuffles("cca.shuffles"),
    "subspace.scale_alignment": _shuffles("subspace.shuffles"),
    "phonetic.build_phonetic_embeddings": _embeddings_hook,
    "corpus.load_semantic_embeddings": _vectors_hook,
    "segmentation.perplexity_filter": _perplexity_hook,
}


# ---------------------------------------------------------------------------
# Analysis

def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span itself."""
    start = np.asarray(start, dtype=np.float64).tolist()
    end = np.asarray(end, dtype=np.float64).tolist()
    out = [e - s for s, e in zip(start, end)]
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(np.asarray(parent).tolist()):
        if p >= 0:
            children[p].append(i)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        cur_s = cur_e = None
        for k in sorted(kids, key=start.__getitem__):
            s, e = max(start[k], lo), min(end[k], hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return np.asarray(out)


class SpanTable:
    """Queries over one iteration's spans.

    Spans must come in the order a single thread opened them, as
    ``Tracer`` records them: then a span's descendants are exactly the
    spans that open after it and before it closes.
    """

    def __init__(self, names, name, start, end, parent):
        self.names = list(names)
        self.name = np.asarray(name, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.float64)
        self.end = np.asarray(end, dtype=np.float64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.duration = self.end - self.start
        self.self_time = self_times(self.start, self.end, self.parent)
        # one past the last descendant of each span
        self._subtree_end = np.searchsorted(self.start, self.end, side="right")

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "SpanTable":
        s = tracer.spans()
        return cls(tracer.names, s["name"], s["start"], s["end"], s["parent"])

    def _mask(self, names) -> np.ndarray:
        names = {names} if isinstance(names, str) else set(names)
        ids = [i for i, n in enumerate(self.names) if n in names]
        return np.isin(self.name, ids)

    def _under(self, ancestors: np.ndarray) -> np.ndarray:
        """Spans that have an ancestor in the ``ancestors`` mask."""
        depth = np.zeros(len(self.name) + 1, dtype=np.int64)
        idx = np.flatnonzero(ancestors)
        np.add.at(depth, idx + 1, 1)
        np.add.at(depth, self._subtree_end[idx], -1)
        return np.cumsum(depth)[:-1] > 0

    def total(self, names, under=None, outermost=False) -> float:
        mask = self._mask(names)
        if under is not None:
            mask &= self._under(self._mask(under))
        if outermost:
            mask &= ~self._under(self._mask(names))
        return float(self.duration[mask].sum())

    def count(self, names, under=None) -> int:
        mask = self._mask(names)
        if under is not None:
            mask &= self._under(self._mask(under))
        return int(mask.sum())

    def self_total(self, names) -> float:
        return float(self.self_time[self._mask(names)].sum())

    def layer_self(self, layer: str) -> float:
        return self.self_total(n for n in self.names if n.startswith(layer + "."))


def _per_shuffle_ms(seconds: float, shuffles: float) -> float:
    return 1000.0 * seconds / shuffles if shuffles else 0.0


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(table: SpanTable, counters: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (``trace.overhead_frac``
    is added by the caller, which also has the untraced wall time)."""
    t = table
    c = defaultdict(float, counters)
    stat_names = ("stats.rsa", "stats.mi_alignment", "stats.knn_overlap")
    m = {
        "stats.rsa_s": t.total("stats.rsa"),
        "stats.mi_s": t.total("stats.mi_alignment"),
        "stats.knn_s": t.total("stats.knn_overlap"),
        "stats.shuffles": c["stats.rsa_shuffles"] + c["stats.mi_shuffles"]
        + c["stats.knn_shuffles"],
        "cca.fit_s": t.total("cca.fit_cca") - t.total(
            "cca.fit_cca", under="cca.canonical_rank_correlations"),
        "cca.null_s": t.total("cca.canonical_rank_correlations"),
        "cca.refits": t.count("cca.fit_cca", under="cca.canonical_rank_correlations"),
        "cca.pole_report_s": t.total("cca.build_pole_report"),
        "phonetic.embed_s": t.total("phonetic.build_phonetic_embeddings"),
        "phonetic.similarity_s": t.total("phonetic.cosine_similarity_matrix"),
        "phonetic.skipped": c["phonetic.skipped"],
        "pipeline.load_spaces_s": t.total("pipeline.load_language_spaces"),
        "corpus.load_vectors_s": t.total("corpus.load_semantic_embeddings"),
        "corpus.load_vectors_calls": t.count("corpus.load_semantic_embeddings"),
        "corpus.vocab_matched_frac": _frac(c["corpus.vectors_matched"],
                                           c["corpus.vectors_wanted"]),
        "corpus.load_lexicon_s": t.total("corpus.load_lexicon"),
        "subspace.scale_s": t.total("subspace.scale_alignment"),
        "subspace.select_s": t.total("subspace.select_words"),
        "subspace.shuffles": c["subspace.shuffles"],
        "segmentation.segment_s": t.total("segmentation.segment_words"),
        "segmentation.requests": t.count("segmentation.build_prompt",
                                         under="segmentation.segment_words"),
        "segmentation.read_cache_s": t.total("segmentation.read_segmentation_cache"),
        "segmentation.kept_frac": _frac(c["segmentation.kept"],
                                        c["segmentation.filtered"]),
        "pipeline.io_s": t.total(IO_SPANS, outermost=True),
        "pipeline.self_s": t.self_total(("pipeline.run_global", "pipeline.run_subspace",
                                         "pipeline.run_interpret")),
    }
    for key, name in (("rsa", "stats.rsa"), ("mi", "stats.mi_alignment"),
                      ("knn", "stats.knn_overlap")):
        m[f"stats.{key}_ms_per_shuffle"] = _per_shuffle_ms(
            t.total(name), c[f"stats.{key}_shuffles"])
    m["cca.refit_ms_per_shuffle"] = _per_shuffle_ms(m["cca.null_s"], c["cca.shuffles"])
    m["subspace.null_ms_per_shuffle"] = _per_shuffle_ms(
        t.total("stats.permutation_test", under="subspace.scale_alignment"),
        c["subspace.shuffles"])

    # one-time work of analyze-global: loading, similarity, the observed
    # statistics (each statistic's call minus its shuffle loop) and the fit
    stats_null = t.total("stats.permutation_test", under=stat_names)
    onetime = (m["pipeline.load_spaces_s"] + m["phonetic.similarity_s"]
               + t.total(stat_names) - stats_null + m["cca.fit_s"])
    m["trace.onetime_frac"] = _frac(onetime, t.total("cli.analyze-global"))

    for layer in ("cli",) + LAYERS:
        m[f"{layer}.share"] = _frac(t.layer_self(layer), wall_s)
    m["trace.wall_s"] = wall_s
    m["trace.spans"] = len(t.name)
    return m
