"""End-to-end orchestration: configuration, seeding, analysis runs, and
report rendering.

Seeds fan out from the master seed through a hash of (seed, analysis
name, language), so adding or toggling one analysis never perturbs
another's randomness. All JSON payloads are written with sorted keys and
no timestamps, so identical configs and inputs reproduce byte-identical
results; wall-clock metadata lives only in the run manifest.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from . import __version__
from .corpus import (EmbeddingMatrix, Lexicon, MorphemeSet, _open_input,
                     load_feature_table, load_lexicon, load_scale_configs,
                     load_semantic_embeddings)
from .cca import (DEFAULT_RIDGE, CcaModel, PoleCandidates, build_pole_report,
                  canonical_rank_correlations, fit_cca, pole_candidates)
from .errors import AnalysisError, InputError
from .phonetic import build_phonetic_embeddings
from .segmentation import (PERPLEXITY_THRESHOLD, dedupe_into_morpheme_set,
                           perplexity_filter, read_segmentation_cache)
from .stats import knn_overlap, mi_alignment, prepare, rsa, stars
from .subspace import pool_candidates, scale_alignment

log = logging.getLogger(__name__)

# name -> (default, lowest, highest); None leaves that side open. A value
# must have its default's type, except that an int may stand for a float.
PARAMS = {
    "k": (10, 1, None),
    "bins": (20, 2, None),
    "n_components": (5, 1, None),
    "shuffles": (1000, 1, None),
    "null_points": (500, 1, None),
    "subspace_shuffles": (5000, 1, None),
    "subspace_null_points": (5000, 1, None),
    "percentile": (75.0, 0.0, 100.0),
    "threshold": (0.05, 0.0, 1.0),
    "zipf_cutoff": (4.5, None, None),
    "top_words": (5000, 0, None),
    "subspace_pool": (10000, 1, None),
    "cca_ridge": (DEFAULT_RIDGE, 0.0, None),
    # must be True; kept since every payload's params and config_hash hold it
    "cca_refit": (True, None, None),
    "perplexity_threshold": (PERPLEXITY_THRESHOLD, 1.0, None),
    "scatter": (False, None, None),
}
DEFAULT_PARAMS = {name: default for name, (default, _, _) in PARAMS.items()}

ANALYSES = ("rsa", "mi", "knn", "cca", "subspace")
INPUT_ROLES = ("lexicon", "vectors", "segmentations")


@dataclass(frozen=True)
class RunConfig:
    languages: tuple[str, ...]
    feature_table: str
    inputs: dict[str, dict[str, str]]  # language -> {lexicon, vectors, segmentations}
    output_dir: str = "results"
    scales: str | None = None
    analyses: dict[str, bool] = field(
        default_factory=lambda: dict.fromkeys(ANALYSES, True))
    params: dict = field(default_factory=lambda: dict(DEFAULT_PARAMS))
    seed: int = 0

    def __post_init__(self):
        _reject_unknown("params", self.params, DEFAULT_PARAMS)
        _reject_unknown("analyses", self.analyses, ANALYSES)
        for name, on in self.analyses.items():
            if type(on) is not bool:
                raise InputError(f"analyses.{name}={on!r}: expected true or false")
        merged = dict(DEFAULT_PARAMS)
        merged.update(self.params)
        object.__setattr__(self, "params", merged)
        for name, (default, lo, hi) in PARAMS.items():
            v, kind = merged[name], type(default)
            if type(v) is not kind and not (kind is float and type(v) is int):
                raise InputError(f"parameter {name}={v!r}: expected {kind.__name__}")
            if (lo is not None and v < lo) or (hi is not None and v > hi):
                raise InputError(f"parameter {name}={v} outside documented bounds")
        if type(self.seed) is not int:
            raise InputError(f"seed={self.seed!r}: expected int")
        if merged["cca_refit"] is not True:
            raise InputError("cca_refit=false, the scores-only CCA null, was "
                             "removed; every CCA null refits the CCA")
        if merged["null_points"] > merged["shuffles"]:
            raise InputError("null_points exceeds shuffles")
        if merged["subspace_null_points"] > merged["subspace_shuffles"]:
            raise InputError("subspace_null_points exceeds subspace_shuffles")
        if not isinstance(self.inputs, dict):
            raise InputError(f"inputs: expected a JSON object, got {self.inputs!r}")
        for lang in self.languages:
            if lang not in self.inputs:
                raise InputError(f"no inputs configured for language {lang!r}")
            _reject_unknown(f"inputs.{lang}", self.inputs[lang], INPUT_ROLES)
            missing = [r for r in INPUT_ROLES if r not in self.inputs[lang]]
            if missing:
                raise InputError(f"inputs.{lang}: missing role(s): {', '.join(missing)}")

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        obj = read_json(path)
        missing = [k for k in ("languages", "feature_table", "inputs")
                   if k not in obj]
        if missing:
            raise InputError(f"{path}: missing required key(s): {', '.join(missing)}")
        _reject_unknown("config", obj, [f.name for f in dataclasses.fields(cls)])
        return cls(**{**obj, "languages": tuple(obj["languages"])})

    def to_obj(self) -> dict:
        return {**dataclasses.asdict(self), "languages": list(self.languages)}

    def config_hash(self) -> str:
        blob = json.dumps(self.to_obj(), sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _reject_unknown(what: str, obj: dict, known) -> None:
    if not isinstance(obj, dict):
        raise InputError(f"{what}: expected a JSON object, got {obj!r}")
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise InputError(f"unknown {what} key(s): {', '.join(unknown)}")


def read_json(path: str | Path) -> dict:
    """A JSON object a command reads: the configuration or a payload. A
    file that is missing, unreadable, not JSON or not a JSON object is an
    InputError naming it."""
    try:
        with _open_input(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    return obj


@contextlib.contextmanager
def payload_fields(path: str | Path):
    """A payload at ``path`` that lacks a key a command reads from it, or
    holds a value of the wrong type there, is an InputError naming the
    file."""
    try:
        yield
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"{path}: not a payload this version reads "
                         f"({type(exc).__name__}: {exc})") from None


def derive_seed(master: int, analysis: str, language: str) -> int:
    """Deterministic per-(analysis, language) substream seed."""
    digest = hashlib.sha256(f"{master}:{analysis}:{language}".encode()).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF


def _dump_json(obj, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8")


def _file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with _open_input(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _language_inputs(config: RunConfig, language: str) -> dict[str, str]:
    """Role -> path of every input file a language's analyses read."""
    return {"feature_table": config.feature_table, **config.inputs[language]}


def _input_digests(paths: Iterable[str]) -> dict[str, str]:
    """Path -> SHA-256 of each input file, each file read once."""
    return {path: _file_digest(path) for path in dict.fromkeys(paths)}


def write_manifest(config: RunConfig, written: dict, digests: dict) -> Path:
    """Run manifest with wall-clock metadata; kept apart from payloads."""
    out = Path(config.output_dir)
    manifest = {
        "config": config.to_obj(),
        "config_hash": config.config_hash(),
        "input_digests": digests,
        "results": {k: str(v) for k, v in written.items()},
        "tool_version": __version__,
        "timestamp": time.time(),
    }
    path = out / "manifest.json"
    _dump_json(manifest, path)
    return path


# ---------------------------------------------------------------------------
# Shared loading

def analysed_morphemes(config: RunConfig, language: str) -> MorphemeSet:
    """The analysed morphemes: the segmentation cache after the
    perplexity filter, deduplicated into (form, transcription) pairs."""
    segs = read_segmentation_cache(config.inputs[language]["segmentations"])
    segs, _ = perplexity_filter(segs, config.params["perplexity_threshold"])
    return dedupe_into_morpheme_set(segs, language)


def load_vocabulary(config: RunConfig,
                    language: str) -> tuple[Lexicon, EmbeddingMatrix]:
    """The lexicon and the vectors of every lexicon word found in the
    vectors file."""
    lexicon = load_lexicon(config.inputs[language]["lexicon"], language)
    vocab, _ = load_semantic_embeddings(config.inputs[language]["vectors"],
                                        lexicon.words())
    return lexicon, vocab


def load_pole_candidates(config: RunConfig, language: str) -> PoleCandidates:
    """The semantic pole candidates: the lexicon words above
    ``zipf_cutoff`` that have a vector. Only their rows of the vectors
    file are parsed; when none has one, there are no candidates."""
    lexicon = load_lexicon(config.inputs[language]["lexicon"], language)
    cutoff = config.params["zipf_cutoff"]
    vocab, _ = load_semantic_embeddings(
        config.inputs[language]["vectors"],
        [lx.word for lx in lexicon if lx.zipf > cutoff], allow_none=True)
    return pole_candidates(vocab)


def load_language_spaces(config: RunConfig, language: str):
    """Aligned phonetic and semantic embedding matrices over morphemes.

    A morpheme is kept when its form has a vector and neither of its two
    rows has zero norm, since cosine similarity is undefined there. The
    phonetic space is pooled and standardized over the morphemes whose
    form has a non-zero vector; a zero-norm phonetic row then sits at the
    column means, so dropping it leaves no column constant.
    """
    table = load_feature_table(config.feature_table)
    mset = analysed_morphemes(config, language)
    if not mset:
        raise InputError(f"{language}: empty morpheme set")

    sem_by_form, _ = load_semantic_embeddings(
        config.inputs[language]["vectors"], {m.form for m in mset})
    sem_norm = np.linalg.norm(sem_by_form.vectors, axis=1)
    form_index = {w: i for i, w in enumerate(sem_by_form.ids) if sem_norm[i] > 0.0}
    phon_matrix, feature_names, skipped = build_phonetic_embeddings(
        [(f"{m.form}|{m.transcription}", m.transcription) for m in mset
         if m.form in form_index], table)

    forms = [item_id.split("|", 1)[0] for item_id in phon_matrix.ids]
    keep = np.flatnonzero(np.linalg.norm(phon_matrix.vectors, axis=1) > 0.0)
    if len(keep) < 3:
        raise AnalysisError(f"{language}: fewer than 3 morphemes in both spaces")
    phon = phon_matrix.subset(keep)
    sem = EmbeddingMatrix(
        ids=phon.ids,
        vectors=sem_by_form.vectors[[form_index[forms[i]] for i in keep]])
    return phon, sem, feature_names, len(mset), skipped


# ---------------------------------------------------------------------------
# Analysis runs

def run_global(config: RunConfig) -> dict[str, Path]:
    """Per-language global alignment grid (RSA, MI, kNN, CCA CV1-CV5),
    and the run manifest."""
    p = config.params
    digests = _input_digests(path for lang in config.languages
                             for path in _language_inputs(config, lang).values())
    out_dir = Path(config.output_dir)
    written: dict[str, Path] = {}
    grid_rows = []
    for lang in config.languages:
        phon, sem, feature_names, n_total, skipped = load_language_spaces(config, lang)
        results = _similarity_results(config, lang, phon, sem)
        if config.analyses.get("cca", True):
            n_components = min(p["n_components"], phon.n_dims, sem.n_dims)
            model = fit_cca(phon.vectors, sem.vectors,
                            n_components=n_components, ridge=p["cca_ridge"])
            cv_results = canonical_rank_correlations(
                model, X=phon.vectors, Y=sem.vectors, n_shuffles=p["shuffles"],
                null_points=p["null_points"],
                seed=derive_seed(config.seed, "cca", lang))
            results["cca"] = [r.to_record() for r in cv_results]
            _save_cca_artifacts(
                out_dir / lang, model, phon, feature_names, config.config_hash(),
                {role: digests[path]
                 for role, path in _language_inputs(config, lang).items()})

        payload = {
            "language": lang,
            "n_morphemes": phon.n_items,
            "n_morphemes_segmented": n_total,
            "n_skipped_phonetics": len(skipped),
            "config_hash": config.config_hash(),
            "params": p,
            "results": results,
            "notes": [
                "null distribution: first null_points of shuffles",
                "MI computed on pair vectors",
            ],
        }
        path = out_dir / lang / "global.json"
        _dump_json(payload, path)
        written[f"global:{lang}"] = path
        grid_rows.append(payload)

    md_path = out_dir / "global.md"
    md_path.parent.mkdir(parents=True, exist_ok=True)
    md_path.write_text(render_global_grid(grid_rows), encoding="utf-8")
    written["global:grid"] = md_path
    write_manifest(config, written, digests)
    return written


def _similarity_results(config: RunConfig, lang: str, phon: EmbeddingMatrix,
                        sem: EmbeddingMatrix) -> dict[str, object]:
    """The RSA, MI and kNN records of one language, of those analyses
    that are on. The two spaces are prepared one after the other, so
    only one n x n similarity matrix exists at a time, and their
    prepared content is freed on return."""
    p = config.params
    on = [a for a in ("rsa", "mi", "knn") if config.analyses.get(a, True)]
    if not on:
        return {}
    space_phon = prepare(phon, on, bins=p["bins"], k=p["k"])
    space_sem = prepare(sem, on, bins=p["bins"], k=p["k"])
    results: dict[str, object] = {}
    if "rsa" in on:
        results["rsa"] = rsa(
            space_phon, space_sem, n_shuffles=p["shuffles"],
            null_points=p["null_points"],
            seed=derive_seed(config.seed, "rsa", lang)).to_record()
    if "mi" in on:
        results["mi"] = mi_alignment(
            space_phon, space_sem, bins=p["bins"], n_shuffles=p["shuffles"],
            null_points=p["null_points"],
            seed=derive_seed(config.seed, "mi", lang)).to_record()
    if "knn" in on:
        results["knn"] = knn_overlap(
            space_phon, space_sem, k=p["k"], n_shuffles=p["shuffles"],
            null_points=p["null_points"],
            seed=derive_seed(config.seed, "knn", lang)).to_record()
    return results


def _save_cca_artifacts(lang_dir: Path, model: CcaModel, phon: EmbeddingMatrix,
                        feature_names, config_hash: str,
                        input_digests: dict[str, str]) -> None:
    """The fitted model, stamped with the run's config hash and the
    SHA-256 of each input file by role."""
    lang_dir.mkdir(parents=True, exist_ok=True)
    np.savez(
        lang_dir / "cca_model.npz",
        **{f.name: getattr(model, f.name) for f in dataclasses.fields(CcaModel)},
        phonetic_vectors=phon.vectors,
        phonetic_ids=np.array(phon.ids, dtype=str),
        feature_names=np.array(list(feature_names), dtype=str),
        config_hash=config_hash,
        input_sha256=json.dumps(input_digests, sort_keys=True),
    )


def _load_cca_artifacts(lang_dir: Path, config_hash: str,
                        inputs: dict[str, str]):
    """The fitted model, phonetic vectors and feature names saved by the
    ``analyze-global`` run whose payload carries ``config_hash``, from
    the input files ``inputs`` (role -> path) hold now."""
    path = lang_dir / "cca_model.npz"
    if not path.exists():
        raise InputError(f"{path}: no fitted CCA artifacts; run analyze-global first")
    with np.load(path) as z:
        stamp = str(z["config_hash"]) if "config_hash" in z.files else None
        if stamp != config_hash:
            raise InputError(
                f"{path}: stamped {stamp or 'with no config hash'}, but "
                f"global.json has {config_hash}; run analyze-global again")
        stamped = (json.loads(str(z["input_sha256"]))
                   if "input_sha256" in z.files else {})
        for role, input_path in inputs.items():
            if _file_digest(input_path) != stamped.get(role):
                raise InputError(
                    f"{input_path}: not the {role} file {path} is stamped "
                    "with; run analyze-global again")
        model = CcaModel(**{f.name: z[f.name][()]
                            for f in dataclasses.fields(CcaModel)})
        return model, z["phonetic_vectors"], z["feature_names"].tolist()


def run_subspace(config: RunConfig) -> dict[str, Path]:
    """Languages x scales grid of projection rank correlations."""
    if not config.analyses.get("subspace", True):
        raise InputError("analyses.subspace is false; analyze-subspace has "
                         "nothing to run")
    p = config.params
    digests = _input_digests(filter(None, [
        config.feature_table, config.scales,
        *(config.inputs[lang][role] for lang in config.languages
          for role in ("lexicon", "vectors"))]))
    out_dir = Path(config.output_dir)
    table = load_feature_table(config.feature_table)
    scales = load_scale_configs(config.scales)
    cells = []
    written: dict[str, Path] = {}
    for lang in config.languages:
        lexicon, vocab = load_vocabulary(config, lang)
        candidates = pool_candidates(vocab, lexicon, table)
        for scale in scales:
            result = scale_alignment(
                scale, lang, vocab, table, candidates,
                n_words=p["subspace_pool"],
                n_shuffles=p["subspace_shuffles"],
                null_points=p["subspace_null_points"],
                seed=derive_seed(config.seed, f"subspace:{scale.name}", lang))
            cells.append(result.to_record())
            if p.get("scatter"):
                scatter = out_dir / "scatter" / f"{lang}_{scale.name}.tsv"
                scatter.parent.mkdir(parents=True, exist_ok=True)
                with scatter.open("w", encoding="utf-8") as fh:
                    fh.write("word\tsemantic_coord\tphonetic_coord\n")
                    for w, s, ph in zip(result.words, result.semantic_coords,
                                        result.phonetic_coords):
                        fh.write(f"{w}\t{s!r}\t{ph!r}\n")
                written[f"scatter:{lang}:{scale.name}"] = scatter

    payload = {
        "config_hash": config.config_hash(),
        "params": p,
        "cells": cells,
        "notes": ["two-sided permutation test; "
                  "phonetic post-processing computed over the selected word set"],
    }
    path = out_dir / "subspace.json"
    _dump_json(payload, path)
    written["subspace"] = path
    md_path = out_dir / "subspace.md"
    md_path.write_text(render_subspace_grid(payload), encoding="utf-8")
    written["subspace:grid"] = md_path
    write_manifest(config, written, digests)
    return written


def run_interpret(config: RunConfig) -> dict[str, Path]:
    """Pole reports for every significant canonical variate (p < 0.05)."""
    p = config.params
    out_dir = Path(config.output_dir)
    written: dict[str, Path] = {}
    for lang in config.languages:
        lang_dir = out_dir / lang
        global_path = lang_dir / "global.json"
        if not global_path.exists():
            raise InputError(f"{global_path}: run analyze-global first")
        payload = read_json(global_path)
        with payload_fields(global_path):
            cca_records = payload.get("results", {}).get("cca")
            if cca_records is None:
                raise InputError(f"{lang}: no CCA results to interpret")
            config_hash = payload["config_hash"]
            significant = [c for c, rec in enumerate(cca_records)
                           if rec["p"] < 0.05]
        model, phon_vectors, feature_names = _load_cca_artifacts(
            lang_dir, config_hash, _language_inputs(config, lang))

        reports = []
        if significant:
            candidates = load_pole_candidates(config, lang)
            reports = [build_pole_report(
                model, c, phon_vectors, feature_names, candidates, k=p["k"],
                percentile=p["percentile"], threshold=p["threshold"]).to_record()
                for c in significant]
        else:
            log.info("%s: no significant components; empty pole report", lang)
        out = {
            "language": lang,
            "config_hash": config.config_hash(),
            "components": reports,
            "notes": [] if reports else ["no significant canonical variates"],
        }
        path = lang_dir / "poles.json"
        _dump_json(out, path)
        written[f"poles:{lang}"] = path
        md = lang_dir / "poles.md"
        md.write_text(render_pole_tables(out), encoding="utf-8")
        written[f"poles:{lang}:md"] = md
    return written


# ---------------------------------------------------------------------------
# Markdown rendering (derived from the JSON payloads, never recomputed)

def _fmt_stat(rec: dict) -> str:
    return f"{rec['value']:.3f}{rec['stars']}"


def render_global_grid(payloads: list[dict]) -> str:
    n_cv = max((len(p["results"].get("cca", [])) for p in payloads), default=0)
    header = ["Language", "n morphemes", "RSA (rho)", "MI (bits)", "kNN overlap"]
    header += [f"CCA CV{i + 1} (rho)" for i in range(n_cv)]
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    for p in payloads:
        r = p["results"]
        row = [p["language"], str(p["n_morphemes"])]
        for key in ("rsa", "mi", "knn"):
            row.append(_fmt_stat(r[key]) if key in r else "-")
        cca = r.get("cca", [])
        row += [_fmt_stat(c) for c in cca] + ["-"] * (n_cv - len(cca))
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    lines.append("Significance: * p < 0.05, ** p < 0.01, *** p < 0.001.")
    return "\n".join(lines) + "\n"


def render_subspace_grid(payload: dict) -> str:
    scales = sorted({c["scale"] for c in payload["cells"]})
    langs = sorted({c["language"] for c in payload["cells"]})
    by_key = {(c["language"], c["scale"]): c for c in payload["cells"]}
    lines = ["| Language | " + " | ".join(scales) + " |",
             "|" + "---|" * (len(scales) + 1)]
    for lang in langs:
        row = [lang]
        for scale in scales:
            c = by_key.get((lang, scale))
            row.append(f"{c['rho']:.3f}{c['stars']}" if c else "-")
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    lines.append("Significance: * p < 0.05, ** p < 0.01, *** p < 0.001.")
    return "\n".join(lines) + "\n"


def render_pole_tables(payload: dict) -> str:
    lines = [f"# Canonical variate poles: {payload['language']}", ""]
    if not payload["components"]:
        lines.append("No significant canonical variates.")
        return "\n".join(lines) + "\n"
    header = ["CV", "Semantic Pole (+)", "Phonetic Pole (+)",
              "Semantic Pole (-)", "Phonetic Pole (-)",
              "Semantic Interpretation", "Phonetic Interpretation"]
    lines += ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for rec in payload["components"]:
        sem_pos = ", ".join(x["item"] for x in rec["semantic_pos"])
        sem_neg = ", ".join(x["item"] for x in rec["semantic_neg"])
        phon_pos = ", ".join(x["item"] for x in rec["phonetic_pos"])
        phon_neg = ", ".join(x["item"] for x in rec["phonetic_neg"])
        lines.append(f"| {rec['component']} | {sem_pos} | {phon_pos} | "
                     f"{sem_neg} | {phon_neg} | {rec['interpretation_semantic']} "
                     f"| {rec['interpretation_phonetic']} |")
    return "\n".join(lines) + "\n"
