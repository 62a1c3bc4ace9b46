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
import os
import re
import secrets
import time
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable
from urllib.parse import quote

import numpy as np

from . import __version__
from .corpus import (EmbeddingMatrix, Lexeme, Morpheme, MorphemeSet,
                     SegmentFeatureTable, _nfc, _open_input,
                     load_feature_table, load_lexicon, load_scale_configs,
                     load_semantic_embeddings)
from .cca import (DEFAULT_RIDGE, CcaModel, PoleCandidates, build_pole_report,
                  canonical_rank_correlations, fit_cca, pole_candidates)
from .errors import AnalysisError, InputError
from .phonetic import build_phonetic_embeddings
from .segmentation import (PERPLEXITY_THRESHOLD, dedupe_into_morpheme_set,
                           perplexity_filter, read_segmentation_cache)
from .stats import knn_overlap, mi_alignment, prepare, rsa
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
        langs = self.languages
        if (not isinstance(langs, (list, tuple)) or not langs
                or not all(isinstance(lang, str) for lang in langs)
                or len(set(langs)) < len(langs)):
            raise InputError(f"languages={langs!r}: expected a non-empty list "
                             "of distinct strings")
        object.__setattr__(self, "languages", tuple(langs))
        for key in ("feature_table", "output_dir", "scales"):
            value = getattr(self, key)
            if not isinstance(value, str) and not (key == "scales" and value is None):
                raise InputError(f"{key}={value!r}: expected a string")
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
        for prefix in ("", "subspace_"):
            if merged[f"{prefix}null_points"] > merged[f"{prefix}shuffles"]:
                raise InputError(f"{prefix}null_points exceeds {prefix}shuffles")
        if not isinstance(self.inputs, dict):
            raise InputError(f"inputs: expected a JSON object, got {self.inputs!r}")
        for lang in self.languages:
            if lang not in self.inputs:
                raise InputError(f"no inputs configured for language {lang!r}")
            _reject_unknown(f"inputs.{lang}", self.inputs[lang], INPUT_ROLES)
            missing = [r for r in INPUT_ROLES if r not in self.inputs[lang]]
            if missing:
                raise InputError(f"inputs.{lang}: missing role(s): {', '.join(missing)}")
            for role, path in self.inputs[lang].items():
                if not isinstance(path, str):
                    raise InputError(f"inputs.{lang}.{role}={path!r}: expected a string")

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        obj = read_json(path)
        missing = [k for k in ("languages", "feature_table", "inputs")
                   if k not in obj]
        if missing:
            raise InputError(f"{path}: missing required key(s): {', '.join(missing)}")
        _reject_unknown("config", obj, [f.name for f in dataclasses.fields(cls)])
        return cls(**obj)

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


def read_payload(path: Path, config_hash: str, command: str, render) -> dict:
    """The payload at ``path`` that ``command`` wrote under the config of
    hash ``config_hash``. One that is not a JSON object, lacks a key
    ``render`` reads from ``[payload]`` or that another config wrote is
    an InputError naming it; the last says to run ``command`` again."""
    payload = read_json(path)
    with payload_fields(path):
        render([payload])
        written = payload["config_hash"]
    if written != config_hash:
        raise InputError(f"{path}: written with config hash {written}, but this "
                         f"config's hash is {config_hash}; run {command} again")
    return payload


def derive_seed(master: int, analysis: str, language: str) -> int:
    """Deterministic per-(analysis, language) substream seed."""
    digest = hashlib.sha256(f"{master}:{analysis}:{language}".encode()).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF


def _null(config: RunConfig, analysis: str, language: str,
          prefix: str = "") -> dict:
    """The permutation-null keywords of one analysis of one language: the
    ``<prefix>shuffles`` and ``<prefix>null_points`` parameters and the
    seed derived for (analysis, language)."""
    return {"n_shuffles": config.params[f"{prefix}shuffles"],
            "null_points": config.params[f"{prefix}null_points"],
            "seed": derive_seed(config.seed, analysis, language)}


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


def input_digests(config: RunConfig, roles: tuple[str, ...],
                  *files: str | None) -> dict[str, str]:
    """Path -> SHA-256 of ``files`` (None skipped) and of each language's
    input files of ``roles``, each file read once: the loaders' map."""
    paths = [*files, *(config.inputs[lang][role] for lang in config.languages
                       for role in roles)]
    return {path: _file_digest(path) for path in dict.fromkeys(filter(None, paths))}


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
    return dedupe_into_morpheme_set(segs)


def load_vocabulary(config: RunConfig, language: str, digests: dict[str, str]
                    ) -> tuple[tuple[Lexeme, ...], EmbeddingMatrix]:
    """The lexicon and the vectors of every lexicon word found in the
    vectors file; ``digests`` is the map of ``input_digests``."""
    lexicon = load_lexicon(config.inputs[language]["lexicon"])
    vocab, _ = load_vectors(config, language, digests, [lx.word for lx in lexicon])
    return lexicon, vocab


def load_pole_candidates(config: RunConfig, language: str,
                         digests: dict[str, str]) -> PoleCandidates:
    """The semantic pole candidates: the lexicon words above
    ``zipf_cutoff`` that have a vector. Only their rows of the vectors
    file are read; when none has one, there are no candidates."""
    lexicon = load_lexicon(config.inputs[language]["lexicon"])
    cutoff = config.params["zipf_cutoff"]
    vocab, _ = load_vectors(
        config, language, digests,
        [lx.word for lx in lexicon if lx.zipf > cutoff], allow_none=True)
    return pole_candidates(vocab)


# percent-encoded in a morpheme id: "%", the "|" that joins its two
# sides, and every character str.splitlines splits on
_ID_ESCAPED = re.compile("[%|\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def _morpheme_id(morpheme: Morpheme) -> str:
    """The id of a morpheme: its form and transcription joined by "|",
    with "%", "|" and line breaks in each percent-encoded (UTF-8). No two
    morphemes share one, ``str.splitlines`` never splits one, and
    ``[urllib.parse.unquote(s) for s in id.split("|")]`` gives back
    [form, transcription]."""
    return "|".join(_ID_ESCAPED.sub(lambda c: quote(c[0]), side)
                    for side in (morpheme.form, morpheme.transcription))


def load_language_spaces(config: RunConfig, language: str,
                         table: SegmentFeatureTable, digests: dict[str, str]):
    """Aligned phonetic and semantic embedding matrices over morphemes,
    the feature names, ``n_morphemes_segmented`` and
    ``n_skipped_phonetics``; ``digests`` is the map of ``input_digests``.

    A morpheme is kept when its form has a vector and neither of its two
    rows has zero norm, since cosine similarity is undefined there. The
    phonetic space is pooled and standardized over the morphemes whose
    form has a non-zero vector; a zero-norm phonetic row then sits at the
    column means, so dropping it leaves no column constant.
    """
    mset = analysed_morphemes(config, language)
    if not mset:
        raise InputError(f"{language}: empty morpheme set")

    sem_by_form, _ = load_vectors(config, language, digests,
                                  {m.form for m in mset})
    sem_norm = np.linalg.norm(sem_by_form.vectors, axis=1)
    form_index = {w: i for i, w in enumerate(sem_by_form.ids) if sem_norm[i] > 0.0}
    morphemes = [m for m in mset if m.form in form_index]
    pooled, feature_names, skipped = build_phonetic_embeddings(
        [(str(i), m.transcription) for i, m in enumerate(morphemes)], table)

    keep = np.flatnonzero(np.linalg.norm(pooled.vectors, axis=1) > 0.0)
    if len(keep) < 3:
        raise AnalysisError(f"{language}: fewer than 3 morphemes in both spaces")
    kept = [morphemes[int(pooled.ids[i])] for i in keep]
    ids = tuple(map(_morpheme_id, kept))
    phon = EmbeddingMatrix(ids=ids, vectors=pooled.vectors[keep])
    sem = EmbeddingMatrix(
        ids=ids, vectors=sem_by_form.vectors[[form_index[m.form] for m in kept]])
    return phon, sem, feature_names, len(mset), len(skipped)


# ---------------------------------------------------------------------------
# Store of parsed vector rows

_NO_ROWS = EmbeddingMatrix(ids=(), vectors=np.empty((0, 0)))
# a store is named by its file's SHA-256; a write in progress, or one a
# killed run left, by that name with a dot before it and a suffix after
_STORE_NAME = re.compile(r"([0-9a-f]{64})|\.[0-9a-f]{64}\..+")


def load_vectors(config: RunConfig, language: str, digests: dict[str, str],
                 vocabulary: Iterable[str],
                 allow_none: bool = False) -> tuple[EmbeddingMatrix, list[str]]:
    """``load_semantic_embeddings`` of the language's vectors file, read
    through the store of the rows parsed from that file,
    ``<output_dir>/vectors/<sha256>``; ``digests`` maps every configured
    vectors file to its SHA-256. The rows come in file order.

    Items that an earlier read looked up, found in the file or not, come
    from the store. Only the others are parsed from the text, in one scan
    that copies each stored row into place at its first line, so the
    scan's rows, in file order, become the store once this read has
    succeeded. The result is that of a parse of the whole vocabulary,
    errors included: a stored row passed every check of the scan that
    parsed it, and that scan checked the dimension of every line of the
    file. No row found is an InputError, unless ``allow_none``. Each read
    deletes the stores of files no configured language reads, and the
    temporary files of killed writes.
    """
    path = config.inputs[language]["vectors"]
    digest = digests[path]
    store_path = Path(config.output_dir) / "vectors" / digest
    _prune_stores(store_path.parent, {digests[config.inputs[lang]["vectors"]]
                                      for lang in config.languages})
    wanted = {_nfc(w) for w in vocabulary}
    stored, absent = _read_store(store_path, digest, wanted) or (_NO_ROWS, frozenset())
    rest = wanted - absent - set(stored.ids)
    n_parsed = 0
    if rest:
        stored, not_found = load_semantic_embeddings(path, rest, known=stored)
        n_parsed = len(rest.difference(not_found))
        absent |= set(not_found)
    # the wanted rows, in the file order the store holds them in
    hits = [i for i, token in enumerate(stored.ids) if token in wanted]
    rows = stored.subset(hits)
    if not rows.n_items and not allow_none:
        raise InputError(f"{path}: no vocabulary items matched")
    missing = sorted(wanted & absent)
    if rest:
        _write_store(store_path, digest, stored, absent)
    log.info("%s: %d rows from the store, %d parsed from the text, %d missing; "
             "text file %s", path, rows.n_items - n_parsed, n_parsed,
             len(missing), "opened" if rest else "not opened")
    return rows, missing


def _prune_stores(directory: Path, keep: set[str]) -> None:
    """Delete the stores under ``directory`` whose digest is not in
    ``keep``, and every temporary file a store write left."""
    for path in directory.glob("*"):
        match = _STORE_NAME.fullmatch(path.name)
        if match and match[1] not in keep:
            path.unlink(missing_ok=True)


def _read_store(path: Path, digest: str, wanted: set[str]
                ) -> tuple[EmbeddingMatrix, frozenset[str]] | None:
    """Rows of the store, in file order, and the items recorded as absent
    from the vectors file whose SHA-256 is ``digest``: only the ``wanted``
    rows, when it holds or records as absent every wanted item, else every
    row, since the read that parses the others rewrites it. The rows are
    gathered from a map of the body, which is dropped once they are taken.
    A store that is missing, does not load, does not match that digest or
    its own row count and dimension, or lists a token twice is none: it is
    never trusted, and the next read that parses rows replaces it."""
    try:
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            tokens, absent, dim = header["tokens"], header["absent"], header["dim"]
            if not (header["digest"] == digest and type(dim) is int and dim >= 0
                    and isinstance(tokens, list) and isinstance(absent, list)
                    and set(map(type, tokens)).union(map(type, absent)) <= {str}):
                raise ValueError("header does not match the rows or the file")
            # one scan writes each token once
            if len(set(tokens)) != len(tokens):
                raise ValueError("a token listed twice")
            start, width = fh.tell(), 8 * dim
            if os.fstat(fh.fileno()).st_size - start != len(tokens) * width:
                raise ValueError(f"{len(tokens)} rows of dimension {dim} do not "
                                 "fit the bytes")
            absent = frozenset(absent)
            take = np.arange(len(tokens))
            if not wanted.difference(absent).difference(tokens):
                take = take[np.fromiter(map(wanted.__contains__, tokens), bool)]
            if take.size:
                vectors = np.memmap(fh, "<f8", "r", offset=start,
                                    shape=(len(tokens), dim))[take]
            else:  # no row to take, and a store of no rows has no body to map
                vectors = np.empty((0, dim))
        return EmbeddingMatrix(ids=tuple(map(tokens.__getitem__, take.tolist())),
                               vectors=vectors), absent
    except FileNotFoundError:
        return None
    except (OSError, ValueError, LookupError, TypeError, OverflowError) as exc:
        log.warning("%s: store ignored (%s: %s)", path, type(exc).__name__, exc)
        return None


def _write_store(path: Path, digest: str, rows: EmbeddingMatrix,
                 absent: frozenset[str]) -> None:
    """Replace the store at ``path`` with ``rows`` and the absent items: a
    JSON header line, then the rows as raw little-endian float64. The file
    appears whole or not at all; a store that cannot be written is
    skipped with a warning, since it only saves work."""
    header = {"digest": digest, "dim": rows.n_dims, "tokens": list(rows.ids),
              "absent": sorted(absent)}
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{path.name}.{secrets.token_hex(8)}"
        fh = open(tmp, "xb")  # mode 0o666 less the umask, as every output
        try:
            with fh:
                fh.write(json.dumps(header).encode("ascii") + b"\n")
                fh.write(np.ascontiguousarray(rows.vectors, dtype="<f8").data)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        log.warning("%s: store not written (%s)", path, exc)


# ---------------------------------------------------------------------------
# Analysis runs

def run_global(config: RunConfig) -> dict[str, Path]:
    """Per-language global alignment grid (RSA, MI, kNN, CCA CV1-CV5),
    and the run manifest."""
    p = config.params
    digests = input_digests(config, INPUT_ROLES, config.feature_table)
    table = load_feature_table(config.feature_table)
    out_dir = Path(config.output_dir)
    written: dict[str, Path] = {}
    for lang in config.languages:
        phon, sem, feature_names, n_total, n_skipped = load_language_spaces(
            config, lang, table, digests)
        results = _similarity_results(config, lang, phon, sem)
        if config.analyses.get("cca", True):
            n_components = min(p["n_components"], phon.n_dims, sem.n_dims)
            model = fit_cca(phon.vectors, sem.vectors,
                            n_components=n_components, ridge=p["cca_ridge"])
            cv_results = canonical_rank_correlations(
                model, X=phon.vectors, Y=sem.vectors, **_null(config, "cca", lang))
            results["cca"] = [r.to_record() for r in cv_results]

        payload = {
            "language": lang,
            "n_morphemes": phon.n_items,
            "n_morphemes_segmented": n_total,
            "n_skipped_phonetics": n_skipped,
            "config_hash": config.config_hash(),
            "params": p,
            "results": results,
            "notes": [
                "null distribution: first null_points of shuffles",
                "MI computed on pair vectors",
            ],
        }
        path = out_dir / lang / "global.json"
        # global.json first: a run killed before the model is written
        # leaves the model of an earlier run, whose stamps interpret checks
        _dump_json(payload, path)
        if "cca" in results:
            _save_cca_artifacts(
                out_dir / lang, model, phon, feature_names, config.config_hash(),
                {role: digests[input_path]
                 for role, input_path in _language_inputs(config, lang).items()})
        written[f"global:{lang}"] = path

    [written["global:grid"]] = render_reports(config, "analyze-global")
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
    # each statistic with the parameter its space was prepared with
    tests = {"rsa": (rsa, {}), "mi": (mi_alignment, {"bins": p["bins"]}),
             "knn": (knn_overlap, {"k": p["k"]})}
    return {a: test(space_phon, space_sem, **param,
                    **_null(config, a, lang)).to_record()
            for a, (test, param) in tests.items() if a in on}


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
                        inputs: dict[str, str], digests: dict[str, str]):
    """The fitted model, phonetic vectors and feature names saved by the
    ``analyze-global`` run of the config whose hash is ``config_hash``,
    from the input files ``inputs`` (role -> path) whose SHA-256 by path
    ``digests`` holds."""
    path = lang_dir / "cca_model.npz"
    if not path.exists():
        raise InputError(f"{path}: no fitted CCA artifacts; run analyze-global first")
    try:
        # np.savez writes in place, so a killed run can leave a cut file;
        # np.load leaves a file it opened open when the archive is cut
        with open(path, "rb") as fh, np.load(fh) as archive:
            z = {name: archive[name] for name in archive.files}
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise InputError(f"{path}: does not load ({type(exc).__name__}: {exc}); "
                         "run analyze-global again") from None
    stamp = str(z["config_hash"]) if "config_hash" in z else None
    if stamp != config_hash:
        raise InputError(
            f"{path}: stamped {stamp or 'with no config hash'}, but "
            f"this config's hash is {config_hash}; run analyze-global again")
    stamped = json.loads(str(z["input_sha256"])) if "input_sha256" in z else {}
    for role, input_path in inputs.items():
        if digests[input_path] != stamped.get(role):
            raise InputError(
                f"{input_path}: not the {role} file {path} is stamped "
                "with; run analyze-global again")
    model = CcaModel(**{f.name: z[f.name][()] for f in dataclasses.fields(CcaModel)})
    return model, z["phonetic_vectors"], z["feature_names"].tolist()


def run_subspace(config: RunConfig) -> dict[str, Path]:
    """Languages x scales grid of projection rank correlations."""
    if not config.analyses.get("subspace", True):
        raise InputError("analyses.subspace is false; analyze-subspace has "
                         "nothing to run")
    p = config.params
    digests = input_digests(config, ("lexicon", "vectors"),
                            config.feature_table, config.scales)
    out_dir = Path(config.output_dir)
    table = load_feature_table(config.feature_table)
    scales = load_scale_configs(config.scales)
    cells = []
    written: dict[str, Path] = {}
    for lang in config.languages:
        lexicon, vocab = load_vocabulary(config, lang, digests)
        candidates = pool_candidates(vocab, lexicon, table)
        # the scales read the candidates and the semantic exemplars' rows
        # alone, so the lexicon and the vocabulary go before they run
        exemplars = {w for scale in scales
                     for side in (scale.semantic_pos, scale.semantic_neg)
                     for w in side.get(lang, ())}
        vocab = vocab.subset([i for i, w in enumerate(vocab.ids) if w in exemplars])
        del lexicon
        for scale in scales:
            result = scale_alignment(
                scale, lang, vocab, table, candidates, n_words=p["subspace_pool"],
                **_null(config, f"subspace:{scale.name}", lang, "subspace_"))
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
        del vocab, candidates  # before the next language's rows are read

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
    [written["subspace:grid"]] = render_reports(config, "analyze-subspace")
    write_manifest(config, written, digests)
    return written


def run_interpret(config: RunConfig) -> dict[str, Path]:
    """Pole reports for every significant canonical variate (p < 0.05),
    from the ``analyze-global`` outputs of this very config."""
    p = config.params
    config_hash = config.config_hash()
    digests = input_digests(config, INPUT_ROLES, config.feature_table)
    out_dir = Path(config.output_dir)
    written: dict[str, Path] = {}
    for lang in config.languages:
        lang_dir = out_dir / lang
        global_path = lang_dir / "global.json"
        if not global_path.exists():
            raise InputError(f"{global_path}: run analyze-global first")
        payload = read_payload(global_path, config_hash, "analyze-global",
                               render_global_grid)
        with payload_fields(global_path):
            cca_records = payload["results"].get("cca")
            if cca_records is None:
                raise InputError(f"{lang}: no CCA results to interpret")
            significant = [c for c, rec in enumerate(cca_records)
                           if rec["p"] < 0.05]
        model, phon_vectors, feature_names = _load_cca_artifacts(
            lang_dir, config_hash, _language_inputs(config, lang), digests)

        reports = []
        if significant:
            candidates = load_pole_candidates(config, lang, digests)
            reports = [build_pole_report(
                model, c, phon_vectors, feature_names, candidates, k=p["k"],
                percentile=p["percentile"], threshold=p["threshold"])
                for c in significant]
        else:
            log.info("%s: no significant components; empty pole report", lang)
        out = {
            "language": lang,
            "config_hash": config_hash,
            "components": reports,
            "notes": [] if reports else ["no significant canonical variates"],
        }
        path = lang_dir / "poles.json"
        _dump_json(out, path)
        written[f"poles:{lang}"] = path
    for lang, md in zip(config.languages, render_reports(config, "interpret")):
        written[f"poles:{lang}:md"] = md
    return written


# ---------------------------------------------------------------------------
# Markdown rendering (derived from the JSON payloads, never recomputed)

def render_reports(config: RunConfig, command: str | None = None) -> list[Path]:
    """Write the markdown of this config's payloads under ``output_dir``
    (of those ``command`` writes, if given) and return its paths. Every
    payload present passes ``read_payload`` before any file is written,
    so a stale or damaged one leaves every markdown file as it was."""
    out = Path(config.output_dir)
    config_hash = config.config_hash()
    reports = [  # markdown, its payloads, the command that writes them, renderer
        (out / "global.md", [out / lang / "global.json" for lang in config.languages],
         "analyze-global", render_global_grid),
        (out / "subspace.md", [out / "subspace.json"], "analyze-subspace",
         lambda payloads: render_subspace_grid(*payloads)),
        *((out / lang / "poles.md", [out / lang / "poles.json"], "interpret",
           lambda payloads: render_pole_tables(*payloads)) for lang in config.languages)]
    texts = {}
    for md, paths, writer, render in reports:
        payloads = [read_payload(path, config_hash, writer, render)
                    for path in paths if command in (None, writer) and path.exists()]
        if payloads:
            texts[md] = render(payloads)
    for md, text in texts.items():
        md.write_text(text, encoding="utf-8")
    return list(texts)


_SIGNIFICANCE = "Significance: * p < 0.05, ** p < 0.01, *** p < 0.001."


def _table(header: list[str], rows: Iterable[list[str]]) -> list[str]:
    """The lines of a markdown table."""
    return ["| " + " | ".join(header) + " |", "|" + "---|" * len(header),
            *("| " + " | ".join(row) + " |" for row in rows)]


def _fmt_stat(rec: dict) -> str:
    return f"{rec['value']:.3f}{rec['stars']}"


def render_global_grid(payloads: list[dict]) -> str:
    n_cv = max((len(p["results"].get("cca", [])) for p in payloads), default=0)
    header = ["Language", "n morphemes", "RSA (rho)", "MI (bits)", "kNN overlap"]
    header += [f"CCA CV{i + 1} (rho)" for i in range(n_cv)]
    rows = []
    for p in payloads:
        r = p["results"]
        row = [p["language"], str(p["n_morphemes"])]
        for key in ("rsa", "mi", "knn"):
            row.append(_fmt_stat(r[key]) if key in r else "-")
        cca = r.get("cca", [])
        rows.append(row + [_fmt_stat(c) for c in cca] + ["-"] * (n_cv - len(cca)))
    return "\n".join(_table(header, rows) + ["", _SIGNIFICANCE]) + "\n"


def render_subspace_grid(payload: dict) -> str:
    scales = sorted({c["scale"] for c in payload["cells"]})
    langs = sorted({c["language"] for c in payload["cells"]})
    by_key = {(c["language"], c["scale"]): c for c in payload["cells"]}
    rows = [[lang] + [f"{c['rho']:.3f}{c['stars']}" if c else "-"
                      for c in (by_key.get((lang, scale)) for scale in scales)]
            for lang in langs]
    return "\n".join(_table(["Language", *scales], rows)
                     + ["", _SIGNIFICANCE]) + "\n"


def render_pole_tables(payload: dict) -> str:
    lines = [f"# Canonical variate poles: {payload['language']}", ""]
    if not payload["components"]:
        return "\n".join(lines + ["No significant canonical variates."]) + "\n"
    header = ["CV", "Semantic Pole (+)", "Phonetic Pole (+)",
              "Semantic Pole (-)", "Phonetic Pole (-)",
              "Semantic Interpretation", "Phonetic Interpretation"]

    def items(rec, key):
        return ", ".join(x["item"] for x in rec[key])
    rows = [[str(rec["component"]), items(rec, "semantic_pos"), items(rec, "phonetic_pos"),
             items(rec, "semantic_neg"), items(rec, "phonetic_neg"),
             str(rec["interpretation_semantic"]), str(rec["interpretation_phonetic"])]
            for rec in payload["components"]]
    return "\n".join(lines + _table(header, rows)) + "\n"
