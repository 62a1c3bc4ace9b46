"""Correctness gate over the JSON payloads a workload writes.

The payloads (``<lang>/global.json``, ``subspace.json``,
``<lang>/poles.json``) are split into cells: one per statistic record,
subspace cell or pole component, plus one header cell per file for the
remaining fields. The gate checks cells two ways:

* against reference cells recorded from a known-good commit on a fixed
  small input (``reference/<workload>.json``): strings and integers must
  be equal, other numbers must agree within ``TOLERANCE``, and p-values
  and stars must be equal;
* on the seeded workload itself, by invariants that hold for any seed:
  p-values are add-one permutation p-values over the configured null,
  stars follow p, the planted language beats every null sample on RSA,
  MI and CCA CV1 (where they ran) and the control does not on all three,
  the planted sonority scale beats every null sample, and pole reports
  exist exactly for the components with p < 0.05.

Every failed cell counts once in ``failed``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# Absolute tolerance for observed statistics, null summaries and every
# other float in the payloads, except p-values and stars, which must match
# exactly.
TOLERANCE = 1e-12
EXACT_KEYS = frozenset({"p", "stars"})
# Statistics on which the planted language must beat every null sample.
VERDICT_STATISTICS = ("rsa", "mi", "cca_cv1")


def payload_files(out_dir: Path, languages) -> list[Path]:
    files = []
    for lang in languages:
        files += [out_dir / lang / "global.json", out_dir / lang / "poles.json"]
    files.append(out_dir / "subspace.json")
    return files


def digest(out_dir: Path, languages) -> str:
    """SHA-256 over every payload file's name and bytes (missing files
    hash as absent)."""
    h = hashlib.sha256()
    for path in payload_files(out_dir, languages):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(path.read_bytes() if path.exists() else b"<missing>")
        h.update(b"\0")
    return h.hexdigest()


def _stat_key(rec: dict) -> str:
    return rec["statistic"].replace("mutual_information", "mi") \
        .replace("knn_overlap", "knn")


def cells(out_dir: Path, languages) -> dict[str, object]:
    """Payload cells keyed ``<file>/<lang>/<cell>``; unreadable files
    become a single ``None`` cell so they fail against any reference."""
    out: dict[str, object] = {}

    def load(path: Path, key: str):
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            out[key] = None
            return None

    for lang in languages:
        g = load(out_dir / lang / "global.json", f"global/{lang}")
        if g is not None:
            results = g.get("results", {})
            out[f"global/{lang}/header"] = {k: v for k, v in g.items() if k != "results"}
            for name, rec in results.items():
                for r in (rec if isinstance(rec, list) else [rec]):
                    out[f"global/{lang}/{_stat_key(r)}"] = r
        poles = load(out_dir / lang / "poles.json", f"poles/{lang}")
        if poles is not None:
            out[f"poles/{lang}/header"] = {k: v for k, v in poles.items()
                                           if k != "components"}
            for comp in poles.get("components", []):
                out[f"poles/{lang}/cv{comp['component']}"] = comp
    sub = load(out_dir / "subspace.json", "subspace")
    if sub is not None:
        out["subspace/header"] = {k: v for k, v in sub.items() if k != "cells"}
        for cell in sub.get("cells", []):
            out[f"subspace/{cell['language']}/{cell['scale']}"] = cell
    return out


# ---------------------------------------------------------------------------
# Reference comparison

def diff(ref, got, path: str = "", exact: bool = False) -> list[str]:
    """Differences between two JSON values under the gate's tolerance."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{path}: keys {sorted(set(ref) ^ set(got))} differ"]
        out = []
        for k in sorted(ref):
            out += diff(ref[k], got[k], f"{path}.{k}", exact or k in EXACT_KEYS)
        return out
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        out = []
        for i, (a, b) in enumerate(zip(ref, got)):
            out += diff(a, b, f"{path}[{i}]", exact)
        return out
    numbers = (int, float)
    if (isinstance(ref, float) or isinstance(got, float)) and not exact \
            and isinstance(ref, numbers) and isinstance(got, numbers) \
            and not isinstance(ref, bool) and not isinstance(got, bool):
        if abs(ref - got) <= TOLERANCE:
            return []
        return [f"{path}: {got!r} != {ref!r} (|diff| > {TOLERANCE})"]
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {got!r} != {ref!r}"]
    return []


def compare(reference: dict, got: dict) -> tuple[int, list[str]]:
    """(cells attempted, one failure line per mismatching cell)."""
    keys = sorted(set(reference) | set(got))
    failures = []
    for key in keys:
        if key not in got:
            failures.append(f"{key}: missing")
        elif key not in reference:
            failures.append(f"{key}: not in reference")
        else:
            d = diff(reference[key], got[key], key)
            if d:
                failures.append("; ".join(d[:3]))
    return len(keys), failures


# ---------------------------------------------------------------------------
# Invariants of a seeded run

def stars(p: float) -> str:
    return "***" if p < 0.001 else "**" if p < 0.01 else "*" if p < 0.05 else ""


def _test_record(cell: dict) -> dict | None:
    """The permutation-test record inside a cell, if it has one."""
    if "null_points" in cell and "p" in cell:
        return cell
    test = cell.get("test")
    return test if isinstance(test, dict) else None


def _record_problems(rec: dict) -> list[str]:
    m, p = rec["null_points"], rec["p"]
    hits = p * (1 + m) - 1
    out = []
    if not (0 <= round(hits) <= m and abs(hits - round(hits)) < 1e-9):
        out.append(f"p={p} is not an add-one p-value over {m} null points")
    if rec["stars"] != stars(p):
        out.append(f"stars {rec['stars']!r} do not match p={p}")
    if not math.isfinite(rec["value"]):
        out.append(f"value {rec['value']!r} is not finite")
    if rec["null_points"] > rec["n_shuffles"]:
        out.append("null_points exceeds n_shuffles")
    return out


def _beats_null(rec: dict) -> bool:
    """Observed statistic above every null sample: p at its minimum."""
    return rec["p"] == 1.0 / (1 + rec["null_points"])


def invariants(got: dict, planted: dict[str, bool], planted_scale: str) -> tuple[int, list[str]]:
    """(checks attempted, failures) for one seeded run's cells."""
    attempted, failures = 0, []

    def check(name: str, problems: list[str]):
        nonlocal attempted
        attempted += 1
        if problems:
            failures.append(f"{name}: " + "; ".join(problems))

    for key, cell in sorted(got.items()):
        if cell is None:
            check(key, ["payload missing or unreadable"])
            continue
        rec = _test_record(cell)
        if rec is not None:
            check(key, _record_problems(rec))

    for lang, is_planted in planted.items():
        recs = [got.get(f"global/{lang}/{s}") for s in VERDICT_STATISTICS]
        recs = [r for r in recs if r is not None]
        beaten = [_beats_null(r) for r in recs]
        if is_planted:
            check(f"verdict/{lang}", [] if recs and all(beaten) else
                  ["planted language does not beat its null on "
                   + ", ".join(r["statistic"] for r, b in zip(recs, beaten) if not b)])
        else:
            check(f"verdict/{lang}", ["control language beats its null on every "
                                      "verdict statistic"] if all(beaten) else [])

        sub = got.get(f"subspace/{lang}/{planted_scale}")
        if is_planted:
            check(f"verdict/{lang}/{planted_scale}",
                  [] if sub is not None and _beats_null(sub["test"]) else
                  [f"planted scale {planted_scale!r} does not beat its null"])

        significant = {int(k.rsplit("cca_cv", 1)[1]) for k, c in got.items()
                       if k.startswith(f"global/{lang}/cca_cv") and c["p"] < 0.05}
        reported = {int(k.rsplit("/cv", 1)[1]) for k in got
                    if k.startswith(f"poles/{lang}/cv")}
        problems = [] if significant == reported else [
            f"pole reports for {sorted(reported)}, significant {sorted(significant)}"]
        cv1 = got.get(f"poles/{lang}/cv1")
        if is_planted and cv1 is not None and "sonorant" not in [
                x["item"] for x in cv1["phonetic_pos"]]:
            problems.append("planted CV1 phonetic pole lacks 'sonorant'")
        check(f"poles/{lang}", problems)
    return attempted, failures


def load_reference(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["cells"]


def save_reference(path: Path, got: dict, meta: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**meta, "cells": got}, sort_keys=True,
                               ensure_ascii=False, indent=1) + "\n",
                    encoding="utf-8")
