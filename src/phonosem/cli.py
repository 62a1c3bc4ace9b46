"""Command-line entry points.

Exit codes: 0 success, 1 input error (a usage error too: an unknown
option, a missing ``--config`` file), 2 analysis error, 3 provider error.
"""

from __future__ import annotations

import contextlib
import json
import logging
import sys
from pathlib import Path

import click

from .corpus import load_feature_table, load_lexicon, load_scale_configs
from .errors import AnalysisError, InputError, ProviderError
from .phonetic import cosine_similarity_matrix
from .pipeline import (RunConfig, analysed_morphemes, input_digests,
                       load_language_spaces, load_vocabulary, render_reports,
                       run_global, run_interpret, run_subspace)
from .segmentation import (HttpProvider, ReplayProvider, sample_for_verification,
                           dedupe_into_morpheme_set, read_verdicts, score_verdicts,
                           segment_words, write_verification_sheet)

log = logging.getLogger(__name__)

config_option = click.option(
    "--config", "config", required=True, type=click.Path(exists=True, dir_okay=False),
    callback=lambda ctx, param, path: RunConfig.from_file(path),
    help="Run configuration JSON.")


class _Commands(click.Group):
    """The command group, which gives every error its exit code."""

    def make_context(self, *args, **kwargs):
        with _exit_code():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        # a command's own options are parsed inside the group's invoke
        with _exit_code():
            return super().invoke(ctx)


@contextlib.contextmanager
def _exit_code():
    """Exit with the code of the error raised. click exits 2 on a usage
    error, which here is the analysis-error code, so a usage error exits
    1 instead."""
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = 1
        raise
    except InputError as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(1)
    except ProviderError as exc:
        click.echo(f"provider error: {exc}", err=True)
        sys.exit(3)
    except AnalysisError as exc:
        click.echo(f"analysis error: {exc}", err=True)
        sys.exit(2)


@click.group(cls=_Commands)
@click.option("-v", "--verbose", is_flag=True, help="Debug logging.")
def main(verbose):
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")


@main.command()
@config_option
def ingest(config):
    """Validate all configured inputs and print a summary."""
    table = load_feature_table(config.feature_table)
    click.echo(f"feature table: {len(table.vectors)} segments x "
               f"{table.n_features} features")
    digests = input_digests(config, ("vectors",))
    for lang in config.languages:
        lexicon, vocab = load_vocabulary(config, lang, digests)
        click.echo(f"{lang}: {len(lexicon)} lexemes, {vocab.n_items} with "
                   f"embeddings ({len(lexicon) - vocab.n_items} missing), "
                   f"dim {vocab.n_dims}")
    scales = load_scale_configs(config.scales)
    click.echo(f"scales: {', '.join(s.name for s in scales)}")


@main.command()
@config_option
@click.option("--provider-url", default=None, help="HTTP provider endpoint.")
@click.option("--provider-model", default="gpt-4.1", show_default=True)
@click.option("--replay", "replay_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="Replay recorded responses from this JSONL file.")
def segment(config, provider_url, provider_model, replay_path):
    """Segment the top-frequency words of each language via the provider."""
    if replay_path:
        provider = ReplayProvider(replay_path)
    elif provider_url:
        provider = HttpProvider(provider_url, provider_model,
                                audit_path=Path(config.output_dir) / "provider_audit.jsonl")
    else:
        raise InputError("provide --replay or --provider-url")
    for lang in config.languages:
        lexicon = load_lexicon(config.inputs[lang]["lexicon"])
        words = [(lx.word, lx.lemma, lx.ipa)
                 for lx in lexicon[:config.params["top_words"]] if lx.transcribable]
        segs = segment_words(words, lang, provider,
                             config.inputs[lang]["segmentations"],
                             perplexity_threshold=config.params["perplexity_threshold"])
        mset = dedupe_into_morpheme_set(segs)
        click.echo(f"{lang}: {len(segs)} segmentations kept, "
                   f"{len(mset)} unique morphemes")


@main.command()
@config_option
@click.option("-n", "sample_n", type=int, default=150, show_default=True)
def verify(config, sample_n):
    """Draw the native-speaker verification sample per language; a sheet
    in which any row holds a verdict is kept as it is and scored."""
    for lang in config.languages:
        mset = analysed_morphemes(config, lang)
        sample = sample_for_verification(mset, n=sample_n, seed=config.seed)
        path = Path(config.output_dir) / lang / "verification.tsv"
        score_path = path.with_suffix(".json")
        rows = read_verdicts(path) if path.exists() else []
        filled = sum(1 for row in rows if row[3])
        if filled:
            score = score_verdicts(path, rows, mset)
            score_path.write_text(json.dumps(score, indent=2, sort_keys=True)
                                  + "\n", encoding="utf-8")
            click.echo(f"{lang}: kept {path}: {filled} of {len(rows)} rows "
                       "hold a verdict")
            click.echo(f"{lang}: {score['error']} errors in {filled} reviewed "
                       f"rows: error rate {100 * score['error_rate']:.1f} % "
                       f"± {100 * score['half_width']:.2f} %, written to "
                       f"{score_path}")
            continue
        path.parent.mkdir(parents=True, exist_ok=True)
        write_verification_sheet(sample, path)
        # a score read from an earlier sheet no longer holds
        score_path.unlink(missing_ok=True)
        note = " (fewer morphemes than requested)" if len(sample) < sample_n else ""
        click.echo(f"{lang}: wrote {len(sample)} rows to {path}{note}")


@main.command()
@config_option
def embed(config):
    """Build and export similarity matrices for inspection."""
    table = load_feature_table(config.feature_table)
    digests = input_digests(config, ("vectors",))
    for lang in config.languages:
        phon, sem, _, _, _ = load_language_spaces(config, lang, table, digests)
        out = Path(config.output_dir) / lang
        out.mkdir(parents=True, exist_ok=True)
        for name, matrix in (("phonetic", phon), ("semantic", sem)):
            cosine_similarity_matrix(matrix).save_binary(out / f"sim_{name}.bin")
        click.echo(f"{lang}: exported similarity matrices for "
                   f"{phon.n_items} morphemes to {out}")


@main.command("analyze-global")
@config_option
def analyze_global(config):
    """Run the global alignment suite (RSA, MI, kNN, CCA)."""
    for key, path in run_global(config).items():
        click.echo(f"{key}: {path}")


@main.command("analyze-subspace")
@config_option
def analyze_subspace(config):
    """Run the hypothesized-scale subspace analyses."""
    for key, path in run_subspace(config).items():
        click.echo(f"{key}: {path}")


@main.command()
@config_option
def interpret(config):
    """Emit pole reports for significant canonical variates."""
    for key, path in run_interpret(config).items():
        click.echo(f"{key}: {path}")


@main.command()
@config_option
def report(config):
    """Re-render markdown reports from existing JSON payloads of this
    config; every payload is checked before any file is written."""
    for path in render_reports(config):
        click.echo(f"rendered {path}")


if __name__ == "__main__":
    main()
