"""Acceptance suite: ten end-to-end correctness criteria.

Each test covers one numbered criterion and prints a single PASS/FAIL
line to the terminal, independent of pytest's own reporting. Oracles
here are written from first principles (explicit sorting, double-loop
histograms, exhaustive neighbor enumeration, textbook eigenproblems) so
they share no code with the implementations under test.
"""

import json
import time

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.stats import kstest

from phonosem.cca import canonical_rank_correlations, fit_cca
from phonosem.cli import main
from phonosem.corpus import (EmbeddingMatrix, ScaleConfig, load_feature_table,
                             load_lexicon, load_scale_configs)
from phonosem.phonetic import SimilarityMatrix, cosine_similarity_matrix
from phonosem.pipeline import (RunConfig, input_digests, load_language_spaces,
                               run_global)
from phonosem.segmentation import (LANGUAGE_NAMES, error_rate_ci,
                                   load_example_set, parse_response)
from phonosem.stats import (knn_overlap, mi_alignment, permutation_test, rsa,
                            spearman_rho)
from phonosem.subspace import (build_line, perpendicular_distance,
                               pool_candidates, project, scale_alignment)
from phonosem.synth import make_planted_language


def _report(capsys, num, name, ok):
    with capsys.disabled():
        print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} ({name}) failed"


# ---------------------------------------------------------------------------
# Independent oracles

def oracle_midranks(x):
    order = sorted(range(len(x)), key=lambda i: x[i])
    ranks = [0.0] * len(x)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and x[order[j + 1]] == x[order[i]]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return np.array(ranks)


def oracle_spearman(x, y):
    return float(np.corrcoef(oracle_midranks(x), oracle_midranks(y))[0, 1])


def oracle_mi(x, y, bins=20):
    def bin_of(v, lo, hi):
        if v >= hi:
            return bins - 1
        return int((v - lo) / (hi - lo) * bins)

    counts = np.zeros((bins, bins))
    for xi, yi in zip(x, y):
        counts[bin_of(xi, x.min(), x.max()), bin_of(yi, y.min(), y.max())] += 1
    pxy = counts / counts.sum()
    mi = 0.0
    for a in range(bins):
        for b in range(bins):
            if pxy[a, b] > 0:
                mi += pxy[a, b] * np.log2(
                    pxy[a, b] / (pxy[a].sum() * pxy[:, b].sum()))
    return mi


def pair_similarity(pairs):
    """The symmetric similarity matrix whose strict upper triangle, read
    row by row, is ``pairs`` (of length n(n-1)/2)."""
    n = int(round((1 + np.sqrt(1 + 8 * len(pairs))) / 2))
    upper = np.triu_indices(n, k=1)
    values = np.eye(n)
    values[upper] = pairs
    values.T[upper] = pairs
    return SimilarityMatrix(ids=tuple(map(str, range(n))), values=values)


def oracle_knn(values_a, values_b, k):
    n = len(values_a)
    total = 0.0
    for i in range(n):
        def neighbors(values):
            others = [(-values[i, j], j) for j in range(n) if j != i]
            return {j for _, j in sorted(others)[:k]}
        total += len(neighbors(values_a) & neighbors(values_b)) / k
    return total / n


def oracle_first_canonical(x, y):
    """Top canonical correlation via the textbook generalized eigenproblem."""
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    sxx = xc.T @ xc / (len(x) - 1)
    syy = yc.T @ yc / (len(y) - 1)
    sxy = xc.T @ yc / (len(x) - 1)
    m = np.linalg.inv(sxx) @ sxy @ np.linalg.inv(syy) @ sxy.T
    return float(np.sqrt(np.max(np.linalg.eigvals(m).real)))


# ---------------------------------------------------------------------------
# Criteria

def test_01_spearman_oracle_equivalence(capsys):
    rng = np.random.default_rng(201)
    start = time.time()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 51))
        x = rng.integers(0, max(2, n // 2), size=n).astype(float)
        y = x * rng.choice([-1.0, 1.0]) + rng.normal(size=n)
        if np.unique(x).size < 2:
            x[0] += 1.0
        worst = max(worst, abs(spearman_rho(x, y) - oracle_spearman(x, y)))
    elapsed = time.time() - start
    _report(capsys, 1, "rank correlation matches midrank oracle",
            worst < 1e-12 and elapsed < 5.0)


def test_02_mutual_information_oracle_equivalence(capsys):
    rng = np.random.default_rng(202)

    def mi(x, y, bins=20):
        return mi_alignment(pair_similarity(x), pair_similarity(y), bins=bins,
                            n_shuffles=1, null_points=1).value

    worst = 0.0
    for _ in range(200):
        n_items = int(rng.integers(10, 21))  # 45 to 190 pairs
        m = n_items * (n_items - 1) // 2
        x = rng.normal(size=m)
        y = 0.5 * x + rng.normal(size=m)
        worst = max(worst, abs(mi(x, y) - oracle_mi(x, y)))
    constant = mi(np.full(45, 3.0), rng.normal(size=45))
    two_bin = np.repeat([0.0, 1.0], 60)
    identity = mi(two_bin, two_bin, bins=2)
    _report(capsys, 2, "binned MI matches histogram oracle",
            worst < 1e-12 and constant == 0.0 and identity == 1.0)


def test_03_knn_overlap_oracle_equivalence(capsys):
    rng = np.random.default_rng(203)
    ids = tuple(f"i{j}" for j in range(30))
    ok = True
    for _ in range(100):
        a = cosine_similarity_matrix(
            EmbeddingMatrix(ids, rng.normal(size=(30, 6))))
        b = cosine_similarity_matrix(
            EmbeddingMatrix(ids, rng.normal(size=(30, 6))))
        got = knn_overlap(a, b, k=4, n_shuffles=1, null_points=1).value
        ok = ok and got == pytest.approx(oracle_knn(a.values, b.values, 4),
                                         abs=1e-12)
        ok = ok and knn_overlap(a, a, k=4, n_shuffles=1,
                                null_points=1).value == 1.0
    # two 4-cliques in space A; negating off-diagonal similarities makes
    # every neighborhood disjoint from its counterpart
    ids8 = tuple(f"i{j}" for j in range(8))
    va = np.ones((8, 8)) * -1.0
    va[:4, :4] = 1.0
    va[4:, 4:] = 1.0
    vb = -va + 2.0 * np.eye(8)
    sim_a = SimilarityMatrix(ids=ids8, values=va)
    sim_b = SimilarityMatrix(ids=ids8, values=vb)
    ok = ok and knn_overlap(sim_a, sim_b, k=3, n_shuffles=1,
                            null_points=1).value == 0.0
    _report(capsys, 3, "kNN overlap matches exhaustive oracle", ok)


def test_04_cca_recovery(capsys):
    rng = np.random.default_rng(204)
    start = time.time()
    x = rng.normal(size=(500, 8))
    a = rng.normal(size=(8, 6))
    noise_free = fit_cca(x, x @ a, n_components=5)
    ok = bool(np.all(noise_free.canonical_pearson >= 1.0 - 1e-6))
    for seed in range(50):
        srng = np.random.default_rng([204, seed])
        z = srng.normal(size=500)
        xx = np.outer(z, srng.normal(size=8)) + 0.5 * srng.normal(size=(500, 8))
        yy = np.outer(z, srng.normal(size=6)) + 0.5 * srng.normal(size=(500, 6))
        model = fit_cca(xx, yy, n_components=1)
        ok = ok and abs(model.canonical_pearson[0] -
                        oracle_first_canonical(xx, yy)) <= 0.05
    _report(capsys, 4, "CCA recovers exact and planted structure",
            ok and time.time() - start < 30.0)


def test_05_permutation_calibration(capsys):
    master, reps, shuffles = 202, 200, 199
    ids = tuple(f"i{j}" for j in range(12))

    def sims(rng):
        a = cosine_similarity_matrix(
            EmbeddingMatrix(ids, rng.normal(size=(12, 5))))
        b = cosine_similarity_matrix(
            EmbeddingMatrix(ids, rng.normal(size=(12, 5))))
        return a, b

    collected = {"rsa": [], "mi": [], "knn": [], "subspace": []}
    for r in range(reps):
        rng = np.random.default_rng([master, r])
        a, b = sims(rng)
        kwargs = dict(n_shuffles=shuffles, null_points=shuffles, seed=r)
        collected["rsa"].append(rsa(a, b, **kwargs).p_value)
        collected["mi"].append(mi_alignment(a, b, **kwargs).p_value)
        collected["knn"].append(knn_overlap(a, b, k=3, **kwargs).p_value)
        sub_rng = np.random.default_rng([master, reps + r])
        x, y = sub_rng.normal(size=30), sub_rng.normal(size=30)
        p, _ = permutation_test(lambda perm: spearman_rho(x, y[perm]),
                                spearman_rho(x, y), 30,
                                alternative="two-sided", **kwargs)
        collected["subspace"].append(p)
    ok = all(kstest(ps, "uniform").statistic < 0.1
             for ps in collected.values())
    # a fully separated observed value hits the add-one floor exactly
    x = np.arange(30.0)
    p_floor, _ = permutation_test(lambda perm: spearman_rho(x, x[perm]),
                                  1.0, 30, n_shuffles=500, null_points=500,
                                  seed=0)
    _report(capsys, 5, "permutation p-values calibrated under the null",
            ok and p_floor == 1 / 501)


def _planted_config(paths, out_dir, seed, **params):
    return RunConfig(
        languages=("syn",),
        feature_table=str(paths["feature_table"]),
        inputs={"syn": {k: str(v) for k, v in paths.items()
                        if k != "feature_table"}},
        output_dir=str(out_dir),
        params=params,
        seed=seed)


def test_06_planted_signal_pipeline(capsys, tmp_path):
    start = time.time()
    paths = make_planted_language(tmp_path / "lang", n_morphemes=400,
                                  seed=11, planted=True)
    config = _planted_config(paths, tmp_path / "out", seed=4,
                             shuffles=300, null_points=300, n_components=3)
    run_global(config)
    payload = json.loads(
        (tmp_path / "out" / "syn" / "global.json").read_text("utf-8"))
    cv1 = payload["results"]["cca"][0]
    ok = cv1["value"] > 0.8 and cv1["p"] < 0.01

    non_significant = 0
    for s in range(20):
        d = tmp_path / f"control{s}"
        p2 = make_planted_language(d, n_morphemes=400, seed=1000 + s,
                                   planted=False)
        cfg = _planted_config(p2, d / "out", seed=s)
        phon, sem, *_ = load_language_spaces(
            cfg, "syn", load_feature_table(cfg.feature_table),
            input_digests(cfg, ("vectors",)))
        model = fit_cca(phon.vectors, sem.vectors, n_components=3)
        results = canonical_rank_correlations(model, X=phon.vectors,
                                              Y=sem.vectors,
                                              n_shuffles=199, null_points=199,
                                              seed=s)
        if results[0].p_value >= 0.05:
            non_significant += 1
    ok = ok and non_significant >= 18
    _report(capsys, 6, "planted signal detected, null control quiet",
            ok and time.time() - start < 120.0)


def test_07_error_rate_arithmetic(capsys):
    expected = [(3, 2.0, 2.24), (1, 0.67, 1.3), (0, 0.0, 0.0),
                (7, 4.67, 3.38), (6, 4.0, 3.14), (7, 4.67, 3.38)]
    ok = True
    for errors, rate, half in expected:
        r, hw = error_rate_ci(errors, 150)
        ok = ok and round(r * 100, 2) == rate and round(hw * 100, 2) == half
    _report(capsys, 7, "verification error-rate intervals exact", ok)


FROZEN_SCALES = {
    "magnitude_sonority": {
        "phonetic": (("ɑ", "ɔ", "u", "ɔ", "ʊ"), ("i", "ɪ", "e", "ε")),
        "semantic": {
            "en": (("big", "large", "huge"), ("small", "tiny", "little")),
            "es": (("grande", "enorme", "gigante"),
                   ("pequeño", "diminuto", "chico")),
            "hi": (("बड़ा", "विशाल", "विराट"), ("छोटा", "लघु", "सूक्ष्म")),
            "fi": (("suuri", "iso", "valtava"),
                   ("pieni", "pikkuinen", "vähäinen")),
            "tr": (("büyük", "kocaman", "iri"), ("küçük", "ufak", "minik")),
            "ta": (("பெரிய", "மாபெரும்"), ("சிறிய", "குட்டி")),
        },
    },
    "angularity_obstruency": {
        "phonetic": (("p", "t", "k", "tʃ"), ("m", "n", "l", "b", "d", "g")),
        "semantic": {
            "en": (("sharp", "pointed", "angular"),
                   ("round", "smooth", "curved")),
            "es": (("puntiagudo", "afilado", "angular"),
                   ("redondo", "suave", "curvo")),
            "hi": (("नुकीला", "तीखा"), ("गोल", "चिकना")),
            "fi": (("terävä", "kulmikas", "särmikäs"),
                   ("pyöreä", "sileä", "kaareva")),
            "tr": (("sivri", "keskin", "köşeli"),
                   ("yuvarlak", "pürüzsüz", "kavisli")),
            "ta": (("சூர்மையான", "முனையுள்ள"), ("வட்ட", "மென்மையான")),
        },
    },
    "fluidity_continuity": {
        "phonetic": (("l", "m", "n", "r", "f", "v", "s", "z"),
                     ("p", "t", "k", "b", "d", "g")),
        "semantic": {
            "en": (("flow", "drift", "glide"), ("stop", "jump", "snap")),
            "es": (("fluir", "flotar", "deslizar"),
                   ("parar", "saltar", "romper")),
            "hi": (("बहना", "तैरना"), ("रुकना", "कूदना")),
            "fi": (("virrata", "ajelehtia", "liukua"),
                   ("pysähtyä", "hypätä", "napsahtaa")),
            "tr": (("akmak", "sürüklenmek", "kaymak"),
                   ("durmak", "zıplamak", "çatlamak")),
            "ta": (("பாய்", "மிதந்து"), ("நிறுத்து", "தாவு")),
        },
    },
    "brightness_vowel_frontness": {
        "phonetic": (("i", "ɪ", "e", "ε"), ("u", "ʊ", "o", "ɔ")),
        "semantic": {
            "en": (("bright", "light", "glow"), ("dark", "dim", "shadow")),
            "es": (("brillante", "claro", "luminoso"),
                   ("oscuro", "tenue", "sombra")),
            "hi": (("उजला", "चमकदार"), ("अंधेरा", "मंद")),
            "fi": (("kirkas", "vaalea", "hohto"), ("tumma", "himmeä", "varjo")),
            "tr": (("parlak", "aydınlık", "ışıltı"),
                   ("karanlık", "loş", "gölge")),
            "ta": (("ஒளிர்", "பிரகாசமான"), ("இருண்ட", "மங்கலான")),
        },
    },
    "agility_phonological_lightness": {
        "phonetic": (("p", "t", "k", "f", "s", "ʃ", "i", "ɪ"),
                     ("b", "d", "g", "v", "z", "ʒ", "a", "ɑ")),
        "semantic": {
            "en": (("fast", "quick", "swift"), ("slow", "heavy", "lumbering")),
            "es": (("rápido", "veloz", "ligero"), ("lento", "pesado", "torpe")),
            "hi": (("तेज़", "जल्दी", "फुर्तीला"), ("धीमा", "भारी")),
            "fi": (("nopea", "pikainen", "vikkellä"),
                   ("hidas", "raskas", "kömpelö")),
            "tr": (("hızlı", "çabuk", "süratli"), ("yavaş", "ağır", "hantal")),
            "ta": (("வேகமான", "விரைவான"), ("மெதுவான", "கனமான")),
        },
    },
}


def test_08_shipped_reference_data_fidelity(capsys):
    scales = load_scale_configs(None)
    ok = [s.name for s in scales] == list(FROZEN_SCALES)
    for scale in scales:
        frozen = FROZEN_SCALES[scale.name]
        ok = ok and (scale.phonetic_pos, scale.phonetic_neg) == frozen["phonetic"]
        ok = ok and set(scale.semantic_pos) == set(frozen["semantic"])
        for lang, (pos, neg) in frozen["semantic"].items():
            ok = ok and scale.semantic_pos[lang] == pos
            ok = ok and scale.semantic_neg[lang] == neg
    for lang in LANGUAGE_NAMES:
        for example in load_example_set(lang):
            pairs = parse_response(example["output"])
            rendered = ",".join(f"({m},{t})" for m, t in pairs)
            ok = ok and pairs and parse_response(rendered) == pairs
    _report(capsys, 8, "shipped scales and segmentation examples intact", ok)


def test_09_byte_identical_reruns(capsys, tmp_path, planted_dir):
    _, paths = planted_dir
    lexicon = load_lexicon(paths["lexicon"])
    words = [lx.word for lx in lexicon][:4]
    scales_path = tmp_path / "scales.json"
    scales_path.write_text(json.dumps({"scales": {"demo": {
        "phonetic": {"pos": ["m", "n", "l"], "neg": ["p", "t", "k"]},
        "semantic": {"syn": {"pos": words[:2], "neg": words[2:4]}},
    }}}, ensure_ascii=False), encoding="utf-8")
    config = {
        "languages": ["syn"],
        "feature_table": str(paths["feature_table"]),
        "inputs": {"syn": {k: str(v) for k, v in paths.items()
                           if k != "feature_table"}},
        "output_dir": str(tmp_path / "results"),
        "scales": str(scales_path),
        "params": {"shuffles": 50, "null_points": 50,
                   "subspace_shuffles": 50, "subspace_null_points": 50,
                   "subspace_pool": 100, "n_components": 3},
        "seed": 12,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    runner = CliRunner()
    payloads = []
    for _ in range(2):
        for cmd in ("analyze-global", "analyze-subspace"):
            result = runner.invoke(main, [cmd, "--config", str(config_path)])
            assert result.exit_code == 0, result.output
        payloads.append((
            (tmp_path / "results" / "syn" / "global.json").read_bytes(),
            (tmp_path / "results" / "subspace.json").read_bytes(),
        ))
    _report(capsys, 9, "repeated analysis runs byte-identical",
            payloads[0] == payloads[1])


def test_10_subspace_geometry(capsys, small_language, feature_table):
    rng = np.random.default_rng(210)
    line = build_line(rng.normal(size=(3, 12)), rng.normal(size=(4, 12)))
    pts = rng.normal(size=(10_000, 12))
    t = project(pts, line)
    dist = perpendicular_distance(pts, line)
    lhs = dist ** 2 + t ** 2 * np.dot(line.direction, line.direction)
    rhs = np.sum((pts - line.origin) ** 2, axis=1)
    ok = bool(np.all(np.abs(lhs - rhs) <= 1e-9 * np.abs(rhs)))

    words, lexicon, vectors = small_language
    vocab = EmbeddingMatrix(tuple(words), vectors)
    segments = list(feature_table.vectors)

    def run(swap_semantic=False, swap_phonetic=False):
        sem = [(words[0], words[1]), (words[2], words[3])]
        phon = [(segments[0], segments[1]), (segments[2], segments[3])]
        if swap_semantic:
            sem.reverse()
        if swap_phonetic:
            phon.reverse()
        scale = ScaleConfig("demo", phon[0], phon[1],
                            {"en": sem[0]}, {"en": sem[1]})
        return scale_alignment(scale, "en", vocab, feature_table,
                               pool_candidates(vocab, lexicon, feature_table),
                               n_words=50, n_shuffles=40, null_points=40,
                               seed=5)

    base = run()
    ok = ok and run(swap_semantic=True).rho == -base.rho
    ok = ok and run(swap_phonetic=True).rho == -base.rho
    ok = ok and run(swap_semantic=True, swap_phonetic=True).rho == base.rho
    _report(capsys, 10, "projection geometry exact and swap-antisymmetric", ok)
