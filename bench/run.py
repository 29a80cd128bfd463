"""sentigram benchmark: one workload per process, outputs checked on every run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ``src/`` next to
this directory. Each run sets its workload up from the seed (several times,
reporting the median), repeats ``run_experiment`` with a fixed configuration,
then scores held-out documents one at a time (a closed loop with one client)
and as whole batches. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
describes the environment and the sample counts.

Each phase has a share of ``--seconds`` and a minimum amount of work: at
least one evaluation, ``MIN_REQUESTS`` requests (at least two windows for
the tail latency, below) and ``MIN_BATCH_PASSES`` batches over the ``STREAM_DOCS`` stream.
The phases take turns in short steps, so each one samples the whole run:
the host's speed drifts by tens of percent over tens of seconds. The tail
latency is the median of the p99s of windows of ``TAIL_WINDOW`` requests,
so one stall does not set it.

``--trace 0`` reports the end-to-end metrics, measured with nothing wrapped
but two capture points. ``--trace 1`` does a fixed amount of work (one
set-up, one untraced and one traced evaluation, then the minimum requests
and batches), wraps every layer boundary, reports the
per-layer metrics and writes the spans plus a per-candidate table to
``.bench_out/<workload>-seed<N>.trace.json``.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy is first imported.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
FINGERPRINTS = BENCH_DIR / "fingerprints.json"

sys.path.insert(0, str(SRC))

from tracing import Tracer  # noqa: E402
from workloads import PLANTED_TOKEN, planted_documents, se_like_documents  # noqa: E402

try:
    import sentigram
    from sentigram import automl, evaluation, features, learners, ngrams

    # the package re-exports a function named preprocess over the submodule
    prep = importlib.import_module("sentigram.preprocess")
    from sentigram.corpus import LABEL_TO_INDEX, LABELS, LabeledDataset, LabeledDocument
except ImportError as exc:  # no package source next to the benchmark
    sentigram = None
    _IMPORT_ERROR = exc

STREAM_DOCS = 1000
MIN_REQUESTS = 2000
REQUEST_BLOCK_S = 0.5  # seconds of requests per turn
MIN_BATCH_PASSES = 5
TAIL_WINDOW = 1000  # requests per window of the tail-latency median
KINDS = ("multinomial_nb", "logistic_regression", "linear_svm", "random_forest")


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Setup:
    seed: int
    dataset: "LabeledDataset"
    cfg: "evaluation.RunConfig"
    stream: list  # (text, label) pairs scored by the request loop and the batches
    stoplist: object = None
    dictionary: object = None  # given: predict with this instead of the evaluation's
    ensemble: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Setup]
    setup_reps: int  # set-ups per run; setup_s is their median
    # shares of --seconds for repeating run_experiment, single-document
    # requests and whole-stream batches; each phase also has its minimum work
    eval_share: float
    request_share: float
    batch_share: float
    check: Callable | None = None  # extra per-round checks -> list of problems


def _dataset(name, pairs):
    docs = tuple(LabeledDocument(doc_id=i, text=t, label=lab) for i, (t, lab) in enumerate(pairs))
    return LabeledDataset(name=name, documents=docs)


def _stream_seed(seed):
    return np.random.SeedSequence([seed, 1])


def _disjoint(train, stream):
    texts = {t for t, _ in train}
    if any(t in texts for t, _ in stream):
        raise RuntimeError("stream documents overlap the training corpus")
    return stream


def setup_search_planted(seed):
    """The end-to-end acceptance configuration, one round per run_experiment call."""
    cfg = evaluation.RunConfig(
        rounds=1, test_fraction=0.1, seed=2026, use_stopwords=False, max_n=2, min_freq=2,
        smote=True, smote_k=5, folds=5, max_candidates=20, ensemble_size=10, top_ngrams=10,
    )
    n = STREAM_DOCS
    return Setup(
        seed=seed,
        dataset=_dataset("planted-600", planted_documents((300, 200, 100), seed)),
        cfg=cfg,
        stream=planted_documents((n // 3, n // 3, n - 2 * (n // 3)), _stream_seed(seed)),
    )


def _se_config():
    return evaluation.RunConfig(
        rounds=1, test_fraction=0.1, seed=7, use_stopwords=True, max_n=10, min_freq=2,
        smote=True, smote_k=5, folds=5, max_candidates=1, ensemble_size=10, top_ngrams=10,
    )


def setup_features_wide(seed):
    train = se_like_documents(4000, seed)
    stream = se_like_documents(STREAM_DOCS, _stream_seed(seed))
    return Setup(
        seed=seed,
        dataset=_dataset("se-like-4000", train),
        cfg=_se_config(),
        stream=_disjoint(train, stream),
        stoplist=prep.load_stoplist(),
    )


def setup_predict_stream(seed):
    """1500 documents, the four default learners refit without search."""
    train = se_like_documents(1500, seed)
    stream = se_like_documents(STREAM_DOCS, _stream_seed(seed))
    # a 450-document test half keeps weighted F1 steady across seeds
    cfg = replace(_se_config(), test_fraction=0.3)
    stoplist = prep.load_stoplist()
    tokens = [prep.preprocess(text, stoplist) for text, _ in train]
    dictionary = ngrams.build_dictionary(tokens, max_n=cfg.max_n, min_freq=cfg.min_freq)
    fm = features.FeatureMatrix(
        X=features.vectorize(tokens, dictionary, cfg.scheme),
        y=np.asarray([LABEL_TO_INDEX[label] for _, label in train], dtype=np.int64),
        fingerprint=dictionary.fingerprint,
        scheme=cfg.scheme,
    )
    selection = automl.EnsembleSelection(
        members=[
            (automl.CandidateConfig(kind=kind, hp=learners.default_hp(kind), seed=i), 1)
            for i, kind in enumerate(KINDS)
        ],
        oof_trajectory=[],
        fingerprint=dictionary.fingerprint,
    )
    return Setup(
        seed=seed,
        dataset=_dataset("se-like-1500", train),
        cfg=cfg,
        stream=_disjoint(train, stream),
        stoplist=stoplist,
        dictionary=dictionary,
        ensemble=automl.fit_final(selection, fm),
    )


def check_search_planted(setup, payload, dictionary):
    problems = []
    score = payload["averaged"]["weighted_f1_mean"]
    if score < 0.90:
        problems.append(f"averaged weighted F1 {score:.3f} below 0.90")
    for label in LABELS:
        top = payload["top_ngrams"][label]
        if not top or top[0] != PLANTED_TOKEN[label]:
            problems.append(f"{label}: expected {PLANTED_TOKEN[label]!r} first, got {top[:3]}")
    return problems


def check_features_wide(setup, payload, dictionary):
    recorded = _recorded_fingerprints().get(str(setup.seed))
    if recorded is None:
        return []
    actual = stats_fingerprint(dictionary)
    if actual != recorded:
        return [f"dictionary statistics fingerprint {actual} != recorded {recorded}"]
    return []


WORKLOADS = {
    w.name: w
    for w in (
        # its one evaluation (about 34 s) outlasts the run, so only the
        # inference phases that follow it get shares
        Workload("search-planted", setup_search_planted, setup_reps=25,
                 eval_share=0.0, request_share=0.35, batch_share=0.35, check=check_search_planted),
        Workload("features-wide", setup_features_wide, setup_reps=9,
                 eval_share=0.4, request_share=0.3, batch_share=0.15, check=check_features_wide),
        # MIN_REQUESTS at about 17 ms each outlast its request share; a set-up
        # fits four learners (about 7 s), so two are timed, to keep the run short
        Workload("predict-stream", setup_predict_stream, setup_reps=2,
                 eval_share=0.1, request_share=0.75, batch_share=0.15),
    )
}


# ---------------------------------------------------------------------------
# correctness checks shared by every round


def stats_fingerprint(dictionary) -> str:
    """Digest of the dictionary's integer statistics (not of its float weights)."""
    digest = hashlib.sha256(
        f"max_n={dictionary.max_n};min_freq={dictionary.min_freq};"
        f"N={dictionary.corpus_size}\n".encode()
    )
    for phrase in sorted(dictionary.entries):
        e = dictionary.entries[phrase]
        digest.update(f"{' '.join(phrase)}\t{e.freq}\t{e.df_phrase}\t{e.df_terms}\n".encode())
    return digest.hexdigest()[:16]


def _recorded_fingerprints() -> dict:
    if not FINGERPRINTS.exists():
        return {}
    return json.loads(FINGERPRINTS.read_text(encoding="utf-8"))["features-wide"]


def _count_overlapping(haystack: str, needle: str) -> int:
    count, at = 0, haystack.find(needle)
    while at >= 0:
        count += 1
        at = haystack.find(needle, at + 1)
    return count


def dictionary_problems(dictionary, train_tokens, sample=64) -> list[str]:
    """Brute-force recount: the 1- to 3-gram inventory and a sample of entries."""
    docs = [" " + " ".join(tokens) + " " for tokens in train_tokens]
    token_sets = [set(tokens) for tokens in train_tokens]
    n = len(docs)
    problems = []
    if dictionary.corpus_size != n:
        problems.append(f"dictionary corpus size {dictionary.corpus_size} != {n} documents")
    for size in range(1, min(3, dictionary.max_n) + 1):
        grams = Counter(
            tuple(tokens[i : i + size]) for tokens in train_tokens
            for i in range(len(tokens) - size + 1)
        )
        expected = sum(1 for c in grams.values() if c >= dictionary.min_freq)
        actual = sum(1 for p in dictionary.entries if len(p) == size)
        if actual != expected:
            problems.append(f"{actual} {size}-gram entries, brute force finds {expected}")
    order = dictionary.feature_order
    rng = np.random.default_rng(len(order))
    for j in sorted(rng.choice(len(order), size=min(sample, len(order)), replace=False)):
        phrase = order[j]
        needle = " " + " ".join(phrase) + " "
        per_doc = [_count_overlapping(d, needle) for d in docs]
        freq, dfp = sum(per_doc), sum(1 for c in per_doc if c)
        dft = sum(1 for s in token_sets if all(t in s for t in phrase))
        e = dictionary.entries[phrase]
        weight = math.log(n * dfp / (dft * dft)) if dfp else float("nan")
        if (e.freq, e.df_phrase, e.df_terms) != (freq, dfp, dft) or abs(e.weight - weight) > 1e-9:
            problems.append(
                f"{' '.join(phrase)!r}: (freq, df_phrase, df_terms, weight) = "
                f"{(e.freq, e.df_phrase, e.df_terms, e.weight)} != {(freq, dfp, dft, weight)}"
            )
    return problems


def round_problems(workload, setup, payload, captured) -> list[str]:
    args, dictionary = captured
    problems = []
    for r in payload["rounds"]:
        if r["candidates_evaluated"] != setup.cfg.max_candidates:
            problems.append(f"round {r['round']}: {r['candidates_evaluated']} candidates")
    if payload["rounds"][-1]["dictionary_fingerprint"] != dictionary.fingerprint:
        problems.append("captured dictionary is not the one the round used")
    problems += dictionary_problems(dictionary, args[0])
    if workload.check is not None:
        problems += workload.check(setup, payload, dictionary)
    return problems


# ---------------------------------------------------------------------------
# the run


class Run:
    """A workload's operations, each counted and checked as it completes.

    An operation is an evaluation round, a single-document request or a
    batch pass; it fails when it raises or fails its correctness check.
    """

    def __init__(self, workload: Workload, tracer: Tracer, setup: Setup):
        self.workload, self.tracer, self.setup = workload, tracer, setup
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.eval_times: list[float] = []
        self.latencies: list[float] = []
        self.batch_times: list[float] = []
        self.f1 = None
        self._texts = [text for text, _ in setup.stream]
        self._singles: list[int] = []  # first label per stream document
        self._batch_labels = None
        self._predict = None

    def op(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])

    def evaluate(self) -> bool:
        """One timed run_experiment call; False if it raised."""
        cfg = self.setup.cfg
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if cfg.max_candidates < len(KINDS):  # the expected partial-leaderboard notice
                warnings.filterwarnings("ignore", "budget allowed only", RuntimeWarning)
            with self.tracer.context(f"round-{len(self.eval_times)}"):
                started = time.perf_counter()
                try:
                    report = evaluation.run_experiment(self.setup.dataset, cfg)
                except Exception:
                    self.op([traceback.format_exc(limit=3)])
                    return False
                self.eval_times.append(time.perf_counter() - started)
        payload = report.payload
        self.f1 = payload["averaged"]["weighted_f1_mean"]
        captured = self.tracer.last["ngrams.build"]
        self.op(round_problems(self.workload, self.setup, payload, captured))
        if self._predict is None:
            self._predict = self._predictor()
        return True

    def _predictor(self):
        setup = self.setup
        dictionary = setup.dictionary or self.tracer.last["ngrams.build"][1]
        ensemble = setup.ensemble or self.tracer.last["automl.fit_final"][1]
        scheme = setup.cfg.scheme

        def predict(texts):
            tokens = [prep.preprocess(text, setup.stoplist) for text in texts]
            fm = features.FeatureMatrix(
                X=features.vectorize(tokens, dictionary, scheme),
                y=None,
                fingerprint=dictionary.fingerprint,
                scheme=scheme,
            )
            return ensemble.predict(fm)

        return predict

    def requests(self, seconds: float, limit: int | None = None) -> bool:
        """A closed loop of single-document requests, cycling the stream, for
        ``seconds`` or until ``limit`` requests have been made in all.

        One untimed request first: the phase before this block (an evaluation
        or a batch) evicts the request path from the CPU caches, a cost a
        serving process without the benchmark's interleaving would not pay.
        """
        with self.tracer.context("warm-up", "predict.warm_up"):
            self._predict([self._texts[len(self.latencies) % len(self._texts)]])
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline and len(self.latencies) != limit:
            i = len(self.latencies)
            with self.tracer.context(f"req-{i}", "predict.request"):
                started = time.perf_counter()
                label = int(self._predict([self._texts[i % len(self._texts)]])[0])
                self.latencies.append(time.perf_counter() - started)
            if i < len(self._texts):
                self._singles.append(label)  # checked against the batch labels in finish()
            else:
                same = label == self._singles[i % len(self._texts)]
                self.op([] if same else [f"request {i}: label changed on a repeated document"])
        return True

    def batch(self) -> bool:
        """Score the whole stream at once."""
        with self.tracer.context(f"batch-{len(self.batch_times)}", "predict.batch"):
            started = time.perf_counter()
            labels = self._predict(self._texts).tolist()
            self.batch_times.append(time.perf_counter() - started)
        if self._batch_labels is None:
            self._batch_labels = labels
        problem = f"batch {len(self.batch_times)} disagrees"
        self.op([] if labels == self._batch_labels else [problem])
        return True

    def finish(self):
        for i, (single, batch) in enumerate(zip(self._singles, self._batch_labels)):
            self.op([] if single == batch else [f"request {i}: single {single} != batch {batch}"])


def tail(latencies):
    """(value, percentile): p99, or the highest rank with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(1, min(math.ceil(0.99 * n), n - 10))
    return ordered[rank - 1], 100.0 * rank / n


def windowed_tail(latencies):
    """(value, percentile, windows): the median over consecutive windows of
    ``TAIL_WINDOW`` requests of each window's tail; one window if there are
    fewer than two. A stall of a few seconds then moves one window's tail,
    not the whole run's."""
    count = max(1, len(latencies) // TAIL_WINDOW)
    size = len(latencies) // count
    tails = [tail(latencies[i * size : (i + 1) * size]) for i in range(count)]
    return statistics.median(v for v, _ in tails), tails[0][1], count


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except Exception:  # the build-info layout differs across numpy versions
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in _BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


CAPTURE_TARGETS = [
    ("evaluation", "build_dictionary", "ngrams.build"),
    ("automl", "fit_final", "automl.fit_final"),
]


def measure(workload: Workload, seed: int, seconds: float):
    tracer = Tracer()
    tracer.install(_resolve(CAPTURE_TARGETS))
    started = time.perf_counter()
    setup = workload.setup(seed)
    setup_times = [time.perf_counter() - started]

    def setup_again():
        """A repeat that is only timed; the run keeps the first set-up."""
        started = time.perf_counter()
        workload.setup(seed)
        setup_times.append(time.perf_counter() - started)
        return True

    run = Run(workload, tracer, setup)
    # (share of --seconds, minimum count, count so far, one step). A phase is
    # done when it has both its share of time and its minimum count; the
    # least advanced phase goes next, so the phases interleave to the end.
    # The set-up repeats are a phase too, so setup_s samples the whole run
    # rather than its first second.
    phases = [
        (workload.eval_share, 1, lambda: len(run.eval_times), run.evaluate),
        (workload.request_share, MIN_REQUESTS, lambda: len(run.latencies),
         lambda: run.requests(REQUEST_BLOCK_S)),
        (workload.batch_share, MIN_BATCH_PASSES, lambda: len(run.batch_times), run.batch),
        (0.0, workload.setup_reps, lambda: len(setup_times), setup_again),
    ]
    spent = [0.0] * len(phases)

    def progress(i):
        share, minimum, count, _ = phases[i]
        return min(count() / minimum, spent[i] / (share * seconds) if share else 1.0)

    while True:
        due = [i for i in range(len(phases)) if progress(i) < 1.0]
        if not due:
            break
        i = min(due, key=progress)
        started = time.perf_counter()
        if not phases[i][3]():
            break
        spent[i] += time.perf_counter() - started
    tracer.uninstall()
    if not run.eval_times or len(run.latencies) < MIN_REQUESTS:
        return run, None, {}
    run.finish()
    latencies = run.latencies
    p99, pct, windows = windowed_tail(latencies)
    # evaluations and batches are means over the run (total work / total
    # time): steadier than a median when the host's speed shifts mid-run
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "evaluate_s": (statistics.fmean(run.eval_times), "s"),
        "weighted_f1": (run.f1, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "predict_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "predict_p99_ms": (1e3 * p99, "ms"),
        "predict_batch_docs_per_s": (
            len(setup.stream) * len(run.batch_times) / sum(run.batch_times), "1/s"),
    }
    info = {
        "setups": len(setup_times),
        "evaluate_calls": len(run.eval_times),
        "requests": len(latencies),
        "predict_p99_ms_percentile": pct,
        "predict_p99_ms_windows": windows,
        "batch_passes": len(run.batch_times),
        "batch_docs": len(setup.stream),
    }
    return run, metrics, info


# ---------------------------------------------------------------------------
# traced run

TRACE_TARGETS = CAPTURE_TARGETS + [
    ("evaluation", "run_experiment", "evaluation.run_experiment"),
    ("evaluation", "preprocess", "preprocess"),
    ("prep", "preprocess", "preprocess"),
    ("ngrams", "build_dictionary", "ngrams.build"),
    ("evaluation", "vectorize", "features.vectorize"),
    ("features", "vectorize", "features.vectorize"),
    ("evaluation", "smote_oversample", "features.smote"),
    ("evaluation", "top_ngrams_per_class", "evaluation.top_ngrams"),
    ("automl", "search", "automl.search"),
    ("automl", "evaluate_candidate", "automl.candidate"),
    ("automl", "ensemble_select", "automl.ensemble_select"),
    ("automl", "train", "learners.fit"),
    ("automl.TrainedEnsemble", "predict", "ensemble.predict"),
    ("learners.MultinomialNB", "predict_scores", "learners.predict"),
    ("learners.SoftmaxRegression", "predict_scores", "learners.predict"),
    ("learners.LinearSVMOvR", "predict_scores", "learners.predict"),
    ("learners.RandomForest", "predict_scores", "learners.predict"),
]


def _resolve(targets):
    modules = {
        "evaluation": evaluation, "automl": automl, "features": features,
        "ngrams": ngrams, "prep": prep, "learners": learners,
    }
    out = []
    for owner, attr, name in targets:
        head, _, cls = owner.partition(".")
        obj = modules[head]
        out.append((getattr(obj, cls) if cls else obj, attr, name))
    return out


def _hook_vectorize(span, args, kwargs, X):
    span.attrs.update(rows=X.shape[0], nnz=int(X.nnz))


def _hook_build(span, args, kwargs, dictionary):
    span.attrs["phrases"] = len(dictionary)


def _hook_smote(span, args, kwargs, out):
    fm = args[0]
    counts = np.bincount(fm.y)
    minority_rows = int(counts[(counts > 0) & (counts < counts.max())].sum())
    span.attrs.update(
        rows_added=out.n_documents - fm.n_documents,
        dense_mb=minority_rows * fm.n_features * 8 / 2**20,
    )


def _hook_candidate(span, args, kwargs, result):
    config = args[0]
    span.attrs.update(kind=config.kind, hp=config.hp, seed=config.seed, score=float(result[0]))


def _hook_select(span, args, kwargs, selection):
    span.attrs["distinct_members"] = len(selection.members)


def _hook_fit(span, args, kwargs, model):
    span.attrs["kind"] = model.kind
    history = getattr(model, "loss_history_", None)
    if history is not None:
        span.attrs.update(epochs=len(history) - 1, epoch_cap=model.hp["epochs"])
    trees = getattr(model, "trees_", None)
    if trees is not None:
        span.attrs["nodes"] = sum(len(t.feature) for t in trees)


def _hook_predict_scores(span, args, kwargs, result):
    span.attrs["kind"] = args[0].kind


HOOKS = {
    "features.vectorize": _hook_vectorize,
    "ngrams.build": _hook_build,
    "features.smote": _hook_smote,
    "automl.candidate": _hook_candidate,
    "automl.ensemble_select": _hook_select,
    "learners.fit": _hook_fit,
    "learners.predict": _hook_predict_scores,
}

# Which end-to-end metric each per-layer metric should move, and on which workload.
LAYER_TABLE = {
    "preprocess.s / preprocess.docs": "predict_p50_ms on predict-stream",
    "ngrams.build_s / ngrams.phrases": "evaluate_s on features-wide (about 60% of a round); "
    "not search-planted",
    "features.vectorize_s / features.nnz": "predict_batch_docs_per_s",
    "features.smote_s / smote_rows_added / smote_dense_mb (computed)": "evaluate_s and "
    "peak_rss_mb on features-wide",
    "learners.fit_s.random_forest / linear kinds": "evaluate_s on search-planted; not "
    "features-wide (a _bin_columns cache should lower fit_s.random_forest and show in "
    "peak_rss_mb)",
    "learners.predict_s.random_forest": "predict_p50_ms and predict_p99_ms",
    "automl.candidate_max_share": "bounds what parallel candidate evaluation can save on "
    "search-planted",
    "automl.selected_share": "useful-work ratio of the search",
    "evaluation.top_ngrams_s": "evaluate_s on search-planted (forest permutation importance)",
}


def traced(workload: Workload, seed: int, seconds: float):
    """Fixed work: a traced set-up, an untraced then a traced evaluation, and
    the minimum requests and batches, traced."""
    tracer = Tracer()
    tracer.install(_resolve(TRACE_TARGETS), HOOKS)
    tracer.recording = True
    with tracer.context("setup", "bench.setup"):
        setup = workload.setup(seed)
    tracer.recording = False
    tracer.uninstall()

    run = Run(workload, tracer, setup)
    tracer.install(_resolve(CAPTURE_TARGETS))
    ok = run.evaluate()
    tracer.uninstall()
    tracer.install(_resolve(TRACE_TARGETS), HOOKS)
    tracer.recording = True
    ok = ok and run.evaluate()
    if ok:
        run.requests(float("inf"), limit=MIN_REQUESTS)
        for _ in range(MIN_BATCH_PASSES):
            run.batch()
    tracer.recording = False
    tracer.uninstall()
    if not ok:
        return run, None, {}
    run.finish()
    untraced, traced_s = run.eval_times
    metrics, report = layer_metrics(tracer)
    metrics["trace.evaluate_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced, "s")
    report.update(untraced_evaluate_s=untraced, traced_evaluate_s=traced_s)
    return run, metrics, report


def layer_metrics(tracer: Tracer):
    spans = tracer.spans
    self_s = tracer.self_seconds()

    def named(name, kind=None, ctx_prefix=None):
        return [
            i for i, s in enumerate(spans)
            if s.name == name
            and (kind is None or s.attrs.get("kind") == kind)
            and (ctx_prefix is None or s.ctx.startswith(ctx_prefix))
        ]

    def self_total(name, **kw):
        return sum(self_s[i] for i in named(name, **kw))

    def wall_total(name, **kw):
        return sum(spans[i].seconds for i in named(name, **kw))

    def attr_total(name, key):
        return sum(spans[i].attrs.get(key, 0) for i in named(name))

    candidates = [spans[i] for i in named("automl.candidate")]
    cand_s = [c.seconds for c in candidates]
    search_s = wall_total("automl.search")
    epochs = attr_total("learners.fit", "epochs")
    cap = attr_total("learners.fit", "epoch_cap")
    m = {
        "preprocess.s": (self_total("preprocess"), "s"),
        "preprocess.docs": (len(named("preprocess")), "count"),
        "ngrams.build_s": (self_total("ngrams.build"), "s"),
        "ngrams.phrases": (attr_total("ngrams.build", "phrases"), "count"),
        "features.vectorize_s": (self_total("features.vectorize"), "s"),
        "features.nnz": (attr_total("features.vectorize", "nnz"), "count"),
        "features.smote_s": (self_total("features.smote"), "s"),
        "features.smote_rows_added": (attr_total("features.smote", "rows_added"), "count"),
        "features.smote_dense_mb": (attr_total("features.smote", "dense_mb"), "MB"),
    }
    for kind in KINDS:
        m[f"learners.fit_s.{kind}"] = (self_total("learners.fit", kind=kind), "s")
        m[f"learners.fit_calls.{kind}"] = (len(named("learners.fit", kind=kind)), "count")
        m[f"learners.predict_s.{kind}"] = (self_total("learners.predict", kind=kind), "s")
    m.update(
        {
            "learners.linear_epochs_share": (epochs / cap if cap else 0.0, "ratio"),
            "learners.forest_nodes": (attr_total("learners.fit", "nodes"), "count"),
            "automl.search_s": (search_s, "s"),
            "automl.candidates": (len(candidates), "count"),
            "automl.candidate_s.p50": (statistics.median(cand_s) if cand_s else 0.0, "s"),
            "automl.candidate_s.max": (max(cand_s, default=0.0), "s"),
            "automl.candidate_max_share": (
                max(cand_s, default=0.0) / search_s if search_s else 0.0, "ratio"),
            "automl.selected_share": (
                attr_total("automl.ensemble_select", "distinct_members") / len(candidates)
                if candidates else 0.0, "ratio"),
            "automl.ensemble_select_s": (wall_total("automl.ensemble_select"), "s"),
            "automl.fit_final_s": (wall_total("automl.fit_final"), "s"),
            "evaluation.top_ngrams_s": (self_total("evaluation.top_ngrams"), "s"),
            "evaluation.predict_s": (wall_total("ensemble.predict", ctx_prefix="round-"), "s"),
            "evaluation.self_s": (self_total("evaluation.run_experiment"), "s"),
        }
    )

    by_layer: dict[str, float] = {}
    for span, s in zip(spans, self_s):
        key = span.name + (f".{span.attrs['kind']}" if "kind" in span.attrs else "")
        by_layer[key] = by_layer.get(key, 0.0) + s
    roots = [s for s in spans if s.parent is None]
    round_wall = sum(s.seconds for s in roots if s.ctx.startswith("round-"))
    round_self = sum(x for s, x in zip(spans, self_s) if s.ctx.startswith("round-"))
    report = {
        "self_seconds_by_layer": dict(sorted(by_layer.items(), key=lambda kv: -kv[1])),
        "roots_wall_s": sum(s.seconds for s in roots),
        "self_seconds_total": sum(self_s),
        "evaluate_wall_s": round_wall,
        "evaluate_self_seconds_total": round_self,
        "candidates": [
            {
                "kind": c.attrs["kind"],
                "hp": c.attrs["hp"],
                "seed": c.attrs["seed"],
                "seconds": c.seconds,
                "oof_score": c.attrs["score"],
            }
            for c in candidates
        ],
        "layer_table": LAYER_TABLE,
        "spans": tracer.to_records(),
    }
    return m, report


def candidate_table(rows) -> str:
    lines = [f"{'#':>3} {'kind':<20} {'seconds':>8} {'oof':>6} {'seed':>11}  hp"]
    for i, r in enumerate(rows):
        hp = json.dumps(r["hp"], sort_keys=True)
        lines.append(
            f"{i:>3} {r['kind']:<20} {r['seconds']:>8.3f} {r['oof_score']:>6.3f} "
            f"{r['seed']:>11}  {hp}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sentigram is None:
        print(f"error: cannot import sentigram from {SRC}: {_IMPORT_ERROR}", file=sys.stderr)
        return 2
    if not Path(sentigram.__file__).resolve().is_relative_to(SRC):
        print(f"error: sentigram resolved to {sentigram.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    run_fn = traced if args.trace else measure
    run, metrics, extra = run_fn(workload, args.seed, args.seconds)
    if metrics is None:
        print("error: the evaluation raised:\n" + "\n".join(run.problems), file=sys.stderr)
        return 1
    for problem in run.problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)

    info = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
    }
    info["failed_share"] = run.failed / run.attempted
    if workload.check is check_features_wide:
        info["dictionary_fingerprint_recorded"] = str(args.seed) in _recorded_fingerprints()
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{workload.name}-seed{args.seed}.trace.json"
        path.write_text(json.dumps({**info, **extra}, indent=1) + "\n", encoding="utf-8")
        print(candidate_table(extra["candidates"]), file=sys.stderr)
        info["trace_file"] = str(path.relative_to(ROOT))
        info["accounted"] = {
            k: extra[k]
            for k in ("evaluate_wall_s", "evaluate_self_seconds_total",
                      "untraced_evaluate_s", "traced_evaluate_s")
        }
    else:
        info.update(extra)
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
