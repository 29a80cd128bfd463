"""Experiment harness: the fitted pipeline shared by every round and by
``train``, the multi-round driver, and per-class discriminative n-gram
reports. Metrics live in ``metrics``.

Round averaging is the arithmetic mean of per-round values over the rounds
where the value is defined; pooled-over-rounds metrics are also reported but
are secondary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import automl
from .corpus import (
    LABEL_TO_INDEX,
    LABELS,
    LabeledDataset,
    LabeledDocument,
    class_distribution,
    stratified_shuffle_splits,
)
from .features import SCHEMES, FeatureMatrix, smote_oversample, vectorize
from .metrics import ClassMetrics, confusion_matrix, per_class_prf, weighted_f1
from .ngrams import MAX_NGRAM_LEN, NGramDictionary, build_dictionary
from .preprocess import load_stoplist, preprocess


# ---------------------------------------------------------------------------
# experiment driver


@dataclass
class RunConfig:
    """Everything a run depends on; echoed verbatim into every report."""

    rounds: int = 10
    test_fraction: float = 0.1
    seed: int = 0
    use_stopwords: bool = True
    stoplist_path: str | None = None
    max_n: int = 10
    min_freq: int = 2
    scheme: str = "count_x_weight"
    smote: bool = True
    smote_k: int = 5
    folds: int = 5
    max_candidates: int | None = None
    budget_seconds: float | None = None
    ensemble_size: int = 10
    top_ngrams: int = 10

    def __post_init__(self) -> None:
        # checked here so a bad value fails before any document is processed
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.use_stopwords and self.stoplist_path is not None:
            raise ValueError("stoplist_path is set but use_stopwords is off: set one or the other")
        if self.stoplist_path is not None and not Path(self.stoplist_path).is_file():
            raise ValueError(f"stoplist_path {self.stoplist_path!r} is not a file")
        if not 0 < self.test_fraction < 1:
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if not 1 <= self.max_n <= MAX_NGRAM_LEN:
            raise ValueError(f"max_n must be in 1..{MAX_NGRAM_LEN}, got {self.max_n}")
        if self.min_freq < 1:
            raise ValueError(f"min_freq must be >= 1, got {self.min_freq}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.ensemble_size < 1:
            raise ValueError(f"ensemble_size must be >= 1, got {self.ensemble_size}")
        if self.top_ngrams < 0:
            raise ValueError(f"top_ngrams must be >= 0, got {self.top_ngrams}")
        if self.folds < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds}")
        if self.smote_k < 1:
            raise ValueError(f"smote_k must be >= 1, got {self.smote_k}")
        if self.max_candidates is not None and self.max_candidates < 1:
            raise ValueError(f"max_candidates must be >= 1, got {self.max_candidates}")
        if self.budget_seconds is not None and self.budget_seconds <= 0:
            raise ValueError(f"budget_seconds must be positive, got {self.budget_seconds}")
        if self.max_candidates is not None and self.budget_seconds is not None:
            raise ValueError("set max_candidates or budget_seconds, not both")

    def stoplist(self) -> frozenset[str] | None:
        """The stop words this run removes: None when removal is off."""
        return load_stoplist(self.stoplist_path) if self.use_stopwords else None

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class EvalReport:
    payload: dict = field(repr=False)

    def to_dict(self) -> dict:
        return self.payload

    def to_json(self) -> str:
        return json.dumps(self.payload, sort_keys=True, indent=2) + "\n"

    def render_table(self) -> str:
        return render_report(self.payload)


def _metrics_to_dict(metrics: Mapping[str, ClassMetrics]) -> dict:
    return {
        label: {
            "precision": m.precision,
            "recall": m.recall,
            "f1": m.f1,
            "support": m.support,
            "predicted": m.predicted,
            "defined": m.defined,
        }
        for label, m in metrics.items()
    }


def _feature_matrix(docs, tokens, dictionary: NGramDictionary, scheme: str) -> FeatureMatrix:
    return FeatureMatrix(
        X=vectorize(tokens, dictionary, scheme),
        y=np.asarray([LABEL_TO_INDEX[d.label] for d in docs], dtype=np.int64),
        fingerprint=dictionary.fingerprint,
        scheme=scheme,
    )


@dataclass
class FittedPipeline:
    """The method fitted on one set of labeled documents."""

    dictionary: NGramDictionary
    scheme: str
    stoplist: frozenset[str] | None
    training: FeatureMatrix  # after SMOTE when it is on; the ensemble was fit on it
    n_train: int  # training rows before SMOTE
    leaderboard: automl.Leaderboard
    selection: automl.EnsembleSelection
    ensemble: automl.TrainedEnsemble

    def featurize(self, docs: Sequence[LabeledDocument]) -> FeatureMatrix:
        """Preprocess and vectorize new documents in this pipeline's feature space."""
        tokens = [preprocess(d.text, self.stoplist) for d in docs]
        return _feature_matrix(docs, tokens, self.dictionary, self.scheme)


def fit_pipeline(
    docs: Sequence[LabeledDocument],
    cfg: RunConfig,
    seeds: np.random.SeedSequence,
) -> FittedPipeline:
    """Preprocess with ``cfg.stoplist()``, build the phrase dictionary, vectorize, optionally
    oversample, search, select and refit an ensemble, all on ``docs`` alone.

    ``seeds`` yields the SMOTE seed and the search seed, in that order.
    """
    smote_seed, search_seed = (int(s) for s in seeds.generate_state(2))
    stoplist = cfg.stoplist()
    tokens = [preprocess(d.text, stoplist) for d in docs]
    dictionary = build_dictionary(tokens, max_n=cfg.max_n, min_freq=cfg.min_freq)
    training = _feature_matrix(docs, tokens, dictionary, cfg.scheme)
    n_train = training.n_documents
    if cfg.smote:
        training = smote_oversample(training, k=cfg.smote_k, seed=smote_seed)
    leaderboard = automl.search(
        training,
        folds=cfg.folds,
        seed=search_seed,
        max_candidates=cfg.max_candidates,
        budget_seconds=cfg.budget_seconds,
    )
    selection = automl.ensemble_select(leaderboard, size=cfg.ensemble_size)
    return FittedPipeline(
        dictionary=dictionary,
        scheme=cfg.scheme,
        stoplist=stoplist,
        training=training,
        n_train=n_train,
        leaderboard=leaderboard,
        selection=selection,
        ensemble=automl.fit_final(selection, training),
    )


def run_experiment(ds: LabeledDataset, cfg: RunConfig) -> EvalReport:
    """Run the full pipeline over stratified rounds and aggregate a report.

    Per round: split, fit the pipeline on the training half only, vectorize
    the held-out half in its feature space, and score it. Nothing derived
    from test rows ever reaches the dictionary, the oversampler, or the
    models.
    """
    plan = stratified_shuffle_splits(
        ds, rounds=cfg.rounds, test_fraction=cfg.test_fraction, seed=cfg.seed
    )
    by_id = {doc.doc_id: doc for doc in ds.documents}
    round_seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.rounds)

    rounds_out = []
    pooled_true: list[int] = []
    pooled_pred: list[int] = []
    per_round_tops = []
    for r, (train_ids, test_ids) in enumerate(plan.rounds):
        fitted = fit_pipeline([by_id[i] for i in train_ids], cfg, round_seeds[r])
        dictionary, lb, selection = fitted.dictionary, fitted.leaderboard, fitted.selection
        fm_test = fitted.featurize([by_id[i] for i in test_ids])
        y_pred = fitted.ensemble.predict(fm_test)
        cm = confusion_matrix(fm_test.y, y_pred)
        metrics = per_class_prf(cm)
        tops = top_ngrams_per_class(fitted.ensemble, dictionary, cfg.top_ngrams, fitted.training)
        per_round_tops.append(tops)
        pooled_true.extend(fm_test.y.tolist())
        pooled_pred.extend(y_pred.tolist())

        rounds_out.append(
            {
                "round": r,
                "n_train": fitted.n_train,
                "n_train_oversampled": fitted.training.n_documents,
                "n_test": fm_test.n_documents,
                "dictionary_size": len(dictionary),
                "dictionary_fingerprint": dictionary.fingerprint,
                "confusion": cm.tolist(),
                "per_class": _metrics_to_dict(metrics),
                "weighted_f1": weighted_f1(metrics),
                "correct": int(np.trace(cm)),
                "candidates_evaluated": len(lb),
                "best_cv_score": lb.best().score,
                "oof_trajectory": selection.oof_trajectory,
                "ensemble": [
                    {
                        "kind": c.kind,
                        "hp": c.hp,
                        "multiplicity": m,
                        "cv_score": next(
                            e.score for e in lb.entries if e.config is c
                        ),
                    }
                    for c, m in selection.members
                ],
                "top_ngrams": tops,
            }
        )

    averaged = _average_rounds(rounds_out)
    pooled_cm = confusion_matrix(pooled_true, pooled_pred)
    pooled_metrics = per_class_prf(pooled_cm)
    payload = {
        "config": cfg.to_dict(),
        "dataset": {
            "name": ds.name,
            "n_documents": len(ds),
            "class_distribution": class_distribution(ds),
        },
        "rounds": rounds_out,
        "averaged": averaged,
        "pooled": {
            "confusion": pooled_cm.tolist(),
            "per_class": _metrics_to_dict(pooled_metrics),
            "weighted_f1": weighted_f1(pooled_metrics),
        },
        "top_ngrams": fuse_rankings(per_round_tops, cfg.top_ngrams),
    }
    return EvalReport(payload=payload)


def _average_rounds(rounds_out: list[dict]) -> dict:
    per_class = {}
    for label in LABELS:
        entries = [r["per_class"][label] for r in rounds_out]
        defined = [e for e in entries if e["defined"]]
        if defined:
            stats = {
                metric: float(np.mean([e[metric] for e in defined]))
                for metric in ("precision", "recall", "f1")
            }
        else:
            stats = {"precision": None, "recall": None, "f1": None}
        stats["support_mean"] = float(np.mean([e["support"] for e in entries]))
        stats["rounds_defined"] = len(defined)
        per_class[label] = stats
    correct = [r["correct"] for r in rounds_out]
    n_test = [r["n_test"] for r in rounds_out]
    return {
        "per_class": per_class,
        "weighted_f1_mean": float(np.mean([r["weighted_f1"] for r in rounds_out])),
        "correct_total": int(np.sum(correct)),
        "correct_mean": float(np.mean(correct)),
        "n_test_total": int(np.sum(n_test)),
        "dictionary_size_mean": float(np.mean([r["dictionary_size"] for r in rounds_out])),
    }


# ---------------------------------------------------------------------------
# discriminative n-grams


def top_ngrams_per_class(
    ensemble: automl.TrainedEnsemble, dictionary: NGramDictionary, k: int, training: FeatureMatrix
) -> dict[str, list[str]]:
    """Top-k most class-discriminative dictionary phrases per class.

    Each member model ranks phrases per class by its
    ``class_margins(training)`` (naive Bayes and linear models:
    one-vs-best-rest parameter margins; forests: permutation importance, each
    feature attributed to the majority true class among its nonzero training
    rows), and the members' rankings are fused by multiplicity-weighted Borda
    points. ``ensemble`` was fitted on ``training``, which was vectorized
    against ``dictionary``.
    """
    F = len(dictionary)
    if ensemble.fingerprint != dictionary.fingerprint:
        raise ValueError("ensemble was trained against a different dictionary")
    if training.fingerprint != dictionary.fingerprint:
        raise ValueError("training matrix was vectorized against a different dictionary")

    totals: dict[int, np.ndarray] = {}
    for member in ensemble.members:
        margins = member.model.class_margins(training)
        if margins is None:  # constant model: no discrimination signal
            continue
        for class_id, points in zip(member.model.classes_, _borda_points(margins)):
            bucket = totals.setdefault(int(class_id), np.zeros(F))
            bucket += member.multiplicity * points
    phrases = [" ".join(p) for p in dictionary.feature_order]
    out: dict[str, list[str]] = {}
    for i, label in enumerate(LABELS):
        points = totals.get(i)
        if points is None or k <= 0:
            out[label] = []
            continue
        ranked = sorted(
            (j for j in range(F) if points[j] > 0), key=lambda j: (-points[j], phrases[j])
        )
        out[label] = [phrases[j] for j in ranked[:k]]
    return out


def _borda_points(margins: np.ndarray) -> np.ndarray:
    """Per class row: in stable order of decreasing margin, the finite
    entries earn F, F-1, … points; non-finite entries (no evidence) earn 0."""
    F = margins.shape[1]
    order = np.argsort(-margins, axis=1, kind="stable")
    points = np.empty(margins.shape)
    np.put_along_axis(points, order, np.arange(F, 0, -1, dtype=float)[None, :], axis=1)
    points[~np.isfinite(margins)] = 0.0
    return points


def fuse_rankings(rankings: list[dict[str, list[str]]], k: int) -> dict[str, list[str]]:
    """Borda-fuse several per-class top lists (equal weights, ties by phrase)."""
    out: dict[str, list[str]] = {}
    for label in LABELS:
        points: dict[str, float] = {}
        for ranking in rankings:
            top = ranking.get(label, [])
            for pos, phrase in enumerate(top):
                points[phrase] = points.get(phrase, 0.0) + (len(top) - pos)
        ranked = sorted(points, key=lambda ph: (-points[ph], ph))
        out[label] = ranked[:k] if k >= 0 else ranked
    return out


# ---------------------------------------------------------------------------
# rendering


def _fmt(value, width=9) -> str:
    if value is None:
        return "-".rjust(width)
    return f"{value:.3f}".rjust(width)


def render_report(d: dict) -> str:
    """Human-readable table for a report dict (as produced by run_experiment)."""
    cfg = d["config"]
    ds = d["dataset"]
    avg = d["averaged"]
    dist = ds["class_distribution"]
    lines = []
    lines.append(
        f"dataset: {ds['name']}  ({ds['n_documents']} documents; "
        + " / ".join(f"{label} {dist[label]}" for label in LABELS)
        + ")"
    )
    budget = (
        f"max candidates {cfg['max_candidates']}"
        if cfg.get("max_candidates") is not None
        else f"budget {cfg.get('budget_seconds') or automl.DEFAULT_BUDGET_SECONDS:g}s"
    )
    lines.append(
        f"rounds: {cfg['rounds']}  test fraction: {cfg['test_fraction']:g}  "
        f"seed: {cfg['seed']}  search: {budget}, {cfg['folds']} folds  "
        f"ensemble: {cfg['ensemble_size']}  smote: {'on' if cfg['smote'] else 'off'}"
    )
    lines.append(f"dictionary: {avg['dictionary_size_mean']:.1f} phrases/round (mean)")
    lines.append("")
    lines.append("per-class metrics, averaged over rounds (- = class absent):")
    header = f"  {'class':<10}{'precision':>10}{'recall':>10}{'f1':>10}{'support':>10}"
    lines.append(header)
    for label in LABELS:
        row = avg["per_class"][label]
        lines.append(
            f"  {label:<10}"
            f"{_fmt(row['precision'], 10)}{_fmt(row['recall'], 10)}{_fmt(row['f1'], 10)}"
            f"{row['support_mean']:>10.1f}"
        )
    lines.append("")
    lines.append(f"weighted F1 (mean over rounds): {avg['weighted_f1_mean']:.3f}")
    lines.append(
        f"correct predictions: {avg['correct_total']} of {avg['n_test_total']} "
        f"pooled over rounds ({avg['correct_mean']:.1f}/round)"
    )
    lines.append(f"weighted F1 (pooled, secondary): {d['pooled']['weighted_f1']:.3f}")
    lines.append("")
    lines.append("per round:")
    lines.append(f"  {'round':>5}{'test':>6}{'correct':>9}{'wF1':>8}{'best cv':>9}")
    for r in d["rounds"]:
        lines.append(
            f"  {r['round']:>5}{r['n_test']:>6}{r['correct']:>9}"
            f"{r['weighted_f1']:>8.3f}{r['best_cv_score']:>9.3f}"
        )
    lines.append("")
    lines.append("top discriminative n-grams (fused over rounds):")
    for label in LABELS:
        tops = d["top_ngrams"].get(label, [])
        lines.append(f"  {label}: " + (" | ".join(tops) if tops else "-"))
    return "\n".join(lines) + "\n"
