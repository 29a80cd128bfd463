"""Budget-limited random model search plus greedy forward ensemble selection.

The search evaluates a deterministic candidate sequence (given a seed): first
one default-hyperparameter candidate per learner kind, then uniformly sampled
(kind, hyperparameters) draws. Each candidate is scored by stratified k-fold
cross-validation inside the training matrix; the pooled out-of-fold (oof)
weighted F1 is the selection metric, and the per-row oof class scores are
archived so ensembles can be evaluated without retraining.

Budgets come in two forms: ``max_candidates`` caps the candidate count and is
exactly reproducible; ``budget_seconds`` stops after a wall-clock allowance
(the candidate sequence is still deterministic, only the cutoff point moves).

Candidates are cross-validated in parallel on every usable CPU, in processes
forked from the caller. A candidate's result depends only on its configuration
and the shared training matrix, so the leaderboard does not depend on the
worker count.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import sys
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .corpus import LABELS
from .features import FeatureMatrix
from .learners import (
    KINDS,
    TrainedModel,
    default_hp,
    model_from_dict,
    model_to_dict,
    sample_hp,
    train,
    validate_hp,
)
from .metrics import weighted_f1_labels

_ENSEMBLE_FORMAT = "sentigram-ensemble/1"
# wall-clock search allowance when neither budget is given
DEFAULT_BUDGET_SECONDS = 60.0
# the classes_ of a model that observed every label: its scores are summed in place
_EVERY_LABEL = list(range(len(LABELS)))


@dataclass(frozen=True)
class CandidateConfig:
    kind: str
    hp: dict = field(hash=False)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hp", validate_hp(self.kind, self.hp))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "hp": self.hp, "seed": self.seed}


def fold_assignments(y: np.ndarray, folds: int, seed: int = 0) -> np.ndarray:
    """Stratified fold ids: each class's rows are shuffled and dealt round-robin.

    Depends only on the label sequence, fold count, and seed — not on feature
    values — so every candidate in a search shares the same partition.
    """
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    rng = np.random.default_rng(seed)
    assign = np.empty(len(y), dtype=np.int64)
    for class_id in np.unique(y):
        rows = np.nonzero(y == class_id)[0]
        rows = rows[rng.permutation(len(rows))]
        assign[rows] = np.arange(len(rows)) % folds
    return assign


def evaluate_candidate(
    config: CandidateConfig, fm: FeatureMatrix, folds: int = 5, fold_seed: int = 0
) -> tuple[float, np.ndarray]:
    """Cross-validate one candidate; returns (pooled oof weighted F1, archive).

    The archive is an (n_rows, 3) array of class scores in the fixed global
    label order; classes a fold's model never observed keep score 0. Each row
    is filled exactly once, by the fold that held it out.
    """
    if fm.y is None:
        raise ValueError("evaluate_candidate requires labels")
    y = fm.y
    assign = fold_assignments(y, folds, fold_seed)
    archive = np.zeros((len(y), len(LABELS)))
    for f in range(folds):
        holdout = np.nonzero(assign == f)[0]
        if len(holdout) == 0:
            continue
        rest = np.nonzero(assign != f)[0]
        model = train(config.kind, config.hp, fm.subset(rest), seed=config.seed)
        scores = model.predict_scores(fm.subset(holdout))
        archive[np.ix_(holdout, model.classes_)] = scores
    y_hat = np.argmax(archive, axis=1)
    return weighted_f1_labels(y, y_hat), archive


@dataclass
class LeaderboardEntry:
    config: CandidateConfig
    score: float
    oof: np.ndarray  # (n_rows, 3) archive from evaluate_candidate
    index: int  # position in the candidate sequence (tie-break key)


@dataclass
class Leaderboard:
    """Candidates sorted by descending oof score (ties: earlier candidate)."""

    entries: list[LeaderboardEntry]
    y: np.ndarray
    fingerprint: str

    def __len__(self) -> int:
        return len(self.entries)

    def best(self) -> LeaderboardEntry:
        return self.entries[0]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _candidate_sequence(seed: int):
    """The search's candidates in order: the per-kind defaults, then random draws."""
    rng = np.random.default_rng(seed)
    for index in itertools.count():
        if index < len(KINDS):
            kind = KINDS[index]
            hp = default_hp(kind)
        else:
            kind = KINDS[int(rng.integers(len(KINDS)))]
            hp = sample_hp(kind, rng)
        yield CandidateConfig(kind=kind, hp=hp, seed=int(rng.integers(2**31 - 1)))


# A pool worker's bound task: set by _init_worker, in the worker process only.
_worker_task = None


def _init_worker(task) -> None:
    global _worker_task
    _worker_task = task


def _run_worker_task(config):
    return _worker_task(config)


def _run_now(task, config) -> Future:
    future = Future()
    future.set_result(task(config))
    return future


@contextmanager
def _submitter(task, workers: int):
    """Yield ``submit(config) -> Future``: a forked pool of ``workers`` processes,
    or in-process evaluation when one worker would do, fork is unavailable, or
    this process is a daemon (which may not start children).

    The task (and the feature matrix bound into it) reaches the workers by
    fork, so neither is pickled and no worker re-imports the package; only a
    CandidateConfig and its result cross the pipe. The executor forks all its
    workers before it starts its own thread. Leaving the block waits for the
    pool's workers to exit.
    """
    if (
        workers < 2
        or "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
    ):
        yield partial(_run_now, task)
        return
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(task,),
    ) as pool:
        yield partial(pool.submit, _run_worker_task)


def search(
    fm: FeatureMatrix,
    folds: int = 5,
    seed: int = 0,
    max_candidates: int | None = None,
    budget_seconds: float | None = None,
) -> Leaderboard:
    """Random search over the portfolio's configuration space.

    Exactly one budget applies: a candidate-count cap (reproducible to the
    byte) or a wall-clock allowance (``DEFAULT_BUDGET_SECONDS`` when neither
    is given). The first four candidates are the per-kind defaults; at least
    one candidate always runs, and finishing with fewer than the four
    defaults emits a warning.

    Candidates run on every usable CPU, at most one per worker at a time,
    and are submitted in sequence order with the budget checked before each
    submission. Candidates still running at a wall-clock cutoff finish and
    are kept, so the leaderboard is always a prefix of the sequence. Results
    and warnings do not depend on the worker count: a worker returns only a
    candidate's score and archive, and the input is checked, and warned
    about, here before the first candidate runs.
    """
    if max_candidates is not None and budget_seconds is not None:
        raise ValueError("set max_candidates or budget_seconds, not both")
    if max_candidates is None and budget_seconds is None:
        budget_seconds = DEFAULT_BUDGET_SECONDS
    if max_candidates is not None and max_candidates < 1:
        raise ValueError("max_candidates must be >= 1")
    if budget_seconds is not None and budget_seconds <= 0:
        raise ValueError("budget_seconds must be positive")
    if fm.y is None:
        raise ValueError("search requires labels")
    _refuse_unknown_labels(fm.y)
    class_sizes = np.unique(fm.y, return_counts=True)[1]
    if len(class_sizes) and class_sizes.max() < 2:
        raise ValueError(
            "every class has a single training row: fold 0 of the cross-validation "
            "would hold out every row and leave nothing to train on"
        )
    if len(class_sizes) == 1:  # attributed to this module, which module= filters match
        warnings.warn(
            "training data contains a single class; cross-validation is degenerate",
            RuntimeWarning,
        )

    started = time.monotonic()

    def within_budget(index: int) -> bool:
        if max_candidates is not None:
            return index < max_candidates
        return index == 0 or time.monotonic() - started < budget_seconds

    workers = min(_usable_cpus(), max_candidates or sys.maxsize)
    task = partial(evaluate_candidate, fm=fm, folds=folds, fold_seed=seed)
    configs = _candidate_sequence(seed)
    submitted: list[tuple[CandidateConfig, Future]] = []
    with _submitter(task, workers) as submit:
        in_flight: set[Future] = set()
        while within_budget(len(submitted)):
            if len(in_flight) == workers:
                done, in_flight = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in done:
                    future.result()  # a failed candidate stops the search here
            config = next(configs)
            future = submit(config)
            submitted.append((config, future))
            in_flight.add(future)
    entries: list[LeaderboardEntry] = []
    for index, (config, future) in enumerate(submitted):
        score, oof = future.result()
        entries.append(LeaderboardEntry(config=config, score=score, oof=oof, index=index))
    if len(entries) < len(KINDS):
        warnings.warn(
            f"budget allowed only {len(entries)} of the {len(KINDS)} default candidates; "
            "leaderboard is partial",
            RuntimeWarning,
            stacklevel=2,
        )
    entries.sort(key=lambda e: (-e.score, e.index))
    return Leaderboard(entries=entries, y=fm.y, fingerprint=fm.fingerprint)


def _refuse_unknown_labels(y: np.ndarray) -> None:
    """Refuse a label that is not a position in ``LABELS``: out-of-fold
    archives and ensemble sums place each class's scores at its label."""
    if y.size and y.max() >= len(LABELS):
        raise ValueError(
            f"label {y.max()} is not one of the {len(LABELS)} labels 0..{len(LABELS) - 1}"
        )


def export_leaderboard(lb: Leaderboard, path) -> None:
    lines = ["rank\tkind\thp\tscore"]
    for rank, e in enumerate(lb.entries, start=1):
        hp_json = json.dumps(e.config.hp, sort_keys=True)
        lines.append(f"{rank}\t{e.config.kind}\t{hp_json}\t{e.score:.6f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class EnsembleSelection:
    """Outcome of greedy selection: configs with multiplicities, pre-refit."""

    members: list[tuple[CandidateConfig, int]]
    oof_trajectory: list[float]
    fingerprint: str

    @property
    def oof_score(self) -> float:
        return self.oof_trajectory[-1]


def ensemble_select(lb: Leaderboard, size: int = 10) -> EnsembleSelection:
    """Greedy forward selection with replacement over the leaderboard.

    Each of ``size`` steps adds the entry whose inclusion maximizes the
    weighted F1 of the multiplicity-weighted mean of oof score archives
    (ties go to the earlier leaderboard rank). The same entry may be added
    repeatedly; multiplicities count the additions.
    """
    if not lb.entries:
        raise ValueError("leaderboard is empty")
    if size < 1:
        raise ValueError("ensemble size must be >= 1")
    running = np.zeros_like(lb.entries[0].oof)
    multiplicity = [0] * len(lb.entries)
    trajectory: list[float] = []
    for _ in range(size):
        best_pos, best_score = None, -1.0
        for pos, entry in enumerate(lb.entries):
            candidate = running + entry.oof
            score = weighted_f1_labels(lb.y, np.argmax(candidate, axis=1))
            if score > best_score:
                best_pos, best_score = pos, score
        running += lb.entries[best_pos].oof
        multiplicity[best_pos] += 1
        trajectory.append(best_score)
    members = [
        (lb.entries[pos].config, mult) for pos, mult in enumerate(multiplicity) if mult > 0
    ]
    return EnsembleSelection(
        members=members, oof_trajectory=trajectory, fingerprint=lb.fingerprint
    )


@dataclass
class EnsembleMember:
    model: TrainedModel
    multiplicity: int


@dataclass
class TrainedEnsemble:
    """Refit ensemble: argmax of the multiplicity-weighted mean of class scores.

    Members are summed in order. A member whose ``classes_`` are every label
    adds its scores in place; another adds them at its classes' columns. Both
    make the same additions, so the sums do not depend on which form ran.
    """

    members: list[EnsembleMember]
    fingerprint: str
    oof_trajectory: list[float] | None = None

    def predict_scores(self, fm: FeatureMatrix) -> np.ndarray:
        total = np.zeros((fm.n_documents, len(LABELS)))
        weight = 0
        for member in self.members:
            scores = member.multiplicity * member.model.predict_scores(fm)
            if member.model.classes_.tolist() == _EVERY_LABEL:
                total += scores
            else:
                total[:, member.model.classes_] += scores
            weight += member.multiplicity
        return total / weight

    def predict(self, fm: FeatureMatrix) -> np.ndarray:
        return np.argmax(self.predict_scores(fm), axis=1)


def fit_final(selection: EnsembleSelection, fm: FeatureMatrix) -> TrainedEnsemble:
    """Retrain each selected config on the full training matrix."""
    if fm.fingerprint != selection.fingerprint:
        raise ValueError("refit matrix does not match the matrix the ensemble was selected on")
    if fm.y is not None:  # train refuses unlabeled rows
        _refuse_unknown_labels(fm.y)
    members = [
        EnsembleMember(model=train(c.kind, c.hp, fm, seed=c.seed), multiplicity=m)
        for c, m in selection.members
    ]
    return TrainedEnsemble(
        members=members,
        fingerprint=fm.fingerprint,
        oof_trajectory=list(selection.oof_trajectory),
    )


def ensemble_to_dict(ensemble: TrainedEnsemble) -> dict:
    return {
        "format": _ENSEMBLE_FORMAT,
        "fingerprint": ensemble.fingerprint,
        "oof_trajectory": ensemble.oof_trajectory,
        "members": [
            {"multiplicity": m.multiplicity, "model": model_to_dict(m.model)}
            for m in ensemble.members
        ],
    }


def load_ensemble(path) -> TrainedEnsemble:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    except RecursionError:  # the decoder recurses once per nested array or object
        raise ValueError(f"{path}: not valid JSON (nested too deeply to decode)") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: ensemble container is not a JSON object")
    if payload.get("format") != _ENSEMBLE_FORMAT:
        raise ValueError(f"not an ensemble container (format={payload.get('format')!r})")
    for key in ("members", "fingerprint"):
        if not payload.get(key):
            raise ValueError(f"{path}: ensemble container has no {key}")
    if not isinstance(payload["members"], list):
        raise ValueError(f"{path}: ensemble members={payload['members']!r} is not a JSON list")
    members = []
    for i, spec in enumerate(payload["members"]):
        if not isinstance(spec, dict):
            raise ValueError(f"{path}: ensemble member {i} is not a JSON object")
        for key in ("model", "multiplicity"):
            if key not in spec:
                raise ValueError(f"{path}: ensemble member {i} has no {key}")
        if not isinstance(spec["model"], dict):
            raise ValueError(f"{path}: ensemble member {i}'s model is not a JSON object")
        count = spec["multiplicity"]
        if type(count) is not int:  # bool is a subclass of int and is refused too
            raise ValueError(f"{path}: ensemble member {i} multiplicity {count!r} is not an integer")
        if count < 1:
            raise ValueError(f"{path}: ensemble member {i} multiplicity {count} is below 1")
        kind = spec["model"].get("kind")
        try:
            model = model_from_dict(spec["model"])
        except ValueError as exc:
            raise ValueError(f"{path}: ensemble member {i} ({kind}): {exc}") from None
        if model.fingerprint != payload["fingerprint"]:
            raise ValueError(
                f"{path}: ensemble member {i} ({kind}) has dictionary fingerprint "
                f"{model.fingerprint!r}, not the container's {payload['fingerprint']!r}"
            )
        if model.classes_[-1] >= len(LABELS):  # predict_scores indexes LABELS by class
            raise ValueError(
                f"{path}: ensemble member {i} ({kind}) has classes {model.classes_.tolist()}, "
                f"not all below the {len(LABELS)} labels"
            )
        members.append(EnsembleMember(model=model, multiplicity=count))
    return TrainedEnsemble(
        members=members,
        fingerprint=payload["fingerprint"],
        oof_trajectory=payload.get("oof_trajectory"),
    )
