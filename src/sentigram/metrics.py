"""Confusion-matrix metrics over the fixed class order positive, neutral, negative.

Conventions:

  * labels are indices into ``LABELS``, as the pipeline carries them;
  * precision = diagonal / column sum, recall = diagonal / row sum; a zero
    denominator yields 0 in computations;
  * a class is rendered as "-" (undefined) only when it has zero support
    AND zero predictions — e.g. a class absent from a corpus;
  * weighted F1 averages per-class F1 weighted by true-instance counts,
    excluding zero-support classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .corpus import LABELS


def confusion_matrix(y_true, y_pred) -> np.ndarray:
    """3x3 count matrix indexed (true, predicted) in the fixed label order."""
    t = np.asarray(y_true, dtype=np.int64)
    p = np.asarray(y_pred, dtype=np.int64)
    if len(t) != len(p):
        raise ValueError(f"length mismatch: {len(t)} true vs {len(p)} predicted")
    k = len(LABELS)
    if len(t) and (t.min() < 0 or t.max() >= k or p.min() < 0 or p.max() >= k):
        raise ValueError("label index outside the fixed class set")
    cm = np.zeros((k, k), dtype=np.int64)
    np.add.at(cm, (t, p), 1)
    return cm


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int
    predicted: int

    @property
    def defined(self) -> bool:
        """False only for a class with zero support and zero predictions."""
        return not (self.support == 0 and self.predicted == 0)


def per_class_prf(cm: np.ndarray) -> dict[str, ClassMetrics]:
    cm = np.asarray(cm)
    out = {}
    for i, label in enumerate(LABELS):
        tp = float(cm[i, i])
        support = int(cm[i].sum())
        predicted = int(cm[:, i].sum())
        precision = tp / predicted if predicted > 0 else 0.0
        recall = tp / support if support > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        out[label] = ClassMetrics(precision, recall, f1, support, predicted)
    return out


def weighted_f1(metrics: Mapping[str, ClassMetrics]) -> float:
    """Support-weighted mean of per-class F1, zero-support classes excluded."""
    total = sum(m.support for m in metrics.values())
    if total == 0:
        raise ValueError("weighted F1 needs at least one class with support")
    return sum(m.support * m.f1 for m in metrics.values() if m.support > 0) / total


def weighted_f1_labels(y_true, y_pred) -> float:
    return weighted_f1(per_class_prf(confusion_matrix(y_true, y_pred)))
