"""Dataset ingestion, class distributions, and stratified train/test round plans.

Datasets are CSV files with a ``text,label`` header and one document per row;
labels come from the closed three-value set positive/neutral/negative. Split
plans are sequences of independent stratified random train/test partitions,
fully determined by (dataset, rounds, test_fraction, seed).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LABELS = ("positive", "neutral", "negative")
LABEL_TO_INDEX = {label: i for i, label in enumerate(LABELS)}


class DatasetError(ValueError):
    """Raised for missing, malformed, or mislabeled dataset files."""


def parse_label(value: str) -> str:
    """Case-insensitive parse into the closed label set; anything else raises."""
    label = value.strip().lower()
    if label not in LABEL_TO_INDEX:
        raise ValueError(f"unknown label {value!r}; expected one of {', '.join(LABELS)}")
    return label


@dataclass(frozen=True)
class LabeledDocument:
    doc_id: int
    text: str
    label: str


@dataclass(frozen=True)
class LabeledDataset:
    name: str
    documents: tuple[LabeledDocument, ...]

    def __len__(self) -> int:
        return len(self.documents)

    def texts(self) -> list[str]:
        return [doc.text for doc in self.documents]


@dataclass(frozen=True)
class SplitPlan:
    """Per-round (train_ids, test_ids) partitions of a dataset's id set."""

    rounds: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def load_dataset(path: str | Path, name: str | None = None) -> LabeledDataset:
    """Read a ``text,label`` CSV into a LabeledDataset, ids assigned in file order.

    Text fields may be quoted and contain commas or newlines per standard CSV
    quoting, and a UTF-8 byte-order mark before the header is skipped. Raises
    DatasetError naming the offending line for malformed rows (including a
    field over the csv module's size limit), empty text, or labels outside the
    closed set, and naming the file for bytes that are not UTF-8.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset file not found: {path}")
    documents: list[LabeledDocument] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        rows = _rows(reader, path)
        try:
            header = next(rows)
        except StopIteration:
            raise DatasetError(f"{path}: empty file, expected a `text,label` header") from None
        if [h.strip().lower() for h in header] != ["text", "label"]:
            raise DatasetError(f"{path}: expected header `text,label`, got {','.join(header)!r}")
        for row in rows:
            line = reader.line_num
            if not row:
                continue
            if len(row) != 2:
                raise DatasetError(f"{path}: line {line}: expected 2 fields, got {len(row)}")
            text, raw_label = row
            if text == "":
                raise DatasetError(f"{path}: line {line}: empty text field")
            try:
                label = parse_label(raw_label)
            except ValueError as exc:
                raise DatasetError(f"{path}: line {line}: {exc}") from None
            documents.append(LabeledDocument(doc_id=len(documents), text=text, label=label))
    return LabeledDataset(name=name or path.stem, documents=tuple(documents))


def _rows(reader, path):
    """The rows of a ``csv.reader``, with its parse and decoding errors raised
    as one DatasetError naming ``path`` (and, for a parse error, the line)."""
    try:
        yield from reader
    except csv.Error as exc:
        raise DatasetError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text: {exc}") from None


def class_distribution(ds: LabeledDataset) -> dict[str, int]:
    """Document count per label; absent classes are reported as 0."""
    counts = dict.fromkeys(LABELS, 0)
    for doc in ds.documents:
        counts[doc.label] += 1
    return counts


def stratified_shuffle_splits(
    ds: LabeledDataset,
    rounds: int = 10,
    test_fraction: float = 0.1,
    seed: int = 0,
) -> SplitPlan:
    """Independent stratified random train/test splits, deterministic in ``seed``.

    Each class with >= 2 members contributes round(count * test_fraction) test
    documents, clamped so both partitions keep at least one member (the clamp
    stays within +-1 of the rounded target). Singleton classes go entirely to
    the training side with a warning; they carry no stratification guarantee.
    """
    if not 0 < test_fraction < 1:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")

    ids_by_label: dict[str, list[int]] = {label: [] for label in LABELS}
    for doc in ds.documents:
        ids_by_label[doc.label].append(doc.doc_id)
    for label in LABELS:
        if len(ids_by_label[label]) == 1:
            warnings.warn(
                f"class {label!r} has a single document; it is assigned to the "
                "training side in every round",
                stacklevel=2,
            )

    rng = np.random.default_rng(seed)
    round_list = []
    for _ in range(rounds):
        train: list[int] = []
        test: list[int] = []
        for label in LABELS:
            ids = ids_by_label[label]
            if not ids:
                continue
            if len(ids) == 1:
                train.extend(ids)
                continue
            n_test = round(len(ids) * test_fraction)
            n_test = min(max(n_test, 1), len(ids) - 1)
            shuffled = [ids[i] for i in rng.permutation(len(ids))]
            test.extend(shuffled[:n_test])
            train.extend(shuffled[n_test:])
        if not train or not test:
            raise ValueError(
                "dataset too small to place at least one document of some class "
                f"in both partitions at test_fraction={test_fraction}"
            )
        round_list.append((tuple(sorted(train)), tuple(sorted(test))))
    return SplitPlan(rounds=tuple(round_list))


def export_split_plan(plan: SplitPlan, path: str | Path) -> None:
    """Write the plan as ``round,doc_id,partition`` triples for auditing."""
    lines = ["round,doc_id,partition"]
    for round_index, (train, test) in enumerate(plan.rounds):
        membership = {doc_id: "train" for doc_id in train}
        membership.update({doc_id: "test" for doc_id in test})
        for doc_id in sorted(membership):
            lines.append(f"{round_index},{doc_id},{membership[doc_id]}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
