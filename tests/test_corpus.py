"""Dataset ingestion, class counts, and stratified split-plan behavior."""

import csv
import re

import numpy as np
import pytest

from sentigram.corpus import (
    LABELS,
    DatasetError,
    LabeledDataset,
    LabeledDocument,
    class_distribution,
    export_split_plan,
    load_dataset,
    parse_label,
    stratified_shuffle_splits,
)


def write_csv(tmp_path, rows, header="text,label", name="data.csv"):
    path = tmp_path / name
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


def make_dataset(counts, name="synthetic"):
    """counts: mapping label -> document count."""
    docs = []
    for label in LABELS:
        for _ in range(counts.get(label, 0)):
            docs.append(LabeledDocument(doc_id=len(docs), text=f"doc {len(docs)}", label=label))
    return LabeledDataset(name=name, documents=tuple(docs))


class TestParseLabel:
    def test_case_insensitive(self):
        assert parse_label(" Positive ") == "positive"
        assert parse_label("NEUTRAL") == "neutral"

    def test_unknown_label_raises(self):
        with pytest.raises(ValueError, match="happy"):
            parse_label("happy")


class TestLoadDataset:
    def test_three_row_csv(self, tmp_path):
        path = write_csv(tmp_path, ['"great app",positive', "meh,neutral", "crashes,negative"])
        ds = load_dataset(path)
        assert len(ds) == 3
        assert ds.name == "data"
        assert class_distribution(ds) == {"positive": 1, "neutral": 1, "negative": 1}
        assert [d.doc_id for d in ds.documents] == [0, 1, 2]
        assert ds.documents[0].text == "great app"

    def test_quoted_text_with_commas_and_newlines(self, tmp_path):
        path = write_csv(tmp_path, ['"hello, world\nsecond line",positive'])
        ds = load_dataset(path)
        assert ds.documents[0].text == "hello, world\nsecond line"

    def test_header_case_insensitive(self, tmp_path):
        path = write_csv(tmp_path, ["ok,neutral"], header=" Text , LABEL ")
        assert len(load_dataset(path)) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            load_dataset(tmp_path / "absent.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DatasetError, match="empty file"):
            load_dataset(path)

    def test_wrong_header(self, tmp_path):
        path = write_csv(tmp_path, ["x,positive"], header="body,sentiment")
        with pytest.raises(DatasetError, match="expected header"):
            load_dataset(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = write_csv(tmp_path, ["ok,positive", "a,b,c"])
        with pytest.raises(DatasetError, match="line 3"):
            load_dataset(path)

    def test_unknown_label_names_line(self, tmp_path):
        path = write_csv(tmp_path, ["ok,positive", "hmm,happy"])
        with pytest.raises(DatasetError, match="line 3.*happy"):
            load_dataset(path)

    def test_empty_text_rejected(self, tmp_path):
        path = write_csv(tmp_path, [",positive"])
        with pytest.raises(DatasetError, match="empty text"):
            load_dataset(path)

    def test_utf8_byte_order_mark_before_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("\ufefftext,label\ngreat app,positive\n".encode("utf-8"))
        ds = load_dataset(path)
        assert [(d.text, d.label) for d in ds.documents] == [("great app", "positive")]

    def test_field_over_the_csv_size_limit_names_file_and_line(self, tmp_path):
        # the csv module refuses a field over its process-wide limit (131072
        # characters by default); the reader reports it and leaves the limit be
        limit = csv.field_size_limit()
        path = write_csv(tmp_path, ["ok,positive", '"' + "a " * limit + '",negative'])
        with pytest.raises(DatasetError, match=rf"^{re.escape(str(path))}: line 3: field larger"):
            load_dataset(path)
        assert csv.field_size_limit() == limit

    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("text,label\ncaf\xe9 app,positive\n".encode("latin-1"))
        with pytest.raises(DatasetError, match=rf"^{re.escape(str(path))}: not UTF-8 text: .*0xe9"):
            load_dataset(path)

    def test_explicit_name_overrides_stem(self, tmp_path):
        path = write_csv(tmp_path, ["ok,positive"])
        assert load_dataset(path, name="custom").name == "custom"


class TestClassDistribution:
    def test_absent_classes_are_zero(self):
        ds = make_dataset({"positive": 4})
        assert class_distribution(ds) == {"positive": 4, "neutral": 0, "negative": 0}

    def test_empty_dataset(self):
        ds = LabeledDataset(name="empty", documents=())
        assert class_distribution(ds) == {"positive": 0, "neutral": 0, "negative": 0}

    def test_sums_to_size_on_random_datasets(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            counts = {label: int(rng.integers(0, 30)) for label in LABELS}
            ds = make_dataset(counts)
            dist = class_distribution(ds)
            assert sum(dist.values()) == len(ds)
            assert dist == {label: counts.get(label, 0) for label in LABELS}


class TestStratifiedShuffleSplits:
    def test_exact_divisibility(self):
        ds = make_dataset({"positive": 10, "negative": 10})
        plan = stratified_shuffle_splits(ds, rounds=10, test_fraction=0.5, seed=3)
        labels = {d.doc_id: d.label for d in ds.documents}
        for train, test in plan.rounds:
            assert len(test) == 10
            per_class = {lab: sum(1 for i in test if labels[i] == lab) for lab in LABELS}
            assert per_class["positive"] == 5 and per_class["negative"] == 5

    def test_partition_property(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            counts = {lab: int(rng.integers(2, 40)) for lab in LABELS}
            ds = make_dataset(counts)
            plan = stratified_shuffle_splits(ds, rounds=3, test_fraction=0.2, seed=5)
            all_ids = set(range(len(ds)))
            for train, test in plan.rounds:
                assert set(train) | set(test) == all_ids
                assert not set(train) & set(test)
                assert len(train) + len(test) == len(ds)

    def test_per_class_counts_track_rounded_fraction(self):
        ds = make_dataset({"positive": 178, "neutral": 1191, "negative": 131})
        plan = stratified_shuffle_splits(ds, rounds=5, test_fraction=0.1, seed=0)
        labels = {d.doc_id: d.label for d in ds.documents}
        for _, test in plan.rounds:
            per_class = {lab: sum(1 for i in test if labels[i] == lab) for lab in LABELS}
            assert per_class == {"positive": 18, "neutral": 119, "negative": 13}

    def test_clamp_keeps_one_member_on_each_side(self):
        # round(2 * 0.9) = 2 would empty the training side without the clamp
        ds = make_dataset({"positive": 2, "negative": 2})
        plan = stratified_shuffle_splits(ds, rounds=4, test_fraction=0.9, seed=1)
        labels = {d.doc_id: d.label for d in ds.documents}
        for train, test in plan.rounds:
            for lab in ("positive", "negative"):
                assert sum(1 for i in train if labels[i] == lab) == 1
                assert sum(1 for i in test if labels[i] == lab) == 1

    def test_identical_seed_identical_plan(self):
        ds = make_dataset({"positive": 9, "neutral": 14, "negative": 7})
        a = stratified_shuffle_splits(ds, rounds=6, test_fraction=0.25, seed=42)
        b = stratified_shuffle_splits(ds, rounds=6, test_fraction=0.25, seed=42)
        assert a == b

    def test_different_seed_changes_some_round(self):
        ds = make_dataset({"positive": 20, "neutral": 20, "negative": 20})
        a = stratified_shuffle_splits(ds, rounds=4, test_fraction=0.25, seed=0)
        b = stratified_shuffle_splits(ds, rounds=4, test_fraction=0.25, seed=1)
        assert a.rounds != b.rounds

    def test_singleton_class_goes_to_train_with_warning(self):
        ds = make_dataset({"positive": 8, "neutral": 1, "negative": 8})
        singleton_id = next(d.doc_id for d in ds.documents if d.label == "neutral")
        with pytest.warns(UserWarning, match="single document"):
            plan = stratified_shuffle_splits(ds, rounds=3, test_fraction=0.25, seed=2)
        for train, test in plan.rounds:
            assert singleton_id in train
            assert singleton_id not in test

    def test_too_small_dataset_raises(self):
        ds = make_dataset({"positive": 1, "negative": 1})
        with pytest.raises(ValueError, match="too small"), pytest.warns(UserWarning):
            stratified_shuffle_splits(ds, rounds=1, test_fraction=0.5, seed=0)

    def test_invalid_arguments(self):
        ds = make_dataset({"positive": 5, "negative": 5})
        with pytest.raises(ValueError, match="test_fraction"):
            stratified_shuffle_splits(ds, test_fraction=0.0)
        with pytest.raises(ValueError, match="rounds"):
            stratified_shuffle_splits(ds, rounds=0)


class TestExportSplitPlan:
    def test_export_lists_every_id_once_per_round(self, tmp_path):
        ds = make_dataset({"positive": 4, "negative": 6})
        plan = stratified_shuffle_splits(ds, rounds=2, test_fraction=0.25, seed=7)
        out = tmp_path / "plan.csv"
        export_split_plan(plan, out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "round,doc_id,partition"
        body = [line.split(",") for line in lines[1:]]
        assert len(body) == 2 * len(ds)
        for round_index, (train, test) in enumerate(plan.rounds):
            rows = {int(i): part for r, i, part in body if int(r) == round_index}
            assert rows == {
                **{i: "train" for i in train},
                **{i: "test" for i in test},
            }


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
