"""End-to-end tests for the command-line interface: artifact layout, exit
codes, output-directory resolution, and reproducibility of runs."""

import csv
import dataclasses
import io
import json
import subprocess
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

from sentigram import cli, evaluation
from sentigram.automl import load_ensemble
from sentigram.cli import main
from sentigram.corpus import LABEL_TO_INDEX, LABELS, load_dataset
from sentigram.evaluation import RunConfig, fit_pipeline, render_report
from sentigram.features import FeatureMatrix, vectorize
from sentigram.ngrams import build_dictionary, export_dictionary, import_dictionary
from sentigram.preprocess import preprocess

_VOCAB = {
    "positive": ("great", "love", "nice"),
    "neutral": ("install", "version", "update"),
    "negative": ("crash", "terrible", "bug"),
}
_SHARED = ("app", "phone", "screen")


def _planted_rows(counts=(10, 8, 8), seed=3):
    rng = np.random.default_rng(seed)
    rows = []
    for label, n in zip(LABELS, counts):
        for _ in range(n):
            tokens = list(rng.choice(_VOCAB[label], size=3)) + list(rng.choice(_SHARED, size=2))
            rows.append((" ".join(tokens), label))
    return rows


def _write_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["text", "label"])
        writer.writerows(rows)
    return path


def _run(argv):
    """Invoke the CLI in-process, returning (exit_code, stdout_text)."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def _phrases(path):
    """The phrases of an exported dictionary TSV."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return {line.split("\t")[0] for line in lines[1:]}


@pytest.fixture(scope="module")
def planted_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "reviews.csv"
    return str(_write_csv(path, _planted_rows()))


@pytest.fixture(scope="module")
def train_run(planted_csv, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("train-out")
    code, out = _run(
        [
            "train",
            "--data", planted_csv,
            "--no-stopwords",
            "--max-n", "1",
            "--folds", "3",
            "--max-candidates", "4",
            "--ensemble-size", "2",
            "--seed", "7",
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    return planted_csv, out_dir, out


@pytest.fixture(scope="module")
def evaluate_run(planted_csv, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("eval-out")
    code, out = _run(
        [
            "evaluate",
            "--data", planted_csv,
            "--no-stopwords",
            "--max-n", "1",
            "--folds", "3",
            "--max-candidates", "4",
            "--ensemble-size", "3",
            "--rounds", "2",
            "--test-fraction", "0.25",
            "--top-ngrams", "3",
            "--seed", "5",
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    return planted_csv, out_dir, out


class TestStats:
    def test_prints_class_distribution(self, planted_csv, capsys):
        assert main(["stats", "--data", planted_csv]) == 0
        out = capsys.readouterr().out
        assert "dataset: reviews (26 documents)" in out
        positive_line = next(l for l in out.splitlines() if l.strip().startswith("positive"))
        assert "10" in positive_line and "38.5%" in positive_line

    def test_missing_file_exits_2_with_error_line(self, tmp_path, capsys):
        assert main(["stats", "--data", str(tmp_path / "nope.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""


class TestExtract:
    def test_explicit_out_path_matches_direct_export(self, planted_csv, tmp_path, capsys):
        out = tmp_path / "dict.tsv"
        assert main(["extract", "--data", planted_csv, "--no-stopwords", "--max-n", "2",
                     "--out", str(out)]) == 0
        assert f"phrases to {out}" in capsys.readouterr().out

        rows = list(csv.reader(open(planted_csv, encoding="utf-8")))[1:]
        tokens = [preprocess(text) for text, _ in rows]
        expected = tmp_path / "expected.tsv"
        export_dictionary(build_dictionary(tokens, max_n=2, min_freq=2), expected)
        assert out.read_bytes() == expected.read_bytes()

    def test_out_dir_env_var_is_honored(self, planted_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("SENTIGRAM_OUT", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        code, _ = _run(["extract", "--data", planted_csv, "--no-stopwords"])
        assert code == 0
        assert (tmp_path / "envout" / "dictionary.tsv").exists()

    def test_default_out_dir_is_runs(self, planted_csv, tmp_path, monkeypatch):
        monkeypatch.delenv("SENTIGRAM_OUT", raising=False)
        monkeypatch.chdir(tmp_path)
        code, _ = _run(["extract", "--data", planted_csv, "--no-stopwords"])
        assert code == 0
        assert (tmp_path / "runs" / "dictionary.tsv").exists()

    def test_stoplist_options_change_the_dictionary(self, tmp_path):
        data = _write_csv(
            tmp_path / "d.csv",
            [("the fine app", "positive")] * 2 + [("the fine app", "negative")] * 2,
        )
        default_out = tmp_path / "default.tsv"
        nostop_out = tmp_path / "nostop.tsv"
        custom_out = tmp_path / "custom.tsv"
        stopfile = tmp_path / "stop.txt"
        stopfile.write_text("fine\n", encoding="utf-8")

        assert main(["extract", "--data", str(data), "--max-n", "1",
                     "--out", str(default_out)]) == 0
        assert main(["extract", "--data", str(data), "--max-n", "1", "--no-stopwords",
                     "--out", str(nostop_out)]) == 0
        assert main(["extract", "--data", str(data), "--max-n", "1",
                     "--stoplist", str(stopfile), "--out", str(custom_out)]) == 0

        assert "the" not in _phrases(default_out)
        assert {"the", "fine", "app"} <= _phrases(nostop_out)
        custom = _phrases(custom_out)
        assert "fine" not in custom and "the" in custom

    def test_stoplist_with_no_stopwords_exits_2_before_any_work(
        self, planted_csv, tmp_path, monkeypatch, capsys
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(cli, "load_dataset", no_work)
        stopfile = tmp_path / "stop.txt"
        stopfile.write_text("fine\n", encoding="utf-8")
        out = tmp_path / "dict.tsv"
        code = main(["extract", "--data", planted_csv, "--no-stopwords",
                     "--stoplist", str(stopfile), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "stoplist" in err
        assert not out.exists()


    @pytest.mark.parametrize(
        "flags",
        [["--max-n", "0"], ["--max-n", "11"], ["--min-freq", "0"]],
        ids=["max-n-0", "max-n-11", "min-freq-0"],
    )
    def test_bad_setting_exits_2_before_the_csv_is_read(
        self, flags, planted_csv, tmp_path, monkeypatch, capsys
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(cli, "load_dataset", no_work)
        out = tmp_path / "dict.tsv"
        code = main(["extract", "--data", planted_csv, "--out", str(out), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert flags[0].lstrip("-").replace("-", "_") in err
        assert not out.exists()

    def test_scheme_is_a_usage_error(self, planted_csv, tmp_path):
        # extract writes the dictionary only; no feature values are computed
        with pytest.raises(SystemExit) as excinfo:
            main(["extract", "--data", planted_csv, "--scheme", "count",
                  "--out", str(tmp_path / "dict.tsv")])
        assert excinfo.value.code == 2


class TestStopListSettings:
    """train and evaluate remove the stop words their flags name."""

    @pytest.fixture(scope="class")
    def stop_data(self, tmp_path_factory):
        # "the", "with" and "it" are packaged stop words; the custom list has
        # none of them and drops two ordinary words instead
        folder = tmp_path_factory.mktemp("stop")
        rows = [(f"the {text} with it", label) for text, label in _planted_rows()]
        stopfile = folder / "stop.txt"
        stopfile.write_text("app\nphone\n", encoding="utf-8")
        return str(_write_csv(folder / "d.csv", rows)), str(stopfile)

    _SEARCH = ["--max-n", "1", "--folds", "3", "--max-candidates", "4", "--ensemble-size", "1"]

    def _train(self, data, out_dir, *flags):
        code, _ = _run(["train", "--data", data, *self._SEARCH, "--out-dir", str(out_dir), *flags])
        assert code == 0
        model = json.loads((out_dir / "model.json").read_text(encoding="utf-8"))
        return _phrases(out_dir / "dictionary.tsv"), model["run_config"]

    def test_train_with_a_custom_stop_list(self, stop_data, tmp_path):
        data, stopfile = stop_data
        phrases, echo = self._train(data, tmp_path, "--stoplist", stopfile)
        assert not phrases & {"app", "phone"}
        assert {"the", "with", "it"} <= phrases  # the custom list replaces the packaged one
        assert echo["stoplist_path"] == stopfile and echo["use_stopwords"] is True

    def test_train_without_stop_words_keeps_the_packaged_ones(self, stop_data, tmp_path):
        data, _ = stop_data
        phrases, echo = self._train(data, tmp_path, "--no-stopwords")
        assert {"the", "with", "it", "app", "phone"} <= phrases
        assert echo["use_stopwords"] is False and echo["stoplist_path"] is None

    def test_train_by_default_drops_the_packaged_stop_words(self, stop_data, tmp_path):
        data, _ = stop_data
        phrases, echo = self._train(data, tmp_path)
        assert not phrases & {"the", "with", "it"} and {"app", "phone"} <= phrases
        assert echo["use_stopwords"] is True and echo["stoplist_path"] is None

    @pytest.mark.parametrize(
        "flags, dropped, kept",
        [
            (["--stoplist", "STOPFILE"], {"app", "phone"}, {"the", "with", "it"}),
            (["--no-stopwords"], set(), {"the", "with", "it", "app", "phone"}),
            ([], {"the", "with", "it"}, {"app", "phone"}),
        ],
        ids=["custom-stop-list", "no-stopwords", "default"],
    )
    def test_evaluate_builds_every_round_with_the_stop_list(
        self, flags, dropped, kept, stop_data, tmp_path, monkeypatch
    ):
        data, stopfile = stop_data
        flags = [stopfile if f == "STOPFILE" else f for f in flags]
        seen = []
        build = evaluation.build_dictionary

        def spy(tokens, **kwargs):
            seen.append({t for doc in tokens for t in doc})
            return build(tokens, **kwargs)

        monkeypatch.setattr(evaluation, "build_dictionary", spy)
        code, _ = _run(
            ["evaluate", "--data", data, *self._SEARCH, "--rounds", "2",
             "--test-fraction", "0.25", "--out-dir", str(tmp_path), *flags]
        )
        assert code == 0
        assert len(seen) == 2
        for words in seen:
            assert not words & dropped and kept <= words
        config = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["config"]
        assert config["use_stopwords"] is ("--no-stopwords" not in flags)
        assert config["stoplist_path"] == (stopfile if "--stoplist" in flags else None)

    @pytest.mark.parametrize("command", ["extract", "train", "evaluate"])
    @pytest.mark.parametrize("stoplist", ["missing.txt", "."], ids=["missing", "directory"])
    def test_a_stop_list_that_is_not_a_file_exits_2_before_the_csv_is_read(
        self, command, stoplist, tmp_path, monkeypatch, capsys
    ):
        # the CSV's bad label would be the error if the CSV were read first
        data = _write_csv(tmp_path / "bad.csv", [("fine app", "positive"), ("odd app", "maybe")])
        read = []
        monkeypatch.setattr(
            cli, "load_dataset", lambda *args: read.append(args) or load_dataset(*args)
        )
        stoplist = str(tmp_path / stoplist)
        code = main([command, "--data", str(data), "--stoplist", stoplist,
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2 and read == []
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert repr(stoplist) in err
        assert not (tmp_path / "out").exists()


class TestTrain:
    def test_writes_all_artifacts(self, train_run):
        _, out_dir, out = train_run
        for name in ("dictionary.tsv", "leaderboard.tsv", "model.json"):
            assert (out_dir / name).exists()
        assert "evaluated 4 candidates" in out
        assert "ensemble:" in out

    def test_model_json_embeds_run_config(self, train_run):
        planted_csv, out_dir, _ = train_run
        payload = json.loads((out_dir / "model.json").read_text(encoding="utf-8"))
        assert payload["format"] == "sentigram-ensemble/1"
        echo = payload["run_config"]
        assert echo["data"] == planted_csv
        assert echo["seed"] == 7
        assert echo["folds"] == 3
        assert echo["max_candidates"] == 4
        assert echo["use_stopwords"] is False
        assert echo["smote"] is True

    def test_leaderboard_is_ranked_and_parseable(self, train_run):
        _, out_dir, _ = train_run
        lines = (out_dir / "leaderboard.tsv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "rank\tkind\thp\tscore"
        assert len(lines) == 5  # header + the four default candidates
        scores = []
        for rank, line in enumerate(lines[1:], start=1):
            fields = line.split("\t")
            assert int(fields[0]) == rank
            json.loads(fields[2])  # hp column is valid JSON
            scores.append(float(fields[3]))
        assert scores == sorted(scores, reverse=True)

    def test_saved_ensemble_predicts_the_training_data(self, train_run):
        # the saved dictionary and model pair, and reproduce the in-memory
        # pipeline that train fitted bit for bit
        planted_csv, out_dir, _ = train_run
        docs = load_dataset(planted_csv).documents
        cfg = RunConfig(
            seed=7, use_stopwords=False, max_n=1, folds=3, max_candidates=4, ensemble_size=2
        )
        fitted = fit_pipeline(docs, cfg, np.random.SeedSequence(cfg.seed))
        expected = fitted.featurize(docs)

        dictionary = import_dictionary(out_dir / "dictionary.tsv")
        ensemble = load_ensemble(out_dir / "model.json")
        assert dictionary.fingerprint == ensemble.fingerprint == fitted.dictionary.fingerprint
        tokens = [preprocess(d.text) for d in docs]
        fm = FeatureMatrix(
            X=vectorize(tokens, dictionary, cfg.scheme),
            y=np.asarray([LABEL_TO_INDEX[d.label] for d in docs]),
            fingerprint=dictionary.fingerprint,
            scheme=cfg.scheme,
        )
        np.testing.assert_array_equal(fm.X.toarray(), expected.X.toarray())
        np.testing.assert_array_equal(
            ensemble.predict_scores(fm), fitted.ensemble.predict_scores(expected)
        )
        assert (ensemble.predict(fm) == fm.y).mean() >= 0.95

        other = build_dictionary(tokens, max_n=2, min_freq=2)
        foreign = FeatureMatrix(
            X=vectorize(tokens, other, cfg.scheme),
            y=fm.y,
            fingerprint=other.fingerprint,
            scheme=cfg.scheme,
        )
        with pytest.raises(ValueError, match="different dictionary"):
            ensemble.predict_scores(foreign)

    def test_same_seed_rerun_is_byte_identical(self, train_run, tmp_path):
        planted_csv, out_dir, _ = train_run
        code, _ = _run(
            [
                "train",
                "--data", planted_csv,
                "--no-stopwords",
                "--max-n", "1",
                "--folds", "3",
                "--max-candidates", "4",
                "--ensemble-size", "2",
                "--seed", "7",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        for name in ("model.json", "leaderboard.tsv", "dictionary.tsv"):
            assert (tmp_path / name).read_bytes() == (out_dir / name).read_bytes()


class TestEvaluate:
    def test_report_files_and_stdout(self, evaluate_run):
        planted_csv, out_dir, out = evaluate_run
        assert "weighted F1 (mean over rounds):" in out
        assert "wrote" in out
        payload = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert payload["dataset"]["path"] == planted_csv
        assert payload["config"]["rounds"] == 2
        assert payload["config"]["max_candidates"] == 4
        table = (out_dir / "report.txt").read_text(encoding="utf-8")
        assert table == render_report(payload)
        assert table in out

    def test_rerun_is_byte_identical(self, evaluate_run, tmp_path):
        planted_csv, out_dir, _ = evaluate_run
        code, _ = _run(
            [
                "evaluate",
                "--data", planted_csv,
                "--no-stopwords",
                "--max-n", "1",
                "--folds", "3",
                "--max-candidates", "4",
                "--ensemble-size", "3",
                "--rounds", "2",
                "--test-fraction", "0.25",
                "--top-ngrams", "3",
                "--seed", "5",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "report.json").read_bytes() == (out_dir / "report.json").read_bytes()

    def test_class_with_two_documents_warns_and_completes(self, tmp_path):
        # a stratified split leaves the class one training row, which SMOTE
        # cannot interpolate; the row is kept as it is
        data = _write_csv(tmp_path / "tiny.csv", _planted_rows(counts=(10, 8, 2)))
        with pytest.warns(RuntimeWarning, match="class 2 has a single member"):
            code, _ = _run(
                [
                    "evaluate",
                    "--data", str(data),
                    "--no-stopwords",
                    "--max-n", "1",
                    "--folds", "3",
                    "--max-candidates", "4",
                    "--rounds", "2",
                    "--test-fraction", "0.25",
                    "--seed", "5",
                    "--out-dir", str(tmp_path / "out"),
                ]
            )
        assert code == 0
        payload = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        assert payload["dataset"]["class_distribution"]["negative"] == 2
        assert all(r["n_test"] + r["n_train"] == 20 for r in payload["rounds"])


class TestReport:
    def test_rerenders_saved_json(self, evaluate_run, capsys):
        _, out_dir, _ = evaluate_run
        assert main(["report", str(out_dir / "report.json")]) == 0
        out = capsys.readouterr().out
        assert out == (out_dir / "report.txt").read_text(encoding="utf-8")

    def test_missing_report_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "absent.json")]) == 2
        assert "error: report file not found" in capsys.readouterr().err

    def test_non_report_json_exits_2_with_error_line(self, train_run, capsys):
        _, out_dir, _ = train_run
        assert main(["report", str(out_dir / "model.json")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "not a report.json" in captured.err
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "section, value",
        [("dataset", {}), ("config", []), ("rounds", [{}]), ("top_ngrams", []), ("pooled", 1)],
        ids=["empty-dataset", "list-config", "empty-round", "list-top-ngrams", "number-pooled"],
    )
    def test_malformed_section_exits_2_with_error_line(
        self, evaluate_run, tmp_path, capsys, section, value
    ):
        _, out_dir, _ = evaluate_run
        payload = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        path = tmp_path / "report.json"
        path.write_text(json.dumps({**payload, section: value}), encoding="utf-8")
        assert main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: not a report.json written by evaluate\n"
        assert captured.out == ""


class TestErrorHandling:
    def test_bad_label_reports_line_number(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("text,label\nfine app,positive\nbroken app,angry\n", encoding="utf-8")
        assert main(["stats", "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 3" in err

    @pytest.mark.parametrize("command", ["stats", "train", "evaluate"])
    @pytest.mark.parametrize(
        "content, reason",
        [
            (b'text,label\nfine app,positive\n"' + b"a " * 70_000 + b'",negative\n',
             "line 3: field larger than field limit"),
            ("text,label\ncaf\xe9 app,positive\n".encode("latin-1"), "not UTF-8 text"),
        ],
        ids=["oversized-field", "latin-1"],
    )
    def test_unreadable_csv_bytes_exit_2_naming_the_file(
        self, tmp_path, capsys, command, content, reason
    ):
        data = tmp_path / "bad.csv"
        data.write_bytes(content)
        argv = [command, "--data", str(data)]
        if command != "stats":
            argv += ["--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {data}: {reason}")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_conflicting_budget_flags_exit_2(self, planted_csv, tmp_path, capsys):
        code = main(
            ["train", "--data", planted_csv, "--max-candidates", "2",
             "--budget-seconds", "5", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_invalid_min_freq_exits_2(self, planted_csv, tmp_path, capsys):
        code = main(
            ["extract", "--data", planted_csv, "--min-freq", "0",
             "--out", str(tmp_path / "d.tsv")]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--ensemble-size", "0"],
            ["evaluate", "--top-ngrams", "-1"],
            ["train", "--ensemble-size", "0"],
            ["evaluate", "--folds", "1"],
            ["evaluate", "--max-candidates", "0"],
            ["evaluate", "--budget-seconds", "0"],
            ["evaluate", "--max-candidates", "3", "--budget-seconds", "10"],
            ["evaluate", "--smote-k", "0"],
            ["train", "--folds", "1"],
            ["train", "--budget-seconds", "0"],
            ["train", "--smote-k", "0"],
            ["evaluate", "--max-n", "0"],
            ["evaluate", "--max-n", "11"],
            ["evaluate", "--min-freq", "0"],
            ["evaluate", "--rounds", "0"],
            ["evaluate", "--test-fraction", "0"],
            ["evaluate", "--test-fraction", "1"],
            ["train", "--max-n", "11"],
            ["train", "--min-freq", "0"],
            ["evaluate", "--stoplist", "/nonexistent", "--no-stopwords"],
            ["train", "--stoplist", "/nonexistent", "--no-stopwords"],
            ["evaluate", "--seed", "-1"],
            ["train", "--seed", "-1"],
        ],
    )
    def test_bad_run_config_exits_2_before_any_work(
        self, argv, planted_csv, tmp_path, monkeypatch, capsys
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("the pipeline ran")

        monkeypatch.setattr(cli, "load_dataset", no_work)
        # the flags under test come last, so they override the shared --max-candidates 2
        code = main(
            argv[:1]
            + ["--data", planted_csv, "--max-candidates", "2", "--out-dir", str(tmp_path)]
            + argv[1:]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert argv[1].lstrip("-").replace("-", "_") in err

    def test_one_training_row_per_class_exits_2_naming_the_cause(self, tmp_path, capsys):
        # two documents per class: each round's split leaves one per class to train on
        rows = _planted_rows(counts=(2, 2, 2))
        data = _write_csv(tmp_path / "six.csv", rows)
        code = main(
            ["evaluate", "--data", str(data), "--max-candidates", "2", "--rounds", "1",
             "--out-dir", str(tmp_path / "out")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "single training row" in err

    def test_unknown_subcommand_raises_usage_exit(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["bogus"])
        assert excinfo.value.code == 2


class _Stop(Exception):
    pass


@pytest.mark.parametrize("command", ["evaluate", "train"])
def test_flags_left_out_run_with_the_run_config_defaults(command, planted_csv, monkeypatch):
    built = []

    def capture(*args):
        built.extend(a for a in args if isinstance(a, RunConfig))
        raise _Stop

    monkeypatch.setattr(cli, "run_experiment", capture)
    monkeypatch.setattr(cli, "fit_pipeline", capture)
    with pytest.raises(_Stop):
        main([command, "--data", planted_csv])
    assert built == [RunConfig()]


def test_flags_store_run_config_fields():
    # each command's parsed defaults hold one entry per flag, under the flag's dest
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    io_dests = {"command", "func", "data", "out", "out_dir"}
    expected = {
        "evaluate": fields,
        "train": fields - set(cli._PROTOCOL_FIELDS),
        "extract": {"max_n", "min_freq", "use_stopwords", "stoplist_path"},
    }
    for command, config_dests in expected.items():
        dests = set(vars(cli.build_parser().parse_args([command, "--data", "d.csv"])))
        assert dests - io_dests == config_dests, command


class TestConsoleEntryPoints:
    def test_module_is_runnable(self, planted_csv):
        proc = subprocess.run(
            [sys.executable, "-m", "sentigram.cli", "stats", "--data", planted_csv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "dataset: reviews" in proc.stdout

    def test_installed_script_works(self, planted_csv):
        proc = subprocess.run(
            ["sentigram", "stats", "--data", planted_csv], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "dataset: reviews" in proc.stdout
