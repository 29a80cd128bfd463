"""End-to-end tests for the command-line interface: artifact layout, exit
codes, output-directory resolution, and reproducibility of runs."""

import csv
import io
import json
import subprocess
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

from sentigram import cli
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

    @staticmethod
    def _phrases(path):
        lines = path.read_text(encoding="utf-8").splitlines()
        return {line.split("\t")[0] for line in lines[1:]}

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

        assert "the" not in self._phrases(default_out)
        assert {"the", "fine", "app"} <= self._phrases(nostop_out)
        custom = self._phrases(custom_out)
        assert "fine" not in custom and "the" in custom


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
        fitted = fit_pipeline(docs, cfg, None, np.random.SeedSequence(cfg.seed))
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


class TestErrorHandling:
    def test_bad_label_reports_line_number(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("text,label\nfine app,positive\nbroken app,angry\n", encoding="utf-8")
        assert main(["stats", "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 3" in err

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
