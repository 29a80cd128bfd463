"""Command-line front end: stats, extract, train, evaluate, report.

Each run-setting flag stores its value under its RunConfig field's name, and
extract, train and evaluate build their RunConfig from those before reading
the CSV. extract takes only the dictionary's flags; only evaluate takes the
protocol flags (--rounds, --test-fraction, --top-ngrams).

All artifacts land in --out-dir (or $SENTIGRAM_OUT, or ./runs). Runs are
deterministic given --seed whenever --max-candidates is used instead of a
wall-clock budget; reports embed the full run configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .automl import DEFAULT_BUDGET_SECONDS, ensemble_to_dict, export_leaderboard
from .corpus import LABELS, DatasetError, class_distribution, load_dataset
from .evaluation import RunConfig, fit_pipeline, render_report, run_experiment
from .features import SCHEMES
from .ngrams import build_dictionary, export_dictionary
from .preprocess import preprocess

ENV_OUT_DIR = "SENTIGRAM_OUT"
# top-level keys of the payload evaluate writes to report.json
_REPORT_KEYS = ("config", "dataset", "rounds", "averaged", "pooled", "top_ngrams")
# RunConfig fields set only by evaluate's protocol flags; train leaves them out
_PROTOCOL_FIELDS = ("rounds", "test_fraction", "top_ngrams")
# the flags' defaults, so a flag left out runs with RunConfig's own value
_DEFAULTS = RunConfig()
_FIELDS = _DEFAULTS.to_dict().keys()


def _default_out_dir() -> str:
    return os.environ.get(ENV_OUT_DIR, "runs")


def _add_data_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="dataset CSV with a text,label header")


def _add_config_arg(g, flag: str, text: str, **kwargs) -> None:
    """A flag for the RunConfig field of the same name, defaulting to its value."""
    default = getattr(_DEFAULTS, flag[2:].replace("-", "_"))
    g.add_argument(
        flag, type=type(default), default=default, help=f"{text} (default {default})", **kwargs
    )


def _add_pipeline_args(p: argparse.ArgumentParser, with_scheme: bool) -> None:
    g = p.add_argument_group("feature pipeline")
    _add_config_arg(g, "--max-n", "longest phrase length")
    _add_config_arg(g, "--min-freq", "drop phrases occurring fewer times")
    if with_scheme:
        _add_config_arg(g, "--scheme", "feature value scheme", choices=SCHEMES)
    g.add_argument(
        "--no-stopwords", dest="use_stopwords", action="store_false", help="skip stop-word removal"
    )
    g.add_argument(
        "--stoplist",
        dest="stoplist_path",
        metavar="STOPLIST",
        help="custom stop-word file (one word per line)",
    )


def _add_search_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("model search")
    _add_config_arg(g, "--folds", "internal CV folds")
    g.add_argument(
        "--max-candidates",
        type=int,
        default=None,
        help="evaluate exactly this many candidates (fully reproducible mode)",
    )
    g.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help=(
            "wall-clock search budget in seconds; candidates still running at the "
            f"cutoff finish and are kept; default {DEFAULT_BUDGET_SECONDS:g} when "
            "--max-candidates is not set"
        ),
    )
    _add_config_arg(g, "--ensemble-size", "greedy selection steps")
    g.add_argument(
        "--no-smote", dest="smote", action="store_false", help="disable minority oversampling"
    )
    _add_config_arg(g, "--smote-k", "SMOTE neighbour count")
    _add_config_arg(g, "--seed", "master random seed")


def _add_out_dir(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--out-dir",
        default=None,
        help=f"output directory (default ${ENV_OUT_DIR} or ./runs)",
    )


def _out_dir(args) -> Path:
    out = Path(args.out_dir if args.out_dir is not None else _default_out_dir())
    out.mkdir(parents=True, exist_ok=True)
    return out


def _run_config(args) -> RunConfig:
    """RunConfig from the command's flags, each stored under its field's name;
    a field the command has no flag for keeps its default."""
    return RunConfig(**{k: v for k, v in vars(args).items() if k in _FIELDS})


def cmd_stats(args) -> int:
    ds = load_dataset(args.data)
    dist = class_distribution(ds)
    print(f"dataset: {ds.name} ({len(ds)} documents)")
    for label in LABELS:
        count = dist[label]
        share = 100.0 * count / len(ds) if len(ds) else 0.0
        print(f"  {label:<9} {count:>7}  {share:5.1f}%")
    return 0


def cmd_extract(args) -> int:
    cfg = _run_config(args)
    stoplist = cfg.stoplist()
    ds = load_dataset(args.data)
    tokens = [preprocess(text, stoplist) for text in ds.texts()]
    dictionary = build_dictionary(tokens, max_n=cfg.max_n, min_freq=cfg.min_freq)
    out = Path(args.out) if args.out else _out_dir(args) / "dictionary.tsv"
    out.parent.mkdir(parents=True, exist_ok=True)
    export_dictionary(dictionary, out)
    print(f"wrote {len(dictionary)} phrases to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _run_config(args)
    ds = load_dataset(args.data)
    fitted = fit_pipeline(ds.documents, cfg, np.random.SeedSequence(cfg.seed))
    lb, ensemble = fitted.leaderboard, fitted.ensemble

    out = _out_dir(args)
    export_dictionary(fitted.dictionary, out / "dictionary.tsv")
    export_leaderboard(lb, out / "leaderboard.tsv")
    payload = ensemble_to_dict(ensemble)
    run_config = {k: v for k, v in cfg.to_dict().items() if k not in _PROTOCOL_FIELDS}
    payload["run_config"] = {**run_config, "data": args.data}
    (out / "model.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    best = lb.best()
    print(f"evaluated {len(lb)} candidates; best {best.config.kind} cv={best.score:.3f}")
    print("ensemble: " + ", ".join(f"{m.model.kind} x{m.multiplicity}" for m in ensemble.members))
    print(f"wrote {out / 'model.json'}, {out / 'leaderboard.tsv'}, {out / 'dictionary.tsv'}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _run_config(args)
    ds = load_dataset(args.data)
    report = run_experiment(ds, cfg)
    report.payload["dataset"]["path"] = args.data
    out = _out_dir(args)
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    table = report.render_table()
    (out / "report.txt").write_text(table, encoding="utf-8")
    print(table, end="")
    print(f"wrote {out / 'report.json'} and {out / 'report.txt'}")
    return 0


def cmd_report(args) -> int:
    path = Path(args.report_path)
    if not path.exists():
        raise ValueError(f"report file not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    except RecursionError:  # the decoder recurses once per nested array or object
        raise ValueError(f"{path}: not valid JSON (nested too deeply to decode)") from None
    not_a_report = ValueError(f"{path}: not a report.json written by evaluate")
    if not isinstance(payload, dict) or not all(k in payload for k in _REPORT_KEYS):
        raise not_a_report
    try:
        table = render_report(payload)
    except (KeyError, TypeError, AttributeError):  # a section lacks a field or has another shape
        raise not_a_report from None
    print(table, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentigram",
        description=(
            "Sentiment classification for software-engineering text: phrase-IDF "
            "features, a searched model portfolio, and a stratified evaluation harness."
        ),
        epilog=f"Default output directory comes from ${ENV_OUT_DIR} (falling back to ./runs).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="print the class distribution of a dataset")
    _add_data_arg(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("extract", help="build and export the phrase dictionary")
    _add_data_arg(p)
    _add_pipeline_args(p, with_scheme=False)
    p.add_argument("--out", default=None, help="dictionary TSV path (default OUT_DIR/dictionary.tsv)")
    _add_out_dir(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="search, select, and refit an ensemble on all data")
    _add_data_arg(p)
    _add_pipeline_args(p, with_scheme=True)
    _add_search_args(p)
    _add_out_dir(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="run the multi-round evaluation protocol")
    _add_data_arg(p)
    _add_pipeline_args(p, with_scheme=True)
    _add_search_args(p)
    g = p.add_argument_group("evaluation protocol")
    _add_config_arg(g, "--rounds", "stratified rounds")
    _add_config_arg(g, "--test-fraction", "held-out share per round")
    _add_config_arg(g, "--top-ngrams", "phrases listed per class")
    _add_out_dir(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="re-render a JSON report as a table")
    p.add_argument("report_path", help="path to a report.json produced by evaluate")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DatasetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
