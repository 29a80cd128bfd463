"""The benchmark's contracts with the package.

Tracing: every package function ``bench/run.py`` wraps under ``--trace 1``
still exists under the name it looks up, each traced learner class is the
class that ``train`` and ``model_from_dict`` return for a kind, and its fit
hook counts a forest's nodes the way the model serializes them. A rename or
move in the package fails here instead of breaking a traced run.

Dictionary statistics: the features-wide round-0 dictionary rebuilt for a
few seeds still has the statistics digest recorded in
``bench/fingerprints.json``. The files under ``bench/`` are read, never
written."""

import importlib.util
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from sentigram.features import FeatureMatrix
from sentigram.learners import KINDS, default_hp, model_from_dict, model_to_dict, train

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench_module(filename, name):
    """``bench/<filename>`` loaded as module ``name``, with ``bench/`` importable
    while it loads (its dataclasses look their module up in ``sys.modules``);
    the environment variables it sets on import are put back. Returns the
    module and the ``tracing.Span`` class it saw."""
    saved_env, saved_path = dict(os.environ), list(sys.path)
    saved_modules = set(sys.modules)
    sys.path.insert(0, str(BENCH))
    spec = importlib.util.spec_from_file_location(name, BENCH / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        span_type = sys.modules["tracing"].Span
    finally:
        # record_fingerprints.py imports run.py by its plain name
        for loaded in {name, "run"} - saved_modules:
            sys.modules.pop(loaded, None)
        sys.path[:] = saved_path
        os.environ.clear()
        os.environ.update(saved_env)
    return module, span_type


@pytest.fixture(scope="module")
def bench_run():
    module, span_type = _load_bench_module("run.py", "bench_run")
    assert module.sentigram is not None, f"bench/run.py: {module._IMPORT_ERROR}"
    return module, span_type


@pytest.fixture(scope="module")
def record_fingerprints():
    module, _ = _load_bench_module("record_fingerprints.py", "bench_record_fingerprints")
    return module


def test_every_traced_target_resolves(bench_run):
    run, _ = bench_run
    resolved = run._resolve(run.TRACE_TARGETS)
    assert len(resolved) == len(run.TRACE_TARGETS)
    for (owner, attr, name), (spec_owner, spec_attr, _) in zip(resolved, run.TRACE_TARGETS):
        assert callable(getattr(owner, attr)), f"{spec_owner}.{spec_attr} ({name})"
    assert set(run.CAPTURE_TARGETS) <= set(run.TRACE_TARGETS)
    assert set(run.HOOKS) <= {name for _, _, name in run.TRACE_TARGETS}


def test_traced_learner_classes_are_the_classes_that_run(bench_run):
    # a class the trace wraps but no kind runs would leave its spans empty
    run, _ = bench_run
    traced = {
        owner
        for (owner, _, _), (spec_owner, _, _) in zip(run._resolve(run.TRACE_TARGETS),
                                                     run.TRACE_TARGETS)
        if spec_owner.startswith("learners.")
    }
    rng = np.random.default_rng(0)
    X = sp.csr_matrix(rng.choice([0.0, 1.0, 2.0], size=(40, 6), p=[0.6, 0.2, 0.2]))
    fm = FeatureMatrix(X=X, y=rng.integers(0, 3, size=40), fingerprint="fp", scheme="count")
    running = set()
    for kind in KINDS:
        model = train(kind, default_hp(kind), fm, seed=1)
        assert type(model_from_dict(model_to_dict(model))) is type(model), kind
        running.add(type(model))
    assert traced == running


def test_fit_hook_counts_the_serialized_forest_nodes(bench_run):
    run, span_type = bench_run
    rng = np.random.default_rng(0)
    X = sp.csr_matrix(rng.choice([0.0, 1.0, 2.0], size=(40, 6), p=[0.6, 0.2, 0.2]))
    fm = FeatureMatrix(X=X, y=rng.integers(0, 3, size=40), fingerprint="fp", scheme="count")
    hp = {**default_hp("random_forest"), "n_trees": 10}
    model = train("random_forest", hp, fm, seed=1)
    trees = model_to_dict(model)["params"]["trees"]
    serialized = sum(len(tree["feature"]) for tree in trees)
    assert serialized > 10  # some tree split
    for forest in (model, model_from_dict(model_to_dict(model))):
        span = span_type(name="learners.fit", start=0.0)
        run._hook_fit(span, (), {}, forest)
        assert span.attrs == {"kind": "random_forest", "nodes": serialized}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_features_wide_dictionary_matches_the_recorded_digest(record_fingerprints, seed):
    recorded = json.loads(record_fingerprints.FINGERPRINTS.read_text(encoding="utf-8"))
    assert record_fingerprints.fingerprint(seed) == recorded["features-wide"][str(seed)]
