"""The benchmark's tracing contract: every package function ``bench/run.py``
wraps under ``--trace 1`` still exists under the name it looks up, and its
fit hook counts a forest's nodes the way the model serializes them. A
rename in the package fails here instead of breaking a traced run."""

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from sentigram.features import FeatureMatrix
from sentigram.learners import default_hp, model_from_dict, model_to_dict, train

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench_run():
    """``bench/run.py`` loaded as a module, with ``bench/`` importable while it
    loads (its dataclasses look their module up in ``sys.modules``); the
    environment variables it sets on import are put back."""
    saved_env, saved_path = dict(os.environ), list(sys.path)
    sys.path.insert(0, str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        span_type = sys.modules["tracing"].Span
    finally:
        del sys.modules[spec.name]
        sys.path[:] = saved_path
        os.environ.clear()
        os.environ.update(saved_env)
    assert module.sentigram is not None, f"bench/run.py: {module._IMPORT_ERROR}"
    return module, span_type


def test_every_traced_target_resolves(bench_run):
    run, _ = bench_run
    resolved = run._resolve(run.TRACE_TARGETS)
    assert len(resolved) == len(run.TRACE_TARGETS)
    for (owner, attr, name), (spec_owner, spec_attr, _) in zip(resolved, run.TRACE_TARGETS):
        assert callable(getattr(owner, attr)), f"{spec_owner}.{spec_attr} ({name})"
    assert set(run.CAPTURE_TARGETS) <= set(run.TRACE_TARGETS)
    assert set(run.HOOKS) <= {name for _, _, name in run.TRACE_TARGETS}


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
