"""Package structure: imports sit at module level, each submodule is reachable
as an attribute of the package, the search (automl) does not depend on the
experiment driver (evaluation) and its workers return results only, the
driver reads learners only through their public contract, phrase lookup
lives in the dictionary (ngrams), and each entry point takes one input form."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import sentigram

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sentigram"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imports(tree):
    return [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_at_module_level(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top_level = {id(n) for n in tree.body}
    nested = [n.lineno for n in _imports(tree) if id(n) not in top_level]
    assert nested == [], f"{path.name}: imports below module level at lines {nested}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "__init__"], ids=lambda p: p.name)
def test_package_attribute_is_the_submodule(path):
    # a name the package root binds must not shadow the submodule it came from
    module = importlib.import_module(f"sentigram.{path.stem}")
    assert getattr(sentigram, path.stem) is module


def test_automl_does_not_import_evaluation():
    tree = ast.parse((PACKAGE / "automl.py").read_text(encoding="utf-8"))
    imported = []
    for node in _imports(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif node.level == 1 and node.module is None:  # from . import x
            imported += [f"sentigram.{alias.name}" for alias in node.names]
        else:
            imported.append(f"sentigram.{node.module}" if node.level else node.module)
    assert "sentigram.evaluation" not in imported
    assert "sentigram.metrics" in imported


def _names(module):
    """Every identifier, attribute, definition name and string constant in a module."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            named.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.add(node.value)  # getattr(model, "...") probes
    return named


def test_evaluation_does_not_name_learner_internals():
    internals = {"feature_log_prob_", "W_", "trees_", "permutation_importance"}
    assert _names("evaluation.py") & internals == set()


def test_phrase_lookup_lives_in_ngrams():
    # features scales the counts the dictionary's own counting methods find;
    # it walks neither the feature index nor the step table itself
    lookup = {"feature_index", "max_n", "phrase_prefixes", "_dictionary_counts"}
    steps = {"_token_ids", "_radix", "_unigram_cols", "_step_keys", "_step_cols", "_step"}
    assert _names("features.py") & (lookup | steps) == set()
    assert {"phrase_counts", "batch_phrase_counts"} <= _names("features.py")


def test_search_workers_return_results_only():
    # the search warns about its input in the caller, so no worker's warnings
    # need recording, naming and replaying
    transport = {"catch_warnings", "warn_explicit", "__warningregistry__", "modules"}
    assert _names("automl.py") & transport == set()


def test_cli_leaves_the_stop_list_to_run_config():
    # RunConfig.stoplist is the one place a run's stop list is resolved
    assert "load_stoplist" not in _names("cli.py")


def _calls(module):
    """Every call expression in a module as source text, e.g. ``sp.issparse(self.X)``."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    return [ast.unparse(n) for n in ast.walk(tree) if isinstance(n, ast.Call)]


def test_entry_points_take_one_input_form():
    # rows reach models, ensembles and rankings as a FeatureMatrix, whose own
    # constructor is the one check that they are 2-D sparse
    for module in ("learners.py", "automl.py", "evaluation.py"):
        probes = [
            call
            for call in _calls(module)
            if "issparse(" in call or re.match(r"isinstance\([^,]+, FeatureMatrix\)", call)
        ]
        assert probes == [], f"{module}: {probes}"
    assert [c for c in _calls("evaluation.py") if c.startswith("getattr(")] == []
    assert [c.split("(")[0] for c in _calls("features.py")].count("sp.issparse") == 1
