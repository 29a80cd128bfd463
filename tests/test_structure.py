"""Package structure: imports sit at module level and form no cycle, each
submodule is reachable as an attribute of the package, the two numerical
engines (forest, linear) are reached only through the learners, the search
(automl) does not depend on the experiment driver (evaluation) and its
workers return results only, the driver reads learners only through their
public contract, phrase lookup lives in the dictionary (ngrams), each entry
point takes one input form, one writer and one reader serve every learner's
declared saved arrays, a forest maps rows to leaves in one place, phrases
are ranked by column, rows are made canonical in one place (the
FeatureMatrix constructor), CSR rows are wrapped from their arrays in one
place (``canonical_csr``), the learners' softmax is their own, and the
dictionary build intersects term-document sets in array passes."""

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


def test_term_documents_are_intersected_in_array_passes():
    # df_terms comes from level-wise intersections of sorted document arrays:
    # no Python set is made or intersected, and no mapping holds postings
    tree = ast.parse((PACKAGE / "ngrams.py").read_text(encoding="utf-8"))
    assert "intersection" not in _names("ngrams.py")
    assert [c for c in _calls("ngrams.py") if re.match(r"(frozen)?set\(", c)] == []
    mappings = [
        ast.unparse(target)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and (isinstance(node.value, (ast.Dict, ast.DictComp))
             or (isinstance(node.value, ast.Call) and ast.unparse(node.value.func) == "dict"))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
    ]
    assert [m for m in mappings if "posting" in m] == []


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
    for module in ("learners.py", "forest.py", "linear.py", "automl.py", "evaluation.py"):
        probes = [
            call
            for call in _calls(module)
            if "issparse(" in call or re.match(r"isinstance\([^,]+, FeatureMatrix\)", call)
        ]
        assert probes == [], f"{module}: {probes}"
    assert [c for c in _calls("evaluation.py") if c.startswith("getattr(")] == []
    assert [c.split("(")[0] for c in _calls("features.py")].count("sp.issparse") == 1


def test_one_writer_and_one_reader_serve_the_declared_arrays():
    # each kind declares its saved arrays (_ARRAYS) and the base class writes
    # and reads them; a constant model writes its marker, a forest its trees
    tree = ast.parse((PACKAGE / "learners.py").read_text(encoding="utf-8"))
    classes = [n for n in tree.body if isinstance(n, ast.ClassDef)]

    def defining(method):
        return {c.name for c in classes for f in c.body
                if isinstance(f, ast.FunctionDef) and f.name == method}

    assert defining("_from_params") == {"TrainedModel", "RandomForest"}
    assert defining("_params") == {"TrainedModel", "ConstantModel", "RandomForest"}


def _definition(module, name):
    """The module-level class or function ``name`` of a package module."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    return next(n for n in tree.body if getattr(n, "name", None) == name)


def _threshold_comparisons(module):
    """The (scope, function) pairs of a module that compare with a split threshold."""
    return {
        (scope.name, f.name)
        for scope in ast.parse((PACKAGE / module).read_text(encoding="utf-8")).body
        for f in (scope.body if isinstance(scope, ast.ClassDef) else [scope])
        if isinstance(f, ast.FunctionDef)
        for n in ast.walk(f)
        if isinstance(n, ast.Compare) and "threshold" in ast.unparse(n)
    }


def test_one_leaf_map_and_a_ranking_by_column():
    # _NodeTable (forest.py) holds the forest's two routes: the batch leaf
    # map (leaves and votes, routing in lock step) and the one-document walk
    # (walk and descend); nothing else in forest.py or learners.py compares
    # a value with a split threshold, and permutation importance starts from
    # the batch leaf map. A round's phrases are ranked by a sort over feature
    # columns, not by phrase strings.
    table = _definition("forest.py", "_NodeTable")
    methods = {f.name for f in table.body if isinstance(f, ast.FunctionDef)}
    assert {"leaves", "votes", "route", "walk", "descend"} <= methods
    assert "touched" not in methods
    assert _threshold_comparisons("forest.py") == {
        ("_NodeTable", "pack"), ("_NodeTable", "route"), ("_NodeTable", "descend")
    }
    assert _threshold_comparisons("learners.py") == set()
    forest = _definition("learners.py", "RandomForest")
    importance = next(f for f in forest.body if getattr(f, "name", "") == "permutation_importance")
    calls = [ast.unparse(n) for n in ast.walk(importance) if isinstance(n, ast.Call)]
    assert "table.leaves(X)" in calls
    ranking = _definition("evaluation.py", "top_ngrams_per_class")
    calls = [ast.unparse(n) for n in ast.walk(ranking) if isinstance(n, ast.Call)]
    assert [c for c in calls if c.startswith("sorted(")] == []


def test_rows_are_made_canonical_in_one_place():
    # FeatureMatrix sums duplicate entries once, when it is made; the
    # learners and their engines read its canonical CSR rows as they are
    canonicalising = {"_canonical_csr", "sum_duplicates", "has_canonical_format"}
    for module in ("learners.py", "forest.py", "linear.py"):
        assert _names(module) & canonicalising == set(), module
        assert [c for c in _calls(module) if ".tocsr(" in c] == [], module
    called = [c.split("(")[0].split(".")[-1] for c in _calls("features.py")]
    assert called.count("sum_duplicates") == 1


def test_csr_rows_are_wrapped_from_arrays_in_one_place():
    # no module hands (data, indices, indptr) to scipy's checked constructor;
    # canonical_csr is the one place that makes a CSR matrix from arrays
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        wrapping = [
            ast.unparse(n)
            for n in ast.walk(tree)
            if isinstance(n, ast.Call)
            and ast.unparse(n.func).split(".")[-1] in {"csr_matrix", "csr_array", "__new__"}
        ]
        expected = ["sp.csr_matrix.__new__(sp.csr_matrix)"] if path.name == "features.py" else []
        assert wrapping == expected, f"{path.name}: {wrapping}"
    builder = _definition("features.py", "canonical_csr")
    assert any(ast.unparse(n) == "sp.csr_matrix.__new__(sp.csr_matrix)" for n in ast.walk(builder))


def test_learners_take_no_softmax_from_scipy():
    # scipy's softmax dispatches on the array API on every call; the learners
    # compute the same three steps themselves (log_softmax stays in the loss,
    # in linear.py)
    def scipy_special(module):
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        return {
            alias.name
            for node in _imports(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy.special")
            for alias in node.names
        }

    assert "log_softmax" in scipy_special("linear.py")
    for module in ("learners.py", "linear.py"):
        assert "softmax" not in scipy_special(module), module
        assert "softmax" not in _names(module), module  # nor as scipy.special.softmax


def _package_imports(path):
    """The package modules a module imports, by stem."""
    imported = set()
    for node in _imports(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            module = node.module or ""
            if node.level:  # from .x import y, from . import x
                module = f"sentigram.{module}".rstrip(".")
            # "from sentigram import x" and "from . import x" name submodules
            names = [f"{module}.{alias.name}" for alias in node.names]
            modules = names if module == "sentigram" else [module]
        imported |= {m.split(".")[1] for m in modules if m.startswith("sentigram.")}
    return imported


def test_package_imports_form_no_cycle_and_the_engines_sit_below_learners():
    # forest.py (CART) and linear.py (L-BFGS) are numerical engines: they
    # import nothing from the package, and only learners.py imports them
    graph = {path.stem: _package_imports(path) for path in MODULES}
    assert graph["forest"] == set() and graph["linear"] == set()
    importers = {m for m, deps in graph.items() if deps & {"forest", "linear"}}
    assert importers == {"learners"}
    assert graph["learners"] >= {"forest", "linear"}
    done, active = set(), []

    def visit(module):  # depth-first: a module met again while active closes a cycle
        assert module not in active, f"import cycle: {' -> '.join(active + [module])}"
        if module not in done:
            active.append(module)
            for dep in sorted(graph[module]):
                visit(dep)
            active.pop()
            done.add(module)

    for module in sorted(graph):
        visit(module)
