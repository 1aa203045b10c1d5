"""The README walkthrough, rerun in a fresh interpreter.

One child interpreter, with encoding, numeric and deprecation warnings made
errors, runs the walkthrough block of README.md into its own directory under
a profile hook.  Its 12 output files must equal those of the in-process
``workdir`` run byte for byte, and every function defined in ``src`` must
have run, unless ``_UNREACHED`` names it with the reason it did not.  The
list only shrinks: a function that starts to run fails the gate until its
entry goes.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import walkthrough

SRC = walkthrough.ROOT / "src"

_WARNINGS_AS_ERRORS = [
    "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
    "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
    "-W", "error::FutureWarning"]

_ITEM_1 = "perfbench calls it; ROADMAP item 1 moves that call"
_ITEM_4 = "experiment API: ROADMAP item 4 calls it from the scoreboard or deletes it"
_ITEM_6 = "parked-page helper: ROADMAP item 6 routes it into discover or deletes it"

# each function of src that the walkthrough does not run, and why
_UNREACHED = {
    "branded.evaluate_filter": _ITEM_4,
    "heuristics.top_segments": _ITEM_4,
    "toxicity.max_reference": _ITEM_4,
    "lupi.train.loco_cv": _ITEM_4,
    "lupi.train._top_k_truth": _ITEM_4,
    "lupi.train.train_query_baseline": _ITEM_4,
    "oracle.evaluate.binary_metrics": _ITEM_4,
    "oracle.evaluate.stratified_folds": _ITEM_4,
    "oracle.evaluate.cross_validate": _ITEM_4,
    "oracle.evaluate.EvalReport.mean_f1": _ITEM_4,
    "oracle.baseline.train_logistic_baseline": _ITEM_4,
    "oracle.baseline.LogisticBaseline.predict_proba_matrix": _ITEM_4,
    "featurizer.encode.DesignMatrix.dense": _ITEM_4 + " (only the logistic "
                                            "baseline reads a dense matrix)",
    "corpus._parked_patterns": _ITEM_6,
    "corpus.is_parked": _ITEM_6,
    "corpus.snapshot_state": _ITEM_6,
    "corpus.admit": _ITEM_6,
    "corpus.DomainSnapshot.resolving": _ITEM_6,
    "corpus.parse_snapshot": _ITEM_1 + " (perfbench/checks.py check_discover)",
    "oracle.gbdt.predict": _ITEM_1 + " (perfbench/checks.py check_discover; "
                           "also the replay acceptance test's tally)",
    "discovery.FixtureStore.__len__": _ITEM_1 + " (perfbench/spans.py counts "
                                      "the loaded store)",
    "lupi.layers.Module.gradients":
        "the finite-difference referee reads the gradients; test_acceptance.py"
        "::test_gradients_match_finite_differences_for_all_loss_terms",
    "lupi.checkpoint.load_teacher":
        "reads the --teacher-out checkpoint, which no stage loads; "
        "test_cli.py::test_lupi_checkpoints_load",
    "featurizer.schema.FeatureVector.__getitem__":
        "reads a feature by name; test_featurizer.py::test_dns_counts",
    "branded._has_adjacent_context":
        "no walkthrough keyword holds an ambiguous brand; "
        "test_branded.py::test_ambiguous_brand_needs_adjacent_context",
    "oracle.gbdt._scale_leaves":
        "no walkthrough round overshoots; "
        "test_oracle.py::test_a_step_that_would_raise_the_loss_is_halved",
    "oracle.tree._categorical_gains.split":
        "no walkthrough tree splits a categorical column; "
        "test_oracle.py::test_vectorized_split_search_equals_scalar_reference",
    "records._fault": "a bad record; every exit-2 case of test_cli.py",
    "records._remove_if_empty":
        "a failed run that made a directory; "
        "test_cli.py::test_failed_baselines_removes_the_directories_it_made",
}


@pytest.fixture(scope="module")
def fresh_run(tmp_path_factory):
    """(output directory, {(file, line)} of every ``src`` function entered)
    of the walkthrough run in a new interpreter.  The child inherits this
    process's environment, the BLAS thread count included."""
    out = tmp_path_factory.mktemp("fresh")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, *_WARNINGS_AS_ERRORS, walkthrough.__file__, str(out)],
        env=env, capture_output=True, text=True, encoding="utf-8")
    assert proc.returncode == 0, proc.stderr
    entered = {(str(Path(path).resolve()), line)
               for path, line in json.loads(proc.stdout.splitlines()[-1])}
    return out, entered


def test_a_fresh_interpreter_rewrites_every_output_byte_identically(
        workdir, fresh_run):
    out, _ = fresh_run
    names = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    assert len(names) == 12   # the nine stages write 12 files
    for name in names:
        assert (out / name).read_bytes() == (workdir / name).read_bytes(), name


def _functions():
    """Dotted name -> (file, lines) of every ``def`` in ``src``, nested ones
    included.  A code object starts on its ``def`` line, or on its first
    decorator's line."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                assert name not in found, name
                found[name] = (path, {child.lineno, *(
                    d.lineno for d in child.decorator_list[:1])})
                walk(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    package = SRC / "scamscout"
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        prefix = "" if module == "__init__" else module.removesuffix(
            ".__init__") + "."
        walk(ast.parse(path.read_text(encoding="utf-8")),
             str(path.resolve()), prefix)
    return found


def test_every_src_function_runs_in_the_walkthrough_or_is_allowlisted(
        fresh_run):
    _, entered = fresh_run
    unreached = {name for name, (path, lines) in _functions().items()
                 if not any((path, line) in entered for line in lines)}
    assert sorted(unreached - _UNREACHED.keys()) == [], \
        "no walkthrough stage runs these: call them, delete them or allowlist them"
    assert sorted(_UNREACHED.keys() - unreached) == [], \
        "the walkthrough runs these now: drop their _UNREACHED entries"
