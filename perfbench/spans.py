"""Span tracing installed from outside the program.

Timing and counting wrappers are set at the names callers actually resolve
(a module global such as ``scamscout.cli.extract_features``, or a class
attribute such as ``TeacherModel.forward``), so the package itself carries no
tracing code.  Spans nest as CLI stage (opened by run.py) -> layer call ->
inner layer call; a span's self time is its duration minus the time covered
by the spans it caused.  No layer has a queue or a second thread, so there is no
waiting time to record.

A target that no longer exists (say, after a refactor renames it) is
skipped and its metrics are reported absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

import numpy as np

TIME = "s"
COUNT = "count"
FRACTION = "fraction"


class Tracer:
    """Per-name span totals, self times and call counts, plus exact counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self._stack: list[list] = []   # [name, child_time] per open span

    def reset(self) -> None:
        for table in (self.total, self.self_time, self.calls, self.counters):
            table.clear()

    def enter(self, name: str) -> float:
        self._stack.append([name, 0.0])
        return self.clock()

    def exit(self, start: float) -> None:
        elapsed = self.clock() - start
        name, child = self._stack.pop()
        self.total[name] += elapsed
        self.self_time[name] += elapsed - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += elapsed

    @contextmanager
    def span(self, name: str):
        start = self.enter(name)
        try:
            yield
        finally:
            self.exit(start)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += int(n)


def _timed(tracer: Tracer, name: str, fn: Callable, after=None) -> Callable:
    """Wrap ``fn`` in a span; ``after(args, kwargs, result)`` adds counters.

    A generator's body runs on each ``next``, so every resume is timed as
    its own span under the same name.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(start)
        if after is not None:
            after(args, kwargs, result)
        if inspect.isgenerator(result):
            return _timed_generator(tracer, name, result)
        return result

    return wrapper


def _timed_generator(tracer: Tracer, name: str, gen):
    while True:
        start = tracer.enter(name)
        try:
            item = next(gen)
        except StopIteration:
            return
        finally:
            tracer.exit(start)
        yield item


class Installer:
    """Replaces attributes with wrappers and remembers how to undo it."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.installed: set[str] = set()   # spans with at least one target
        self._undo: list[tuple] = []

    @staticmethod
    def _resolve(dotted: str):
        """(owner, attr) for "pkg.module.attr" or "pkg.module.Class.attr"."""
        owner_path, _, attr = dotted.rpartition(".")
        try:
            owner = importlib.import_module(owner_path)
        except ImportError:
            module_name, _, cls_name = owner_path.rpartition(".")
            try:
                owner = getattr(importlib.import_module(module_name), cls_name, None)
            except ImportError:
                owner = None
        if owner is None or attr not in vars(owner):
            return None, attr
        return owner, attr

    def wrap(self, span: str, targets, after=None) -> None:
        """Wrap every dotted target that exists under one span name."""
        for dotted in targets:
            owner, attr = self._resolve(dotted)
            if owner is None:
                continue
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(_timed(self.tracer, span, raw.__func__, after))
            elif callable(raw):
                wrapped = _timed(self.tracer, span, raw, after)
            else:
                continue
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, raw))
            self.installed.add(span)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()
        self.installed.clear()


def install(tracer: Tracer) -> Installer:
    inst = Installer(tracer)
    for span, targets in SPANS:
        inst.wrap(span, targets)

    def kept(args, kwargs, result):
        tracer.count("branded.seen", len(args[0]))
        tracer.count("branded.kept", len(result))

    def checkpoint_size(args, kwargs, result):
        tracer.count("lupi.checkpoint_bytes", os.path.getsize(args[1]))

    def tokens(prefix: str, ids) -> None:
        ids = np.asarray(ids)
        tracer.count(f"lupi.{prefix}_nonpad", int(np.count_nonzero(ids)))
        tracer.count(f"lupi.{prefix}_tokens", int(ids.size))

    def teacher_tokens(args, kwargs, result):
        tokens("query", args[1])
        tokens("serp", args[2])

    inst.wrap("branded.filter_unbranded", ["scamscout.cli.filter_unbranded"],
              after=kept)
    inst.wrap("lupi.save_checkpoint", ["scamscout.cli.save_checkpoint"],
              after=checkpoint_size)
    inst.wrap("lupi.teacher_forward", ["scamscout.lupi.models.TeacherModel.forward"],
              after=teacher_tokens)
    inst.wrap("lupi.student_forward", ["scamscout.lupi.models.StudentModel.forward"],
              after=lambda a, k, r: tokens("query", a[1]))
    inst.wrap("discovery.fixture_load", ["scamscout.discovery.FixtureStore.load"],
              after=lambda a, k, store: tracer.count("discovery.fixture_records",
                                                     len(store)))
    return inst


# --- what is traced and reported --------------------------------------------------

# spans without counters; the ones with counters are set up in install()
SPANS = [
    ("featurizer.extract_features", ["scamscout.cli.extract_features"]),
    ("psl.root_domain", ["scamscout.cli.root_domain",
                         "scamscout.corpus.root_domain",
                         "scamscout.featurizer.extract.root_domain"]),
    ("corpus.read_snapshots", ["scamscout.corpus.read_snapshots"]),
    ("corpus.read_serps", ["scamscout.corpus.read_serps"]),
    ("cli.write_features_csv", ["scamscout.cli.write_features_csv"]),
    ("cli.read_features_csv", ["scamscout.cli.read_features_csv"]),
    ("oracle.train_gbdt", ["scamscout.oracle.gbdt.train_gbdt"]),
    ("oracle.grow_tree", ["scamscout.oracle.gbdt.grow_tree"]),
    ("oracle.predict_tree", ["scamscout.oracle.gbdt.predict_tree"]),
    ("oracle.predict", ["scamscout.oracle.gbdt.predict"]),
    ("toxicity.score_queries", ["scamscout.cli.score_queries"]),
    ("heuristics.attribute_table", ["scamscout.cli.attribute_table"]),
    ("heuristics.rank_segments", ["scamscout.cli.rank_segments"]),
    ("heuristics.cross_category_matrix", ["scamscout.cli.cross_category_matrix"]),
    ("heuristics.bootstrap", ["scamscout.heuristics.bootstrap_estimate"]),
    ("lupi.word_id", ["scamscout.lupi.tokenizer.word_id"]),
    ("lupi.tokenize_batch", ["scamscout.lupi.train.tokenize_batch",
                             "scamscout.lupi.rank.tokenize_batch"]),
    ("lupi.teacher_backward", ["scamscout.lupi.models.TeacherModel.backward"]),
    ("lupi.student_backward", ["scamscout.lupi.models.StudentModel.backward"]),
    ("lupi.total_loss", ["scamscout.lupi.train.total_loss"]),
    ("lupi.adamw_step", ["scamscout.lupi.optim.AdamW.step"]),
    ("lupi.load_checkpoint", ["scamscout.cli.load_student"]),
    ("discovery.fixture_get", ["scamscout.discovery.FixtureStore.get"]),
    ("discovery.fetch_serp", ["scamscout.discovery.fetch_serp"]),
    ("discovery.run_discovery", ["scamscout.cli.run_discovery"]),
    ("discovery.write_report", ["scamscout.cli.write_report"]),
]


def _total(span):
    return TIME, span, lambda t: t.total[span]


def _calls(span):
    return COUNT, span, lambda t: t.calls[span]


def _counter(span, key):
    return COUNT, span, lambda t: t.counters[key]


def _ratio(span, num, den):
    return FRACTION, span, lambda t: (t.counters[num] / t.counters[den]
                                      if t.counters[den] else 0.0)


# reported name -> (unit, span it is read from, reader)
LAYER_METRICS = {
    "featurizer.extract_features_s": _total("featurizer.extract_features"),
    "featurizer.extract_features_calls": _calls("featurizer.extract_features"),
    "psl.root_domain_s": _total("psl.root_domain"),
    "psl.root_domain_calls": _calls("psl.root_domain"),
    "corpus.read_snapshots_s": _total("corpus.read_snapshots"),
    "corpus.read_serps_s": _total("corpus.read_serps"),
    "cli.write_features_csv_s": _total("cli.write_features_csv"),
    "cli.read_features_csv_s": _total("cli.read_features_csv"),
    "oracle.train_gbdt_s": _total("oracle.train_gbdt"),
    "oracle.grow_tree_s": _total("oracle.grow_tree"),
    "oracle.grow_tree_calls": _calls("oracle.grow_tree"),
    "oracle.predict_tree_s": _total("oracle.predict_tree"),
    "oracle.predict_s": _total("oracle.predict"),
    "oracle.predict_calls": _calls("oracle.predict"),
    "toxicity.score_queries_s": _total("toxicity.score_queries"),
    "heuristics.attribute_table_s": _total("heuristics.attribute_table"),
    "heuristics.rank_segments_s": _total("heuristics.rank_segments"),
    "heuristics.cross_category_matrix_s": _total("heuristics.cross_category_matrix"),
    "heuristics.bootstrap_calls": _calls("heuristics.bootstrap"),
    "branded.filter_unbranded_s": _total("branded.filter_unbranded"),
    "branded.kept_fraction": _ratio("branded.filter_unbranded", "branded.kept",
                                    "branded.seen"),
    "lupi.word_id_calls": _calls("lupi.word_id"),
    "lupi.tokenize_batch_s": _total("lupi.tokenize_batch"),
    "lupi.teacher_forward_s": _total("lupi.teacher_forward"),
    "lupi.teacher_forward_calls": _calls("lupi.teacher_forward"),
    "lupi.teacher_backward_s": _total("lupi.teacher_backward"),
    "lupi.student_forward_s": _total("lupi.student_forward"),
    "lupi.student_backward_s": _total("lupi.student_backward"),
    "lupi.total_loss_s": _total("lupi.total_loss"),
    "lupi.adamw_step_s": _total("lupi.adamw_step"),
    "lupi.adamw_steps": _calls("lupi.adamw_step"),
    "lupi.serp_nonpad_fraction": _ratio("lupi.teacher_forward", "lupi.serp_nonpad",
                                        "lupi.serp_tokens"),
    "lupi.query_nonpad_fraction": _ratio("lupi.student_forward", "lupi.query_nonpad",
                                         "lupi.query_tokens"),
    "lupi.save_checkpoint_s": _total("lupi.save_checkpoint"),
    "lupi.checkpoint_bytes": _counter("lupi.save_checkpoint", "lupi.checkpoint_bytes"),
    "lupi.load_checkpoint_s": _total("lupi.load_checkpoint"),
    "discovery.fixture_load_s": _total("discovery.fixture_load"),
    "discovery.fixture_records": _counter("discovery.fixture_load",
                                          "discovery.fixture_records"),
    "discovery.fixture_get_s": _total("discovery.fixture_get"),
    "discovery.fetches": _calls("discovery.fetch_serp"),
    "discovery.run_discovery_self_s": (
        TIME, "discovery.run_discovery",
        lambda t: t.self_time["discovery.run_discovery"]),
    "discovery.write_report_s": _total("discovery.write_report"),
}
