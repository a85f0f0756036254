"""Span tracing installed from outside the package, and the import-time split.

A Tracer wraps public weakch functions and methods in timing wrappers.
Each call records one span (name, start, end, parent span); spans stay in
memory as flat arrays until the run ends. Every call runs in the one
benchmark thread, so a span's children are nested inside it and its self
time is its duration minus theirs; nothing waits, so wait time is zero by
construction and is not recorded.

A wrapped function is patched in every weakch namespace that bound it
(``weakch.search.validate_loc`` as well as
``weakch.common_cause.validate_loc`` and the ``weakch`` re-export), and a
wrapped method is patched on its class. ``uninstall`` puts every original
back. A target that no longer exists is skipped, so a refactor that removes
a function reports zero calls for it instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import os
import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (span name, module, attribute path). A dotted attribute path names a
# method, patched on its class.
TARGETS = (
    ("cli.main", "weakch.cli", "main"),
    ("spaces.prob", "weakch.spaces", "prob"),
    ("spaces.check_partition", "weakch.spaces", "check_partition"),
    ("spaces.screening_residuals", "weakch.spaces", "screening_residuals"),
    ("spaces.FiniteProbSpace", "weakch.spaces", "FiniteProbSpace.__init__"),
    ("common_cause.random_screened_model", "weakch.common_cause", "random_screened_model"),
    ("common_cause.check_cause_mass_bounds", "weakch.common_cause", "check_cause_mass_bounds"),
    ("common_cause.cell_stats", "weakch.common_cause", "cell_stats"),
    ("common_cause.classify_cells", "weakch.common_cause", "classify_cells"),
    ("common_cause.validate_loc", "weakch.common_cause", "validate_loc"),
    ("common_cause.validate_no_conspiracy", "weakch.common_cause", "validate_no_conspiracy"),
    ("common_cause.validate_screening", "weakch.common_cause", "validate_screening"),
    ("common_cause.EprbModel.construct", "weakch.common_cause", "EprbModel.__init__"),
    ("common_cause.EprbModel.profile", "weakch.common_cause", "EprbModel.profile"),
    ("common_cause.EprbModel.weak_report", "weakch.common_cause", "EprbModel.weak_report"),
    ("common_cause.random_eprb_model", "weakch.common_cause", "random_eprb_model"),
    ("common_cause.joint_cause_bounds_check", "weakch.common_cause", "joint_cause_bounds_check"),
    ("common_cause.ch_atom_oracle", "weakch.common_cause", "ch_atom_oracle"),
    ("singlet.epsilon_profile", "weakch.singlet", "epsilon_profile"),
    ("singlet.outcome_tables", "weakch.singlet", "outcome_tables"),
    ("inequalities.correction_terms", "weakch.inequalities", "correction_terms"),
    ("inequalities.weak_ch_bounds", "weakch.inequalities", "weak_ch_bounds"),
    ("inequalities.evaluate_weak_ch", "weakch.inequalities", "evaluate_weak_ch"),
    ("search.constraint_penalty", "weakch.search", "constraint_penalty"),
    ("search.search_counterexample", "weakch.search", "search_counterexample"),
    ("search.optimize_angles", "weakch.search", "optimize_angles"),
    ("simulate.sample_runs", "weakch.simulate", "sample_runs"),
    ("simulate.estimate", "weakch.simulate", "estimate"),
    ("simulate.test_inequality", "weakch.simulate", "test_inequality"),
)


def _weakch_modules():
    return [m for name, m in list(sys.modules.items()) if name == "weakch" or name.startswith("weakch.")]


class Tracer:
    """Records spans from wrappers around the functions named in TARGETS."""

    def __init__(self):
        self.names: list[str] = [t[0] for t in TARGETS]
        self.name_ix = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name_ix: int, fn):
        stack = self._stack
        names, starts, ends, parents = self.name_ix, self.start, self.end, self.parent
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            k = len(starts)
            names.append(name_ix)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(k)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[k] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _weakch_modules()
        for ix, (_, module_name, attr) in enumerate(TARGETS):
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                original = None if cls is None else cls.__dict__.get(meth)
                if original is None:
                    continue
                self._patch(cls, meth, self._wrap(ix, original), original)
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(ix, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper, original)

    def _patch(self, owner, key: str, wrapper, original) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, self time and total (inclusive) time in seconds."""
        start = np.frombuffer(self.start, dtype=float) if len(self.start) else np.zeros(0)
        end = np.frombuffer(self.end, dtype=float) if len(self.end) else np.zeros(0)
        name_ix = np.asarray(self.name_ix, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        n = len(self.names)
        calls = np.bincount(name_ix, minlength=n)
        self_s = np.bincount(name_ix, weights=self_time, minlength=n)
        total_s = np.bincount(name_ix, weights=dur, minlength=n)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "total_s": float(total_s[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Write the spans as a compressed numpy archive."""
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name_ix=np.asarray(self.name_ix, dtype=np.int32),
            start=np.asarray(self.start, dtype=float),
            end=np.asarray(self.end, dtype=float),
            parent=np.asarray(self.parent, dtype=np.int32),
        )


def parse_importtime(stderr: str) -> dict[str, float]:
    """Split the output of ``python -X importtime`` into the import metrics.

    scipy_s and numpy_s are the cumulative import times of the scipy and
    numpy modules that no other scipy or numpy module imported, so each
    includes whatever it pulls in and nothing is counted twice;
    weakch_self_s is the sum of the self times of the weakch modules.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        # one space after the bar, then two per nesting level
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, name.strip(), int(self_us), int(cum_us)))
    totals = {"scipy_s": 0.0, "numpy_s": 0.0, "weakch_self_s": 0.0}
    ancestors: list[tuple[int, str]] = []
    # importtime prints children before parents; walking backwards visits
    # every parent before its children.
    for depth, name, self_us, cum_us in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        root = name.split(".")[0]
        outer = all(a[1].split(".")[0] not in ("scipy", "numpy") for a in ancestors)
        if root in ("scipy", "numpy") and outer:
            totals[f"{root}_s"] += cum_us * 1e-6
        if root == "weakch":
            totals["weakch_self_s"] += self_us * 1e-6
        ancestors.append((depth, name))
    return totals


def import_split(src_dir: Path, repeats: int) -> dict[str, float]:
    """Median import split over fresh ``python -X importtime`` processes."""
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import weakch"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            check=True,
            timeout=120,
        )
        samples.append(parse_importtime(proc.stderr))
    return {key: float(np.median([s[key] for s in samples])) for key in samples[0]}
