"""Contract-aware static analysis for the simulation engine.

The engine's headline guarantees — bit-identical parity between per-frame
and macro-stepped runs, and deterministic per-seed fast-mode
streams — rest on *source-level* contracts that no runtime check sees until
an expensive parity sweep diverges:

* every random draw must flow from :class:`repro.sim.rng.RandomStreams`
  (one stray ``np.random.default_rng()`` silently forks the stream);
* fast-mode child-stream labels must be unique per subsystem, or two draw
  sites share (and therefore correlate) a stream;
* hot-path kernels must stay *pure*: no wall-clock reads, no RNG draws
  whose occurrence depends on data-dependent branches, no iteration over
  unordered containers;
* any change to the :class:`~repro.sim.scenario.Scenario` or
  :class:`~repro.config.SimulationParameters` field set must bump the
  result-store ``SCHEMA_VERSION``.

This package enforces those contracts at lint time with a stdlib-``ast``
analyzer (no third-party dependencies): a rule registry
(:mod:`repro.lint.rules`), inline suppressions (``# lint: allow[RULE]``),
a committed baseline for grandfathered findings
(:mod:`repro.lint.baseline`) and text/JSON reporters
(:mod:`repro.lint.reporters`).  Run it as ``python -m repro lint``; the
tier-1 suite gates on a clean tree via ``tests/lint/test_self_clean.py``.
"""

from repro.lint.analyzer import Project, SourceModule, load_project
from repro.lint.contracts import KERNEL_ATTR, is_kernel, kernel
from repro.lint.findings import Finding, SEVERITIES
from repro.lint.runner import (
    LintReport,
    default_baseline_path,
    default_fingerprint_path,
    default_root,
    lint_tree,
    update_baseline,
)

__all__ = [
    "Finding",
    "KERNEL_ATTR",
    "LintReport",
    "Project",
    "SEVERITIES",
    "SourceModule",
    "default_baseline_path",
    "default_fingerprint_path",
    "default_root",
    "is_kernel",
    "kernel",
    "lint_tree",
    "load_project",
    "update_baseline",
]
