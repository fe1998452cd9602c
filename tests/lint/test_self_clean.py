"""Tier-1 gate: the shipped source tree passes its own contracts.

This is the test the ISSUE's acceptance criteria hang off: ``repro lint``
must exit 0 over ``src/repro`` with the committed baseline/fingerprint, and
the kernel-purity rules must actually be exercised by a meaningful number
of ``@kernel``-marked hot-path functions.
"""

from repro.lint import lint_tree
from repro.lint.rules import RULE_REGISTRY


def test_shipped_tree_is_clean():
    report = lint_tree()
    details = "\n".join(
        f"{f.location()}: [{f.rule}] {f.message}" for f in report.findings
    )
    assert report.exit_code == 0, f"repro lint found fresh findings:\n{details}"


def test_kernel_coverage_floor():
    # Each marked function is a distinct live hot-path body: the traffic,
    # PHY and constellation kernels, the macro runner's inline frame
    # helpers and every protocol's request and allocation bodies.
    # Shrinking coverage below this means hot-path code lost its purity
    # contract, not that the floor is wrong.
    report = lint_tree()
    assert report.n_kernels >= 30, (
        "the kernel purity rules are only as good as their coverage: "
        f"expected >= 30 @kernel functions, found {report.n_kernels}"
    )


def test_all_contract_rules_registered():
    for rule_id in (
        "LNT000", "RNG001", "RNG002", "KRN001", "KRN002", "SCH001",
    ):
        assert rule_id in RULE_REGISTRY


def test_shipped_baseline_is_empty():
    # The tree was fixed (not grandfathered) in the PR that introduced lint;
    # regressions should be fixed or suppressed inline, not baselined away.
    report = lint_tree()
    assert report.baselined == []
