"""Per-rule good/bad fixture coverage.

Each bad fixture must fail lint (non-zero exit) with at least one finding
from its rule; each good fixture must stay clean.  Fixture trees live under
``tests/lint/fixtures/`` and are parsed, never imported.
"""

from pathlib import Path

import pytest

from repro.lint import lint_tree

FIXTURES = Path(__file__).parent / "fixtures"


def run_fixture(name: str, **kwargs):
    return lint_tree(root=FIXTURES / name, **kwargs)


def rules_hit(report):
    return {finding.rule for finding in report.findings}


@pytest.mark.parametrize(
    "fixture, rule, n_expected",
    [
        ("rng001_bad", "RNG001", 4),
        ("rng002_bad", "RNG002", 1),
        ("krn001_bad", "KRN001", 3),
        ("krn002_bad", "KRN002", 3),
        ("krn002_obs_bad", "KRN002", 3),
        ("flt001_bad", "FLT001", 3),
    ],
)
def test_bad_fixture_fails(fixture, rule, n_expected):
    report = run_fixture(fixture)
    hits = [f for f in report.findings if f.rule == rule]
    assert report.exit_code == 1
    assert len(hits) == n_expected, [f.message for f in report.findings]


@pytest.mark.parametrize(
    "fixture",
    [
        "rng001_good", "rng002_good", "krn001_good", "krn002_good",
        "flt001_good",
    ],
)
def test_good_fixture_is_clean(fixture):
    report = run_fixture(fixture)
    details = [f"{f.location()}: [{f.rule}] {f.message}" for f in report.findings]
    assert report.exit_code == 0, details


def test_rng001_sanctuary_and_alias_resolution():
    bad = run_fixture("rng001_bad")
    messages = " ".join(f.message for f in bad.findings)
    # The aliased call, the bare import, and the legacy draw all resolve to
    # their canonical numpy.random names.
    assert "numpy.random.default_rng" in messages
    assert "numpy.random.uniform" in messages
    good = run_fixture("rng001_good")
    # sim/rng.py calls default_rng but is the sanctuary module.
    assert rules_hit(good) == set()


def test_rng002_cites_the_first_site():
    report = run_fixture("rng002_bad")
    (finding,) = [f for f in report.findings if f.rule == "RNG002"]
    assert "mod.py:5" in finding.message
    assert finding.line == 9


def test_krn001_only_applies_to_marked_kernels():
    report = run_fixture("krn001_good")
    # `unmarked` has a gated draw but no @kernel decorator.
    assert "KRN001" not in rules_hit(report)


def test_krn002_obs_clock_is_the_only_timing_path():
    # The good fixture times through repro.obs.clock and bumps a metrics
    # counter inside a kernel — both legal.
    report = run_fixture("krn002_good")
    assert "KRN002" not in rules_hit(report)
    bad = run_fixture("krn002_bad")
    timer_findings = [
        f for f in bad.findings if "time.perf_counter" in f.message
    ]
    assert len(timer_findings) == 1
    assert "timed_step" in timer_findings[0].message


def test_krn002_flags_spans_and_obs_clock_inside_kernels():
    report = run_fixture("krn002_obs_bad")
    by_symbol = {f.symbol: f.message for f in report.findings}
    assert "repro.obs.clock" in by_symbol["raw_timer_glue"]
    assert "repro.obs.span" in by_symbol["spanned_step"]
    assert "repro.obs.clock.now" in by_symbol["clocked_step"]
    # Kernel sites name the purity contract, glue sites name the sanctuary.
    assert "outside kernel bodies" in by_symbol["spanned_step"]
    assert "sanctuary" in by_symbol["raw_timer_glue"]


def test_rule_subset_selection():
    report = run_fixture("krn002_bad", rules=["RNG001"])
    assert report.findings == []
    with pytest.raises(KeyError):
        run_fixture("krn002_bad", rules=["NOPE999"])
