"""Every golden case must reproduce its committed digest exactly.

The records live in ``baselines.json``; ``tests/golden/record.py`` explains
what a digest covers and how to refresh the file after a deliberate change.
"""

import pytest

from tests.golden.record import CASES, KEY_METRICS, digest, load_baselines, run_case, versions

BASELINES = load_baselines()


def _mismatch_report(record, metrics) -> str:
    """Each key metric's recorded and actual value, plus both version pairs."""
    lines = [f"{record['key']}: digest {record['digest'][:16]}... no longer matches"]
    for name in KEY_METRICS:
        recorded = record["metrics"][name]
        actual = metrics[name]
        if recorded:
            delta = f"rel. delta {(actual - recorded) / abs(recorded):+.3e}"
        else:
            delta = f"abs. delta {actual - recorded:+.3e}"
        lines.append(
            f"  {name:<26} recorded {recorded!r:<24} actual {actual!r:<24} {delta}"
        )
    recorded_versions, running = record["versions"], versions()
    lines.append(
        f"  recorded with numpy {recorded_versions['numpy']}, scipy "
        f"{recorded_versions['scipy']}; running numpy {running['numpy']}, "
        f"scipy {running['scipy']}"
    )
    return "\n".join(lines)


def test_every_case_has_a_record():
    assert sorted(BASELINES) == sorted(case.key for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=[case.key for case in CASES])
def test_digest_matches_baseline(case):
    record = BASELINES[case.key]
    content, metrics = run_case(case)
    assert digest(content) == record["digest"], _mismatch_report(record, metrics)


def test_macro_digests_agree():
    """Macro stepping never changes a result, in either RNG mode: every
    cell's macro-64 record carries its per-frame record's digest."""
    pairs = [
        (key, key.replace("/macro1/", "/macro64/"))
        for key in BASELINES
        if key.startswith("cell/") and "/macro1/" in key
    ]
    assert 2 * len(pairs) == sum(case.key.startswith("cell/") for case in CASES)
    for per_frame, macro in pairs:
        assert BASELINES[macro]["digest"] == BASELINES[per_frame]["digest"], macro
