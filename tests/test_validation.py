import re
import time

import pytest

from ctdhedge.validation import (
    OPERATIONS,
    _REGISTRY,
    _case,
    case_ids,
    run_case,
    run_suite,
    write_report,
)


def test_every_operation_is_covered():
    covered = set()
    for claim, ops, fn in _REGISTRY.values():
        covered.update(ops)
    assert set(OPERATIONS) <= covered


def test_coverage_case_passes():
    result = run_case("x05_operation_coverage")
    assert result.passed


def test_filter_selects_matching_cases():
    report = run_suite("x05")
    assert [c.case_id for c in report] == ["x05_operation_coverage"]


def test_case_ids_are_sorted_and_unique():
    ids = case_ids()
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))


def test_report_writer(tmp_path):
    report = run_suite("x05")
    write_report(report, tmp_path)
    csv = (tmp_path / "acceptance_report.csv").read_text()
    txt = (tmp_path / "acceptance_report.txt").read_text()
    assert csv.splitlines()[0] == "case,passed,elapsed_seconds,claim,summary"
    assert "x05_operation_coverage" in csv
    assert "PASS" in txt or "FAIL" in txt


@pytest.fixture
def throwaway_case():
    """Register `zz_throwaway` for one test: the harness builds its result."""
    def register(verdict, sleep_s=0.0, limit_s=None):
        @_case("zz_throwaway", "a claim made only here", ("simulate",), limit_s=limit_s)
        def _zz():
            time.sleep(sleep_s)
            return verdict, "measured"

    yield register
    _REGISTRY.pop("zz_throwaway", None)


@pytest.mark.parametrize("verdict, sleep_s, limit_s, passed, summary", [
    (True, 0.0, 60, True, r"measured; \d+\.\ds \(limit 60s\)"),
    (True, 0.05, 0.01, False, r"measured; 0\.\ds \(limit 0\.01s\)"),
    (False, 0.0, 60, False, r"measured; \d+\.\ds \(limit 60s\)"),
    (True, 0.0, None, True, "measured"),
])
def test_registration_times_the_case_and_builds_its_result(
    throwaway_case, verdict, sleep_s, limit_s, passed, summary
):
    throwaway_case(verdict, sleep_s, limit_s)
    result = run_case("zz_throwaway")
    assert (result.case_id, result.claim, result.operations) == (
        "zz_throwaway", "a claim made only here", ("simulate",))
    assert result.passed is passed
    assert re.fullmatch(summary, result.summary)
    assert result.elapsed >= sleep_s
