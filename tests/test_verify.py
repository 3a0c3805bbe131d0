"""Verification runner: determinism, coverage, and failure reporting."""

import pytest

from qrd.errors import BadParamsError
from qrd.verify import SUITES, run_suite


def test_unknown_suite_rejected():
    with pytest.raises(BadParamsError):
        run_suite("nope", 1, 0)
    with pytest.raises(BadParamsError):
        run_suite("alt", 0, 0)


def test_all_suites_pass_a_smoke_trial():
    for name in SUITES:
        records = run_suite(name, 1, 4242)
        assert records, name
        bad = [r for r in records if not r.ok]
        assert not bad, f"{name}: {[r.detail for r in bad]}"


def test_records_are_deterministic():
    first = run_suite("alt", 2, 7)
    second = run_suite("alt", 2, 7)
    assert [(r.case, r.digest, r.ok, r.detail) for r in first] == [
        (r.case, r.digest, r.ok, r.detail) for r in second
    ]


def test_seed_changes_instances():
    a = run_suite("families", 1, 1)
    b = run_suite("families", 1, 2)
    digests_a = {r.digest for r in a if "trial" in r.case}
    digests_b = {r.digest for r in b if "trial" in r.case}
    assert digests_a != digests_b


def test_trial_extension_is_prefix_stable():
    short = run_suite("nszkola", 2, 31)
    long = run_suite("nszkola", 3, 31)
    short_cases = [(r.case, r.digest) for r in short]
    assert [(r.case, r.digest) for r in long[: len(short)]] == short_cases
