"""Verification runner: determinism, coverage, and failure reporting."""

import re
import time

import pytest

from qrd.errors import BadParamsError
from qrd.verify import SUITES, run_suite


def test_unknown_suite_rejected():
    with pytest.raises(BadParamsError):
        run_suite("nope", 1, 0)
    with pytest.raises(BadParamsError):
        run_suite("alt", 0, 0)


def test_negative_seed_rejected():
    with pytest.raises(BadParamsError, match="seed"):
        run_suite("alt", 1, -1)


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


def test_runner_stamps_suite_case_and_wall_time():
    case_grammar = re.compile(r"fixed/.+|trial-\d{4}(/.+)?")
    for name in SUITES:
        t0 = time.perf_counter()
        records = run_suite(name, 2, 5)
        elapsed = time.perf_counter() - t0
        assert all(r.suite == name for r in records), name
        bad_cases = [r.case for r in records if not case_grammar.fullmatch(r.case)]
        assert not bad_cases, f"{name}: {bad_cases}"
        assert all(r.wall_time >= 0.0 for r in records), name
        assert sum(r.wall_time for r in records) <= elapsed, name
