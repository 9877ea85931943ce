"""Randomized self-check suite: reproducibility and the fault path."""

import re

import numpy as np
import pytest

from bellshot import OutOfRange, joint_povm, validate, validate_all
from bellshot.validate import CheckResult, random_admissible_settings
from test_mutants import patch


def test_validate_all_passes():
    report = validate_all(seed=2024, trials=5)
    assert report.passed
    assert report.seed == 2024
    assert len(report.results) == 5
    assert report.total_checks > 0
    names = [r.name for r in report.results]
    assert len(set(names)) == len(names)
    assert report.failures() == []


def test_same_seed_reproduces_report():
    assert validate_all(seed=7, trials=3) == validate_all(seed=7, trials=3)
    # a numpy seed is admitted as the int it holds, and reported as that int
    report = validate_all(seed=np.uint64(7), trials=3)
    assert type(report.seed) is int and report == validate_all(seed=7, trials=3)


def test_fault_injection_reports_failure(monkeypatch):
    patch(monkeypatch, "corrupted_kernel")
    report = validate_all(seed=7, trials=3)
    assert not report.passed
    failed = {r.name: r.failures for r in report.results if not r.passed}
    assert sorted(failed) == ["belltests.exact_analysis", "inversion.kernel", "sampler.determinism"]
    # the corruption is caught where the kernel-sum route meets its closed form: in every
    # trial of the exact analysis, and once in each check that raises
    worst = "single-shot CHSH paths disagree at OutcomeIndex(x=1, y=-1, u=-1, v=-1): "
    found = [re.fullmatch(r"trial (\d): " + re.escape(worst) + r"(\S+) vs (\S+)", message).groups()
             for message in failed["belltests.exact_analysis"]]
    assert [trial for trial, _, _ in found] == ["0", "1", "2"]
    assert all(abs(float(first) - float(second)) > 1e-10 for _, first, second in found)
    for name in ("inversion.kernel", "sampler.determinism"):
        (message,) = failed[name]
        assert message.startswith(f"raised ConsistencyError('{worst}")


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
def test_validate_all_takes_only_unsigned_64_bit_integer_seeds(seed):
    with pytest.raises(OutOfRange):
        validate_all(seed, trials=1)


@pytest.mark.parametrize("trials", [0, -3, 2.5, True, "abc", None])
def test_validate_all_takes_only_positive_integer_trials(trials):
    # trials=0 would pass a report whose checks ran no trial
    with pytest.raises(OutOfRange, match="^trials: expected a positive integer, got "):
        validate_all(7, trials=trials)


def test_admissible_draws_build_positive_povms():
    rng = np.random.Generator(np.random.Philox(key=[71, 0]))
    for _ in range(20):
        settings, gammas = random_admissible_settings(rng)
        joint_povm(settings, gammas)  # raises NotPositive if the draw is bad
        assert all(0.0 < g <= 1.0 for g in gammas.as_tuple())


def test_check_result_passed_property():
    assert CheckResult("anything", 3).passed
    assert not CheckResult("anything", 3, ("boom",)).passed


def test_a_check_that_raises_reports_no_verdicts(monkeypatch):
    def _check_observables(rng, trials):
        yield True, ""
        raise OutOfRange("boom")

    monkeypatch.setattr(validate, "_check_observables", _check_observables)
    report = validate_all(seed=7, trials=2)
    assert report.results[1] == CheckResult("observables.sharp_povm", 0, ("raised OutOfRange('boom')",))
    assert [r.name for r in report.results[2:]] == [
        "inversion.kernel", "belltests.exact_analysis", "sampler.determinism"]
    assert not report.passed
