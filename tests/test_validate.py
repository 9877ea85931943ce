"""Randomized self-check suite: reproducibility and the fault path."""

import numpy as np
import pytest

from bellshot import OutOfRange, joint_povm, validate, validate_all
from bellshot.validate import CheckResult, random_admissible_settings


def test_validate_all_passes():
    report = validate_all(seed=2024, trials=5)
    assert report.passed
    assert report.seed == 2024
    assert len(report.results) == 7
    assert report.total_checks > 0
    names = [r.name for r in report.results]
    assert len(set(names)) == len(names)
    assert report.failures() == []


def test_same_seed_reproduces_report():
    assert validate_all(seed=7, trials=3) == validate_all(seed=7, trials=3)


def test_fault_injection_reports_failure():
    report = validate_all(seed=7, trials=3, inject_fault=True)
    assert not report.passed
    assert report.results[-1].name == "inversion.fault_injection"
    messages = report.failures()
    assert messages
    # the corruption must actually be caught, not slip through
    assert any("as expected" in m for m in messages)
    assert all(m.startswith("inversion.fault_injection:") for m in messages)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
def test_validate_all_takes_only_unsigned_64_bit_integer_seeds(seed):
    with pytest.raises(OutOfRange):
        validate_all(seed, trials=1)


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
    assert report.results[2] == CheckResult("_check_observables", 0, ("raised OutOfRange('boom')",))
    assert [r.name for r in report.results[3:]] == [
        "measurement.joint_povm", "inversion.kernel", "belltests.dual_paths", "sampler.determinism"]
    assert not report.passed
