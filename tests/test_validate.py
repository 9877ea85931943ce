"""Randomized self-check suite: reproducibility and the fault path."""

import re

import numpy as np
import pytest

from bellshot import (
    OutOfRange,
    inversion,
    joint_povm,
    linalg,
    measurement,
    observables,
    validate,
    validate_all,
)
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
    # a numpy seed is admitted as the int it holds, and reported as that int
    report = validate_all(seed=np.uint64(7), trials=3)
    assert type(report.seed) is int and report == validate_all(seed=7, trials=3)


def test_fault_injection_reports_failure(corrupted_kernel):
    report = validate_all(seed=7, trials=3)
    assert not report.passed
    failed = {r.name: r.failures for r in report.results if not r.passed}
    assert sorted(failed) == ["belltests.dual_paths", "inversion.kernel", "sampler.determinism"]
    # the moved entries differ in u and v, so both marginal routes see it in every trial
    found = [re.fullmatch(r"(.+) by (\S+) in trial (\d)", message).groups()
             for message in failed["inversion.kernel"]]
    assert sorted((what, trial) for what, _, trial in found) == sorted(
        (what, trial) for trial in "012" for what in (
            "one-observable marginals differ from sharp Born values",
            "cross marginal (x, u) differs from sharp Born probabilities"))
    assert all(float(gap) > 1e-10 for _, gap, _ in found)
    # the corruption is caught where the kernel-sum route meets its closed form
    for name in ("belltests.dual_paths", "sampler.determinism"):
        (message,) = failed[name]
        assert message.startswith("raised ConsistencyError('single-shot CHSH paths disagree at "
                                  "OutcomeIndex(x=1, y=-1, u=-1, v=-1): ")


def swapped_product_elements(monkeypatch):
    original = measurement.product_povm

    def product_povm(a, b):
        product = original(a, b).copy()
        product[[0, 1]] = product[[1, 0]]
        return product

    monkeypatch.setattr(measurement, "product_povm", product_povm)


def born_traces_of_the_transpose(monkeypatch):
    original = measurement.born_traces
    monkeypatch.setattr(measurement, "born_traces",
                        lambda rho, operators: original(np.swapaxes(rho, -1, -2), operators))


def swapped_sharp_elements(monkeypatch):
    def sharp_povm(obs):
        op = obs.operator()
        return observables.SharpPovm(0.5 * (np.eye(2) - op), 0.5 * (np.eye(2) + op))

    monkeypatch.setattr(observables, "sharp_povm", sharp_povm)


def kernel_of_a_y_gamma_one_percent_small(monkeypatch):
    # the x-u cross marginal sums the y factor away; only the y marginal sees it
    original = inversion.kernel_tables
    monkeypatch.setattr(inversion, "kernel_tables",
                        lambda gammas: original(np.asarray(gammas) * [1.0, 0.99, 1.0, 1.0]))


def bloch_operator_with_y_and_z_swapped(monkeypatch):
    # a unit Bloch operator still, so every POVM builds; validate's references come from
    # belltests.PAULIS and rho's Pauli correlations, which never call bloch_operator
    def bloch_operator(n):
        n = np.asarray(n, dtype=float)
        return n[0] * linalg.SIGMA_X + n[2] * linalg.SIGMA_Y + n[1] * linalg.SIGMA_Z

    monkeypatch.setattr(observables, "bloch_operator", bloch_operator)


# mutants that keep every constructor's invariants (completeness, positivity,
# probabilities summing to 1), and the check that must still see them
@pytest.mark.parametrize("mutate,check", [
    (swapped_product_elements, "measurement.joint_povm"),
    (born_traces_of_the_transpose, "measurement.joint_povm"),
    (swapped_sharp_elements, "observables.sharp_povm"),
    (kernel_of_a_y_gamma_one_percent_small, "inversion.kernel"),
    (bloch_operator_with_y_and_z_swapped, "measurement.joint_povm"),
    (bloch_operator_with_y_and_z_swapped, "observables.sharp_povm"),
])
def test_a_mutant_the_constructors_admit_fails_its_check(monkeypatch, mutate, check):
    assert validate_all(seed=7, trials=4).passed
    mutate(monkeypatch)
    (result,) = [r for r in validate_all(seed=7, trials=4).results if r.name == check]
    assert result.checks > 0 and not result.passed, result


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
    assert report.results[2] == CheckResult("observables.sharp_povm", 0, ("raised OutOfRange('boom')",))
    assert [r.name for r in report.results[3:]] == [
        "measurement.joint_povm", "inversion.kernel", "belltests.dual_paths", "sampler.determinism"]
    assert not report.passed
