"""Randomized self-checks over every module's invariants.

Each check draws its own inputs from a generator keyed by (seed, check
index), so any reported failure can be reproduced exactly by rerunning
with the echoed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import belltests, inversion, linalg, measurement, observables, sampler, states
from .errors import BellshotError

DEFAULT_TRIALS = 25


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_admissible_settings(rng: np.random.Generator):
    """Random observables plus gammas for which the joint POVM is positive.

    Positivity of a subsystem pair needs the worst-case Bloch norm
    sqrt(g1^2 + g2^2 + 2 g1 g2 |n1.n2|) to stay at most 1, so drawn gamma
    pairs are scaled down to just inside that ball.
    """
    blochs = [random_unit_vector(rng) for _ in range(4)]
    gammas = list(rng.uniform(0.3, 0.95, size=4))
    for i, j in ((0, 1), (2, 3)):
        overlap = abs(float(blochs[i] @ blochs[j]))
        worst = np.sqrt(gammas[i] ** 2 + gammas[j] ** 2 + 2.0 * gammas[i] * gammas[j] * overlap)
        if worst > 1.0:
            scale = (1.0 - 1e-9) / worst
            gammas[i], gammas[j] = gammas[i] * scale, gammas[j] * scale
    settings = observables.observable_set(*blochs)
    return settings, measurement.GammaSet(*gammas)


@dataclass(frozen=True)
class CheckResult:
    name: str
    checks: int
    failures: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class ValidationReport:
    seed: int
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def total_checks(self) -> int:
        return sum(r.checks for r in self.results)

    def failures(self) -> list[str]:
        return [f"{r.name}: {msg}" for r in self.results for msg in r.failures]


def _random_case(rng):
    """Random admissible settings and a random state: the settings, kernel,
    joint POVM, state and observed statistics, drawn in that order."""
    settings, gammas = random_admissible_settings(rng)
    kernel = inversion.build_kernel(gammas)
    povm = measurement.joint_povm(settings, gammas)
    rho = states.random_density_matrix(rng)
    return settings, kernel, povm, rho, measurement.observed_statistics(rho, povm)


def _n_sigma(n) -> np.ndarray:
    """n . sigma from belltests.PAULIS: a reference that does not call bloch_operator,
    which the checked constructors do."""
    return np.tensordot(n, belltests.PAULIS[1:], axes=1)


def _verdict(passed, message):
    """(passed, message()), or (passed, "") for a check that passes: a failure message
    is formatted only when its check fails, and before the check moves on."""
    return passed, "" if passed else message()


def _check_linalg(rng, trials):
    for _ in range(trials):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g + g.conj().T
        vals = linalg.eigvals_hermitian(m)
        # eigenvalues must reproduce the trace and the Frobenius norm
        yield _verdict(abs(vals.sum() - np.trace(m).real) <= linalg.DUAL_PATH_TOL,
                       lambda: f"eigenvalue sum != trace for {m!r}")
        yield _verdict(abs((vals**2).sum() - np.trace(m @ m).real) <= linalg.DUAL_PATH_TOL,
                       lambda: f"eigenvalue squares != tr(m^2) for {m!r}")
        yield np.all(np.diff(vals) >= 0.0), "eigenvalues not sorted"


def _check_states(rng, trials):
    for _ in range(trials):
        rho = states.random_density_matrix(rng)
        purity = linalg.trace_product(rho.matrix, rho.matrix).real
        yield _verdict(0.25 - linalg.TRACE_TOL <= purity <= 1.0 + linalg.TRACE_TOL,
                       lambda: f"purity {purity} outside [1/4, 1]")
    for which in states.BellState:
        rho = states.bell_state(which)
        purity = linalg.trace_product(rho.matrix, rho.matrix).real
        yield _verdict(abs(purity - 1.0) <= linalg.TRACE_TOL,
                       lambda: f"{which.value} not pure: purity {purity}")
    eta = float(rng.uniform(0.0, 1.0))
    states.werner_state(eta)  # constructor enforces PSD/trace
    yield True, ""


def _check_observables(rng, trials):
    for _ in range(trials):
        n = random_unit_vector(rng)
        povm = observables.sharp_povm(observables.ObservableSpec("x", n))
        vecs = np.linalg.eigh(_n_sigma(n))[1]
        plus = np.outer(vecs[:, 1], vecs[:, 1].conj())  # eigh sorts the +1 eigenvalue last
        yield _verdict(np.abs(povm.element_plus - plus).max() <= linalg.PROJECTOR_TOL,
                       lambda: f"sharp POVM for {n} is not the +1 eigenprojector of n.sigma")


def _check_measurement(rng, trials):
    for _ in range(trials):
        settings, gammas = random_admissible_settings(rng)
        povm = measurement.joint_povm(settings, gammas)
        total = povm.product.sum(axis=0)
        yield (np.abs(total - np.eye(4)).max() <= linalg.COMPLETENESS_TOL,
               "16 joint elements do not sum to identity")
        # marginal of the joint must be the unsharp single-observable element
        label = observables.ObservableLabel(["x", "y", "u", "v"][rng.integers(4)])
        w = 1 if rng.random() < 0.5 else -1
        got = povm.marginal_element(label, w)
        n = settings.get(label).bloch
        expected = 0.5 * (np.eye(2) + gammas.of(label) * w * _n_sigma(n))
        yield _verdict(np.abs(got - expected).max() <= linalg.COMPLETENESS_TOL,
                       lambda: f"marginal element mismatch for {label.value}, w={w}")
        rho = states.random_density_matrix(rng)
        probs = measurement.observed_statistics(rho, povm)
        # each A-B pair marginal of p against its Born values, from rho's Pauli correlations
        # and the Bloch vectors: no POVM, no bloch_operator
        c = belltests.pauli_correlations(rho.matrix)
        m = probs.reshape(2, 2, 2, 2)  # axes x, y, u, v; index 0 for +1
        gap = max(np.abs(m.sum(axis=(1 - a, 3 - b)) - belltests.pair_probabilities(
            c, settings.get(ka).bloch, settings.get(kb).bloch, gammas.of(ka), gammas.of(kb))).max()
            for a, ka in enumerate("xy") for b, kb in enumerate("uv"))
        yield _verdict(gap <= linalg.DUAL_PATH_TOL,
                       lambda: f"A-B pair marginals differ from Born values by {float(gap)!r}")


def _check_inversion(rng, trials):
    for trial in range(trials):
        settings, kernel, povm, rho, observed = _random_case(rng)
        q = inversion.invert_distribution(kernel, observed)
        # each one-observable marginal against the sharp Born value (1 + n.r) / 2, with r the
        # local Bloch vector: column 0 of rho's Pauli correlations on A, row 0 on B. The Born
        # values here read no POVM, kernel or bloch_operator
        c = belltests.pauli_correlations(rho.matrix)
        local = {"x": c[1:, 0], "y": c[1:, 0], "u": c[0, 1:], "v": c[0, 1:]}
        gap = np.max([abs(inversion.single_marginal(q, key)[0]
                          - 0.5 * (1.0 + settings.get(key).bloch @ local[key])) for key in "xyuv"])
        yield _verdict(gap <= linalg.DUAL_PATH_TOL, lambda: f"one-observable marginals differ "
                       f"from sharp Born values by {float(gap)!r} in trial {trial}")
        for label in observables.ObservableLabel:
            inversion.reconstructed_sharp_povm(kernel, povm, label)
            yield True, ""
        # cross marginals must be genuine sharp-measurement statistics
        direct = belltests.pair_probabilities(c, settings.x.bloch, settings.u.bloch)
        gap = np.abs(inversion.cross_marginal(q, ("x", "u")) - direct).max()
        yield _verdict(gap <= linalg.DUAL_PATH_TOL, lambda: f"cross marginal (x, u) differs "
                       f"from sharp Born probabilities by {float(gap)!r} in trial {trial}")


def _check_belltests(rng, trials):
    for _ in range(trials):
        _, kernel, _, _, observed = _random_case(rng)
        quasi = inversion.invert_distribution(kernel, observed)
        # report constructors run the dual-path assertions internally
        belltests.chsh_report(kernel, observed, quasi)
        yield True, ""
        belltests.ch_report(kernel, observed, quasi)
        yield True, ""
    gamma = float(rng.uniform(0.4, 0.7))
    kernel = inversion.build_kernel(measurement.GammaSet.equal(gamma))
    values = np.abs(belltests.single_shot_chsh_table(kernel))
    yield _verdict(np.abs(values - 2.0 / gamma**2).max() <= linalg.BOUNDARY_TOL,
                   lambda: f"equal-gamma single-shot magnitude != 2/gamma^2 at {gamma}")


def _check_sampler(rng, trials):
    _, kernel, _, _, observed = _random_case(rng)
    seed = int(rng.integers(2**32))
    cfg = sampler.RngConfig(seed=seed, stream_count=3)
    first = sampler.sample_indices(observed, 200, cfg)
    second = sampler.sample_indices(observed, 200, cfg)
    yield _verdict(np.array_equal(first, second),
                   lambda: f"resampling with seed {seed} not reproducible")
    # two routes from the same shots to an ensemble value must agree
    freqs = sampler.empirical_frequencies(first)
    via_quasi = belltests.ensemble_chsh(inversion.invert_distribution(kernel, freqs))
    via_mean = belltests.ensemble_from_shots(kernel, first)
    yield abs(via_quasi - via_mean) <= linalg.DUAL_PATH_TOL, "frequency inversion and shot average disagree"


def validate_all(seed: int, trials: int = DEFAULT_TRIALS) -> ValidationReport:
    """Run every module's randomized invariant suite under one seed. Each
    check yields one (passed, message) pair per invariant it tests, and a
    constructor that enforces its own invariants passes once it returns. trials below
    1 raise OutOfRange, since checks that ran no trial would pass vacuously."""
    trials = sampler.checked_integer("trials", trials)
    checks = [
        ("linalg.eigvals_hermitian", _check_linalg),
        ("states.density_matrices", _check_states),
        ("observables.sharp_povm", _check_observables),
        ("measurement.joint_povm", _check_measurement),
        ("inversion.kernel", _check_inversion),
        ("belltests.dual_paths", _check_belltests),
        ("sampler.determinism", _check_sampler),
    ]
    streams = sampler.RngConfig(seed, len(checks))
    results = []
    for index, (name, check) in enumerate(checks):
        try:
            verdicts = list(check(streams.generator(index), trials))
        except BellshotError as exc:
            results.append(CheckResult(name, 0, (f"raised {exc!r}",)))
            continue
        failures = tuple(message for passed, message in verdicts if not passed)
        results.append(CheckResult(name, len(verdicts), failures))
    return ValidationReport(seed=streams.seed, results=tuple(results))
