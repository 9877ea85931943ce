"""Randomized self-checks over every module's invariants.

Each check draws its own inputs from a generator keyed by (seed, check
index), so any reported failure can be reproduced exactly by rerunning
with the echoed seed. The analysis that `exact` and `run` make is checked
by running it, route checks included, on random inputs; the other checks
cover what no command checks.
"""

from __future__ import annotations

import numpy as np

from . import belltests, inversion, linalg, measurement, observables, sampler, states
from .errors import BellshotError, ConsistencyError, fill, record


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


@record
class CheckResult:
    def __init__(self, name: str, checks: int, failures: tuple[str, ...] = ()):
        fill(self, name, checks, failures)

    @property
    def passed(self) -> bool:
        return not self.failures


@record
class ValidationReport:
    def __init__(self, seed: int, results: tuple[CheckResult, ...]):
        fill(self, seed, results)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def total_checks(self) -> int:
        return sum(r.checks for r in self.results)

    def failures(self) -> list[str]:
        return [f"{r.name}: {msg}" for r in self.results for msg in r.failures]


def _verdict(passed, message):
    """(passed, message()), or (passed, "") for a check that passes: a failure message
    is formatted only when its check fails, and before the check moves on."""
    return passed, "" if passed else message()


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
        # n.sigma from belltests.PAULIS, not from bloch_operator, which sharp_povm calls
        vecs = np.linalg.eigh(np.tensordot(n, belltests.PAULIS[1:], axes=1))[1]
        plus = np.outer(vecs[:, 1], vecs[:, 1].conj())  # eigh sorts the +1 eigenvalue last
        yield _verdict(np.abs(povm.element_plus - plus).max() <= linalg.PROJECTOR_TOL,
                       lambda: f"sharp POVM for {n} is not the +1 eigenprojector of n.sigma")


def _check_inversion(rng, trials):
    """The commands' kernel table applied to their product POVM, marginalized by PAIR_MARGINALS:
    each A-B pair's operators must be kron(P_a(w_a), P_b(w_b)), P_n(w) = (I + w n.sigma) / 2."""
    for _ in range(trials):
        settings, gammas = random_admissible_settings(rng)
        product = measurement.joint_povm(settings, gammas).product
        inverted = np.tensordot(inversion.build_kernel(gammas).table, product, axes=1)  # K @ E, (16, 4, 4)
        pairs = np.tensordot(measurement.PAIR_MARGINALS, inverted, axes=(0, 0)).reshape(4, 2, 2, 4, 4)
        # n.sigma from belltests.PAULIS, not from bloch_operator, which joint_povm calls
        ops = np.tensordot([settings.get(label).bloch for label in "xyuv"], belltests.PAULIS[1:], axes=1)
        sharp = {label: [0.5 * (linalg.I2 + w * op) for w in measurement.SIGNS]
                 for label, op in zip("xyuv", ops)}
        for (a, b), pair in zip(("xu", "xv", "yu", "yv"), pairs):
            gap = np.abs(pair - [[np.kron(pa, pb) for pb in sharp[b]] for pa in sharp[a]]).max()
            yield _verdict(gap <= linalg.PROJECTOR_TOL,
                           lambda: f"inverted POVM's ({a}, {b}) marginal is {gap:.3e} off its projectors")
    gamma = float(rng.uniform(0.4, 0.7))
    kernel = inversion.build_kernel(measurement.GammaSet.equal(gamma))
    values = np.abs(belltests.single_shot_chsh_table(kernel))
    yield _verdict(np.abs(values - 2.0 / gamma**2).max() <= linalg.BOUNDARY_TOL,
                   lambda: f"equal-gamma single-shot magnitude != 2/gamma^2 at {gamma}")


def _check_analysis(rng, trials):
    """exact's analysis, route checks included, of random admissible settings and a random
    state: a ConsistencyError fails that trial alone."""
    for trial in range(trials):
        settings, gammas = random_admissible_settings(rng)
        try:
            belltests.exact_analysis(states.random_density_matrix(rng), settings, gammas)
        except ConsistencyError as exc:
            yield False, f"trial {trial}: {exc}"
        else:
            yield True, ""


def _check_sampler(rng, trials):
    settings, gammas = random_admissible_settings(rng)
    kernel, observed, *_ = belltests.exact_analysis(states.random_density_matrix(rng), settings, gammas)
    seed = int(rng.integers(2**32))
    cfg = sampler.RngConfig(seed=seed, stream_count=3)
    first = sampler.sample_indices(observed, 200, cfg)
    second = sampler.sample_indices(observed, 200, cfg)
    yield _verdict(np.array_equal(first, second),
                   lambda: f"resampling with seed {seed} not reproducible")
    # two routes from the same shots to an ensemble value must agree
    freqs = sampler.empirical_frequencies(first)
    via_quasi = belltests.ensemble_chsh(inversion.invert_distribution(kernel, freqs))
    via_mean = sampler.convergence_report(kernel, first)["mean_S"]
    yield abs(via_quasi - via_mean) <= linalg.DUAL_PATH_TOL, "frequency inversion and shot average disagree"


def validate_all(seed: int, trials: int = sampler.DEFAULT_TRIALS) -> ValidationReport:
    """Run every module's randomized invariant suite under one seed. Each
    check yields one (passed, message) pair per invariant it tests, and a
    constructor that enforces its own invariants passes once it returns. trials below
    1 raise OutOfRange, since checks that ran no trial would pass vacuously."""
    trials = sampler.checked_integer("trials", trials)
    checks = [
        ("states.density_matrices", _check_states),
        ("observables.sharp_povm", _check_observables),
        ("inversion.kernel", _check_inversion),
        ("belltests.exact_analysis", _check_analysis),
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
