"""The record types: repr and == read the fields in order, as they did when the records
were frozen dataclasses, and equal records hash alike; a record is built by position or keyword; and no
attribute of a record can be set or deleted."""

import pickle

import numpy as np
import pytest

from bellshot import (
    OUTCOMES,
    ChReport,
    ChshReport,
    GammaSet,
    ObservableSpec,
    OutcomeIndex,
    QuasiDistribution,
    RngConfig,
    ShotRecord,
    Verdict,
    bell_state,
    build_kernel,
    chsh_optimal_angles,
    joint_povm,
    measurement,
    sharp_povm,
)
from bellshot.config import ExperimentConfig
from bellshot.validate import CheckResult, ValidationReport

X = ObservableSpec("x", (0.0, 0.0, 1.0))
PSI_MINUS = ("DensityMatrix(matrix=array([[ 0. +0.j,  0. +0.j,  0. -0.j,  0. +0.j],\n"
             "       [ 0. +0.j,  0.5+0.j, -0.5-0.j,  0. +0.j],\n"
             "       [ 0. +0.j, -0.5+0.j,  0.5+0.j,  0. +0.j],\n"
             "       [ 0. +0.j,  0. +0.j,  0. -0.j,  0. +0.j]]))")

# each record type built twice alike, and its repr, as the frozen dataclasses wrote them
HASHABLE = {
    "OutcomeIndex": (lambda: OutcomeIndex(1, -1, -1, 1), "OutcomeIndex(x=1, y=-1, u=-1, v=1)"),
    "GammaSet": (lambda: GammaSet(0.5, -0.25, 0.75, 1.0),
                 "GammaSet(gamma_x=0.5, gamma_y=-0.25, gamma_u=0.75, gamma_v=1.0)"),
    "RngConfig": (lambda: RngConfig(7), "RngConfig(seed=7, stream_count=1)"),
    "Verdict": (lambda: Verdict("violated", 0.5, "upper"),
                "Verdict(status='violated', margin=0.5, bound='upper')"),
    "Verdict no bound": (lambda: Verdict("satisfied", 0.25),
                         "Verdict(status='satisfied', margin=0.25, bound=None)"),
    "ShotRecord": (lambda: ShotRecord(3, OUTCOMES[5], 2.0, -0.5),
                   "ShotRecord(index=3, xi_prime=OutcomeIndex(x=1, y=-1, u=1, v=-1), s_single=2.0, "
                   "running_mean_S=-0.5)"),
    "CheckResult": (lambda: CheckResult("states", 3, ("bad",)),
                    "CheckResult(name='states', checks=3, failures=('bad',))"),
    "ValidationReport": (lambda: ValidationReport(7, (CheckResult("a", 1),)),
                         "ValidationReport(seed=7, results=(CheckResult(name='a', checks=1, failures=()),))"),
}
# the records that hold arrays, which are unhashable as the dataclasses were
WITH_ARRAYS = {
    "DensityMatrix": (lambda: bell_state("psi_minus"), PSI_MINUS),
    "ObservableSpec": (lambda: X,
                       "ObservableSpec(label=<ObservableLabel.X: 'x'>, bloch=array([0., 0., 1.]))"),
    "SharpPovm": (lambda: sharp_povm(X),
                  "SharpPovm(element_plus=array([[1.+0.j, 0.+0.j],\n       [0.+0.j, 0.+0.j]]), "
                  "element_minus=array([[0.+0.j, 0.+0.j],\n       [0.+0.j, 1.+0.j]]))"),
    "QuasiDistribution": (lambda: QuasiDistribution(np.full(16, 1 / 16)),
                          "QuasiDistribution(entries=array([" + ", ".join(["0.0625"] * 8) + ",\n       "
                          + ", ".join(["0.0625"] * 8) + "]))"),
    "ChshReport": (lambda: ChshReport(np.zeros(2), 0.5, np.ones(2)),
                   "ChshReport(s_values=array([0., 0.]), ensemble_S=0.5, single_shot_S=array([1., 1.]))"),
    "ChReport": (lambda: ChReport(np.zeros(2), np.ones(2)),
                 "ChReport(single_shot_C=array([0., 0.]), ensemble_C=array([1., 1.]))"),
}


def composed(make):
    """A record holding records, and its repr composed from theirs, field by field."""
    def build():
        record = make()
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(record).items())
        return record, f"{type(record).__name__}({fields})"
    return build


COMPOSED = {
    "ObservableSet": composed(chsh_optimal_angles),
    "JointPovm": composed(lambda: joint_povm(chsh_optimal_angles(), GammaSet.equal(0.5))),
    "InversionKernel": composed(lambda: build_kernel(GammaSet.equal(1.0))),
    "ExperimentConfig": composed(
        lambda: ExperimentConfig.from_dict({"state": {"bell": "phi_plus"}, "gammas": 0.5})),
}


def built(name):
    if name in COMPOSED:
        return COMPOSED[name]()
    make, text = {**HASHABLE, **WITH_ARRAYS}[name]
    return make(), text


ALL = [*HASHABLE, *WITH_ARRAYS, *COMPOSED]


@pytest.mark.parametrize("name", ALL)
def test_repr_is_the_frozen_dataclass_text(name):
    record, text = built(name)
    assert repr(record) == text
    assert str(record) == text


def test_composed_reprs_list_every_field_in_order():
    assert [list(vars(built(name)[0])) for name in COMPOSED] == [
        ["x", "y", "u", "v"],
        ["gammas", "subsystem_a", "subsystem_b", "product"],
        ["gammas", "table"],
        ["state", "settings", "gammas", "shots", "seed", "stream_count"],
    ]
    assert repr(built("ObservableSet")[0]).startswith(
        "ObservableSet(x=ObservableSpec(label=<ObservableLabel.X: 'x'>, bloch=array([0., 0., 1.])), y=")


@pytest.mark.parametrize("name", HASHABLE)
def test_equal_records_are_equal_and_hash_alike(name):
    make, _ = HASHABLE[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert a != tuple(vars(a).values())  # a record equals only a record of its own type
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("name", [*WITH_ARRAYS, *COMPOSED])
def test_a_record_holding_arrays_is_unhashable(name):
    record, _ = built(name)
    with pytest.raises(TypeError, match="unhashable type: 'numpy.ndarray'"):
        hash(record)
    assert record == record  # each field is itself


def test_records_that_callers_compare_and_look_up():
    # measurement's index lookup keys on OutcomeIndex; GammaSets and CheckResults compare by value
    shots = [OutcomeIndex(1, -1, -1, 1), OutcomeIndex(-1, -1, -1, -1)]
    assert measurement.as_indices(shots).tolist() == [6, 15]
    assert {OutcomeIndex(1, -1, -1, 1): "six"}[OUTCOMES[6]] == "six"
    assert GammaSet.equal(0.5) == GammaSet(0.5, 0.5, 0.5, 0.5) != GammaSet.equal(0.6)
    assert GammaSet(np.float64(0.5), 0.5, 0.5, 0.5) == GammaSet.equal(0.5)
    assert CheckResult("a", 1) == CheckResult("a", 1, ()) != CheckResult("a", 2)
    assert Verdict("satisfied", 0.0) != CheckResult("satisfied", 0.0)


@pytest.mark.parametrize("name", ALL)
def test_no_attribute_of_a_record_can_be_set_or_deleted(name):
    record, text = built(name)
    field = next(iter(vars(record)))
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert repr(record) == text


def test_records_are_built_by_position_or_keyword():
    assert Verdict(status="violated", margin=0.5, bound="upper") == Verdict("violated", 0.5, "upper")
    assert RngConfig(seed=3, stream_count=2) == RngConfig(3, 2)
    assert OutcomeIndex(v=1, u=-1, y=-1, x=1) == OUTCOMES[6]
    for bad in (lambda: Verdict("satisfied"), lambda: Verdict("satisfied", 0.0, None, 1),
                lambda: RngConfig(1, seed=2), lambda: RngConfig(1, streams=2)):
        with pytest.raises(TypeError):
            bad()


def test_verdict_as_dict_leaves_out_an_absent_bound():
    violated = {"status": "violated", "margin": 0.5, "bound": "upper"}
    assert Verdict("violated", 0.5, "upper").as_dict() == violated
    assert list(Verdict("violated", 0.5, "upper").as_dict()) == ["status", "margin", "bound"]
    assert Verdict("satisfied", 0.25).as_dict() == {"status": "satisfied", "margin": 0.25}
