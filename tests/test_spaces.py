import dataclasses
import math

import numpy as np
import pytest

from weakch.spaces import (
    EmptySpace,
    ForeignEvent,
    BadPartition,
    FiniteProbSpace,
    NegativeWeight,
    ResidualReport,
    WeakChError,
    prob,
    screening_residuals,
    space_from_dict,
    space_to_dict,
)
from weakch.common_cause import pairwise_model_to_dict, random_screened_model


def test_single_atom_space():
    sp = FiniteProbSpace((0,), [1.0])
    assert sp.weights.tolist() == [1.0]
    assert prob(sp, {0}) == 1.0


def test_two_even_atoms():
    sp = FiniteProbSpace((0, 1), [0.5, 0.5])
    assert sp.weights.tolist() == [0.5, 0.5]


def test_construction_normalizes():
    sp = FiniteProbSpace((0, 1), [2.0, 2.0])
    assert sp.weights.tolist() == [0.5, 0.5]
    assert abs(math.fsum(sp.weights.tolist()) - 1.0) <= 1e-12


def test_normalizing_is_idempotent():
    # a divided total is often an ulp off one; dividing by it again would move weights
    off_one = 0
    for seed in range(20):
        sp = FiniteProbSpace(range(50), np.random.default_rng(seed).uniform(0.0, 1.0, 50))
        again = FiniteProbSpace(sp.atoms, sp.weights)
        assert again.weights.tobytes() == sp.weights.tobytes()
        off_one += math.fsum(sp.weights.tolist()) != 1.0
    assert off_one > 0


def test_space_keeps_its_own_copy_of_the_weights():
    for raw in (np.array([1.0, 3.0]), np.array([0.25, 0.75])):  # divided, and kept as it is
        sp = FiniteProbSpace((0, 1), raw)
        expected = sp.weights.tolist()
        raw[0] = 5.0
        assert sp.weights.tolist() == expected == [0.25, 0.75]
        assert not sp.weights.flags.writeable and raw.flags.writeable


def test_empty_and_negative_inputs():
    with pytest.raises(EmptySpace):
        FiniteProbSpace((), [])
    with pytest.raises(EmptySpace):
        FiniteProbSpace((0, 1), [0.0, 0.0])
    with pytest.raises(NegativeWeight):
        FiniteProbSpace((0, 1), [0.5, -0.1])
    with pytest.raises(NegativeWeight):
        FiniteProbSpace((0, 1), [0.5, math.nan])
    with pytest.raises(EmptySpace):
        FiniteProbSpace((0, 1), [0.5, math.inf])
    with pytest.raises(EmptySpace, match="total mass must be positive and finite"):
        FiniteProbSpace(("a", "b"), [1e308, 1e308])  # each weight finite, their total not


def test_atom_labels_must_be_unique():
    with pytest.raises(WeakChError, match="^atom labels must be unique$"):
        FiniteProbSpace(("x", "y", "x"), [0.2, 0.3, 0.5])
    sp = FiniteProbSpace(("x", "y", 0), [0.2, 0.3, 0.5])
    assert sp._index == {"x": 0, "y": 1, 0: 2}


def test_prob_extremes():
    sp = FiniteProbSpace((0, 1), [0.5, 0.5])
    assert prob(sp, sp.atoms) == 1.0
    assert prob(sp, set()) == 0.0
    assert prob(sp, {0}) == 0.5


def test_prob_rejects_foreign_atoms():
    sp = FiniteProbSpace((0, 1), [1.0, 1.0])
    with pytest.raises(ForeignEvent):
        prob(sp, {"nope"})


def test_screening_trivial_partition():
    sp = FiniteProbSpace((0, 1, 2, 3), [0.1, 0.2, 0.3, 0.4])
    a, b = {0, 1}, {1, 2}
    rep = screening_residuals(sp, a, b, [sp.atoms])
    expected = prob(sp, a & b) - prob(sp, a) * prob(sp, b)
    assert rep.residuals == (pytest.approx(expected, abs=1e-15),)


def test_screening_deterministic_cells_exact_zero():
    # each cell sits inside A&B or inside the complement of A|B
    sp = FiniteProbSpace(("ab", "none"), [0.5, 0.5])
    rep = screening_residuals(sp, {"ab"}, {"ab"}, [{"ab"}, {"none"}])
    assert rep.residuals == (0.0, 0.0)


def test_screening_product_model_near_zero():
    d = pairwise_model_to_dict(random_screened_model(5, 6, 0.02))
    rep = screening_residuals(space_from_dict(d["space"]), d["A"], d["B"], d["partition"])
    assert rep.max_abs <= 1e-12


def test_screening_zero_mass_cells_flagged():
    sp = FiniteProbSpace(("x", "y", "z"), [0.5, 0.5, 0.0])
    rep = screening_residuals(sp, {"x"}, {"y"}, [{"x"}, {"y"}, {"z"}])
    assert rep.skipped == (2,)
    assert rep.index == (0, 1)


def test_partition_validation():
    sp = FiniteProbSpace((0, 1), [0.5, 0.5])
    with pytest.raises(BadPartition):
        screening_residuals(sp, {0}, {1}, [{0}, {0, 1}])
    with pytest.raises(BadPartition):
        screening_residuals(sp, {0}, {1}, [{0}])
    with pytest.raises(ForeignEvent):
        screening_residuals(sp, {0}, {1}, [{0}, {1, 2}])
    with pytest.raises(ForeignEvent):
        screening_residuals(sp, {0}, {2}, [{0}, {1}])


def test_space_json_roundtrip():
    sp = FiniteProbSpace(("u", "v"), [0.25, 0.75])
    back = space_from_dict(space_to_dict(sp))
    assert back.atoms == sp.atoms
    assert back.weights.tolist() == sp.weights.tolist()


def test_residual_report_is_its_text_and_numbers():
    # the kept max_abs is not what a report is: one that has read it equals one that has not
    read = ResidualReport((0.5, -0.75), ("entry 1", "entry 2"), ("entry 3",))
    unread = ResidualReport((0.5, -0.75), ("entry 1", "entry 2"), ("entry 3",))
    assert read.worst() == ("entry 2", -0.75)
    assert read.max_abs == 0.75
    assert read == unread
    assert hash(read) == hash(unread)
    assert repr(read) == repr(unread)
    assert repr(read) == "ResidualReport(residuals=(0.5, -0.75), labels=('entry 1', 'entry 2'), skipped=('entry 3',))"
    assert read != ResidualReport((0.5, -0.75), ("entry 1", "other"), ("entry 3",))
    assert read != ResidualReport((0.5, -0.5), ("entry 1", "entry 2"), ("entry 3",))
    assert read != ResidualReport((0.5, -0.75), ("entry 1", "entry 2"))
    empty = ResidualReport(())
    assert empty.worst() is None
    assert empty.max_abs == 0.0
    # a NaN is the worst entry wherever it sits, as it is max_abs
    for residuals, k in (((0.0, math.nan), 1), ((math.nan, 0.5), 0), ((0.5, math.nan, -0.75, math.nan), 1)):
        rep = ResidualReport(residuals, tuple(map(str, range(len(residuals)))))
        label, value = rep.worst()
        assert label == str(k) and math.isnan(value) and math.isnan(rep.max_abs)


def test_max_abs_is_nan_wherever_a_nan_sits():
    sp = FiniteProbSpace(range(4), [0.25] * 4)
    stats = screening_residuals(sp, {0, 1}, {0, 2}, [{0, 1}, {2, 3}])
    for residuals in ((math.nan, 0.0), (0.0, math.nan), (0.5, -math.nan, 0.25)):
        assert math.isnan(ResidualReport(residuals).max_abs)
        assert math.isnan(dataclasses.replace(stats, residuals=residuals).max_abs)
    assert ResidualReport((0.5, -0.75)).max_abs == dataclasses.replace(stats, residuals=(0.5, -0.75)).max_abs == 0.75
