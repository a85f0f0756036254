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
    make_space,
    prob,
    screening_residuals,
    space_from_dict,
    space_to_dict,
)
from weakch.common_cause import pairwise_model_to_dict, random_screened_model


def test_single_atom_space():
    sp = make_space([1.0])
    assert sp.weights.tolist() == [1.0]
    assert prob(sp, {0}) == 1.0


def test_two_even_atoms():
    sp = make_space([0.5, 0.5])
    assert sp.weights.tolist() == [0.5, 0.5]


def test_construction_normalizes():
    sp = make_space([2.0, 2.0])
    assert sp.weights.tolist() == [0.5, 0.5]
    assert abs(math.fsum(sp.weights.tolist()) - 1.0) <= 1e-12


def test_normalizing_is_idempotent():
    # a divided total is often an ulp off one; dividing by it again would move weights
    off_one = 0
    for seed in range(20):
        sp = make_space(np.random.default_rng(seed).uniform(0.0, 1.0, 50))
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
        make_space([])
    with pytest.raises(EmptySpace):
        make_space([0.0, 0.0])
    with pytest.raises(NegativeWeight):
        make_space([0.5, -0.1])
    with pytest.raises(NegativeWeight):
        make_space([0.5, math.nan])
    with pytest.raises(EmptySpace):
        make_space([0.5, math.inf])


def test_atom_labels_must_be_unique():
    with pytest.raises(WeakChError, match="^atom labels must be unique$"):
        FiniteProbSpace(("x", "y", "x"), [0.2, 0.3, 0.5])
    sp = FiniteProbSpace(("x", "y", 0), [0.2, 0.3, 0.5])
    assert sp._index == {"x": 0, "y": 1, 0: 2}


def test_prob_extremes():
    sp = make_space([0.5, 0.5])
    assert prob(sp, sp.atoms) == 1.0
    assert prob(sp, set()) == 0.0
    assert prob(sp, {0}) == 0.5


def test_prob_rejects_foreign_atoms():
    sp = make_space([1.0, 1.0])
    with pytest.raises(ForeignEvent):
        prob(sp, {"nope"})


def test_screening_trivial_partition():
    sp = make_space([0.1, 0.2, 0.3, 0.4])
    a, b = {0, 1}, {1, 2}
    rep = screening_residuals(sp, a, b, [sp.atoms])
    expected = prob(sp, a & b) - prob(sp, a) * prob(sp, b)
    assert rep.residuals == (pytest.approx(expected, abs=1e-15),)


def test_screening_deterministic_cells_exact_zero():
    # each cell sits inside A&B or inside the complement of A|B
    sp = make_space([0.5, 0.5], atoms=["ab", "none"])
    rep = screening_residuals(sp, {"ab"}, {"ab"}, [{"ab"}, {"none"}])
    assert rep.residuals == (0.0, 0.0)


def test_screening_product_model_near_zero():
    d = pairwise_model_to_dict(random_screened_model(5, 6, 0.02))
    rep = screening_residuals(space_from_dict(d["space"]), d["A"], d["B"], d["partition"])
    assert rep.max_abs <= 1e-12


def test_screening_zero_mass_cells_flagged():
    sp = make_space([0.5, 0.5, 0.0], atoms=["x", "y", "z"])
    rep = screening_residuals(sp, {"x"}, {"y"}, [{"x"}, {"y"}, {"z"}])
    assert rep.skipped == (2,)
    assert rep.index == (0, 1)


def test_partition_validation():
    sp = make_space([0.5, 0.5])
    with pytest.raises(BadPartition):
        screening_residuals(sp, {0}, {1}, [{0}, {0, 1}])
    with pytest.raises(BadPartition):
        screening_residuals(sp, {0}, {1}, [{0}])
    with pytest.raises(ForeignEvent):
        screening_residuals(sp, {0}, {1}, [{0}, {1, 2}])
    with pytest.raises(ForeignEvent):
        screening_residuals(sp, {0}, {2}, [{0}, {1}])


def test_space_json_roundtrip():
    sp = make_space([0.25, 0.75], atoms=["u", "v"])
    back = space_from_dict(space_to_dict(sp))
    assert back.atoms == sp.atoms
    assert back.weights.tolist() == sp.weights.tolist()


def test_residual_report_is_its_text_and_numbers():
    # keys and a formatter are how a report gets its labels, not what it is
    lazy = ResidualReport((0.5, -0.75), (1, 2), (3,), lambda k: f"entry {k}")
    eager = ResidualReport((0.5, -0.75), ("entry 1", "entry 2"), ("entry 3",))
    assert lazy == eager
    assert hash(lazy) == hash(eager)
    assert repr(lazy) == repr(eager)
    assert lazy.labels == ("entry 1", "entry 2")
    assert lazy.skipped == ("entry 3",)
    assert lazy.worst() == ("entry 2", -0.75)
    assert lazy.max_abs == 0.75
    assert lazy != ResidualReport((0.5, -0.75), ("entry 1", "other"), ("entry 3",))
    assert lazy != ResidualReport((0.5, -0.5), ("entry 1", "entry 2"), ("entry 3",))
    empty = ResidualReport(())
    assert empty.worst() is None
    assert empty.max_abs == 0.0
