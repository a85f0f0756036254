import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakch.spaces import (
    EmptySpace,
    ForeignEvent,
    BadPartition,
    NegativeWeight,
    ZeroConditioner,
    complement,
    cond_prob,
    make_space,
    prob,
    screening_residuals,
    space_from_dict,
    space_to_dict,
)
from weakch.common_cause import random_screened_model


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


def test_prob_extremes():
    sp = make_space([0.5, 0.5])
    assert prob(sp, sp.full_event()) == 1.0
    assert prob(sp, set()) == 0.0
    assert prob(sp, {0}) == 0.5


def test_prob_rejects_foreign_atoms():
    sp = make_space([1.0, 1.0])
    with pytest.raises(ForeignEvent):
        prob(sp, {"nope"})


def test_cond_prob_on_certainty_and_self():
    sp = make_space([0.2, 0.3, 0.5])
    a = {0, 2}
    assert cond_prob(sp, a, sp.full_event()) == pytest.approx(prob(sp, a), abs=1e-15)
    assert cond_prob(sp, a, a) == 1.0


def test_cond_prob_uniform_four_atoms():
    # direct mass counting: p(A and B) = p({1}) = 1/4, p(B) = 1/2
    sp = make_space([0.25] * 4)
    assert cond_prob(sp, {0, 1}, {1, 2}) == pytest.approx(0.5, abs=1e-15)


def test_cond_prob_zero_conditioner():
    sp = make_space([1.0, 0.0])
    with pytest.raises(ZeroConditioner):
        cond_prob(sp, {0}, {1})


@settings(deadline=None)
@given(st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=12), st.data())
def test_complement_mass(ws, data):
    sp = make_space(ws)
    ev = set(data.draw(st.lists(st.sampled_from(range(len(ws))), unique=True)))
    assert prob(sp, ev) + prob(sp, complement(sp, ev)) == pytest.approx(1.0, abs=1e-12)


@settings(deadline=None)
@given(st.lists(st.floats(1e-3, 10.0), min_size=2, max_size=12), st.data())
def test_conditional_additivity(ws, data):
    # conditioning yields a measure: additive over disjoint events
    sp = make_space(ws)
    labels = list(range(len(ws)))
    given_ev = set(data.draw(st.lists(st.sampled_from(labels), min_size=1, unique=True)))
    e1 = set(data.draw(st.lists(st.sampled_from(labels), unique=True)))
    rest = [x for x in labels if x not in e1]
    e2 = set(data.draw(st.lists(st.sampled_from(rest), unique=True))) if rest else set()
    lhs = cond_prob(sp, e1 | e2, given_ev)
    rhs = cond_prob(sp, e1, given_ev) + cond_prob(sp, e2, given_ev)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_screening_trivial_partition():
    sp = make_space([0.1, 0.2, 0.3, 0.4])
    a, b = {0, 1}, {1, 2}
    rep = screening_residuals(sp, a, b, [sp.full_event()])
    expected = prob(sp, a & b) - prob(sp, a) * prob(sp, b)
    assert rep.residuals == (pytest.approx(expected, abs=1e-15),)


def test_screening_deterministic_cells_exact_zero():
    # each cell sits inside A&B or inside the complement of A|B
    sp = make_space([0.5, 0.5], atoms=["ab", "none"])
    rep = screening_residuals(sp, {"ab"}, {"ab"}, [{"ab"}, {"none"}])
    assert rep.residuals == (0.0, 0.0)


def test_screening_product_model_near_zero():
    m = random_screened_model(5, 6, 0.02)
    rep = screening_residuals(m.space, m.event_a, m.event_b, m.cells)
    assert rep.max_abs <= 1e-12


def test_screening_zero_mass_cells_flagged():
    sp = make_space([0.5, 0.5, 0.0], atoms=["x", "y", "z"])
    rep = screening_residuals(sp, {"x"}, {"y"}, [{"x"}, {"y"}, {"z"}])
    assert rep.skipped_cells == (2,)
    assert rep.cell_indices == (0, 1)


def test_partition_validation():
    sp = make_space([0.5, 0.5])
    with pytest.raises(BadPartition):
        screening_residuals(sp, {0}, {1}, [{0}, {0, 1}])
    with pytest.raises(BadPartition):
        screening_residuals(sp, {0}, {1}, [{0}])


def test_space_json_roundtrip():
    sp = make_space([0.25, 0.75], atoms=["u", "v"])
    back = space_from_dict(space_to_dict(sp))
    assert back.atoms == sp.atoms
    assert back.weights.tolist() == sp.weights.tolist()
