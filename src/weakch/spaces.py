"""Finite classical probability spaces: atoms, events, partitions, screening.

The substrate of the pairwise models, and the one rule (_normalized) by
which every weight table is kept or divided by its total. Atoms are
hashable labels carrying nonnegative weights, normalized at construction.
Events are sets of atom labels, partitions are disjoint covers. Labelled
events and partitions are translated once into arrays in atom order (a
cell index per atom, a membership mask per event); the per-cell sums
behind screening read only those arrays. Everything is immutable after
construction and every operation is a pure function, so values can be
shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Sequence

import numpy as np

from .inequalities import WeakChError, real_numbers  # WeakChError: the re-exported base error


class EmptySpace(WeakChError):
    """No atoms were supplied, or the total mass is zero."""


class NegativeWeight(WeakChError):
    """An atom weight is negative."""


class ForeignEvent(WeakChError):
    """An event references an atom label that is not in the space."""


class ZeroConditioner(WeakChError):
    """The conditioning event has zero probability."""


class BadPartition(WeakChError):
    """Partition cells overlap or fail to cover the atom set."""


# Dividing weights by their exact total leaves a total within an ulp or so
# of one, not always one itself (0.9999999999999999 is common). Dividing
# by that again moves some weights by an ulp, so a space written to a file
# would not read back bit for bit; a total this close to one is taken as
# already normalized.
_NORMALIZED_TOL = 1e-15


def _normalized(w: np.ndarray, total: float) -> np.ndarray:
    """w divided by total, or a copy of w when total is within _NORMALIZED_TOL of one; never w itself."""
    return w.copy() if abs(total - 1.0) <= _NORMALIZED_TOL else w / total


@dataclass(frozen=True, eq=False)
class FiniteProbSpace:
    """Ordered atom labels with normalized nonnegative weights.

    Construction normalizes the weights (divides by the total) rather than
    rejecting inputs that do not sum to one. Normalizing is idempotent:
    weights whose exact total is within _NORMALIZED_TOL of one are kept
    as they are (_normalized), so a space built from another space's
    weights has them bit for bit. Individual weights may be zero, but the
    total mass must be positive.
    """

    atoms: tuple
    weights: np.ndarray

    def __post_init__(self):
        atoms = tuple(self.atoms)
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if len(atoms) == 0:
            raise EmptySpace("a probability space needs at least one atom")
        if w.size != len(atoms):
            raise EmptySpace(
                f"{len(atoms)} atoms but {w.size} weights were supplied"
            )
        index = {a: i for i, a in enumerate(atoms)}
        if len(index) != len(atoms):
            raise WeakChError("atom labels must be unique")
        lowest = float(w.min())  # NaN propagates through min
        if not lowest >= 0.0:
            raise NegativeWeight(f"negative or NaN atom weight {lowest}")
        try:
            total = math.fsum(w.tolist())  # +inf survives min but not a finite total
        except OverflowError:  # finite weights whose total passes the float range
            total = math.inf
        if not 0.0 < total < math.inf:
            raise EmptySpace(f"total mass must be positive and finite, got {total}")
        w = _normalized(w, total)
        w.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_index", index)


def _event_indices(space: FiniteProbSpace, event: Iterable[Hashable]) -> list[int]:
    index = space._index
    out = []
    for label in event:
        try:
            out.append(index[label])
        except KeyError:
            raise ForeignEvent(f"atom {label!r} is not in the space") from None
    out.sort()
    return out


def prob(space: FiniteProbSpace, event: Iterable[Hashable]) -> float:
    """Probability of an event, the mass of its member atoms.

    Summation runs in atom order so that identical atom sets always produce
    bit-identical sums.
    """
    idx = _event_indices(space, frozenset(event))
    w = space.weights
    return math.fsum(w[i] for i in idx)


def check_partition(space: FiniteProbSpace, cells: Sequence[Iterable[Hashable]]) -> tuple[np.ndarray, int]:
    """Validate that cells are pairwise disjoint and cover the atom set.

    Returns the cell index of each atom, in atom order, and the number of
    cells (an empty cell is allowed and owns no atom).
    """
    cells = [frozenset(c) for c in cells]
    cell_of = np.full(len(space.atoms), -1, dtype=np.intp)
    for i, cell in enumerate(cells):
        idx = _event_indices(space, cell)
        if (cell_of[idx] >= 0).any():
            raise BadPartition("partition cells overlap")
        cell_of[idx] = i
    if (cell_of < 0).any():
        raise BadPartition("partition cells do not cover the atom set")
    return cell_of, len(cells)


def _translate(space: FiniteProbSpace, event_a, event_b, cells, foreign_event: WeakChError | None = None):
    """(cell_of, in_a, in_b, n_cells) of labelled events and partition cells.

    The one place labels become indices. The partition is checked first
    (ForeignEvent, BadPartition); an event atom outside the space raises
    ForeignEvent, or foreign_event when one is given.
    """
    events = (frozenset(event_a), frozenset(event_b))
    cell_of, n_cells = check_partition(space, cells)
    in_a, in_b = np.zeros((2, len(space.atoms)), dtype=bool)
    try:
        for mask, ev in zip((in_a, in_b), events):
            mask[_event_indices(space, ev)] = True
    except ForeignEvent:
        if foreign_event is None:
            raise
        raise foreign_event from None
    return cell_of, in_a, in_b, n_cells


def _cell_sums(weights: np.ndarray, cell_of: np.ndarray, in_a: np.ndarray, in_b: np.ndarray, n_cells: int) -> np.ndarray:
    """Rows p(C_i), p(A C_i), p(B C_i), p(AB C_i) over the cells.

    Each entry adds its atoms' weights one by one in atom order. An atom
    outside the event adds its weight times 0, a zero that leaves a sum of
    finite nonnegative weights as it was, so the event's atoms need not be
    picked out first.
    """
    return np.stack(
        [
            np.bincount(cell_of, weights=w, minlength=n_cells)
            for w in (weights, weights * in_a, weights * in_b, weights * (in_a & in_b))
        ]
    )


def _max_abs(residuals: tuple[float, ...]) -> float:
    """The largest |residual|, 0.0 of none, or NaN when any residual is NaN."""
    if math.isnan(sum(residuals)):  # max would skip a NaN that does not come first
        return math.nan
    return max(map(abs, residuals), default=0.0)


@dataclass(frozen=True, eq=False)
class CellStats:
    """Per-cell statistics of a partition, for its positive-mass cells.

    index lists those cells, and mass, cond_a, cond_b and residuals hold
    p(C_i), p(A|C_i), p(B|C_i) and the screening residual
    p(AB|C_i) - p(A|C_i) p(B|C_i) of each, in index order. Cells of zero mass cannot be conditioned
    on; they are listed in skipped rather than raised, since a vanishing
    cell makes the condition vacuous. max_abs is computed when first read
    and kept, as on ResidualReport.
    """

    index: tuple[int, ...]
    mass: np.ndarray
    cond_a: np.ndarray
    cond_b: np.ndarray
    residuals: tuple[float, ...]
    skipped: tuple[int, ...]

    @cached_property
    def max_abs(self) -> float:
        return _max_abs(self.residuals)


@dataclass(frozen=True)
class ResidualReport:
    """Labeled residuals from an assumption validator, plus skipped entries.

    labels name the residuals in order and skipped the entries that could
    not be computed. max_abs is computed when first read and kept.
    """

    residuals: tuple[float, ...]
    labels: tuple[str, ...] = ()
    skipped: tuple[str, ...] = ()

    @cached_property
    def max_abs(self) -> float:
        return _max_abs(self.residuals)

    def worst(self) -> tuple[str, float] | None:
        """The label and value of the largest |residual|, or of the first NaN, as max_abs reads NaN; None of none."""
        r = self.residuals
        if not r:
            return None
        k = max(range(len(r)), key=lambda i: (math.isnan(r[i]), abs(r[i])))  # max alone would skip a later NaN
        return self.labels[k], r[k]


def screening_residuals(
    space: FiniteProbSpace,
    event_a: Iterable[Hashable],
    event_b: Iterable[Hashable],
    cells: Sequence[Iterable[Hashable]],
) -> CellStats:
    """Per-cell statistics, screening residuals included, of labelled events.

    For each positive-mass cell C_i the residual is
    p(AB|C_i) - p(A|C_i) p(B|C_i). A cell that makes A or B conditionally
    deterministic contributes an exact zero.
    """
    cell_of, in_a, in_b, n_cells = _translate(space, event_a, event_b, cells)
    return _cell_stats(_cell_sums(space.weights, cell_of, in_a, in_b, n_cells))


def _cell_stats(sums: np.ndarray) -> CellStats:
    # the statistics of _cell_sums rows; zero-mass cells are skipped
    mass, p_a, p_b, p_ab = sums
    pos = mass > 0.0
    m = mass[pos]
    cond_a = p_a[pos] / m
    cond_b = p_b[pos] / m
    return CellStats(
        index=tuple(np.flatnonzero(pos).tolist()),
        mass=m,
        cond_a=cond_a,
        cond_b=cond_b,
        residuals=tuple((p_ab[pos] / m - cond_a * cond_b).tolist()),
        skipped=tuple(np.flatnonzero(~pos).tolist()),
    )


def _json_array(value, name: str) -> list:
    # value, which must be a list (a JSON array): a string or a dict would be
    # read by its characters or keys. TypeError otherwise, as in real_numbers.
    if not isinstance(value, list):
        raise TypeError(f"{name} must be a JSON array, got {type(value).__name__}")
    return value


def _json_object(value, name: str) -> dict:
    # value, which must be a dict (a JSON object); TypeError otherwise
    if not isinstance(value, dict):
        raise TypeError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


def _label_list(value, name: str) -> list:
    # value, a JSON array of atom labels: JSON strings and integers only, as
    # true, 1.0 and 1 are equal in Python and would name one atom
    for v in _json_array(value, name):
        if type(v) not in (str, int):
            raise TypeError(f"{name} labels must be JSON strings or integers, got {v!r}")
    return value


def space_to_dict(space: FiniteProbSpace) -> dict:
    return {"atoms": list(space.atoms), "weights": [float(x) for x in space.weights]}


def space_from_dict(data: dict) -> FiniteProbSpace:
    atoms = _label_list(data["atoms"], "atoms")
    return FiniteProbSpace(tuple(atoms), np.asarray(real_numbers(_json_array(data["weights"], "weights"))))
