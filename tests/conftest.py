from cascadekit.forest import PredecessorForest
from cascadekit.names import Assignment
from cascadekit.verify import _all_closed_subsets as all_closed_subsets  # noqa: F401
from cascadekit.verify import _all_forests as all_forests  # noqa: F401


def forest_of(size: int, pred: dict[int, int]) -> PredecessorForest:
    return PredecessorForest.from_pred(size, pred)


def all_assignments(box):
    """Every total assignment of the box, in order of its packed bits."""
    return (Assignment(box, bits) for bits in range(1 << box.n_coords))


def apply_to_assignment(tau, g):
    """The assignment a cascade automorphism carries ``g`` to: each toggled box coordinate flips."""
    box = g.box
    flip = 0
    for c in box.coords():
        if c.bit in tau.toggle_at(c.node, c.row):
            flip |= 1 << box.index(c)
    return Assignment(box, g.value_bits ^ flip)
