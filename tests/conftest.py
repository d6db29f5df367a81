from cascadekit.forest import PredecessorForest
from cascadekit.names import Assignment, automorphism_flip_mask
from cascadekit.verify import _all_closed_subsets as all_closed_subsets  # noqa: F401
from cascadekit.verify import _all_forests as all_forests  # noqa: F401


def forest_of(size: int, pred: dict[int, int]) -> PredecessorForest:
    return PredecessorForest.from_pred(size, pred)


def all_assignments(box):
    """Every total assignment of the box, in order of its packed bits."""
    return (Assignment(box, bits) for bits in range(1 << box.n_coords))


def apply_to_assignment(tau, g):
    """The assignment a cascade automorphism carries ``g`` to."""
    return g.flip(automorphism_flip_mask(tau, g.box))
