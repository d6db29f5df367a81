from cascadekit.forest import PredecessorForest
from cascadekit.verify import _all_closed_subsets as all_closed_subsets  # noqa: F401
from cascadekit.verify import _all_forests as all_forests  # noqa: F401


def forest_of(size: int, pred: dict[int, int]) -> PredecessorForest:
    return PredecessorForest.from_pred(size, pred)
