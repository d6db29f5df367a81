import itertools

from cascadekit.forest import PredecessorForest


def forest_of(size: int, pred: dict[int, int]) -> PredecessorForest:
    return PredecessorForest.from_pred(size, pred)


def all_forests(size: int):
    """Every regressive predecessor map on a universe of the given size."""
    if size == 1:
        yield forest_of(1, {})
        return
    for parents in itertools.product(*(range(xi) for xi in range(1, size))):
        yield forest_of(size, {xi: p for xi, p in enumerate(parents, start=1)})


def all_closed_subsets(forest: PredecessorForest):
    """Every subset of the universe closed under the predecessor map."""
    nodes = list(range(forest.size))
    for r in range(len(nodes) + 1):
        for combo in itertools.combinations(nodes, r):
            chosen = set(combo)
            if all(xi == 0 or forest.parents[xi] in chosen for xi in chosen):
                yield frozenset(chosen)

