"""Down-set classes of random partial orders, shared by the tests: they are
conditional antimatroids, so `peeling.antimatroid_peeling` peels them."""
import random

from amplekit import core
from amplekit.core import ConceptClass


def random_downset_class(n: int, seed: int) -> ConceptClass:
    """Down-sets of a random partial order on the coordinates: closed under
    intersection and union, contains the empty set, and every member is
    generated by its extremal points."""
    rng = random.Random(seed)
    below = [0] * (n + 1)       # below[x] = coordinates strictly below x
    order = list(range(1, n + 1))
    rng.shuffle(order)
    for idx, x in enumerate(order):
        for y in order[:idx]:
            if rng.random() < 0.4:
                below[x] |= core.bit(y) | below[y]
    downsets = [0]
    for c in range(1, 1 << n):
        if all(below[x] & ~c == 0 for x in core.coords(c)):
            downsets.append(c)
    return ConceptClass(n, tuple(downsets))
