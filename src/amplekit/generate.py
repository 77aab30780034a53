"""Concept-class generators and the batch experiment driver."""
from __future__ import annotations

import random
from bisect import bisect_left
from itertools import combinations
from typing import Optional

from . import core, graph
from .core import ConceptClass, bits_of, full_mask, popcount
from .errors import ContractError, DomainError


def cube_class(n: int) -> ConceptClass:
    return ConceptClass(n, tuple(range(1 << n)))


def hamming_ball(n: int, d: int) -> ConceptClass:
    """All concepts of weight at most d; maximum of VC-dimension d."""
    if not 0 <= d <= n:
        raise ContractError(f"radius {d} outside 0..{n}")
    # enumerated by weight, never scanning all 2^n masks; ConceptClass sorts
    dirs = [1 << i for i in range(n)]
    return ConceptClass(n, tuple(sum(ys) for k in range(d + 1)
                                 for ys in combinations(dirs, k)))


def simplicial_class(n: int, facets) -> ConceptClass:
    """Characteristic vectors of all faces of the complex generated by the
    given facets (coordinate sets): a bouquet of cubes glued at the origin."""
    for f in facets:
        if f & ~full_mask(n):
            raise ContractError("facet outside domain")
    faces = core.levelwise(bits_of(full_mask(n)),
                           lambda Z, _: Z == 0 or any(Z & ~f == 0 for f in facets))
    return ConceptClass(n, tuple(faces))


def random_ample(n: int, size: int, seed: int,
                 max_dim: Optional[int] = None) -> ConceptClass:
    """Grow an ample class one concept at a time, keeping each stage isometric
    (which keeps it ample and makes the construction order a corner peeling
    in reverse).  max_dim additionally caps the VC dimension.

    The VC dimension of an ample class is the largest dimension of its
    cubes, and the cubes gained by adding t all pass through t; so with the
    class so far within the cap, adding t keeps it there iff no cube through
    t is larger than max_dim."""
    if size < 1 or size > 1 << n:
        raise ContractError("size out of range")
    rng = random.Random(seed)
    dirs = graph._DIRS[:n]
    start = rng.randrange(1 << n)
    chosen = [start]
    cset = {start}
    # the non-members next to a member, ascending, kept up to date as t joins
    frontier = sorted(start ^ b for b in dirs)
    # frontier concepts refused since they last gained a neighbour: until
    # then a refusal stands, since the class only grows, so the member that
    # broke isometry stays and the cubes through t only multiply
    refused: set = set()
    while len(chosen) < size:
        order = frontier[:]
        rng.shuffle(order)
        for t in order:
            if t in refused:
                continue
            if not graph.extends_isometric(cset, t, n) or (
                    max_dim is not None and max(map(popcount, graph._local_supports(
                        cset, t, graph._neighbour_dirs(cset, t, n)))) > max_dim):
                refused.add(t)
                continue
            chosen.append(t)
            cset.add(t)
            del frontier[bisect_left(frontier, t)]
            for b in dirs:
                u = t ^ b
                refused.discard(u)
                i = bisect_left(frontier, u)
                if u not in cset and (i == len(frontier) or frontier[i] != u):
                    frontier.insert(i, u)
            break
        else:
            break  # saturated under the dimension cap
    return ConceptClass(n, tuple(chosen))


def generate(kind: str, n: int, d: int, size: int, seed: int,
             facets: tuple) -> ConceptClass:
    # checked before any of the 2^n masks is enumerated
    if not 1 <= n <= core.MAX_WIDTH:
        raise DomainError(f"width {n} outside 1..{core.MAX_WIDTH}")
    if kind == "cube":
        return cube_class(n)
    if kind == "hamming_ball":
        return hamming_ball(n, d)
    if kind == "simplicial":
        return simplicial_class(n, facets)
    if kind == "random_ample":
        return random_ample(n, size, seed)
    raise ContractError(f"unknown generator kind {kind!r}")


def batch_row(name: str, C: ConceptClass) -> dict:
    """The row of `batch` for the class C read from the file `name`: the
    file, then `shatter.summary(C)`, field -> value."""
    # imported here, so that the generators alone do not load `shatter`
    from . import shatter
    return {"file": name, **shatter.summary(C)}


def batch_csv(rows) -> str:
    """CSV of a nonempty list of `batch_row` rows, headed by their fields."""
    lines = [",".join(rows[0])]
    lines.extend(",".join(str(v) for v in row.values()) for row in rows)
    return "\n".join(lines) + "\n"
