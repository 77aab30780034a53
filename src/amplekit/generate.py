"""Concept-class generators and the batch experiment driver."""
from __future__ import annotations

import random
from bisect import bisect_left
from itertools import combinations
from typing import NamedTuple, Optional

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


class GeneratorSpec(NamedTuple):
    kind: str
    n: int = 0
    d: int = 0
    size: int = 0
    seed: int = 0
    facets: tuple = ()
    factors: tuple = ()   # for kind="product": two GeneratorSpecs


# the kinds built directly over a domain of width spec.n
_BUILDERS = {
    "cube": lambda spec: cube_class(spec.n),
    "hamming_ball": lambda spec: hamming_ball(spec.n, spec.d),
    "simplicial": lambda spec: simplicial_class(spec.n, spec.facets),
    "random_ample": lambda spec: random_ample(spec.n, spec.size, spec.seed),
}


def generate(spec: GeneratorSpec) -> ConceptClass:
    if spec.kind == "product":
        if len(spec.factors) != 2:
            raise ContractError("product takes exactly two factor specs")
        return core.product(generate(spec.factors[0]), generate(spec.factors[1]))
    build = _BUILDERS.get(spec.kind)
    if build is None:
        raise ContractError(f"unknown generator kind {spec.kind!r}")
    # checked before any of the 2^n masks is enumerated
    if not 1 <= spec.n <= core.MAX_WIDTH:
        raise DomainError(f"width {spec.n} outside 1..{core.MAX_WIDTH}")
    return build(spec)


BATCH_COLUMNS = ("file", "n", "size", "vc_dim", "shattered",
                 "strongly_shattered", "ample", "maximum")


def batch_row(name: str, C: ConceptClass) -> tuple:
    # imported here, so that the generators alone do not load `shatter`
    from . import shatter
    return (name, *shatter.summary(C).printed().values())


def batch_csv(rows) -> str:
    lines = [",".join(BATCH_COLUMNS)]
    lines.extend(",".join(str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"
