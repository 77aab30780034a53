"""One-inclusion graph structure: edges, cubes, corners, isometry, galleries."""
from __future__ import annotations

from . import core
from .core import ConceptClass, Cube, bits_of, concept_to_string, popcount
from .errors import ContractError, NotConnectedError


def edges(C: ConceptClass) -> list[tuple[int, int, int]]:
    """Edges of G(C) as (c, c', x) with c < c' and x the differing coordinate."""
    s, n = C.concept_set, C.n
    return [(c, c | b, b.bit_length()) for c in C
            for b in bits_of(_neighbour_dirs(s, c, n) & ~c)]


def is_connected(C: ConceptClass) -> bool:
    return len(_bfs(C.concept_set, C.concepts[0], bits_of(C.domain_mask))) == C.size


def cube_tags(C: ConceptClass) -> dict:
    """support -> set of tags of all full support-cubes in C, walked cube by
    cube, so that the work is proportional to the number of cubes.

    Each Y-cube with tag t carries its up-mask M_Y(t): the directions b
    above the top coordinate of Y, with b not in t, for which t | b is also
    a tag of a Y-cube.  A (Y|b)-cube with tag t exists iff the Y-cubes with
    tags t and t|b both exist, so the children of (t, Y) are exactly the
    cubes (t, Y|b) for b in M_Y(t).  For b' above b, the cube (t, Y|b|b')
    exists iff the Y-cubes with tags t, t|b, t|b' and t|b|b' all do, that
    is iff b' lies in both M_Y(t) and M_Y(t|b); so
    M_{Y|b}(t) = (M_Y(t) above b) & M_Y(t|b).  At the bottom,
    M_0(c) = N(c) & ~c, with N(c) the neighbour directions of c.

    Each support Z is generated exactly once, from its facet Z minus its
    top coordinate, with all its tags at once; no candidate fails.  Levels
    are walked in order and each support's children in ascending b, so the
    keys come by size, then lexicographically on the ascending coordinates.
    """
    s, n = C.concept_set, C.n
    tags: dict = {}
    level = {0: {c: _neighbour_dirs(s, c, n) & ~c for c in C.concepts}}
    while level:
        nxt: dict = {}
        for Y, up in level.items():
            tags[Y] = set(up)
            children: dict = {}
            for t, m in up.items():
                while m:
                    b = m & -m
                    # m keeps the directions of M_Y(t) above b
                    m ^= b
                    child = children.get(b)
                    if child is None:
                        child = children[b] = {}
                    child[t] = m & up[t | b]
            # Y's masks are spent: freed now, so that memory holds about one
            # level of masks at a time, not two
            up.clear()
            for b in sorted(children):
                nxt[Y | b] = children[b]
        level = nxt
    return tags


def _ample_tags(C: ConceptClass, message: str) -> dict:
    """`cube_tags(C)` for an ample C, tested as |X(C)| = |C|; raises
    ContractError(message) otherwise.  Guards hand the tags on, so their
    callers read X(C) without building it again."""
    tags = cube_tags(C)
    if len(tags) != C.size:
        raise ContractError(message)
    return tags


def _shattered(C: ConceptClass, st):
    """sh(C), given st = X(C)'s supports (a set, or `cube_tags(C).keys()`).

    By the sandwich lemma st(C) ⊆ sh(C) and |st(C)| ≤ |C| ≤ |sh(C)|, and C is
    ample iff |st(C)| = |C|, in which case sh(C) = st(C).  So sh(C) is st
    whenever that has |C| members, and only a class that falls short pays
    for the shattering scan."""
    if len(st) == C.size:
        return st
    from . import shatter
    return shatter._shattered_sets(C)


def split_tags(tags: dict, xb: int) -> tuple[dict, dict]:
    """The cube complexes of the reduction C^x and the restriction C_x of an
    ample class C, over C's own coordinates, read off C's `tags`.

    Reduction: the concepts of C^x are the c with x clear and c | x in C,
    so a Y-cube with tag t lies in C^x iff the (Y | x)-cube with tag t lies
    in C.  Restriction: every Y-cube of C with x ∉ Y projects to a Y-cube
    of C_x.  Conversely, let B be a Y-cube of C_x with tag t, and B' the
    (Y | x)-cube with tag t.  C ∩ B' is ample, since ample classes are
    closed under intersection with cubes, and it shatters Y, since its
    restriction dropping x is all of B.  An ample class strongly shatters
    every set it shatters, so C ∩ B' holds a full Y-cube, with tag t or
    t | x, which projects onto B.
    """
    reduction = {Y ^ xb: ts for Y, ts in tags.items() if Y & xb}
    restriction = {Y: {t & ~xb for t in ts} for Y, ts in tags.items() if not Y & xb}
    return reduction, restriction


def support_concepts(tags: dict) -> dict:
    """support Y -> ascending list of the concepts on the Y-cubes of the
    complex `tags`, with the supports in ascending order.  Each cube's
    vertices are walked once; distinct Y-cubes share no vertex."""
    return {Y: sorted(v for t in tags[Y] for v in Cube(t, Y).vertices())
            for Y in sorted(tags)}


def maximal_cubes(C: ConceptClass) -> list[Cube]:
    """Cubes of C not properly contained in another cube of C."""
    tags = cube_tags(C)
    doms = bits_of(C.domain_mask)
    # (t, Y) grows along b when the (Y | b)-cube with tag t & ~b is in C
    out = [Cube(t, Y) for Y, ts in tags.items() for t in ts
           if not any(t & ~b in tags.get(Y | b, ()) for b in doms if not b & Y)]
    return sorted(out, key=lambda B: (popcount(B.support), B.support, B.tag))


def cubes_through(C: ConceptClass, c: int) -> list[Cube]:
    """All cubes of C containing the concept c, found by growing supports locally."""
    s = C.concept_set
    if c not in s:
        return []
    good = _local_supports(s, c, _neighbour_dirs(s, c, C.n))
    return [Cube(c & ~Y, Y) for Y in sorted(good)]


def _local_supports(s, c: int, N: int) -> dict:
    """Supports of the cubes through c of the set s ∪ {c}, with N the mask of
    the directions b such that c ^ b is in s; as a dict Z -> True.

    Every such support lies in N.  When the Z-cube through c has all its
    facets through c in s ∪ {c}, its one vertex left unchecked is c ^ Z.
    """
    return core.levelwise(bits_of(N), lambda Z, _: not Z or c ^ Z in s)


# single-bit masks of coordinates 1..MAX_WIDTH, ascending
_DIRS = tuple(1 << i for i in range(core.MAX_WIDTH))


def _neighbour_dirs(s, c: int, n: int) -> int:
    """Mask of the directions b among n coordinates with c ^ b in s."""
    N = 0
    for b in _DIRS[:n]:
        if c ^ b in s:
            N |= b
    return N


def is_corner(C: ConceptClass, c: int) -> bool:
    """True when c lies in a unique maximal cube of C.

    The supports of cubes through c form a family closed under subsets whose
    union is N, the set of directions b with c ^ b in C.  That family has a
    unique maximal element iff N itself is a member, so c is a corner exactly
    when the cube through c spanned by N lies in C (a cube through c that is
    maximal among them is also maximal in C, since any larger cube would
    again pass through c).
    """
    s = C.concept_set
    return _is_corner_in(s, c, _neighbour_dirs(s, c, C.n))


def _is_corner_in(s, c: int, N: int) -> bool:
    """`is_corner` for c in the set s, with N the mask of the directions b
    such that c ^ b is in s."""
    return core.cube_in_class(Cube(c & ~N, N), s)


def corners(C: ConceptClass) -> list[int]:
    return [c for c in C if is_corner(C, c)]


def _bfs(s, start: int, doms) -> dict:
    """Breadth-first search from start in the graph on the set s whose edges
    flip one of the single-bit masks `doms`: each member reached -> its
    predecessor (None for start), in the order of discovery."""
    prev = {start: None}
    queue = [start]
    for c in queue:
        for b in doms:
            d = c ^ b
            if d in s and d not in prev:
                prev[d] = c
                queue.append(d)
    return prev


def is_isometric(C: ConceptClass, mode: str = "full") -> bool:
    """Graph distance in G(C) equals Hamming distance.

    mode="full" reads `_isometric_at` at every concept of C.  mode="weak"
    checks only the pairs at Hamming distance 2 (they have a common
    neighbour in C), by `_weak_violation` at each concept.
    """
    if mode not in ("full", "weak"):
        raise ContractError(f"unknown isometry mode {mode!r}")
    s, n, cs = C.concept_set, C.n, C.concepts
    if mode == "weak":
        return not any(_weak_violation(s, v, n) for v in cs)
    return all(_isometric_at(cs, v, _neighbour_dirs(s, v, n)) for v in cs)


def _isometric_at(P, v: int, N: int) -> bool:
    """The isometry criterion at v: every u in P other than v has
    (u ^ v) & N nonzero, with N the mask of the directions b such that
    v ^ b is in P.

    A set C is isometric iff the criterion holds at every v in C, with
    P = C.  If C is isometric, a shortest path from v to u starts along a
    coordinate of u ^ v, so that coordinate lies in N.  Conversely, any
    step from v along a coordinate of u ^ v brings v one closer to u, so by
    induction on the Hamming distance the criterion gives a path of that
    length; it thus also implies that C is connected.  So for an isometric
    P without v, P ∪ {v} is isometric iff the criterion holds at v: a step
    from v along N toward u reaches P one closer to u, P carries the path
    on from there, and the pairs inside P keep their paths.  O(|P|), with
    no BFS.
    """
    # a loop that returns at the first failure scans as fast as a list
    # comprehension, and faster than all() over a generator
    for u in P:
        if not (u ^ v) & N and u != v:
            return False
    return True


def _weak_violation(s, v: int, n: int) -> bool:
    """Whether some v ^ a ^ b is in the set s, for directions a != b among
    n coordinates with neither v ^ a nor v ^ b in s: a pair at Hamming
    distance 2 through v with no common neighbour in s."""
    free = [b for b in _DIRS[:n] if v ^ b not in s]
    for i, a in enumerate(free):
        w = v ^ a
        for b in free[i + 1:]:
            if w ^ b in s:
                return True
    return False


def extends_isometric(P, v: int, n: int) -> bool:
    """Whether P ∪ {v} is isometric, for an isometric set P (a set or
    frozenset) of concepts on n coordinates that does not contain v: the
    criterion of `_isometric_at`."""
    return _isometric_at(P, v, _neighbour_dirs(P, v, n))


def gallery(C: ConceptClass, Q1: Cube, Q2: Cube) -> list[Cube]:
    """Shortest chain of parallel cubes from Q1 to Q2, consecutive unions being
    cubes of C; BFS over the tags of the common support's reduction."""
    if Q1.support != Q2.support:
        raise ContractError("gallery endpoints must be parallel cubes")
    Y = Q1.support
    tags = core.reduction_tags(C.concepts, Y)
    if Q1.tag not in tags or Q2.tag not in tags:
        raise ContractError("gallery endpoints must be cubes of the class")
    prev = _bfs(tags, Q1.tag, [b for b in bits_of(C.domain_mask) if not b & Y])
    if Q2.tag not in prev:
        raise NotConnectedError("no gallery connects the two cubes")
    path = [Q2.tag]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return [Cube(t, Y) for t in reversed(path)]


def to_dot(C: ConceptClass) -> str:
    lines = ["graph inclusion {"]
    for c in C:
        lines.append(f'  "{concept_to_string(c, C.n)}";')
    for c, d, x in edges(C):
        lines.append(
            f'  "{concept_to_string(c, C.n)}" -- "{concept_to_string(d, C.n)}" [label="{x}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
