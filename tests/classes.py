"""The census of the small classes shared by the tests: classes from
bitstrings and from concept bitsets, every class (or every ample class) on a
small domain, the slice tables of st(C) for n ≤ 4, the symmetries of the
cube and the orbits of classes under them, and the submasks of a set.  No
class is selected with the library: ampleness is read off the slice tables.
Also the breadth-first distances and isometry tests that the graph module
replaced, kept as the reference for the neighbour-mask criterion."""
import itertools
from collections import deque

from amplekit.core import ConceptClass, bits_of, popcount
from amplekit.errors import ContractError


def cc(*strings):
    return ConceptClass.from_strings(list(strings))


def submasks(Y):
    """Every submask of the bitset Y, from Y down to 0."""
    sub = Y
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & Y


def class_of(n, mask):
    """The class on n coordinates whose concepts are the set bits of mask."""
    return ConceptClass(n, tuple(c for c in range(1 << n) if mask >> c & 1))


def st_tables(top):
    """tables[n][m] = st of the n-class with concept bitset m, as a bitset
    over the coordinate sets of 1..n, for every n ≤ top, by the slice
    formula that `test_slices` states and checks against `graph.cube_tags`."""
    tables = [[0, 1]]       # n = 0: the empty class and the class {∅}
    for n in range(1, top + 1):
        prev = tables[-1]
        half = 1 << (n - 1)         # bit of x in a concept or coordinate set
        low = (1 << half) - 1
        tables.append([prev[m & low] | prev[m >> half] | prev[m & low & m >> half] << half
                       for m in range(1 << (1 << n))])
    return tables


ST = st_tables(4)


def is_ample_by_st(C):
    """|st(C)| = |C|, read off the slice tables for a class with n ≤ 4: by
    the sandwich lemma, C is ample."""
    return ST[C.n][sum(1 << c for c in C.concepts)].bit_count() == C.size


def all_classes(n):
    """Every nonempty class on n coordinates, in the order of the bitset of
    its concepts."""
    return (class_of(n, mask) for mask in range(1, 1 << (1 << n)))


def ample_classes(n, max_size=16):
    """The ample classes of `all_classes(n)` of at most max_size concepts."""
    return (C for C in all_classes(n) if C.size <= max_size and is_ample_by_st(C))


def cube_symmetries(n):
    """The 2^n n! symmetries of the n-cube (coordinate permutations, then
    reflections), each as the list of the images of the points 0..2^n - 1."""
    points = range(1 << n)
    return [[sum((c >> i & 1) << p for i, p in enumerate(perm)) ^ flip for c in points]
            for perm in itertools.permutations(range(n)) for flip in points]


def orbit_representatives(n):
    """The least concept bitset of each orbit of nonempty classes on n
    coordinates under the symmetries of the n-cube, by one scan of the
    bitsets in ascending order: the first bitset of an orbit marks the
    whole orbit."""
    points = range(1 << n)
    symmetries = cube_symmetries(n)
    seen = bytearray(1 << (1 << n))
    for mask in range(1, 1 << (1 << n)):
        if not seen[mask]:
            yield mask
            members = [c for c in points if mask >> c & 1]
            for g in symmetries:
                seen[sum(1 << g[c] for c in members)] = 1


def bfs_dist(C, start):
    s = C.concept_set
    doms = bits_of(C.domain_mask)
    dist = {start: 0}
    q = deque([start])
    while q:
        c = q.popleft()
        for b in doms:
            d = c ^ b
            if d in s and d not in dist:
                dist[d] = dist[c] + 1
                q.append(d)
    return dist


def is_isometric_oracle(C, mode="full"):
    """Graph distance in G(C) equals Hamming distance.

    mode="weak" checks only pairs at Hamming distance 2 (common neighbor in C);
    disconnected classes are not isometric (infinite graph distance).
    """
    if mode not in ("full", "weak"):
        raise ContractError(f"unknown isometry mode {mode!r}")
    s = C.concept_set
    if mode == "weak":
        for i, c in enumerate(C.concepts):
            for d in C.concepts[i + 1:]:
                diff = c ^ d
                if popcount(diff) == 2:
                    b1 = diff & -diff
                    if (c ^ b1) not in s and (c ^ b1 ^ diff) not in s:
                        return False
        return True
    for c in C:
        dist = bfs_dist(C, c)
        if len(dist) != C.size:
            return False
        for d, k in dist.items():
            if k != popcount(c ^ d):
                return False
    return True
