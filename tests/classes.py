"""Class builders shared by the tests: classes from bitstrings, and every
class (or every ample class) on a small domain.  Also the breadth-first
distances and isometry tests that the graph module replaced, kept as the
reference for the neighbour-mask criterion."""
from collections import deque

from amplekit import shatter
from amplekit.core import ConceptClass, bits_of, popcount
from amplekit.errors import ContractError


def cc(*strings):
    return ConceptClass.from_strings(list(strings))


def all_classes(n, max_size=None):
    """Every nonempty class on n coordinates, in the order of the bitset of
    its concepts, those of more than max_size concepts left out."""
    for mask in range(1, 1 << (1 << n)):
        concepts = tuple(c for c in range(1 << n) if mask >> c & 1)
        if max_size is None or len(concepts) <= max_size:
            yield ConceptClass(n, concepts)


def ample_classes(n, max_size=None):
    for C in all_classes(n, max_size):
        if shatter.is_ample(C)[0]:
            yield C


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
