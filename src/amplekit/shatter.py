"""Shattering, VC dimension, and recognition of ample / maximum classes."""
from __future__ import annotations

from math import comb
from typing import NamedTuple, Optional

from . import core, graph
from .core import ConceptClass, bits_of, coords, popcount
from .errors import ContractError


class SetFamily(NamedTuple):
    """A simplicial complex on coordinates 1..n, members as bitmasks."""

    n: int
    members: frozenset

    @property
    def size(self) -> int:
        return len(self.members)

    def dim(self) -> int:
        return max(popcount(m) for m in self.members) if self.members else -1

    def __contains__(self, m: int) -> bool:
        return m in self.members

    def __len__(self) -> int:
        return len(self.members)


def _fibre_walk(concepts, alive: int, d: int, prune: bool):
    """Yield (Y, fibres) for coordinate sets Y of the alive coordinates,
    depth first in `combinations` order, from Y = 0 up to |Y| = d.

    fibres[i] is the set of indices j with concepts[j] & Y = p_i, as an int
    bitset, where p_0 < p_1 < ... are the 2^|Y| patterns over Y.  Each
    concept's bits are kept as one column bitset per coordinate, and a set
    Y | b (b above the top coordinate of Y) splits every fibre of Y by the
    column of b: the part without b keeps index i, the part with b takes
    index i + 2^|Y|, so the new patterns are the high half and the index
    order stays the pattern order.  Only the fibres of the current path
    are alive: on a path to a k-set, fewer than 2^(k+1) bitsets of
    len(concepts) bits, besides the columns.  The walk nests d + 1 deep at
    most, whatever the number of concepts.

    Y is shattered iff all its fibres are nonempty.  With prune, only
    shattered sets are yielded: shattered sets are closed under subsets, so
    a child is dropped at its first empty fibre.  Without prune, only the
    sets on a path to a d-set are yielded, and each of those is, whatever
    its fibres.
    """
    bs = bits_of(alive)
    m = len(bs)
    full = (1 << len(concepts)) - 1
    cols = []
    for b in bs:
        col = int("".join(["1" if c & b else "0" for c in reversed(concepts)]) or "0", 2)
        cols.append((col, full & ~col))

    def down(Y: int, fibres: list, start: int, k: int):
        yield Y, fibres
        if k == d:
            return
        # without prune, leave enough coordinates above to reach a d-set
        for i in range(start, m if prune else m - d + k + 1):
            col, off = cols[i]
            if prune:
                lo, hi = [], []
                for f in fibres:
                    a, c = f & off, f & col
                    if not (a and c):
                        break
                    lo.append(a)
                    hi.append(c)
                else:
                    yield from down(Y | bs[i], lo + hi, i + 1, k + 1)
            else:
                yield from down(Y | bs[i], [f & off for f in fibres] + [f & col for f in fibres],
                                i + 1, k + 1)

    # the empty set is shattered iff there is a concept
    if not prune or full:
        yield from down(0, [full], 0, 0)


def _pattern(Y: int, i: int) -> int:
    """The pattern of fibre i over Y in `_fibre_walk`: the j-th lowest
    coordinate of Y is set iff bit j of i is."""
    return sum(b for j, b in enumerate(bits_of(Y)) if i >> j & 1)


def _shattered_sets(C: ConceptClass) -> set:
    """All shattered coordinate sets, by the fibre walk."""
    return {Y for Y, _ in _fibre_walk(C.concepts, C.domain_mask, C.n, True)}


def _strongly_shattered_sets(C: ConceptClass) -> set:
    """Coordinate sets Y such that C contains a full Y-cube: the cube supports."""
    return set(graph.cube_tags(C))


def _complexes(C: ConceptClass) -> tuple[set, set]:
    """(shattered, strongly shattered) coordinate sets of C; the shattered
    ones by `graph._shattered`."""
    st = _strongly_shattered_sets(C)
    return graph._shattered(C, st), st


def shattered_complex(C: ConceptClass) -> SetFamily:
    return SetFamily(C.n, frozenset(_complexes(C)[0]))


def strongly_shattered_complex(C: ConceptClass) -> SetFamily:
    return SetFamily(C.n, frozenset(_strongly_shattered_sets(C)))


def vc_dim(C: ConceptClass) -> int:
    return summary(C)["vc_dim"]


def phi(d: int, n: int) -> int:
    """Number of subsets of an n-set of size at most d."""
    return sum(comb(n, i) for i in range(min(d, n) + 1))


def _is_ample_fast(C: ConceptClass) -> bool:
    """Ampleness as |X(C)| = |C|: the cube complex alone, no shattering scan.

    No code in `src/` calls it: the report reads each C^x's ampleness off
    C's own X(C).  It stays as a layer that perfbench/tracing.py wraps and
    as a name the tests use, until ROADMAP item 2c settles the layers."""
    return len(graph.cube_tags(C)) == C.size


def _maximum_tags(C: ConceptClass, message: str) -> tuple[dict, int]:
    """(`graph.cube_tags(C)`, vc_dim(C)) for a maximum C; raises
    ContractError(message) otherwise.  A maximum class is ample, so its
    VC-dimension is the largest cube support."""
    tags = graph._ample_tags(C, message)
    d = max(popcount(Y) for Y in tags)
    if C.size != phi(d, C.n):
        raise ContractError(message)
    return tags, d


def is_ample(C: ConceptClass) -> tuple[bool, Optional[int]]:
    """(ample?, witness).

    The witness for a non-ample class is the lex-smallest (ordered by
    coordinate tuple) set that is shattered but not strongly shattered.
    """
    sh, st = _complexes(C)
    if len(sh) == C.size:
        return True, None
    gap = sh - st
    witness = min(gap, key=lambda Y: (popcount(Y), tuple(coords(Y))))
    return False, witness


def is_maximum(C: ConceptClass) -> bool:
    return bool(summary(C)["maximum"])


def summary(C: ConceptClass) -> dict:
    """The invariants that `check` and `batch` print, building each complex
    once: field -> value, each complex by its size, flags as 0/1.  `vc_dim`
    and `is_maximum` read their values here."""
    sh, st = _complexes(C)
    d = max(map(popcount, sh))
    return {"n": C.n, "size": C.size, "vc_dim": d, "shattered": len(sh),
            "strongly_shattered": len(st), "ample": int(len(sh) == C.size),
            "maximum": int(C.size == phi(d, C.n))}


class ForbiddenLabel(NamedTuple):
    """A labelled set of d+1 coordinates that C cannot realise: C|support misses pattern."""

    support: int
    pattern: int


def forbidden_labels(C: ConceptClass, Y: int) -> list[ForbiddenLabel]:
    """All patterns over Y missing from C|Y, for |Y| = vc_dim(C)+1."""
    core._check_subdomain(Y, C.n, ContractError)
    d = vc_dim(C)
    if popcount(Y) != d + 1:
        raise ContractError(f"need a set of size vc_dim+1 = {d + 1}, got {popcount(Y)}")
    return [ForbiddenLabel(Y, p) for p in _missed_labels(C.concepts, Y, d + 1)[Y]]


def _missed_labels(concepts, alive: int, d: int, extra=()) -> dict:
    """sigma -> {pattern: extra bitset} for the ascending patterns over sigma
    that no concept (of a sequence of concepts) realises, for every d-subset
    sigma of the alive coordinates in `combinations` order.  Bit j of a
    pattern's extra bitset is set iff extra[j] & sigma is the pattern.

    One unpruned fibre walk over the concepts followed by the extra ones
    reads every fibre of sigma, since a class of dimension d - 1 that misses
    a pattern on sigma may also miss one on a subset; a pattern is missed
    when its fibre holds none of the first len(concepts) indices."""
    size = len(concepts)
    own = (1 << size) - 1
    return {Y: {_pattern(Y, i): f >> size for i, f in enumerate(fibres) if not f & own}
            for Y, fibres in _fibre_walk((*concepts, *extra), alive, d, False)
            if popcount(Y) == d}


class AmpleReport(NamedTuple):
    """Outcomes of the independent ample characterisations, each True or
    False at every width.  The empty class (which can only appear here as a
    complement) counts as ample.

    Each field tests one statement, each of which holds iff C is ample:
    `complexes_equal` that sh(C) = st(C), with sh(C) from the fibre walk and
    st(C) read off X(C); the two counts that |st(C)| = |C| and
    |sh(C)| = |C|, the sandwich lemma's bounds met; `complement_ample` that
    2^X \\ C is ample (Lawrence); `partition_lopsided` that C is lopsided;
    `reductions_connected` that every reduction is connected; and
    `connected_hyperplanes_ample` that C is connected with every C^x ample.
    """

    complement_ample: bool                  # 2^X \ C is ample too
    complexes_equal: bool                   # shattered == strongly shattered
    strongly_shattered_count: bool          # |strongly shattered complex| == |C|
    shattered_count: bool                   # |shattered complex| == |C|
    partition_lopsided: bool                # each partition: Y-cube in C or Z-cube in complement
    reductions_connected: bool              # every nonempty reduction C^Y is connected
    connected_hyperplanes_ample: bool       # C connected and every C^x ample

    @property
    def agree(self) -> bool:
        return all(self) or not any(self)

    @property
    def ample(self) -> bool:
        return self.shattered_count


def ample_characterization_report(C: ConceptClass) -> AmpleReport:
    """The report, each field read off three sets built once: X(C) (its
    supports st(C) and their tags), sh(C) from the fibre walk, and X of the
    complement.  Each C^x and C's connectivity are read off X(C).

    C is lopsided iff every Y of X is strongly shattered by C or has its
    complement X \\ Y strongly shattered by 2^X \\ C, that is iff st(C)
    and the complements of the complement's st together hold all 2^n sets.
    The nonempty reductions C^Y are those of the supports Y of X(C), and
    tags[Y] holds the concepts of C^Y, zero on Y, so each is searched once
    in place, by the directions outside Y.  C is connected iff the Y = 0
    search reaches all of it, since tags[0] is C.

    The concepts of C^x are the tags of C's x-edges, tags[{x}], and a
    Y-cube with tag t lies in C^x iff the (Y | x)-cube with tag t lies in
    C: the reduction half of `graph.split_tags`, which uses no ampleness.
    So |X(C^x)| is the number of supports of X(C) that hold x, and C^x is
    ample iff that number is |tags[{x}]|.  A class with no x-edge reads
    0 = 0, as an empty C^x, which needs no test."""
    tags = graph.cube_tags(C)
    st = tags.keys()
    sh = _shattered_sets(C)
    if C.is_full_cube():
        st_comp: set = set()
        complement_ample = True  # empty class is vacuously ample
    else:
        comp = core.complement(C)
        st_comp = _strongly_shattered_sets(comp)
        complement_ample = len(st_comp) == comp.size

    connected = {Y: len(graph._bfs(ts, min(ts), bits_of(C.domain_mask & ~Y))) == len(ts)
                 for Y, ts in tags.items()}
    return AmpleReport(
        complement_ample=complement_ample,
        complexes_equal=sh == st,
        strongly_shattered_count=len(st) == C.size,
        shattered_count=len(sh) == C.size,
        partition_lopsided=len(st | {C.domain_mask ^ Z for Z in st_comp}) == 1 << C.n,
        reductions_connected=all(connected.values()),
        connected_hyperplanes_ample=connected[0] and all(
            sum(1 for Y in st if Y & b) == len(tags.get(b, ())) for b in bits_of(C.domain_mask)),
    )
