"""Shattering, VC dimension, and recognition of ample / maximum classes."""
from __future__ import annotations

from math import comb
from typing import NamedTuple, Optional

from . import core, graph
from .core import ConceptClass, Cube, bits_of, coords, popcount
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


def _fibre_walk(concepts, alive: int, d: int, prune: bool, visit) -> None:
    """Call visit(Y, fibres) on coordinate sets Y of the alive coordinates,
    depth first in `combinations` order, from Y = 0 up to |Y| = d.

    fibres[i] is the set of indices j with concepts[j] & Y = p_i, as an int
    bitset, where p_0 < p_1 < ... are the 2^|Y| patterns over Y.  Each
    concept's bits are kept as one column bitset per coordinate, and a set
    Y | b (b above the top coordinate of Y) splits every fibre of Y by the
    column of b: the part without b keeps index i, the part with b takes
    index i + 2^|Y|, so the new patterns are the high half and the index
    order stays the pattern order.  Only the fibres of the current path
    are alive: on a path to a k-set, fewer than 2^(k+1) bitsets of
    len(concepts) bits, besides the columns.

    Y is shattered iff all its fibres are nonempty.  With prune, only
    shattered sets are visited: shattered sets are closed under subsets, so
    a child is dropped at its first empty fibre.  Without prune, only the
    sets on a path to a d-set are visited, and each of those is, whatever
    its fibres.
    """
    bs = bits_of(alive)
    m = len(bs)
    full = (1 << len(concepts)) - 1
    cols = []
    for b in bs:
        col = int("".join(["1" if c & b else "0" for c in reversed(concepts)]) or "0", 2)
        cols.append((col, full & ~col))

    def down(Y: int, fibres: list, start: int, k: int) -> None:
        visit(Y, fibres)
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
                    down(Y | bs[i], lo + hi, i + 1, k + 1)
            else:
                down(Y | bs[i], [f & off for f in fibres] + [f & col for f in fibres],
                     i + 1, k + 1)

    # the empty set is shattered iff there is a concept
    if not prune or full:
        down(0, [full], 0, 0)


def _pattern(Y: int, i: int) -> int:
    """The pattern of fibre i over Y in `_fibre_walk`: the j-th lowest
    coordinate of Y is set iff bit j of i is."""
    return sum(b for j, b in enumerate(bits_of(Y)) if i >> j & 1)


def _shattered_sets(C: ConceptClass) -> set:
    """All shattered coordinate sets, by the fibre walk."""
    out: set = set()
    _fibre_walk(C.concepts, C.domain_mask, C.n, True, lambda Y, _: out.add(Y))
    return out


def _strongly_shattered_sets(C: ConceptClass) -> set:
    """Coordinate sets Y such that C contains a full Y-cube: the cube supports."""
    return set(graph.cube_tags(C))


def _complexes(C: ConceptClass) -> tuple[set, set]:
    """(shattered, strongly shattered) coordinate sets of C.

    By the sandwich lemma st(C) ⊆ sh(C) and |st(C)| ≤ |C| ≤ |sh(C)|, and C is
    ample iff |st(C)| = |C|, in which case sh(C) = st(C).  So the shattered
    complex is read off the cube complex whenever that has |C| members, and
    only a class that falls short pays for the shattering scan.
    """
    st = _strongly_shattered_sets(C)
    if len(st) == C.size:
        return st, st
    return _shattered_sets(C), st


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
    """Ampleness as |X(C)| = |C|: the cube complex alone, no shattering scan."""
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
    if Y & ~C.domain_mask:
        raise ContractError("coordinate set outside domain")
    d = vc_dim(C)
    if popcount(Y) != d + 1:
        raise ContractError(f"need a set of size vc_dim+1 = {d + 1}, got {popcount(Y)}")
    return [ForbiddenLabel(Y, p) for p in _missed_labels(C.concepts, Y, d + 1)[Y]]


def _missed_labels(concepts, alive: int, d: int) -> dict:
    """sigma -> the ascending patterns over sigma that no concept (of a
    sequence of concepts) realises, for every d-subset sigma of the alive
    coordinates in `combinations` order: the patterns of sigma's empty
    fibres in the unpruned fibre walk, since a class of dimension d - 1
    that misses a pattern on sigma may also miss one on a subset."""
    out: dict = {}

    def visit(Y: int, fibres: list) -> None:
        if popcount(Y) == d:
            out[Y] = [_pattern(Y, i) for i, f in enumerate(fibres) if not f]

    _fibre_walk(concepts, alive, d, False, visit)
    return out


class AmpleReport(NamedTuple):
    """Outcomes of the independent ample characterisations.

    Each field is True/False, or None when that test was skipped because the
    domain is too wide to enumerate it honestly.  The empty class (which can
    only appear here as a complement) counts as ample.
    """

    definition: bool                        # every shattered set supports a full cube
    complement_ample: bool                  # 2^X \ C is ample too
    complexes_equal: bool                   # shattered == strongly shattered
    strongly_shattered_count: bool          # |strongly shattered complex| == |C|
    shattered_count: bool                   # |shattered complex| == |C|
    cube_intersections: Optional[bool]      # C ∩ B ample for every cube B
    partition_exchange: Optional[bool]      # (C^Y)_Z == (C_Z)^Y over all partitions Y ∪̇ Z
    partition_lopsided: Optional[bool]      # each partition: Y-cube in C or Z-cube in complement
    reductions_connected: Optional[bool]    # every nonempty reduction C^Y is connected
    connected_hyperplanes_ample: bool       # C connected and every C^x ample

    def values(self) -> list:
        return list(self)

    @property
    def agree(self) -> bool:
        vals = [v for v in self.values() if v is not None]
        return all(vals) or not any(vals)

    @property
    def ample(self) -> bool:
        return self.shattered_count


_CUBE_CAP = 12        # 3^n cubes: fine up to here
_PARTITION_CAP = 10   # 2^n partitions, each needing cube / restriction work


def all_cubes_of_domain(n: int):
    """Every subcube of the full n-cube (3^n of them)."""
    for support in range(1 << n):
        for tag in Cube(0, core.full_mask(n) & ~support).vertices():
            yield Cube(tag, support)


def _cube_intersections_ok(C: ConceptClass) -> bool:
    for B in all_cubes_of_domain(C.n):
        sub = core.intersect_cube(C, B)
        if sub is not None and not _is_ample_fast(sub):
            return False
    return True


def _partition_exchange_ok(C: ConceptClass, sh: set) -> bool:
    """(C^Y)_Z = (C_Z)^Y for all partitions X = Y ∪̇ Z; `sh` is
    `_shattered_sets(C)`.

    With Z the complement of Y both sides live on the empty domain, so the
    identity says: C contains a Y-cube  iff  C|Y is the full cube on Y.
    """
    for Y in range(0, C.domain_mask + 1):
        if bool(core.reduction_tags(C.concepts, Y)) != (Y in sh):
            return False
    return True


def _partition_lopsided_ok(C: ConceptClass, st: set, st_comp: set) -> bool:
    """For every partition X = Y ∪̇ Z: Y strongly shattered by C, or Z by
    2^X \\ C; `st` and `st_comp` are the strongly shattered sets of the two."""
    for Y in range(0, C.domain_mask + 1):
        if Y not in st and (C.domain_mask & ~Y) not in st_comp:
            return False
    return True


def ample_characterization_report(C: ConceptClass) -> AmpleReport:
    sh = _shattered_sets(C)
    st = _strongly_shattered_sets(C)
    definition = sh <= st
    complexes_equal = sh == st
    shattered_count = len(sh) == C.size
    strongly_count = len(st) == C.size

    if C.is_full_cube():
        st_comp: set = set()
        complement_ample = True  # empty class is vacuously ample
    else:
        comp = core.complement(C)
        st_comp = _strongly_shattered_sets(comp)
        complement_ample = len(st_comp) == comp.size

    if C.n <= _CUBE_CAP:
        cube_intersections = _cube_intersections_ok(C)
        partition_lopsided = _partition_lopsided_ok(C, st, st_comp)
        reductions_connected = True
        for Y in range(0, C.domain_mask + 1):
            R = core.reduce(C, Y)
            if R is not None and not graph.is_connected(R):
                reductions_connected = False
                break
    else:
        cube_intersections = None
        partition_lopsided = None
        reductions_connected = None

    if C.n <= _PARTITION_CAP:
        partition_exchange = _partition_exchange_ok(C, sh)
    else:
        partition_exchange = None

    chp = graph.is_connected(C)
    if chp:
        for x in range(1, C.n + 1):
            R = core.reduce(C, core.bit(x))
            if R is not None and not _is_ample_fast(R):
                chp = False
                break

    return AmpleReport(
        definition=definition,
        complement_ample=complement_ample,
        complexes_equal=complexes_equal,
        strongly_shattered_count=strongly_count,
        shattered_count=shattered_count,
        cube_intersections=cube_intersections,
        partition_exchange=partition_exchange,
        partition_lopsided=partition_lopsided,
        reductions_connected=reductions_connected,
        connected_hyperplanes_ample=chp,
    )
