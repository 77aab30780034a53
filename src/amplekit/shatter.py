"""Shattering, VC dimension, and recognition of ample / maximum classes."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Optional

from . import core, graph
from .core import ConceptClass, Cube, bits_of, coords, mask_of, popcount
from .errors import ContractError


@dataclass(frozen=True)
class SetFamily:
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


def _shattered_sets(C: ConceptClass) -> set:
    """All shattered coordinate sets, grown levelwise by a shattering scan."""
    return set(core.levelwise(bits_of(C.domain_mask),
                              lambda Y, _: _is_shattered(C.concepts, Y)))


def _is_shattered(concepts, Y: int) -> bool:
    want = 1 << popcount(Y)
    seen = set()
    for c in concepts:
        seen.add(c & Y)
        if len(seen) == want:
            return True
    return False


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
    return max(popcount(Y) for Y in _complexes(C)[0])


def phi(d: int, n: int) -> int:
    """Number of subsets of an n-set of size at most d."""
    return sum(comb(n, i) for i in range(min(d, n) + 1))


def _is_ample_fast(C: ConceptClass) -> bool:
    """Ampleness as |X(C)| = |C|: the cube complex alone, no shattering scan."""
    return len(graph.cube_tags(C)) == C.size


def _ample_tags(C: ConceptClass, message: str) -> dict:
    """`graph.cube_tags(C)` for an ample C, by the test of `_is_ample_fast`;
    raises ContractError(message) otherwise.  Guards hand the tags on, so
    their callers read X(C) without building it again."""
    tags = graph.cube_tags(C)
    if len(tags) != C.size:
        raise ContractError(message)
    return tags


def _maximum_tags(C: ConceptClass, message: str) -> tuple[dict, int]:
    """(`graph.cube_tags(C)`, vc_dim(C)) for a maximum C; raises
    ContractError(message) otherwise.  A maximum class is ample, so its
    VC-dimension is the largest cube support."""
    tags = _ample_tags(C, message)
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
    return C.size == phi(vc_dim(C), C.n)


@dataclass(frozen=True)
class Summary:
    """The invariants reported by `check` and `batch`."""

    n: int
    size: int
    vc_dim: int
    shattered: SetFamily
    strongly_shattered: SetFamily
    ample: bool
    maximum: bool

    def printed(self) -> dict:
        """Field -> printed value: each complex by its size, flags as 0/1."""
        return {"n": self.n, "size": self.size, "vc_dim": self.vc_dim,
                "shattered": self.shattered.size,
                "strongly_shattered": self.strongly_shattered.size,
                "ample": int(self.ample), "maximum": int(self.maximum)}


def summary(C: ConceptClass) -> Summary:
    """All of `Summary`, building each complex once."""
    sh, st = (SetFamily(C.n, frozenset(m)) for m in _complexes(C))
    d = sh.dim()
    return Summary(C.n, C.size, d, sh, st,
                   ample=sh.size == C.size, maximum=C.size == phi(d, C.n))


@dataclass(frozen=True)
class ForbiddenLabel:
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
    return [ForbiddenLabel(Y, p) for p in _missing_patterns(C, Y)]


def _missing_patterns(concepts, Y: int) -> list[int]:
    """Ascending patterns over Y that the concepts (a class or any iterable
    of concepts) miss."""
    seen = {c & Y for c in concepts}
    return sorted(p for p in Cube(0, Y).vertices() if p not in seen)


def _missed_labels(concepts, alive: int, d: int) -> dict:
    """sigma -> `_missing_patterns(concepts, sigma)` for every d-subset sigma
    of the alive coordinates, in `combinations` order: the one scan for the
    labels a class of dimension d - 1 cannot realise."""
    return {sigma: _missing_patterns(concepts, sigma)
            for sigma in map(mask_of, combinations(coords(alive), d))}


@dataclass(frozen=True)
class AmpleReport:
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
        return [
            self.definition, self.complement_ample, self.complexes_equal,
            self.strongly_shattered_count, self.shattered_count,
            self.cube_intersections, self.partition_exchange,
            self.partition_lopsided, self.reductions_connected,
            self.connected_hyperplanes_ample,
        ]

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


def _partition_exchange_ok(C: ConceptClass) -> bool:
    """(C^Y)_Z = (C_Z)^Y for all partitions X = Y ∪̇ Z.

    With Z the complement of Y both sides live on the empty domain, so the
    identity says: C contains a Y-cube  iff  C|Y is the full cube on Y.
    """
    for Y in range(0, C.domain_mask + 1):
        has_cube = bool(core.reduction_tags(C.concepts, Y))
        if has_cube != _is_shattered(C.concepts, Y):
            return False
    return True


def _partition_lopsided_ok(C: ConceptClass, st: set) -> bool:
    """For every partition X = Y ∪̇ Z: Y strongly shattered by C, or Z by 2^X \\ C."""
    comp = [c for c in range(1 << C.n) if c not in C.concept_set]
    st_comp = set()
    if comp:
        st_comp = _strongly_shattered_sets(ConceptClass(C.n, tuple(comp)))
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
        complement_ample = True  # empty class is vacuously ample
    else:
        complement_ample = _is_ample_fast(core.complement(C))

    if C.n <= _CUBE_CAP:
        cube_intersections = _cube_intersections_ok(C)
        partition_lopsided = _partition_lopsided_ok(C, st)
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
        partition_exchange = _partition_exchange_ok(C)
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
