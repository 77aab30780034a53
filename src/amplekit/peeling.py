"""Ordering classifiers, corner-peeling search, guaranteed peelings,
collapsing sequences, and the shelling correspondence."""
from __future__ import annotations

from typing import NamedTuple, Optional

from . import core, graph
from .core import ConceptClass, Cube, popcount
from .errors import ContractError, IntegrityError, OrderingValidationError


class OrderingReport(NamedTuple):
    ample: bool
    corner_peeling: bool
    isometric: bool
    weakly_isometric: bool

    @property
    def all_equal(self) -> bool:
        return len({self.ample, self.corner_peeling,
                    self.isometric, self.weakly_isometric}) == 1


def _check_permutation(C: ConceptClass, ordering) -> list[int]:
    order = list(ordering)
    if sorted(order) != list(C.concepts):
        raise ContractError("ordering is not a permutation of the class")
    return order


def _out_map(order, n: int) -> dict:
    """v -> o(v) for the concepts v of an ordering, in that order, where
    o(v) is the mask of the directions b such that v ^ b comes before v."""
    earlier: set = set()
    o = {}
    for v in order:
        o[v] = graph._neighbour_dirs(earlier, v, n)
        earlier.add(v)
    return o


def classify_ordering(C: ConceptClass, ordering) -> OrderingReport:
    """Evaluate the four level-set properties of an ordering, each on its own
    path, judging each level from its newest concept.

    Level P = P' ∪ {v} follows the level P' with v, and N = o(v) is the mask
    of v's neighbours in P', which are all its neighbours in P.  A property
    holds for the ordering when it holds on every level, so P is judged only
    while P' passed, and then only the pairs and cubes through v are new:

    - corner: the supports of the cubes of P through v are closed under
      subsets and their union is N, so v lies in a unique maximal cube iff
      the N-cube through v lies in P (the proof of `graph.is_corner`);
    - isometric: P is isometric iff `graph._isometric_at(P', v, N)`;
    - weakly isometric: iff `graph._weak_violation(P', v, n)` is false.
      An isometric level is weakly isometric, so that test runs only once
      the levels stop being isometric;
    - ample: a cube of P lies in P' or passes through v, so X(P) is X(P')
      together with the supports of the cubes of P through v, and P is
      ample iff |X(P)| = |P|.
    """
    order = _check_permutation(C, ordering)
    ample = corner = isometric = weak = True
    prefix: set = set()
    X: set = set()
    for v, N in _out_map(order, C.n).items():
        isometric = isometric and graph._isometric_at(prefix, v, N)
        weak = weak and (isometric or not graph._weak_violation(prefix, v, C.n))
        prefix.add(v)
        if corner:
            corner = graph._is_corner_in(prefix, v, N)
        if ample:
            X.update(graph._local_supports(prefix, v, N))
            ample = len(X) == len(prefix)
        if not (ample or corner or isometric or weak):
            break
    return OrderingReport(ample, corner, isometric, weak)


class PeelingResult(NamedTuple):
    ordering: Optional[tuple]
    proven: bool          # meaningful when ordering is None: search space exhausted
    expansions: int

    @property
    def peelable(self) -> bool:
        return self.ordering is not None


def corner_peeling_search(C: ConceptClass, budget: int = 10**6) -> PeelingResult:
    """Find a corner peeling by greedy removal with chronological backtracking.

    Removing a corner of an ample class leaves an ample class, so only
    cornerhood needs re-checking along the way.  A None ordering with
    proven=True means the exhaustive search finished without success;
    proven=False means the expansion budget ran out first.  The search keeps
    its path in a list, so its depth is not bounded by the recursion limit.

    Its state is the current level `remaining`, the set of its corners, the
    list `peeled` of the concepts removed on the way to it, and the levels
    known to fail.  Before c is removed from the level s, the concepts
    c ^ Z for the supports Z of `graph._local_supports(s, c, N(c))` are
    collected: these are exactly the concepts u that share a cube of s with
    c, since the interval between u and c is then a cube through c.  After
    the removal only they are rechecked.  Any other concept u keeps its
    cornerhood: u is not next to c, so its neighbour mask N(u) is
    unchanged; if u was a corner, its N(u)-cube lay in s without c (else u
    would share it with c), so it still lies in s minus c; if u was not a
    corner, its N(u)-cube was already missing a vertex.  Putting c back is
    the same argument read backwards on s, and the same call on s, made
    once c is back, collects the same concepts, c included.  So the corner
    set is always exactly the corners of `remaining`, and a backtrack to a
    level restores the corners it first chose from.  A level tries its
    corners in ascending order: first the least, and after a backtrack from
    c = `peeled.pop()`, the least above c.  A level with none left to try
    is added to the failed levels, and a level already among them tries
    none: the search backs up from either at once.  A level is known by the
    concepts peeled on the way to it, so each failed level is kept as one
    int, `gone`, with bit i set for each peeled concept C.concepts[i].
    """
    graph._ample_tags(C, "corner peeling search requires an ample class")
    n = C.n
    expansions = 0
    failed: set = set()
    index = {c: i for i, c in enumerate(C.concepts)}
    gone = 0
    peeled: list[int] = []
    remaining = set(C.concepts)
    corners = set(graph.corners(C))

    def around(c: int) -> list[int]:
        """The concepts that share a cube of `remaining` with c."""
        return [c ^ Z for Z in graph._local_supports(
            remaining, c, graph._neighbour_dirs(remaining, c, n))]

    def recheck(us) -> None:
        for u in us:
            if u in remaining and graph._is_corner_in(
                    remaining, u, graph._neighbour_dirs(remaining, u, n)):
                corners.add(u)
            else:
                corners.discard(u)

    while len(remaining) > 1:
        # a level known to fail tries no corner
        c = None if gone in failed else min(corners, default=None)
        # back up past every level with no corner left to try
        while c is None:
            failed.add(gone)
            if not peeled:
                return PeelingResult(None, True, expansions)
            last = peeled.pop()
            remaining.add(last)
            gone ^= 1 << index[last]
            recheck(around(last))
            c = min((u for u in corners if u > last), default=None)
        expansions += 1
        if expansions > budget:
            return PeelingResult(None, False, expansions)
        shared = around(c)
        remaining.remove(c)
        peeled.append(c)
        gone ^= 1 << index[c]
        recheck(shared)
    peeled.extend(remaining)
    return PeelingResult(tuple(reversed(peeled)), True, expansions)


def _closure(C: ConceptClass, s: int) -> Optional[int]:
    """Smallest member of the intersection-closed class containing s."""
    acc = None
    for c in C:
        if s & ~c == 0:
            acc = c if acc is None else acc & c
    return acc


def extremal_points(C: ConceptClass, c: int) -> int:
    return graph._neighbour_dirs(C.concept_set, c, C.n) & c


def antimatroid_peeling(C: ConceptClass) -> tuple:
    """Size-monotone corner peeling of a conditional antimatroid."""
    if 0 not in C.concept_set:
        raise ContractError("not a conditional antimatroid: empty set missing")
    s = C.concept_set
    for i, c in enumerate(C.concepts):
        for d in C.concepts[i + 1:]:
            if c & d not in s:
                raise ContractError(
                    "not a conditional antimatroid: not closed under intersection")
    for c in C:
        if _closure(C, extremal_points(C, c)) != c:
            raise ContractError(
                "not a conditional antimatroid: a member is not generated "
                "by its extremal points")
    return tuple(sorted(C.concepts, key=lambda c: (popcount(c), c)))


def two_dim_peeling(C: ConceptClass) -> tuple:
    """Max-adjacency growth ordering; a corner peeling for ample classes of
    VC-dimension at most 2."""
    tags = graph._ample_tags(C, "two-dimensional peeling requires an ample class")
    if max(popcount(Y) for Y in tags) > 2:
        raise ContractError("two-dimensional peeling requires VC-dimension <= 2")
    order = [C.concepts[0]]
    placed = {C.concepts[0]}
    while len(order) < C.size:
        # the first concept of most neighbours placed, in ascending order
        best = max((c for c in C if c not in placed),
                   key=lambda c: popcount(graph._neighbour_dirs(placed, c, C.n)))
        order.append(best)
        placed.add(best)
    return tuple(order)


# -- collapsing sequences -----------------------------------------------------

CollapseSequence = list[tuple[Cube, Cube]]


def _collapse_rec(alive: int, tags: dict) -> tuple[CollapseSequence, int]:
    """Collapsing sequence of the cube complex `tags` plus the surviving
    vertex; `alive` holds the coordinates that vary.

    Recursion on the highest alive coordinate x: collapse the half C_x
    first, its complex from `graph.split_tags`, then lift each pair through
    the x-direction.  A cube Q of C_x is "thick" when both its side copies
    (x=0 and x=1) lie in C, in which case its preimage is the
    (dim+1)-cube spanning the x-direction.
    """
    if alive == 0:
        return [], next(iter(tags[0]))
    xb = 1 << (alive.bit_length() - 1)
    seq_x, survivor_x = _collapse_rec(alive & ~xb, graph.split_tags(tags, xb)[1])

    def side_cubes(Q: Cube) -> tuple[Optional[Cube], Optional[Cube]]:
        t, S = Q.tag, Q.support
        return (Q if t in tags[S] else None,
                Cube(t | xb, S) if t | xb in tags[S] else None)

    seq: CollapseSequence = []
    for Q, Qp in seq_x:
        q0, q1 = side_cubes(Q)
        p0, p1 = side_cubes(Qp)
        q_thick = q0 is not None and q1 is not None
        p_thick = p0 is not None and p1 is not None
        if q_thick and p_thick:
            thickQ = Cube(Q.tag, Q.support | xb)
            thickP = Cube(Qp.tag, Qp.support | xb)
            seq.append((thickQ, thickP))
            seq.append((q0, p0))
            seq.append((q1, p1))
        elif q_thick:
            # the coface lifts to one side only; pair the thick cube of Q
            # with the surviving side of Qp, and the other side of Q stays
            # paired through the x-direction
            thickQ = Cube(Q.tag, Q.support | xb)
            if p0 is not None:
                seq.append((q1, thickQ))
                seq.append((q0, p0))
            else:
                seq.append((q0, thickQ))
                seq.append((q1, p1))
        else:
            # a thin free face under a thick coface cannot occur: a thick
            # coface forces both sides of its facets into the class
            if p_thick:
                raise IntegrityError("collapse lift failed: thin face, thick coface")
            if q0 is not None and p0 is not None:
                seq.append((q0, p0))
            elif q1 is not None and p1 is not None:
                seq.append((q1, p1))
            else:
                raise IntegrityError("collapse lift failed: sides do not align")
    # the survivor vertex of C_x: collapse its x-edge if it exists
    v0 = survivor_x
    v1 = survivor_x | xb
    if v0 in tags[xb]:
        seq.append((Cube(v1, 0), Cube(v0, xb)))
    return seq, v0 if v0 in tags[0] else v1


def collapse_sequence(C: ConceptClass) -> tuple[CollapseSequence, int]:
    """Collapsing sequence of Q(C) and the vertex it leaves, validated by
    replay."""
    tags = graph._ample_tags(C, "collapse sequences are built for ample classes only")
    seq, survivor = _collapse_rec(C.support(), tags)
    _replay(tags, C.n, seq, survivor)
    return seq, survivor


def replay_collapse(C: ConceptClass, seq: CollapseSequence, survivor: Optional[int] = None):
    """Check that seq is a valid collapsing sequence of Q(C): every pair is a
    (free face, unique proper coface) in the current complex, and one vertex
    remains at the end."""
    _replay(graph.cube_tags(C), C.n, seq, survivor)


def _replay(tags: dict, n: int, seq: CollapseSequence, survivor: Optional[int]):
    """`replay_collapse` on the cube complex `tags` over n coordinates.

    Since the face set stays closed under subcubes throughout a collapse,
    a face is free exactly when it has a single remaining coface one
    dimension up (two intermediate faces would survive under any higher
    containment).  The cofaces one dimension up of the face (t, S) are the
    faces (t & ~b, S | b) with b not in S, looked up in the remaining faces.
    """
    faces = {(t, S) for S, ts in tags.items() for t in ts}
    dirs = graph._DIRS[:n]
    for i, (Q, Qp) in enumerate(seq):
        fq, fp = (Q.tag, Q.support), (Qp.tag, Qp.support)
        if not Qp.contains_cube(Q) or Qp.dim != Q.dim + 1:
            raise IntegrityError(f"pair {i}: not a facet/coface pair")
        if fq not in faces or fp not in faces:
            raise IntegrityError(f"pair {i}: face already removed or absent")
        t, S = fq
        cofaces = [f for b in dirs if not b & S and (f := (t & ~b, S | b)) in faces]
        if cofaces != [fp]:
            raise IntegrityError(
                f"pair {i}: face is not free ({len(cofaces)} cofaces)")
        faces.discard(fq)
        faces.discard(fp)
    if len(faces) != 1:
        raise IntegrityError(f"{len(faces)} faces remain after replay")
    (tag, sup), = faces
    if sup != 0 or (survivor is not None and tag != survivor):
        raise IntegrityError("replay did not end at the expected vertex")


# -- shelling correspondence --------------------------------------------------

class ShellingOrder(NamedTuple):
    """Ordering of cross-polytope facets; facet sigma is encoded as a concept
    bitmask (bit x set = the positive element of the antipodal pair x)."""

    n: int
    facets: tuple


def validate_shelling(sh: ShellingOrder) -> None:
    """Partial shelling: for i<j some k<j shares a ridge with facet j and
    captures the i,j intersection.  In bitmask terms the facet k differs from
    facet j in exactly one coordinate, and that coordinate is one where
    facets i and j disagree.  The ridge coordinates of facet j are its
    neighbour directions among the earlier facets, so this is term for term
    the test of `graph.extends_isometric`.  The width must lie in
    0..MAX_WIDTH, as a concept class's must, before any facet is read."""
    core._check_domain_width(sh.n)
    fs = sh.facets
    seen = set()
    for j, fj in enumerate(fs):
        if fj in seen:
            raise OrderingValidationError("repeated facet", j)
        if not 0 <= fj < 1 << sh.n:
            raise OrderingValidationError("facet out of range", j)
        if not graph.extends_isometric(seen, fj, sh.n):
            raise OrderingValidationError(
                "partial shelling condition fails", j)
        seen.add(fj)


def ordering_to_shelling(C: ConceptClass, ordering) -> ShellingOrder:
    """The ordering of C as facets, checked by `validate_shelling`."""
    sh = ShellingOrder(C.n, tuple(_check_permutation(C, ordering)))
    validate_shelling(sh)
    return sh


def shelling_to_ordering(sh: ShellingOrder) -> tuple[ConceptClass, tuple]:
    validate_shelling(sh)
    return ConceptClass(sh.n, sh.facets), sh.facets
