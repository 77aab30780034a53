"""Representation maps: verification, construction for maximum classes,
USO conversions, substructure maps, pre-representation maps, ISR instances,
and the tail-matching analysis.

A RepMap (and an orientation out-map) is a plain dict mapping each concept of
the class to a coordinate-set bitmask.
"""
from __future__ import annotations

import functools
from collections import Counter
from itertools import accumulate, chain
from typing import NamedTuple, Optional

# `shatter` and `matching` are imported where used: `repmap verify` on an
# ample class loads neither
from . import core, graph
from .core import ConceptClass, Cube, bit, bits_of, coords, popcount
from .errors import ContractError, IntegrityError

# The map file format and the map contracts are defined in `core`, next to
# the class file format, so that `compress` and `decompress` can read a map
# without importing this module and its dependencies.  The two public names
# of the format stay importable from here.
from .core import _check_total, format_repmap, parse_repmap_text  # noqa: F401

RepMap = dict


class Check(NamedTuple):
    ok: bool
    witness: object = None


class RepMapReport(NamedTuple):
    r1: Check
    r2: Check
    r3: Check
    r4: Check
    bijective: Check
    c1: Check
    c2: Check

    @property
    def valid(self) -> bool:
        return all(c.ok for c in self)


def _check_pairs(C: ConceptClass, r: RepMap) -> tuple[Check, Check, Check]:
    """R1, R3 and R4 from one sweep of the pairs c < d in concept order.

    R1 fails at a pair when c ^ d misses r(c) | r(d), and R4 when it misses
    r(c) ^ r(d).  As r(c) ^ r(d) ⊆ r(c) | r(d), a pair failing R1 fails R4,
    so R4's first failing pair comes no later than R1's, and the sweep stops
    at R1's first failure; each witness is its check's first failing pair.

    R3 (cube injectivity) holds iff R4 does.  If c ≠ d lie in one cube of
    support S and r(c) & S = r(d) & S, then c ^ d ⊆ S and r(c) ^ r(d) misses
    S, hence misses c ^ d: the pair fails R4.  Conversely, if r(c) ^ r(d)
    misses c ^ d, then c and d collide on their interval cube, of support
    c ^ d.  So R4's first failing pair (c, d) gives R3's witness
    (interval cube, c, d).
    """
    cs = C.concepts
    fails = ((c, d) for i, c in enumerate(cs) for d in cs[i + 1:]
             if not (c ^ d) & (r[c] ^ r[d]))      # R4's failing pairs, in order
    r4 = next(fails, None)
    if r4 is None:
        return Check(True), Check(True), Check(True)
    # the sweep goes on from R4's first failure to R1's first, or to its end
    r1 = next(((c, d) for c, d in chain([r4], fails) if not (c ^ d) & (r[c] | r[d])), None)
    return Check(r1 is None, r1), Check(False, (core.interval(*r4), *r4)), Check(False, r4)


def _r2_domain(C: ConceptClass, r: RepMap, sh) -> int:
    """R2's first failing domain, or 2^n when R2 holds.  R2 is unique
    reconstruction: for every sample domain Y, each realized pattern has
    exactly one consistent concept with r(c) ⊆ Y (`core._decodings`); `sh`
    is sh(C), the shattered sets, from `graph._shattered`.

    The domain is found on every class without a sweep.  Let Z* be the
    least set Z with #r⁻¹(Z) ≠ [Z ∈ sh(C)], or 2^n if there is none,
    and U the least union r(c) | r(d) over the pairs c ≠ d that clash,
    (c ^ d) & (r(c) | r(d)) = 0, or 2^n.  For every Y below min(Z*, U),
    every Z ⊆ Y is at most Y, so #r⁻¹(Z) = [Z ∈ sh(C)] and the concepts
    with r(c) ⊆ Y number |sh(C) ∩ 2^Y|, which is at least the number of
    patterns |C|_Y| by Pajor's lemma, as sh(C|_Y) = sh(C) ∩ 2^Y.  Two
    decodings of one pattern at Y would be a clashing pair with union
    inside Y; there is none, so every pattern has exactly one decoding.
    At Z*, the decodings number |sh(C) ∩ 2^Z*| - [Z* ∈ sh(C)] + #r⁻¹(Z*):
    one short of the 2^|Z*| patterns when Z* is shattered and has no
    preimage, and more than |C|_Z*| patterns otherwise; at U two concepts
    decode one pattern.  So min(Z*, U) is the first failing domain.  A map
    that passes thus has #r⁻¹ = [· ∈ sh(C)] and no clashing pair, hence
    |C| = |sh(C)|: every map on a class that is not ample fails R2, and a
    map that passes is a non-clashing bijection onto sh(C) = X(C).  The
    least union below Z* is found scanning the concepts in ascending r(d)
    against the ones before, up to the first r(d) at or above the best so
    far, since every later union is at least r(d).
    """
    counts = Counter(r.values())
    best = min((Z for Z in counts.keys() | sh if counts[Z] != (Z in sh)), default=1 << C.n)
    order = sorted(C.concepts, key=r.__getitem__)
    for i, d in enumerate(order):
        rd = r[d]
        if rd >= best:
            break
        for c in order[:i]:
            u = r[c] | rd
            if u < best and not (c ^ d) & u:
                best = u
    return best


def _check_c1(C: ConceptClass, r: RepMap, tags: dict) -> Check:
    """The r(c)-cube through c lies in C, that is its tag c & ~r(c) is in
    tags[r(c)], with `tags` = `graph.cube_tags(C)`; the first failing c."""
    for c in C:
        if c & ~r[c] not in tags.get(r[c], ()):
            return Check(False, c)
    return Check(True)


def _check_c2(C: ConceptClass, r: RepMap, tags: dict) -> Check:
    """Unique sink on every cube of C, in O(1) per cube, with `tags` =
    `graph.cube_tags(C)`.  The witness is the first failing cube by
    (support, tag).

    A sink of a cube (t, Y) is a vertex v with r(v) & Y = 0.  Let b be the
    lowest coordinate of Y and Y' = Y - b.  The vertices of (t, Y) are
    those of its two b-facets (t, Y') and (t | b, Y'), and v is a sink of
    (t, Y) iff it is a sink of its facet and b is not in r(v).  So if each
    facet has one sink, s1 and s2, C2 holds on (t, Y) iff exactly one of
    r(s1), r(s2) holds b, and the sink is the other one.  The supports are
    walked depth first from 0, each Y with children Y | b for b below its
    lowest coordinate in ascending order; the subtree of Y is then the
    integer range [Y, Y + lowest bit of Y), so the supports come in
    ascending order and every facet support Y' comes before Y.  Until the
    first failing support, every cube seen so far has one sink, so each
    cube of that support is judged exactly; its smallest failing tag is the
    witness.  Only the images r(s) of the sinks on the current path of
    supports are kept.
    """

    def down(Y: int, sink_r: dict) -> Optional[Cube]:
        # sink_r: tag -> r(sink) of each Y-cube, every one with a unique sink
        b = 1
        low = Y & -Y or 1 << C.n
        while b < low:
            ts = tags.get(Y | b)
            if ts is not None:
                child, bad = {}, []
                for t in ts:
                    a, c = sink_r[t], sink_r[t | b]
                    if (a ^ c) & b:
                        child[t] = c if a & b else a
                    else:
                        bad.append(t)
                if bad:
                    return Cube(min(bad), Y | b)
                failed = down(Y | b, child)
                if failed is not None:
                    return failed
            b <<= 1
        return None

    # each 0-cube {c} is its own sink, so r itself serves for support 0
    failed = down(0, r)
    return Check(True) if failed is None else Check(False, failed)


def verify_repmap(C: ConceptClass, r: RepMap) -> RepMapReport:
    """Every check, each with its first witness.  R2's witness is the first
    (Y, pattern) over the domains in numeric order, patterns in
    `core._decodings` order: the first failing pattern at R2's first
    failing domain (`_r2_domain`), so the decoder reads that domain alone.

    The certificate (`_certificate`: bijection onto X(C), C1 and C2) is
    computed first, once, and R1–R4 are swept only on a map that fails it;
    the report of such a map carries the certificate's three checks as
    they are.  A bijection onto X(C) exists only for ample C (|X(C)| ≤
    |C| ≤ number of shattered sets, with equality iff C is ample), and for
    ample C such a bijection is a representation map exactly when it
    satisfies C1 and C2: its 1-skeleton is then a unique sink orientation.
    So when the bijection, C1 and C2 hold, R1–R4 hold too, and every check
    passes.

    Once r is a bijection onto X(C), C1 is `_check_c1`'s lookup in the one
    cube complex that C2 also reads.  For such a bijection C2 in fact implies
    C1.  C2 makes r a unique sink orientation on every cube of C, so every
    cube has one source, and c is the source of the Z-cube through c iff
    Z ⊆ r(c).  Hence the number of cubes of C is at most the sum over c of
    2^|r(c)|, with equality iff C1 holds.  That sum is the number of pairs
    Z ⊆ Y in X(C), and for ample C the sets Y ⊇ Z in X(C) are as many as
    the Z-cubes of C (|C^Z| = |X(C^Z)|), so equality holds.  A search of
    every bijection satisfying C2 on all 5529 ample classes with n ≤ 4 found
    none that fails C1.  The lookup costs one pass over C and is kept.
    """
    _check_total(C, r)
    tags = graph.cube_tags(C)
    cert = _certificate(C, r, tags)
    if all(c.ok for c in cert):
        return RepMapReport(*[Check(True)] * 7)
    r1, r3, r4 = _check_pairs(C, r)
    Y = _r2_domain(C, r, graph._shattered(C, tags.keys()))
    r2 = Check(True) if Y >> C.n else Check(False, (Y, next(
        pat for pat, cs in core._decodings(C.concepts, r, Y).items() if len(cs) != 1)))
    return RepMapReport(r1, r2, r3, r4, *cert)


# the one report under its earlier name
certify_repmap = verify_repmap


def _certificate(C: ConceptClass, r: RepMap, tags: dict) -> tuple[Check, Check, Check]:
    """The bijection onto X(C), C1 and C2 of r total on C, each with its
    first witness, with `tags` = `graph.cube_tags(C)`; all three are always
    computed.  r is a representation map iff all three pass
    (`verify_repmap`); no R1–R4 sweep is made."""
    return _bijection(r, tags), _check_c1(C, r, tags), _check_c2(C, r, tags)


@functools.lru_cache(maxsize=1)
def _valid(C: ConceptClass, items: tuple) -> bool:
    """Whether `_certificate` passes on C and the total map `dict(items)`,
    with X(C) built here: the verdict of one (class, map) content.

    The last verdict is kept for chains of substructure maps of one (C, r):
    the `sub_repmap_*` calls on it build X(C) and certify once between
    them.  Acceptance 7 takes 60 such maps of each class, and it runs six to
    eight times as long without the memo (2.0–2.6 s against 12.0–16.9 s,
    two alternated runs on a 2-CPU host).  The key is the class and the
    map's (concept, image) pairs in the map's order, so a copy of r reuses
    the verdict, and any other content, an edit of r in place included, is
    certified in full.  The memo holds the last class and its items tuple
    alive."""
    return all(c.ok for c in _certificate(C, dict(items), graph.cube_tags(C)))


def _bijection(r: RepMap, tags: dict) -> Check:
    """Whether r is a bijection onto X(C) = `tags.keys()`: the witness is the
    first image in r's order that occurs twice, else the least set in the
    symmetric difference of the image and X(C)."""
    counts = Counter(r.values())
    if len(counts) < len(r):
        return Check(False, next(v for v in r.values() if counts[v] > 1))
    if counts.keys() != tags.keys():
        return Check(False, min(counts.keys() ^ tags.keys()))
    return Check(True)


# -- construction for maximum classes -----------------------------------------

def _sources_for_missed_simplices(tags: dict, sub: list, alive: int, d: int) -> dict:
    """source concept -> support, for the pair (class, subclass) of maximum
    classes of dimensions d and d-1 over the alive coordinates; `tags` is
    the cube complex of a maximum class C of dimension d whose restriction
    to the alive coordinates is the class, C itself when its coordinates
    are all alive.

    Every size-d subset of the alive coordinates is a missed simplex; each
    supports a unique cube of the class, whose source realises the one
    pattern missing from the subclass's restriction.

    For a d-set sigma of alive coordinates, C^sigma is maximum of
    dimension 0, so C has exactly one sigma-cube (t, sigma).  It projects
    onto a sigma-cube of the class, which has exactly one too, so that one
    is (t & alive, sigma), and its source for the missing pattern p is
    (t | p) & alive.  When C is the class itself, t lies in the alive
    coordinates and `& alive` changes nothing.
    """
    from . import shatter

    out: dict = {}
    for sigma, patterns in shatter._missed_labels(sub, alive, d).items():
        full = tags.get(sigma, ())
        if len(full) != 1:
            raise IntegrityError(
                f"{len(full)} cubes with a missed-simplex support, expected 1")
        t = next(iter(full))
        if len(patterns) != 1:
            raise IntegrityError(
                f"{len(patterns)} missing patterns on a missed simplex, expected 1")
        src = (t | next(iter(patterns))) & alive
        if src in out:
            raise IntegrityError("concept is the source of two incomplete cubes")
        out[src] = sigma
    return out


def _lift(concepts, xb: int, r_x: dict) -> dict:
    """A class's map from the map r_x of its restriction dropping x: c
    takes r_x(c - x), with x added when c has x set and its x-edge lies in
    the class."""
    cset = set(concepts)
    r: dict = {}
    for c in concepts:
        cx = c & ~xb
        r[c] = r_x[cx] | xb if c & xb and cx in cset else r_x[cx]
    return r


def _build_max_rec(alive: int, d: int, tags: dict) -> dict:
    """Representation map of a maximum class C of dimension d on the alive
    coordinates with cube complex `tags`, whose concepts are `tags[0]`.

    Recursion on the highest alive coordinate x: the map of the reduction
    C^x, plus one source per missed simplex of the restriction C_x, is a
    map of C_x, lifted to C.  Only C^x's complex is built, in place: its
    concepts are the c with x clear and c | x in C, so a Y-cube with tag t
    lies in C^x iff the (Y | x)-cube with tag t lies in C.  C_x is read
    off C's own complex: its concepts are C's with x cleared, and
    `_sources_for_missed_simplices` projects each source of C onto the
    alive coordinates.  Every class the recursion meets is maximum, since
    the reduction of a maximum class is maximum (Welzl 1987), so C has
    one cube on a missed simplex exactly where C_x has one.  Two sources
    that meet only after the projection fail the tail check."""
    if d == 0 or alive == 0:
        return dict.fromkeys(tags[0], 0)
    xb = 1 << (alive.bit_length() - 1)
    below = alive & ~xb
    red_tags = {Y ^ xb: ts for Y, ts in tags.items() if Y & xb}
    r_red = _build_max_rec(below, d - 1, red_tags)
    extra = _sources_for_missed_simplices(tags, sorted(red_tags[0]), below, d)
    if extra.keys() != {c & ~xb for c in tags[0]} - r_red.keys():
        raise IntegrityError("source map is not a bijection onto the tail")
    r_x = dict(r_red)
    r_x.update(extra)
    return _lift(tags[0], xb, r_x)


def build_maximum_repmap(C: ConceptClass) -> RepMap:
    """Representation map for a maximum class by recursion on the highest
    coordinate; deterministic."""
    from . import shatter

    tags, d = shatter._maximum_tags(C, "construction requires a maximum class")
    r = _build_max_rec(C.domain_mask, d, tags)
    if not _bijection(r, tags).ok:
        raise IntegrityError("constructed map is not a bijection onto the complex")
    return r


def incomplete_cube_sources(C: ConceptClass, D: ConceptClass) -> dict:
    """Bijection concept -> its incomplete cube, for maximum C of dimension d
    and maximum subclass D of dimension d-1 on the same domain."""
    from . import shatter

    if D.n != C.n:
        raise ContractError("subclass must share the domain")
    if not D.concept_set <= C.concept_set:
        raise ContractError("subclass is not contained in the class")
    tags, d = shatter._maximum_tags(C, "both classes must be maximum")
    d_sub = shatter._maximum_tags(D, "both classes must be maximum")[1]
    if d_sub != d - 1:
        raise ContractError("subclass dimension must be one less")
    src = _sources_for_missed_simplices(tags, list(D.concepts), C.domain_mask, d)
    if sorted(src) != sorted(C.concept_set - D.concept_set):
        raise IntegrityError("source map is not a bijection onto C \\ D")
    return {c: Cube(c & ~sigma, sigma) for c, sigma in src.items()}


# -- unique sink orientations --------------------------------------------------

class UsoReport(NamedTuple):
    is_orientation: bool
    c1: Check
    c2: Check

    @property
    def ok(self) -> bool:
        return self.is_orientation and self.c1.ok and self.c2.ok


def check_uso(C: ConceptClass, o: RepMap) -> UsoReport:
    """C1 and C2 of an out-map o, when o orients G(C): o is total on C,
    every out-edge c -> c ^ b lands in C (o(c) holds only directions of
    c's edges in C), and every edge of G(C) is an out-edge of exactly one
    of its ends.  An image with a coordinate outside the domain has an
    out-edge leaving C."""
    s = C.concept_set
    is_orientation = o.keys() == s and all(
        not o[c] & ~(dirs := graph._neighbour_dirs(s, c, C.n))
        and all((o[c] ^ o[c ^ b]) & b for b in bits_of(dirs)) for c in C)
    if not is_orientation:
        return UsoReport(False, Check(False), Check(False))
    tags = graph.cube_tags(C)
    return UsoReport(True, _check_c1(C, o, tags), _check_c2(C, o, tags))


def uso_to_peeling(C: ConceptClass, o: RepMap) -> tuple:
    """Corner peeling from an acyclic USO: peel sources, reverse.  The USO
    is certified with `check_uso`, the test that `peeling_to_uso` applies
    to its out-map."""
    rep = check_uso(C, o)
    if not rep.ok:
        raise ContractError(f"not a unique sink orientation: {rep}")
    import heapq
    # in-edges from unpeeled concepts; a USO orients every edge of G(C)
    indeg = {c: popcount(graph._neighbour_dirs(C.concept_set, c, C.n) & ~o[c])
             for c in C}
    sources = [c for c in C if not indeg[c]]   # ascending: already a heap
    peeled = []
    while sources:
        # the heap holds exactly the unpeeled sources: the smallest comes first
        v = heapq.heappop(sources)
        peeled.append(v)
        for b in bits_of(o[v]):
            indeg[v ^ b] -= 1
            if not indeg[v ^ b]:
                heapq.heappush(sources, v ^ b)
    # the sources run out early exactly when the orientation has a cycle
    if len(peeled) < len(C):
        from . import matching

        cyc = matching.find_cycle(C, {c: [c ^ b for b in bits_of(o[c])] for c in C})
        raise ContractError(f"orientation has a cycle through {cyc}")
    return tuple(reversed(peeled))


def peeling_to_uso(C: ConceptClass, ordering) -> RepMap:
    """Out-map orienting every edge from the later concept to the earlier,
    keyed in class order.  The ordering is a corner peeling (each concept a
    corner of its prefix) iff the out-map o passes `check_uso`, on every
    class, ample or not.  The out-map of any ordering orients G(C), so
    `check_uso` reads exactly C1 and C2:

    - corner ⇒ C1: when v is a corner of its prefix, the o(v)-cube through
      v lies in the prefix, so in C;
    - corner ⇒ C2: the prefixes meet a cube Q of C in sets grown one corner
      at a time.  The earlier Q-neighbours of a new vertex all lie in one
      face of its corner cube, so adding it never joins two components.  Q
      is connected, so exactly one vertex of Q starts a component, that
      is has no earlier Q-neighbour: Q has one sink;
    - C1 and C2 ⇒ corner: by C1 the o(v)-cube B through v lies in C, and by
      C2 every face of B has one sink, so o is a USO on B.  Reversing a USO
      gives a USO (the outmap criterion of Szabó & Welzl, *Unique sink
      orientations of cubes*, FOCS 2001, is unchanged when every outmap is
      complemented), so B has exactly one source.  v is a source of B, as
      all its B-edges leave it, and so is the last vertex of B in the
      ordering; so B lies in v's prefix, and v is its corner.
    """
    from . import peeling as peeling_mod

    o = peeling_mod._out_map(peeling_mod._check_permutation(C, ordering), C.n)
    o = {c: o[c] for c in C}
    if not check_uso(C, o).ok:
        raise ContractError("ordering is not a corner peeling")
    return o


# -- substructure maps ---------------------------------------------------------

def _require_valid(C: ConceptClass, r: RepMap) -> None:
    _check_total(C, r)
    if not _valid(C, tuple(r.items())):
        raise ContractError("not a valid representation map")


def sub_repmap_cube(C: ConceptClass, r: RepMap, B: Cube) -> tuple[ConceptClass, RepMap]:
    """Representation map c -> r(c) ∩ supp(B) for C ∩ B (same domain)."""
    _require_valid(C, r)
    sub = core.intersect_cube(C, B)
    if sub is None:
        raise ContractError("cube does not meet the class")
    return sub, {c: r[c] & B.support for c in sub}


def _translate(masks: dict, kept: int) -> tuple[ConceptClass, dict]:
    """The class of the keys of masks, and masks, both re-indexed to the
    coordinates of kept: local coordinate i is the i-th of coords(kept)."""
    ys = coords(kept)
    out = {core._project(c, ys): core._project(v, ys) for c, v in masks.items()}
    return ConceptClass(len(ys), out), out


def sub_repmap_reduction(C: ConceptClass, r: RepMap, Y: int) -> tuple[ConceptClass, RepMap]:
    """r^Y(c) = r(source of c's Y-cube) \\ Y, over the re-indexed domain."""
    _require_valid(C, r)
    core._check_subdomain(Y, C.n)
    tags = core.reduction_tags(C.concepts, Y)
    if not tags:
        raise ContractError("empty reduction has no representation map")
    out: dict = {}
    for t in tags:
        sources = [v for v in Cube(t, Y).vertices() if r[v] & Y == Y]
        if len(sources) != 1:
            raise IntegrityError(f"{len(sources)} sources in a Y-cube, expected 1")
        out[t] = r[sources[0]] & ~Y
    return _translate(out, C.domain_mask & ~Y)


def sub_repmap_restriction(C: ConceptClass, r: RepMap, Y: int) -> tuple[ConceptClass, RepMap]:
    """r_Y(c) = r(unique sink of C ∩ (c's Y-cylinder)), over the re-indexed domain."""
    _require_valid(C, r)
    core._check_subdomain(Y, C.n)
    out: dict = {}
    # the sinks v of c's cylinder, r(v) & Y = 0, are γ of c's sample on X \ Y
    for t, sinks in core._decodings(C.concepts, r, ~Y).items():
        if len(sinks) != 1:
            raise IntegrityError(f"{len(sinks)} sinks in a cylinder, expected 1")
        out[t] = r[sinks[0]]
    return _translate(out, C.domain_mask & ~Y)


# -- pre-representation maps ----------------------------------------------------

def pre_rep_c1(C: ConceptClass) -> RepMap:
    """Bijection r': C -> X(C) with every r'(c)-cube through c inside C,
    via a perfect matching in the carrier incidence graph."""
    from . import matching

    tags = graph._ample_tags(C, "pre-representation maps require an ample class")
    adj = graph.support_concepts(tags)
    m = matching.hopcroft_karp(adj)
    if len(m) != len(adj):
        raise IntegrityError("carrier graph has no perfect matching")
    r = {c: Y for Y, c in m.items()}
    chk = _check_c1(C, r, tags)
    if not chk.ok:
        raise IntegrityError(f"matching produced a non-C1 map at {chk.witness}")
    return r


def pre_rep_c2(C: ConceptClass) -> RepMap:
    """Injection r'': C -> 2^X with a unique sink on every cube of C, by
    orienting each x-level's edges downward on top of the recursion for C_x."""
    tags = graph._ample_tags(C, "pre-representation maps require an ample class")
    r = _pre_rep_c2_rec(C.support(), C.concepts)
    if len(set(r.values())) != len(r):
        raise IntegrityError("recursion produced a non-injective map")
    chk = _check_c2(C, r, tags)
    if not chk.ok:
        raise IntegrityError(f"recursion produced a non-C2 map at {chk.witness}")
    return r


def _pre_rep_c2_rec(alive: int, concepts: tuple) -> dict:
    if alive == 0:
        return {c: 0 for c in concepts}
    xb = 1 << (alive.bit_length() - 1)
    below = tuple(sorted({c & ~xb for c in concepts}))
    return _lift(concepts, xb, _pre_rep_c2_rec(alive & ~xb, below))


# -- ISR instances ----------------------------------------------------------------

class ISRInstance(NamedTuple):
    C: ConceptClass
    vertices: tuple        # (concept, coordset) pairs
    parts: dict            # concept -> tuple of vertex indices

    def conflicts(self, i: int):
        """The indices of the vertices (c ^ S, Y2) that conflict with vertex
        i = (c, Y1): S is a nonempty support in c's part and
        (Y1 ^ Y2) & S = 0."""
        vs, parts = self.vertices, self.parts
        c, Y1 = vs[i]
        return (j for k in parts[c] if (S := vs[k][1])
                for j in parts[c ^ S] if not (Y1 ^ vs[j][1]) & S)


def _isr_json(inst: ISRInstance):
    """The text of json.dumps(indent=2, sort_keys=True) of the instance's
    edges, parts and vertices, and a newline, in pieces.  The edges, the
    conflicting pairs i < j in ascending order, come first; they are read
    from `ISRInstance.conflicts` and written one vertex at a time, so that
    no list of them is kept."""
    # imported here, since no other use of the module writes JSON
    import json

    n = inst.C.n
    rest = json.dumps({
        "parts": {core.concept_to_string(c, n): list(p) for c, p in inst.parts.items()},
        "vertices": [[core.concept_to_string(c, n), coords(y)] for c, y in inst.vertices],
    }, indent=2, sort_keys=True)
    yield '{\n  "edges": ['
    sep = "\n"
    for i in range(len(inst.vertices)):
        if js := sorted(j for j in inst.conflicts(i) if j > i):
            yield sep + ",\n".join(f"    [\n      {i},\n      {j}\n    ]" for j in js)
            sep = ",\n"
    yield ("]," if sep == "\n" else "\n  ],") + rest[1:] + "\n"


def isr_instance(C: ConceptClass) -> ISRInstance:
    """One part per concept c of an ample C, with a vertex (c, Y) for each
    support Y of a cube of C through c; (c, Y1) and (w, Y2) conflict when
    some cube of C through both has a support S with Y1 ∩ S = Y2 ∩ S.

    Every cube of C through c and w contains their interval cube, of
    support c ^ w, so that is a cube of C through both whenever any is,
    and Y1 ∩ S = Y2 ∩ S implies the same on the subset c ^ w of S.  So the
    rule holds iff the interval cube lies in C and (Y1 ^ Y2) & (c ^ w) = 0:
    w = c ^ S for a support S in c's part, as `ISRInstance.conflicts` reads
    it.  The instance keeps no edge list.
    """
    tags = graph._ample_tags(C, "ISR instances are defined for ample classes")
    supports: dict = {c: [] for c in C}
    for Y, cs in graph.support_concepts(tags).items():
        for c in cs:
            supports[c].append(Y)
    vertices = [(c, Y) for c in C for Y in supports[c]]
    # the vertices come grouped by concept in class order, so each part is
    # the index range that ends where its concept's vertices end
    ends = accumulate(len(supports[c]) for c in C)
    parts = {c: tuple(range(e - len(supports[c]), e)) for c, e in zip(C, ends)}
    return ISRInstance(C, tuple(vertices), parts)


class ISRResult(NamedTuple):
    assignment: Optional[dict]   # concept -> coordset
    proven: bool                 # exhaustive when no assignment found
    expansions: int


def isr_solve(inst: ISRInstance, budget: int = 10**6) -> ISRResult:
    """A chronological depth-first search for one vertex per part, no two
    in conflict.  The parts are taken by size, smallest first (ties in
    concept order), and each part's vertices in vertex order; a vertex's
    conflicts are read from `inst.conflicts` the first time it is tried.
    The search runs on an explicit stack, one level per chosen part, so
    its depth is not bounded by the recursion limit.

    Each vertex tried is one expansion.  The search stops once the
    expansions exceed `budget`, so `proven` is False only when the budget
    ran out; with no assignment and `proven` True, the instance has none.
    A found assignment is certified as a representation map.
    """
    adj: dict = {}
    parts = sorted(inst.parts.values(), key=len)
    # per chosen part: (its untried vertices, the vertices its choice blocked)
    levels: list = []
    chosen: list = []
    blocked: set = set()
    expansions = 0
    untried = iter(parts[0])
    while True:
        for i in untried:
            if i not in blocked:
                break
        else:
            if not levels:
                return ISRResult(None, True, expansions)
            untried, newly = levels.pop()
            chosen.pop()
            blocked -= newly
            continue
        expansions += 1
        if expansions > budget:
            return ISRResult(None, False, expansions)
        if (conflicts := adj.get(i)) is None:
            conflicts = adj[i] = set(inst.conflicts(i))
        newly = conflicts - blocked
        blocked |= newly
        chosen.append(i)
        if len(chosen) == len(parts):
            break
        levels.append((untried, newly))
        untried = iter(parts[len(chosen)])
    assignment = {inst.vertices[i][0]: inst.vertices[i][1] for i in chosen}
    if not _valid(inst.C, tuple(assignment.items())):
        raise IntegrityError("ISR did not convert to a representation map")
    return ISRResult(assignment, True, expansions)


# -- tail matching ----------------------------------------------------------------

class TailMatchingReport(NamedTuple):
    coord: int
    reduced: ConceptClass            # C^x over the re-indexed domain
    tails: tuple                     # tail concepts, re-indexed
    labels: tuple                    # (support, pattern) pairs, re-indexed
    edges: tuple                     # (tail concept, label index)
    status: str                      # no_perfect_matching | unique | multiple
    matching: dict                   # tail concept -> label index, when perfect
    degree_one_tails: tuple
    degree_one_labels: tuple


def tail_matching_analysis(C: ConceptClass, x: int) -> TailMatchingReport:
    """The bipartite graph between the tails C_x \\ C^x of a maximum class C
    of dimension d at coordinate x and the forbidden labels of its
    reduction C^x, with a maximum matching, all re-indexed to X \\ {x}.

    C^x is maximum of dimension d - 1 (Welzl 1987), so its forbidden labels
    are the (sigma, pattern) pairs over the d-sets sigma that C^x misses; a
    tail t is joined to each label with t & sigma = pattern.  The status is
    `no_perfect_matching` when no matching pairs the tails and the labels
    one to one (`matching` is then empty), `unique` when the perfect
    matching found is the only one, and `multiple` when an alternating
    cycle gives another.  Raises ContractError when C is not maximum or
    has no x-edge."""
    from . import matching, shatter

    tail = core.tail(C, x)
    tags, d = shatter._maximum_tags(C, "tail matching is defined for maximum classes")
    # the concepts of C^x are the tags of C's x-edges
    if bit(x) not in tags:
        raise ContractError("reduction is empty; the class has no x-edge")
    red = core._reindexed(tags[bit(x)], C.domain_mask & ~bit(x))
    tails = tail.concepts if tail is not None else ()
    # one walk gives every label of red its tails, as a bitset over `tails`
    missed = shatter._missed_labels(red.concepts, red.domain_mask, d, tails)
    fibre = {(Y, p): f for Y, fibres in missed.items() for p, f in fibres.items()}
    labels = tuple(sorted(fibre))
    adj: dict = {t: [] for t in tails}
    for i, label in enumerate(labels):
        for b in bits_of(fibre[label]):
            adj[tails[b.bit_length() - 1]].append(i)
    # edges come grouped by tail, labels ascending within each tail
    edges = tuple((t, i) for t in tails for i in adj[t])
    m = matching.hopcroft_karp(adj)
    if len(tails) != len(labels) or len(m) != len(tails):
        status = "no_perfect_matching"
        m = {}
    elif matching.find_alternating_cycle(adj, m) is None:
        status = "unique"
    else:
        status = "multiple"
    deg_t = tuple(t for t in tails if len(adj[t]) == 1)
    deg_l = tuple(label for label in labels if popcount(fibre[label]) == 1)
    return TailMatchingReport(x, red, tails, labels, edges, status, m, deg_t, deg_l)
