import itertools
import random

import pytest

from amplekit import core, graph, peeling, shatter
from amplekit.core import ConceptClass, Cube, bit, interval, popcount
from amplekit.errors import ContractError, NotConnectedError, OrderingValidationError

from classes import all_classes, bfs_dist, cc, is_isometric_oracle


def random_classes():
    """Seeded classes at n=5 and n=6: dense, sparse and ample."""
    from amplekit import generate
    rng = random.Random(2025)
    for n in (5, 6):
        for density in (0.8, 0.2):
            for _ in range(8):
                cs = [c for c in range(1 << n) if rng.random() < density]
                yield ConceptClass(n, tuple(cs or [0]))
        for seed in range(4):
            yield generate.random_ample(n, rng.randint(2, 1 << (n - 1)), seed=seed)


# ---------------------------------------------------------------- oracles

def cubes_oracle(C):
    """All (tag, support) subcubes fully contained in C, by brute force."""
    s = C.concept_set
    out = set()
    for support in range(1 << C.n):
        seen = set()
        for c in C:
            tag = c & ~support
            if tag in seen:
                continue
            seen.add(tag)
            verts = {tag | sub for sub in _subsets(support)}
            if verts <= s:
                out.add((tag, support))
    return out


def cube_tags_levelwise_oracle(C):
    """X(C) grown levelwise, as `graph.cube_tags` did before its cube walk:
    each candidate support Z, proposed once its facets are all members,
    takes the tags t of its smallest facet Z - {b} with t | b a tag of that
    facet too."""
    def grow(Z, tags):
        if not Z:
            return set(C.concepts)
        base, split = min(((tags[Z ^ b], b) for b in core.bits_of(Z)),
                          key=lambda p: len(p[0]))
        return {t for t in base if not t & split and (t | split) in base}

    return core.levelwise(core.bits_of(C.domain_mask), grow)


def maximal_cubes_oracle(C):
    cubes = cubes_oracle(C)

    def contained(a, b):
        return a != b and a[1] & ~b[1] == 0 and a[0] & ~b[1] == b[0]

    return {a for a in cubes if not any(contained(a, b) for b in cubes)}


def corners_oracle(C):
    maxc = maximal_cubes_oracle(C)
    out = []
    for c in C:
        homes = [m for m in maxc if m[0] == c & ~m[1]]
        if len(homes) == 1:
            out.append(c)
    return sorted(out)


def _subsets(Y):
    sub = Y
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & Y


# ---------------------------------------------------------------- structure

def test_edges():
    C = cc("00", "01", "10")
    es = graph.edges(C)
    assert {(a, b, x) for a, b, x in es} == {(0, 1, 1), (0, 2, 2)}


def test_maximal_cubes_examples():
    C = cc("00", "01", "10")
    got = {(B.tag, B.support) for B in graph.maximal_cubes(C)}
    assert got == {(0, bit(1)), (0, bit(2))}
    Q2 = ConceptClass(2, range(4))
    assert {(B.tag, B.support) for B in graph.maximal_cubes(Q2)} == {(0, 3)}
    two = cc("00", "11")
    assert {(B.tag, B.support) for B in graph.maximal_cubes(two)} == {(0, 0), (3, 0)}


def test_cubes_and_maximal_cubes_match_oracle_n3():
    for C in all_classes(3):
        got = {(t, Y) for Y, ts in graph.cube_tags(C).items() for t in ts}
        assert got == cubes_oracle(C)
        gotm = {(B.tag, B.support) for B in graph.maximal_cubes(C)}
        assert gotm == maximal_cubes_oracle(C)


def test_cube_tags_and_cubes_through_match_oracle_random_n5_n6():
    for C in random_classes():
        cubes = cubes_oracle(C)
        tags = graph.cube_tags(C)
        assert {(t, Y) for Y, ts in tags.items() for t in ts} == cubes
        for c in C:
            got = [(B.tag, B.support) for B in graph.cubes_through(C, c)]
            assert len(got) == len(set(got))
            assert set(got) == {(t, S) for t, S in cubes if c & ~S == t}


def cube_tags_cases():
    from amplekit import generate
    for n in range(17):
        for d in range(min(n, 3) + 1):
            yield generate.hamming_ball(n, d)
    yield generate.hamming_ball(24, 3)
    yield core.complement(generate.hamming_ball(10, 3))
    yield core.product(generate.hamming_ball(6, 2), generate.random_ample(6, 30, seed=3))
    rng = random.Random(10)
    # dense and not ample: many more shattered sets than cube supports
    yield ConceptClass(10, tuple(c for c in range(1 << 10) if rng.random() < 0.8))
    for seed in range(4):
        yield generate.random_ample(8, 48, seed=seed)
    yield from random_classes()


def test_cube_tags_matches_the_levelwise_oracle_with_key_order():
    for C in cube_tags_cases():
        got, want = graph.cube_tags(C), cube_tags_levelwise_oracle(C)
        assert got == want
        assert list(got) == list(want)
        assert all(type(ts) is set for ts in got.values())


def test_cube_tags_on_balls_closed_form():
    # the Y-cubes of B(n,d) are the tags of weight at most d - |Y| off Y
    from amplekit import generate
    for n, d in [(n, d) for n in range(1, 11) for d in range(n + 1)] + [(24, 3)]:
        tags = graph.cube_tags(generate.hamming_ball(n, d))
        assert len(tags) == shatter.phi(d, n)
        for Y, ts in tags.items():
            k = core.popcount(Y)
            assert k <= d
            assert len(ts) == shatter.phi(d - k, n - k)


def test_corners_examples():
    assert graph.corners(cc("00", "01", "10")) == [1, 2]
    Q3 = ConceptClass(3, range(8))
    assert graph.corners(Q3) == list(range(8))


def test_corners_match_oracle_n3():
    for C in all_classes(3):
        assert sorted(graph.corners(C)) == corners_oracle(C)


def test_is_corner_matches_oracle_random_n5_n6():
    for C in random_classes():
        assert [c for c in C if graph.is_corner(C, c)] == corners_oracle(C)


def test_maximal_cube_supports_distinct_for_ample():
    for C in all_classes(3):
        if not shatter.is_ample(C)[0]:
            continue
        supports = [B.support for B in graph.maximal_cubes(C)]
        assert len(supports) == len(set(supports))


def test_corner_neighbor_characterization_for_ample():
    # for ample C: c is a corner iff all its neighbors lie in one cube of C
    for C in all_classes(3):
        if not shatter.is_ample(C)[0]:
            continue
        cubes = cubes_oracle(C)
        for c in C:
            nbrs = [c ^ bit(x) for x in range(1, 4) if (c ^ bit(x)) in C.concept_set]
            fits = any(all(v & ~S == t for v in nbrs + [c])
                       for (t, S) in cubes)
            assert graph.is_corner(C, c) == fits


# ---------------------------------------------------------------- isometry

def test_is_isometric_examples():
    assert graph.is_isometric(cc("00", "01", "11"), "full")
    assert not graph.is_isometric(cc("00", "11"), "full")
    assert not graph.is_isometric(cc("00", "11"), "weak")


def test_ample_implies_isometric_n3():
    for C in all_classes(3):
        if shatter.is_ample(C)[0]:
            assert graph.is_isometric(C, "full")
            assert graph.is_isometric(C, "weak")


def test_weak_vs_full():
    # full isometry implies weak; a 6-cycle in Q_4 missing chords is weakly
    # isometric only when distance-2 pairs keep a common neighbor
    for C in all_classes(3):
        if graph.is_isometric(C, "full"):
            assert graph.is_isometric(C, "weak")
    with pytest.raises(ContractError):
        graph.is_isometric(cc("00"), "other")


def test_is_isometric_matches_bfs_oracle():
    verdicts = set()
    classes = [C for n in range(4) for C in all_classes(n)]
    for C in classes + list(random_classes()):
        got = graph.is_isometric(C, "full"), graph.is_isometric(C, "weak")
        assert got == (is_isometric_oracle(C, "full"),
                       is_isometric_oracle(C, "weak")), C
        verdicts.add(got)
    assert verdicts == {(True, True), (False, True), (False, False)}
    # the smallest class that is weakly isometric but not isometric
    assert not graph.is_isometric(cc("000", "111"), "full")
    assert graph.is_isometric(cc("000", "111"), "weak")


def weak_isometry_classes():
    """Seeded classes on n = 4..7: random ones of several densities,
    isometric classes with concepts taken out, and unions of two isometric
    classes on the low n - 3 coordinates, one of them moved by the top
    three.  The unions are weakly isometric, as their parts are and every
    pair across is at Hamming distance 3 or more, but not connected."""
    from amplekit import generate
    rng = random.Random(2026)
    for n in range(4, 8):
        for density in (0.7, 0.4, 0.15):
            for _ in range(6):
                cs = [c for c in range(1 << n) if rng.random() < density]
                yield ConceptClass(n, tuple(cs or [0]))
        for seed in range(6):
            cs = list(generate.random_ample(n, rng.randint(6, 1 << (n - 1)), seed).concepts)
            for c in rng.sample(cs, rng.randint(1, 3)):
                cs.remove(c)
            yield ConceptClass(n, tuple(cs))
            low, top = n - 3, 7 << (n - 3)
            A = generate.random_ample(low, rng.randint(1, 1 << low), seed)
            B = generate.random_ample(low, rng.randint(1, 1 << low), seed + 6)
            yield ConceptClass(n, A.concepts + tuple(c | top for c in B.concepts))


def test_weak_isometry_matches_pair_oracle_n4_to_n7():
    verdicts = []
    for C in weak_isometry_classes():
        got = graph.is_isometric(C, "weak")
        assert got == is_isometric_oracle(C, "weak"), C
        verdicts.append((is_isometric_oracle(C, "full"), got))
    assert verdicts.count((True, True)) >= 5
    assert verdicts.count((False, False)) >= 20
    assert verdicts.count((False, True)) >= 20


def _shuffled_orders(C, rng):
    """A plain shuffle, and a shuffle that grows along edges where it can
    (so that long isometric prefixes occur in dense classes too)."""
    plain = list(C.concepts)
    rng.shuffle(plain)
    yield plain
    rest = list(C.concepts)
    rng.shuffle(rest)
    grown = [rest.pop()]
    while rest:
        near = [i for i, c in enumerate(rest)
                if any(core.popcount(c ^ u) == 1 for u in grown)]
        grown.append(rest.pop(rng.choice(near) if near else 0))
    yield grown


def test_extends_isometric_matches_bfs_on_prefixes_random_n5_n6():
    rng = random.Random(7)
    outcomes = set()
    for C in random_classes():
        for order in _shuffled_orders(C, rng):
            for i in range(len(order)):
                # every concept left could come next; the order takes order[i]
                P = set(order[:i])
                for v in order[i:]:
                    want = is_isometric_oracle(ConceptClass(C.n, (*P, v)), "full")
                    assert graph.extends_isometric(P, v, C.n) == want
                    outcomes.add(want)
                if not is_isometric_oracle(ConceptClass(C.n, order[:i + 1]), "full"):
                    break    # the helper presumes an isometric prefix
    assert outcomes == {True, False}


def test_validate_shelling_fails_at_first_non_isometric_prefix_random_n5_n6():
    rng = random.Random(8)
    for C in random_classes():
        for order in _shuffled_orders(C, rng):
            bad = next((i for i in range(len(order))
                        if not is_isometric_oracle(
                            ConceptClass(C.n, tuple(order[:i + 1])), "full")), None)
            sh = peeling.ShellingOrder(C.n, tuple(order))
            if bad is None:
                peeling.validate_shelling(sh)
                continue
            with pytest.raises(OrderingValidationError) as exc:
                peeling.validate_shelling(sh)
            assert exc.value.index == bad


def test_ordering_to_shelling_fails_at_first_non_isometric_prefix_random_n5_n6():
    rng = random.Random(8)
    failures = 0
    for C in random_classes():
        for order in _shuffled_orders(C, rng):
            bad = next((i for i in range(len(order))
                        if not is_isometric_oracle(
                            ConceptClass(C.n, tuple(order[:i + 1])), "full")), None)
            if bad is None:
                assert peeling.ordering_to_shelling(C, order).facets == tuple(order)
                continue
            failures += 1
            with pytest.raises(OrderingValidationError) as exc:
                peeling.ordering_to_shelling(C, order)
            assert exc.value.index == bad
            assert str(exc.value) == (
                f"partial shelling condition fails (first violation at index {bad})")
    assert failures >= 20


def test_reductions_connected_isometric_for_ample():
    for C in all_classes(3):
        if not shatter.is_ample(C)[0]:
            continue
        for Y in range(8):
            R = core.reduce(C, Y)
            if R is None:
                continue
            assert graph.is_connected(R)
            assert graph.is_isometric(R, "full")


# ---------------------------------------------------------------- galleries

def test_gallery_examples():
    Q2 = ConceptClass(2, range(4))
    e1 = Cube(0, bit(1))
    assert graph.gallery(Q2, e1, e1) == [e1]
    e2 = Cube(bit(2), bit(1))
    gal = graph.gallery(Q2, e1, e2)
    assert gal == [e1, e2]
    C = cc("00", "01", "10")
    gal = graph.gallery(C, Cube(1, 0), Cube(2, 0))
    assert [B.tag for B in gal] == [1, 0, 2]


def test_gallery_errors():
    C = cc("00", "11")
    with pytest.raises(NotConnectedError):
        graph.gallery(C, Cube(0, 0), Cube(3, 0))
    with pytest.raises(ContractError):
        graph.gallery(C, Cube(0, 0), Cube(0, bit(1)))   # not parallel


def test_gallery_length_is_reduction_distance():
    """For every two parallel cubes of C, the gallery has as many hops as
    the BFS distance between their tags in G(C^Y), and each two consecutive
    cubes span a cube of C."""
    from amplekit import generate
    rng = random.Random(5)
    pairs = 0
    for i in range(20):
        C = generate.random_ample(5, rng.randint(2, 24), seed=100 + i)
        for Y, ts in graph.cube_tags(C).items():
            R = core.reduce(C, Y)
            keep = core.coords(C.domain_mask & ~Y)
            for a, b in itertools.combinations(sorted(ts), 2):
                gal = graph.gallery(C, Cube(a, Y), Cube(b, Y))
                dist = bfs_dist(R, core._project(a, keep))
                assert len(gal) - 1 == dist[core._project(b, keep)]
                assert gal[0] == Cube(a, Y) and gal[-1] == Cube(b, Y)
                for P, Q in zip(gal, gal[1:]):
                    step = P.tag ^ Q.tag
                    assert popcount(step) == 1
                    assert core.cube_in_class(Cube(P.tag & Q.tag, Y | step), C.concept_set)
                pairs += 1
    assert pairs > 1000


# ---------------------------------------------------------------- convexity

def _sub_concepts(C: ConceptClass, sub) -> list[int]:
    subset = set(sub)
    if not subset <= C.concept_set:
        raise ContractError("subclass concepts must belong to the class")
    return sorted(subset)


def is_locally_convex(C: ConceptClass, sub) -> bool:
    """Every pair of subclass concepts at Hamming distance 2 has its interval's
    C-concepts inside the subclass."""
    cs = _sub_concepts(C, sub)
    subset = set(cs)
    s = C.concept_set
    for i, c in enumerate(cs):
        for d in cs[i + 1:]:
            diff = c ^ d
            if popcount(diff) == 2:
                b = diff & -diff
                for mid in (c ^ b, c ^ b ^ diff):
                    if mid in s and mid not in subset:
                        return False
    return True


def is_convex(C: ConceptClass, sub) -> bool:
    """interval(c, d) ∩ C ⊆ subclass for every pair of subclass concepts."""
    cs = _sub_concepts(C, sub)
    subset = set(cs)
    for i, c in enumerate(cs):
        for d in cs[i + 1:]:
            B = interval(c, d)
            for v in B.vertices():
                if v in C.concept_set and v not in subset:
                    return False
    return True


def test_convexity_examples():
    Q2 = ConceptClass(2, range(4))
    single = cc("00")
    assert is_locally_convex(Q2, single)
    assert is_convex(Q2, single)
    sub = cc("00", "11")
    assert not is_locally_convex(Q2, sub)
    with pytest.raises(ContractError):
        is_convex(cc("00", "01", "10"), cc("11"))   # not a subclass


def test_local_convexity_equals_convexity_for_connected_in_ample():
    for C in all_classes(3):
        if not shatter.is_ample(C)[0]:
            continue
        concepts = list(C)
        for size in range(1, min(4, len(concepts)) + 1):
            for sel in itertools.combinations(concepts, size):
                sub = ConceptClass(3, sel)
                if not graph.is_connected(sub):
                    continue
                assert is_locally_convex(C, sub) == is_convex(C, sub)


# ---------------------------------------------------------------- dot

def test_to_dot():
    dot = graph.to_dot(cc("00", "01"))
    assert "00" in dot and "01" in dot
    assert 'label="2"' in dot
