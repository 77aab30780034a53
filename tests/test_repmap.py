import functools
import itertools
import random

import pytest

from amplekit import core, generate, graph, matching, peeling, repmap, shatter
from amplekit.core import ConceptClass, Cube, bit, mask_of
from amplekit.errors import ContractError, IntegrityError, ParseError


def cc(*strings):
    return ConceptClass.from_strings(list(strings))


PATH3 = cc("00", "01", "10")          # {00, 01, 10}
GOOD_R = {0: 0, bit(2): bit(2), bit(1): bit(1)}   # 00->∅, 01->{2}, 10->{1}


def ample_classes(n, max_size=None):
    for mask in range(1, 1 << (1 << n)):
        concepts = tuple(c for c in range(1 << n) if mask >> c & 1)
        if max_size is not None and len(concepts) > max_size:
            continue
        C = ConceptClass(n, concepts)
        if shatter.is_ample(C)[0]:
            yield C


def check_c1_oracle(C, r):
    """C1 by vertex walk: every vertex of the r(c)-cube through c is in C;
    the witness is the first failing concept."""
    for c in C:
        if not core.cube_in_class(Cube(c & ~r[c], r[c]), C.concept_set):
            return repmap.Check(False, c)
    return repmap.Check(True)


def non_clashing_oracle(C, r):
    """R1 by definition: c != c' must differ inside r(c) | r(c')."""
    cs = C.concepts
    for i, c in enumerate(cs):
        for d in cs[i + 1:]:
            if (c ^ d) & (r[c] | r[d]) == 0:
                return False
    return True


# ---------------------------------------------------------------- verify

def test_verify_good_map():
    rep = repmap.verify_repmap(PATH3, GOOD_R)
    assert rep.valid
    assert rep.r1.ok and rep.r2.ok and rep.r3.ok and rep.r4.ok
    assert rep.bijective.ok and rep.c1.ok and rep.c2.ok


def test_verify_finds_a_failing_bijection():
    # some bijection C -> X(C) of the path violates the conditions;
    # find one by brute force and confirm the checker flags it
    fams = [0, bit(1), bit(2)]
    bad = None
    for images in itertools.permutations(fams):
        r = dict(zip(PATH3.concepts, images))
        if not non_clashing_oracle(PATH3, r):
            bad = r
            break
    assert bad is not None
    rep = repmap.verify_repmap(PATH3, bad)
    assert not rep.valid and not rep.r1.ok
    assert rep.r1.witness is not None


def test_verify_cube_out_map():
    # orient every edge of the full cube toward 0000: r(c) = coordinates of c
    Q = ConceptClass.of(4, range(16))
    r = {c: c for c in Q}
    rep = repmap.verify_repmap(Q, r)
    assert rep.valid


def test_non_clashing_conditions_equivalent():
    # over every bijection r: C -> X(C) for small ample classes,
    # the four conditions hold or fail together
    for C in ample_classes(2):
        fams = sorted(shatter.shattered_complex(C).members)
        for images in itertools.permutations(fams):
            r = dict(zip(C.concepts, images))
            rep = repmap.verify_repmap(C, r)
            assert rep.r1.ok == rep.r2.ok == rep.r3.ok == rep.r4.ok


def test_valid_iff_c1_and_c2():
    # verify_repmap all-true <=> (C1 and C2) for bijections onto X(C)
    rng = random.Random(3)
    for C in ample_classes(3, max_size=5):
        fams = sorted(shatter.shattered_complex(C).members)
        perms = list(itertools.permutations(fams))
        rng.shuffle(perms)
        for images in perms[:6]:
            r = dict(zip(C.concepts, images))
            rep = repmap.verify_repmap(C, r)
            assert rep.valid == (rep.c1.ok and rep.c2.ok)


def test_edge_symmetric_difference_identity():
    # on every x-edge of G(C), a valid map satisfies r(c) Δ r(c') = {x}
    for n, d in ((4, 1), (4, 2), (5, 2)):
        C = generate.hamming_ball(n, d)
        r = repmap.build_maximum_repmap(C)
        for c, cp, x in graph.edges(C):
            assert r[c] ^ r[cp] == bit(x)


# ---------------------------------------------------------------- build

def test_build_path():
    r = repmap.build_maximum_repmap(PATH3)
    assert repmap.verify_repmap(PATH3, r).valid
    assert all(core.popcount(v) <= 1 for v in r.values())


def test_build_cube_sink():
    Q = ConceptClass.of(3, range(8))
    r = repmap.build_maximum_repmap(Q)
    assert repmap.verify_repmap(Q, r).valid
    sinks = [c for c, v in r.items() if v == 0]
    assert len(sinks) == 1


def test_build_hamming_ball():
    C = generate.hamming_ball(3, 1)
    r = repmap.build_maximum_repmap(C)
    assert repmap.verify_repmap(C, r).valid
    assert all(core.popcount(v) <= 1 for v in r.values())
    # image covers all subsets of size <= d
    assert set(r.values()) == shatter.shattered_complex(C).members


def test_build_rejects_non_maximum():
    with pytest.raises(ContractError):
        repmap.build_maximum_repmap(cc("00", "11"))


def test_build_is_deterministic():
    C = generate.hamming_ball(6, 2)
    assert repmap.build_maximum_repmap(C) == repmap.build_maximum_repmap(C)


def split_tags_cases():
    for n in range(1, 9):
        for d in range(n + 1):
            yield generate.hamming_ball(n, d)
    yield core.twist(generate.hamming_ball(7, 3), 0b1010011)
    rng = random.Random(17)
    for n in (5, 6, 7):
        for seed in range(12):
            yield generate.random_ample(n, rng.randrange(2, 1 << (n - 1)), seed)


def test_split_tags_match_rebuilt_complexes():
    pairs = 0
    for C in split_tags_cases():
        tags = graph.cube_tags(C)
        for x in range(1, C.n + 1):
            xb = bit(x)
            reduction = [c for c in C if not c & xb and c | xb in C.concept_set]
            restriction = {c & ~xb for c in C}
            red, res = graph.split_tags(tags, xb)
            assert red == (graph.cube_tags(ConceptClass(C.n, tuple(reduction)))
                           if reduction else {})
            assert res == graph.cube_tags(ConceptClass(C.n, tuple(restriction)))
            pairs += 1
    assert pairs > 400


def test_cube_tags_built_once_per_call(monkeypatch):
    built = []
    cube_tags = graph.cube_tags

    def counted(C):
        built.append(C)
        return cube_tags(C)

    monkeypatch.setattr(graph, "cube_tags", counted)

    def builds(f, *args):
        built.clear()
        f(*args)
        return list(built)

    C, D = generate.hamming_ball(10, 3), generate.hamming_ball(10, 2)
    r = repmap.build_maximum_repmap(C)
    assert builds(repmap.build_maximum_repmap, C) == [C]
    assert builds(repmap.certify_repmap, C, r) == [C]
    assert builds(repmap.verify_repmap, C, r) == [C]
    # one complex for each of the two classes it is given
    assert builds(repmap.incomplete_cube_sources, C, D) == [C, D]
    assert builds(repmap.tail_matching_analysis, C, 1) == [C]
    for A in (C, generate.random_ample(7, 50, 3)):
        assert builds(repmap.pre_rep_c1, A) == [A]
        assert builds(repmap.pre_rep_c2, A) == [A]
        # the guard's complex, then the replay's own, built independently
        assert builds(peeling.collapse_sequence, A) == [A, A]
    for A in (generate.hamming_ball(6, 2), generate.random_ample(7, 50, 3)):
        o = repmap.peeling_to_uso(A, peeling.corner_peeling_search(A).ordering)
        assert builds(repmap.check_uso, A, o) == [A]


def test_certify_fallback_builds_the_complex_once(monkeypatch):
    C = generate.hamming_ball(10, 3)
    r = repmap.build_maximum_repmap(C)
    a, b = C.concepts[3], C.concepts[40]
    r[a], r[b] = r[b], r[a]
    expected = repmap.verify_repmap(C, r)
    assert not expected.valid

    built = []
    cube_tags = graph.cube_tags

    def counted(D):
        built.append(D)
        return cube_tags(D)

    monkeypatch.setattr(graph, "cube_tags", counted)
    report = repmap.certify_repmap(C, r)
    assert built == [C]
    # the same report as from scratch, witnesses included
    assert report == expected
    assert [c.witness for c in report] == [c.witness for c in expected]


# ----------------------------------------------------------- cube sources

def test_incomplete_cube_sources_examples():
    src = repmap.incomplete_cube_sources(PATH3, ConceptClass.of(2, [0]))
    assert src == {bit(1): Cube(0, bit(1)), bit(2): Cube(0, bit(2))}

    src = repmap.incomplete_cube_sources(ConceptClass.of(1, [0, 1]),
                                         ConceptClass.of(1, [0]))
    assert src == {1: Cube(0, 1)}

    Q2 = ConceptClass.of(2, range(4))
    src = repmap.incomplete_cube_sources(Q2, PATH3)
    assert src == {3: Cube(0, 3)}


def test_incomplete_cube_sources_contract():
    with pytest.raises(ContractError):
        repmap.incomplete_cube_sources(PATH3, cc("00", "11"))


def sources_groups_oracle(concepts, sub, alive, d):
    """The former per-σ loop: group every concept by its tag off σ and keep
    the groups that fill a whole σ-cube."""
    out = {}
    for sel in itertools.combinations(core.coords(alive), d):
        sigma = mask_of(sel)
        groups = {}
        for c in concepts:
            groups.setdefault(c & ~sigma, []).append(c)
        full = [t for t, g in groups.items() if len(g) == 1 << d]
        if len(full) != 1:
            raise IntegrityError(
                f"{len(full)} cubes with a missed-simplex support, expected 1")
        patterns = set(Cube(0, sigma).vertices())
        for c in sub:
            patterns.discard(c & sigma)
        if len(patterns) != 1:
            raise IntegrityError(
                f"{len(patterns)} missing patterns on a missed simplex, expected 1")
        src = full[0] | patterns.pop()
        if src in out:
            raise IntegrityError("concept is the source of two incomplete cubes")
        out[src] = sigma
    return out


def missed_simplex_cases():
    """(concepts, sub, alive, d) as both callers pass them: a ball B(n,d)
    with B(n,d-1), and its restriction with its reduction at the top
    coordinate, for plain and twisted balls with n <= 8."""
    rng = random.Random(3)
    for n in range(1, 9):
        for d in range(1, n + 1):
            for t in (0, rng.randrange(1 << n)):
                C = core.twist(generate.hamming_ball(n, d), t)
                D = core.twist(generate.hamming_ball(n, d - 1), t)
                yield list(C.concepts), list(D.concepts), C.domain_mask, d
                xb = bit(n)
                if n > d:   # the restriction keeps dimension d
                    restriction = sorted({c & ~xb for c in C})
                    reduction = sorted(c for c in C
                                       if not c & xb and c | xb in C.concept_set)
                    yield restriction, reduction, C.domain_mask & ~xb, d


def class_tags(concepts, alive):
    """The cube complex the callers hand to `_sources_for_missed_simplices`."""
    return graph.cube_tags(ConceptClass(alive.bit_length(), tuple(concepts)))


def test_sources_for_missed_simplices_match_groups_loop():
    count = 0
    for concepts, sub, alive, d in missed_simplex_cases():
        got = repmap._sources_for_missed_simplices(class_tags(concepts, alive), sub, alive, d)
        want = sources_groups_oracle(concepts, sub, alive, d)
        assert list(got.items()) == list(want.items())
        count += 1
    assert count > 100


@pytest.mark.parametrize("concepts, sub, alive, d, message", [
    # B(3,1) has no 2-cube at all
    (list(generate.hamming_ball(3, 1).concepts), [0], 0b111, 2,
     "0 cubes with a missed-simplex support, expected 1"),
    # the full 3-cube has two {1,2}-cubes, tags 000 and 001
    (list(range(8)), list(generate.hamming_ball(3, 1).concepts), 0b111, 2,
     "2 cubes with a missed-simplex support, expected 1"),
    # the square with only 00 below it misses three patterns
    (list(range(4)), [0], 0b11, 2,
     "3 missing patterns on a missed simplex, expected 1"),
])
def test_sources_for_missed_simplices_integrity_errors(concepts, sub, alive, d, message):
    with pytest.raises(IntegrityError) as want:
        sources_groups_oracle(concepts, sub, alive, d)
    with pytest.raises(IntegrityError) as got:
        repmap._sources_for_missed_simplices(class_tags(concepts, alive), sub, alive, d)
    assert str(got.value) == str(want.value) == message


# ---------------------------------------------------------------- uso

def test_uso_cube_to_sink():
    Q2 = ConceptClass.of(2, range(4))
    r = {c: c for c in Q2}
    assert repmap.check_uso(Q2, r).ok
    order = repmap.uso_to_peeling(Q2, r)
    assert peeling.classify_ordering(Q2, order).corner_peeling
    assert order[0] == 0   # the global sink is peeled last, listed first


def test_uso_directed_cycle_fails_c2():
    # orient the square as a directed 4-cycle: no sink in the top face
    Q2 = ConceptClass.of(2, range(4))
    # 00 -> 10 -> 11 -> 01 -> 00  (out-coordinate per concept)
    o = {0: bit(1), bit(1): bit(2), 3: bit(1), bit(2): bit(2)}
    rep = repmap.check_uso(Q2, o)
    assert not rep.ok and not rep.c2.ok
    with pytest.raises(ContractError):
        repmap.uso_to_peeling(Q2, o)


def test_check_uso_reports_the_c1_witness():
    # 00 points out to both neighbours, but the square through them is
    # missing 11: an orientation whose edges each have one sink, failing C1
    o = {0: bit(1) | bit(2), bit(1): 0, bit(2): 0}
    assert repmap.check_uso(PATH3, o) == repmap.UsoReport(
        True, repmap.Check(False, 0), repmap.Check(True))


def test_peeling_to_uso_path():
    res = peeling.corner_peeling_search(PATH3)
    o = repmap.peeling_to_uso(PATH3, res.ordering)
    assert repmap.check_uso(PATH3, o).ok
    # sink = first peeled-last concept
    assert o[res.ordering[0]] == 0


def test_uso_round_trip_exhaustive_n3():
    for C in ample_classes(3, max_size=6):
        res = peeling.corner_peeling_search(C)
        o = repmap.peeling_to_uso(C, res.ordering)
        assert repmap.check_uso(C, o).ok
        back = repmap.uso_to_peeling(C, o)
        assert peeling.classify_ordering(C, back).corner_peeling


def uso_to_peeling_oracle(C, o):
    """Peel the smallest source of the unpeeled concepts, found by
    re-scanning them all at each step; reverse."""
    remaining = set(C.concepts)
    doms = core.bits_of(C.domain_mask)
    peeled = []
    while remaining:
        source = next(c for c in sorted(remaining)
                      if all(c ^ b not in remaining or o[c] & b for b in doms))
        remaining.discard(source)
        peeled.append(source)
    return tuple(reversed(peeled))


def uso_cases():
    for C in ample_classes(3, max_size=6):
        yield C, repmap.peeling_to_uso(C, peeling.corner_peeling_search(C).ordering)
    for n in (3, 4, 5):
        Q = ConceptClass.of(n, range(1 << n))
        for Y in (0, 0b101, (1 << n) - 1):
            # every edge points toward Y: a USO of the cube with sink Y
            yield Q, {c: c ^ Y for c in Q}
    for C in (generate.hamming_ball(6, 2), generate.random_ample(7, 45, 4),
              core.twist(generate.hamming_ball(5, 2), 0b10011)):
        yield C, repmap.peeling_to_uso(C, peeling.corner_peeling_search(C).ordering)


def test_uso_to_peeling_peels_the_smallest_source_first():
    several = 0
    for C, o in uso_cases():
        assert repmap.uso_to_peeling(C, o) == uso_to_peeling_oracle(C, o)
        # more than one first source: the order among sources is tested
        several += sum(1 for c in C if not graph._neighbour_dirs(C.concept_set, c, C.n)
                       & ~o[c]) > 1
    assert several > 10


def peeling_to_uso_index_oracle(C, ordering):
    """The out-map by an index scan: each edge points from the concept that
    comes later in the ordering to the earlier one."""
    index = {c: i for i, c in enumerate(ordering)}
    s = C.concept_set
    return {c: sum(b for b in core.bits_of(C.domain_mask)
                   if c ^ b in s and index[c ^ b] < index[c]) for c in C}


def test_peeling_to_uso_matches_the_index_scan():
    cases = 0
    for C, o in uso_cases():
        for order in (peeling.corner_peeling_search(C).ordering,
                      repmap.uso_to_peeling(C, o)):
            got = repmap.peeling_to_uso(C, order)
            # equal with the keys in the same ascending order
            assert list(got.items()) == list(peeling_to_uso_index_oracle(C, order).items())
            cases += 1
    assert cases > 20


def test_peeling_to_uso_rejects_bad_ordering():
    Q2 = ConceptClass.of(2, range(4))
    with pytest.raises(ContractError):
        repmap.peeling_to_uso(Q2, (0, 3, 1, 2))


# ---------------------------------------------------------------- sub maps

def test_sub_repmap_cube_edge():
    Q2 = ConceptClass.of(2, range(4))
    r = {c: c for c in Q2}
    D, rB = repmap.sub_repmap_cube(Q2, r, Cube(0, bit(2)))
    assert set(D) == {0, bit(2)}
    assert rB == {0: 0, bit(2): bit(2)}
    assert repmap.verify_repmap(D, rB).valid


def test_sub_repmap_identity_on_empty_Y():
    Q2 = ConceptClass.of(2, range(4))
    r = {c: c for c in Q2}
    D, r0 = repmap.sub_repmap_reduction(Q2, r, 0)
    assert D.concepts == Q2.concepts and r0 == r
    D, r0 = repmap.sub_repmap_restriction(Q2, r, 0)
    assert D.concepts == Q2.concepts and r0 == r


def test_sub_repmap_reduction_square():
    Q2 = ConceptClass.of(2, range(4))
    r = {c: c for c in Q2}
    D, rY = repmap.sub_repmap_reduction(Q2, r, bit(1))
    # C^{1} = Q_1 over coordinate 2, re-indexed to coordinate 1
    assert D.n == 1 and set(D) == {0, 1}
    assert rY == {0: 0, 1: 1}
    assert repmap.verify_repmap(D, rY).valid


def test_sub_repmaps_verify_on_random_inputs():
    rng = random.Random(17)
    for n, d in ((4, 1), (5, 2), (6, 2)):
        C = generate.hamming_ball(n, d)
        r = repmap.build_maximum_repmap(C)
        for _ in range(10):
            c = C.concepts[rng.randrange(C.size)]
            supp = sum(bit(x) for x in range(1, n + 1) if rng.random() < 0.4)
            D, rB = repmap.sub_repmap_cube(C, r, Cube(c & ~supp, supp))
            assert repmap.verify_repmap(D, rB).valid
            Y = sum(bit(x) for x in range(1, n + 1) if rng.random() < 0.3)
            if core.reduce(C, Y) is not None:
                D, rY = repmap.sub_repmap_reduction(C, r, Y)
                assert repmap.verify_repmap(D, rY).valid
            D, r_Y = repmap.sub_repmap_restriction(C, r, Y)
            assert repmap.verify_repmap(D, r_Y).valid


# ---------------------------------------------------------------- pre-rep

def test_pre_rep_path():
    r1 = repmap.pre_rep_c1(PATH3)
    assert sorted(r1.values()) == [0, bit(1), bit(2)]
    assert repmap._check_c1(PATH3, r1, graph.cube_tags(PATH3)).ok


def test_pre_rep_singleton():
    C = cc("0101")
    assert repmap.pre_rep_c1(C) == {C.concepts[0]: 0}


def test_pre_rep_c2_square():
    Q2 = ConceptClass.of(2, range(4))
    r2 = repmap.pre_rep_c2(Q2)
    assert len(set(r2.values())) == 4          # injective
    assert repmap._check_c2(Q2, r2, graph.cube_tags(Q2)).ok


def test_pre_rep_requires_ample():
    with pytest.raises(ContractError):
        repmap.pre_rep_c1(cc("00", "11"))
    with pytest.raises(ContractError):
        repmap.pre_rep_c2(cc("00", "11"))


def test_pre_rep_exhaustive_n3():
    for C in ample_classes(3):
        r1 = repmap.pre_rep_c1(C)
        assert repmap._check_c1(C, r1, graph.cube_tags(C)).ok
        assert sorted(r1.values()) == sorted(shatter.shattered_complex(C).members)
        r2 = repmap.pre_rep_c2(C)
        assert repmap._check_c2(C, r2, graph.cube_tags(C)).ok
        assert len(set(r2.values())) == C.size


def test_matching_neighborhood_condition():
    # |N_S| >= |S| for every subset S of X(C) in the concept/coordset graph
    for C in ample_classes(3, max_size=6):
        fams = sorted(shatter.shattered_complex(C).members)
        nbrs = {Y: {c for c in C
                    if Cube(c & ~Y, Y).vertices() and
                    all(v in C.concept_set for v in Cube(c & ~Y, Y).vertices())}
                for Y in fams}
        for k in range(1, len(fams) + 1):
            for sel in itertools.combinations(fams, k):
                union = set().union(*(nbrs[Y] for Y in sel))
                assert len(union) >= k


def carrier_scan(C, tags):
    """support -> the concepts c of C with c & ~Y in tags[Y], by scanning
    all of C for each support."""
    return {Y: [c for c in C if c & ~Y in tags[Y]] for Y in sorted(tags)}


def pre_rep_c1_scan_oracle(C):
    """`pre_rep_c1` with its carrier graph from `carrier_scan`."""
    m = matching.hopcroft_karp(carrier_scan(C, graph.cube_tags(C)))
    return {c: Y for Y, c in m.items()}


def incidence_cases():
    yield from isr_cases()
    yield from split_tags_cases()
    yield core.product(generate.hamming_ball(3, 1), generate.hamming_ball(3, 2))
    yield ConceptClass(6, tuple(c | 0b100000 for c in generate.hamming_ball(5, 2)))


def test_support_concepts_match_the_scan():
    for C in incidence_cases():
        tags = graph.cube_tags(C)
        got = graph.support_concepts(tags)
        assert list(got.items()) == list(carrier_scan(C, tags).items())


def test_pre_rep_c1_matches_the_scan_build():
    for C in incidence_cases():
        got, want = repmap.pre_rep_c1(C), pre_rep_c1_scan_oracle(C)
        assert list(got.items()) == list(want.items())


def test_check_c1_lookup_matches_the_vertex_walk():
    """Same verdict and witness as the vertex walk on every map of every
    class with n <= 2, ample or not, and on perturbed maps of larger
    classes."""
    verdicts = {True: 0, False: 0}
    for n in (1, 2):
        for mask in range(1, 1 << (1 << n)):
            C = ConceptClass(n, tuple(c for c in range(1 << n) if mask >> c & 1))
            tags = graph.cube_tags(C)
            for images in itertools.product(range(1 << n), repeat=C.size):
                r = dict(zip(C.concepts, images))
                got = repmap._check_c1(C, r, tags)
                assert got == check_c1_oracle(C, r)
                verdicts[got.ok] += 1
    rng = random.Random(11)
    for C in (generate.hamming_ball(6, 2), generate.random_ample(7, 40, 1),
              core.twist(generate.hamming_ball(5, 3), 0b10101), cc("000", "011", "101", "110")):
        tags = graph.cube_tags(C)
        base = dict(zip(C.concepts, sorted(tags) + [0] * C.size))
        for r in (base, *(f(C) for f in (repmap.pre_rep_c1, repmap.pre_rep_c2)
                          if shatter.is_ample(C)[0])):
            for _ in range(30):
                bad = dict(r)
                a, b = rng.sample(C.concepts, 2)
                bad[a], bad[b] = bad[b], bad[a]
                if rng.random() < 0.5:
                    bad[a] ^= 1 << rng.randrange(C.n)
                got = repmap._check_c1(C, bad, tags)
                assert got == check_c1_oracle(C, bad)
                verdicts[got.ok] += 1
    assert min(verdicts.values()) > 100


# ---------------------------------------------------------------- isr

def test_isr_instance_path():
    inst = repmap.isr_instance(PATH3)
    got = set(inst.vertices)
    assert got == {(0, 0), (0, bit(1)), (0, bit(2)),
                   (bit(2), 0), (bit(2), bit(2)),
                   (bit(1), 0), (bit(1), bit(1))}
    res = repmap.isr_solve(inst)
    assert res.assignment is not None
    assert repmap.verify_repmap(PATH3, res.assignment).valid


def test_isr_singleton():
    C = cc("10")
    inst = repmap.isr_instance(C)
    assert inst.vertices == ((bit(1), 0),)
    res = repmap.isr_solve(inst)
    assert res.assignment == {bit(1): 0}


def test_isr_q1():
    C = ConceptClass.of(1, [0, 1])
    res = repmap.isr_solve(repmap.isr_instance(C))
    assert res.assignment is not None
    assert repmap.verify_repmap(C, res.assignment).valid


def test_isr_budget():
    C = generate.hamming_ball(4, 1)
    res = repmap.isr_solve(repmap.isr_instance(C), budget=0)
    assert res.assignment is None and not res.proven


def isr_all_pairs_oracle(C):
    """The all-pairs builder: supports from `graph.cubes_through`, and an
    edge when some common cube support S has Y1 ∩ S = Y2 ∩ S."""
    supports = {c: {B.support for B in graph.cubes_through(C, c)} for c in C}
    vertices = [(c, Y) for c in C for Y in sorted(supports[c])]
    index = {v: i for i, v in enumerate(vertices)}
    parts = {c: tuple(index[(c, Y)] for Y in sorted(supports[c])) for c in C}
    edges = []
    cs = C.concepts
    for a, c1 in enumerate(cs):
        for c2 in cs[a + 1:]:
            diff = c1 ^ c2
            common = [S for S in supports[c1] if diff & ~S == 0]
            if not common:
                continue
            for Y1 in supports[c1]:
                for Y2 in supports[c2]:
                    if any(Y1 & S == Y2 & S for S in common):
                        i, j = index[(c1, Y1)], index[(c2, Y2)]
                        edges.append((i, j) if i < j else (j, i))
    return tuple(vertices), parts, tuple(sorted(set(edges)))


def isr_cases():
    # the balls stop at d = 3: B(7,6) alone has 12 million edges
    for n in range(1, 9):
        for d in range(min(n, 3) + 1):
            yield generate.hamming_ball(n, d)
    yield core.twist(generate.hamming_ball(7, 3), 0b1010101)
    for n in range(5, 9):
        for seed in range(3):
            yield generate.random_ample(n, 3 * n + 2 * seed, seed)


def test_isr_instance_matches_the_all_pairs_builder():
    for C in isr_cases():
        inst = repmap.isr_instance(C)
        vertices, parts, edges = isr_all_pairs_oracle(C)
        assert inst.vertices == vertices
        assert list(inst.parts.items()) == list(parts.items())
        assert inst.edges == edges


# ---------------------------------------------------------------- matching

def test_tail_matching_path():
    rep = repmap.tail_matching_analysis(PATH3, 1)
    assert rep.status == "unique"
    assert len(rep.tails) == 1 and len(rep.labels) == 1
    assert len(rep.edges) == 1
    assert rep.degree_one_tails and rep.degree_one_labels


def test_tail_matching_full_cube():
    Q2 = ConceptClass.of(2, range(4))
    rep = repmap.tail_matching_analysis(Q2, 1)
    assert rep.tails == () and rep.status == "unique"


def test_tail_matching_sides_same_size():
    for n, d in ((4, 1), (5, 2), (6, 3)):
        C = generate.hamming_ball(n, d)
        for x in (1, n):
            rep = repmap.tail_matching_analysis(C, x)
            assert len(rep.tails) == len(rep.labels)
            assert rep.status != "no_perfect_matching"


def test_missed_labels_match_a_brute_force_scan():
    for concepts, sub, alive, d in missed_simplex_cases():
        want = {}
        for sel in itertools.combinations(core.coords(alive), d):
            sigma = mask_of(sel)
            seen = {c & sigma for c in sub}
            want[sigma] = [p for p in range(sigma + 1)
                           if p & ~sigma == 0 and p not in seen]
        assert list(shatter._missed_labels(sub, alive, d).items()) == list(want.items())


def test_tail_matching_tails_are_the_restriction_less_the_reduction():
    rng = random.Random(8)
    for n in range(1, 7):
        for d in range(1, n + 1):
            for t in (0, rng.randrange(1 << n)):
                C = core.twist(generate.hamming_ball(n, d), t)
                for x in range(1, n + 1):
                    res, red = core.drop(C, bit(x)), core.reduce(C, bit(x))
                    want = tuple(sorted(res.concept_set - red.concept_set))
                    assert repmap.tail_matching_analysis(C, x).tails == want


def test_tail_matching_report_matches_the_per_tail_edge_scan(monkeypatch):
    """The edges read off the fibre walk over the tails are those of testing
    every tail against every label, in the same order; the adjacency built
    in one pass over the edges is the one the former per-tail rescan of all
    edges built, lists in the same order, and gives the same matching,
    status and degree-one sides."""
    from amplekit import matching
    given = []
    hopcroft_karp = matching.hopcroft_karp
    monkeypatch.setattr(matching, "hopcroft_karp",
                        lambda adj: (given.append(adj), hopcroft_karp(adj))[1])
    rng = random.Random(21)
    # a ball's tails have one label each; the other maximum classes of
    # n <= 3 and the products have tails with two or three
    classes = [core.twist(generate.hamming_ball(n, d), rng.randrange(1 << n))
               for n, d in ((4, 1), (5, 2), (6, 3), (7, 2), (8, 3), (9, 4))]
    classes += [C for C in ample_classes(3) if shatter.is_maximum(C)]
    classes += [core.product(generate.hamming_ball(2, 1), generate.hamming_ball(3, 1)),
                core.product(generate.hamming_ball(3, 1), generate.hamming_ball(3, 2))]
    longest = 0
    for C in classes:
        for x in range(1, C.n + 1):
            given.clear()
            try:
                rep = repmap.tail_matching_analysis(C, x)
            except ContractError:   # no x-edge, or a reduction of lower dimension
                continue
            assert rep.edges == tuple(
                (t, i) for t in rep.tails
                for i, (sigma, pat) in enumerate(rep.labels) if t & sigma == pat)
            adj = {t: [i for tt, i in rep.edges if tt == t] for t in rep.tails}
            assert given == [adj] and all(v == sorted(v) for v in adj.values())
            longest = max(longest, *map(len, adj.values()), 0)
            m = matching.hopcroft_karp(adj)
            assert rep.status != "no_perfect_matching" and len(m) == len(rep.tails)
            assert rep.matching == m
            unique = matching.is_unique_perfect_matching(adj, m)
            assert rep.status == ("unique" if unique else "multiple")
            assert rep.degree_one_tails == tuple(t for t in rep.tails if len(adj[t]) == 1)
    assert longest >= 2


def test_tail_matching_requires_maximum():
    with pytest.raises(ContractError):
        repmap.tail_matching_analysis(cc("00", "11"), 1)


# ---------------------------------------------------------------- files

def test_repmap_file_round_trip():
    C = generate.hamming_ball(3, 1)
    r = repmap.build_maximum_repmap(C)
    text = repmap.format_repmap(r, C.n)
    assert repmap.parse_repmap_text(text, C.n) == r
    assert repmap.parse_repmap_text(text) == r   # width inferred


def test_repmap_parse_errors():
    with pytest.raises(ParseError):
        repmap.parse_repmap_text("00 -> 0", 2)
    with pytest.raises(ParseError):
        repmap.parse_repmap_text("001\n", 3)


# ---------------------------------------------------------------- certify

def c2_sweep_oracle(C, r):
    """C2 as first written: per support, count sinks over all of C."""
    for Y, ts in sorted(graph.cube_tags(C).items()):
        sinks = {t: 0 for t in ts}
        for c in C:
            t = c & ~Y
            if t in sinks and r[c] & Y == 0:
                sinks[t] += 1
        for t, k in sorted(sinks.items()):
            if k != 1:
                return repmap.Check(False, Cube(t, Y))
    return repmap.Check(True)


def assert_certify_agrees(C, r):
    # every field, witnesses included
    full = repmap.verify_repmap(C, r)
    assert repmap.certify_repmap(C, r) == full
    assert repmap._check_c2(C, r, graph.cube_tags(C)) == c2_sweep_oracle(C, r) == full.c2
    return full


def swapped(r, rng, k):
    """k copies of r, each with the images of two random concepts exchanged."""
    cs = sorted(r)
    out = []
    for _ in range(k):
        a, b = rng.sample(cs, 2)
        s = dict(r)
        s[a], s[b] = r[b], r[a]
        out.append(s)
    return out


def test_check_c2_matches_the_sweep_oracle_on_perturbed_and_random_maps():
    """The sink carried up the support walk against the per-support count,
    witnesses included, on valid maps, on swapped ones, on maps with one
    image changed in one coordinate, and on random maps."""
    rng = random.Random(13)
    classes = [generate.hamming_ball(n, d) for n, d in ((3, 1), (5, 2), (6, 3), (7, 2), (8, 4))]
    classes += [generate.random_ample(n, rng.randrange(2, 1 << (n - 1)), seed)
                for n in (4, 5, 6, 7) for seed in range(3)]
    classes.append(core.product(generate.hamming_ball(3, 1), generate.hamming_ball(3, 2)))
    depth = set()
    for C in classes:
        if shatter.is_maximum(C):
            r = repmap.build_maximum_repmap(C)
        else:
            r = repmap.peeling_to_uso(C, peeling.corner_peeling_search(C).ordering)
            assert repmap.check_uso(C, r).c2 == c2_sweep_oracle(C, r) == repmap.Check(True)
        maps = [r, *swapped(r, rng, 6)]
        for _ in range(6):
            s = dict(r)
            s[rng.choice(C.concepts)] ^= 1 << rng.randrange(C.n)
            maps.append(s)
        maps += [{c: rng.randrange(1 << C.n) for c in C} for _ in range(3)]
        maps += [random_orientation(C, rng) for _ in range(3)]
        for s in maps:
            got = repmap._check_c2(C, s, graph.cube_tags(C))
            assert got == c2_sweep_oracle(C, s)
            if not got.ok:
                depth.add(bin(got.witness.support).count("1"))
    assert {1, 2} <= depth


def random_orientation(C, rng):
    """An out-map orienting each edge of G(C) one random way: every edge has
    one sink, so C2 can only fail on cubes of dimension 2 or more."""
    o = dict.fromkeys(C, 0)
    for c, w, x in graph.edges(C):
        o[c if rng.random() < 0.5 else w] |= bit(x)
    return o


def test_check_c2_matches_the_sweep_oracle_on_every_orientation_of_the_3_cube():
    Q3 = ConceptClass.of(3, range(8))
    edges = graph.edges(Q3)
    depth = {}
    for k in range(1 << len(edges)):
        o = dict.fromkeys(Q3, 0)
        for j, (c, w, x) in enumerate(edges):
            o[w if k >> j & 1 else c] |= bit(x)
        got = repmap._check_c2(Q3, o, graph.cube_tags(Q3))
        assert got == c2_sweep_oracle(Q3, o) == repmap.check_uso(Q3, o).c2
        key = bin(got.witness.support).count("1") if not got.ok else 0
        depth[key] = depth.get(key, 0) + 1
    # the 744 unique sink orientations of the 3-cube, and failures on
    # squares and on the whole cube
    assert depth[0] == 744 and depth[2] > 0 and depth[3] > 0


def test_certify_every_bijection_n_le_2():
    valid = 0
    for n in (1, 2):
        for C in ample_classes(n):
            fams = sorted(shatter._strongly_shattered_sets(C))
            for images in itertools.permutations(fams):
                valid += assert_certify_agrees(C, dict(zip(C.concepts, images))).valid
    assert valid > 0


def test_certify_n3_sample():
    # the sample of test_valid_iff_c1_and_c2
    rng = random.Random(3)
    for C in ample_classes(3, max_size=5):
        fams = sorted(shatter.shattered_complex(C).members)
        perms = list(itertools.permutations(fams))
        rng.shuffle(perms)
        for images in perms[:6]:
            assert_certify_agrees(C, dict(zip(C.concepts, images)))


def test_certify_uso_out_maps_of_random_ample_classes():
    rng = random.Random(5)
    seen = [0, 0]
    for n in (4, 5, 6):
        for seed in range(4):
            C = generate.random_ample(n, rng.randrange(2, (1 << n) - 1), seed)
            o = repmap.peeling_to_uso(C, peeling.corner_peeling_search(C).ordering)
            assert assert_certify_agrees(C, o).valid
            if C.size > 1:
                for s in swapped(o, rng, 5):
                    seen[assert_certify_agrees(C, s).valid] += 1
    assert seen[0] > 0


def test_certify_built_maps_on_small_balls():
    rng = random.Random(11)
    for n, d in ((3, 1), (4, 2), (5, 2), (6, 3), (7, 2)):
        C = generate.hamming_ball(n, d)
        r = repmap.build_maximum_repmap(C)
        assert assert_certify_agrees(C, r).valid
        for s in swapped(r, rng, 4):
            assert_certify_agrees(C, s)


def test_certify_on_a_non_ample_class():
    C = cc("000", "011", "101", "110")   # shatters every pair, no 2-cube
    assert not shatter.is_ample(C)[0]
    for images in itertools.product(range(1 << C.n), repeat=C.size):
        assert not assert_certify_agrees(C, dict(zip(C.concepts, images))).valid
    partial = {c: 0 for c in C.concepts[1:]}
    extra = dict.fromkeys((*C.concepts, 0b111), 0)
    outside = dict.fromkeys(C.concepts, bit(4))
    for r in (partial, extra, outside):
        with pytest.raises(ContractError) as want:
            repmap.verify_repmap(C, r)
        with pytest.raises(ContractError) as got:
            repmap.certify_repmap(C, r)
        assert str(got.value) == str(want.value)


def test_certify_c1_lookup_every_bijection_n_le_3(monkeypatch):
    """With C2 forced to pass and the R1–R4 fallback stubbed, certify_repmap
    accepts a bijection onto X(C) exactly when the vertex-walk C1 oracle
    does.  The real
    C2 never holds where C1 fails: for a bijection onto X(C) of an ample
    class, C2 implies C1 (see `certify_repmap`)."""
    check_c2 = repmap._check_c2
    fallback = repmap.RepMapReport(*[repmap.Check(False)] * 7)
    # the same complex each time, built once per class
    monkeypatch.setattr(graph, "cube_tags", functools.lru_cache(graph.cube_tags))
    monkeypatch.setattr(repmap, "_check_c2", lambda C, r, tags=None: repmap.Check(True))
    monkeypatch.setattr(repmap, "verify_repmap", lambda C, r, tags=None: fallback)
    seen = {True: 0, False: 0}
    for n in (1, 2, 3):
        for C in ample_classes(n):
            tags = graph.cube_tags(C)
            for images in itertools.permutations(sorted(tags)):
                r = dict(zip(C.concepts, images))
                c1 = check_c1_oracle(C, r).ok
                assert repmap.certify_repmap(C, r).valid == c1
                if not c1:
                    assert not check_c2(C, r, tags).ok
                seen[c1] += 1
    assert seen[True] > 0 and seen[False] > 0
