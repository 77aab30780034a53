import collections
import functools
import itertools
import operator
import random
import re
import sys
import time

import pytest

from amplekit import core, generate, graph, matching, peeling, repmap, shatter
from amplekit.core import ConceptClass, Cube, bit, mask_of
from amplekit.errors import ContractError, IntegrityError, ParseError

from classes import all_classes, ample_classes, cc


PATH3 = cc("00", "01", "10")          # {00, 01, 10}
GOOD_R = {0: 0, bit(2): bit(2), bit(1): bit(1)}   # 00->∅, 01->{2}, 10->{1}


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
    Q = ConceptClass(4, range(16))
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


def check_r2_oracle(C, r):
    """R2 as first written: per domain Y, count the concepts of each pattern
    with r(c) ⊆ Y; the witness is the first (Y, pattern) not counted once."""
    for Y in range(1 << C.n):
        hits: dict = {}
        for c in C:
            hits.setdefault(c & Y, 0)
            if r[c] & ~Y == 0:
                hits[c & Y] += 1
        for pat, k in hits.items():
            if k != 1:
                return repmap.Check(False, (Y, pat))
    return repmap.Check(True)


def check_r3_oracle(C, r):
    """R3 by the sweep over every support S: two concepts with the same tag
    c & ~S and the same r(c) & S collide on a cube of support S."""
    for S in range(1 << C.n):
        seen: dict = {}
        for c in C:
            key = (c & ~S, r[c] & S)
            if key in seen:
                return repmap.Check(False, (Cube(c & ~S, S), seen[key], c))
            seen[key] = c
    return repmap.Check(True)


def non_ample_class(n, rng):
    while True:
        C = ConceptClass(n, tuple(rng.sample(range(1 << n), rng.randrange(2, 1 << n))))
        if not shatter.is_ample(C)[0]:
            return C


def map_cases(seed):
    """(class, map) pairs with n ≤ 7: representation maps of random ample
    classes, random bijections onto their X(C), those maps made not injective,
    and random maps, injective or not, on classes that are not ample."""
    rng = random.Random(seed)
    for n in range(2, 8):
        for s in range(3):
            C = generate.random_ample(n, rng.randrange(2, min(1 << n, 50)), s)
            o = repmap.peeling_to_uso(C, peeling.corner_peeling_search(C).ordering)
            yield C, o
            images = sorted(graph.cube_tags(C))
            for _ in range(3):
                rng.shuffle(images)
                yield C, dict(zip(C.concepts, images))
            for _ in range(2):
                t = dict(o)
                a, b = rng.sample(C.concepts, 2)
                t[a] = o[b]
                yield C, t
        D = non_ample_class(n, rng)
        for _ in range(2):
            yield D, {c: rng.randrange(1 << n) for c in D}
            yield D, dict(zip(D.concepts, rng.sample(range(1 << n), D.size)))


def bijection_cases(seed):
    """Bijections onto X(C) of random ample classes with n ≤ 7: the
    peeling's orientation and `pre_rep_c1`'s map, each also with two images
    swapped, and shuffled images."""
    rng = random.Random(seed)
    for n in range(2, 8):
        for s in range(4):
            C = generate.random_ample(n, rng.randrange(2, min(1 << n, 50)), s)
            for base in (repmap.peeling_to_uso(C, peeling.corner_peeling_search(C).ordering),
                         repmap.pre_rep_c1(C)):
                yield C, base
                a, b = rng.sample(C.concepts, 2)
                yield C, {**base, a: base[b], b: base[a]}
            images = sorted(graph.cube_tags(C))
            rng.shuffle(images)
            yield C, dict(zip(C.concepts, images))


def first_odd_set(C, r):
    """Z*: the least set Z whose number of preimages under r is not
    [Z ∈ X(C)], or 2^n when r is a bijection onto X(C)."""
    images = list(r.values())
    X = graph.cube_tags(C)
    return next((Z for Z in range(1 << C.n) if images.count(Z) != (Z in X)), 1 << C.n)


def non_bijection_cases(seed):
    """(class, map) pairs of ample classes with 5 ≤ n ≤ 8 and of every
    B(n,d) with 3 ≤ n ≤ 8, each map made from the built map (the
    peeling's out-map off the balls) by copying one image, copying two,
    giving one concept a random image inside X(C) or one outside it,
    giving a third of the concepts random images, or swapping two images
    and giving the concept of the largest image the second largest."""
    rng = random.Random(seed)
    classes = [generate.hamming_ball(n, d) for n in range(3, 9) for d in range(1, n)]
    classes += [generate.random_ample(n, rng.randrange(4, min(1 << n, 80)), s)
                for n in range(5, 9) for s in range(3)]
    for C in classes:
        if shatter.is_maximum(C):
            o = repmap.build_maximum_repmap(C)
        else:
            o = repmap.peeling_to_uso(C, peeling.corner_peeling_search(C).ordering)
        X = graph.cube_tags(C)
        outside = [Z for Z in range(1 << C.n) if Z not in X]
        a, b, c, d = rng.sample(C.concepts, 4)
        yield C, {**o, a: o[b]}
        yield C, {**o, a: o[b], c: o[d]}
        yield C, {**o, a: rng.choice([Z for Z in X if Z != o[a]])}
        if outside:
            yield C, {**o, a: rng.choice(outside)}
        yield C, {**o, **{e: rng.randrange(1 << C.n) for e in rng.sample(C.concepts, C.size // 3)}}
        top, second = sorted(C, key=o.get)[:-3:-1]
        yield C, {**o, a: o[b], b: o[a], top: o[second]}


def test_r2_and_r3_match_their_sweeps():
    """R2 with its witness, and R3's verdict, against the sweeps they
    replace; each R3 witness is a real collision on its cube.  Every map
    takes R2 at one domain, from its clashing pairs and Z*, its least set
    whose preimages are not [Z ∈ sh(C)], which is X(C) on an ample class.
    Every map of an ample class that is not a bijection onto X(C) fails
    R2."""
    seen, failing_bijections, at_odd_set, below_it = set(), 0, 0, 0
    for C, r in itertools.chain(map_cases(23), bijection_cases(31), non_bijection_cases(41)):
        rep = repmap.verify_repmap(C, r)
        assert rep.r2 == check_r2_oracle(C, r)
        failing_bijections += rep.bijective.ok and not rep.r2.ok
        if not rep.bijective.ok and shatter.is_ample(C)[0]:
            # R2 fails, at the least of Z* and the clashing unions
            assert not rep.r2.ok
            Y, odd = rep.r2.witness[0], first_odd_set(C, r)
            assert Y <= odd
            at_odd_set += Y == odd
            below_it += Y < odd
        assert rep.r3.ok == check_r3_oracle(C, r).ok == rep.r4.ok
        if not rep.r3.ok:
            B, c, d = rep.r3.witness
            assert c != d and c in C and d in C
            assert c & ~B.support == B.tag and d & ~B.support == B.tag
            assert r[c] & B.support == r[d] & B.support
        seen.add((rep.valid, rep.bijective.ok, rep.r2.ok, rep.r3.ok))
    # valid maps, failing bijections, and bijections failing R1–R4
    assert {(True, True, True, True), (False, False, False, False),
            (False, True, False, False)} <= seen
    assert failing_bijections > 50
    # the witness of a map that is not a bijection at Z* and below it
    assert at_odd_set > 100 and below_it > 20


def first_pair_oracle(C, r, sets):
    """The first pair c < d, in concept order, with c ^ d missing
    sets(r(c), r(d)), or None: R1's with `|`, R4's with `^`."""
    cs = C.concepts
    return next(((c, d) for i, c in enumerate(cs) for d in cs[i + 1:]
                 if not (c ^ d) & sets(r[c], r[d])), None)


def test_one_pair_sweep_matches_the_r1_and_r4_sweeps():
    """R1, R3 and R4 from `_check_pairs` against two sweeps written from
    the definitions of R1 and R4, verdicts and first witnesses."""
    r4_earlier = r4_alone = 0
    for C, r in itertools.chain(map_cases(23), bijection_cases(31)):
        p1 = first_pair_oracle(C, r, operator.or_)
        p4 = first_pair_oracle(C, r, operator.xor)
        r1, r3, r4 = repmap._check_pairs(C, r)
        assert r1 == (repmap.Check(True) if p1 is None else repmap.Check(False, p1))
        assert r4 == (repmap.Check(True) if p4 is None else repmap.Check(False, p4))
        assert r3 == (repmap.Check(True) if p4 is None
                      else repmap.Check(False, (core.interval(*p4), *p4)))
        r4_earlier += p1 is not None and p4 != p1
        r4_alone += p1 is None and p4 is not None
    # R4 fails at an earlier pair than R1, and R4 fails while R1 holds
    assert r4_earlier > 20 and r4_alone > 5


def test_r2_witness_of_a_swapped_ball_18_3_map():
    # the sweep took about 19 s to reach this witness, at Y = 98308
    C = generate.hamming_ball(18, 3)
    r = repmap.build_maximum_repmap(C)
    rng = random.Random(1)
    rng.sample(C.concepts, 2)
    a, b = rng.sample(C.concepts, 2)
    rep = repmap.certify_repmap(C, {**r, a: r[b], b: r[a]})
    assert rep.r2 == repmap.Check(False, (98308, 0))
    assert rep.bijective.ok and not rep.r1.ok


def test_r2_reads_one_domain_of_every_class(monkeypatch):
    """`verify_repmap` calls `core._decodings` at most once, at R2's witness's
    domain, on ample classes and on classes that are not ample alike."""
    decodings = core._decodings
    domains = []
    monkeypatch.setattr(core, "_decodings",
                        lambda cs, r, Y: domains.append(Y) or decodings(cs, r, Y))
    not_ample = 0
    for C, r in itertools.chain(map_cases(23), non_bijection_cases(41)):
        domains.clear()
        got = repmap.verify_repmap(C, r).r2
        assert domains == ([] if got.ok else [got.witness[0]])
        not_ample += not shatter.is_ample(C)[0]
    assert not_ample > 10
    # an ample class's out-map, with one concept added that makes the class
    # not ample and is given the whole domain as its image
    classes = above_zero = 0
    for n in (4, 5, 6):
        C = generate.random_ample(n, 1 << (n - 2), n)
        o = repmap.peeling_to_uso(C, peeling.corner_peeling_search(C).ordering)
        for e in range(1 << n):
            D = ConceptClass(n, C.concepts + (e,))
            if e in C or shatter.is_ample(D)[0]:
                continue
            r = {**o, e: D.domain_mask}
            domains.clear()
            got = repmap.verify_repmap(D, r).r2
            assert got == check_r2_oracle(D, r) and not got.ok
            assert domains == [got.witness[0]]
            classes += 1
            above_zero += got.witness[0] > 0
    # a sweep would have read more than one domain in over 20 of them
    assert classes == 60 and above_zero > 20


def ample_subclass_map(D, rng):
    """A map of D that is a representation map on an ample subclass: the
    concepts of D in a seeded order, each kept when the class kept so far
    stays ample, the kept class given its peeling's out-map, and the others
    distinct shattered sets of D that the out-map leaves unused."""
    order = rng.sample(D.concepts, D.size)
    kept = order[:1]
    for c in order[1:]:
        if shatter.is_ample(ConceptClass(D.n, kept + [c]))[0]:
            kept.append(c)
    A = ConceptClass(D.n, kept)
    o = repmap.peeling_to_uso(A, peeling.corner_peeling_search(A).ordering)
    unused = sorted(shatter._shattered_sets(D) - set(o.values()))
    rest = [c for c in D if c not in o]
    return {**o, **dict(zip(rest, rng.sample(unused, len(rest))))}


def test_every_map_on_a_class_that_is_not_ample_fails_r2():
    """A map passing R2 has #r⁻¹(Z) = [Z ∈ sh(C)] for every Z, so |C| =
    |sh(C)|: every map fails on a class that is not ample.  Every total map
    on every such class with n ≤ 2, and seeded maps on every such 3-class:
    random, injective into sh(C), and an ample subclass's out-map extended
    by unused shattered sets.  Each witness is the sweep oracle's."""
    pairs = top = 0
    for n in (1, 2):
        for D in all_classes(n):
            if shatter.is_ample(D)[0]:
                continue
            for images in itertools.product(range(1 << n), repeat=D.size):
                r = dict(zip(D.concepts, images))
                got = repmap.verify_repmap(D, r).r2
                assert not got.ok and got == check_r2_oracle(D, r), (D, r)
                pairs += 1
    assert pairs == 32
    rng = random.Random(37)
    for D in all_classes(3):
        if shatter.is_ample(D)[0]:
            continue
        sh = sorted(shatter._shattered_sets(D))
        maps = [{c: rng.randrange(8) for c in D} for _ in range(6)]
        maps += [dict(zip(D.concepts, rng.sample(sh, D.size))) for _ in range(6)]
        maps += [ample_subclass_map(D, rng) for _ in range(3)]
        for r in maps:
            got = repmap.verify_repmap(D, r).r2
            assert not got.ok and got == check_r2_oracle(D, r), (D, r)
            pairs += 1
            top += got.witness[0] >= 1 << 2
    # 128 classes on n = 3 that are not ample; witnesses at or above the
    # top coordinate, the half of the domains a sweep reads last
    assert pairs == 32 + 128 * 15 and top > 150


def copied_image_ball_18_3_map():
    """B(18,3) and its built map with one concept given another's image:
    the second draw of `random.Random(1)`, whose sweep over domains took
    15.7 s to the witness (98308, 0) on a 2-CPU host (Python 3.11)."""
    C = generate.hamming_ball(18, 3)
    r = repmap.build_maximum_repmap(C)
    rng = random.Random(1)
    rng.sample(C.concepts, 2)
    a, b = rng.sample(C.concepts, 2)
    return C, {**r, a: r[b]}


def test_r2_witness_of_a_copied_image_ball_18_3_map():
    C, r = copied_image_ball_18_3_map()
    start = time.perf_counter()
    rep = repmap.verify_repmap(C, r)
    assert time.perf_counter() - start < 3
    assert rep.r2 == repmap.Check(False, (98308, 0))
    assert rep.bijective == repmap.Check(False, 98308)


def ball_with_two_concepts_on_top(n):
    """A class that is not ample: B(n-1,2) on width n, plus {n} and {1,2,n},
    mapped by B(n-1,2)'s built map with {n} -> {n} and {1,2,n} -> {1,n}.
    Its shattered set {2,n} has no preimage, so R2 first fails at the
    domain {2,n}, numbered 2^(n-1) + 2, which a sweep over the domains
    took 15–21 s to reach at n = 20 on a 2-CPU host (Python 3.11)."""
    B = generate.hamming_ball(n - 1, 2)
    top, extra = bit(n), mask_of([1, 2, n])
    C = ConceptClass(n, B.concepts + (top, extra))
    return C, {**repmap.build_maximum_repmap(B), top: top, extra: mask_of([1, n])}


def test_r2_witness_on_a_wide_class_that_is_not_ample():
    C, r = ball_with_two_concepts_on_top(20)
    assert not shatter.is_ample(C)[0]
    start = time.perf_counter()
    rep = repmap.verify_repmap(C, r)
    assert time.perf_counter() - start < 3
    assert rep.r2 == repmap.Check(False, (524290, 524290))
    assert rep.bijective == repmap.Check(False, 524289)
    assert rep.c1 == repmap.Check(False, 524291)


def test_bijection_witness_is_the_first_repeated_image():
    repeated = 0
    for C, r in map_cases(29):
        image = list(r.values())
        if len(set(image)) != len(image):
            want = next(v for v in image if image.count(v) > 1)
            assert repmap.verify_repmap(C, r).bijective == repmap.Check(False, want)
            repeated += 1
    assert repeated > 20


# ---------------------------------------------------------------- build

def test_build_path():
    r = repmap.build_maximum_repmap(PATH3)
    assert repmap.verify_repmap(PATH3, r).valid
    assert all(core.popcount(v) <= 1 for v in r.values())


def test_build_cube_sink():
    Q = ConceptClass(3, range(8))
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
        # the replay reads the complex the guard built
        assert builds(peeling.collapse_sequence, A) == [A]
    for A in (generate.hamming_ball(6, 2), generate.random_ample(7, 50, 3)):
        o = repmap.peeling_to_uso(A, peeling.corner_peeling_search(A).ordering)
        assert builds(repmap.check_uso, A, o) == [A]


def test_certify_fallback_builds_the_complex_once(monkeypatch):
    C = generate.hamming_ball(10, 3)
    r = repmap.build_maximum_repmap(C)
    a, b = C.concepts[3], C.concepts[40]
    r[a], r[b] = r[b], r[a]
    expected = verify_repmap_oracle(C, r)
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
    src = repmap.incomplete_cube_sources(PATH3, ConceptClass(2, [0]))
    assert src == {bit(1): Cube(0, bit(1)), bit(2): Cube(0, bit(2))}

    src = repmap.incomplete_cube_sources(ConceptClass(1, [0, 1]),
                                         ConceptClass(1, [0]))
    assert src == {1: Cube(0, 1)}

    Q2 = ConceptClass(2, range(4))
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
    Q2 = ConceptClass(2, range(4))
    r = {c: c for c in Q2}
    assert repmap.check_uso(Q2, r).ok
    order = repmap.uso_to_peeling(Q2, r)
    assert peeling.classify_ordering(Q2, order).corner_peeling
    assert order[0] == 0   # the global sink is peeled last, listed first


def test_uso_directed_cycle_fails_c2():
    # orient the square as a directed 4-cycle: no sink in the top face
    Q2 = ConceptClass(2, range(4))
    # 00 -> 10 -> 11 -> 01 -> 00  (out-coordinate per concept)
    o = {0: bit(1), bit(1): bit(2), 3: bit(1), bit(2): bit(2)}
    rep = repmap.check_uso(Q2, o)
    assert not rep.ok and not rep.c2.ok
    with pytest.raises(ContractError):
        repmap.uso_to_peeling(Q2, o)


def test_uso_to_peeling_refuses_a_cyclic_uso():
    Q3 = ConceptClass(3, range(8))
    o = {0: 0, 1: 3, 2: 6, 3: 1, 4: 5, 5: 4, 6: 2, 7: 7}
    assert repmap.check_uso(Q3, o).ok
    with pytest.raises(ContractError) as err:
        repmap.uso_to_peeling(Q3, o)
    assert str(err.value) == "orientation has a cycle through [1, 3, 2, 6, 4, 5]"


def test_uso_to_peeling_on_every_uso_of_the_3_cube():
    """The 744 USOs of the 3-cube: the 16 with a cycle are refused, naming
    the cycle `matching.find_cycle` finds; the rest peel as the oracle."""
    Q3 = ConceptClass(3, range(8))
    edges = graph.edges(Q3)
    usos = cyclic = 0
    for k in range(1 << len(edges)):
        o = dict.fromkeys(Q3, 0)
        for j, (c, w, x) in enumerate(edges):
            o[w if k >> j & 1 else c] |= bit(x)
        if not repmap.check_uso(Q3, o).ok:
            continue
        usos += 1
        cyc = matching.find_cycle(Q3, {c: [c ^ b for b in core.bits_of(o[c])] for c in Q3})
        if cyc is None:
            assert repmap.uso_to_peeling(Q3, o) == uso_to_peeling_oracle(Q3, o)
        else:
            cyclic += 1
            with pytest.raises(ContractError) as err:
                repmap.uso_to_peeling(Q3, o)
            assert str(err.value) == f"orientation has a cycle through {cyc}"
    assert (usos, cyclic) == (744, 16)


def test_check_uso_reports_the_c1_witness():
    # 00 points out to both neighbours, but the square through them is
    # missing 11: an orientation whose edges each have one sink, failing C1
    o = {0: bit(1) | bit(2), bit(1): 0, bit(2): 0}
    assert repmap.check_uso(PATH3, o) == repmap.UsoReport(
        True, repmap.Check(False, 0), repmap.Check(True))


def check_orientation_oracle(C, o):
    """o must orient exactly the edges of G(C), each one way."""
    core._check_total(C, o)
    s = C.concept_set
    for c in C:
        for b in core.bits_of(o[c]):
            if c ^ b not in s:
                raise ContractError(
                    f"out-map leaves the class on coordinate {b.bit_length()}")
            if o[c ^ b] & b:
                raise ContractError("edge oriented both ways")
    for c, w, x in graph.edges(C):
        if not (o[c] | o[w]) & bit(x):
            raise ContractError(f"edge left unoriented on coordinate {x}")


def orientation_cases(seed):
    """Out-maps of seeded ample classes with n ≤ 5: the peeling's USO,
    random images, random sets of edge directions, each edge one way at
    random, and the USO with a key missing or added, an image outside the
    domain, or one edge oriented both ways."""
    rng = random.Random(seed)
    for n in range(1, 6):
        for s in range(4):
            C = generate.random_ample(n, rng.randrange(1, min(1 << n, 24) + 1), s)
            dirs = {c: graph._neighbour_dirs(C.concept_set, c, n) for c in C}
            o = repmap.peeling_to_uso(C, peeling.corner_peeling_search(C).ordering)
            yield C, o
            for _ in range(3):
                yield C, {c: rng.randrange(1 << n) for c in C}
                yield C, {c: dirs[c] & rng.randrange(1 << n) for c in C}
                t = dict.fromkeys(C, 0)
                for c, w, x in graph.edges(C):
                    t[rng.choice((c, w))] |= bit(x)
                yield C, t
            a = rng.choice(C.concepts)
            yield C, {c: o[c] for c in C if c != a}
            outside = next(v for v in range(1 << (n + 1)) if v not in C.concept_set)
            yield C, {**o, outside: 0}
            yield C, {**o, a: o[a] | bit(n + 1)}
            yield C, {**o, a: -1}
            if dirs[a]:
                b = dirs[a] & -dirs[a]
                yield C, {**o, a: o[a] | b, a ^ b: o[a ^ b] | b}


def test_check_uso_decides_orientation_as_the_raising_check():
    verdicts = set()
    for C, o in orientation_cases(37):
        try:
            check_orientation_oracle(C, o)
            want = None
        except ContractError as err:
            # one verdict for every coordinate k and width n of the domain rule
            want = re.sub(r"coordinate \d+ outside 1\.\.\d+", "coordinate outside the domain",
                          str(err).split(" on coordinate")[0])
        rep = repmap.check_uso(C, o)
        assert rep.is_orientation == (want is None)
        if want is not None:
            assert rep == repmap.UsoReport(False, repmap.Check(False), repmap.Check(False))
        verdicts.add(want)
    assert verdicts == {None, "map is not total on the class",
                        "coordinate outside the domain",
                        "out-map leaves the class", "edge oriented both ways",
                        "edge left unoriented"}


def test_check_uso_orientations_of_the_square_are_the_total_one_way_maps():
    """Of the 256 out-maps giving each edge of the square none, either or
    both of its directions, exactly the 16 that orient every edge one way
    are orientations."""
    Q2 = ConceptClass(2, range(4))
    edges = graph.edges(Q2)
    oriented = []
    for k in range(4 ** len(edges)):
        o = dict.fromkeys(Q2, 0)
        for j, (c, w, x) in enumerate(edges):
            ends = k >> 2 * j & 3      # bit 0: c -> w, bit 1: w -> c
            o[c] |= bit(x) if ends & 1 else 0
            o[w] |= bit(x) if ends & 2 else 0
        if repmap.check_uso(Q2, o).is_orientation:
            oriented.append(k)
    assert len(oriented) == 16
    assert all(k >> 2 * j & 3 in (1, 2) for k in oriented for j in range(4))


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
        Q = ConceptClass(n, range(1 << n))
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
    Q2 = ConceptClass(2, range(4))
    with pytest.raises(ContractError):
        repmap.peeling_to_uso(Q2, (0, 3, 1, 2))


# ---------------------------------------------------------------- sub maps

def test_sub_repmap_cube_edge():
    Q2 = ConceptClass(2, range(4))
    r = {c: c for c in Q2}
    D, rB = repmap.sub_repmap_cube(Q2, r, Cube(0, bit(2)))
    assert set(D) == {0, bit(2)}
    assert rB == {0: 0, bit(2): bit(2)}
    assert repmap.verify_repmap(D, rB).valid


def test_sub_repmap_identity_on_empty_Y():
    Q2 = ConceptClass(2, range(4))
    r = {c: c for c in Q2}
    D, r0 = repmap.sub_repmap_reduction(Q2, r, 0)
    assert D.concepts == Q2.concepts and r0 == r
    D, r0 = repmap.sub_repmap_restriction(Q2, r, 0)
    assert D.concepts == Q2.concepts and r0 == r


def test_sub_repmap_reduction_square():
    Q2 = ConceptClass(2, range(4))
    r = {c: c for c in Q2}
    D, rY = repmap.sub_repmap_reduction(Q2, r, bit(1))
    # C^{1} = Q_1 over coordinate 2, re-indexed to coordinate 1
    assert D.n == 1 and set(D) == {0, 1}
    assert rY == {0: 0, 1: 1}
    assert repmap.verify_repmap(D, rY).valid


def test_sub_repmap_reduction_finds_the_y_cubes_once(monkeypatch):
    C = generate.hamming_ball(6, 2)
    r = repmap.build_maximum_repmap(C)
    reductions = {Y: core.reduce(C, Y) for Y in (0, bit(1), bit(2) | bit(5))}
    calls = []
    tags = core.reduction_tags
    monkeypatch.setattr(core, "reduction_tags", lambda *a: calls.append(a) or tags(*a))
    for Y, want in reductions.items():
        calls.clear()
        assert repmap.sub_repmap_reduction(C, r, Y)[0] == want
        assert len(calls) == 1


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


def test_sub_repmaps_project_each_concept_of_their_class_once(monkeypatch):
    """The derived class is read off the translated map's keys, so each of
    its concepts is projected once as a key and its image once."""
    C = generate.hamming_ball(10, 3)
    r = repmap.build_maximum_repmap(C)
    calls = []
    project = core._project
    monkeypatch.setattr(core, "_project", lambda c, ys: calls.append(c) or project(c, ys))
    for sub, size in ((repmap.sub_repmap_reduction, 46), (repmap.sub_repmap_restriction, 130)):
        calls.clear()
        assert sub(C, r, bit(1))[0].size == size
        assert len(calls) == 2 * size


def test_substructure_maps_certify_each_map_content_once(monkeypatch):
    """Maps derived one after another from one (C, r) build X(C) once; a
    copy of r reuses the verdict, and r edited in place is certified again.
    A test that patches the certificate chain clears the memo first."""
    C = generate.hamming_ball(8, 3)
    r = repmap.build_maximum_repmap(C)
    built = []
    cube_tags = graph.cube_tags
    monkeypatch.setattr(graph, "cube_tags", lambda D: built.append(D) or cube_tags(D))
    repmap._valid.cache_clear()
    for Y in (bit(1), bit(2) | bit(5), bit(3) | bit(7) | bit(8)):
        repmap.sub_repmap_cube(C, r, Cube(C.concepts[Y % C.size] & ~Y, Y))
        repmap.sub_repmap_reduction(C, r, Y)
        repmap.sub_repmap_restriction(C, r, Y)
    assert built == [C]
    repmap.sub_repmap_restriction(C, dict(r), bit(4))
    assert built == [C]
    a, b = C.concepts[3], C.concepts[40]
    r[a], r[b] = r[b], r[a]
    with pytest.raises(ContractError, match="not a valid representation map"):
        repmap.sub_repmap_reduction(C, r, bit(1))
    assert built == [C, C]
    # an assignment the ISR search certified is not certified again
    D = generate.hamming_ball(4, 2)
    res = repmap.isr_solve(repmap.isr_instance(D))
    built.clear()
    repmap.sub_repmap_restriction(D, res.assignment, bit(1))
    repmap.sub_repmap_cube(D, res.assignment, Cube(0, bit(2)))
    assert built == []


def sub_repmap_restriction_oracle(C, r, Y):
    """The restricted map as first written: one scan of C per cylinder."""
    res = core.drop(C, Y)
    out: dict = {}
    for c in C:
        t = c & ~Y
        if t in out:
            continue
        sinks = [v for v in C if v & ~Y == t and r[v] & Y == 0]
        if len(sinks) != 1:
            raise IntegrityError(f"{len(sinks)} sinks in a cylinder, expected 1")
        out[t] = r[sinks[0]]
    return res, repmap._translate(out, C.domain_mask & ~Y)[1]


def test_sub_repmap_restriction_matches_the_per_cylinder_scan():
    """A representation map restricts as the scan does, key order included;
    any other map is refused before its cylinders are read."""
    kinds = set()
    for C, r in map_cases(31):
        valid = repmap.certify_repmap(C, r).valid
        kinds.add(valid)
        for Y in range(1 << C.n):
            if not valid:
                with pytest.raises(ContractError, match="not a valid representation map"):
                    repmap.sub_repmap_restriction(C, r, Y)
                continue
            D, r_Y = repmap.sub_repmap_restriction(C, r, Y)
            want = sub_repmap_restriction_oracle(C, r, Y)
            assert D == want[0] and list(r_Y.items()) == list(want[1].items())
    assert kinds == {True, False}


# ---------------------------------------------------------------- pre-rep

def test_pre_rep_path():
    r1 = repmap.pre_rep_c1(PATH3)
    assert sorted(r1.values()) == [0, bit(1), bit(2)]
    assert repmap._check_c1(PATH3, r1, graph.cube_tags(PATH3)).ok


def test_pre_rep_singleton():
    C = cc("0101")
    assert repmap.pre_rep_c1(C) == {C.concepts[0]: 0}


def test_pre_rep_c2_square():
    Q2 = ConceptClass(2, range(4))
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
    C = ConceptClass(1, [0, 1])
    res = repmap.isr_solve(repmap.isr_instance(C))
    assert res.assignment is not None
    assert repmap.verify_repmap(C, res.assignment).valid


def test_isr_budget():
    C = generate.hamming_ball(4, 1)
    res = repmap.isr_solve(repmap.isr_instance(C), budget=0)
    assert res.assignment is None and not res.proven


def test_isr_proves_an_instance_without_an_assignment():
    """Both concepts of Q1 can take only {1}: the search tries concept 0's
    one vertex, finds concept 1's blocked, and runs out of vertices."""
    inst = repmap.ISRInstance(ConceptClass(1, (0, 1)), ((0, 1), (1, 1)), {0: (0,), 1: (1,)})
    assert repmap.isr_solve(inst) == repmap.ISRResult(None, True, 1)


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


def neighbours(edges, size):
    """For each of the vertices 0..size-1, the other ends of its edges,
    ascending."""
    adj: list = [[] for _ in range(size)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    return [sorted(js) for js in adj]


def test_isr_instance_matches_the_all_pairs_builder():
    for C in isr_cases():
        inst = repmap.isr_instance(C)
        vertices, parts, edges = isr_all_pairs_oracle(C)
        assert inst.vertices == vertices
        assert list(inst.parts.items()) == list(parts.items())
        # each conflict once from each end, and none with the vertex itself
        got = [sorted(inst.conflicts(i)) for i in range(len(vertices))]
        assert got == neighbours(edges, len(vertices))


def isr_solve_edge_list_oracle(inst, edges, budget=10**6):
    """The solver with every vertex's conflicts read from the edge list
    `edges`, all before the search starts."""
    adj = [set(js) for js in neighbours(edges, len(inst.vertices))]
    order = sorted(inst.parts, key=lambda c: len(inst.parts[c]))
    chosen: list = []
    blocked: set = set()
    expansions = 0

    def dfs(k: int) -> bool:
        nonlocal expansions
        if k == len(order):
            return True
        for i in inst.parts[order[k]]:
            if i in blocked:
                continue
            expansions += 1
            if expansions > budget:
                return False
            newly = adj[i] - blocked
            blocked.update(newly)
            chosen.append(i)
            if dfs(k + 1):
                return True
            chosen.pop()
            blocked.difference_update(newly)
            if expansions > budget:
                return False
        return False

    if dfs(0):
        assignment = {inst.vertices[i][0]: inst.vertices[i][1] for i in chosen}
        if not repmap._certified(inst.C, assignment, graph.cube_tags(inst.C)):
            raise IntegrityError("ISR did not convert to a representation map")
        return repmap.ISRResult(assignment, True, expansions)
    return repmap.ISRResult(None, expansions <= budget, expansions)


def test_isr_solve_matches_the_edge_list_oracle():
    found = {True: 0, False: 0}
    for C in isr_cases():
        inst = repmap.isr_instance(C)
        edges = isr_all_pairs_oracle(C)[2]
        for budget in (0, 1, 7, 100, 20_000):
            got = repmap.isr_solve(inst, budget)
            want = isr_solve_edge_list_oracle(inst, edges, budget)
            assert got == want
            if got.assignment is not None:
                assert list(got.assignment.items()) == list(want.assignment.items())
            found[got.assignment is not None] += 1
    assert min(found.values()) > 20


def test_isr_search_depth_not_bounded_by_recursion_limit():
    # 625 parts: a search with one frame per part raises RecursionError
    S = generate.hamming_ball(4, 1)
    C = core.product(core.product(S, S), core.product(S, S))
    assert (C.n, C.size) == (16, 625)
    inst = repmap.isr_instance(C)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        res = repmap.isr_solve(inst, 2000)
    finally:
        sys.setrecursionlimit(limit)
    assert res == (None, False, 2001)


def test_isr_solves_ball_5_2_at_the_default_budget():
    C = generate.hamming_ball(5, 2)
    res = repmap.isr_solve(repmap.isr_instance(C))
    assert res.proven and res.expansions == 290_134
    assert repmap.certify_repmap(C, res.assignment).valid


# ---------------------------------------------------------------- matching

def test_tail_matching_path():
    rep = repmap.tail_matching_analysis(PATH3, 1)
    assert rep.status == "unique"
    assert len(rep.tails) == 1 and len(rep.labels) == 1
    assert len(rep.edges) == 1
    assert rep.degree_one_tails and rep.degree_one_labels


def test_tail_matching_full_cube():
    Q2 = ConceptClass(2, range(4))
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
        assert [(Y, list(v)) for Y, v in shatter._missed_labels(sub, alive, d).items()] == \
            list(want.items())


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
            except ContractError:   # no x-edge
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
            unique = matching.find_alternating_cycle(adj, m) is None
            assert rep.status == ("unique" if unique else "multiple")
            assert rep.degree_one_tails == tuple(t for t in rep.tails if len(adj[t]) == 1)
            counts = collections.Counter(i for _, i in rep.edges)
            assert rep.degree_one_labels == tuple(
                label for i, label in enumerate(rep.labels) if counts[i] == 1)
    assert longest >= 2


def test_tail_matching_walks_the_fibres_once(monkeypatch):
    calls = []
    walk = shatter._fibre_walk
    monkeypatch.setattr(shatter, "_fibre_walk",
                        lambda *args: (calls.append(args), walk(*args))[1])
    for C, x in ((PATH3, 1), (generate.hamming_ball(6, 3), 2),
                 (core.twist(generate.hamming_ball(5, 2), 11), 3)):
        calls.clear()
        repmap.tail_matching_analysis(C, x)
        assert len(calls) == 1


def test_a_maximum_class_reduces_to_a_maximum_class_one_dimension_lower():
    """For a maximum class of dimension d, every nonempty reduction is
    maximum of dimension d - 1 (Welzl 1987), which tail_matching_analysis
    takes as given when it reads its labels off the d-sets."""
    classes = [C for n in (1, 2, 3) for C in ample_classes(n) if shatter.is_maximum(C)]
    classes += [generate.hamming_ball(n, d) for n in range(1, 9) for d in range(n + 1)]
    reductions = 0
    for C in classes:
        d = shatter.vc_dim(C)
        for x in range(1, C.n + 1):
            red = core.reduce(C, bit(x))
            if red is not None:
                reductions += 1
                assert shatter.vc_dim(red) == d - 1 and shatter.is_maximum(red)
    assert reductions > 100


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


@pytest.mark.parametrize("text, n", [(" -> \n", 0), ("0" * 25 + " -> " + "0" * 25 + "\n", 25),
                                     ("0 -> 0\n", -1)],
                         ids=["width_0", "width_25", "width_-1"])
def test_repmap_parse_refuses_a_given_width_outside_1_to_24(text, n):
    # the width rule of map files holds for a given width as for a taken one
    with pytest.raises(ParseError, match=rf"^width {n} outside 1\.\.24$"):
        repmap.parse_repmap_text(text, n)


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


def verify_repmap_oracle(C, r):
    """Every check on every map, each with its first witness, and no
    certificate: the report as `verify_repmap` computed it before it
    certified first."""
    repmap._check_total(C, r)
    tags = graph.cube_tags(C)
    r1, r3, r4 = repmap._check_pairs(C, r)
    Y = repmap._r2_domain(C, r, graph._shattered(C, tags.keys()))
    r2 = repmap.Check(True) if Y >> C.n else repmap.Check(False, (Y, next(
        pat for pat, cs in core._decodings(C.concepts, r, Y).items() if len(cs) != 1)))
    return repmap.RepMapReport(
        r1=r1,
        r2=r2,
        r3=r3,
        r4=r4,
        bijective=repmap._bijection(r, tags),
        c1=repmap._check_c1(C, r, tags),
        c2=repmap._check_c2(C, r, tags),
    )


def assert_certify_agrees(C, r):
    # every field, witnesses included
    full = verify_repmap_oracle(C, r)
    assert repmap.verify_repmap(C, r) == full
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
    Q3 = ConceptClass(3, range(8))
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
    """With C2 forced to pass and the R1–R4 sweeps stubbed to fail, the
    report accepts a bijection onto X(C) exactly when the vertex-walk C1
    oracle does.  The real C2 never holds where C1 fails: for a bijection
    onto X(C) of an ample class, C2 implies C1 (see `verify_repmap`)."""
    check_c2 = repmap._check_c2
    # the same complex each time, built once per class
    monkeypatch.setattr(graph, "cube_tags", functools.lru_cache(graph.cube_tags))
    monkeypatch.setattr(repmap, "_check_c2", lambda C, r, tags=None: repmap.Check(True))
    monkeypatch.setattr(repmap, "_check_pairs", lambda C, r: (repmap.Check(False),) * 3)
    monkeypatch.setattr(repmap, "_r2_domain", lambda C, r, sh: 1 << C.n)
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
