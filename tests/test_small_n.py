"""Every nonempty class on n = 4, enumerated by mask with no sampling,
against oracles that read sh(C) off its definition and st(C) off the
slice tables, with neither `graph.cube_tags` nor the fibre walk; one
class per orbit of the ample 4-classes, with its complement, and one
class per orbit of the maximum 5-classes, against the oracles of the
peeling, collapse, map and scheme checks."""
import collections
import itertools
import operator
import random
from math import comb

from amplekit import compress, core, peeling, repmap, shatter
from amplekit.core import popcount
from amplekit.errors import ContractError

from classes import all_classes
from test_compress import verify_scheme_enumeration_oracle, verify_scheme_oracle
from test_peeling import _recursive_search, classify_ordering_oracle, replay_collapse_oracle
from test_repmap import check_r2_oracle, check_r3_oracle, first_pair_oracle
from test_slices import ST

N = 4


def test_recognition_matches_the_definitions_on_every_class_on_n4():
    seen = ample = 0
    for m, C in enumerate(all_classes(N), 1):
        # Y is shattered iff C|Y has all 2^|Y| patterns; st(C) is read off
        # the slice tables, which `test_slices` checks against X(C)
        sh = {Y for Y in range(1 << N)
              if len({c & Y for c in C.concepts}) == 1 << popcount(Y)}
        st = {Y for Y in range(1 << N) if ST[N][m] >> Y & 1}
        d = max(map(popcount, sh))
        # ample: every shattered set is strongly shattered
        is_ample = sh == st
        assert shatter.summary(C) == {
            "n": N, "size": C.size, "vc_dim": d, "shattered": len(sh),
            "strongly_shattered": len(st), "ample": int(is_ample),
            "maximum": int(C.size == sum(comb(N, i) for i in range(d + 1)))}, C
        witness = None if is_ample else min(
            sh - st, key=lambda Y: (popcount(Y), core.coords(Y)))
        assert shatter.is_ample(C) == (is_ample, witness), C
        seen += 1
        ample += is_ample
    assert seen == (1 << (1 << N)) - 1
    assert ample == 5529


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


def check_against_the_oracles(C, rng, *given):
    """The peeling search, orderings and collapse of an ample C, and the
    map checks on its peeling's map, three perturbations of it and the
    `given` maps, against their oracles; the scheme checks on the first
    two of those maps and the `given` ones."""
    for budget in (0, 1, 3, 10**6):
        assert peeling.corner_peeling_search(C, budget) == _recursive_search(C, budget)
    order = peeling.corner_peeling_search(C).ordering
    for ordering in (order, order[::-1], C.concepts):
        assert peeling.classify_ordering(C, ordering) == classify_ordering_oracle(C, ordering)
    seq, survivor = peeling.collapse_sequence(C)
    replay_collapse_oracle(C, seq, survivor)
    o = repmap.peeling_to_uso(C, order)
    maps = [o]
    if C.size > 1:
        # two images swapped, one concept given another's image, and random
        # images for half of the concepts
        a, b = rng.sample(C.concepts, 2)
        maps += [{**o, a: o[b], b: o[a]}, {**o, a: o[b]},
                 {**o, **{c: rng.randrange(1 << C.n) for c in rng.sample(C.concepts, C.size // 2)}}]
    for r in (*maps, *given):
        rep = repmap.verify_repmap(C, r)
        p1 = first_pair_oracle(C, r, operator.or_)
        p4 = first_pair_oracle(C, r, operator.xor)
        assert rep.r1 == repmap.Check(p1 is None, p1)
        assert rep.r2 == check_r2_oracle(C, r)
        assert rep.r3.ok == check_r3_oracle(C, r).ok == (p4 is None)
        assert rep.r4 == repmap.Check(p4 is None, p4)
    assert repmap.verify_repmap(C, o).valid
    for r in (*maps[:2], *given):
        scheme = compress.CompressionScheme(C, r)
        got, want = compress.verify_scheme(scheme), verify_scheme_oracle(C, scheme)
        assert got.ok == want.ok
        if want.ok:
            assert got == want
        assert got == verify_scheme_enumeration_oracle(C, scheme)
        assert got.ok == repmap.certify_repmap(C, r).valid


def test_each_ample_orbit_and_its_complement_match_the_oracles_on_n4():
    reps = list(orbit_representatives(N))
    classes = {mask: core.ConceptClass(N, tuple(c for c in range(1 << N) if mask >> c & 1))
               for mask in reps}
    ample = [mask for mask, C in classes.items() if shatter.is_ample(C)[0]]
    assert (len(reps), len(ample)) == (401, 46)
    for mask in ample:
        C = classes[mask]
        check_against_the_oracles(C, random.Random(mask))
        if C.size < 1 << N:
            check_against_the_oracles(core.complement(C), random.Random(-mask))


# The least concept bitset of each orbit of the maximum classes on n = 5
# under the 3,840 symmetries of the 5-cube.  They were derived by lifting:
# a maximum 5-class C is the union of {t, t + x5 : t in T} and one of r,
# r + x5 for each r in R \ T, where R = C|{1..4} and T = C^{x5} are maximum
# 4-classes of dimensions d and d - 1.  Every such union over every (R, T)
# and side choice was kept when maximum, 111,425 classes in all, and the
# classes were merged into orbits by union-find under generators of the
# symmetry group.
MAXIMUM_5_ORBITS = (
    1, 65815, 65819, 65835, 65931, 66119, 98443, 18290559, 18290623, 18291647, 18291679,
    18295743, 18320319, 18320351, 18553823, 18553851, 18556799, 18556863, 18557947,
    18560383, 18568063, 18568159, 18568187, 18575743, 18575867, 18576223, 18582463,
    18582495, 18582523, 18583007, 18588667, 18592251, 18597343, 18600415, 18600443,
    18608571, 18838359, 18844603, 18850747, 18854331, 19887415, 19887911, 25940447,
    25940475, 25941455, 25948603, 25949099, 26194859, 394231807, 394248191, 398442495,
    398450687, 398458815, 467663871, 2147483647, 4294967295,
)


def test_each_maximum_orbit_on_n5_matches_the_oracles():
    classes = {mask: core.ConceptClass(5, tuple(c for c in range(32) if mask >> c & 1))
               for mask in MAXIMUM_5_ORBITS}
    assert all(map(shatter.is_maximum, classes.values()))
    # each pinned bitset is the least of its orbit, so the orbits are distinct
    for g in cube_symmetries(5):
        assert all(sum(1 << g[c] for c in C.concepts) >= mask for mask, C in classes.items())
    dims = collections.Counter(map(shatter.vc_dim, classes.values()))
    assert [dims[d] for d in range(6)] == [1, 6, 41, 6, 1, 1]
    statuses = collections.Counter()
    for mask, C in classes.items():
        r = repmap.build_maximum_repmap(C)
        assert repmap.certify_repmap(C, r).valid
        check_against_the_oracles(C, random.Random(mask), r)
        for x in range(1, 6):
            try:
                statuses[repmap.tail_matching_analysis(C, x).status] += 1
            except ContractError:   # no x-edge
                assert C.size == 1
                statuses["refused"] += 1
    assert statuses == {"unique": 275, "refused": 5}
