import itertools
import random
from math import comb
from types import SimpleNamespace

import pytest

from amplekit import compress, core, generate, graph, peeling, repmap, shatter
from amplekit.core import ConceptClass, bit, mask_of
from amplekit.errors import ContractError

from classes import all_classes, ample_classes, cc, submasks


# ---------------------------------------------------------------- oracles

def shattered_oracle(C, Y):
    patterns = {c & Y for c in C}
    return len(patterns) == 1 << bin(Y).count("1")


def strongly_shattered_oracle(C, Y):
    s = C.concept_set
    for c in C:
        tag = c & ~Y
        if all((tag | sub) in s for sub in submasks(Y)):
            return True
    return False


def random_classes():
    """Seeded classes at n=5 and n=6: dense, sparse, ample and maximum."""
    rng = random.Random(2024)
    for n in (5, 6):
        for density in (0.8, 0.2):
            for _ in range(8):
                cs = [c for c in range(1 << n) if rng.random() < density]
                yield ConceptClass(n, tuple(cs or [0]))
        for seed in range(4):
            yield generate.random_ample(n, rng.randint(2, 1 << (n - 1)), seed=seed)
        yield generate.hamming_ball(n, n // 2)


# ---------------------------------------------------------------- complexes

def test_shattered_complex_examples():
    C = cc("00", "01", "10")
    assert shatter.shattered_complex(C).members == {0, bit(1), bit(2)}
    Q3 = ConceptClass(3, range(8))
    assert shatter.shattered_complex(Q3).members == set(range(8))
    assert shatter.shattered_complex(cc("0110")).members == {0}


def test_strongly_shattered_complex_examples():
    C = cc("00", "01", "10")
    assert shatter.strongly_shattered_complex(C).members == {0, bit(1), bit(2)}
    assert shatter.strongly_shattered_complex(cc("00", "11")).members == {0}
    Q3 = ConceptClass(3, range(8))
    assert shatter.strongly_shattered_complex(Q3).members == set(range(8))


def assert_complexes_match_oracle(C):
    sh = shatter.shattered_complex(C).members
    st = shatter.strongly_shattered_complex(C).members
    for Y in range(1 << C.n):
        assert (Y in sh) == shattered_oracle(C, Y)
        assert (Y in st) == strongly_shattered_oracle(C, Y)
    assert st <= sh
    assert_invariants_match_oracle(C)


def assert_invariants_match_oracle(C):
    """Everything read off the complexes, against the brute-force oracles:
    an ample class takes the cube-complex shortcut, any other the scan."""
    sh = {Y for Y in range(1 << C.n) if shattered_oracle(C, Y)}
    st = {Y for Y in range(1 << C.n) if strongly_shattered_oracle(C, Y)}
    d = max(bin(Y).count("1") for Y in sh)
    ample = len(sh) == C.size
    maximum = C.size == sum(comb(C.n, i) for i in range(d + 1))
    gap = sorted(sh - st, key=lambda Y: (bin(Y).count("1"), core.coords(Y)))
    assert shatter._complexes(C) == (sh, st)
    assert shatter.shattered_complex(C).members == sh
    assert shatter.vc_dim(C) == d
    assert shatter.is_ample(C) == ((True, None) if ample else (False, gap[0]))
    assert shatter._is_ample_fast(C) == ample
    assert shatter.is_maximum(C) == maximum
    s = shatter.summary(C)
    assert (s["n"], s["size"], s["vc_dim"], s["ample"], s["maximum"]) == (
        C.n, C.size, d, ample, maximum)
    assert (s["shattered"], s["strongly_shattered"]) == (len(sh), len(st))


def test_complexes_match_oracle_exhaustive_n3():
    for C in all_classes(3):
        assert_complexes_match_oracle(C)


def test_invariants_match_oracle_exhaustive_n0_to_n2():
    for n in range(3):
        for C in all_classes(n):
            assert_complexes_match_oracle(C)


def test_engine_matches_oracle_random_n5_n6():
    for C in random_classes():
        assert_complexes_match_oracle(C)
        sh = {Y for Y in range(1 << C.n) if shattered_oracle(C, Y)}
        st = {Y for Y in range(1 << C.n) if strongly_shattered_oracle(C, Y)}
        assert shatter._shattered_sets(C) == sh
        assert shatter._strongly_shattered_sets(C) == st
        assert shatter._is_ample_fast(C) == (len(sh) == C.size)


def test_summary_fields_match_public_functions():
    for C in itertools.chain(all_classes(2), random_classes()):
        s = shatter.summary(C)
        assert all(type(v) is int for v in s.values())
        assert s["n"] == C.n and s["size"] == C.size
        assert s["vc_dim"] == shatter.vc_dim(C)
        assert s["shattered"] == len(shatter.shattered_complex(C))
        assert s["strongly_shattered"] == len(shatter.strongly_shattered_complex(C))
        assert s["ample"] == shatter.is_ample(C)[0]
        assert s["maximum"] == shatter.is_maximum(C)


def test_complexes_downward_closed():
    for C in all_classes(3):
        for fam in (shatter.shattered_complex(C), shatter.strongly_shattered_complex(C)):
            for m in fam.members:
                for sub in submasks(m):
                    assert sub in fam.members


# ---------------------------------------------------------------- vc / phi

def test_phi_values():
    assert shatter.phi(3, 12) == 299
    assert shatter.phi(1, 3) == 4
    for d in range(5):
        for n in range(d, 8):
            assert shatter.phi(d, n) == sum(comb(n, i) for i in range(d + 1))


def test_vc_dim():
    assert shatter.vc_dim(ConceptClass(3, range(8))) == 3
    assert shatter.vc_dim(cc("000", "001", "010", "100")) == 1
    assert shatter.vc_dim(cc("0110")) == 0


# ---------------------------------------------------------------- predicates

def test_is_ample_examples():
    ok, wit = shatter.is_ample(cc("00", "01", "10"))
    assert ok and wit is None
    ok, wit = shatter.is_ample(cc("00", "11"))
    assert not ok and wit == bit(1)   # lexicographically smallest witness
    assert shatter.is_ample(ConceptClass(4, range(16)))[0]


def test_is_maximum_examples():
    assert shatter.is_maximum(cc("00", "01", "10"))
    assert shatter.is_maximum(ConceptClass(2, range(4)))
    assert not shatter.is_maximum(cc("00", "11"))


def test_maximum_implies_ample_and_hereditary():
    # restrictions and reductions of maximum classes are maximum
    C = generate.hamming_ball(5, 2)
    assert shatter.is_maximum(C) and shatter.is_ample(C)[0]
    for x in range(1, 6):
        assert shatter.is_maximum(core.drop(C, bit(x)))
        R = core.reduce(C, bit(x))
        assert R is not None and shatter.is_maximum(R)


def test_ample_iff_complement_ample_n3():
    for C in all_classes(3):
        if C.size == 8:
            continue
        a = shatter.is_ample(C)[0]
        b = shatter.is_ample(core.complement(C))[0]
        assert a == b


# ---------------------------------------------------------------- report

def test_report_examples():
    rep = shatter.ample_characterization_report(cc("00", "01", "10"))
    assert rep.agree and rep.ample
    assert all(rep)
    rep = shatter.ample_characterization_report(cc("00", "11"))
    assert rep.agree and not rep.ample
    assert not any(rep)
    rep = shatter.ample_characterization_report(ConceptClass(3, range(8)))
    assert rep.agree and rep.ample


def test_report_agrees_on_random_classes():
    import random
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(1, 4)
        size = rng.randint(1, 1 << n)
        C = ConceptClass(n, rng.sample(range(1 << n), size))
        rep = shatter.ample_characterization_report(C)
        assert rep.agree, (C, rep)
        assert rep.ample == shatter.is_ample(C)[0]


def report_oracle(C):
    """The report read off each field's definition.  The lopsided partitions
    and the reductions are the two loops over all 2^n coordinate sets that
    the report once ran, C^Y read by `core.reduce`; sh(C) is the pattern
    scan.  2^X \\ C holds the Z-cube with tag t iff no concept of C agrees
    with t off Z, so it strongly shatters Z iff C does not shatter X \\ Z."""
    X = C.domain_mask
    reductions = {Y: core.reduce(C, Y) for Y in range(X + 1)}
    st = {Y for Y, R in reductions.items() if R is not None}
    sh = {Y for Y in range(X + 1) if shattered_oracle(C, Y)}
    st_comp = {X & ~Y for Y in range(X + 1) if Y not in sh}
    partition_lopsided = True
    for Y in range(X + 1):
        if Y not in st and (X & ~Y) not in st_comp:
            partition_lopsided = False
            break
    reductions_connected = True
    for R in reductions.values():
        if R is not None and not graph.is_connected(R):
            reductions_connected = False
            break
    hyperplanes = (core.reduce(C, bit(x)) for x in range(1, C.n + 1))
    return shatter.AmpleReport(
        complement_ample=len(st_comp) == (1 << C.n) - C.size,
        complexes_equal=sh == st,
        strongly_shattered_count=len(st) == C.size,
        shattered_count=len(sh) == C.size,
        partition_lopsided=partition_lopsided,
        reductions_connected=reductions_connected,
        connected_hyperplanes_ample=graph.is_connected(C) and all(
            R is None or shatter.is_ample(R)[0] for R in hyperplanes))


def test_report_matches_its_oracle_field_by_field():
    classes = [C for n in range(4) for C in all_classes(n)]
    rng = random.Random(42)
    for n in range(4, 11):
        for seed in range(2):
            A = generate.random_ample(n, rng.randint(2, 1 << (n - 1)), seed=seed)
            dense = ConceptClass(n, tuple(c for c in range(1 << n) if rng.random() < 0.8))
            classes += [A, dense, *(core.complement(C) for C in (A, dense) if not C.is_full_cube())]
    A = generate.random_ample(13, 200, 0)
    far = min(v for v in range(1 << 13)
              if all(core.popcount(v ^ c) >= 2 for c in A.concepts))
    wide = [A, ConceptClass(13, A.concepts + (far,))]
    reports = [shatter.ample_characterization_report(C) for C in classes + wide]
    for C, rep in zip(classes + wide, reports):
        assert rep == report_oracle(C), C
        assert rep.agree, (C, rep)
    assert [rep.ample for rep in reports[-2:]] == [True, False]


def test_each_entry_builds_one_complex_per_class(monkeypatch):
    built = []
    cube_tags = graph.cube_tags

    def counted(C):
        built.append(C)
        return cube_tags(C)

    monkeypatch.setattr(graph, "cube_tags", counted)

    def builds(f, *args):
        repmap._valid.cache_clear()
        built.clear()
        f(*args)
        return list(built)

    A = generate.random_ample(7, 50, 3)
    B = generate.hamming_ball(6, 1)
    N = ConceptClass(6, B.concepts + (B.domain_mask,))
    assert shatter.is_ample(A)[0] and not shatter.is_ample(N)[0]
    for C in (A, N):
        Y = mask_of(range(1, shatter.vc_dim(C) + 2))
        for f, *args in ((shatter.summary,), (shatter.is_ample,), (shatter.vc_dim,),
                         (shatter.is_maximum,), (shatter.shattered_complex,),
                         (shatter.strongly_shattered_complex,), (shatter.forbidden_labels, Y)):
            assert builds(f, C, *args) == [C], f.__name__
        # X of the complement is read on its own, so that `complement_ample`
        # stays an independent characterisation
        assert builds(shatter.ample_characterization_report, C) == [C, core.complement(C)]
    full = ConceptClass(3, range(8))
    assert builds(shatter.ample_characterization_report, full) == [full]

    T = generate.random_ample(7, 40, 3, max_dim=2)
    ordering = peeling.corner_peeling_search(A).ordering
    seq, survivor = peeling.collapse_sequence(A)
    o = repmap.peeling_to_uso(A, ordering)
    r = repmap.build_maximum_repmap(B)
    ball = generate.hamming_ball(4, 1)
    inst = repmap.isr_instance(ball)
    for C, f, *args in ((A, peeling.corner_peeling_search, A), (T, peeling.two_dim_peeling, T),
                        (A, peeling.replay_collapse, A, seq, survivor),
                        (A, repmap.isr_instance, A), (A, repmap.uso_to_peeling, A, o),
                        (A, repmap.peeling_to_uso, A, ordering),
                        (ball, repmap.isr_solve, inst),
                        (B, repmap.sub_repmap_cube, B, r, core.Cube(0, 0b11)),
                        (B, repmap.sub_repmap_reduction, B, r, 0b1),
                        (B, repmap.sub_repmap_restriction, B, r, 0b11),
                        (B, compress.verify_scheme, compress.CompressionScheme(B, r)),
                        (A, graph.maximal_cubes, A)):
        assert builds(f, *args) == [C], f.__name__
    assert repmap.isr_solve(inst).assignment is not None


def test_cube_intersections_of_ample_classes_are_ample():
    # C ∩ B is ample for every ample C and every subcube B of 2^X
    classes = [*itertools.chain(*(ample_classes(n) for n in range(4))),
               *(generate.random_ample(n, k << (n - 2), seed=n * 10 + k)
                 for n in (5, 6) for k in (1, 2, 3))]
    proper = 0
    for C in classes:
        for support in range(1 << C.n):
            for tag in core.Cube(0, C.domain_mask & ~support).vertices():
                sub = core.intersect_cube(C, core.Cube(tag, support))
                if sub is not None:
                    assert shatter.is_ample(sub)[0], (C, tag, support)
                    proper += sub.size < C.size
    assert proper > 1000


# ---------------------------------------------------------------- sandwich

def test_sandwich_and_sauer_exhaustive_n3():
    for C in all_classes(3):
        sh = shatter.shattered_complex(C)
        st = shatter.strongly_shattered_complex(C)
        assert st.size <= C.size <= sh.size
        assert C.size <= shatter.phi(sh.dim(), 3)


# ---------------------------------------------------------------- labels

def test_forbidden_labels_examples():
    C = cc("00", "01", "10")
    labels = shatter.forbidden_labels(C, mask_of([1, 2]))
    assert len(labels) == 1
    assert labels[0].support == mask_of([1, 2])
    assert labels[0].pattern == mask_of([1, 2])   # missing pattern 11
    with pytest.raises(ContractError):
        shatter.forbidden_labels(ConceptClass(2, range(4)), mask_of([1, 2]))


def test_forbidden_labels_unique_for_maximum():
    C = generate.hamming_ball(5, 2)
    for sel in itertools.combinations(range(1, 6), 3):
        labels = shatter.forbidden_labels(C, mask_of(sel))
        assert len(labels) == 1


# ---------------------------------------------------------------- fibre engine

def is_shattered_scan(concepts, Y):
    """The per-set scan `_shattered_sets` grew its complex with before the
    fibre walk: stop as soon as all 2^|Y| patterns are seen."""
    want = 1 << bin(Y).count("1")
    seen = set()
    for c in concepts:
        seen.add(c & Y)
        if len(seen) == want:
            return True
    return False


def shattered_sets_scan(C):
    """The shattered complex as it was grown before the fibre walk."""
    return set(core.levelwise(core.bits_of(C.domain_mask),
                              lambda Y, _: is_shattered_scan(C.concepts, Y)))


def missing_patterns_scan(concepts, Y):
    """Ascending patterns over Y that the concepts miss, by one scan: the
    routine `forbidden_labels` and `_missed_labels` called once per set."""
    seen = {c & Y for c in concepts}
    return sorted(p for p in core.Cube(0, Y).vertices() if p not in seen)


def missed_labels_scan(concepts, alive, d):
    return {sigma: missing_patterns_scan(concepts, sigma)
            for sigma in map(mask_of, itertools.combinations(core.coords(alive), d))}


def seeded_non_ample_classes():
    """Dense and sparse seeded classes for n = 4..10, every one not ample."""
    rng = random.Random(77)
    for n in range(4, 11):
        for density in (0.9, 0.6, 0.25, 0.05):
            cs = [c for c in range(1 << n) if rng.random() < density] or [0, (1 << n) - 1]
            C = ConceptClass(n, tuple(cs))
            if not shatter._is_ample_fast(C):
                yield C


def test_shattered_sets_match_the_scan():
    classes = list(itertools.chain(*(all_classes(n) for n in range(4)),
                                   random_classes(), seeded_non_ample_classes()))
    assert sum(not shatter._is_ample_fast(C) for C in classes) > 100
    assert sum(C.n == 10 for C in seeded_non_ample_classes()) == 4
    for C in classes:
        assert shatter._shattered_sets(C) == shattered_sets_scan(C), C


def test_fibre_walk_on_the_empty_class():
    # ConceptClass refuses an empty class; the walk itself takes one
    empty = SimpleNamespace(n=3, concepts=(), domain_mask=0b111)
    assert shatter._shattered_sets(empty) == set()
    assert {Y: list(v) for Y, v in shatter._missed_labels((), 0b111, 2).items()} == \
        missed_labels_scan((), 0b111, 2)
    assert {Y: list(v) for Y, v in shatter._missed_labels((), 0b101, 0).items()} == {0: [0]}


def test_fibre_walk_visits_sets_in_combinations_order_with_their_fibres():
    rng = random.Random(5)
    for n in (1, 3, 6):
        concepts = rng.sample(range(1 << n), min(1 << n, 9))
        for d in range(n + 1):
            seen = list(shatter._fibre_walk(concepts, core.full_mask(n), d, False))
            leaves = [Y for Y, _ in seen if bin(Y).count("1") == d]
            assert leaves == [mask_of(s) for s in itertools.combinations(range(1, n + 1), d)]
            for Y, fibres in seen:
                pats = list(core.Cube(0, Y).vertices())
                want = [sum(1 << j for j, c in enumerate(concepts) if c & Y == p)
                        for p in sorted(pats)]
                assert fibres == want


def non_maximum_label_cases():
    """(concepts, alive, d) where some d-set sigma has a subset that is not
    shattered: an unpruned walk must still report sigma."""
    rng = random.Random(19)
    for n in range(2, 9):
        for density in (0.7, 0.3, 0.1):
            concepts = [c for c in range(1 << n) if rng.random() < density] or [0]
            for d in range(1, n + 1):
                yield concepts, core.full_mask(n), d
                alive = rng.randrange(1 << n)
                yield concepts, alive, min(d, bin(alive).count("1"))


def test_missed_labels_match_the_scan_where_subsets_are_not_shattered():
    subset_gaps = 0
    for concepts, alive, d in non_maximum_label_cases():
        got = {Y: list(v) for Y, v in shatter._missed_labels(concepts, alive, d).items()}
        want = missed_labels_scan(concepts, alive, d)
        assert list(got.items()) == list(want.items()), (concepts, alive, d)
        subset_gaps += any(any(missing_patterns_scan(concepts, sigma & ~b)
                               for b in core.bits_of(sigma)) for sigma in want)
    assert subset_gaps > 50


def test_forbidden_labels_match_the_scan():
    for C in itertools.chain(all_classes(3), random_classes(), seeded_non_ample_classes()):
        d = shatter.vc_dim(C)
        if d == C.n:
            continue
        for sel in itertools.combinations(range(1, C.n + 1), d + 1):
            Y = mask_of(sel)
            got = shatter.forbidden_labels(C, Y)
            assert got == [shatter.ForbiddenLabel(Y, p)
                           for p in missing_patterns_scan(C.concepts, Y)]
            assert got
