import itertools
import random
from math import comb
from types import SimpleNamespace

import pytest

from amplekit import core, generate, shatter
from amplekit.core import ConceptClass, bit, mask_of
from amplekit.errors import ContractError

from classes import all_classes, cc


# ---------------------------------------------------------------- oracles

def shattered_oracle(C, Y):
    patterns = {c & Y for c in C}
    return len(patterns) == 1 << bin(Y).count("1")


def strongly_shattered_oracle(C, Y):
    s = C.concept_set
    for c in C:
        tag = c & ~Y
        if all((tag | sub) in s for sub in _subsets(Y)):
            return True
    return False


def _subsets(Y):
    sub = Y
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & Y


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
    Q3 = ConceptClass.of(3, range(8))
    assert shatter.shattered_complex(Q3).members == set(range(8))
    assert shatter.shattered_complex(cc("0110")).members == {0}


def test_strongly_shattered_complex_examples():
    C = cc("00", "01", "10")
    assert shatter.strongly_shattered_complex(C).members == {0, bit(1), bit(2)}
    assert shatter.strongly_shattered_complex(cc("00", "11")).members == {0}
    Q3 = ConceptClass.of(3, range(8))
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
                for sub in _subsets(m):
                    assert sub in fam.members


# ---------------------------------------------------------------- vc / phi

def test_phi_values():
    assert shatter.phi(3, 12) == 299
    assert shatter.phi(1, 3) == 4
    for d in range(5):
        for n in range(d, 8):
            assert shatter.phi(d, n) == sum(comb(n, i) for i in range(d + 1))


def test_vc_dim():
    assert shatter.vc_dim(ConceptClass.of(3, range(8))) == 3
    assert shatter.vc_dim(cc("000", "001", "010", "100")) == 1
    assert shatter.vc_dim(cc("0110")) == 0


# ---------------------------------------------------------------- predicates

def test_is_ample_examples():
    ok, wit = shatter.is_ample(cc("00", "01", "10"))
    assert ok and wit is None
    ok, wit = shatter.is_ample(cc("00", "11"))
    assert not ok and wit == bit(1)   # lexicographically smallest witness
    assert shatter.is_ample(ConceptClass.of(4, range(16)))[0]


def test_is_maximum_examples():
    assert shatter.is_maximum(cc("00", "01", "10"))
    assert shatter.is_maximum(ConceptClass.of(2, range(4)))
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
    assert all(rep.values())
    rep = shatter.ample_characterization_report(cc("00", "11"))
    assert rep.agree and not rep.ample
    assert not any(rep.values())
    rep = shatter.ample_characterization_report(ConceptClass.of(3, range(8)))
    assert rep.agree and rep.ample


def test_report_agrees_on_random_classes():
    import random
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(1, 4)
        size = rng.randint(1, 1 << n)
        C = ConceptClass.of(n, rng.sample(range(1 << n), size))
        rep = shatter.ample_characterization_report(C)
        assert rep.agree, (C, rep)
        assert rep.ample == shatter.is_ample(C)[0]


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
        shatter.forbidden_labels(ConceptClass.of(2, range(4)), mask_of([1, 2]))


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


def partition_exchange_scan(C):
    """`_partition_exchange_ok` as it was: one shattering scan per set."""
    return all(bool(core.reduction_tags(C.concepts, Y)) == is_shattered_scan(C.concepts, Y)
               for Y in range(C.domain_mask + 1))


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
    assert shatter._missed_labels((), 0b111, 2) == missed_labels_scan((), 0b111, 2)
    assert shatter._missed_labels((), 0b101, 0) == {0: [0]}


def test_fibre_walk_visits_sets_in_combinations_order_with_their_fibres():
    rng = random.Random(5)
    for n in (1, 3, 6):
        concepts = rng.sample(range(1 << n), min(1 << n, 9))
        for d in range(n + 1):
            seen = []
            shatter._fibre_walk(concepts, core.full_mask(n), d, False,
                                lambda Y, fibres: seen.append((Y, fibres)))
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
        got = shatter._missed_labels(concepts, alive, d)
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


def test_partition_exchange_matches_the_scan():
    seen = set()
    for C in itertools.chain(all_classes(3), random_classes()):
        got = shatter._partition_exchange_ok(C, shatter._shattered_sets(C))
        assert got == partition_exchange_scan(C)
        seen.add(got)
    assert seen == {True, False}
