import itertools
import random
import sys

import pytest

from amplekit import core, generate, graph, peeling, shatter
from amplekit.core import ConceptClass, Cube, bit, mask_of
from amplekit.errors import (ContractError, DomainError, IntegrityError,
                             OrderingValidationError)

from classes import ample_classes, cc, is_isometric_oracle
from downsets import random_downset_class


# ---------------------------------------------------------------- classify

def test_classify_ordering_all_true():
    Q2 = ConceptClass(2, range(4))
    rep = peeling.classify_ordering(Q2, (0, 2, 1, 3))
    assert rep.ample and rep.corner_peeling and rep.isometric and rep.weakly_isometric
    assert rep.all_equal


def test_classify_ordering_all_false():
    Q2 = ConceptClass(2, range(4))
    # prefix {00, 11} is disconnected: fails every property at level 2
    rep = peeling.classify_ordering(Q2, (0, 3, 2, 1))
    assert not (rep.ample or rep.corner_peeling or rep.isometric
                or rep.weakly_isometric)
    assert rep.all_equal


def test_classify_rejects_non_permutation():
    Q2 = ConceptClass(2, range(4))
    with pytest.raises(ContractError):
        peeling.classify_ordering(Q2, (0, 0, 1, 3))


def test_four_properties_equivalent_small_exhaustive():
    # all orderings of every ample class on n <= 2
    for C in ample_classes(2):
        for perm in itertools.permutations(C.concepts):
            assert peeling.classify_ordering(C, perm).all_equal


def classify_ordering_oracle(C, ordering):
    """The classifier that rebuilds every prefix as a class and runs the
    whole-class tests on it, kept as the reference for the out-map walk."""
    order = list(ordering)
    ample = corner = isometric = weak = True
    for i in range(1, len(order) + 1):
        level = ConceptClass(C.n, tuple(order[:i]))
        if ample and not shatter._is_ample_fast(level):
            ample = False
        if corner and not graph.is_corner(level, order[i - 1]):
            corner = False
        if isometric and not is_isometric_oracle(level, "full"):
            isometric = False
        if weak and not is_isometric_oracle(level, "weak"):
            weak = False
        if not (ample or corner or isometric or weak):
            break
    return peeling.OrderingReport(ample, corner, isometric, weak)


def random_orderings(rng, C, k):
    """k shuffles of C, then k orderings grown through random neighbours,
    whose flags hold for longer and drop at different levels."""
    for _ in range(k):
        order = list(C.concepts)
        rng.shuffle(order)
        yield order
    s = C.concept_set
    for _ in range(k):
        order = [rng.choice(C.concepts)]
        while len(order) < C.size:
            seen = set(order)
            nbrs = sorted({c ^ 1 << x for c in order for x in range(C.n)} & s - seen)
            order.append(rng.choice(nbrs or sorted(s - seen)))
        yield order


def drop_levels(reports):
    """Per flag, the first level whose report has it false, or None."""
    return tuple(next((i for i, rep in enumerate(reports) if not rep[f]), None)
                 for f in range(4))


def test_classify_ordering_matches_per_prefix_oracle():
    rng = random.Random(14)
    finals, staggered = set(), 0
    for n in range(1, 7):
        for seed in range(8):
            size = rng.randint(1, min(1 << n, 20))
            cases = [ConceptClass(n, tuple(rng.sample(range(1 << n), size))),
                     generate.random_ample(n, size, seed)]
            for C in cases:
                orders = list(random_orderings(rng, C, 3))
                if shatter.is_ample(C)[0]:
                    orders.append(peeling.corner_peeling_search(C).ordering)
                for order in orders:
                    # every prefix is itself an ordering of its own class
                    got, want = [], []
                    for i in range(1, len(order) + 1):
                        P = ConceptClass(n, tuple(order[:i]))
                        got.append(peeling.classify_ordering(P, order[:i]))
                        want.append(classify_ordering_oracle(P, order[:i]))
                    assert got == want, (C, order)
                    finals.add(want[-1])
                    dropped = {i for i in drop_levels(want) if i is not None}
                    staggered += len(dropped) > 1
    assert (True,) * 4 in finals and (False,) * 4 in finals
    assert sum(not rep.all_equal for rep in finals) >= 2
    assert staggered > 50


def far_start_orderings(rng, C, k):
    """k orderings of C that start with two concepts at Hamming distance 3
    or more, then grow through random neighbours: the first levels are not
    isometric, yet weakly isometric until a pair at distance 2 without a
    common neighbour comes in."""
    far = [(u, v) for u in C for v in C if core.popcount(u ^ v) >= 3]
    s = C.concept_set
    for u, v in rng.sample(far, min(k, len(far))):
        order = [u, v]
        while len(order) < C.size:
            seen = set(order)
            nbrs = sorted({c ^ 1 << x for c in order for x in range(C.n)} & s - seen)
            order.append(rng.choice(nbrs or sorted(s - seen)))
        yield order


def test_classify_ordering_matches_oracle_when_isometry_drops_first():
    rng = random.Random(15)
    later = 0
    for n in range(3, 7):
        for seed in range(6):
            size = rng.randint(4, min(1 << n, 18))
            for C in (ConceptClass(n, tuple(rng.sample(range(1 << n), size))),
                      generate.random_ample(n, size, seed)):
                for order in far_start_orderings(rng, C, 3):
                    got, want = [], []
                    for i in range(1, len(order) + 1):
                        P = ConceptClass(n, tuple(order[:i]))
                        got.append(peeling.classify_ordering(P, order[:i]))
                        want.append(classify_ordering_oracle(P, order[:i]))
                    assert got == want, (C, order)
                    iso, weak = drop_levels(want)[2:]
                    assert iso == 1 and (weak is None or weak >= 1)
                    later += weak is None or weak > 1
    assert later >= 20


def test_classify_ordering_rebuilds_no_level(monkeypatch):
    def refuse(*args):
        raise AssertionError("whole-class test called on a level")

    C = generate.hamming_ball(5, 2)
    peel = peeling.corner_peeling_search(C).ordering
    monkeypatch.setattr(shatter, "_is_ample_fast", refuse)
    monkeypatch.setattr(graph, "is_isometric", refuse)
    monkeypatch.setattr(graph, "is_corner", refuse)
    assert peeling.classify_ordering(C, peel) == (True,) * 4
    rng = random.Random(3)
    for D in (C, generate.random_ample(6, 30, 1), ConceptClass(4, (0, 3, 5, 6, 9, 15))):
        for order in random_orderings(rng, D, 4):
            peeling.classify_ordering(D, order)


# ---------------------------------------------------------------- search

def test_search_three_vertex_path():
    C = cc("00", "01", "10")
    res = peeling.corner_peeling_search(C)
    assert res.peelable and res.proven
    assert peeling.classify_ordering(C, res.ordering).corner_peeling


def test_search_cube():
    for d in (1, 2, 3):
        Q = ConceptClass(d, range(1 << d))
        res = peeling.corner_peeling_search(Q)
        assert res.peelable
        assert peeling.classify_ordering(Q, res.ordering).corner_peeling


def test_search_requires_ample():
    with pytest.raises(ContractError):
        peeling.corner_peeling_search(cc("00", "11"))


def test_search_budget_flag():
    C = generate.hamming_ball(4, 1)
    res = peeling.corner_peeling_search(C, budget=0)
    # with no budget the search cannot finish nor prove anything
    assert not res.peelable and not res.proven


def test_found_peelings_are_corner_peelings_n3():
    for C in ample_classes(3):
        res = peeling.corner_peeling_search(C)
        assert res.peelable          # every ample class on n=3 is dismantlable
        rep = peeling.classify_ordering(C, res.ordering)
        assert rep.all_equal and rep.corner_peeling


def _recursive_search(C, budget=10**6):
    """The corner peeling search as it was written recursively, kept as the
    reference for the explicit-stack search."""
    expansions = 0
    failed = set()
    peeled = []
    remaining = list(C.concepts)

    def dfs():
        nonlocal expansions
        if len(remaining) == 1:
            peeled.append(remaining[0])
            return True
        state = frozenset(remaining)
        if state in failed:
            return False
        level = ConceptClass(C.n, tuple(remaining))
        for c in sorted(graph.corners(level)):
            expansions += 1
            if expansions > budget:
                return False
            remaining.remove(c)
            peeled.append(c)
            if dfs():
                return True
            peeled.pop()
            remaining.append(c)
            if expansions > budget:
                return False
        failed.add(state)
        return False

    if dfs():
        return peeling.PeelingResult(tuple(reversed(peeled)), True, expansions)
    return peeling.PeelingResult(None, expansions <= budget, expansions)


def _small_ample_classes():
    yield from ample_classes(3)
    rng = random.Random(2025)
    for n in (5, 6):
        for seed in range(4):
            yield generate.random_ample(n, rng.randint(2, 1 << (n - 1)), seed=seed)


def test_search_matches_recursive_reference(monkeypatch):
    classes = list(_small_ample_classes())
    larger = [generate.random_ample(n, min(1 << n, 40 + 50 * seed), seed)
              for n in range(7, 11) for seed in range(3)]
    for C in classes + larger:
        for budget in (0, 1, 3, 10**6):
            assert (peeling.corner_peeling_search(C, budget)
                    == _recursive_search(C, budget))
    # withholding some corners forces dead ends, backtracking and memo hits;
    # the thinning reads only c and its neighbour mask N, so that cornerhood
    # stays local, as the search's recheck of the concepts sharing a cube
    # with the peeled one requires
    real = graph._is_corner_in
    monkeypatch.setattr(graph, "_is_corner_in", lambda s, c, N: bool(
        real(s, c, N) and (c + 5 * core.popcount(N)) % 3))
    backtracked = 0
    for C in classes:
        for budget in (5, 10**6):
            got = peeling.corner_peeling_search(C, budget)
            assert got == _recursive_search(C, budget)
            backtracked += got.expansions > C.size - 1
    assert backtracked


def test_search_depth_not_bounded_by_recursion_limit():
    C = generate.hamming_ball(16, 2)
    assert C.size == 137
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        res = peeling.corner_peeling_search(C)
    finally:
        sys.setrecursionlimit(limit)
    assert res.peelable and sorted(res.ordering) == list(C.concepts)
    for i in range(1, C.size + 1):
        level = ConceptClass(C.n, res.ordering[:i])
        assert graph.is_corner(level, res.ordering[i - 1])


# ------------------------------------------------------- corner properties

def test_corner_removal_preserves_ample():
    for C in ample_classes(3):
        for c in graph.corners(C):
            if C.size == 1:
                continue
            rest = ConceptClass(3, [d for d in C if d != c])
            assert shatter.is_ample(rest)[0]


def test_isometric_extension_is_ample_with_corner():
    # if C ∪ {t} stays isometric then it is ample and t is a corner of it
    for C in ample_classes(3, max_size=7):
        for t in range(8):
            if t in C.concept_set:
                continue
            ext = ConceptClass(3, list(C.concepts) + [t])
            if not is_isometric_oracle(ext, "full"):
                continue
            assert shatter.is_ample(ext)[0]
            assert graph.is_corner(ext, t)


def test_outside_neighbor_minimal_cube():
    # for ample C and t outside with neighbors in C, the cube spanned by t
    # and its C-neighbors lies inside C ∪ {t}
    for C in ample_classes(3, max_size=7):
        s = C.concept_set
        for t in range(8):
            if t in s:
                continue
            nbr_coords = [x for x in (1, 2, 3) if (t ^ bit(x)) in s]
            if not nbr_coords:
                continue
            support = mask_of(nbr_coords)
            tag = t & ~support
            verts = set(Cube(tag, support).vertices())
            assert verts <= s | {t}


# ------------------------------------------------------- guaranteed peels

def test_antimatroid_peeling_examples():
    chain = cc("00", "10", "11")            # down-sets of a 2-chain
    order = peeling.antimatroid_peeling(chain)
    assert order == (0, bit(1), mask_of([1, 2]))
    full = ConceptClass(2, range(4))
    order = peeling.antimatroid_peeling(full)
    assert [core.popcount(c) for c in order] == sorted(core.popcount(c) for c in full)
    star = cc("00", "10", "01")
    assert peeling.antimatroid_peeling(star)[0] == 0


def test_antimatroid_peeling_is_corner_peeling():
    for seed in range(10):
        C = random_downset_class(4, seed)
        order = peeling.antimatroid_peeling(C)
        assert peeling.classify_ordering(C, order).corner_peeling


def test_antimatroid_axiom_errors():
    with pytest.raises(ContractError, match="empty set"):
        peeling.antimatroid_peeling(cc("10", "11"))
    with pytest.raises(ContractError, match="intersection"):
        peeling.antimatroid_peeling(cc("000", "110", "011"))
    # {∅, {1,2}}: the pair {1,2} has no extremal points, closure(∅) = ∅ ≠ it
    with pytest.raises(ContractError, match="extremal"):
        peeling.antimatroid_peeling(cc("00", "11"))


def test_two_dim_peeling_examples():
    C = cc("00", "01", "10")
    order = peeling.two_dim_peeling(C)
    assert peeling.classify_ordering(C, order).corner_peeling
    Q2 = ConceptClass(2, range(4))
    assert peeling.classify_ordering(Q2, peeling.two_dim_peeling(Q2)).corner_peeling


def test_two_dim_peeling_six_cycle():
    # the 6-cycle of Q_3 has vc_dim 2 but is not ample (7 shattered sets,
    # 6 concepts), so the precondition check must refuse it
    cycle = ConceptClass(3, [c for c in range(8) if c not in (0, 7)])
    assert not shatter.is_ample(cycle)[0]
    assert shatter.vc_dim(cycle) == 2
    with pytest.raises(ContractError):
        peeling.two_dim_peeling(cycle)
    # vc-dim-2 ample variant: Q_3 minus a single vertex
    C = ConceptClass(3, range(7))
    assert shatter.is_ample(C)[0] and shatter.vc_dim(C) == 2
    order = peeling.two_dim_peeling(C)
    assert peeling.classify_ordering(C, order).corner_peeling


def test_two_dim_peeling_rejects_high_dim():
    with pytest.raises(ContractError):
        peeling.two_dim_peeling(ConceptClass(3, range(8)))


# ---------------------------------------------------------------- collapse

def test_collapse_single_edge():
    C = ConceptClass(1, [0, 1])
    seq, survivor = peeling.collapse_sequence(C)
    assert len(seq) == 1 and survivor == 0
    q, p = seq[0]
    assert q.dim == 0 and p.dim == 1


def test_collapse_square_pair_count():
    # face poset of Q_2 has 9 faces: 4 pairs + 1 surviving vertex
    Q2 = ConceptClass(2, range(4))
    seq, survivor = peeling.collapse_sequence(Q2)
    assert len(seq) == 4 and survivor in Q2


def test_collapse_requires_ample():
    with pytest.raises(ContractError):
        peeling.collapse_sequence(cc("00", "11"))


def test_collapse_replay_validates_n3():
    for C in ample_classes(3):
        seq, survivor = peeling.collapse_sequence(C)
        faces = sum(len(ts) for ts in graph.cube_tags(C).values())
        assert 2 * len(seq) + 1 == faces
        peeling.replay_collapse(C, seq, survivor)


def collapse_rec_oracle(concepts):
    """The collapse recursion on concept sets: each restriction C_x rebuilt
    from the concepts, and side cubes tested by their vertices."""
    if len(concepts) == 1:
        return [], concepts[0]
    support = 0
    for c in concepts:
        support |= c ^ concepts[0]
    xb = 1 << (support.bit_length() - 1)
    s = set(concepts)
    seq_x, survivor_x = collapse_rec_oracle(tuple(sorted({c & ~xb for c in concepts})))

    def side_cubes(Q):
        Q1 = Cube(Q.tag | xb, Q.support)
        return (Q if core.cube_in_class(Q, s) else None,
                Q1 if core.cube_in_class(Q1, s) else None)

    seq = []
    for Q, Qp in seq_x:
        q0, q1 = side_cubes(Q)
        p0, p1 = side_cubes(Qp)
        q_thick = q0 is not None and q1 is not None
        p_thick = p0 is not None and p1 is not None
        if q_thick and p_thick:
            seq.append((Cube(Q.tag, Q.support | xb), Cube(Qp.tag, Qp.support | xb)))
            seq.append((q0, p0))
            seq.append((q1, p1))
        elif q_thick:
            thickQ = Cube(Q.tag, Q.support | xb)
            if p0 is not None:
                seq.extend([(q1, thickQ), (q0, p0)])
            else:
                seq.extend([(q0, thickQ), (q1, p1)])
        elif p_thick:
            raise AssertionError("thin face, thick coface")
        elif q0 is not None and p0 is not None:
            seq.append((q0, p0))
        else:
            assert q1 is not None and p1 is not None
            seq.append((q1, p1))
    v0, v1 = survivor_x, survivor_x | xb
    if v0 in s and v1 in s:
        seq.append((Cube(v1, 0), Cube(v0, xb)))
    return seq, v0 if v0 in s else v1


def collapse_cases():
    for n in (1, 2, 3):
        yield from ample_classes(n)
    for n in range(4, 9):
        for seed in range(4):
            yield generate.random_ample(n, min(1 << n, 5 + 4 * seed * n), seed)
    for n in range(1, 11):
        for d in range(n + 1):
            yield generate.hamming_ball(n, d)
    yield core.product(generate.hamming_ball(3, 1), generate.hamming_ball(3, 2))
    yield core.twist(generate.hamming_ball(6, 2), 0b101101)
    # coordinates 1 and 6 are constant
    yield ConceptClass(6, tuple(c << 1 | 0b100000 for c in generate.hamming_ball(4, 2)))


def pairs(seq):
    return [((q.tag, q.support), (p.tag, p.support)) for q, p in seq]


def test_collapse_reads_the_complex_like_the_concept_recursion():
    """The collapse over `graph.split_tags` and tag lookups gives the same
    sequence, in order, and the same survivor as the recursion that
    rebuilds each restriction from its concepts."""
    classes = 0
    for C in collapse_cases():
        seq, survivor = peeling._collapse_rec(C.support(), graph.cube_tags(C))
        want_seq, want_survivor = collapse_rec_oracle(C.concepts)
        assert (pairs(seq), survivor) == (pairs(want_seq), want_survivor)
        classes += 1
    assert classes > 100


def replay_collapse_oracle(C, seq, survivor=None):
    """The replay that keeps a coface set per face of X(C), kept as the
    reference for the replay by lookups."""
    faces = {(t, S) for S, ts in graph.cube_tags(C).items() for t in ts}
    cofaces = {f: set() for f in faces}
    for (t, S) in faces:
        for b in core.bits_of(S):
            for facet in ((t, S ^ b), (t | b, S ^ b)):
                cofaces[facet].add((t, S))
    for i, (Q, Qp) in enumerate(seq):
        fq, fp = (Q.tag, Q.support), (Qp.tag, Qp.support)
        if not Qp.contains_cube(Q) or Qp.dim != Q.dim + 1:
            raise IntegrityError(f"pair {i}: not a facet/coface pair")
        if fq not in faces or fp not in faces:
            raise IntegrityError(f"pair {i}: face already removed or absent")
        if cofaces[fq] != {fp}:
            raise IntegrityError(
                f"pair {i}: face is not free ({len(cofaces[fq])} cofaces)")
        for f in (fq, fp):
            faces.discard(f)
            for b in core.bits_of(f[1]):
                for facet in ((f[0], f[1] ^ b), (f[0] | b, f[1] ^ b)):
                    cofaces[facet].discard(f)
    if len(faces) != 1:
        raise IntegrityError(f"{len(faces)} faces remain after replay")
    (tag, sup), = faces
    if sup != 0 or (survivor is not None and tag != survivor):
        raise IntegrityError("replay did not end at the expected vertex")


def replay_message(replay, C, seq, survivor=None):
    try:
        replay(C, seq, survivor)
    except IntegrityError as exc:
        return str(exc)
    return None


def test_replay_by_lookups_raises_like_the_coface_sets():
    rng = random.Random(31)
    messages = set()
    for C in [C for C in collapse_cases() if C.size <= 64][::2]:
        seq, survivor = peeling._collapse_rec(C.support(), graph.cube_tags(C))
        bad = [list(reversed(seq)), seq + seq[-1:], [(p, q) for q, p in seq]]
        for _ in range(3):
            if len(seq) > 1:
                i, j = sorted(rng.sample(range(len(seq)), 2))
                swapped = list(seq)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                bad.append(swapped)
                bad.append(seq[:i] + seq[i + 1:])
                bad.append(seq[:j] + [seq[i]] + seq[j:])
        for s in [seq] + bad:
            for end in (None, survivor, survivor ^ 1):
                want = replay_message(replay_collapse_oracle, C, s, end)
                assert replay_message(peeling.replay_collapse, C, s, end) == want
                messages.add(want and want.split(": ")[-1].split(" (")[0])
    assert {None, "face is not free", "face already removed or absent",
            "not a facet/coface pair", "3 faces remain after replay",
            "replay did not end at the expected vertex"} <= messages


def test_replay_rejects_bad_sequence():
    Q2 = ConceptClass(2, range(4))
    seq, _ = peeling.collapse_sequence(Q2)
    with pytest.raises(IntegrityError):
        peeling.replay_collapse(Q2, list(reversed(seq)))
    with pytest.raises(IntegrityError):
        peeling.replay_collapse(Q2, seq[:-1])


# ---------------------------------------------------------------- shelling

def test_ordering_to_shelling_square():
    Q2 = ConceptClass(2, range(4))
    order = (0, 1, 3, 2)
    sh = peeling.ordering_to_shelling(Q2, order)
    assert len(sh.facets) == 4
    peeling.validate_shelling(sh)


def test_shelling_singleton():
    C = cc("01")
    sh = peeling.ordering_to_shelling(C, (bit(2),))
    assert sh.facets == (bit(2),)
    C2, order = peeling.shelling_to_ordering(sh)
    assert order == (bit(2),)


def test_shelling_round_trip_identity():
    for C in ample_classes(3, max_size=5):
        res = peeling.corner_peeling_search(C)
        order = res.ordering
        sh = peeling.ordering_to_shelling(C, order)
        peeling.validate_shelling(sh)
        C2, order2 = peeling.shelling_to_ordering(sh)
        assert C2.concepts == C.concepts
        assert tuple(order2) == tuple(order)


def test_shelling_validators_reject():
    Q2 = ConceptClass(2, range(4))
    with pytest.raises(OrderingValidationError) as exc:
        peeling.ordering_to_shelling(Q2, (0, 3, 1, 2))   # prefix {00,11}
    assert exc.value.index == 1
    with pytest.raises(OrderingValidationError):
        peeling.validate_shelling(peeling.ShellingOrder(2, (0, 3, 1, 2)))
    with pytest.raises(OrderingValidationError):
        peeling.validate_shelling(peeling.ShellingOrder(2, (0, 0)))


@pytest.mark.parametrize("facets, index", [((-1, -2), 0), ((0, 1, -1), 2),
                                           ((0, 4), 1)])
def test_shelling_rejects_facet_out_of_range(facets, index):
    # a negative facet is a validation error, not a DomainError raised later
    # by ConceptClass inside shelling_to_ordering
    sh = peeling.ShellingOrder(2, facets)
    for check in (peeling.validate_shelling, peeling.shelling_to_ordering):
        with pytest.raises(OrderingValidationError, match="facet out of range") as exc:
            check(sh)
        assert exc.value.index == index


@pytest.mark.parametrize("n, facets", [(25, (0, 1 << 24)), (-1, (0,)), (25, ("x",))])
def test_shelling_refuses_a_width_outside_the_domain_before_any_facet(n, facets):
    # at n = 25 the two facets are adjacent in coordinate 25; a facet "x"
    # would raise TypeError if it were read
    with pytest.raises(DomainError) as want:
        ConceptClass(n, (0,))
    sh = peeling.ShellingOrder(n, facets)
    for check in (peeling.validate_shelling, peeling.shelling_to_ordering):
        with pytest.raises(DomainError) as got:
            check(sh)
        assert str(got.value) == str(want.value) == f"domain width {n} outside 0..24"


def test_shelling_accepts_the_widest_domain():
    sh = peeling.ShellingOrder(24, (0, 1 << 23))
    peeling.validate_shelling(sh)
    assert peeling.shelling_to_ordering(sh)[1] == (0, 1 << 23)


def test_shelling_agrees_with_isometric_classifier():
    # an ordering maps to a valid partial shelling iff it is isometric
    for C in ample_classes(2):
        for perm in itertools.permutations(C.concepts):
            rep = peeling.classify_ordering(C, perm)
            try:
                sh = peeling.ordering_to_shelling(C, perm)
                peeling.validate_shelling(sh)
                ok = True
            except OrderingValidationError:
                ok = False
            assert ok == rep.isometric
