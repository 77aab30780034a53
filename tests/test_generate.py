import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from amplekit import core, generate, graph, peeling, shatter
from amplekit.core import ConceptClass, mask_of
from amplekit.errors import ContractError, DomainError

from classes import is_isometric_oracle
from downsets import random_downset_class

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_cube():
    assert generate.cube_class(2) == ConceptClass(2, range(4))


def test_hamming_ball_small():
    C = generate.hamming_ball(3, 1)
    assert set(C.strings()) == {"000", "100", "010", "001"}
    assert shatter.is_maximum(C)
    assert C.size == shatter.phi(1, 3) == 4


def test_hamming_ball_is_maximum():
    for n in range(1, 9):
        for d in range(0, n + 1):
            C = generate.hamming_ball(n, d)
            assert C.size == shatter.phi(d, n)
            assert shatter.vc_dim(C) == d
            assert shatter.is_maximum(C)
    with pytest.raises(ContractError):
        generate.hamming_ball(3, -1)


def test_hamming_ball_matches_the_weight_scan():
    for n in range(11):
        for d in range(n + 1):
            scan = ConceptClass(n, tuple(c for c in range(1 << n) if bin(c).count("1") <= d))
            C = generate.hamming_ball(n, d)
            assert C == scan
            assert C.strings() == scan.strings()
    C = generate.hamming_ball(24, 3)
    assert C.size == shatter.phi(3, 24) == 2325
    assert max(C.concepts) == 0b111 << 21


def test_simplicial_bouquet():
    C = generate.simplicial_class(2, [mask_of([1, 2])])
    assert C == ConceptClass(2, range(4))
    # faces become the characteristic vectors; class is ample with complex = input
    facets = [mask_of([1, 2]), mask_of([3])]
    C = generate.simplicial_class(3, facets)
    assert 0 in C.concept_set
    assert shatter.is_ample(C)[0]
    assert shatter.shattered_complex(C).members == C.concept_set


def simplicial_submask_oracle(n, facets):
    """Every submask of every facet, with the empty set."""
    members = {0}
    for f in facets:
        sub = f
        while sub:
            members.add(sub)
            sub = (sub - 1) & f
    return ConceptClass(n, tuple(members))


def test_simplicial_class_matches_the_submask_oracle():
    rng = random.Random(4)
    for _ in range(150):
        n = rng.randint(1, 8)
        facets = [rng.randrange(1 << n) for _ in range(rng.randint(0, 4))]
        assert generate.simplicial_class(n, facets) == simplicial_submask_oracle(n, facets)
    assert generate.simplicial_class(5, []).concepts == (0,)
    with pytest.raises(ContractError):
        generate.simplicial_class(3, [mask_of([1]), mask_of([4])])


def test_random_ample_is_ample_and_seeded():
    for seed in range(15):
        C = generate.random_ample(5, 14, seed=seed)
        assert shatter.is_ample(C)[0]
        assert is_isometric_oracle(C, "full")
        assert C == generate.random_ample(5, 14, seed=seed)
    assert generate.random_ample(5, 14, seed=0) != generate.random_ample(5, 14, seed=1)


@pytest.mark.parametrize("seed, digest", [
    # sha256 of `amplekit --seed S generate --kind random_ample --n 10 --size 120`
    # recorded by perfbench/digests.json before isometry was tested locally
    (0, "060e96396062f32571ebc1126a9d67ec82aa27887e264474f4a9df3e6773b90f"),
    (1, "2b4f4f7e43cd02d30e105227e54208bb7f22a04393ac69b058450b91d1f0ae15"),
])
def test_random_ample_pinned_digests(seed, digest):
    text = core.format_class(generate.random_ample(10, 120, seed))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def random_ample_rebuilt_frontier(n, size, seed, max_dim=None):
    """random_ample as it was written before its frontier was kept up to
    date: the frontier rebuilt from every chosen concept at every step."""
    rng = random.Random(seed)
    start = rng.randrange(1 << n)
    chosen = [start]
    cset = {start}
    while len(chosen) < size:
        frontier = sorted({c ^ b for c in chosen for b in core.bits_of(core.full_mask(n))
                           if c ^ b not in cset})
        rng.shuffle(frontier)
        placed = False
        for t in frontier:
            if not graph.extends_isometric(cset, t, n):
                continue
            if max_dim is not None and max(map(core.popcount, graph._local_supports(
                    cset, t, graph._neighbour_dirs(cset, t, n)))) > max_dim:
                continue
            chosen.append(t)
            cset.add(t)
            placed = True
            break
        if not placed:
            break
    return ConceptClass(n, tuple(chosen))


@pytest.mark.parametrize("max_dim", [None, 1, 2, 3])
def test_random_ample_matches_the_rebuilt_frontier(max_dim):
    for n in range(4, 11):
        for size in sorted({3, 1 << (n - 2), min(1 << n, 90)}):
            for seed in range(3):
                C = generate.random_ample(n, size, seed, max_dim=max_dim)
                assert C.concepts == random_ample_rebuilt_frontier(n, size, seed, max_dim).concepts
                assert C.size <= size


def test_random_ample_dim_cap():
    for seed in range(10):
        C = generate.random_ample(6, 20, seed=seed, max_dim=2)
        assert shatter.vc_dim(C) <= 2
        assert shatter.is_ample(C)[0]


def random_ample_vc_dim_oracle(n, size, seed, max_dim):
    """random_ample with the dimension cap tested by rebuilding each
    candidate class and taking its VC dimension."""
    rng = random.Random(seed)
    start = rng.randrange(1 << n)
    chosen = [start]
    cset = {start}
    while len(chosen) < size:
        frontier = sorted({c ^ 1 << i for c in chosen for i in range(n)} - cset)
        rng.shuffle(frontier)
        for t in frontier:
            if (graph.extends_isometric(cset, t, n)
                    and shatter.vc_dim(ConceptClass(n, (*chosen, t))) <= max_dim):
                chosen.append(t)
                cset.add(t)
                break
        else:
            break
    return ConceptClass(n, tuple(chosen))


@pytest.mark.parametrize("max_dim", [0, 1, 2, 3])
def test_random_ample_dim_cap_matches_vc_dim_oracle(max_dim):
    saturated = 0
    for n in (3, 4, 5, 6, 7):
        for seed in range(8):
            size = min(1 << n, 6 + 5 * seed)
            C = generate.random_ample(n, size, seed, max_dim=max_dim)
            assert C == random_ample_vc_dim_oracle(n, size, seed, max_dim)
            saturated += C.size < size
    # the cap stopped the growth early at least once
    assert saturated


def test_random_downset_is_conditional_antimatroid():
    for seed in range(15):
        C = random_downset_class(5, seed)
        # the three axioms that antimatroid_peeling checks
        order = peeling.antimatroid_peeling(C)
        assert peeling.classify_ordering(C, order).corner_peeling


def test_generate_dispatches_on_kind():
    assert generate.generate("hamming_ball", 4, 2, 0, 0, ()) == generate.hamming_ball(4, 2)
    assert generate.generate("cube", 2, 0, 0, 0, ()) == generate.cube_class(2)
    assert generate.generate("simplicial", 3, 0, 0, 0, (3,)) == \
        generate.simplicial_class(3, (3,))
    assert generate.generate("random_ample", 5, 0, 9, 4, ()) == \
        generate.random_ample(5, 9, 4)
    with pytest.raises(ContractError, match="unknown generator kind 'nope'"):
        generate.generate("nope", 3, 0, 0, 0, ())
    for n in (0, core.MAX_WIDTH + 1):
        with pytest.raises(DomainError, match=f"width {n} outside"):
            generate.generate("cube", n, 0, 0, 0, ())


@pytest.mark.parametrize("call", ["cube_class(25)", "hamming_ball(25, 12)",
                                  "simplicial_class(25, [2**25 - 1])",
                                  "random_ample(25, 2**24, 1)"])
def test_generators_refuse_a_width_past_24_before_they_enumerate(call):
    # each of these enumerated, or grew, into a MemoryError under 512 MB
    # before the width was read
    resource = pytest.importorskip("resource")
    limit = 512 << 20
    code = ("import time\n"
            "from amplekit import generate\n"
            "start = time.perf_counter()\n"
            "try:\n"
            f"    generate.{call}\n"
            "except Exception as e:\n"
            "    print(type(e).__name__, e, time.perf_counter() - start < 0.5)\n")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert (proc.stdout, proc.stderr) == ("DomainError domain width 25 outside 0..24 True\n", "")


def test_batch_row_and_csv():
    C = generate.hamming_ball(3, 1)
    row = generate.batch_row("ball.txt", C)
    assert row == {"file": "ball.txt", "n": 3, "size": 4, "vc_dim": 1, "shattered": 4,
                   "strongly_shattered": 4, "ample": 1, "maximum": 1}
    text = generate.batch_csv([row])
    lines = text.strip().splitlines()
    assert lines[0] == "file,n,size,vc_dim,shattered,strongly_shattered,ample,maximum"
    assert lines[1].startswith("ball.txt,3,4,1,")
