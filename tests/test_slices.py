"""The slice formula for the strongly shattered complex.

Split a class C on its top coordinate x into the slices s0 (concepts
without x) and s1 (concepts with x, x removed).  The cubes of C that do not
use x are the cubes of s0 and of s1, and those that use x are the cubes of
s0 ∩ s1 with x added, so

    st(C) = st(s0) ∪ st(s1) ∪ {Y ∪ {x} : Y ∈ st(s0 ∩ s1)}.

With a class on n coordinates written as the bitset of its concepts, and
st(C) as the bitset of its coordinate sets, this is a recursion from n = 0
over tables of every class, `classes.ST`.  The tables are checked against
`graph.cube_tags`, an independent computation of X(C).  By the sandwich
lemma C is ample iff |st(C)| = |C|, and an ample C has c as a corner iff
C \\ {c} is ample; both are checked on seeded 5-classes against the library.
"""
import random

from amplekit import graph, shatter

from classes import ST, all_classes, class_of


def st5(m):
    """st of the 5-class with concept bitset m, from its two slices."""
    s0, s1 = m & 0xFFFF, m >> 16
    return ST[4][s0] | ST[4][s1] | ST[4][s0 & s1] << 16


def is_ample5(m):
    return st5(m).bit_count() == m.bit_count()


def test_the_tables_match_cube_tags_on_every_class_up_to_n_4():
    for n in range(5):
        for m, C in enumerate(all_classes(n), 1):
            assert ST[n][m] == sum(1 << Y for Y in graph.cube_tags(C)), (n, m)
    assert ST[4][0] == 0


def test_ampleness_and_corners_of_seeded_5_classes():
    rng = random.Random(5)
    ample4 = [m for m in range(1 << 16) if ST[4][m].bit_count() == m.bit_count()]
    # uniform classes are almost never ample, so half are glued from two
    # ample-or-empty slices
    masks = [rng.randrange(1, 1 << 32) for _ in range(2000)]
    masks += [m for m in (rng.choice(ample4) | rng.choice(ample4) << 16
                          for _ in range(4000)) if m]
    ample = 0
    for m in masks:
        C = class_of(5, m)
        assert is_ample5(m) == shatter.is_ample(C)[0], m
        if is_ample5(m):
            ample += 1
            for c in C:
                assert graph.is_corner(C, c) == is_ample5(m & ~(1 << c)), (m, c)
    assert ample > 300
