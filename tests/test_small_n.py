"""Every nonempty class on n = 4, enumerated by mask with no sampling,
against oracles that read the complexes off their definitions, with
neither `graph.cube_tags` nor the fibre walk."""
from math import comb

from amplekit import core, shatter
from amplekit.core import popcount

from classes import all_classes

N = 4


def test_recognition_matches_the_definitions_on_every_class_on_n4():
    seen = ample = 0
    for C in all_classes(N):
        # Y is shattered iff C|Y has all 2^|Y| patterns, and strongly
        # shattered iff C holds a Y-cube, that is iff C^Y is nonempty
        sh = {Y for Y in range(1 << N)
              if len({c & Y for c in C.concepts}) == 1 << popcount(Y)}
        st = {Y for Y in range(1 << N) if core.reduction_tags(C.concepts, Y)}
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
