import json
import os
import subprocess
import sys
from typing import Optional

import pytest

from amplekit import core
from amplekit.core import ConceptClass, Cube, bit, mask_of
from amplekit.errors import DomainError, EmptyClassError, ParseError

from classes import all_classes, ample_classes, cc, submasks


# ---------------------------------------------------------------- oracles

def restrict_oracle(C, Y):
    """Set of projections c & Y, as raw masks on the original coordinates."""
    return {c & Y for c in C}


def reduce_oracle(C, Y):
    """Tags of Y-cubes fully contained in C, raw masks."""
    s = C.concept_set
    return {c & ~Y for c in C if all(((c & ~Y) | sub) in s for sub in submasks(Y))}


def raw_masks(C, kept):
    """Translate a class re-indexed onto the coordinates of kept back to
    masks over the original coordinates: local coordinate i is the i-th
    coordinate of coords(kept)."""
    out = set()
    for c in C:
        m = 0
        for i, x in enumerate(core.coords(kept), start=1):
            if c & bit(i):
                m |= bit(x)
        out.add(m)
    return out


# ---------------------------------------------------------------- concepts

def test_concept_string_round_trip():
    assert core.concept_to_string(core.concept_from_string("0110"), 4) == "0110"
    assert core.concept_from_string("100") == bit(1)
    assert core.concept_from_string("001") == bit(3)


def test_class_is_canonical():
    a = ConceptClass(2, [3, 0, 1])
    b = ConceptClass(2, [0, 1, 3, 3])
    assert a == b
    assert list(a) == [0, 1, 3]


def test_an_empty_class_is_refused():
    with pytest.raises(EmptyClassError):
        ConceptClass.from_strings([])
    with pytest.raises(EmptyClassError):
        ConceptClass(3, [])


def test_domain_cap():
    with pytest.raises(DomainError):
        ConceptClass(25, [0])
    with pytest.raises(DomainError):
        ConceptClass(2, [4])


# ---------------------------------------------------------------- domain rule

# Every entry that takes a coordinate set, given one with coordinate n + 1 or
# a negative mask: expression -> (error class, message).  B is B(3,1) with
# its built map r, so n = 3; Sample, Cube and coords carry no width and are
# checked against MAX_WIDTH = 24.  The message names the least coordinate
# above n: 4 in 24 = {4,5} and in -24, whose coordinates above 3 are 4, 6,
# 7, ...  bit and mask_of take coordinates, not a set, and are given 0, a
# negative one and 25, each named as it is.
N1 = "coordinate 4 outside 1..3"
W1 = "coordinate 25 outside 1..24"
DOMAIN_CASES = {
    "core.restrict(B, 8)": ("DomainError", N1),
    "core.restrict(B, -1)": ("DomainError", N1),
    "core.restrict(B, 24)": ("DomainError", N1),
    "core.restrict(B, -24)": ("DomainError", N1),
    "core.drop(B, 8)": ("DomainError", N1),
    "core.drop(B, -1)": ("DomainError", N1),
    "core.reduce(B, 8)": ("DomainError", N1),
    "core.reduce(B, -1)": ("DomainError", N1),
    "core.twist(B, 8)": ("DomainError", N1),
    "core.twist(B, -1)": ("DomainError", N1),
    "repmap.sub_repmap_reduction(B, r, 8)": ("DomainError", N1),
    "repmap.sub_repmap_reduction(B, r, -1)": ("DomainError", N1),
    "repmap.sub_repmap_restriction(B, r, 8)": ("DomainError", N1),
    "repmap.sub_repmap_restriction(B, r, -1)": ("DomainError", N1),
    "core.intersect_cube(B, Cube(0, 8))": ("DomainError", N1),
    "repmap.sub_repmap_cube(B, r, Cube(0, 8))": ("DomainError", N1),
    "ConceptClass(3, (0, 8))": ("DomainError", N1),
    "ConceptClass(3, (-1, 0))": ("DomainError", N1),
    "shatter.forbidden_labels(B, 8)": ("ContractError", N1),
    "shatter.forbidden_labels(B, -1)": ("ContractError", N1),
    "generate.simplicial_class(3, [1, 8])": ("ContractError", N1),
    "generate.simplicial_class(3, [-1])": ("ContractError", N1),
    "core._check_total(B, {**r, 0: 8})": ("ContractError", N1),
    "core._check_total(B, {**r, 0: -1})": ("ContractError", N1),
    "CompressionScheme(B, r).compress(Sample(1 << 5, 0))":
        ("ContractError", "coordinate 6 outside 1..3"),
    "compress.reconstruct_unique(B, r, Sample(1 | 1 << 7, 1))":
        ("ContractError", "coordinate 8 outside 1..3"),
    "CompressionScheme(B, r).decompress(8)": ("DecodeError", N1),
    "CompressionScheme(B, r).decompress(-1)": ("DecodeError", N1),
    "core.coords(1 << 24)": ("DomainError", W1),
    "core.coords(-1)": ("DomainError", W1),
    "Sample(1 << 24, 0)": ("ContractError", W1),
    "Sample(-1, 0)": ("ContractError", W1),
    "Cube(1 << 24, 0)": ("DomainError", W1),
    "Cube(0, -1)": ("DomainError", W1),
    "core.bit(0)": ("DomainError", "coordinate 0 outside 1..24"),
    "core.bit(25)": ("DomainError", W1),
    "core.mask_of([0])": ("DomainError", "coordinate 0 outside 1..24"),
    "core.mask_of([-3])": ("DomainError", "coordinate -3 outside 1..24"),
    "core.mask_of([25])": ("DomainError", W1),
}

# evaluates each expression of argv in turn and prints [error class, message],
# with its address space capped so that a runaway loop ends in MemoryError
DOMAIN_RUN = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))
from amplekit import compress, core, generate, repmap, shatter
from amplekit.compress import CompressionScheme, Sample
from amplekit.core import ConceptClass, Cube
B = generate.hamming_ball(3, 1)
r = repmap.build_maximum_repmap(B)
for expr in sys.argv[1:]:
    try:
        eval(expr)
        print(json.dumps(["no error", ""]), flush=True)
    except Exception as exc:
        print(json.dumps([type(exc).__name__, str(exc)]), flush=True)
"""


def test_every_entry_refuses_a_coordinate_outside_1_to_n():
    """A negative mask, iterated bit by bit, never empties, so the cases
    run in a child where a runaway loop fails the test instead of stalling
    the run."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    try:
        proc = subprocess.run([sys.executable, "-c", DOMAIN_RUN, *DOMAIN_CASES],
                              capture_output=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
    except subprocess.TimeoutExpired as exc:
        done = (exc.stdout or b"").count(b"\n")
        pytest.fail(f"{list(DOMAIN_CASES)[done]} did not return within 60 s")
    assert proc.returncode == 0, proc.stderr
    got = dict(zip(DOMAIN_CASES, map(tuple, map(json.loads, proc.stdout.splitlines()))))
    assert got == DOMAIN_CASES


# ---------------------------------------------------------------- restrict

def test_restrict_full_cube_to_one_coord():
    C = cc("00", "01", "10", "11")
    R = core.restrict(C, bit(1))
    assert R.n == 1 and set(R) == {0, 1}


def test_restrict_identity_on_full_domain():
    C = cc("00", "01", "10")
    assert core.restrict(C, mask_of([1, 2])) == C


def test_restrict_projection():
    C = cc("000", "001", "010", "100")
    R = core.restrict(C, mask_of([2, 3]))
    assert raw_masks(R, mask_of([2, 3])) == restrict_oracle(C, mask_of([2, 3]))
    assert set(R.strings()) == {"00", "01", "10"}


def test_restrict_composition_and_size():
    # |C|Y| <= |C| and (C|Y)|Z = C|(Y∩Z), checked on raw-mask projections
    C = ConceptClass(3, [0, 1, 3, 5, 7])
    for Y in range(8):
        for Z in range(8):
            a = {c & Y & Z for c in C}
            b = {c & Z for c in {c & Y for c in C}}
            assert a == b
        assert len(restrict_oracle(C, Y)) <= C.size


def test_restrict_domain_error():
    with pytest.raises(DomainError):
        core.restrict(cc("00"), bit(3))


# ---------------------------------------------------------------- drop

def test_drop_examples():
    Q3 = ConceptClass(3, range(8))
    assert core.drop(Q3, bit(3)) == ConceptClass(2, range(4))
    D = core.drop(cc("00", "01", "10"), bit(2))
    assert D.n == 1 and set(D) == {0, 1}
    C = cc("00", "01", "10")
    assert core.drop(C, 0) == C


# ---------------------------------------------------------------- reduce

def test_reduce_full_cube():
    Q2 = ConceptClass(2, range(4))
    R = core.reduce(Q2, bit(1))
    assert R.n == 1 and set(R) == {0, 1}


def test_reduce_single_edge():
    C = cc("00", "01", "10")
    R = core.reduce(C, bit(1))
    assert R.n == 1 and set(R) == {0}
    assert reduce_oracle(C, bit(1)) == {0}


def test_reduce_empty():
    assert core.reduce(cc("00", "01", "10"), mask_of([1, 2])) is None


def test_reduce_matches_oracle_exhaustive_n3():
    for C in all_classes(3):
        for Y in range(1, 8):
            R = core.reduce(C, Y)
            got = raw_masks(R, 7 & ~Y) if R is not None else set()
            assert got == reduce_oracle(C, Y)


def test_restrict_drop_and_tail_match_their_definitions_exhaustive_n3():
    """Every class with n ≤ 3, every Y and x: C|Y is the projections c & Y,
    C_Y those on X \\ Y, and tail_x(C) is C_x \\ C^x, each re-indexed."""
    for n in range(4):
        X = core.full_mask(n)
        for C in all_classes(n):
            for Y in range(1 << n):
                R, D = core.restrict(C, Y), core.drop(C, Y)
                assert R.n == core.popcount(Y) and raw_masks(R, Y) == {c & Y for c in C}
                assert D.n == n - core.popcount(Y)
                assert raw_masks(D, X & ~Y) == {c & ~Y for c in C}
            for x in range(1, n + 1):
                b = bit(x)
                want = {c & ~b for c in C} - reduce_oracle(C, b)
                T = core.tail(C, x)
                got = raw_masks(T, X & ~b) if T is not None else set()
                assert got == want and (T is None or T.n == n - 1)


# ------------------------------------------------- complement/twist/product

def test_complement():
    assert core.complement(cc("00", "01", "10")) == cc("11")
    with pytest.raises(EmptyClassError):
        core.complement(ConceptClass(2, range(4)))
    C = cc("000", "011", "110")
    assert core.complement(core.complement(C)) == C


def test_twist():
    C = cc("00", "01", "10")
    T = core.twist(C, mask_of([1, 2]))
    assert set(T.strings()) == {"11", "10", "01"}
    assert core.twist(T, mask_of([1, 2])) == C


def test_product():
    Q1 = ConceptClass(1, [0, 1])
    P = core.product(Q1, Q1)
    assert P == ConceptClass(2, range(4))


def test_product_refuses_a_wide_domain_by_the_class_width_rule():
    # the product once raised its own "product domain width 25 exceeds 24"
    with pytest.raises(DomainError) as got:
        core.product(ConceptClass(12, (0,)), ConceptClass(13, (0,)))
    assert str(got.value) == "domain width 25 outside 0..24"
    assert core.product(ConceptClass(12, (0,)), ConceptClass(12, (1,))).n == 24


# ---------------------------------------------------------------- carrier/tail

def carrier(C: ConceptClass, x: int) -> Optional[ConceptClass]:
    """N_x(C): union of all cubes of C having x in their support."""
    if not 1 <= x <= C.n:
        raise DomainError(f"coordinate {x} outside domain")
    b = bit(x)
    s = C.concept_set
    cs = tuple(c for c in C if c ^ b in s)
    if not cs:
        return None
    return ConceptClass(C.n, cs)


def test_carrier_full_cube():
    Q2 = ConceptClass(2, range(4))
    assert carrier(Q2, 1) == Q2
    assert core.tail(Q2, 1) is None


def test_tail_example():
    T = core.tail(cc("00", "01", "10"), 1)
    assert T.n == 1 and set(T) == {1}


def test_partition_identity():
    # C = 0C^x ∪ 1C^x ∪ (tail concepts with their unique x-bit), raw masks
    for C in all_classes(3):
        for x in (1, 2, 3):
            xb = bit(x)
            tags = reduce_oracle(C, xb)
            carrier = {t for tag in tags for t in (tag, tag | xb)}
            tails = {c for c in C if (c ^ xb) not in C.concept_set}
            assert carrier | tails == C.concept_set
            assert not (carrier & tails)


def test_reduce_drop_commute_on_ample():
    # (C^Y)_Z = (C_Z)^Y for disjoint Y, Z when C is ample
    for C in ample_classes(3):
        for Y in range(1, 8):
            Z = (~Y) & 7
            a = reduce_oracle(C, Y)
            a = {c & ~Z for c in a}
            dropped = {c & ~Z for c in C}
            b = reduce_oracle(ConceptClass(3, dropped), Y)
            assert a == b


# ---------------------------------------------------------------- cubes

def test_cube_vertices_and_containment():
    B = Cube(tag=0, support=mask_of([1, 2]))
    assert sorted(B.vertices()) == [0, 1, 2, 3]
    assert B.dim == 2
    assert B.contains_cube(Cube(tag=1, support=bit(2)))
    assert not B.contains_cube(Cube(tag=4, support=bit(1)))
    with pytest.raises(Exception):
        Cube(tag=1, support=bit(1))   # tag overlaps support


def test_interval():
    B = core.interval(core.concept_from_string("010"),
                      core.concept_from_string("111"))
    assert B.tag == core.concept_from_string("010")
    assert B.support == mask_of([1, 3])


# ---------------------------------------------------------------- files

# concepts sorted ascending as integers; 01 has only coordinate 2 set (=2)
CANONICAL = "n=2\n00\n10\n01\n"


def test_class_file_round_trip(tmp_path):
    C = cc("00", "01", "10")
    p = tmp_path / "c.txt"
    core.write_class_file(str(p), C)
    assert core.read_class_file(str(p)) == C
    assert p.read_text() == CANONICAL


@pytest.mark.parametrize("header", ["n=+1_0", "n=1_0", "n=٣", "n=-3", "n=", "n=3.0", "n=0x3"])
def test_class_header_width_takes_only_ascii_digits(header):
    with pytest.raises(ParseError, match="bad width"):
        core.parse_class_text(f"{header}\n000\n")


def test_parse_decimal():
    assert core.parse_decimal(" 12 ") == 12
    assert core.parse_decimal("007") == 7
    for s in ("", " ", "+1", "-1", "1_0", "١٢", "٩", "1.0", "²", "0b1"):
        with pytest.raises(ValueError):
            core.parse_decimal(s)


def test_parse_errors():
    with pytest.raises(ParseError):
        core.parse_class_text("")
    with pytest.raises(ParseError):
        core.parse_class_text("n=2\n0\n")
    with pytest.raises(ParseError):
        core.parse_class_text("n=2\n00\n00\n")
    with pytest.raises(ParseError):
        core.parse_class_text("n=2\n02\n")
    C = core.parse_class_text("# comment\nn=2\n# another\n10\n")
    assert C == cc("10")
