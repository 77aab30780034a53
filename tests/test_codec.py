"""The bitstring codec and the class file loop against the former
per-character code, kept here as the reference."""
import random

import pytest

from amplekit import core
from amplekit.errors import ParseError


def to_string_reference(c, n):
    return "".join("1" if c >> i & 1 else "0" for i in range(n))


def from_string_reference(s):
    c = 0
    for i, ch in enumerate(s):
        if ch == "1":
            c |= 1 << i
        elif ch != "0":
            raise ParseError(f"invalid character {ch!r} in concept string {s!r}")
    return c


def parse_class_reference(text):
    n = None
    seen = {}
    concepts = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            if not line.startswith("n="):
                raise ParseError("expected header 'n=<int>'", line=lineno)
            try:
                n = int(line[2:])
            except ValueError:
                raise ParseError(f"bad width {line[2:]!r}", line=lineno) from None
            if not 1 <= n <= core.MAX_WIDTH:
                raise ParseError(f"width {n} outside 1..{core.MAX_WIDTH}", line=lineno)
            continue
        if len(line) != n:
            raise ParseError(f"concept {line!r} has width {len(line)}, expected {n}", line=lineno)
        try:
            c = from_string_reference(line)
        except ParseError as e:
            raise ParseError(str(e), line=lineno) from None
        if c in seen:
            raise ParseError(f"duplicate concept {line!r} (first at line {seen[c]})", line=lineno)
        seen[c] = lineno
        concepts.append(c)
    if n is None:
        raise ParseError("empty file: missing 'n=' header")
    if not concepts:
        raise ParseError("class file contains no concepts")
    return n, tuple(concepts)


def outcome(f, *args):
    """f's value, or the text of the ParseError it raises."""
    try:
        return f(*args)
    except ParseError as e:
        return ("ParseError", str(e))


def all_strings(width):
    for n in range(width + 1):
        for c in range(1 << n):
            yield to_string_reference(c, n)


def test_every_string_up_to_width_10():
    for s in all_strings(10):
        c = core.concept_from_string(s)
        assert c == from_string_reference(s)
        assert core.concept_to_string(c, len(s)) == s


def test_every_mask_up_to_width_10_and_above_2_to_the_n():
    for n in range(11):
        for c in range(1 << (n + 2)):
            assert core.concept_to_string(c, n) == to_string_reference(c, n)


def test_seeded_widths_up_to_24():
    rng = random.Random(24)
    for n in range(25):
        for _ in range(200):
            c = rng.randrange(1 << (n + 3))
            s = to_string_reference(c, n)
            assert core.concept_to_string(c, n) == s
            assert core.concept_from_string(s) == from_string_reference(s)


def test_empty_string_and_width_0():
    assert core.concept_from_string("") == 0
    assert core.concept_to_string(0, 0) == ""
    assert core.concept_to_string(5, 0) == ""
    assert core.concept_to_string(1 << 24, 24) == "0" * 24
    assert core.concept_to_string((1 << 25) - 1, 24) == "1" * 24


@pytest.mark.parametrize("s", ["01x1", "0_1", "+01", " 01", "０1", "01 ", "-1", "1.0",
                               "0b1", "2", "٠1", "x"])
def test_rejected_strings_name_the_first_bad_character(s):
    expected = outcome(from_string_reference, s)
    assert expected[0] == "ParseError"
    assert outcome(core.concept_from_string, s) == expected


CLASS_TEXTS = [
    "n=3\n000\n100\n010\n",
    "# comment\n\nn=2\n  10 \n# another\n01\n",
    "n=4\r\n0000\r\n1111\r\n",
    "n=3\n000\n01x\n",
    "n=3\n000\n0_1\n",
    "n=3\n000\n+01\n",
    "n=2\n０1\n",
    "n=3\n000\n00\n",
    "n=3\n000\n100\n000\n",
    "n=3\n000\n100\n\n100\n",
    "n=x\n000\n",
    "n=0\n",
    "n=25\n",
    "000\n",
    "",
    "# only a comment\n",
    "n=3\n# no concepts\n",
    "n=24\n" + "0" * 24 + "\n" + "1" * 24 + "\n",
]


@pytest.mark.parametrize("text", CLASS_TEXTS)
def test_class_file_loop_matches_reference(text):
    assert outcome(core._parse_class, text) == outcome(parse_class_reference, text)


def test_class_file_loop_on_seeded_files():
    rng = random.Random(7)
    for n in (1, 5, 12, 24):
        concepts = rng.sample(range(1 << n), min(1 << n, 300))
        lines = [f"n={n}", *(to_string_reference(c, n) for c in concepts)]
        text = "\n".join(lines) + "\n"
        assert core._parse_class(text) == parse_class_reference(text) == (n, tuple(concepts))
        # a repeated concept, and a stray character, at a seeded line
        i = rng.randrange(1, len(lines))
        for bad in (lines[i], lines[i][:-1] + "2"):
            text = "\n".join(lines + [bad]) + "\n"
            assert outcome(core._parse_class, text) == outcome(parse_class_reference, text)
