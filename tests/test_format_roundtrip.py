"""Round trips through the three text formats: class files, representation
map files and samples.  Derandomized and without an example database, as in
test_cli_fuzz.py, so the run is the same every time."""
import tempfile

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from amplekit import core
from amplekit.compress import Sample, format_sample, parse_sample
from amplekit.errors import ParseError
from amplekit.generate import hamming_ball

_STORAGE = tempfile.TemporaryDirectory(prefix="amplekit-hypothesis-")
set_hypothesis_home_dir(_STORAGE.name)

ROUND_TRIP = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@st.composite
def classes(draw):
    """Any class of width 0..10; no class file holds width 0."""
    n = draw(st.integers(0, 10))
    concepts = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=40))
    return core.ConceptClass(n, tuple(concepts))


@st.composite
def maps(draw):
    """(map, width): any map of width 0..MAX_WIDTH + 2 with at most 40
    entries, its concepts and images drawn below 2^n or, in half the maps,
    below 2^(n+2), so that some fall outside the domain."""
    n = draw(st.integers(0, core.MAX_WIDTH + 2))
    masks = st.integers(0, (1 << (n + 2 * draw(st.booleans()))) - 1)
    return draw(st.dictionaries(masks, masks, max_size=40)), n


@st.composite
def samples(draw):
    n = draw(st.integers(1, core.MAX_WIDTH))
    dom = draw(st.integers(0, (1 << n) - 1))
    return Sample(dom, dom & draw(st.integers(0, (1 << n) - 1))), n


@ROUND_TRIP
@given(classes(), st.randoms(use_true_random=False))
def test_class_text_round_trip(C, rnd):
    # the writer refuses exactly what its reader would refuse
    if C.n == 0:
        with pytest.raises(ParseError, match="width 0 outside 1..24"):
            core.format_class(C)
        return
    text = core.format_class(C)
    assert core.parse_class_text(text) == C
    # concept order, blank lines and comments do not change the class
    lines = C.strings()
    rnd.shuffle(lines)
    noisy = f"# a class\nn={C.n}\n\n" + "\n".join(lines) + "\n# end\n"
    assert core.format_class(core.parse_class_text(noisy)) == text


@ROUND_TRIP
@given(maps())
def test_repmap_text_round_trip(case):
    r, n = case
    writable = 1 <= n <= core.MAX_WIDTH and r and all(
        c < 1 << n and v < 1 << n for c, v in r.items())
    if not writable:
        # text of such a map would not read back, or would read back as
        # another map
        with pytest.raises(ParseError):
            core.format_repmap(r, n)
        return
    text = core.format_repmap(r, n)
    assert core.parse_repmap_text(text, n) == r
    assert core._parse_repmap(text) == (r, n)       # width inferred
    assert core.format_repmap(core.parse_repmap_text(text), n) == text


def test_a_class_file_is_not_written_for_a_class_it_cannot_hold(tmp_path):
    path = tmp_path / "c.txt"
    with pytest.raises(ParseError, match="width 0 outside 1..24"):
        core.write_class_file(str(path), core.restrict(hamming_ball(3, 1), 0))
    assert not path.exists()


@ROUND_TRIP
@given(samples())
def test_sample_text_round_trip(case):
    s, n = case
    text = format_sample(s)
    assert parse_sample(text, n) == s
    assert format_sample(parse_sample(text)) == text
