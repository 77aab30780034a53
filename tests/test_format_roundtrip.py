"""Round trips through the three text formats: class files, representation
map files and samples.  Derandomized and without an example database, as in
test_cli_fuzz.py, so the run is the same every time."""
import tempfile

from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from amplekit import core
from amplekit.compress import Sample, format_sample, parse_sample

_STORAGE = tempfile.TemporaryDirectory(prefix="amplekit-hypothesis-")
set_hypothesis_home_dir(_STORAGE.name)

ROUND_TRIP = settings(derandomize=True, database=None, max_examples=150, deadline=None)

widths = st.integers(1, 10)


@st.composite
def classes(draw):
    n = draw(widths)
    concepts = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=40))
    return core.ConceptClass(n, tuple(concepts))


@st.composite
def maps(draw):
    """(map, width): any map from distinct concepts to coordinate sets."""
    n = draw(widths)
    masks = st.integers(0, (1 << n) - 1)
    return draw(st.dictionaries(masks, masks, min_size=1, max_size=40)), n


@st.composite
def samples(draw):
    n = draw(st.integers(1, core.MAX_WIDTH))
    dom = draw(st.integers(0, (1 << n) - 1))
    return Sample(dom, dom & draw(st.integers(0, (1 << n) - 1))), n


@ROUND_TRIP
@given(classes(), st.randoms(use_true_random=False))
def test_class_text_round_trip(C, rnd):
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
    text = core.format_repmap(r, n)
    assert core.parse_repmap_text(text, n) == r
    assert core._parse_repmap(text) == (r, n)       # width inferred
    assert core.format_repmap(core.parse_repmap_text(text), n) == text


@ROUND_TRIP
@given(samples())
def test_sample_text_round_trip(case):
    s, n = case
    text = format_sample(s)
    assert parse_sample(text, n) == s
    assert format_sample(parse_sample(text)) == text
