"""Fuzz the CLI's exit-code contract: 0 ok, 1 check failed, 2 usage or parse
error, and never a traceback.  Derandomized, with no example database and
Hypothesis's storage (its constants cache) kept in a temporary directory, so
the run is the same every time and leaves nothing in the checkout."""
import contextlib
import io
import tempfile

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from amplekit import cli, core, generate, repmap

# Hypothesis caches the constants it finds in local modules under its storage
# directory (./.hypothesis by default) while collecting, even with
# database=None; keep that in a directory removed when the interpreter exits.
_STORAGE = tempfile.TemporaryDirectory(prefix="amplekit-hypothesis-")
set_hypothesis_home_dir(_STORAGE.name)

FUZZ = settings(derandomize=True, database=None, max_examples=120, deadline=None)

C = generate.hamming_ball(3, 1)
GOOD = repmap.format_repmap(repmap.build_maximum_repmap(C), C.n)

bitstrings = st.sampled_from((3, 3, 3, 0, 2, 4)).flatmap(
    lambda w: st.text("01", min_size=w, max_size=w))
lines = st.one_of(
    st.builds(lambda a, b: f"{a} -> {b}", bitstrings, bitstrings),
    st.text("01 ->#x\t", max_size=12))
# well-formed maps on the class's own concepts: total, valid or not
class_maps = st.lists(st.integers(0, 7), min_size=C.size, max_size=C.size).map(
    lambda images: repmap.format_repmap(dict(zip(C.concepts, images)), C.n))
repmap_texts = st.one_of(st.just(GOOD), class_maps,
                         st.lists(lines, max_size=8).map("\n".join))
samples = st.one_of(
    st.lists(st.tuples(st.integers(-1, 5), st.integers(-1, 2)), max_size=4).map(
        lambda kv: ",".join(f"x{k}={v}" for k, v in kv)),
    st.text("x0123456789=,- ", max_size=15))
sets = st.one_of(
    st.lists(st.integers(-1, 5), max_size=4).map(
        lambda xs: "{" + ",".join(map(str, xs)) + "}"),
    st.text("{}0123456789,- a", max_size=10))


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    cls = d / "ball.txt"
    core.write_class_file(str(cls), C)
    return str(cls), d / "map.rep"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:      # argparse's own usage errors
            code = exc.code
    return code, err.getvalue()


def assert_contract(argv):
    code, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err


@FUZZ
@given(text=repmap_texts)
def test_fuzz_repmap_verify(paths, text):
    cls, rep = paths
    rep.write_text(text, encoding="utf-8")
    assert_contract(["repmap", "verify", cls, "--repmap", str(rep)])


@FUZZ
@given(text=repmap_texts, sample=samples)
def test_fuzz_compress(paths, text, sample):
    cls, rep = paths
    rep.write_text(text, encoding="utf-8")
    assert_contract(["compress", cls, "--repmap", str(rep), f"--sample={sample}"])


@FUZZ
@given(text=repmap_texts, alpha=sets)
def test_fuzz_decompress(paths, text, alpha):
    _, rep = paths
    rep.write_text(text, encoding="utf-8")
    assert_contract(["decompress", "--repmap", str(rep), f"--set={alpha}"])
