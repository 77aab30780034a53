"""Fuzz the CLI's exit-code contract: 0 ok, 1 check failed, 2 usage or parse
error, and never a traceback.  Derandomized, with no example database and
Hypothesis's storage (its constants cache) kept in a temporary directory, so
the run is the same every time and leaves nothing in the checkout."""
import tempfile
from math import comb

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from amplekit import core, generate, repmap

from test_cli import run_exit

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
# characters int() takes in an integer field and the CLI refuses: a sign,
# '_', and Arabic-Indic, Devanagari and fullwidth digits
ODD = "+_\u0661\u0663\u0969\uff11"


def with_odd(texts):
    """The texts, each with one character of ODD inserted somewhere."""
    return st.builds(lambda s, i, ch: s[:i % (len(s) + 1)] + ch + s[i % (len(s) + 1):],
                     texts, st.integers(0, 20), st.sampled_from(ODD))


def has_odd(text):
    return any(ch in ODD for ch in text)


well_formed_samples = st.lists(
    st.tuples(st.integers(-1, 5), st.integers(-1, 2)), max_size=4).map(
        lambda kv: ",".join(f"x{k}={v}" for k, v in kv))
samples = st.one_of(
    well_formed_samples,
    with_odd(well_formed_samples),
    st.text("x0123456789=,- " + ODD, max_size=15))
well_formed_sets = st.lists(st.integers(-1, 5), max_size=4).map(
    lambda xs: "{" + ",".join(map(str, xs)) + "}")
sets = st.one_of(
    well_formed_sets,
    with_odd(well_formed_sets),
    st.text("{}0123456789,- a" + ODD, max_size=10))
headers = with_odd(st.sampled_from(("3", "03", " 3", "10", "")))


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    cls = d / "ball.txt"
    core.write_class_file(str(cls), C)
    return str(cls), d / "map.rep"


def assert_contract(argv):
    code, _, err = run_exit(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    return code


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
    code = assert_contract(["compress", cls, "--repmap", str(rep), f"--sample={sample}"])
    if has_odd(sample):
        assert code == 2, sample


@FUZZ
@given(text=repmap_texts, alpha=sets)
def test_fuzz_decompress(paths, text, alpha):
    _, rep = paths
    rep.write_text(text, encoding="utf-8")
    code = assert_contract(["decompress", "--repmap", str(rep), f"--set={alpha}"])
    if has_odd(alpha):
        assert code == 2, alpha


@FUZZ
@given(sample=with_odd(well_formed_samples), alpha=with_odd(well_formed_sets))
def test_fuzz_odd_integer_fields_exit_2_on_a_valid_map(paths, sample, alpha):
    # with a valid map, the sample or set is all that can be refused
    cls, rep = paths
    rep.write_text(GOOD, encoding="utf-8")
    assert assert_contract(
        ["compress", cls, "--repmap", str(rep), f"--sample={sample}"]) == 2, sample
    assert assert_contract(["decompress", "--repmap", str(rep), f"--set={alpha}"]) == 2, alpha


@FUZZ
@given(header=headers)
def test_fuzz_check_refuses_a_header_width_with_odd_characters(paths, header):
    _, rep = paths
    rep.write_text(f"n={header}\n000\n100\n", encoding="utf-8")
    assert assert_contract(["check", str(rep)]) == 2, header


def integer_option_argv(cls, option, value):
    """A command reading the integer option, with its other arguments valid."""
    return {
        "--n": ["generate", "--kind", "hamming_ball", f"--n={value}", "--d=1"],
        "--d": ["generate", "--kind", "hamming_ball", "--n=5", f"--d={value}"],
        "--size": ["generate", "--kind", "random_ample", "--n=4", f"--size={value}"],
        "--seed": [f"--seed={value}", "generate", "--kind", "random_ample", "--n=4",
                   "--size=5"],
        "--budget": [f"--budget={value}", "peel", cls],
        "-x": ["tailmatch", cls, f"-x={value}"],
    }[option]


integer_options = st.sampled_from(("--n", "--d", "--size", "--seed", "--budget", "-x"))
decimals = st.integers(-3, 30).map(str)


@FUZZ
@given(option=integer_options, value=st.one_of(decimals, with_odd(decimals)))
def test_fuzz_integer_options(paths, option, value):
    # with a sign, '_' or a non-ASCII digit the option's value is refused
    # by argparse, before any range check
    cls, _ = paths
    code, _, err = run_exit(integer_option_argv(cls, option, value))
    assert code in (0, 1, 2) and "Traceback" not in err, (option, value, err)
    if has_odd(value):
        assert code == 2 and err.endswith(f"invalid int value: {value!r}\n"), (option, value)


# ---------------------------------------------------------------- check

def brute_check_lines(n, concepts):
    """`check`'s output computed by definition, with no amplekit code."""
    s = set(concepts)
    size = lambda Y: bin(Y).count("1")
    sh = [Y for Y in range(1 << n) if len({c & Y for c in s}) == 1 << size(Y)]
    st = [Y for Y in range(1 << n)
          if any(all((c & ~Y) | p in s for p in range(1 << n) if not p & ~Y) for c in s)]
    d = max(map(size, sh))
    return [f"n={n}", f"size={len(s)}", f"vc_dim={d}", f"shattered={len(sh)}",
            f"strongly_shattered={len(st)}", f"ample={int(len(sh) == len(s))}",
            f"maximum={int(len(s) == sum(comb(n, i) for i in range(d + 1)))}"]


widths = st.integers(1, 5)
any_classes = widths.flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, (1 << n) - 1), min_size=1, unique=True)))
ample_classes = widths.flatmap(lambda n: st.builds(
    lambda size, seed: (n, list(generate.random_ample(n, size, seed).concepts)),
    st.integers(1, 1 << n), st.integers(0, 1 << 16)))


@pytest.fixture(scope="module")
def class_path(tmp_path_factory):
    return tmp_path_factory.mktemp("check") / "class.txt"


def check_output(path, n, concepts):
    """`check`'s lines on a class file listing the concepts in the given order."""
    lines = [f"n={n}"] + [core.concept_to_string(c, n) for c in concepts]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = run_exit(["check", str(path)])
    assert code == 0
    return out.splitlines()


@FUZZ
@given(cls=any_classes)
def test_fuzz_check_prints_the_brute_force_invariants(class_path, cls):
    # about half are not ample, and only those run the shattering scan
    n, concepts = cls
    assert check_output(class_path, n, concepts) == brute_check_lines(n, concepts)


@FUZZ
@given(cls=ample_classes)
def test_fuzz_check_reads_ample_classes_off_the_cube_complex(class_path, cls):
    # ample by construction: the complexes are read off the cube complex
    n, concepts = cls
    want = brute_check_lines(n, concepts)
    assert want[5] == "ample=1"
    assert check_output(class_path, n, concepts) == want
