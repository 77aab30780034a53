import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from amplekit import cli, core, generate, repmap
from amplekit.core import ConceptClass

from test_repmap import (ball_with_two_concepts_on_top, copied_image_ball_18_3_map,
                         isr_all_pairs_oracle, verify_repmap_oracle)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def ball_file(tmp_path):
    p = tmp_path / "ball.txt"
    core.write_class_file(str(p), generate.hamming_ball(3, 1))
    return str(p)


def test_check(capsys, ball_file):
    code, out, _ = run(capsys, "check", ball_file)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["n=3", "size=4", "vc_dim=1", "shattered=4",
                     "strongly_shattered=4", "ample=1", "maximum=1"]


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/x.txt")
    assert code == 2 and "error" in err


def test_check_parse_error(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("")
    code, _, err = run(capsys, "check", str(p))
    assert code == 2 and "error" in err


def test_check_directory_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "check", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_check_non_utf8_file_exits_2(capsys, tmp_path):
    p = tmp_path / "latin1.txt"
    p.write_bytes(b"n=2\n00\n01\n# \xe9t\xe9\n")
    code, out, err = run(capsys, "check", str(p))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_graph_dot(capsys, ball_file):
    code, out, _ = run(capsys, "graph", ball_file, "--dot")
    assert code == 0
    assert out.startswith("graph") and "000" in out


def test_peel(capsys, ball_file):
    code, out, _ = run(capsys, "peel", ball_file)
    assert code == 0
    lines = out.strip().splitlines()
    assert sorted(lines) == sorted(generate.hamming_ball(3, 1).strings())


def test_peel_algorithms(capsys, ball_file):
    for algo in ("antimatroid", "twodim"):
        code, out, _ = run(capsys, "peel", ball_file, "--algorithm", algo)
        assert code == 0
        assert len(out.strip().splitlines()) == 4


def test_repmap_build_verify_and_compress(capsys, tmp_path, ball_file):
    code, out, _ = run(capsys, "repmap", "build", ball_file)
    assert code == 0
    rp = tmp_path / "ball.rep"
    rp.write_text(out)

    code, out, _ = run(capsys, "repmap", "verify", ball_file, "--repmap", str(rp))
    assert code == 0
    assert "valid=1" in out

    code, out, _ = run(capsys, "compress", ball_file,
                       "--repmap", str(rp), "--sample", "x2=1")
    assert code == 0
    alpha = out.strip()

    code, out, _ = run(capsys, "decompress", "--repmap", str(rp), "--set", alpha)
    assert code == 0
    assert out.strip() == "010"


@pytest.mark.parametrize("bad_set", ["{0}", "{a}", "{4}", "{+1, ٩}", "{+1}", "{١}", "{1_0}"])
def test_decompress_bad_set_exits_2(capsys, tmp_path, ball_file, bad_set):
    code, out, _ = run(capsys, "repmap", "build", ball_file)
    rp = tmp_path / "ball.rep"
    rp.write_text(out)
    code, out, err = run(capsys, "decompress", "--repmap", str(rp), "--set", bad_set)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("sample, x", [("x9=0", 9), ("x0=1", 0), ("x1=0,x4=1", 4)])
def test_compress_sample_outside_domain_exits_2(capsys, tmp_path, ball_file, sample, x):
    code, out, _ = run(capsys, "repmap", "build", ball_file)
    rp = tmp_path / "ball.rep"
    rp.write_text(out)
    code, out, err = run(capsys, "compress", ball_file, "--repmap", str(rp),
                         "--sample", sample)
    assert code == 2 and out == ""
    assert err == f"error: coordinate {x} outside 1..3\n"


def test_repmap_verify_invalid_exits_1(capsys, tmp_path, ball_file):
    rp = tmp_path / "bad.rep"
    rp.write_text("000 -> 000\n100 -> 000\n010 -> 010\n001 -> 001\n")
    code, out, _ = run(capsys, "repmap", "verify", ball_file, "--repmap", str(rp))
    assert code == 1
    assert "valid=0" in out


@pytest.mark.parametrize("corrupt", [False, True])
def test_repmap_verify_prints_the_exhaustive_report(capsys, tmp_path, corrupt):
    # certified or not, the CLI prints the exhaustive report
    C = generate.hamming_ball(5, 2)
    r = repmap.build_maximum_repmap(C)
    if corrupt:
        a, b = C.concepts[3], C.concepts[7]
        r[a], r[b] = r[b], r[a]
    cls, rp = tmp_path / "ball.txt", tmp_path / "ball.rep"
    core.write_class_file(str(cls), C)
    rp.write_text(repmap.format_repmap(r, C.n))
    report = verify_repmap_oracle(C, r)
    assert report.valid is not corrupt
    want = [f"{name}={int(getattr(report, name).ok)}"
            for name in ("r1", "r2", "r3", "r4", "bijective", "c1", "c2")]
    want.append(f"valid={int(report.valid)}")
    code, out, err = run(capsys, "repmap", "verify", str(cls), "--repmap", str(rp))
    assert out == "\n".join(want) + "\n" and err == ""
    assert code == (0 if report.valid else 1)


def test_repmap_verify_of_a_copied_image_ball_18_3_map(capsys, tmp_path):
    # the lines recorded before R2 read one domain of an ample class, when
    # the sweep over domains took about 19 s
    C, r = copied_image_ball_18_3_map()
    cls, rp = tmp_path / "ball.txt", tmp_path / "ball.rep"
    core.write_class_file(str(cls), C)
    rp.write_text(repmap.format_repmap(r, C.n))
    code, out, err = run(capsys, "repmap", "verify", str(cls), "--repmap", str(rp))
    assert (code, err) == (1, "")
    assert out == "r1=0\nr2=0\nr3=0\nr4=0\nbijective=0\nc1=0\nc2=0\nvalid=0\n"


def test_repmap_verify_on_a_wide_class_that_is_not_ample(capsys, tmp_path):
    # the sweep over domains took about 19 s to reach R2's witness
    C, r = ball_with_two_concepts_on_top(20)
    cls, rp = tmp_path / "top.txt", tmp_path / "top.rep"
    core.write_class_file(str(cls), C)
    rp.write_text(repmap.format_repmap(r, C.n))
    code, out, err = run(capsys, "repmap", "verify", str(cls), "--repmap", str(rp))
    assert (code, err) == (1, "")
    assert out == "r1=1\nr2=0\nr3=1\nr4=1\nbijective=0\nc1=0\nc2=1\nvalid=0\n"


NOT_INJECTIVE = "000 -> 000\n100 -> 000\n"


def test_decompress_rejects_a_map_that_is_not_injective(capsys, tmp_path):
    rp = tmp_path / "dup.rep"
    rp.write_text(NOT_INJECTIVE)
    code, out, err = run(capsys, "decompress", "--repmap", str(rp), "--set", "{}")
    assert code == 2 and out == ""
    assert err == "error: map is not injective\n"


@pytest.mark.parametrize("width", [0, 25, 30])
def test_decompress_rejects_a_map_width_outside_the_domain(capsys, tmp_path, width):
    # the map's first line sets the width, which class files bound to 1..24
    rp = tmp_path / "wide.rep"
    rp.write_text(f"{'0' * width} -> {'0' * width}\n")
    code, out, err = run(capsys, "decompress", "--repmap", str(rp), "--set", "{}")
    assert code == 2 and out == ""
    assert err == f"error: line 1: width {width} outside 1..24\n"


@pytest.mark.parametrize("line, bad", [("0a0 -> 100", "0a0"), ("100 -> 1a0", "1a0")])
@pytest.mark.parametrize("command", [["repmap", "verify", "{cls}", "--repmap", "{rep}"],
                                     ["compress", "{cls}", "--repmap", "{rep}", "--sample", "x1=1"],
                                     ["decompress", "--repmap", "{rep}", "--set", "{{}}"]])
def test_a_bad_character_in_a_map_names_its_line(capsys, tmp_path, ball_file, line, bad,
                                                 command):
    # either side of the arrow, in every command that reads a map
    rp = tmp_path / "bad.rep"
    rp.write_text(f"000 -> 000\n{line}\n")
    code, out, err = run(capsys, *(a.format(cls=ball_file, rep=rp) for a in command))
    assert code == 2 and out == ""
    assert err == f"error: line 2: invalid character 'a' in concept string {bad!r}\n"


@pytest.mark.parametrize("command, rep_text, message", [
    (["repmap", "verify", "{cls}"], None, "repmap verify requires --repmap <file>"),
    (["decompress", "--repmap", "{rep}", "--set", "9,11"], "000 -> 000\n",
     "expected a set like {1,3}"),
    (["decompress", "--repmap", "{rep}", "--set", "{{}}"], "# only a comment\n",
     "empty representation map file"),
    (["repmap", "verify", "{cls}", "--repmap", "{rep}"], "000 -> 000\n000 -> 000\n",
     "line 2: duplicate concept"),
], ids=["verify-without-a-map", "set-without-braces", "map-of-comments", "duplicate-concept"])
def test_each_refusal_prints_its_error_line(capsys, tmp_path, ball_file, command, rep_text,
                                            message):
    rp = tmp_path / "ball.rep"
    if rep_text is not None:
        rp.write_text(rep_text)
    code, out, err = run(capsys, *(a.format(cls=ball_file, rep=rp) for a in command))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_set_and_facets_take_coordinates_in_any_order(capsys, tmp_path):
    """`--set` and `--facets` each name sets: a coordinate may come in any
    order and more than once, unlike a sample's strictly ascending ones."""
    rp = tmp_path / "ball.rep"
    rp.write_text(repmap.format_repmap(repmap.build_maximum_repmap(
        generate.hamming_ball(14, 3)), 14))
    printed = {run(capsys, "decompress", "--repmap", str(rp), "--set", s)
               for s in ("{9,11,14}", "{14,9,11}", "{9,9,11,14}")}
    assert printed == {(0, "00000000101001\n", "")}
    printed = {run(capsys, "generate", "--kind", "simplicial", "--n", "4", "--facets", f)
               for f in ("1,2;3", "2,1;3", "3;2,1,2")}
    assert len(printed) == 1
    code, out, _ = printed.pop()
    assert code == 0
    assert core.parse_class_text(out) == generate.simplicial_class(4, [0b11, 0b100])


def test_compress_rejects_a_map_that_is_not_injective(capsys, tmp_path):
    cls, rp = tmp_path / "pair.txt", tmp_path / "dup.rep"
    core.write_class_file(str(cls), ConceptClass.from_strings(["000", "100"]))
    rp.write_text(NOT_INJECTIVE)
    code, out, err = run(capsys, "compress", str(cls), "--repmap", str(rp),
                         "--sample", "x1=1")
    assert code == 2 and out == ""
    assert err == "error: map is not injective\n"


@pytest.fixture(scope="module")
def ball_24_3(tmp_path_factory):
    """B(24,3), enumerated by size rather than by scanning all 2^24 masks."""
    C = ConceptClass(24, tuple(core.mask_of(s) for k in range(4)
                               for s in itertools.combinations(range(1, 25), k)))
    p = tmp_path_factory.mktemp("wide") / "ball_24_3.txt"
    core.write_class_file(str(p), C)
    return C, str(p)


def test_check_ball_24_3_prints_the_closed_forms(capsys, ball_24_3):
    # |B(24,3)| = 1 + 24 + 276 + 2024, and a maximum class shatters exactly
    # the sets of size <= 3, each strongly
    _, path = ball_24_3
    code, out, err = run(capsys, "check", path)
    assert code == 0 and err == ""
    assert out.splitlines() == ["n=24", "size=2325", "vc_dim=3", "shattered=2325",
                                "strongly_shattered=2325", "ample=1", "maximum=1"]


def test_certify_accepts_the_built_map_of_ball_24_3(capsys, ball_24_3):
    C, path = ball_24_3
    code, out, _ = run(capsys, "repmap", "build", path)
    assert code == 0
    r = repmap.parse_repmap_text(out, C.n)
    assert set(r) == C.concept_set
    report = repmap.certify_repmap(C, r)
    assert report.valid
    assert all(getattr(report, name).ok
               for name in ("r1", "r2", "r3", "r4", "bijective", "c1", "c2"))


def test_isr_json(capsys, ball_file):
    code, out, _ = run(capsys, "isr", ball_file, "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"vertices", "parts", "edges"}
    assert len(data["parts"]) == 4


def isr_json_oracle(C):
    """`isr --json` as json.dumps of the whole structure, edges included,
    with the instance built by the all-pairs definition."""
    vertices, parts, edges = isr_all_pairs_oracle(C)
    out = {
        "vertices": [[core.concept_to_string(c, C.n), core.coords(y)]
                     for (c, y) in vertices],
        "parts": {core.concept_to_string(c, C.n): list(idxs)
                  for c, idxs in parts.items()},
        "edges": [[i, j] for (i, j) in edges],
    }
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("C", [
    ConceptClass.from_strings(["00", "01", "10"]),
    generate.hamming_ball(3, 1),
    generate.hamming_ball(5, 2),
    generate.random_ample(6, 20, 1),
    generate.random_ample(7, 40, 2),
    generate.random_ample(8, 60, 3),
    ConceptClass.from_strings(["0110"]),     # one vertex, no edges
], ids=["path", "ball_3_1", "ball_5_2", "ample_6", "ample_7", "ample_8", "singleton"])
def test_isr_json_streams_the_bytes_of_one_json_dump(capsys, tmp_path, C):
    p = tmp_path / "class.txt"
    core.write_class_file(str(p), C)
    code, out, err = run(capsys, "isr", str(p), "--json")
    assert (code, out, err) == (0, isr_json_oracle(C), "")


def test_isr_json_streams_its_edges_within_512_mb(tmp_path):
    # B(7,5) has 5.0 million conflicting pairs: a list of them, or one JSON
    # string of them, ends in a MemoryError traceback under 512 MB
    resource = pytest.importorskip("resource")
    p = tmp_path / "class.txt"
    core.write_class_file(str(p), generate.hamming_ball(7, 5))
    limit = 512 << 20
    proc = subprocess.run(
        [sys.executable, "-m", "amplekit.cli", "isr", "--json", str(p)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert (proc.returncode, proc.stderr) == (0, "")


def test_out_of_memory_exits_2_without_a_traceback(tmp_path):
    # the 2^24 concepts of the full 24-cube do not fit in 512 MB
    resource = pytest.importorskip("resource")
    out_file = tmp_path / "c24.txt"
    limit = 512 << 20
    proc = subprocess.run(
        [sys.executable, "-m", "amplekit.cli", "generate", "--kind", "cube", "--n", "24",
         "-o", str(out_file)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: out of memory\n")
    assert not out_file.exists()


def test_tailmatch(capsys, ball_file):
    code, out, _ = run(capsys, "tailmatch", ball_file, "-x", "1")
    assert code == 0
    assert "status=unique" in out


@pytest.mark.parametrize("x", ["0", "-1", "99"])
def test_tailmatch_coordinate_outside_domain_exits_2(capsys, ball_file, x):
    code, out, err = run(capsys, "tailmatch", ball_file, "-x", x)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("n", ["-3", "0", "25", "30"])
def test_generate_width_outside_1_to_24_exits_2(capsys, tmp_path, n):
    # checked before enumerating: --n 30 would otherwise build 2^30 masks
    out_file = tmp_path / "c.txt"
    code, out, err = run(capsys, "generate", "--kind", "cube", "--n", n,
                         "-o", str(out_file))
    assert code == 2 and out == "" and not out_file.exists()
    assert err.startswith("error:") and "Traceback" not in err


def test_generate_and_batch(capsys, tmp_path):
    out_file = tmp_path / "c.txt"
    code, _, _ = run(capsys, "generate", "--kind", "hamming_ball",
                     "--n", "4", "--d", "1", "-o", str(out_file))
    assert code == 0
    assert core.read_class_file(str(out_file)) == generate.hamming_ball(4, 1)

    code, out, _ = run(capsys, "batch", str(out_file))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("file,n,size,")
    assert lines[1].endswith(",1,1")   # ample, maximum


def test_generate_and_batch_output_files_hold_what_stdout_prints(capsys, tmp_path):
    gen = ["generate", "--kind", "random_ample", "--n", "6", "--size", "20"]
    code, printed, _ = run(capsys, *gen)
    assert code == 0
    class_file = tmp_path / "c.txt"
    assert run(capsys, *gen, "-o", str(class_file)) == (0, "", "")
    assert class_file.read_bytes() == printed.encode("utf-8")

    code, printed, _ = run(capsys, "batch", str(class_file))
    assert code == 0
    csv_file = tmp_path / "rows.csv"
    assert run(capsys, "batch", str(class_file), "-o", str(csv_file)) == (0, "", "")
    assert csv_file.read_bytes() == printed.encode("utf-8")


def test_generate_simplicial_facets(capsys):
    code, out, _ = run(capsys, "generate", "--kind", "simplicial", "--n", "4",
                       "--facets", "1,2;3,4")
    assert code == 0
    want = generate.simplicial_class(4, [core.mask_of([1, 2]), core.mask_of([3, 4])])
    assert core.parse_class_text(out) == want
    assert want.size == 7


@pytest.mark.parametrize("facets", ["+1,2", "1,٢", "1_0", "1;-2"])
def test_generate_simplicial_facets_take_only_ascii_digits(capsys, facets):
    code, out, err = run(capsys, "generate", "--kind", "simplicial", "--n", "12",
                         "--facets", facets)
    assert code == 2 and out == ""
    assert err.startswith("error: bad coordinate") and "Traceback" not in err


def test_generate_emit_ingest_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "generate", "--kind", "cube", "--n", "2")
    assert code == 0
    assert core.parse_class_text(out) == ConceptClass(2, range(4))


def test_collapse(capsys, ball_file):
    code, out, _ = run(capsys, "collapse", ball_file)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("survivor ")
    assert len(lines) == 4   # 3 collapse pairs + survivor line


def test_shelling(capsys, tmp_path):
    # file line order is taken as the ordering
    p = tmp_path / "ord.txt"
    p.write_text("n=2\n00\n10\n11\n01\n")
    code, out, _ = run(capsys, "shelling", str(p))
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_shelling_skips_comments_and_blank_lines(capsys, tmp_path):
    # the concept lines keep their file order, 110 before 010
    plain = tmp_path / "plain.txt"
    plain.write_text("n=3\n000\n100\n110\n010\n001\n")
    commented = tmp_path / "commented.txt"
    commented.write_text("# a corner peeling, read in file order\nn=3\n\n  000\n"
                         "# the next concept\n100\n\n110  \n010\n001\n")
    want = (0, "000\n100\n110\n010\n001\n", "")
    assert run(capsys, "shelling", str(plain)) == want
    assert run(capsys, "shelling", str(commented)) == want


def test_shelling_rejects_a_non_isometric_ordering(capsys, tmp_path):
    # the level {00, 11} is not isometric
    p = tmp_path / "ord.txt"
    p.write_text("n=2\n00\n11\n10\n01\n")
    assert run(capsys, "shelling", str(p)) == (
        2, "", "error: partial shelling condition fails (first violation at index 1)\n")


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["totally-unknown-subcommand"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["peel", "isr"])
def test_negative_budget_is_a_usage_error(capsys, ball_file, command):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--budget", "-1", command, ball_file])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "--budget" in out.err


def test_zero_budget_is_accepted(capsys, ball_file):
    # a zero budget is a valid search limit: the search stops at once
    code, out, _ = run(capsys, "--budget", "0", "peel", ball_file)
    assert (code, out) == (1, "NOT_PEELABLE budget\n")
    code, out, _ = run(capsys, "--budget", "0", "isr", ball_file)
    assert (code, out) == (1, "NO_ASSIGNMENT budget\n")


@pytest.mark.parametrize("C", [generate.hamming_ball(7, 5),
                               core.complement(generate.hamming_ball(10, 3))],
                         ids=["ball_7_5", "complement_of_ball_10_3"])
def test_isr_runs_out_of_budget_not_of_memory(tmp_path, C):
    # B(7,5) has 5.0 million conflicting pairs: a solver that lists them all
    # ends in a MemoryError traceback under a 512 MB address-space limit
    resource = pytest.importorskip("resource")
    p = tmp_path / "class.txt"
    core.write_class_file(str(p), C)
    limit = 512 << 20
    proc = subprocess.run(
        [sys.executable, "-m", "amplekit.cli", "--budget", "1000", "isr", str(p)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "NO_ASSIGNMENT budget\n", "")


def test_isr_on_a_class_deeper_than_the_recursion_limit(tmp_path):
    # 2,401 parts: a search with one frame per part ends in a RecursionError
    S = generate.hamming_ball(6, 1)
    C = core.product(core.product(S, S), core.product(S, S))
    assert (C.n, C.size) == (24, 2401)
    p = tmp_path / "class.txt"
    core.write_class_file(str(p), C)
    proc = subprocess.run(
        [sys.executable, "-m", "amplekit.cli", "--budget", "3000", "isr", str(p)],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=SRC))
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "NO_ASSIGNMENT budget\n", "")


# ---------------------------------------------------------------- parser

HELP_TEXT = json.loads((Path(__file__).parent / "cli_help_text.json").read_text(encoding="utf-8"))


def run_exit(argv):
    """(exit code, stdout, stderr) of cli.main, argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.skipif(f"{sys.version_info[0]}.{sys.version_info[1]}" != HELP_TEXT["python"],
                    reason="argparse's help layout differs between Python versions")
def test_help_usage_and_choice_errors_match_the_recorded_text(monkeypatch):
    """Top-level and per-command help, the usage line and the invalid-choice
    and missing-argument errors, byte for byte as printed when every
    subparser was built up front (recorded at COLUMNS=80)."""
    monkeypatch.setenv("COLUMNS", str(HELP_TEXT["columns"]))
    for case in HELP_TEXT["cases"]:
        assert run_exit(case["argv"]) == (case["code"], case["stdout"], case["stderr"]), \
            case["argv"]


def test_only_the_chosen_subparser_is_built(monkeypatch, ball_file):
    built = []

    class Arguments(tuple):
        """A row's arguments, noting their command each time they are read."""

        def __iter__(self):
            built.append(self.name)
            return super().__iter__()

    for name, (help_line, handler, arguments) in list(cli.COMMANDS.items()):
        noted = Arguments(arguments)
        noted.name = name
        monkeypatch.setitem(cli.COMMANDS, name, (help_line, handler, noted))
    assert run_exit(["check", ball_file])[0] == 0
    assert run_exit(["--seed", "3", "tailmatch", ball_file, "-x", "1"])[0] == 0
    assert run_exit(["--help"])[0] == 0
    assert built == ["check", "tailmatch"]


def _command(argv) -> str:
    """The command word of a command line, after its global options."""
    i = 0
    while argv[i].startswith("-"):
        i += 1 if "=" in argv[i] else 2
    return argv[i]


def test_every_command_has_recorded_help_and_output():
    # a command cannot be added to the table without its help text and outputs
    helped = {case["argv"][0] for case in HELP_TEXT["cases"] if case["argv"][1:] == ["--help"]}
    golden = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))
    assert set(cli.COMMANDS) == helped
    assert set(cli.COMMANDS) <= {_command(record["argv"]) for record in golden}


@pytest.mark.parametrize("option,value", [
    ("--n", "\u0663"), ("--n", "1_0"), ("--n", "+3"),
    ("--d", "+1"), ("--d", "\u0969"), ("--d", "-+1"),
    ("--size", "\uff15"), ("--size", "2_0"),
    ("--seed", "-1"), ("--seed", "+1"), ("--seed", "\u0969"), ("--seed", "1_0"),
    ("--budget", "1_000"), ("--budget", "+5"), ("--budget", "-\u0661"),
])
def test_integer_options_take_only_ascii_digits(option, value):
    """A sign, '_' or a non-ASCII digit is a usage error (exit 2) naming the
    value; `generate --n \u0663 --d +1` printed B(3,1) with exit 0."""
    opts = {"--n": "4", "--d": "1", "--size": "5", option: value}
    # `--d=-+1`: as two words, argparse would take -+1 for an option
    globals_ = [f"{o}={opts.pop(o)}" for o in ("--seed", "--budget") if o in opts]
    argv = [*globals_, "generate", "--kind", "random_ample",
            *(f"{o}={v}" for o, v in opts.items())]
    code, out, err = run_exit(argv)
    assert code == 2 and out == ""
    assert err.endswith(f"argument {option}: invalid int value: {value!r}\n")


@pytest.mark.parametrize("x", ["\u0662", "+1", "1_0", " +1"])
def test_tailmatch_coordinate_takes_only_ascii_digits(ball_file, x):
    code, out, err = run_exit(["tailmatch", ball_file, "-x", x])
    assert code == 2 and out == ""
    assert err.rstrip("\n").endswith(f"invalid int value: {x!r}")


def test_integer_options_keep_their_range_checks(ball_file):
    # a negative value still reaches the range check of its option
    code, _, err = run_exit(["generate", "--kind", "hamming_ball", "--n", "4", "--d", "-1"])
    assert code == 2 and err.startswith("error: radius -1 outside 0..4")
    code, _, err = run_exit(["generate", "--kind", "random_ample", "--n", "4", "--size", "-2"])
    assert code == 2 and err.startswith("error: size out of range")
    code, _, err = run_exit(["--budget", "-1", "peel", ball_file])
    assert code == 2 and err.endswith("argument --budget: must not be negative: -1\n")
    # surrounding whitespace is taken, as int() took it
    assert run_exit(["--seed", " 7 ", "generate", "--kind", "cube", "--n", " 2"]) == \
        run_exit(["--seed", "7", "generate", "--kind", "cube", "--n", "2"])
