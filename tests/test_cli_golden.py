"""Golden CLI outputs: every command on small fixed classes, replayed
in-process through `cli.main` and compared by exit code and the sha256 of
stdout and stderr, and of the file written by a `-o` run, against
`cli_golden.json`.

The file was recorded once from a known-good tree and is never rewritten to
make a change pass; a change that alters any output must say so.  To record
it afresh (for a deliberate output change, named in CHANGES.md):

    PYTHONPATH=src python tests/test_cli_golden.py
"""
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from amplekit import core, generate
from amplekit.core import ConceptClass

from downsets import random_downset_class
from test_cli import run_exit

GOLDEN = Path(__file__).parent / "cli_golden.json"


def _classes() -> dict:
    """file name -> class: balls, seeded random ample classes, a product, a
    twist, a downset class, a class with a constant coordinate, and a class
    that is not ample."""
    B = generate.hamming_ball
    return {
        "ball_3_1.txt": B(3, 1),
        "ball_4_1.txt": B(4, 1),
        "ball_5_2.txt": B(5, 2),
        "ball_6_3.txt": B(6, 3),
        "twist_5_2.txt": core.twist(B(5, 2), 0b10110),
        "ample_6.txt": generate.random_ample(6, 20, 1),
        "ample_7.txt": generate.random_ample(7, 40, 2),
        "product.txt": core.product(B(2, 1), B(3, 1)),
        "downset.txt": random_downset_class(5, 3),
        "const.txt": ConceptClass(5, tuple(c | 0b10000 for c in B(4, 1))),
        "path.txt": ConceptClass.from_strings(["00", "01", "10"]),
        "nonample.txt": ConceptClass.from_strings(["000", "011", "101", "110"]),
    }


def _peel_classes() -> dict:
    """file name -> class for the larger peel and collapse records, appended
    after the others: two n = 10 random ample classes, one of them capped at
    VC dimension 2 so that the two-dimensional peeling runs, and ball(10,3)."""
    return {
        "ample_10a.txt": generate.random_ample(10, 150, 5),
        "ample_10b.txt": generate.random_ample(10, 120, 6, max_dim=2),
        "ball_10_3.txt": generate.hamming_ball(10, 3),
    }


MAXIMUM = ("ball_3_1.txt", "ball_4_1.txt", "ball_5_2.txt", "ball_6_3.txt",
           "twist_5_2.txt")
SAMPLES = ("", "x1=0", "x1=1,x3=0", "x2=1,x4=1,x5=0", "x1=0,x2=0,x3=1,x5=1")
SETS = ("{}", "{1}", "{1,2}", "{3,5}", "{1,2,3}")


def _run(argv) -> dict:
    code, out, err = run_exit(argv)
    return {"argv": argv, "exit": code, "stdout": out, "stderr": err}


def _swap_first_last(map_text: str) -> str:
    """The map with the images of its first and last concepts exchanged."""
    lines = map_text.splitlines()
    (c0, r0), (c1, r1) = (line.split(" -> ") for line in (lines[0], lines[-1]))
    return "\n".join([f"{c0} -> {r1}", *lines[1:-1], f"{c1} -> {r0}"]) + "\n"


def _with_image(map_text: str, i: int, image: str) -> str:
    """The map with the image of its i-th concept replaced."""
    lines = map_text.splitlines()
    lines[i] = lines[i].split(" -> ")[0] + " -> " + image
    return "\n".join(lines) + "\n"


def replay() -> list:
    """Every golden command, run in the current directory, with its exit
    code and output; later commands read files made from earlier outputs."""
    classes = _classes()
    for name, C in classes.items():
        core.write_class_file(name, C)
    runs = []

    def run(*argv):
        runs.append(_run(list(argv)))
        return runs[-1]

    for name, C in classes.items():
        run("check", name)
        run("graph", name)
        run("graph", "--dot", name)
        for algorithm in ("greedy", "antimatroid", "twodim"):
            res = run("peel", name, "--algorithm", algorithm)
            if res["exit"] == 0:
                ordering = f"{name}.{algorithm}.peel"
                Path(ordering).write_text(f"n={C.n}\n" + res["stdout"], encoding="utf-8")
                run("shelling", ordering)
        run("collapse", name)
        res = run("repmap", "build", name)
        if res["exit"] == 0:
            good, bad = f"{name}.rep", f"{name}.bad.rep"
            Path(good).write_text(res["stdout"], encoding="utf-8")
            Path(bad).write_text(_swap_first_last(res["stdout"]), encoding="utf-8")
            run("repmap", "verify", name, "--repmap", good)
            run("repmap", "verify", name, "--repmap", bad)
    for name in MAXIMUM:
        for x in range(1, classes[name].n + 1):
            run("tailmatch", name, "-x", str(x))
    run("tailmatch", "ample_6.txt", "-x", "1")
    for name in ("path.txt", "ball_3_1.txt", "nonample.txt"):
        run("isr", name, "--json")
    run("isr", "path.txt")
    for name in ("ball_5_2.txt", "twist_5_2.txt"):
        for sample in SAMPLES:
            run("compress", name, "--repmap", f"{name}.rep", "--sample", sample)
        for alpha in SETS:
            run("decompress", "--repmap", f"{name}.rep", "--set", alpha)
    for name, C in _peel_classes().items():
        core.write_class_file(name, C)
        for algorithm in ("greedy", "twodim"):
            run("peel", name, "--algorithm", algorithm)
        run("collapse", name)
    # maps that fail: not injective (the last concept takes the first image),
    # an image outside X(C), a class that is not ample, and an injective map
    # with two reconstructions of the sample x2=0
    good = Path("ball_5_2.txt.rep").read_text(encoding="utf-8")
    first = good.splitlines()[0].split(" -> ")[1]
    Path("dup.rep").write_text(_with_image(good, -1, first), encoding="utf-8")
    Path("off.rep").write_text(_with_image(good, 0, "11100"), encoding="utf-8")
    Path("nonample.rep").write_text(
        "000 -> 000\n011 -> 100\n101 -> 010\n110 -> 001\n", encoding="utf-8")
    Path("ambiguous.rep").write_text("00 -> 00\n01 -> 10\n10 -> 01\n", encoding="utf-8")
    run("repmap", "verify", "ball_5_2.txt", "--repmap", "dup.rep")
    run("repmap", "verify", "ball_5_2.txt", "--repmap", "off.rep")
    run("repmap", "verify", "nonample.txt", "--repmap", "nonample.rep")
    run("compress", "path.txt", "--repmap", "ambiguous.rep", "--sample", "x2=0")
    # generate, each kind, and batch over golden classes; a run with -o also
    # records the file it wrote
    run("generate", "--kind", "cube", "--n", "3")
    run("generate", "--kind", "hamming_ball", "--n", "5", "--d", "2")
    run("generate", "--kind", "simplicial", "--n", "4", "--facets", "1,2;2,3,4")
    run("--seed", "3", "generate", "--kind", "random_ample", "--n", "6", "--size", "20")
    run("generate", "--kind", "hamming_ball", "--n", "4", "--d", "1", "-o", "gen.txt")
    runs[-1]["file"] = Path("gen.txt").read_text(encoding="utf-8")
    run("batch", "ball_3_1.txt", "ball_5_2.txt", "ample_6.txt", "const.txt", "nonample.txt")
    run("batch", "-o", "batch.csv", "ball_6_3.txt", "twist_5_2.txt", "gen.txt")
    runs[-1]["file"] = Path("batch.csv").read_text(encoding="utf-8")
    run("generate", "--kind", "cube", "--n", "25")
    run("batch", "ball_3_1.txt", "missing.txt")
    return runs


def _digest(run: dict) -> dict:
    sha = lambda text: hashlib.sha256(text.encode("utf-8")).hexdigest()
    digest = {"argv": run["argv"], "exit": run["exit"],
              "stdout": sha(run["stdout"]), "stderr": sha(run["stderr"])}
    if "file" in run:
        digest["file"] = sha(run["file"])
    return digest


def _replay_in(directory) -> list:
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        return [_digest(r) for r in replay()]
    finally:
        os.chdir(cwd)


def test_cli_outputs_match_the_golden_record(tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = _replay_in(tmp_path)
    assert [g["argv"] for g in got] == [w["argv"] for w in want]
    for g, w in zip(got, want):
        assert g == w, g["argv"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        records = _replay_in(tmp)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(records)} commands to {GOLDEN}", file=sys.stderr)
