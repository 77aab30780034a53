"""The three workloads: their inputs, their command passes and the checks on
every output.

A workload is a pass of amplekit commands that the runner repeats.  Inputs
are written by `make_inputs` in a separate set-up process, from the seed
alone; the commands see only those files and the files that earlier commands
of the pass wrote.
"""
from __future__ import annotations

import json
import os
import random

import checks as ck

HERE = os.path.dirname(os.path.abspath(__file__))
# sha256 of `generate --kind random_ample --n 10 --size 120` output, per seed,
# recorded when the benchmark was written
with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as _fh:
    GEN_DIGESTS = json.load(_fh)
GEN_N, GEN_SIZE = 10, 120
SAMPLES_PER_PASS = 40
SAMPLE_POOL = 200
LIGHT_REPEATS = 5        # runs per pass of a command under about a second


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def ball_class(ak, n: int, d: int):
    """B(n,d) enumerated by size: `generate.hamming_ball` scans all 2^n
    masks, which at n=24 would make set-up several times longer."""
    return ak.core.ConceptClass(n, tuple(ck.ball(n, d)))


def write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class Workload:
    name = ""
    # nominal seconds of one pass's commands on the machine the benchmark was
    # written on; a run makes round(--seconds / PASS_SECONDS) passes, at least one
    PASS_SECONDS: float

    def __init__(self, seed: int):
        self.seed = seed
        self.expect: dict = {}        # file name -> expected `check` output fields

    def make_inputs(self, ak, out_dir: str) -> None:
        """Runs in the set-up process, with the amplekit package as `ak`."""
        raise NotImplementedError

    def validate_inputs(self) -> None:
        """Runs in the working directory after set-up; raises CheckFailed."""
        raise NotImplementedError

    def steps(self, k: int) -> list:
        """Pass k: callables taking the runner, one or more commands each."""
        raise NotImplementedError

    # -- helpers shared by the workloads
    @staticmethod
    def light(step):
        return lambda run: run.repeat(step, LIGHT_REPEATS)

    def check_step(self, name: str):
        return lambda run: run.cli(f"check {name}", "check", ["check", name], 0,
                                   lambda out: ck.check_check(out, self.expect[name]))

    def expect_ball(self, name: str, n: int, d: int) -> None:
        text = read(name)
        ck.require(text == ck.class_text(n, ck.ball(n, d)), f"{name} is not B({n},{d})")
        self.expect[name] = ck.ball_invariants(n, d)

    def expect_brute(self, name: str) -> None:
        n, cs = ck.read_class(name)
        self.expect[name] = ck.invariants(n, cs)


class WideRecognize(Workload):
    name = "wide-recognize"
    PASS_SECONDS = 25.0
    SMALL = ("comp_10_3.txt", "prod.txt", "dense_10.txt")
    AMPLE = tuple(f"ample_8_48_{i}.txt" for i in range(1, 5))
    BATCH = ("ball_16_3.txt",) + SMALL + AMPLE

    def make_inputs(self, ak, out_dir):
        rng = rng_for(self.name, self.seed)
        g, core = ak.generate, ak.core

        def put(name, C):
            write(os.path.join(out_dir, name), core.format_class(C))

        put("ball_24_3.txt", ball_class(ak, 24, 3))
        put("ball_16_3.txt", ball_class(ak, 16, 3))
        put("comp_10_3.txt", core.complement(ball_class(ak, 10, 3)))
        put("prod.txt", core.product(ball_class(ak, 6, 2),
                                     g.random_ample(6, 30, rng.randrange(1 << 30))))
        # dense and not ample: shattered complex far larger than the strongly
        # shattered one
        put("dense_10.txt", core.ConceptClass(10, tuple(
            c for c in range(1 << 10) if rng.random() < 0.8)))
        for name in self.AMPLE:
            put(name, g.random_ample(8, 48, rng.randrange(1 << 30)))

    def validate_inputs(self):
        self.expect_ball("ball_24_3.txt", 24, 3)
        self.expect_ball("ball_16_3.txt", 16, 3)
        comp = set(range(1 << 10)) - set(ck.ball(10, 3))
        ck.require(read("comp_10_3.txt") == ck.class_text(10, comp), "complement input")
        for name in self.SMALL + self.AMPLE:
            self.expect_brute(name)
        ck.require(self.expect["dense_10.txt"]["ample"] == 0, "dense input is ample")

    def steps(self, k):
        rows = [(name, self.expect[name]) for name in self.BATCH]
        # the two wide commands first, so that a second pass repeats both
        return [
            self.check_step("ball_24_3.txt"),
            lambda run: run.cli("repmap build ball_24_3.txt", "repmap_build",
                                ["repmap", "build", "ball_24_3.txt"], 0,
                                lambda out: ck.check_ball_repmap(out, 24, 3)),
            *(self.light(self.check_step(name)) for name in self.SMALL),
            self.light(lambda run: run.cli("batch", "batch", ["batch", *self.BATCH], 0,
                                           lambda out: ck.check_batch(out, rows))),
        ]


class MaximumCompress(Workload):
    name = "maximum-compress"
    PASS_SECONDS = 24.0

    def make_inputs(self, ak, out_dir):
        rng = rng_for(self.name, self.seed)
        core = ak.core
        for n, d in ((16, 2), (16, 3), (12, 3)):
            write(os.path.join(out_dir, f"ball_{n}_{d}.txt"),
                  core.format_class(ball_class(ak, n, d)))
        # the map `repmap build` makes for B(12,3), with two images swapped;
        # pairs are drawn until the swap breaks C1 or C2
        r = ak.repmap.build_maximum_repmap(ball_class(ak, 12, 3))
        cs = sorted(r)
        while True:
            a, b = rng.sample(cs, 2)
            bad = dict(r)
            bad[a], bad[b] = r[b], r[a]
            rep = ck.ball_repmap_report(bad, 12, 3)
            if not (rep["c1"] and rep["c2"]):
                break
        write(os.path.join(out_dir, "ball_12_3.bad.rep"), ck.format_repmap(bad, 12))
        # realizable samples on B(16,3): a concept of the ball seen on a
        # random domain
        ball = ck.ball(16, 3)
        lines = []
        for _ in range(SAMPLE_POOL):
            dom = sum(1 << i for i in rng.sample(range(16), rng.randint(2, 10)))
            lines.append(ck.format_sample(dom, rng.choice(ball) & dom))
        write(os.path.join(out_dir, "samples.txt"), "\n".join(lines) + "\n")

    def validate_inputs(self):
        for n, d in ((16, 2), (16, 3), (12, 3)):
            self.expect_ball(f"ball_{n}_{d}.txt", n, d)
        rep = ck.ball_repmap_report(ck.parse_repmap(read("ball_12_3.bad.rep"), 12), 12, 3)
        ck.require(rep["bijective"] and not (rep["c1"] and rep["c2"]),
                   "corrupted map is not a bijection breaking C1 or C2")
        self.bad_verify = dict(rep, valid=0)
        self.samples = [ck.parse_sample(s) for s in read("samples.txt").split()]
        ck.require(all(ck.popcount(lab) <= 3 for _, lab in self.samples),
                   "sample not realizable on B(16,3)")
        self.ball_16_3 = set(ck.ball(16, 3))

    def steps(self, k):
        def build(n, d):
            name = f"ball_{n}_{d}"

            def step(run):
                out = run.cli(f"repmap build {name}", "repmap_build",
                              ["repmap", "build", f"{name}.txt"], 0,
                              lambda out: ck.check_ball_repmap(out, n, d))
                if out is not None:
                    write(f"{name}.rep", out)
            return step

        def roundtrip(dom, labels):
            def step(run):
                out = run.cli("compress", "roundtrip",
                              ["compress", "ball_16_3.txt", "--repmap", "ball_16_3.rep",
                               "--sample", ck.format_sample(dom, labels)], 0,
                              lambda out: ck.check_compress(out, dom, 3))
                if out is None:
                    return
                wall = run.last_wall
                out = run.cli("decompress", "roundtrip",
                              ["decompress", "--repmap", "ball_16_3.rep",
                               "--set", out.strip()], 0,
                              lambda out: ck.check_decompress(
                                  out, 16, self.ball_16_3, dom, labels))
                if out is not None:
                    run.roundtrips.append(wall + run.last_wall)
            return step

        verify_ok = {k: 1 for k in ("r1", "r2", "r3", "r4", "bijective", "c1", "c2", "valid")}
        first = k * SAMPLES_PER_PASS
        return [
            self.light(build(16, 2)),
            self.light(build(16, 3)),
            lambda run: run.cli("repmap verify ball_16_2", "repmap_verify",
                                ["repmap", "verify", "ball_16_2.txt", "--repmap",
                                 "ball_16_2.rep"], 0,
                                lambda out: ck.check_verify(out, verify_ok)),
            self.light(lambda run: run.cli(
                "repmap verify ball_12_3 corrupted", "repmap_verify",
                ["repmap", "verify", "ball_12_3.txt", "--repmap", "ball_12_3.bad.rep"], 1,
                lambda out: ck.check_verify(out, self.bad_verify))),
            lambda run: run.cli("tailmatch ball_16_3", "tailmatch",
                                ["tailmatch", "ball_16_3.txt", "-x", "1"], 0,
                                lambda out: ck.check_tailmatch(out, 16, 3)),
            *(roundtrip(*self.samples[(first + j) % len(self.samples)])
              for j in range(SAMPLES_PER_PASS)),
        ]


class AmplePeel(Workload):
    name = "ample-peel"
    PASS_SECONDS = 20.0
    CLASSES = ("gen_a.txt", "gen_b.txt", "ball_10_3.txt")

    def gen_seeds(self) -> tuple[int, int]:
        # seeds with a recorded digest, so that every output can be checked;
        # the workload seed therefore wraps at len(GEN_DIGESTS) / 2
        pool = len(GEN_DIGESTS)
        return (2 * self.seed) % pool, (2 * self.seed + 1) % pool

    def make_inputs(self, ak, out_dir):
        write(os.path.join(out_dir, "ball_10_3.txt"),
              ak.core.format_class(ball_class(ak, 10, 3)))

    def validate_inputs(self):
        self.expect_ball("ball_10_3.txt", 10, 3)

    def check_generated(self, out_file: str, gseed: int) -> None:
        ck.require(ck.sha256_file(out_file) == GEN_DIGESTS[str(gseed)],
                   f"generate --seed {gseed} output differs from the recorded digest")
        n, cs = ck.read_class(out_file)
        ck.require(n == GEN_N and len(cs) == GEN_SIZE, "generated class size")
        if out_file not in self.expect:
            ck.require(ck.is_isometric(set(cs), n), "generated class not isometric")
            self.expect[out_file] = ck.invariants(n, cs)

    def steps(self, k):
        def generate(out_file, gseed):
            return lambda run: run.cli(
                f"generate {out_file}", "generate",
                ["--seed", str(gseed), "generate", "--kind", "random_ample",
                 "--n", str(GEN_N), "--size", str(GEN_SIZE), "-o", out_file], 0,
                lambda out: self.check_generated(out_file, gseed))

        def judged(check, name):
            """check(out, concepts, n) on the class file `name`, read when the
            output is judged: an earlier failure may have left no file."""
            def judge(out):
                n, cs = ck.read_class(name)
                check(out, cs, n)
            return judge

        def peel(name):
            def step(run):
                out = run.cli(f"peel {name}", "peel", ["peel", name], 0,
                              judged(lambda out, cs, n: ck.check_corner_peeling(
                                  [ck.to_mask(s) for s in out.split()], cs, n), name))
                if out is not None:
                    header = read(name).split("\n", 1)[0]
                    write(name + ".order", f"{header}\n{out}")
            return step

        def shelling(name):
            return lambda run: run.cli(
                f"shelling {name}", "shelling", ["shelling", name + ".order"], 0,
                lambda out: ck.require(out.split() == read(name + ".order").split()[1:],
                                       "shelling facets differ from the ordering"))

        def on_class(kind, check, name):
            return lambda run: run.cli(f"{kind} {name}", kind, [kind, name], 0,
                                       judged(check, name))

        ga, gb = self.gen_seeds()
        return [
            generate("gen_a.txt", ga),
            generate("gen_b.txt", gb),
            self.light(self.check_step("gen_a.txt")),
            self.light(self.check_step("gen_b.txt")),
            *(peel(name) for name in self.CLASSES),
            *(shelling(name) for name in self.CLASSES),
            *(self.light(on_class("collapse", ck.check_collapse, name))
              for name in self.CLASSES),
            *(self.light(on_class("graph", ck.check_graph, name)) for name in self.CLASSES),
        ]


WORKLOADS = {w.name: w for w in (WideRecognize, MaximumCompress, AmplePeel)}
