"""Self-test of the benchmark's failure accounting and output checks.

    python3 perfbench/selftest.py

Runs real CLI commands through the benchmark's Runner and shows that a
corrupted output, an unexpected exit code and a time-out are each counted
as a failed operation, while the intact command is not.  Then feeds each
output checker a corrupted copy of a correct output and requires a rejection.
Exits 0 when every case behaves, 1 otherwise.
"""
import os
import shutil
import subprocess
import sys

import checks as ck
import run as bench
from run import HERE, SRC, Runner

failures = []


def expect(cond: bool, what: str) -> None:
    print(("PASS " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def rejects(check, out: str) -> bool:
    try:
        check(out)
    except (ck.CheckFailed, ValueError, KeyError, IndexError):
        return True
    return False


def amplekit(env, *argv) -> str:
    return subprocess.run([sys.executable, "-m", "amplekit.cli", *argv], env=env,
                          capture_output=True, text=True, check=True).stdout


def main() -> int:
    env = dict(os.environ, PYTHONPATH=SRC)
    work = os.path.join(HERE, "_work", f"selftest-{os.getpid()}")
    os.makedirs(work)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        n, d = 5, 2
        ball = ck.ball(n, d)
        with open("ball.txt", "w", encoding="utf-8") as fh:
            fh.write(ck.class_text(n, ball))
        inv = ck.ball_invariants(n, d)

        # -- failure accounting through the Runner
        run = Runner(env)
        run.cli("intact", "check", ["check", "ball.txt"], 0,
                lambda out: ck.check_check(out, inv))
        run.cli("corrupted output", "check", ["check", "ball.txt"], 0,
                lambda out: ck.check_check(out.replace("vc_dim=2", "vc_dim=3"), inv))
        run.cli("unexpected exit code", "check", ["check", "missing.txt"], 0,
                lambda out: None)
        with open("ball_10_3.txt", "w", encoding="utf-8") as fh:
            fh.write(ck.class_text(10, ck.ball(10, 3)))
        bench.OP_TIMEOUT = 1   # `isr` on B(10,3) searches for several seconds
        run.cli("timed out", "isr", ["isr", "ball_10_3.txt"], 1, lambda out: None)
        labels = [label for label, _ in run.failures]
        expect(run.attempted == 4, "four commands attempted")
        expect(labels == ["corrupted output", "unexpected exit code", "timed out"],
               f"corrupted output, unexpected exit code and time-out counted as "
               f"failed: {run.failures}")

        # -- every checker rejects a corrupted copy of a correct output
        rep = amplekit(env, "repmap", "build", "ball.txt")
        expect(not rejects(lambda o: ck.check_ball_repmap(o, n, d), rep), "repmap accepted")
        lines = rep.splitlines()
        a, b = lines[3].split(" -> "), lines[9].split(" -> ")
        lines[3], lines[9] = f"{a[0]} -> {b[1]}", f"{b[0]} -> {a[1]}"
        expect(rejects(lambda o: ck.check_ball_repmap(o, n, d), "\n".join(lines)),
               "repmap with two images swapped rejected")

        order = amplekit(env, "peel", "ball.txt").split()
        masks = [ck.to_mask(s) for s in order]
        expect(not rejects(lambda o: ck.check_corner_peeling(o, ball, n), masks),
               "peeling accepted")
        expect(rejects(lambda o: ck.check_corner_peeling(o, ball, n), masks[::-1]),
               "reversed peeling rejected")

        col = amplekit(env, "collapse", "ball.txt")
        expect(not rejects(lambda o: ck.check_collapse(o, ball, n), col), "collapse accepted")
        cl = col.splitlines()
        expect(rejects(lambda o: ck.check_collapse(o, ball, n), "\n".join(cl[1:])),
               "collapse without its first pair rejected")

        gr = amplekit(env, "graph", "ball.txt")
        expect(not rejects(lambda o: ck.check_graph(o, ball, n), gr), "graph accepted")
        expect(rejects(lambda o: ck.check_graph(o, ball, n), gr.replace("corners=", "corners=00000,")),
               "graph with an extra corner rejected")

        dom, labels_ = ck.parse_sample("x1=1,x2=0,x4=1")
        expect(rejects(lambda o: ck.check_compress(o, dom, d), "{1,3}"),
               "compressed set outside the sample domain rejected")
        expect(rejects(lambda o: ck.check_decompress(o, n, set(ball), dom, labels_), "11000"),
               "decompressed concept inconsistent with the sample rejected")
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
