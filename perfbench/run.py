"""amplekit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; amplekit is taken from its `src/`.

--trace 0 (end to end): a closed loop with one client.  The real CLI
(`python3 -m amplekit.cli`, the `amplekit` entry point) runs as a child
process, one command at a time, repeating the workload's pass of commands.
The number of passes is fixed by S and the workload's nominal pass length,
so every run of a workload takes the same number of samples of each command
whatever the machine's speed.  Every output is checked after its command
returns, outside the timed region.  The set-up repeats are spread over the
pass, between commands, so that they meet the machine in the same states as
the commands do.

--trace 1 (per layer): exactly one pass.  Each command runs in-process
through `amplekit.cli.main(argv)` without and with the layer wrappers of
tracing.py (the two walls give the tracing overhead), then as a child, which
gives the per-command wall times.

The last line of standard output is one JSON object: correct, attempted,
failed and the metrics declared in BENCHMARK.json.  The full report, with run
metadata, goes to perfbench/results/.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from statistics import fmean, median, quantiles
from time import perf_counter

import checks as ck
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 15
OP_TIMEOUT = 45              # seconds; a command that takes longer has failed
LAST_START = 180 - OP_TIMEOUT - 10   # no command starts later than this into the run
STARTUP_MAX_INPROC = 1.0     # seconds; cli.startup_s is read off lighter commands only
# per-command metrics: one per command kind; a kind the workload does not run reads 0
KINDS = ("check", "batch", "repmap_build", "repmap_verify", "tailmatch", "generate",
         "peel", "shelling", "collapse", "graph")


class OpTimeout(Exception):
    pass


class Runner:
    """Runs commands for one workload and keeps every measurement."""

    def __init__(self, env, traced_main=None, plain_main=None):
        self.env = env
        self.traced_main = traced_main
        self.plain_main = plain_main
        self.walls = defaultdict(list)      # label -> child wall times
        self.kind = {}                      # label -> metric family
        self.per_pass = Counter()           # label -> commands of that label in one pass
        self.roundtrips: list[float] = []
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.max_rss_kb = 0
        self.last_wall = 0.0
        self.pass_index = 0
        self.counting = True                # False while a step repeats
        # --trace 1 only
        self.plain_walls: list[float] = []
        self.traced_walls: list[float] = []
        self.startup: list[float] = []

    # -- one command
    def cli(self, label, kind, argv, expect_rc, check):
        """Run one command; returns its stdout when every way it ran passed
        its checks, else None."""
        self.kind[label] = kind
        if self.pass_index == 0 and self.counting:
            self.per_pass[label] += 1
        if self.traced_main is None:
            return self._run_child(label, argv, expect_rc, check)
        # alternate which in-process run goes first, so that neither always
        # gets the warmer caches
        if len(self.plain_walls) % 2:
            tout, terr, trc, twall = self._inproc(self.traced_main, argv)
            pout, perr, prc, pwall = self._inproc(self.plain_main, argv)
        else:
            pout, perr, prc, pwall = self._inproc(self.plain_main, argv)
            tout, terr, trc, twall = self._inproc(self.traced_main, argv)
        ok = self._judge(label + " (in-process)", pout, perr, prc, expect_rc, check)
        ok &= self._judge(label + " (traced)", tout, terr, trc, expect_rc, check)
        self.plain_walls.append(pwall)
        self.traced_walls.append(twall)
        if self._run_child(label, argv, expect_rc, check) is None:
            ok = False
        elif pwall < STARTUP_MAX_INPROC:
            # in a heavy command the start-up is buried in the run-to-run
            # noise of the work itself
            self.startup.append(self.last_wall - pwall)
        return pout if ok else None

    def _run_child(self, label, argv, expect_rc, check):
        out, err, rc, wall = self._child(argv)
        if not self._judge(label, out, err, rc, expect_rc, check):
            return None
        self.walls[label].append(wall)
        self.last_wall = wall
        return out

    def _child(self, argv):
        """(stdout, stderr, exit code or None on timeout, wall seconds)"""
        self.attempted += 1
        with open(".op.out", "w+", encoding="utf-8") as fo, \
                open(".op.err", "w+", encoding="utf-8") as fe:
            t0 = perf_counter()
            p = subprocess.Popen([sys.executable, "-m", "amplekit.cli", *argv],
                                 stdout=fo, stderr=fe, env=self.env)

            def kill(signum, frame):
                p.kill()
                raise OpTimeout

            old = signal.signal(signal.SIGALRM, kill)
            signal.alarm(OP_TIMEOUT)
            try:
                _, status, ru = os.wait4(p.pid, 0)
                rc = os.waitstatus_to_exitcode(status)
            except OpTimeout:
                _, _, ru = os.wait4(p.pid, 0)
                rc = None
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, old)
            wall = perf_counter() - t0
            p.returncode = -signal.SIGKILL if rc is None else rc
            self.max_rss_kb = max(self.max_rss_kb, ru.ru_maxrss)
            fo.seek(0)
            fe.seek(0)
            return fo.read(), fe.read(), rc, wall

    def _inproc(self, main, argv):
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc()
                rc = 1
        wall = perf_counter() - t0
        return out.getvalue(), err.getvalue(), rc, wall

    def _judge(self, label, out, err, rc, expect_rc, check) -> bool:
        reason = None
        if rc is None:
            reason = f"timed out after {OP_TIMEOUT} s"
        elif "Traceback (most recent call last)" in err:
            reason = "traceback on stderr"
        elif rc != expect_rc:
            reason = f"exit code {rc}, expected {expect_rc}"
        else:
            try:
                check(out)
            except (ck.CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
                reason = f"output check: {exc!r}"
        if reason is not None:
            self.failures.append((label, reason))
            return False
        return True

    def repeat(self, step, times: int) -> None:
        """Runs a light step `times` times, so that its commands' medians rest
        on several samples; they still count once in a pass.  A traced run
        runs it once."""
        step(self)
        if self.traced_main is not None:
            return
        self.counting = False
        try:
            for _ in range(times - 1):
                step(self)
        finally:
            self.counting = True

    # -- the loop
    def run_passes(self, workload, passes: int, t_begin: float, between) -> bool:
        """Closed loop over whole passes of the workload, calling
        between(seconds into the loop, nominal loop length) after each step;
        False if the passes could not be completed in the time a run may take."""
        t0 = perf_counter()
        span = passes * workload.PASS_SECONDS
        for k in range(passes):
            self.pass_index = k
            for step in workload.steps(k):
                if perf_counter() - t_begin > LAST_START:
                    return False
                step(self)
                between(perf_counter() - t0, span)
        return True


def kind_seconds(run: Runner) -> dict:
    """Per command kind, the per-pass sum of its commands' median child walls."""
    kind_s = defaultdict(float)
    for label, walls in run.walls.items():
        kind_s[run.kind[label]] += run.per_pass[label] * median(walls)
    return kind_s


def end_to_end_metrics(run: Runner) -> dict:
    medians = [median(w) for w in run.walls.values()]
    return {
        "pipeline_s": (sum(kind_seconds(run).values()), "s"),
        "cmd_geomean_s": (math.exp(fmean(math.log(m) for m in medians)), "s"),
        "peak_rss_mb": (run.max_rss_kb / 1024, "MB"),
    }


def per_command_metrics(run: Runner) -> dict:
    """Per command kind, its seconds per pass (see kind_seconds), and the
    round-trip quantiles; a kind the workload does not run reads 0."""
    kind_s = kind_seconds(run)
    out = {f"{kind}_s": (kind_s[kind], "s") for kind in KINDS}
    q = quantiles(run.roundtrips, n=4) if len(run.roundtrips) > 1 else [0.0] * 3
    out["roundtrip_p50_s"] = (q[1], "s")
    out["roundtrip_p75_s"] = (q[2], "s")
    out["roundtrip_samples"] = (len(run.roundtrips), "count")
    out["failed_frac"] = (len(run.failures) / max(run.attempted, 1), "frac")
    return out


class SetUp:
    """SETUP_REPEATS set-ups of one workload and seed, each in a fresh process
    and directory.  The first writes the inputs the commands use, in setup0;
    every later one must write the same files, and is then removed."""

    def __init__(self, workload_name: str, seed: int, work: str, env):
        self.argv = [sys.executable, os.path.join(HERE, "make_inputs.py"),
                     workload_name, str(seed)]
        self.work = work
        self.env = env
        self.times: list[float] = []
        self.digests = None

    def once(self) -> None:
        out_dir = os.path.join(self.work, f"setup{len(self.times)}")
        t0 = perf_counter()
        proc = subprocess.run([*self.argv, out_dir], env=self.env,
                              capture_output=True, text=True, timeout=120)
        self.times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        digests = {f: ck.sha256_file(os.path.join(out_dir, f))
                   for f in sorted(os.listdir(out_dir))}
        if self.digests is None:
            self.digests = digests
            return
        if digests != self.digests:
            raise RuntimeError("set-up is not deterministic for this seed")
        shutil.rmtree(out_dir)

    def due(self, elapsed: float, span: float) -> None:
        """Runs the repeats whose even share of `span` seconds has begun."""
        while (len(self.times) < SETUP_REPEATS
               and elapsed >= len(self.times) * span / SETUP_REPEATS):
            self.once()

    def finish(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self.once()
        return median(self.times)


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def metadata(args, run: Runner) -> dict:
    u = platform.uname()
    return {
        "machine": f"{u.system} {u.release} {u.machine}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_repeats": SETUP_REPEATS,
        "passes": run.pass_index + 1,
        "commands_run": run.attempted,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    t_begin = perf_counter()

    if not os.path.isfile(os.path.join(SRC, "amplekit", "cli.py")):
        print(f"error: no amplekit sources under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=SRC)
    work = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    cwd = os.getcwd()
    try:
        setups = SetUp(args.workload, args.seed, work, env)
        setups.once()
        os.chdir(os.path.join(work, "setup0"))
        subprocess.run([sys.executable, "-m", "amplekit.cli", "--help"], env=env,
                       stdout=subprocess.DEVNULL, check=True, timeout=60)  # warm bytecode
        workload = WORKLOADS[args.workload](args.seed)
        workload.validate_inputs()

        tracer = None
        if args.trace:
            sys.path.insert(0, SRC)
            import amplekit.cli
            from tracing import ROOT as ROOT_SPAN, Tracer
            if not os.path.abspath(amplekit.cli.__file__).startswith(SRC + os.sep):
                print(f"error: amplekit imported from {amplekit.cli.__file__}", file=sys.stderr)
                return 2
            tracer = Tracer()
            traced_main = tracer.wrap(ROOT_SPAN, amplekit.cli.main)
            command_spans = []          # (command line, first span, end span)

            def traced(argv):
                first = len(tracer.spans)
                tracer.install()
                try:
                    return traced_main(argv)
                finally:
                    tracer.uninstall()
                    command_spans.append((" ".join(argv), first, len(tracer.spans)))
            run = Runner(env, traced, amplekit.cli.main)
        else:
            run = Runner(env)
        passes = 1 if args.trace else max(1, round(args.seconds / workload.PASS_SECONDS))
        complete = run.run_passes(workload, passes, t_begin, setups.due)
        setup_s = setups.finish()
    except (RuntimeError, ck.CheckFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    if tracer is None:
        report = end_to_end_metrics(run)
        declared = load_declared("end_to_end")
    else:
        report = tracer.metrics()
        plain, traced_sum = sum(run.plain_walls), sum(run.traced_walls)
        report["cli.startup_s"] = (median(run.startup), "s")
        report["trace.overhead_frac"] = ((traced_sum - plain) / plain, "frac")
        # self times telescope to the root span, so what is reported is the part
        # of each command's in-process wall they leave out: the harness's own
        # bookkeeping outside cli.main
        self_times = tracer.self_times()
        per_cmd = [(cmd, first, end, wall - sum(self_times[first:end]))
                   for (cmd, first, end), wall in zip(command_spans, run.traced_walls)]
        report["trace.unattributed_max_s"] = (max(gap for *_, gap in per_cmd), "s")
        report["trace.spans"] = (len(tracer.spans), "count")
        declared = load_declared("per_layer")
    report.update(per_command_metrics(run))
    report["setup_s"] = (setup_s, "s")
    correct = complete and not run.failures
    for label, reason in run.failures:
        print(f"FAILED {label}: {reason}")
    if not complete:
        print("INCOMPLETE: the first pass did not finish in the time a run may take")
    labels = {label: {"runs": len(w), "median_s": median(w), "walls_s": w}
              for label, w in run.walls.items()}
    for name, (value, unit) in report.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"setup times: {', '.join(f'{t:.4f}' for t in setups.times)} s")
    for label, v in labels.items():
        print(f"command {label!r}: median {v['median_s']:.4f} s over {v['runs']} runs")
    print(f"commands: {run.attempted} attempted, {len(run.failures)} failed")

    missing = [name for name in declared if name not in report]
    if missing:
        print(f"error: no value for declared metrics {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": report[name][0], "unit": report[name][1]}
                    for name in declared},
    }
    full = {"meta": metadata(args, run), "commands": labels,
            "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
            "failures": run.failures, "result": result}
    if tracer is not None:
        full["spans_per_command"] = [
            {"command": cmd, "unattributed_s": gap, "inclusive_s": tracer.inclusive(first, end)}
            for cmd, first, end, gap in per_cmd]
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)
    print(json.dumps(result))
    return 0


def load_declared(section: str) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[section]]


if __name__ == "__main__":
    sys.exit(main())
