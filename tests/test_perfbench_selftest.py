"""The benchmark's own self-test: its failure accounting and every output
checker, run against the CLI of this checkout; and the layer functions its
tracer wraps, looked up in this checkout's modules."""
import importlib.util
import os
import subprocess
import sys

from amplekit import core, generate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("selftest: ok")


def test_every_traced_layer_resolves_to_a_function():
    # tracing.py wraps each LAYERS entry by importing amplekit.<module> and
    # replacing the attribute; a name that moved must still be found there
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for qual in tracing.LAYERS:
        mod_name, fn_name = qual.split(".")
        module = importlib.import_module("amplekit." + mod_name)
        assert callable(getattr(module, fn_name, None)), qual


def test_a_command_past_its_time_out_is_filed_as_timed_out(tmp_path):
    # `isr --json` on ball(7,5) writes its 5.0 million conflicting pairs, so
    # its time is set by its output and no solver can make it finish in 1 s
    core.write_class_file(str(tmp_path / "ball_7_5.txt"), generate.hamming_ball(7, 5))
    child = (
        "import os, sys\n"
        f"sys.path.insert(0, {os.path.join(ROOT, 'perfbench')!r})\n"
        "import run\n"
        "run.OP_TIMEOUT = 1\n"
        "runner = run.Runner(dict(os.environ, PYTHONPATH=run.SRC))\n"
        "runner.cli('isr --json', 'isr', ['isr', '--json', 'ball_7_5.txt'], 0, lambda out: None)\n"
        "print(repr(runner.failures))\n")
    proc = subprocess.run([sys.executable, "-B", "-c", child], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == repr([("isr --json", "timed out after 1 s")])
