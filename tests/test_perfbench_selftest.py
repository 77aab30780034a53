"""The benchmark's own self-test: its failure accounting and every output
checker, run against the CLI of this checkout; and the layer functions its
tracer wraps, looked up in this checkout's modules."""
import importlib.util
import os
import subprocess
import sys

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
