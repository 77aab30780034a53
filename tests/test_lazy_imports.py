"""Each command loads only the modules it runs.

Every test starts a fresh interpreter with the checkout's `src` on the path,
so that what an earlier test imported cannot hide an eager import.
"""
import json
import os
import subprocess
import sys

import pytest

from amplekit import core, generate, repmap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the names `amplekit/__init__.py` imported eagerly before it became lazy
OLD_EXPORTS = {
    "core": ["ConceptClass", "Cube", "MAX_WIDTH", "bit", "complement",
             "concept_from_string", "concept_to_string", "coords", "cube_in_class",
             "drop", "format_class", "interval", "mask_of", "parse_class_text",
             "popcount", "product", "read_class_file", "reduce", "restrict", "tail",
             "twist", "write_class_file"],
    "errors": ["AmplekitError", "ContractError", "DecodeError", "DomainError",
               "EmptyClassError", "IntegrityError", "NotConnectedError",
               "OrderingValidationError", "ParseError"],
    "shatter": ["AmpleReport", "ample_characterization_report", "forbidden_labels",
                "is_ample", "is_maximum", "phi", "shattered_complex",
                "strongly_shattered_complex", "vc_dim"],
    "graph": ["corners", "cube_tags", "cubes_through", "gallery", "is_connected",
              "is_corner", "is_isometric", "maximal_cubes"],
    "peeling": ["CollapseSequence", "PeelingResult", "ShellingOrder",
                "antimatroid_peeling", "classify_ordering", "collapse_sequence",
                "corner_peeling_search", "ordering_to_shelling", "replay_collapse",
                "shelling_to_ordering", "two_dim_peeling", "validate_shelling"],
    "repmap": ["RepMapReport", "build_maximum_repmap", "certify_repmap", "check_uso",
               "incomplete_cube_sources", "isr_instance", "isr_solve",
               "peeling_to_uso", "pre_rep_c1", "pre_rep_c2", "sub_repmap_cube",
               "sub_repmap_reduction", "sub_repmap_restriction",
               "tail_matching_analysis", "uso_to_peeling", "verify_repmap"],
    "compress": ["CompressionScheme", "Sample", "format_sample", "parse_sample",
                 "verify_scheme"],
}
HEAVY = {"amplekit.repmap", "amplekit.shatter", "amplekit.graph", "amplekit.matching",
         "amplekit.peeling", "amplekit.generate"}

# standard-library modules that cost a command's start-up milliseconds
# (`dataclasses` also imports `inspect`, which imports `ast`, `dis` and
# `tokenize`) and that no command needs
START_UP_HEAVY = {"dataclasses", "inspect"}

# runs `python -m amplekit.cli <argv>` in this interpreter, then reports the
# exit code and the modules it loaded on stderr's last line
CLI_RUN = """
import json, runpy, sys
sys.argv = ["amplekit", *sys.argv[1:]]
try:
    runpy.run_module("amplekit.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)
"""


def python(code, *args):
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=SRC))


def cli_run_all(*argv):
    """(stdout, exit code, set of all modules loaded)"""
    proc = python(CLI_RUN, *argv)
    code, loaded = json.loads(proc.stderr.splitlines()[-1])
    return proc.stdout, code, set(loaded)


def cli_run(*argv):
    """(stdout, exit code, set of amplekit modules loaded)"""
    out, code, loaded = cli_run_all(*argv)
    return out, code, {m for m in loaded if m.split(".")[0] == "amplekit"}


@pytest.fixture(scope="module")
def ball_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("lazy")
    C = generate.hamming_ball(5, 2)
    cls, rep = d / "ball.txt", d / "ball.rep"
    core.write_class_file(str(cls), C)
    r = repmap.build_maximum_repmap(C)
    rep.write_text(repmap.format_repmap(r, C.n))
    return str(cls), str(rep), r


def test_import_amplekit_loads_no_submodule():
    proc = python("import sys, amplekit; "
                  "print(sorted(m for m in sys.modules if m.startswith('amplekit.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_decompress_loads_only_core_and_errors(ball_files):
    _, rep, r = ball_files
    c = core.mask_of([1, 2])
    out, code, loaded = cli_run("decompress", "--repmap", rep, "--set",
                                "{" + ",".join(map(str, core.coords(r[c]))) + "}")
    assert (out, code) == ("11000\n", 0)
    assert loaded - {"amplekit.cli"} == {"amplekit", "amplekit.core", "amplekit.errors"}


def test_compress_loads_none_of_the_heavy_modules(ball_files):
    cls, rep, r = ball_files
    c = core.mask_of([1, 2])
    out, code, loaded = cli_run("compress", cls, "--repmap", rep,
                                "--sample", "x1=1,x2=1,x3=0")
    assert (out, code) == ("{" + ",".join(map(str, core.coords(r[c]))) + "}\n", 0)
    assert "amplekit.compress" in loaded and not loaded & HEAVY


def test_commands_load_no_heavy_standard_modules(ball_files):
    bare = set(python("import sys; print(' '.join(sys.modules))").stdout.split())
    cls, rep, _ = ball_files
    runs = {
        "compress": ("compress", cls, "--repmap", rep, "--sample", "x1=1,x3=0"),
        "decompress": ("decompress", "--repmap", rep, "--set", "{}"),
        "check": ("check", cls),
        "peel": ("peel", cls),
        "repmap build": ("repmap", "build", cls),
        "generate": ("generate", "--kind", "random_ample", "--n", "6", "--size", "20"),
    }
    for name, argv in runs.items():
        out, code, loaded = cli_run_all(*argv)
        assert code == 0 and out, name
        assert not (loaded - bare) & START_UP_HEAVY, (name, (loaded - bare) & START_UP_HEAVY)


def test_peel_side_commands_load_neither_shatter_nor_repmap(ball_files, tmp_path):
    cls, _, _ = ball_files
    out, code, loaded = cli_run("peel", cls)
    assert code == 0 and out
    order = tmp_path / "ball.order"
    order.write_text("n=5\n" + out, encoding="utf-8")
    runs = {
        "peel": (out, code, loaded),
        "peel twodim": cli_run("peel", cls, "--algorithm", "twodim"),
        "shelling": cli_run("shelling", str(order)),
        "collapse": cli_run("collapse", cls),
        "generate": cli_run("--seed", "3", "generate", "--kind", "random_ample",
                            "--n", "6", "--size", "20"),
    }
    for name, (out, code, loaded) in runs.items():
        assert code == 0 and out, name
        assert not loaded & {"amplekit.shatter", "amplekit.repmap"}, (name, loaded)
    # `batch` loads `shatter` where it needs it
    out, code, loaded = cli_run("batch", cls)
    assert (out, code) == (generate.batch_csv([generate.batch_row(
        cls, generate.hamming_ball(5, 2))]), 0)
    assert "amplekit.shatter" in loaded


def test_repmap_verify_loads_neither_shatter_nor_matching(ball_files, tmp_path):
    cls, rep, r = ball_files
    bad = dict(r)
    c, d = sorted(r)[:2]
    bad[c] = r[d]
    corrupted = tmp_path / "corrupted.rep"
    corrupted.write_text(repmap.format_repmap(bad, 5))
    for path, want in ((rep, 0), (str(corrupted), 1)):
        out, code, loaded = cli_run("repmap", "verify", cls, "--repmap", path)
        assert code == want and out.endswith(f"valid={1 - want}\n"), (path, out)
        assert "amplekit.repmap" in loaded
        assert not loaded & {"amplekit.shatter", "amplekit.matching"}, (path, loaded)
    # the construction reads `shatter`, but not `matching`
    out, code, loaded = cli_run("repmap", "build", cls)
    assert (out, code) == (repmap.format_repmap(r, 5), 0)
    assert "amplekit.shatter" in loaded and "amplekit.matching" not in loaded


def test_isr_loads_neither_shatter_nor_matching(ball_files):
    cls, _, _ = ball_files
    for argv in (("isr", cls), ("isr", "--json", cls)):
        out, code, loaded = cli_run(*argv)
        assert code == 0 and out, argv
        assert loaded - {"amplekit.cli"} == {
            "amplekit", "amplekit.core", "amplekit.errors", "amplekit.graph",
            "amplekit.repmap"}, (argv, loaded)


def test_old_exports_resolve_lazily_to_their_module_objects():
    code = """
import importlib, json, sys
import amplekit
exports = json.loads(sys.argv[1])
bad = []
for mod, names in exports.items():
    for name in names:
        # attribute access first, before the submodule is imported by name
        if getattr(amplekit, name) is not getattr(
                importlib.import_module("amplekit." + mod), name):
            bad.append(("attr", name))
star = {}
exec("from amplekit import *", star)
for mod, names in exports.items():
    module = importlib.import_module("amplekit." + mod)
    if star.get(mod) is not module:
        bad.append(("star", mod))
    bad.extend(("star", name) for name in names
               if star.get(name) is not getattr(module, name))
print(json.dumps(bad))
print(amplekit.__version__, amplekit.generate.__name__)
print(set(sum(exports.values(), [])) <= set(dir(amplekit)))
"""
    proc = python(code, json.dumps(OLD_EXPORTS))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "0.1.0 amplekit.generate", "True"]


def test_unknown_attribute_raises_attribute_error():
    proc = python("import amplekit\n"
                  "try:\n    amplekit.no_such_name\n"
                  "except AttributeError as e:\n    print(e)")
    assert proc.stdout.strip() == "module 'amplekit' has no attribute 'no_such_name'"


def test_repmap_reexports_the_map_format_of_core():
    proc = python("from amplekit import core, repmap\n"
                  "names = ('parse_repmap_text', 'format_repmap')\n"
                  "print(all(getattr(repmap, n) is getattr(core, n) for n in names))")
    assert proc.stdout.strip() == "True", proc.stderr
