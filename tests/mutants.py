"""Pinned mutants of the fast paths: each one must make its named tests fail.

Run from anywhere, with pytest installed:

    python tests/mutants.py

A mutant is a file of the checkout, an exact source string that occurs once
in it, the string's replacement, and the tests that must fail.  For each
mutant the whole checkout is copied into a temporary directory, because
pyproject.toml's `pythonpath = ["src"]` puts the tests' own `src/` ahead of
PYTHONPATH, so a mutated `src/` elsewhere would not be imported.  The mutant
is applied in the copy and its tests run there with `-x`: pytest exiting 1
(a test failed) kills the mutant, exiting 0 lets it survive.  A source
string that does not occur exactly once, and any other pytest status (a
test not found, an import error), is an error, as is a named test that
fails on the unmutated checkout.  The script exits 0 only when every mutant
run is killed.

The file name does not match `test_*.py`, so pytest does not collect it.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")

ORBITS = "tests/test_small_n.py::test_each_ample_orbit_and_its_complement_match_the_oracles_on_n4"
MAXIMUM_ORBITS = "tests/test_small_n.py::test_each_maximum_orbit_on_n5_matches_the_oracles"
N4_SWEEP = "tests/test_small_n.py::test_recognition_matches_the_definitions_on_every_class_on_n4"
PEEL_REFERENCE = "tests/test_peeling.py::test_search_matches_recursive_reference"
R2_SWEEPS = "tests/test_repmap.py::test_r2_and_r3_match_their_sweeps"
R2_ONE_DOMAIN = "tests/test_repmap.py::test_r2_reads_one_domain_of_every_class"
R2_NOT_AMPLE = "tests/test_repmap.py::test_every_map_on_a_class_that_is_not_ample_fails_r2"
DOMAIN_RULE = "tests/test_core.py::test_every_entry_refuses_a_coordinate_outside_1_to_n"
SCHEME = "tests/test_compress.py::test_verify_scheme_equals_the_enumeration_oracle"
REPORT = "tests/test_shatter.py::test_report_matches_its_oracle_field_by_field"
PEELING_TO_USO = "tests/test_repmap.py::test_peeling_to_uso_rejects_bad_ordering"
SCHEME_OVERSIZE = ("tests/test_compress.py::"
                   "test_verify_scheme_equals_the_enumeration_oracle_on_oversize_images")


class Mutant(NamedTuple):
    name: str
    path: str
    source: str
    replacement: str
    tests: tuple


MUTANTS = (
    # the peeling search rechecks one concept too few after a peel
    Mutant("recheck-one-short", "src/amplekit/peeling.py",
           "recheck(shared)", "recheck(shared[:-1])", (ORBITS,)),
    # after a backtrack a level resumes at its greatest corner above the last
    Mutant("resume-at-the-greatest-corner", "src/amplekit/peeling.py",
           "min((u for u in corners if u > last)", "max((u for u in corners if u > last)",
           (PEEL_REFERENCE,)),
    # a backtrack rechecks only the concept it puts back
    Mutant("backtrack-rechecks-one", "src/amplekit/peeling.py",
           "recheck(around(last))", "recheck([last])", (PEEL_REFERENCE,)),
    # the search forgets the levels it found to fail
    Mutant("no-failed-memo", "src/amplekit/peeling.py",
           "if gone in failed else", "if False else", (PEEL_REFERENCE,)),
    # a thick face's x-cube pairs with the side of the face that the coface keeps
    Mutant("collapse-lift-wrong-side", "src/amplekit/peeling.py",
           "q0 if p0 is None else q1", "q1 if p0 is None else q0",
           ("tests/test_peeling.py::test_collapse_reads_the_complex_like_the_concept_recursion",)),
    # every concept is a corner
    Mutant("every-concept-a-corner", "src/amplekit/graph.py",
           "    return _is_corner_in(s, c, _neighbour_dirs(s, c, C.n))\n",
           "    return True\n",
           ("tests/test_slices.py::test_ampleness_and_corners_of_seeded_5_classes",)),
    # class and map files accept width 0
    Mutant("file-width-from-0", "src/amplekit/core.py",
           "    if not 1 <= n <= MAX_WIDTH:\n", "    if not 0 <= n <= MAX_WIDTH:\n",
           ("tests/test_repmap.py::test_repmap_parse_refuses_a_given_width_outside_1_to_24",)),
    # R2 starts its scan above every set, not at Z*
    Mutant("r2-scan-from-the-top", "src/amplekit/repmap.py",
           "    best = min((Z for Z in counts.keys() | sh if counts[Z] != (Z in sh)),"
           " default=1 << C.n)\n",
           "    best = 1 << C.n\n",
           (R2_SWEEPS, ORBITS)),
    # Z* counts only images that occur twice, not images that miss sh(C)
    Mutant("r2-odd-set-only-repeated-images", "src/amplekit/repmap.py",
           "counts[Z] != (Z in sh)", "counts[Z] > 1", (R2_SWEEPS, ORBITS)),
    # R2's least clashing union asks the concepts to differ inside r(d) alone
    Mutant("r2-clash-inside-one-image", "src/amplekit/repmap.py",
           "if u < best and not (c ^ d) & u:", "if u < best and not (c ^ d) & rd:",
           (R2_SWEEPS,)),
    # sh(C) is taken as X(C) on every class, ample or not
    Mutant("r2-cube-supports-as-shattered-sets", "src/amplekit/graph.py",
           "    if len(st) == C.size:", "    if True:", (R2_ONE_DOMAIN, R2_NOT_AMPLE)),
    # the scheme's count takes the supersets Y <= Y*, not Y < Y*
    Mutant("scheme-count-up-to-the-failing-domain", "src/amplekit/compress.py",
           "_supersets_below(v, Y)", "_supersets_below(v, Y + 1)", (SCHEME,)),
    # the scheme checks no size bound at its failing domain
    Mutant("scheme-no-size-bound", "src/amplekit/compress.py",
           "        elif popcount(r[hits[0]]) > d:", "        elif False:", (SCHEME_OVERSIZE,)),
    # the report passes every bijection onto X(C), with no C1 or C2
    Mutant("report-certified-by-the-bijection-alone", "src/amplekit/repmap.py",
           "for c in cert)", "for c in cert[:1])",
           ("tests/test_repmap.py::test_certify_every_bijection_n_le_2",)),
    # the scheme passes every bijection onto X(C), with no C1 or C2
    Mutant("scheme-certified-by-the-bijection-alone", "src/amplekit/compress.py",
           "repmap._certificate(C, r, tags)", "repmap._certificate(C, r, tags)[:1]",
           (SCHEME,)),
    # an ordering is taken as a corner peeling when its out-map passes C1 alone
    Mutant("peeling-to-uso-c1-alone", "src/amplekit/repmap.py",
           "check_uso(C, o).ok", "check_uso(C, o).c1.ok", (PEELING_TO_USO,)),
    # an ordering is taken as a corner peeling when its out-map passes C2 alone
    Mutant("peeling-to-uso-c2-alone", "src/amplekit/repmap.py",
           "check_uso(C, o).ok", "check_uso(C, o).c2.ok", (PEELING_TO_USO,)),
    # a child cube's directions are read off one facet, not both
    Mutant("cube-tags-one-facet", "src/amplekit/graph.py",
           "child[t] = m & up[t | b]", "child[t] = m",
           ("tests/test_graph.py::test_cube_tags_matches_the_levelwise_oracle_with_key_order",)),
    # the fibre walk goes on past a fibre with no concept holding the coordinate
    Mutant("fibre-walk-one-side", "src/amplekit/shatter.py",
           "if not (a and c):", "if not a:",
           ("tests/test_shatter.py::test_engine_matches_oracle_random_n5_n6",)),
    # a label counts as missed only when no tail realises it either
    Mutant("missed-labels-empty-of-extra-too", "src/amplekit/shatter.py",
           "if not f & own", "if not f",
           ("tests/test_repmap.py::test_tail_matching_report_matches_the_per_tail_edge_scan",
            MAXIMUM_ORBITS)),
    # a missed simplex's source keeps the x of the class's cube: every sigma-cube
    # of a Hamming ball has tag 0, so only a class with other tags kills it
    Mutant("missed-simplex-source-not-projected", "src/amplekit/repmap.py",
           "(t | next(iter(patterns))) & alive", "t | next(iter(patterns))",
           (MAXIMUM_ORBITS,)),
    # the lopsided test pairs Y with the complement's set Y, not with X minus Y
    Mutant("lopsided-partner-not-complemented", "src/amplekit/shatter.py",
           "C.domain_mask ^ Z", "Z", (REPORT,)),
    # every nonempty reduction counts as connected
    Mutant("reductions-always-connected", "src/amplekit/shatter.py",
           "== len(ts)", ">= 1", (REPORT,)),
    # |X(C^x)| counts only the support {x}, not every support that holds x
    Mutant("hyperplane-ample-counts-the-wrong-supports", "src/amplekit/shatter.py",
           "if Y & b) == len", "if Y == b) == len", (REPORT,)),
    # every C^x ample counts as enough, connected or not
    Mutant("hyperplanes-skip-connectivity", "src/amplekit/shatter.py",
           "connected[0] and ", "", (REPORT,)),
    # the ISR conflict rule compares Y1 and Y2 on the lowest coordinate of S alone
    Mutant("isr-conflict-lowest-coordinate", "src/amplekit/repmap.py",
           "& S)", "& S & -S)",
           ("tests/test_repmap.py::test_isr_instance_matches_the_all_pairs_builder",)),
    # R4's pair predicate reads the union of the images, as R1 does
    Mutant("r4-union-of-images", "src/amplekit/repmap.py",
           "(r[c] ^ r[d])", "(r[c] | r[d])",
           ("tests/test_repmap.py::test_one_pair_sweep_matches_the_r1_and_r4_sweeps",)),
    # C2 takes a cube whose two facet sinks both hold b as sound
    Mutant("c2-either-sink", "src/amplekit/repmap.py",
           "(a ^ c) & b", "(a | c) & b",
           ("tests/test_repmap.py::"
            "test_check_c2_matches_the_sweep_oracle_on_perturbed_and_random_maps",)),
    # the domain rule names the highest coordinate above n, not the least
    Mutant("domain-rule-highest-coordinate", "src/amplekit/core.py",
           "(high & -high).bit_length()", "high.bit_length()", (DOMAIN_RULE,)),
    # the domain rule lets coordinate n + 1 through
    Mutant("domain-rule-one-wider", "src/amplekit/core.py",
           "if high := Y >> n:", "if high := Y >> n + 1:", (DOMAIN_RULE,)),
    # the slice tables leave out the cubes that use the top coordinate
    Mutant("slice-table-without-the-x-cubes", "tests/classes.py",
           " | prev[m & low & m >> half] << half", "",
           ("tests/test_slices.py::test_the_tables_match_cube_tags_on_every_class_up_to_n_4",
            N4_SWEEP)),
    # the census takes a class with fewer cubes than concepts as ample too
    Mutant("census-ample-below-the-size", "tests/classes.py",
           "].bit_count() == C.size", "].bit_count() <= C.size", (PEEL_REFERENCE,)),
    # the isometry test skips the points of P without coordinate 1
    Mutant("isometric-odd-points-only", "src/amplekit/graph.py",
           "and u != v:", "and u != v and u & 1:",
           ("tests/test_graph.py::test_is_isometric_matches_bfs_oracle",)),
)


def pytest_status(checkout: Path, tests) -> int:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=checkout, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def run(mutant: Mutant, workdir: Path) -> str:
    """'killed', 'survived', or 'error: …' for one mutant."""
    original = (ROOT / mutant.path).read_text(encoding="utf-8")
    found = original.count(mutant.source)
    if found != 1:
        return f"error: the source string occurs {found} times in {mutant.path}"
    checkout = workdir / mutant.name
    shutil.copytree(ROOT, checkout, ignore=IGNORED)
    (checkout / mutant.path).write_text(original.replace(mutant.source, mutant.replacement),
                                        encoding="utf-8")
    status = pytest_status(checkout, mutant.tests)
    shutil.rmtree(checkout)
    return {0: "survived", 1: "killed"}.get(status, f"error: pytest exited {status}")


def main() -> int:
    status = pytest_status(ROOT, sorted({t for m in MUTANTS for t in m.tests}))
    if status != 0:
        print(f"error: the named tests exit {status} on the unmutated checkout")
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        killed = 0
        for m in MUTANTS:
            start = time.perf_counter()
            verdict = run(m, workdir)
            killed += verdict == "killed"
            print(f"{m.name}: {verdict} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
