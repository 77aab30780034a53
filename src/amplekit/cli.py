"""Command-line interface: `amplekit <subcommand>`.

Exit codes: 0 = success, 1 = a check failed (invalid repmap, not peelable,
failing scheme, ...), 2 = usage or parse error.
"""
from __future__ import annotations

import argparse
import sys

# each handler imports the modules it runs, so that a command loads no more
# of the package than it needs
from . import core
from .errors import AmplekitError, ParseError


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_or_print(text: str, path) -> None:
    """Write text to the file at path, or to stdout when no path is given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")


def _coords(parts, n: int) -> list[int]:
    """Coordinates given as decimal strings, each checked to lie in 1..n."""
    out = []
    for part in parts:
        try:
            x = core.parse_decimal(part)
        except ValueError:
            raise ParseError(f"bad coordinate {part.strip()!r}") from None
        if not 1 <= x <= n:
            raise ParseError(f"coordinate {x} outside 1..{n}")
        out.append(x)
    return out


# ---------------------------------------------------------------- subcommands

def cmd_check(args) -> int:
    from . import shatter

    C = core.read_class_file(args.file)
    for name, value in shatter.summary(C).printed().items():
        print(f"{name}={value}")
    return 0


def cmd_graph(args) -> int:
    from . import graph

    C = core.read_class_file(args.file)
    if args.dot:
        print(graph.to_dot(C), end="")
    else:
        es = graph.edges(C)
        cs = graph.corners(C)
        print(f"vertices={C.size}")
        print(f"edges={len(es)}")
        print(f"connected={int(graph.is_connected(C))}")
        print("corners=" + ",".join(core.concept_to_string(c, C.n) for c in cs))
    return 0


def cmd_peel(args) -> int:
    from . import peeling

    C = core.read_class_file(args.file)
    if args.algorithm == "antimatroid":
        ordering = peeling.antimatroid_peeling(C)
    elif args.algorithm == "twodim":
        ordering = peeling.two_dim_peeling(C)
    else:
        res = peeling.corner_peeling_search(C, budget=args.budget)
        if not res.peelable:
            print("NOT_PEELABLE " + ("proven" if res.proven else "budget"))
            return 1
        ordering = res.ordering
    for c in ordering:
        print(core.concept_to_string(c, C.n))
    return 0


def cmd_repmap(args) -> int:
    from . import repmap

    C = core.read_class_file(args.file)
    if args.action == "build":
        r = repmap.build_maximum_repmap(C)
        print(repmap.format_repmap(r, C.n), end="")
        return 0
    if not args.repmap:
        raise ParseError("repmap verify requires --repmap <file>")
    r = repmap.parse_repmap_text(_read_text(args.repmap), C.n)
    report = repmap.certify_repmap(C, r)
    for name in ("r1", "r2", "r3", "r4", "bijective", "c1", "c2"):
        print(f"{name}={int(getattr(report, name).ok)}")
    print(f"valid={int(report.valid)}")
    return 0 if report.valid else 1


def cmd_isr(args) -> int:
    import json

    from . import repmap

    C = core.read_class_file(args.file)
    inst = repmap.isr_instance(C)
    if args.json:
        out = {
            "vertices": [[core.concept_to_string(c, C.n), sorted(core.coords(y))]
                         for (c, y) in inst.vertices],
            "parts": {core.concept_to_string(c, C.n): list(idxs)
                      for c, idxs in inst.parts.items()},
            "edges": [[i, j] for (i, j) in inst.edges],
        }
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0
    res = repmap.isr_solve(inst, budget=args.budget)
    if res.assignment is None:
        print("NO_ASSIGNMENT " + ("proven" if res.proven else "budget"))
        return 1
    print(repmap.format_repmap(res.assignment, C.n), end="")
    return 0


def cmd_tailmatch(args) -> int:
    from . import repmap

    C = core.read_class_file(args.file)
    rep = repmap.tail_matching_analysis(C, args.x)
    print(f"coord={rep.coord}")
    print(f"tails={len(rep.tails)}")
    print(f"labels={len(rep.labels)}")
    print(f"status={rep.status}")
    if rep.degree_one_tails:
        print("degree_one_tails=" + ",".join(
            core.concept_to_string(t, rep.reduced.n) for t in rep.degree_one_tails))
    return 0 if rep.status != "no_perfect_matching" else 1


def cmd_compress(args) -> int:
    from . import compress

    C = core.read_class_file(args.file)
    r = core.parse_repmap_text(_read_text(args.repmap), C.n)
    scheme = compress.CompressionScheme(C, r)
    s = compress.parse_sample(args.sample, C.n)
    alpha = scheme.compress(s)
    print("{" + ",".join(str(x) for x in sorted(core.coords(alpha))) + "}")
    return 0


def cmd_decompress(args) -> int:
    # the width comes from the repmap file itself
    r, n = core._parse_repmap(_read_text(args.repmap))
    inv = core._inverse(r)
    text = args.set.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError("expected a set like {1,3}")
    body = text[1:-1].strip()
    alpha = core.mask_of(_coords(body.split(","), n)) if body else 0
    if alpha not in inv:
        print("NO_CONCEPT")
        return 1
    print(core.concept_to_string(inv[alpha], n))
    return 0


def cmd_generate(args) -> int:
    from . import generate

    facets = ()
    if args.facets:
        facets = tuple(
            core.mask_of(_coords([x for x in grp.split(",") if x], args.n))
            for grp in args.facets.split(";") if grp.strip())
    spec = generate.GeneratorSpec(kind=args.kind, n=args.n, d=args.d,
                                  size=args.size, seed=args.seed, facets=facets)
    _write_or_print(core.format_class(generate.generate(spec)), args.output)
    return 0


def cmd_batch(args) -> int:
    from . import generate

    rows = [generate.batch_row(path, core.read_class_file(path)) for path in args.files]
    _write_or_print(generate.batch_csv(rows), args.output)
    return 0


def cmd_collapse(args) -> int:
    from . import peeling

    C = core.read_class_file(args.file)
    seq = peeling.collapse_sequence(C)
    removed = {q.tag for q, _ in seq if q.support == 0}
    survivor = next(c for c in C if c not in removed)
    for q, p in seq:
        print(f"{core.concept_to_string(q.tag, C.n)}/{core.concept_to_string(q.support, C.n)}"
              f" -> "
              f"{core.concept_to_string(p.tag, C.n)}/{core.concept_to_string(p.support, C.n)}")
    print("survivor " + core.concept_to_string(survivor, C.n))
    return 0


def cmd_shelling(args) -> int:
    from . import peeling

    # the concept lines of the file are taken in order as the ordering
    n, ordering = core._parse_class(_read_text(args.file))
    sh = peeling.ordering_to_shelling(core.ConceptClass(n, ordering), ordering)
    for f in sh.facets:
        print(core.concept_to_string(f, sh.n))
    return 0


# -------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="amplekit",
                                description="tools for ample concept classes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=10**6)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="shattering / ample / maximum summary")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("graph", help="one-inclusion graph")
    sp.add_argument("file")
    sp.add_argument("--dot", action="store_true")
    sp.set_defaults(func=cmd_graph)

    sp = sub.add_parser("peel", help="corner peeling")
    sp.add_argument("file")
    sp.add_argument("--algorithm", choices=("greedy", "antimatroid", "twodim"),
                    default="greedy")
    sp.set_defaults(func=cmd_peel)

    sp = sub.add_parser("repmap", help="representation maps")
    sp.add_argument("action", choices=("build", "verify"))
    sp.add_argument("file")
    sp.add_argument("--repmap")
    sp.set_defaults(func=cmd_repmap)

    sp = sub.add_parser("isr", help="independent system of representatives")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_isr)

    sp = sub.add_parser("tailmatch", help="tail/forbidden-label matching")
    sp.add_argument("file")
    sp.add_argument("-x", type=int, required=True)
    sp.set_defaults(func=cmd_tailmatch)

    sp = sub.add_parser("compress", help="compress a sample to a coordinate set")
    sp.add_argument("file")
    sp.add_argument("--repmap", required=True)
    sp.add_argument("--sample", required=True)
    sp.set_defaults(func=cmd_compress)

    sp = sub.add_parser("decompress", help="reconstruct a concept from a set")
    sp.add_argument("--repmap", required=True)
    sp.add_argument("--set", required=True)
    sp.set_defaults(func=cmd_decompress)

    sp = sub.add_parser("generate", help="generate a class file")
    sp.add_argument("--kind", required=True,
                    choices=("cube", "hamming_ball", "simplicial", "random_ample"))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, default=0)
    sp.add_argument("--size", type=int, default=0)
    sp.add_argument("--facets", default="")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("batch", help="summary CSV over class files")
    sp.add_argument("files", nargs="+")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_batch)

    sp = sub.add_parser("collapse", help="cubical collapse sequence")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_collapse)

    sp = sub.add_parser("shelling", help="ordering (file line order) -> shelling")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_shelling)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.budget < 0:
        parser.error(f"argument --budget: must not be negative: {args.budget}")
    try:
        return args.func(args)
    except (AmplekitError, OSError, UnicodeDecodeError) as exc:
        # unreadable or non-UTF-8 input files are usage errors, not failed checks
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
