"""Command-line interface: `amplekit <subcommand>`.

Exit codes: 0 = success, 1 = a check failed (invalid repmap, not peelable,
failing scheme, ...), 2 = usage or parse error, or out of memory.
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
        out.append(core._check_coordinate(x, n))
    return out


# ---------------------------------------------------------------- subcommands

def cmd_check(args) -> int:
    from . import shatter

    C = core.read_class_file(args.file)
    for name, value in shatter.summary(C).items():
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
    report = repmap.verify_repmap(C, r)
    for name, check in zip(report._fields, report):
        print(f"{name}={int(check.ok)}")
    print(f"valid={int(report.valid)}")
    return 0 if report.valid else 1


def cmd_isr(args) -> int:
    from . import repmap

    C = core.read_class_file(args.file)
    inst = repmap.isr_instance(C)
    if args.json:
        sys.stdout.writelines(repmap._isr_json(inst))
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
    print("{" + ",".join(str(x) for x in core.coords(alpha)) + "}")
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
    C = generate.generate(args.kind, args.n, args.d, args.size, args.seed, facets)
    _write_or_print(core.format_class(C), args.output)
    return 0


def cmd_batch(args) -> int:
    from . import generate

    rows = [generate.batch_row(path, core.read_class_file(path)) for path in args.files]
    _write_or_print(generate.batch_csv(rows), args.output)
    return 0


def cmd_collapse(args) -> int:
    from . import peeling

    C = core.read_class_file(args.file)
    seq, survivor = peeling.collapse_sequence(C)
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

def _decimal(text: str) -> int:
    """argparse type of `--seed`: ASCII digits only (see
    `core.parse_decimal`), where int() would also take a sign, '_' and
    non-ASCII digits."""
    return core.parse_decimal(text)


def _signed_decimal(text: str) -> int:
    """argparse type of the integer options with a range check: `_decimal`
    or '-' followed by ASCII digits, so that a negative value reaches the
    range check and its message."""
    t = text.strip()
    if t.startswith("-") and t[1:].isascii() and t[1:].isdigit():
        return -int(t[1:])
    return core.parse_decimal(t)


# argparse names the type in its error: "invalid int value: '...'"
_decimal.__name__ = _signed_decimal.__name__ = "int"


class _Subcommand:
    """A subparser that is built only when the command line selects it.

    `add_parser` makes one of these per command (the `parser_class` of the
    subparsers action) from the command's row of `COMMANDS` and keeps its
    help line for the top-level help; the argparse parser and its arguments
    are made on the first parse, so a run builds one subparser, not all of
    them.
    """

    def __init__(self, *, prog: str, handler, arguments):
        self.prog = prog
        self.handler = handler
        self.arguments = arguments

    def parse_known_args(self, args=None, namespace=None):
        p = argparse.ArgumentParser(prog=self.prog)
        for flags, keywords in self.arguments:
            p.add_argument(*flags, **keywords)
        p.set_defaults(func=self.handler)
        return p.parse_known_args(args, namespace)


_FILE = (("file",), {})
_OUTPUT = (("-o", "--output"), {})

# name -> (help line, handler, arguments as (flags, add_argument keywords)
# pairs in usage order), in help order
COMMANDS = {
    "check": ("shattering / ample / maximum summary", cmd_check, (_FILE,)),
    "graph": ("one-inclusion graph", cmd_graph,
              (_FILE, (("--dot",), dict(action="store_true")))),
    "peel": ("corner peeling", cmd_peel, (
        _FILE,
        (("--algorithm",), dict(choices=("greedy", "antimatroid", "twodim"),
                                default="greedy")))),
    "repmap": ("representation maps", cmd_repmap, (
        (("action",), dict(choices=("build", "verify"))), _FILE, (("--repmap",), {}))),
    "isr": ("independent system of representatives", cmd_isr,
            (_FILE, (("--json",), dict(action="store_true")))),
    "tailmatch": ("tail/forbidden-label matching", cmd_tailmatch,
                  (_FILE, (("-x",), dict(type=_signed_decimal, required=True)))),
    "compress": ("compress a sample to a coordinate set", cmd_compress, (
        _FILE, (("--repmap",), dict(required=True)), (("--sample",), dict(required=True)))),
    "decompress": ("reconstruct a concept from a set", cmd_decompress, (
        (("--repmap",), dict(required=True)), (("--set",), dict(required=True)))),
    "generate": ("generate a class file", cmd_generate, (
        (("--kind",), dict(required=True, choices=(
            "cube", "hamming_ball", "simplicial", "random_ample"))),
        (("--n",), dict(type=_signed_decimal, required=True)),
        (("--d",), dict(type=_signed_decimal, default=0)),
        (("--size",), dict(type=_signed_decimal, default=0)),
        (("--facets",), dict(default="")),
        _OUTPUT)),
    "batch": ("summary CSV over class files", cmd_batch,
              ((("files",), dict(nargs="+")), _OUTPUT)),
    "collapse": ("cubical collapse sequence", cmd_collapse, (_FILE,)),
    "shelling": ("ordering (file line order) -> shelling", cmd_shelling, (_FILE,)),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="amplekit",
                                description="tools for ample concept classes")
    p.add_argument("--seed", type=_decimal, default=0)
    p.add_argument("--budget", type=_signed_decimal, default=10**6)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name, (help_line, handler, arguments) in COMMANDS.items():
        sub.add_parser(name, help=help_line, handler=handler, arguments=arguments)
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
    except MemoryError:
        # exit 1 would report a check that never ran
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
