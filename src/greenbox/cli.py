"""Command-line surface.

Exit codes: 0 for success or any computed verdict (including "unknown"),
1 for a reproduction-report failure, 2 for usage and parse errors.  All
output is deterministic for fixed flags.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import engine, identities, munn, report, stephen, vmaps, zoo
from .limits import LIMITS
from .words import Alphabet, parse_word


def _load_structure(spec: str, from_file: bool):
    if from_file:
        with open(spec, "r", encoding="utf-8") as handle:
            return engine.parse_table(handle.read())
    return zoo.parse_zoo(spec)


def cmd_table(args) -> int:
    obj = _load_structure(args.spec, args.file)
    if not isinstance(obj, engine.FiniteSemigroup):
        raise ValueError("spec does not denote a closed finite semigroup; "
                         "use 'green' for balls and windows")
    sys.stdout.write(engine.format_eggbox(obj))
    print("elements: " + " ".join(obj.names))
    return 0


def cmd_green(args) -> int:
    obj = _load_structure(args.spec, args.file)
    if isinstance(obj, engine.FiniteSemigroup):
        return cmd_table(args)
    window = isinstance(obj, zoo.PWindow)
    default = "LR" if window else "LRD"
    for relation in args.relation.upper() if args.relation else default:
        if window:
            count = zoo.p_window_green_counts(obj.n, relation,
                                              margin=args.margin)
            print(f"witnessed {relation}-classes on window "
                  f"[-{obj.n},{obj.n}]: {count} (margin {args.margin}, "
                  "window-verified, not certified)")
            continue
        wg = engine.witnessed_green(obj, relation, margin=args.margin)
        counts = " ".join(f"{r}:{c}" for r, c in
                          sorted(wg.counts_by_radius.items()))
        flag = "yes" if wg.apparently_infinite else "no"
        cert = "certified" if wg.certified else "not certified"
        print(f"witnessed {relation}-classes by radius: {counts}")
        print(f"  apparently infinite: {flag}; {cert}")
    return 0


def cmd_munn(args) -> int:
    alphabet = Alphabet()
    word = parse_word(args.word, alphabet, add_letters=True)
    if not word:
        raise ValueError("empty word")
    tree = munn.munn_tree(word)
    print(f"vertices: {tree.n}")
    print(f"edges: {tree.undirected_edge_count()}")
    print(f"idempotent: {munn.is_fis_idempotent(word)}")
    if len(alphabet) == 1:
        triple = munn.fis_a_triple(word)
        print(f"triple: ({triple.r},{triple.s},{triple.t})")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(munn.to_dot(tree, alphabet))
        print(f"dot written to {args.dot}")
    return 0


def _load_presentation(source: str) -> stephen.Presentation:
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as handle:
            source = handle.read()
    return stephen.parse_presentation(source)


def cmd_stephen(args) -> int:
    pres = _load_presentation(args.presentation)
    word = parse_word(args.word, pres.alphabet) if args.word != "1" else ()
    if args.equal is not None:
        other = parse_word(args.equal, pres.alphabet) if args.equal != "1" else ()
        verdict = stephen.tau_equal(word, other, pres,
                                    max_stages=args.stages,
                                    max_vertices=args.max_vertices)
        print(f"verdict: {verdict}")
        return 0
    trace = stephen.stephen_run(word, pres, max_stages=args.stages,
                                max_vertices=args.max_vertices)
    counts = " ".join(str(c) for c in trace.vertex_counts())
    print(f"closed: {trace.closed}")
    print(f"stage vertex counts: {counts}")
    if args.dot_dir:
        os.makedirs(args.dot_dir, exist_ok=True)
        for i, stage in enumerate(trace.stages, start=1):
            path = os.path.join(args.dot_dir, f"stage{i:02d}.dot")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(munn.to_dot(stage, pres.alphabet,
                                         name=f"stage{i}"))
        print(f"dot stages written to {args.dot_dir}")
    return 0


def cmd_identity(args) -> int:
    obj = _load_structure(args.spec, args.file)
    try:
        idents = identities.catalogue_entry(args.identity)
    except KeyError:
        try:
            idents = [identities.parse_identity(args.identity)]
        except ValueError as exc:
            raise ValueError(
                f"neither a catalogue key nor an identity: {exc}") from None
    if isinstance(obj, zoo.PWindow):
        if args.window is not None:
            obj = zoo.PWindow(args.window)
        for ident in idents:
            result = identities.check_identity_window(obj, ident, obj.elements)
            _print_identity_result(ident, result)
        return 0
    if not isinstance(obj, engine.FiniteSemigroup):
        raise ValueError("identities need a closed table or a pz window")
    for ident in idents:
        result = identities.check_identity_exhaustive(obj, ident)
        _print_identity_result(ident, result, names=obj.names)
    return 0


def _print_identity_result(ident, result, names=None) -> None:
    label = "holds (window-verified)" if result.window_verified and result.holds \
        else ("holds" if result.holds else "fails")
    print(f"{ident}: {label}")
    if result.counterexample is not None:
        def show(v):
            return names[v] if names is not None else str(v)
        assignment = ", ".join(f"{k}={show(v)}"
                               for k, v in sorted(result.counterexample.items()))
        print(f"  counterexample: {assignment}")


def cmd_vmaps(args) -> int:
    if args.what == "ball":
        ball = vmaps.phi_psi_ball(args.cap)
        print(f"ball cap {args.cap}: {len(ball.maps)} distinct maps; "
              f"closed: {ball.closed}")
        for i, m in enumerate(ball.maps):
            print(f"  {ball.witness(i):<{2 * args.cap}} {m}")
        return 0
    if args.what == "idempotents":
        ball = vmaps.phi_psi_ball(args.cap)
        idems = ball.idempotents()
        print(f"{len(idems)} idempotents in the cap-{args.cap} ball")
        for m in idems:
            print(f"  {m}")
        return 0
    if args.what == "chain":
        chain = vmaps.j_chain(args.r, args.s)
        print(f"chain for V({args.r},{args.s}): {chain} "
              f"(image {chain.image()})")
        return 0
    raise ValueError(f"unknown vmaps subcommand {args.what!r}")


def cmd_paper_report(args) -> int:
    def progress(entry):
        print(entry.line())

    entries = report.run_report(seed=args.seed, fixture=args.fixture,
                                out_dir=args.out, progress=progress)
    ok = report.report_ok(entries)
    statuses = {}
    for e in entries:
        statuses[e.status] = statuses.get(e.status, 0) + 1
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(statuses.items()))
    print(f"entries: {len(entries)} ({summary})")
    if args.out:
        print(f"report written to {args.out}")
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built at the first call and shared by later ones:
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="greenbox",
        description="semigroup toolkit: Green's relations, Munn trees, "
                    "Stephen's procedure, V-set partial bijections, "
                    "identity checking")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="eggbox picture and Green counts")
    p.add_argument("spec", help="zoo spec string, or table file with --file")
    p.add_argument("--file", action="store_true",
                   help="treat spec as a table file path")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("green", help="Green analysis, witnessed for balls")
    p.add_argument("spec")
    p.add_argument("--file", action="store_true")
    p.add_argument("--relation", choices=list("HLRDJhlrdj"), default=None)
    p.add_argument("--margin", type=int, default=LIMITS["witness_margin"])
    p.set_defaults(func=cmd_green)

    p = sub.add_parser("munn", help="Munn tree of a word")
    p.add_argument("word")
    p.add_argument("--dot", default=None, help="write DOT to this path")
    p.set_defaults(func=cmd_munn)

    p = sub.add_parser("stephen", help="Stephen's procedure on a presentation")
    p.add_argument("presentation", help="presentation text or file path")
    p.add_argument("word")
    p.add_argument("--equal", default=None,
                   help="second word; decide equality instead of tracing")
    p.add_argument("--stages", type=int, default=LIMITS["stephen_stages"])
    p.add_argument("--max-vertices", type=int,
                   default=LIMITS["stephen_vertices"])
    p.add_argument("--dot-dir", default=None)
    p.set_defaults(func=cmd_stephen)

    p = sub.add_parser("identity", help="check an identity or catalogue key")
    p.add_argument("spec")
    p.add_argument("identity")
    p.add_argument("--file", action="store_true")
    p.add_argument("--window", type=int, default=None)
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("vmaps", help="V-set partial bijection computations")
    p.add_argument("what", choices=["ball", "idempotents", "chain"])
    p.add_argument("--cap", type=int, default=6)
    p.add_argument("-r", type=int, default=0)
    p.add_argument("-s", type=int, default=0)
    p.set_defaults(func=cmd_vmaps)

    p = sub.add_parser("paper-report",
                       help="run the full reproduction suite")
    p.add_argument("--out", default=None, help="directory for report files")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fixture", default=None,
                   help="table file checked against B2 as a negative control")
    p.set_defaults(func=cmd_paper_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:  # BudgetError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
