"""Command-line interface for the degeneration toolkit.

Subcommands: `list` (catalog overview), `analyze` (decision pipeline on a
case, all cases, or a complex file), `table` (invariant table reproduction
with diffs against the catalog), `enumerate` (classification by triangle
count), `export` (group presentation in text or JSON form).

Exit codes: 0 success/consistent, 1 operational error, 2 computed-verdict
or invariant mismatch against the catalog.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache
from typing import Any, Callable

from .catalog import CatalogError, open_catalog
from .complexes import ComplexError, PlanarComplex, json_text
from .enumerator import EnumeratorError, embed, enumerate_maps
from .fpgroup import DEFAULT_MAX_COSETS, EnumerationError
from .invariants import InvariantError, branch_stats, chern
from .pipeline import PipelineError, decide
from .relations import (
    UnsupportedCaseError,
    presentation_json,
    presentation_text,
    reduced_presentation,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISMATCH = 2

_ERRORS = (
    CatalogError,
    ComplexError,
    EnumerationError,
    EnumeratorError,
    InvariantError,
    PipelineError,
    UnsupportedCaseError,
    OSError,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; remap to the operational code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"degen: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


@cache  # one parser per process; parsing leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="degen", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format",
            choices=("markdown", "json"),
            default="markdown",
            help="output format (default: markdown)",
        )

    p_list = sub.add_parser("list", help="list catalog cases with statuses")
    add_format(p_list)

    p_an = sub.add_parser("analyze", help="run the decision pipeline")
    p_an.add_argument("selector", nargs="?", help="case name, alias, or complex file")
    p_an.add_argument("--all", action="store_true", help="analyze every catalog case")
    add_format(p_an)
    p_an.add_argument(
        "--max-cosets",
        type=_positive_int,
        default=DEFAULT_MAX_COSETS,
        help="budget of cosets the enumeration over the line-chain subgroup"
        f" may define (default: {DEFAULT_MAX_COSETS})",
    )
    p_an.add_argument(
        "--no-hints",
        action="store_true",
        help="lemmas only; consistency check relaxes to non-contradiction",
    )
    p_an.add_argument(
        "--verbose", "-v", action="store_true", help="include derivation steps"
    )

    p_tab = sub.add_parser("table", help="reproduce the invariant table")
    add_format(p_tab)

    p_enum = sub.add_parser("enumerate", help="classify maps by triangle count")
    p_enum.add_argument("--triangles", type=_positive_int, required=True, metavar="N")
    mode = p_enum.add_mutually_exclusive_group()
    mode.add_argument("--count-only", action="store_true", help="emit just the class count")
    mode.add_argument(
        "--out-dir",
        help="directory for degen-complex/1 files (full mode); it must hold no map-*.json",
    )

    p_exp = sub.add_parser("export", help="write a case's group presentation")
    p_exp.add_argument("case", help="case name or alias")
    add_format(p_exp)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler: Callable[[argparse.Namespace], int] = {
        "list": cmd_list,
        "analyze": cmd_analyze,
        "table": cmd_table,
        "enumerate": cmd_enumerate,
        "export": cmd_export,
    }[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()  # so a closed pipe is met here, not as Python exits
        return code
    except BrokenPipeError:  # the reader closed stdout: nothing is left to report
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    except _ERRORS as exc:
        print(f"degen: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


# ----------------------------------------------------------------------
# list
# ----------------------------------------------------------------------


def cmd_list(args: argparse.Namespace) -> int:
    catalog = open_catalog()
    rows = [
        {"name": rec.name, "pi1": rec.expected.pi1, "chi_coeff": str(rec.expected.chi_coeff)}
        for rec in catalog
    ]
    if args.format == "json":
        print(json_text(rows))
    else:
        print(_md_table(("case", "pi1", "chi/6!"), [
            (r["name"], r["pi1"], r["chi_coeff"]) for r in rows
        ]))
        print(f"\n{len(rows)} cases")
    return EXIT_OK


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.all == (args.selector is not None):
        print("degen: error: pass exactly one of a selector or --all", file=sys.stderr)
        return EXIT_ERROR
    if args.all:
        reports = [_analyze_record(rec, args) for rec in open_catalog()]
    elif _looks_like_path(args.selector):
        reports = [_analyze_file(args.selector, args)]
    else:
        catalog = open_catalog()
        reports = [_analyze_record(catalog.load(args.selector), args)]

    if args.format == "json":
        payload = reports if args.all else reports[0]
        print(json_text(payload))
    else:
        for report in reports:
            print(_render_analysis(report, verbose=args.verbose))
        verdicts = [r["consistent"] for r in reports if r["consistent"] is not None]
        if verdicts:
            print(f"consistent with catalog: {sum(verdicts)}/{len(verdicts)}")
    if any(r["consistent"] is False for r in reports):
        return EXIT_MISMATCH
    return EXIT_OK


def _looks_like_path(selector: str) -> bool:
    return (
        os.sep in selector
        or selector.endswith(".json")
        or os.path.exists(selector)
    )


def _analyze_record(rec, args: argparse.Namespace) -> dict[str, Any]:
    report = _analysis_body(rec.name, rec.complex, rec, args)
    report["expected_pi1"] = rec.expected.pi1
    outcome = report["verdict"]["outcome"]
    if args.no_hints:
        # lemmas-only runs may lose hint-dependent completions; only a
        # decided-versus-decided disagreement counts as a contradiction
        decided = "undecided" not in (outcome, rec.expected.pi1)
        report["consistent"] = (not decided) or outcome == rec.expected.pi1
    else:
        report["consistent"] = outcome == rec.expected.pi1
    return report


def _analyze_file(path: str, args: argparse.Namespace) -> dict[str, Any]:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise ComplexError(f"{path} is not UTF-8 JSON: {exc}") from exc
    try:  # every refusal, from the file's shape to its verdict, names the file
        complex_ = PlanarComplex.from_json(data)
        complex_.check_embedded()
        report = _analysis_body(path, complex_, complex_, args)
    except _ERRORS as exc:
        raise ComplexError(f"{path}: {exc}") from exc
    report["expected_pi1"] = None
    report["consistent"] = None
    return report


def _analysis_body(name: str, complex_: PlanarComplex, source, args) -> dict[str, Any]:
    verdict = decide(
        source,
        use_hints=not args.no_hints,
        max_cosets=args.max_cosets,
    )
    stats = branch_stats(complex_)
    data = chern(stats)
    points = [
        {
            "vertex": p.vertex,
            "kind": p.kind,
            "multiplicity": p.multiplicity,
            "lines": list(p.lines_cyclic),
        }
        for p in complex_.classify_vertices()
    ]
    extra = getattr(source, "extra_inner_relators", None)
    try:  # a verdict needs no relators for an inner 6-point; the presentation does
        pres = verdict.presentation  # the one `decide` enumerated in, if it built one
        if pres is None:
            pres = reduced_presentation(complex_, inner6_relators=extra)
        counts = pres.counts()
    except UnsupportedCaseError:
        counts = None
    return {
        "name": name,
        "points": points,
        "presentation": counts,
        "verdict": verdict.to_json(),
        "branch_stats": {
            "n": stats.n, "m": stats.m, "mu": stats.mu, "d": stats.d, "rho": stats.rho,
        },
        "chern": {
            "c1_sq": data.c1_sq,
            "c2": data.c2,
            "chi": _json_number(data.chi),
            "c1_sq_coeff": str(data.c1_sq_coeff),
            "c2_coeff": str(data.c2_coeff),
            "chi_coeff": str(data.chi_coeff),
        },
    }


def _json_number(value: Fraction) -> int | str:
    return int(value) if value.denominator == 1 else str(value)


def _render_analysis(report: dict[str, Any], *, verbose: bool) -> str:
    lines = [f"## {report['name']}", ""]
    verdict = report["verdict"]
    lines.append(f"- verdict: {verdict['outcome']} ({verdict['reason']})"
                 f" [{verdict['engine_mode']}]")
    cert = verdict["certificate"]
    if cert is not None:
        detail = ", ".join(f"{k}={v}" for k, v in cert.items() if k != "kind")
        lines.append(f"- certificate: {cert['kind']} ({detail})")
    if report["expected_pi1"] is not None:
        status = "consistent" if report["consistent"] else "MISMATCH"
        lines.append(f"- catalog expectation: {report['expected_pi1']} -> {status}")
    bs = report["branch_stats"]
    lines.append(
        f"- branch stats: m={bs['m']} mu={bs['mu']} d={bs['d']} rho={bs['rho']}"
    )
    ch = report["chern"]
    fact = f"{bs['n']}!"
    lines.append(
        f"- chern: c1^2 = {ch['c1_sq_coeff']}*{fact} = {ch['c1_sq']},"
        f" c2 = {ch['c2_coeff']}*{fact} = {ch['c2']},"
        f" chi = {ch['chi_coeff']}*{fact} = {ch['chi']}"
    )
    counts = report["presentation"]
    text = "none" if counts is None else ", ".join(f"{kind} {n}" for kind, n in counts.items())
    lines.append(f"- presentation: {text}")
    lines.append("")
    lines.append(_md_table(("vertex", "kind", "k", "lines"), [
        (p["vertex"], p["kind"], p["multiplicity"], " ".join(map(str, p["lines"])))
        for p in report["points"]
    ]))
    if verbose:
        lines.append("")
        lines.append("derivation steps:")
        for step in verdict["equalities"]["steps"]:
            used = f" via {step['used']}" if step["used"] else ""
            src = step.get("citation") or f"vertex {step['vertex']}"
            lines.append(f"  - line {step['line']}: {step['rule']} ({src}){used}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# table
# ----------------------------------------------------------------------


def cmd_table(args: argparse.Namespace) -> int:
    catalog = open_catalog()
    rows = []
    diffs = []
    for rec in catalog:
        data = chern(branch_stats(rec.complex))
        row = {
            "name": rec.name,
            "c1_sq_coeff": str(data.c1_sq_coeff),
            "c2_coeff": str(data.c2_coeff),
            "chi_coeff": str(data.chi_coeff),
            "pi1": rec.expected.pi1,
        }
        rows.append(row)
        for field, computed, expected in (
            ("c1_sq_coeff", data.c1_sq_coeff, rec.expected.c1_sq_coeff),
            ("c2_coeff", data.c2_coeff, rec.expected.c2_coeff),
            ("chi_coeff", data.chi_coeff, rec.expected.chi_coeff),
        ):
            if computed != expected:
                diffs.append(
                    {"name": rec.name, "field": field,
                     "computed": str(computed), "catalog": str(expected)}
                )
    if args.format == "json":
        print(json_text({"rows": rows, "diffs": diffs}))
    else:
        print(_md_table(
            ("case", "c1^2/6!", "c2/6!", "chi/6!", "pi1"),
            [(r["name"], r["c1_sq_coeff"], r["c2_coeff"], r["chi_coeff"], r["pi1"])
             for r in rows],
        ))
        print()
        if diffs:
            for d in diffs:
                print(f"DIFF {d['name']} {d['field']}:"
                      f" computed {d['computed']} != catalog {d['catalog']}")
        else:
            print("diffs against catalog: none")
    return EXIT_MISMATCH if diffs else EXIT_OK


# ----------------------------------------------------------------------
# enumerate
# ----------------------------------------------------------------------


def cmd_enumerate(args: argparse.Namespace) -> int:
    if not args.count_only:  # refuse before the enumeration, not after
        if not args.out_dir:
            print("degen: error: full mode needs --out-dir (or pass --count-only)",
                  file=sys.stderr)
            return EXIT_ERROR
        os.makedirs(args.out_dir, exist_ok=True)  # a file at the path fails here
        held = sum(n.startswith("map-") and n.endswith(".json") for n in os.listdir(args.out_dir))
        if held:
            print(f"degen: error: {args.out_dir} already holds {held} map-*.json files;"
                  " pass an empty or new directory", file=sys.stderr)
            return EXIT_ERROR
    # the explicit request is the conscious choice the library's guard asks for
    maps = enumerate_maps(args.triangles, guard=args.triangles)
    if args.count_only:
        print(len(maps))
        return EXIT_OK
    width = max(2, len(str(len(maps))))
    for i, map_ in enumerate(maps, 1):
        path = os.path.join(args.out_dir, f"map-{i:0{width}d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(embed(map_).dumps())
    print(f"wrote {len(maps)} complexes to {args.out_dir}")
    return EXIT_OK


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------


def cmd_export(args: argparse.Namespace) -> int:
    catalog = open_catalog()
    rec = catalog.load(args.case)
    pres = reduced_presentation(rec.complex, inner6_relators=rec.extra_inner_relators)
    if args.format == "json":
        print(json_text(presentation_json(pres)))
    else:
        print(presentation_text(pres))
    return EXIT_OK


def _md_table(headers: tuple[str, ...], rows: list[tuple]) -> str:
    out = ["| " + " | ".join(headers) + " |",
           "| " + " | ".join("---" for _ in headers) + " |"]
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(out)


if __name__ == "__main__":
    sys.exit(main())
