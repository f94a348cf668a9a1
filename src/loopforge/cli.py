"""Command-line front end: solve, verify, reduce, roundtrip, certify, catalog.

Exit codes: 0 success/sat, 1 failure/unsat, 2 timeout, 64 parse error,
65 genre mismatch, 66 missing or uncertified gadget, 70 internal error
(any failure a command does not handle itself, such as an exceeded
capability limit or a reduction or lift that fails its own checks).
Stdout is machine-readable JSON with sorted keys; identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

from . import catalog as catalog_mod
from . import formats
from .bsl import CubicBslPuzzle, solve_bsl_backtrack, solve_bsl_dp, verify_bsl
from .errors import FormatError, LoopforgeError
from .genres import GENRES
from .metacell import lift_to_cubic, reduce_to_cubic
from .reduction import lift_to_genre, reduce_to_genre

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_TIMEOUT = 2
EXIT_PARSE = 64
EXIT_MISMATCH = 65
EXIT_NO_GADGET = 66
EXIT_INTERNAL = 70

GENRE_TARGETS = ("slitherlink", "masyu", "yajilin", "simple-loop")


def _emit(doc: dict) -> None:
    sys.stdout.write(formats.dumps_canonical(doc))


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def _load_puzzle(path: str):
    return formats.puzzle_from_json(formats.load_json(path))


def cmd_solve(args) -> int:
    try:
        puzzle = _load_puzzle(args.file)
    except FormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    genre = formats.puzzle_genre(puzzle)
    if genre in ("bsl", "cubic-bsl"):
        inner = puzzle.inner if genre == "cubic-bsl" else puzzle
        if args.oracle == "dp":
            solvable = solve_bsl_dp(inner)
            _emit({"genre": genre, "oracle": "dp", "solvable": solvable})
            return EXIT_SAT if solvable else EXIT_UNSAT
        result = solve_bsl_backtrack(inner, budget_ms=args.budget)
        if result.status == "sat":
            _emit(formats.solution_to_json(genre, result.solution))
        return {"sat": EXIT_SAT, "unsat": EXIT_UNSAT, "timeout": EXIT_TIMEOUT}[result.status]
    if args.oracle == "dp":
        print("the dp oracle only decides bsl and cubic-bsl puzzles", file=sys.stderr)
        return EXIT_PARSE
    result = GENRES[genre].solve(puzzle, budget_ms=args.budget)
    if result.status == "sat":
        _emit(formats.solution_to_json(genre, result.solution))
    return {"sat": EXIT_SAT, "unsat": EXIT_UNSAT, "timeout": EXIT_TIMEOUT}[result.status]


def cmd_verify(args) -> int:
    try:
        puzzle = _load_puzzle(args.puzzle)
        sol_doc = formats.load_json(args.solution)
    except FormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    genre = formats.puzzle_genre(puzzle)
    try:
        formats.ensure_solution_matches(genre, sol_doc)
    except formats.GenreMismatchError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_MISMATCH
    try:
        sol = formats.solution_from_json(sol_doc)
    except FormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if genre in ("bsl", "cubic-bsl"):
        inner = puzzle.inner if genre == "cubic-bsl" else puzzle
        violation = verify_bsl(inner, sol)
    else:
        violation = GENRES[genre].verify(puzzle, sol)
    if violation is None:
        _emit({"verdict": "ok"})
        return EXIT_SAT
    _emit(
        {
            "verdict": "violation",
            "code": violation.code,
            "message": violation.message,
            "cell": list(violation.cell) if violation.cell else None,
            "edge": list(violation.edge) if violation.edge else None,
        }
    )
    return EXIT_UNSAT


def cmd_reduce(args) -> int:
    try:
        puzzle = _load_puzzle(args.file)
    except FormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    genre = formats.puzzle_genre(puzzle)
    target = args.to
    manifests = []

    if genre == "bsl":
        cubic, cman = reduce_to_cubic(puzzle)
        manifests.append(formats.manifest_to_json(cman))
        current = cubic
    elif genre == "cubic-bsl":
        current = puzzle
    else:
        print("reduce expects a bsl or cubic-bsl input", file=sys.stderr)
        return EXIT_PARSE

    if target == "cubic":
        out_puzzle = current
    else:
        if target not in GENRE_TARGETS:
            print(f"no gadget for target genre {target!r}", file=sys.stderr)
            return EXIT_NO_GADGET
        try:
            desc = catalog_mod.load_gadget(target)
        except FormatError as exc:
            print(f"gadget unavailable: {exc}", file=sys.stderr)
            return EXIT_NO_GADGET
        out_puzzle, gman = reduce_to_genre(current, target, desc)
        manifests.append(formats.manifest_to_json(gman))

    out_doc = formats.puzzle_to_json(out_puzzle)
    Path(args.output).write_text(formats.dumps_canonical(out_doc), encoding="utf-8")
    if args.manifest:
        mdoc = manifests[0] if len(manifests) == 1 else {"kind": "chain", "stages": manifests}
        Path(args.manifest).write_text(formats.dumps_canonical(mdoc), encoding="utf-8")
    print(
        f"{puzzle.dims.width}x{puzzle.dims.height} -> {out_puzzle.dims.width}x{out_puzzle.dims.height}"
    )
    return EXIT_SAT


def cmd_roundtrip(args) -> int:
    started = time.monotonic()
    try:
        puzzle = _load_puzzle(args.file)
    except FormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if formats.puzzle_genre(puzzle) != "bsl":
        print("roundtrip expects a bsl input", file=sys.stderr)
        return EXIT_PARSE
    genre = args.genre
    if genre not in GENRE_TARGETS:
        print(f"no gadget for genre {genre!r}", file=sys.stderr)
        return EXIT_NO_GADGET
    try:
        desc = catalog_mod.load_gadget(genre)
    except FormatError as exc:
        print(f"gadget unavailable: {exc}", file=sys.stderr)
        return EXIT_NO_GADGET

    stages: dict[str, str] = {}
    verdict = "ok"
    source_result = solve_bsl_backtrack(puzzle, budget_ms=args.budget)
    stages["source-solve"] = source_result.status
    if source_result.status == "sat":
        cubic, cman = reduce_to_cubic(puzzle)
        stages["cubic-reduce"] = f"{cubic.dims.width}x{cubic.dims.height}"
        lifted_cubic = lift_to_cubic(cman, source_result.solution)
        stages["cubic-lift"] = "ok"
        board, gman = reduce_to_genre(cubic, genre, desc)
        stages["genre-reduce"] = f"{board.dims.width}x{board.dims.height}"
        # lift_to_genre verifies the lifted solution against the board and
        # raises when it fails.
        lift_to_genre(gman, lifted_cubic)
        stages["genre-lift"] = "ok"
        stages["genre-verify"] = "ok"
    elif source_result.status == "unsat":
        from .bsl import check_cubic

        if not check_cubic(puzzle):
            # Already cubic (true for the degenerate fast-path instances):
            # tile it directly, reaching the canonical unsolvable image.
            cubic = CubicBslPuzzle(puzzle)
        else:
            cubic, _ = reduce_to_cubic(puzzle)
        board, gman = reduce_to_genre(cubic, genre, desc)
        stages["genre-reduce"] = f"{board.dims.width}x{board.dims.height}"
        if gman.degenerate:
            stages["genre-image"] = "canonical-unsolvable"
        if board.dims.cell_count <= args.confirm_cells:
            result = GENRES[genre].solve(board, budget_ms=args.budget)
            stages["genre-solve"] = result.status
            if result.status == "sat":
                verdict = "fail"
            elif result.status == "timeout":
                stages["genre-solve"] = "budget-skipped"
        else:
            stages["genre-solve"] = "budget-skipped"
    else:
        verdict = "timeout"

    report = {
        "command": "roundtrip",
        "input": _digest(args.file),
        "genre": genre,
        "verdict": verdict,
        "stages": stages,
        "timing_ms": round((time.monotonic() - started) * 1000.0, 1),
    }
    _emit(report)
    if verdict == "ok":
        return EXIT_SAT
    return EXIT_TIMEOUT if verdict == "timeout" else EXIT_UNSAT


def cmd_certify(args) -> int:
    try:
        desc = catalog_mod.load_gadget(args.genre)
    except FormatError as exc:
        print(f"gadget unavailable: {exc}", file=sys.stderr)
        return EXIT_NO_GADGET
    cert = catalog_mod.certify_gadget(desc, budget_ms=args.budget)
    _emit(cert.to_json())
    return EXIT_SAT if cert.overall in ("yes", "partial") else EXIT_UNSAT


def cmd_catalog(args) -> int:
    for line in catalog_mod.catalog_listing(certify=not args.no_certify, budget_ms=args.budget):
        print(line)
    return EXIT_SAT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="loopforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a puzzle file")
    p.add_argument("file")
    p.add_argument("--budget", type=float, default=60000.0, help="time budget in milliseconds")
    p.add_argument("--oracle", choices=("backtrack", "dp"), default="backtrack")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a solution against a puzzle")
    p.add_argument("puzzle")
    p.add_argument("solution")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reduce", help="compile a puzzle to another genre")
    p.add_argument("file")
    p.add_argument("--to", required=True, choices=("cubic",) + GENRE_TARGETS)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("roundtrip", help="solve, reduce, lift and verify end to end")
    p.add_argument("file")
    p.add_argument("--genre", required=True)
    p.add_argument("--budget", type=float, default=60000.0)
    p.add_argument("--confirm-cells", type=int, default=200, dest="confirm_cells",
                   help="largest unsat image the genre solver will try to confirm")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("certify", help="certify a gadget descriptor")
    p.add_argument("--genre", required=True)
    p.add_argument("--budget", type=float, default=60000.0)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("catalog", help="list available gadgets")
    p.add_argument("--no-certify", action="store_true", help="skip certification, list only")
    p.add_argument("--budget", type=float, default=30000.0)
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LoopforgeError as exc:
        # Not a verdict on the puzzle, so never reported as unsat.
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
