"""Command-line front end: load a state, apply operations, query, export.

Exit codes: 0 success, 1 connectivity violations found by `check`, 2 input
parse error (including bad command-line usage), 3 operation precondition
failure, 4 internal error.  Result documents go to `-o` (default stdout);
diagnostics and step summaries go to stderr.  Output files are written via
temp-and-rename so a failed run never leaves a half-written state behind.
A command imports only the modules it runs: `export` never loads the engine
(`revocation`) or the rights queries (`semantics`).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tempfile
from pathlib import Path
from typing import Sequence

from .errors import AuthGraphError, ModelError, ParseError, PreconditionError, UnknownPrincipalError
from .io import export_dot, parse_state, parse_trace, serialize_state
from .model import GrantOp, NegativeOp, Operation, PositiveKind, RevocationDelta, RevokeOp, Scheme, UndoOp

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="authgraph",
        description="Delegation and revocation over ownership-rooted authorization graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("-o", "--output", default=None, help="output file (default: stdout)")

    def add_pair(p: argparse.ArgumentParser) -> None:
        p.add_argument("--from", dest="src", required=True, metavar="PRINCIPAL")
        p.add_argument("--to", dest="dst", required=True, metavar="PRINCIPAL")

    def add_sgd_variant(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--sgd-variant",
            action="store_true",
            help="restrict strong-global dominance to the direct target",
        )

    p = sub.add_parser("check", help="validate the connectivity property")
    p.add_argument("state")

    p = sub.add_parser("rights", help="report access and delegation rights")
    p.add_argument("state")
    p.add_argument("principal")

    p = sub.add_parser("apply", help="apply one revocation scheme")
    p.add_argument("state")
    p.add_argument("--scheme", required=True, choices=sorted(Scheme.__members__))
    add_pair(p)
    add_sgd_variant(p)
    add_output(p)

    p = sub.add_parser("grant", help="issue or upgrade a positive authorization")
    p.add_argument("state")
    add_pair(p)
    p.add_argument("--kind", required=True, choices=sorted(PositiveKind.__members__))
    add_output(p)

    p = sub.add_parser("negative", help="issue a plain negative authorization")
    p.add_argument("state")
    add_pair(p)
    add_output(p)

    p = sub.add_parser("undo", help="undo a labelled negative revocation")
    p.add_argument("state")
    add_pair(p)
    add_output(p)

    p = sub.add_parser("trace", help="apply an operation trace to a state")
    p.add_argument("state")
    p.add_argument("trace")
    add_sgd_variant(p)
    add_output(p)

    p = sub.add_parser("export", help="export the state as a DOT digraph")
    p.add_argument("state")
    add_output(p)

    return parser


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text at byte {exc.start}") from exc


def _write_output(text: str, dest: str | None) -> None:
    if dest is None or dest == "-":
        sys.stdout.write(text)
        return
    path = Path(dest)
    try:
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise ParseError(f"cannot write {dest}: {exc.strerror or exc}") from exc


def _describe(op: Operation) -> str:
    match op:
        case GrantOp(grantor=g, grantee=e, kind=k):
            return f"grant {g} -> {e} {k.name}"
        case NegativeOp(grantor=g, grantee=e):
            return f"negative {g} -> {e}"
        case RevokeOp(scheme=s, revoker=r, target=t):
            return f"revoke {s.name} {r} -> {t}"
        case UndoOp(grantor=g, grantee=e):
            return f"undo {g} -> {e}"
    return repr(op)


def _summarize(delta: RevocationDelta) -> str:
    return (
        f"+{len(delta.issued_positive)}/-{len(delta.deleted_positive)} positive, "
        f"+{len(delta.issued_negative)}/-{len(delta.deleted_negative)} negative"
    )


def _operation(args: argparse.Namespace) -> Operation:
    """The single operation an `apply`, `grant`, `negative` or `undo` command names."""
    match args.command:
        case "apply":
            return RevokeOp(Scheme[args.scheme], args.src, args.dst)
        case "grant":
            return GrantOp(args.src, args.dst, PositiveKind[args.kind])
        case "negative":
            return NegativeOp(args.src, args.dst)
        case "undo":
            return UndoOp(args.src, args.dst)
    raise AssertionError(f"unhandled command {args.command!r}")


def _run(args: argparse.Namespace) -> int:
    state = parse_state(_read_text(args.state))
    # What is alive now, the parsed state and the modules loaded so far,
    # the cyclic collector need not walk again in a process this short.
    gc.freeze()
    # Each command imports the modules it runs, and no others: a run of a
    # few hundred principals costs more in start-up than in work.
    if args.command == "check":
        from .semantics import validate_connectivity

        violations = validate_connectivity(state)
        if violations:
            for violation in violations:
                print(violation)
            return EXIT_VIOLATIONS
        print("ok")
        return EXIT_OK

    if args.command == "rights":
        from .semantics import has_access_right, has_delegation_right

        access = has_access_right(state, args.principal)
        delegation = has_delegation_right(state, args.principal)
        print(f"access={str(access).lower()} delegation={str(delegation).lower()}")
        return EXIT_OK

    if args.command == "export":
        _write_output(export_dot(state), args.output)
        return EXIT_OK

    from .revocation import EngineConfig, apply_step

    config = EngineConfig(sgd_descendant_dominance=not getattr(args, "sgd_variant", False))
    if args.command == "trace":
        operations = parse_trace(_read_text(args.trace))
    else:
        operations = (_operation(args),)
    for index, op in enumerate(operations):
        state, delta = apply_step(state, op, config)
        step = f"step {index + 1}: " if args.command == "trace" else ""
        print(f"{step}{_describe(op)}: {_summarize(delta)}", file=sys.stderr)
    _write_output(serialize_state(state), args.output)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_PARSE
    try:
        return _run(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PreconditionError, UnknownPrincipalError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except AuthGraphError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - last-resort diagnostic
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
