"""Serialization: canonical JSON state and trace documents, DOT graph export.

The state document is deliberately rigid so golden-file comparisons can be
byte-exact: fixed member order (version, soa, principals, positive, negative,
time), entries sorted by (from, to), two-space indentation, UTF-8, trailing
newline.  Labels round-trip completely so undo still works after save/load.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import ModelError, ParseError
from .model import (
    AuthorizationState,
    GrantOp,
    NegativeAuth,
    NegativeOp,
    Operation,
    PositiveAuth,
    PositiveKind,
    RevocationLabel,
    RevokeOp,
    Scheme,
    UndoOp,
)

FORMAT_VERSION = 1


# Parsing.


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ParseError(message)


def _is_utf8(text: str) -> bool:
    """False for text UTF-8 cannot encode: a lone surrogate from a `\\ud800` escape."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _str_member(obj: dict[str, Any], key: str, where: str) -> str:
    _expect(key in obj, f"{where}: missing member {key!r}")
    value = obj[key]
    _expect(isinstance(value, str), f"{where}: member {key!r} must be text")
    _expect(_is_utf8(value), f"{where}: member {key!r} is not UTF-8 text")
    return value


def _parse_label(doc: Any, where: str) -> RevocationLabel:
    _expect(isinstance(doc, dict), f"{where}: label must be an object")
    allowed = {"from", "to", "seq", "was_kind", "was_blocked"}
    for key in doc:
        _expect(key in allowed, f"{where}: unknown label member {key!r}")
    root_grantor = _str_member(doc, "from", where)
    root_grantee = _str_member(doc, "to", where)
    _expect("seq" in doc, f"{where}: missing label member 'seq'")
    seq = doc["seq"]
    _expect(
        isinstance(seq, int) and not isinstance(seq, bool) and seq >= 0,
        f"{where}: label member 'seq' must be a non-negative integer",
    )
    restores_kind = None
    if "was_kind" in doc:
        raw = doc["was_kind"]
        _expect(
            isinstance(raw, str) and raw in PositiveKind.__members__,
            f"{where}: label member 'was_kind' must be \"TT\" or \"TF\"",
        )
        restores_kind = PositiveKind[raw]
    restores_blocked = doc.get("was_blocked", False)
    _expect(
        isinstance(restores_blocked, bool),
        f"{where}: label member 'was_blocked' must be a boolean",
    )
    return RevocationLabel(
        root_grantor,
        root_grantee,
        seq,
        restores_kind=restores_kind,
        restores_blocked=restores_blocked,
    )


def _parse_endpoints(doc: Any, where: str, allowed: set[str]) -> tuple[str, str]:
    _expect(isinstance(doc, dict), f"{where}: entry must be an object")
    for key in doc:
        _expect(key in allowed, f"{where}: unknown member {key!r}")
    return _str_member(doc, "from", where), _str_member(doc, "to", where)


def _load(text: str) -> Any:
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ParseError(f"invalid document: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("invalid document: nested too deeply") from exc


def parse_state(text: str) -> AuthorizationState:
    """Parse a state document and build it through the public constructor.

    The checks made here are about the document: members, types and kind
    names, duplicate names in `principals`, and `time`.  Whether the state is
    well-formed is the constructor's decision; any `ModelError`, from it or
    from an entry's value type, becomes a `ParseError` naming the entry.
    """
    doc = _load(text)
    _expect(isinstance(doc, dict), "state document must be an object")
    allowed = {"version", "soa", "principals", "positive", "negative", "time"}
    for key in doc:
        _expect(key in allowed, f"unknown member {key!r}")
    version = doc.get("version", FORMAT_VERSION)
    _expect(version == FORMAT_VERSION, f"unsupported version {version!r}")

    soa = _str_member(doc, "soa", "state")
    _expect("principals" in doc, "state: missing member 'principals'")
    raw_principals = doc["principals"]
    _expect(
        isinstance(raw_principals, list)
        and all(isinstance(p, str) for p in raw_principals),
        "state: member 'principals' must be a list of text names",
    )
    for index, name in enumerate(raw_principals):
        _expect(_is_utf8(name), f"principals[{index}]: name is not UTF-8 text")
    principals = frozenset(raw_principals)
    _expect(
        len(principals) == len(raw_principals), "state: duplicate principal names"
    )

    _expect("time" in doc, "state: missing member 'time'")
    time = doc["time"]
    _expect(
        isinstance(time, int) and not isinstance(time, bool) and time >= 0,
        "state: member 'time' must be a non-negative integer",
    )

    positive: list[PositiveAuth] = []
    _expect("positive" in doc, "state: missing member 'positive'")
    _expect(isinstance(doc["positive"], list), "state: member 'positive' must be a list")
    try:
        for index, entry in enumerate(doc["positive"]):
            where = f"positive[{index}]"
            grantor, grantee = _parse_endpoints(entry, where, {"from", "to", "kind", "label"})
            raw_kind = _str_member(entry, "kind", where)
            _expect(
                raw_kind in PositiveKind.__members__,
                f"{where}: member 'kind' must be \"TT\" or \"TF\"",
            )
            label = _parse_label(entry["label"], where) if "label" in entry else None
            positive.append(PositiveAuth(grantor, grantee, PositiveKind[raw_kind], label))
    except ModelError as exc:
        raise ParseError(f"{where}: {exc}") from exc

    negative: list[NegativeAuth] = []
    _expect("negative" in doc, "state: missing member 'negative'")
    _expect(isinstance(doc["negative"], list), "state: member 'negative' must be a list")
    try:
        for index, entry in enumerate(doc["negative"]):
            where = f"negative[{index}]"
            grantor, grantee = _parse_endpoints(entry, where, {"from", "to", "label"})
            label = _parse_label(entry["label"], where) if "label" in entry else None
            negative.append(NegativeAuth(grantor, grantee, label))
    except ModelError as exc:
        raise ParseError(f"{where}: {exc}") from exc

    try:
        return AuthorizationState(soa, principals, tuple(positive), tuple(negative), time)
    except ModelError as exc:
        raise ParseError(str(exc)) from exc


# Serialization.


def _label_doc(label: RevocationLabel) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "from": label.root_grantor,
        "to": label.root_grantee,
        "seq": label.sequence,
    }
    if label.restores_kind is not None:
        doc["was_kind"] = label.restores_kind.name
    if label.restores_blocked:
        doc["was_blocked"] = True
    return doc


def serialize_state(state: AuthorizationState) -> str:
    """Render a state as its canonical document, byte-stable across runs."""
    positive = []
    for auth in state.positive:
        entry: dict[str, Any] = {
            "from": auth.grantor,
            "to": auth.grantee,
            "kind": auth.kind.name,
        }
        if auth.label is not None:
            entry["label"] = _label_doc(auth.label)
        positive.append(entry)
    negative = []
    for auth in state.negative:
        entry = {"from": auth.grantor, "to": auth.grantee}
        if auth.label is not None:
            entry["label"] = _label_doc(auth.label)
        negative.append(entry)
    doc = {
        "version": FORMAT_VERSION,
        "soa": state.soa,
        "principals": sorted(state.principals),
        "positive": positive,
        "negative": negative,
        "time": state.time,
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# Traces.

_SCHEME_NAMES = set(Scheme.__members__)


def parse_trace(text: str) -> tuple[Operation, ...]:
    """Parse a trace document into operation records.

    Accepts either a bare list of entries or an object with an "operations"
    member (the documented form); every entry needs "op", "from" and "to",
    plus "kind" exactly when op is "grant" and "scheme" exactly when op is
    "revoke".
    """
    doc = _load(text)
    if isinstance(doc, dict):
        allowed = {"version", "operations"}
        for key in doc:
            _expect(key in allowed, f"trace: unknown member {key!r}")
        version = doc.get("version", FORMAT_VERSION)
        _expect(version == FORMAT_VERSION, f"trace: unsupported version {version!r}")
        _expect("operations" in doc, "trace: missing member 'operations'")
        entries = doc["operations"]
    else:
        entries = doc
    _expect(isinstance(entries, list), "trace: operations must form a list")

    operations: list[Operation] = []
    for index, entry in enumerate(entries):
        where = f"operations[{index}]"
        _expect(isinstance(entry, dict), f"{where}: entry must be an object")
        op = _str_member(entry, "op", where)
        grantor = _str_member(entry, "from", where)
        grantee = _str_member(entry, "to", where)
        keys = set(entry)
        if op == "grant":
            _expect(keys == {"op", "from", "to", "kind"}, f"{where}: grant needs exactly op/from/to/kind")
            raw_kind = _str_member(entry, "kind", where)
            _expect(
                raw_kind in PositiveKind.__members__,
                f"{where}: member 'kind' must be \"TT\" or \"TF\"",
            )
            operations.append(GrantOp(grantor, grantee, PositiveKind[raw_kind]))
        elif op == "negative":
            _expect(keys == {"op", "from", "to"}, f"{where}: negative needs exactly op/from/to")
            operations.append(NegativeOp(grantor, grantee))
        elif op == "revoke":
            _expect(keys == {"op", "from", "to", "scheme"}, f"{where}: revoke needs exactly op/from/to/scheme")
            raw_scheme = _str_member(entry, "scheme", where)
            _expect(
                raw_scheme in _SCHEME_NAMES,
                f"{where}: unknown scheme {raw_scheme!r}",
            )
            operations.append(RevokeOp(Scheme[raw_scheme], grantor, grantee))
        elif op == "undo":
            _expect(keys == {"op", "from", "to"}, f"{where}: undo needs exactly op/from/to")
            operations.append(UndoOp(grantor, grantee))
        else:
            raise ParseError(f"{where}: unknown operation {op!r}")
    return tuple(operations)


# Graph export.


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(state: AuthorizationState) -> str:
    """Render the state as a DOT digraph.

    Positive edges carry their kind as label and are dashed when inactive;
    negative edges are labelled FF; the SOA gets a double border.  Output
    ordering is deterministic: nodes sorted, then positive edges, then
    negative edges, each sorted by endpoints.
    """
    active = state.active_reach
    blocked = state.negative_by_pair
    lines = ["digraph authorization {", "  rankdir=LR;"]
    for p in sorted(state.principals):
        attrs = " [peripheries=2]" if p == state.soa else ""
        lines.append(f"  {_dot_quote(p)}{attrs};")
    for auth in state.positive:
        attrs = f"label={_dot_quote(auth.kind.name)}"
        if auth.grantor not in active or (auth.grantor, auth.grantee) in blocked:
            attrs += ", style=dashed"
        lines.append(
            f"  {_dot_quote(auth.grantor)} -> {_dot_quote(auth.grantee)} [{attrs}];"
        )
    for auth in state.negative:
        lines.append(
            f"  {_dot_quote(auth.grantor)} -> {_dot_quote(auth.grantee)} "
            f'[label="FF"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


__all__ = [
    "FORMAT_VERSION",
    "export_dot",
    "parse_state",
    "parse_trace",
    "serialize_state",
]
