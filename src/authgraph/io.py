"""Serialization: canonical JSON state and trace documents, DOT graph export.

The state document is deliberately rigid so golden-file comparisons can be
byte-exact: fixed member order (version, soa, principals, positive, negative,
time), entries sorted by (from, to), two-space indentation, UTF-8, trailing
newline.  Labels round-trip completely so undo still works after save/load.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring
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
#
# Every check raises only when it fails, so no message is built for a
# document that passes; a large document runs millions of them.


def _is_utf8(text: str) -> bool:
    """False for text UTF-8 cannot encode: a lone surrogate from a `\\ud800` escape."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _text_member(obj: dict[str, Any], key: str, where: str) -> str:
    if key not in obj:
        raise ParseError(f"{where}: missing member {key!r}")
    value = obj[key]
    if not isinstance(value, str):
        raise ParseError(f"{where}: member {key!r} must be text")
    return value


def _str_member(obj: dict[str, Any], key: str, where: str) -> str:
    value = _text_member(obj, key, where)
    if not _is_utf8(value):
        raise ParseError(f"{where}: member {key!r} is not UTF-8 text")
    return value


_LABEL_MEMBERS = frozenset({"from", "to", "seq", "was_kind", "was_blocked"})


def _parse_label(doc: Any, where: str, principals: frozenset[str]) -> RevocationLabel:
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: label must be an object")
    for key in doc:
        if key not in _LABEL_MEMBERS:
            raise ParseError(f"{where}: unknown label member {key!r}")
    root_grantor = _str_member(doc, "from", where)
    root_grantee = _str_member(doc, "to", where)
    if "seq" not in doc:
        raise ParseError(f"{where}: missing label member 'seq'")
    seq = doc["seq"]
    if not (isinstance(seq, int) and not isinstance(seq, bool) and seq >= 0):
        raise ParseError(f"{where}: label member 'seq' must be a non-negative integer")
    restores_kind = None
    if "was_kind" in doc:
        raw = doc["was_kind"]
        if not (isinstance(raw, str) and raw in PositiveKind.__members__):
            raise ParseError(f"{where}: label member 'was_kind' must be \"TT\" or \"TF\"")
        restores_kind = PositiveKind[raw]
    restores_blocked = doc.get("was_blocked", False)
    if not isinstance(restores_blocked, bool):
        raise ParseError(f"{where}: label member 'was_blocked' must be a boolean")
    label = RevocationLabel(
        root_grantor,
        root_grantee,
        seq,
        restores_kind=restores_kind,
        restores_blocked=restores_blocked,
    )
    for root in label.root:
        if root not in principals:
            raise ParseError(f"{where}: label root {root!r} is not a principal")
    return label


def _parse_endpoints(doc: Any, where: str, allowed: frozenset[str]) -> tuple[str, str]:
    """An entry's grantor and grantee.  They are not checked for UTF-8: the
    constructor requires each to be a principal, and principals are."""
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: entry must be an object")
    for key in doc:
        if key not in allowed:
            raise ParseError(f"{where}: unknown member {key!r}")
    return _text_member(doc, "from", where), _text_member(doc, "to", where)


def _load(text: str) -> Any:
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ParseError(f"invalid document: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("invalid document: nested too deeply") from exc


def _check_version(doc: dict[str, Any], prefix: str) -> None:
    """An optional `version` must be the integer FORMAT_VERSION: not a bool
    or a float, which compare equal to it."""
    version = doc.get("version", FORMAT_VERSION)
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(f"{prefix}unsupported version {version!r}")


_STATE_MEMBERS = frozenset({"version", "soa", "principals", "positive", "negative", "time"})
_POSITIVE_MEMBERS = frozenset({"from", "to", "kind", "label"})
_KINDS = {kind.name: kind for kind in PositiveKind}
_NEGATIVE_MEMBERS = frozenset({"from", "to", "label"})


def parse_state(text: str) -> AuthorizationState:
    """Parse a state document and build it through the public constructor.

    The checks made here are about the document: members, types and kind
    names, duplicate names in `principals`, label roots that name no
    principal, and `time`.  Whether the state is well-formed is the
    constructor's decision; any `ModelError`, from it or from an entry's
    value type, becomes a `ParseError` naming the entry.
    """
    doc = _load(text)
    if not isinstance(doc, dict):
        raise ParseError("state document must be an object")
    for key in doc:
        if key not in _STATE_MEMBERS:
            raise ParseError(f"unknown member {key!r}")
    _check_version(doc, "")

    soa = _str_member(doc, "soa", "state")
    if "principals" not in doc:
        raise ParseError("state: missing member 'principals'")
    raw_principals = doc["principals"]
    if not (
        isinstance(raw_principals, list) and all(isinstance(p, str) for p in raw_principals)
    ):
        raise ParseError("state: member 'principals' must be a list of text names")
    if not _is_utf8("".join(raw_principals)):  # one test for all; on failure, find the name
        for index, name in enumerate(raw_principals):
            if not _is_utf8(name):
                raise ParseError(f"principals[{index}]: name is not UTF-8 text")
    principals = frozenset(raw_principals)
    if len(principals) != len(raw_principals):
        raise ParseError("state: duplicate principal names")

    if "time" not in doc:
        raise ParseError("state: missing member 'time'")
    time = doc["time"]
    if not (isinstance(time, int) and not isinstance(time, bool) and time >= 0):
        raise ParseError("state: member 'time' must be a non-negative integer")

    positive: list[PositiveAuth] = []
    if "positive" not in doc:
        raise ParseError("state: missing member 'positive'")
    if not isinstance(doc["positive"], list):
        raise ParseError("state: member 'positive' must be a list")
    index = 0
    try:
        for index, entry in enumerate(doc["positive"]):
            # The plain, valid entry: exactly from, to and a kind, all text.
            if type(entry) is dict and len(entry) == 3:
                grantor, grantee, kind = entry.get("from"), entry.get("to"), entry.get("kind")
                if type(grantor) is str and type(grantee) is str and type(kind) is str and kind in _KINDS:
                    positive.append(PositiveAuth(grantor, grantee, _KINDS[kind]))
                    continue
            where = f"positive[{index}]"
            grantor, grantee = _parse_endpoints(entry, where, _POSITIVE_MEMBERS)
            raw_kind = _str_member(entry, "kind", where)
            if raw_kind not in _KINDS:
                raise ParseError(f"{where}: member 'kind' must be \"TT\" or \"TF\"")
            label = _parse_label(entry["label"], where, principals) if "label" in entry else None
            positive.append(PositiveAuth(grantor, grantee, _KINDS[raw_kind], label))
    except ModelError as exc:
        raise ParseError(f"positive[{index}]: {exc}") from exc

    negative: list[NegativeAuth] = []
    if "negative" not in doc:
        raise ParseError("state: missing member 'negative'")
    if not isinstance(doc["negative"], list):
        raise ParseError("state: member 'negative' must be a list")
    index = 0
    try:
        for index, entry in enumerate(doc["negative"]):
            if type(entry) is dict and len(entry) == 2:
                grantor, grantee = entry.get("from"), entry.get("to")
                if type(grantor) is str and type(grantee) is str:
                    negative.append(NegativeAuth(grantor, grantee))
                    continue
            where = f"negative[{index}]"
            grantor, grantee = _parse_endpoints(entry, where, _NEGATIVE_MEMBERS)
            label = _parse_label(entry["label"], where, principals) if "label" in entry else None
            negative.append(NegativeAuth(grantor, grantee, label))
    except ModelError as exc:
        raise ParseError(f"negative[{index}]: {exc}") from exc

    try:
        return AuthorizationState(soa, principals, tuple(positive), tuple(negative), time)
    except ModelError as exc:
        raise ParseError(str(exc)) from exc


# Serialization.


def _label_text(label: RevocationLabel) -> str:
    """A label as the lines of its member of an entry, indented as the
    document nests it."""
    text = (
        f',\n      "label": {{\n        "from": {encode_basestring(label.root_grantor)},'
        f'\n        "to": {encode_basestring(label.root_grantee)},\n        "seq": {label.sequence:d}'
    )
    if label.restores_kind is not None:
        text += f',\n        "was_kind": "{label.restores_kind.name}"'
    if label.restores_blocked:
        text += ',\n        "was_blocked": true'
    return text + "\n      }"


def _list_text(member: str, items: list[str]) -> str:
    if not items:
        return f'  "{member}": []'
    return f'  "{member}": [\n' + ",\n".join(items) + "\n  ]"


def serialize_state(state: AuthorizationState) -> str:
    """Render a state as its canonical document, byte-stable across runs.

    The bytes are those of `json.dumps(doc, indent=2, ensure_ascii=False)`
    plus a newline, for the document with members in the order written
    here; with `indent` set, `json` encodes in pure Python, so the lines
    are written here in one pass, each principal's name quoted once by
    `json`'s own string encoder.
    """
    principals = sorted(state.principals)
    quoted = {p: encode_basestring(p) for p in principals}
    positive = []
    for auth in state.positive:
        label = "" if auth.label is None else _label_text(auth.label)
        positive.append(
            f'    {{\n      "from": {quoted[auth.grantor]},\n      "to": {quoted[auth.grantee]},'
            f'\n      "kind": "{auth.kind.name}"{label}\n    }}'
        )
    negative = []
    for auth in state.negative:
        label = "" if auth.label is None else _label_text(auth.label)
        negative.append(
            f'    {{\n      "from": {quoted[auth.grantor]},\n      "to": {quoted[auth.grantee]}{label}\n    }}'
        )
    return (
        f'{{\n  "version": {FORMAT_VERSION:d},\n  "soa": {quoted[state.soa]},\n'
        + _list_text("principals", [f"    {quoted[p]}" for p in principals])
        + ",\n"
        + _list_text("positive", positive)
        + ",\n"
        + _list_text("negative", negative)
        + f',\n  "time": {state.time:d}\n}}\n'
    )


# Traces.

_SCHEME_NAMES = frozenset(Scheme.__members__)
_TRACE_MEMBERS = frozenset({"version", "operations"})


def parse_trace(text: str) -> tuple[Operation, ...]:
    """Parse a trace document into operation records.

    Accepts either a bare list of entries or an object with an "operations"
    member (the documented form); every entry needs "op", "from" and "to",
    plus "kind" exactly when op is "grant" and "scheme" exactly when op is
    "revoke".
    """
    doc = _load(text)
    if isinstance(doc, dict):
        for key in doc:
            if key not in _TRACE_MEMBERS:
                raise ParseError(f"trace: unknown member {key!r}")
        _check_version(doc, "trace: ")
        if "operations" not in doc:
            raise ParseError("trace: missing member 'operations'")
        entries = doc["operations"]
    else:
        entries = doc
    if not isinstance(entries, list):
        raise ParseError("trace: operations must form a list")

    operations: list[Operation] = []
    for index, entry in enumerate(entries):
        where = f"operations[{index}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: entry must be an object")
        op = _str_member(entry, "op", where)
        grantor = _str_member(entry, "from", where)
        grantee = _str_member(entry, "to", where)
        keys = set(entry)
        if op == "grant":
            if keys != {"op", "from", "to", "kind"}:
                raise ParseError(f"{where}: grant needs exactly op/from/to/kind")
            raw_kind = _str_member(entry, "kind", where)
            if raw_kind not in PositiveKind.__members__:
                raise ParseError(f"{where}: member 'kind' must be \"TT\" or \"TF\"")
            operations.append(GrantOp(grantor, grantee, PositiveKind[raw_kind]))
        elif op == "negative":
            if keys != {"op", "from", "to"}:
                raise ParseError(f"{where}: negative needs exactly op/from/to")
            operations.append(NegativeOp(grantor, grantee))
        elif op == "revoke":
            if keys != {"op", "from", "to", "scheme"}:
                raise ParseError(f"{where}: revoke needs exactly op/from/to/scheme")
            raw_scheme = _str_member(entry, "scheme", where)
            if raw_scheme not in _SCHEME_NAMES:
                raise ParseError(f"{where}: unknown scheme {raw_scheme!r}")
            operations.append(RevokeOp(Scheme[raw_scheme], grantor, grantee))
        elif op == "undo":
            if keys != {"op", "from", "to"}:
                raise ParseError(f"{where}: undo needs exactly op/from/to")
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
    blocked = state.negative_by_pair.current()
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
