"""Hypothesis strategies for hostile input: arbitrary constructor arguments,
and fixture documents with random edits.

Both reach what a careless caller or a hand-edited file can: names no UTF-8
can encode (lone surrogates), empty names, integers of any sign and of more
digits than the interpreter converts to text, and labels of any fields.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from hypothesis import strategies as st

from authgraph import (
    NegativeAuth,
    PositiveAuth,
    PositiveKind,
    RevocationLabel,
    parse_state,
    serialize_state,
    states_equal,
)

FIXTURES = Path(__file__).parent / "fixtures"
STATE_DOCUMENTS = sorted(p.name for p in FIXTURES.glob("*.json") if not p.name.endswith(".trace.json"))
TRACE_DOCUMENTS = sorted(p.name for p in FIXTURES.glob("*.trace.json"))

# The interpreter's limit on digits converted to text, as this run has it.
DIGITS = sys.get_int_max_str_digits() or 4300

NAMES = st.text(st.characters(exclude_categories=()), min_size=1, max_size=3) | st.sampled_from(
    ["\ud800", "a\udfff", "", "A", "B"]
)
# Any int, and the ones either side of the digit limit.
INTEGERS = (
    st.integers()
    | st.integers(-(10 ** (DIGITS + 100)), 10 ** (DIGITS + 100))
    | st.sampled_from([10**DIGITS - 1, 10**DIGITS, -1])
)


@st.composite
def constructor_arguments(draw):
    """Arguments for `AuthorizationState`: names drawn from the principals
    and one other text; any ints; any labels."""
    principals = draw(st.lists(NAMES, min_size=1, max_size=5, unique=True))
    name = st.sampled_from([*principals, draw(NAMES)])
    sequences = st.integers(0, 3) | INTEGERS
    kinds = st.none() | st.sampled_from(PositiveKind)
    labels = st.none() | st.builds(RevocationLabel, name, name, sequences, kinds, st.booleans())
    positive = draw(st.lists(st.builds(PositiveAuth, name, name, st.sampled_from(PositiveKind), labels), max_size=4))
    negative = draw(st.lists(st.builds(NegativeAuth, name, name, labels), max_size=3))
    return draw(name), frozenset(principals), tuple(positive), tuple(negative), draw(INTEGERS)


def json_values(doc):
    """JSON values to write into `doc`: its own strings and numbers, which
    keep an edit close to valid, or any value, hostile ones included."""
    own = set()

    def collect(node):
        if isinstance(node, dict):
            own.update(node)
            node = list(node.values())
        if isinstance(node, list):
            for child in node:
                collect(child)
        elif not isinstance(node, bool) and isinstance(node, (str, int)):
            own.add(node)

    collect(doc)
    scalars = (
        st.none()
        | st.booleans()
        | st.integers(-(10**20), 10**20)
        | st.just(10 ** (DIGITS - 1))  # the most digits a document may hold
        | st.floats(allow_nan=False, allow_infinity=False)
        | NAMES
    )
    keys = st.sampled_from(["from", "to", "kind", "label", "seq", "was_kind", "was_blocked", "op", "scheme"]) | NAMES
    return st.sampled_from(sorted(own, key=repr)) | st.recursive(
        scalars, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=3), max_leaves=5
    )


def _slots(node, out):
    """Every (container, key) in `node`, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        out.append((node, key))
        _slots(child, out)
    return out


@st.composite
def mutated_documents(draw, names=tuple(STATE_DOCUMENTS)):
    """A fixture document after one to three random edits, as JSON text
    whose `\\ud800` escapes decode to lone surrogates."""
    doc = json.loads((FIXTURES / draw(st.sampled_from(names))).read_text(encoding="utf-8"))
    values = json_values(doc)
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(doc, [])
        edit = draw(st.sampled_from(["replace", "delete", "insert", "repeat"]))
        if not slots:
            doc = draw(values)
            continue
        container, key = draw(st.sampled_from(slots))
        if edit == "replace":
            container[key] = draw(values)
        elif edit == "delete":
            del container[key]
        elif edit == "insert" and isinstance(container, dict):
            container[draw(st.sampled_from(sorted(container)) | NAMES)] = draw(values)
        elif isinstance(container, list):  # an insert or a repeat of an item
            item = draw(values) if edit == "insert" else json.loads(json.dumps(container[key]))
            container.insert(draw(st.integers(0, len(container))), item)
    return json.dumps(doc)


def assert_round_trips(state):
    """`state`'s document parses back to an equal state, time included, that
    writes the same bytes."""
    text = serialize_state(state)
    back = parse_state(text)
    assert states_equal(back, state) and back.time == state.time
    assert serialize_state(back) == text
