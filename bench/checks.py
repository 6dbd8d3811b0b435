"""Reference computations and output checks, kept apart from the engine.

Everything here reads only the data fields of a state (soa, principals and
the positive and negative entries) and recomputes chains with its own
breadth-first search; none of the engine's indexes or traversal code is used.
Each check returns a list of problem descriptions, empty when the output is
right, so a run can count mismatches instead of stopping at the first.
"""

from __future__ import annotations

import json
import re
from collections import deque
from typing import Iterable, Mapping

from authgraph import PositiveKind

Pair = tuple[str, str]
_TT = PositiveKind.TT


def reach(adj: Mapping[str, Iterable[str]], start: str, avoid: str | None = None) -> set[str]:
    """Principals reachable from `start` over `adj`, never entering `avoid`."""
    if start == avoid:
        return set()
    seen = {start}
    queue = deque((start,))
    while queue:
        for q in adj.get(queue.popleft(), ()):
            if q != avoid and q not in seen:
                seen.add(q)
                queue.append(q)
    return seen


def _kind(auth) -> str:
    # compares the enum member by identity; hashing enum members is slow
    return "TT" if auth.kind is _TT else "TF"


class Ref:
    """Own chain semantics of one state: activity, rights and independence."""

    def __init__(self, state) -> None:
        self.soa = state.soa
        self.principals = state.principals
        self.pos = {(a.grantor, a.grantee): _kind(a) for a in state.positive}
        self.neg = {(n.grantor, n.grantee) for n in state.negative}
        self.plain_adj: dict[str, list[str]] = {}
        self.active_adj: dict[str, list[str]] = {}
        for (g, e), kind in self.pos.items():
            if kind == "TT":
                self.plain_adj.setdefault(g, []).append(e)
                if (g, e) not in self.neg:
                    self.active_adj.setdefault(g, []).append(e)
        self.plain = reach(self.plain_adj, self.soa)
        self.active = reach(self.active_adj, self.soa)
        self.access = set(self.active)
        for (g, e) in self.pos:
            if g in self.active and (g, e) not in self.neg:
                self.access.add(e)
        self._avoiding: dict[str, set[str]] = {}

    def independent(self, j: str, i: str) -> bool:
        if j == self.soa:
            return True
        if i not in self._avoiding:
            self._avoiding[i] = reach(self.active_adj, self.soa, avoid=i)
        return j in self._avoiding[i]

    def auth_active(self, g: str, e: str) -> bool:
        return (g, e) not in self.neg and g in self.active

    def rights(self, p: str) -> tuple[bool, bool]:
        return (p in self.access, p in self.active)

    def answer(self, kind: str, args: tuple[str, ...]) -> bool:
        if kind == "has_access_right":
            return args[0] in self.access
        if kind == "has_delegation_right":
            return args[0] in self.active
        if kind == "is_independent":
            return self.independent(*args)
        return self.auth_active(*args)


def check_query(ref: Ref, kind: str, args: tuple[str, ...], got: bool) -> list[str]:
    want = ref.answer(kind, args)
    return [] if got is want else [f"{kind}{args}: program {got}, own BFS {want}"]


def _pos_keys(entries) -> set:
    return {(a.grantor, a.grantee, _kind(a), a.label) for a in entries}


def _neg_keys(entries) -> set:
    return {(n.grantor, n.grantee, n.label) for n in entries}


_recent: list = []


def _entries(state) -> tuple[set, set]:
    """Entries as plain tuples, so comparing large states stays cheap.

    The last few results are kept by state identity: the workloads compare
    one pre-state with many post-states.
    """
    for seen, entries in _recent:
        if seen is state:
            return entries
    entries = _pos_keys(state.positive), _neg_keys(state.negative)
    _recent.insert(0, (state, entries))
    del _recent[4:]
    return entries


def check_delta(pre, post, delta) -> list[str]:
    """pre - deleted + issued == post, with deleted taken from pre and issued new in post."""
    pre_pos, pre_neg = _entries(pre)
    post_pos, post_neg = _entries(post)
    problems = []
    for name, before, after, deleted, issued in (
        ("positive", pre_pos, post_pos, _pos_keys(delta.deleted_positive), _pos_keys(delta.issued_positive)),
        ("negative", pre_neg, post_neg, _neg_keys(delta.deleted_negative), _neg_keys(delta.issued_negative)),
    ):
        if not deleted <= before:
            problems.append(f"delta deletes {name} entries absent from the pre-state")
        if not issued <= after:
            problems.append(f"delta issues {name} entries absent from the post-state")
        if (before - deleted) | issued != after:
            problems.append(f"pre - deleted + issued != post on {name} entries")
    return problems


def same_state(a, b) -> bool:
    """Own value equality: SOA, principals and both entry sets; time ignored."""
    return (
        a.soa == b.soa
        and a.principals == b.principals
        and _entries(a) == _entries(b)
    )


def check_grant(pre, post, g: str, e: str, kind: str) -> list[str]:
    """A grant writes exactly the unlabelled (g, e, kind) entry and nothing else."""
    pre_pos, pre_neg = _entries(pre)
    post_pos, post_neg = _entries(post)
    problems = []
    if (g, e, kind, None) not in post_pos:
        problems.append(f"grant {g}->{e} {kind} is not in the post-state")
    if {k for k in pre_pos if k[:2] != (g, e)} != {k for k in post_pos if k[:2] != (g, e)} or pre_neg != post_neg:
        problems.append(f"grant {g}->{e} changed other entries")
    return problems


def check_connectivity(ref: Ref) -> list[str]:
    """Every grantor keeps a plain rooted chain (own BFS)."""
    loose = sorted({g for g, _ in ref.pos} | {g for g, _ in ref.neg})
    return [f"grantor {g} has no rooted chain" for g in loose if g not in ref.plain]


def check_undo(pre, undone) -> list[str]:
    return [] if same_state(pre, undone) else ["undo did not restore the exact pre-state"]


def check_locality(pre: Ref, post: Ref, j: str) -> list[str]:
    """A local scheme leaves the rights of everyone but j exactly as they were."""
    return [
        f"rights of {p} moved {pre.rights(p)} -> {post.rights(p)}"
        for p in sorted(pre.principals)
        if p != j and pre.rights(p) != post.rights(p)
    ]


def check_scheme(scheme: str, pre: Ref, post: Ref, delta, i: str, j: str) -> list[str]:
    """Propagation, dominance and resilience invariants of one scheme result."""
    local, strong, delete = scheme[1] == "L", scheme[0] == "S", scheme[2] == "D"
    problems = []
    issued_neg = {(n.grantor, n.grantee) for n in delta.issued_negative}
    if delete:
        if (i, j) in post.pos:
            problems.append(f"{scheme} kept the revoked edge ({i},{j})")
    elif (i, j) not in post.neg:
        problems.append(f"{scheme} did not block the revoked edge ({i},{j})")
    if not strong:
        for (k, target) in pre.pos:
            if target != j or k == i:
                continue
            if delete and (k, j) not in post.pos and k in post.plain:
                problems.append(f"{scheme} dropped ({k},{j}) though {k} kept a chain")
            if not delete and (k, j) in issued_neg:
                problems.append(f"{scheme} blocked ({k},{j})")
    elif local:
        for (k, target) in post.pos:
            if target != j or pre.independent(k, i):
                continue
            if delete or ((k, j) not in issued_neg and (k, j) not in pre.neg):
                problems.append(f"{scheme} left dependent grant ({k},{j}) in force")
    if not local:
        if delete and (delta.issued_positive or delta.issued_negative):
            problems.append(f"{scheme} is global and delete but issued entries")
        if not delete and delta.issued_positive:
            problems.append(f"{scheme} is global and negative but issued a positive")
    return problems


_EDGE = re.compile(r'^  "((?:[^"\\]|\\.)*)" -> "((?:[^"\\]|\\.)*)" \[(.*)\];$')


def check_dot(ref: Ref, text: str) -> list[str]:
    """One edge line per entry; dashes exactly on edges the own BFS finds inactive."""
    problems = []
    seen_pos: dict[Pair, str] = {}
    seen_neg: set[Pair] = set()
    for line in text.splitlines():
        if " -> " not in line:
            continue
        m = _EDGE.match(line)
        if m is None:
            problems.append(f"unreadable edge line {line!r}")
            continue
        pair, attrs = (m.group(1), m.group(2)), m.group(3)
        if attrs == 'label="FF"':
            if pair in seen_neg:
                problems.append(f"negative {pair} drawn twice")
            seen_neg.add(pair)
            continue
        if pair in seen_pos:
            problems.append(f"positive {pair} drawn twice")
        seen_pos[pair] = attrs
    if set(seen_pos) != set(ref.pos):
        problems.append("DOT positive edges differ from the state's entries")
    if seen_neg != ref.neg:
        problems.append("DOT negative edges differ from the state's entries")
    for pair, attrs in seen_pos.items():
        kind = ref.pos.get(pair)
        if kind is None:
            continue
        want = f'label="{kind}"' + ("" if ref.auth_active(*pair) else ", style=dashed")
        if attrs != want:
            problems.append(f"edge {pair} drawn as [{attrs}], own BFS wants [{want}]")
    return problems


def check_oracle(post, reference) -> list[str]:
    return [] if same_state(post, reference) else ["delete scheme differs from the reference"]


def check_replay(cli_text: str, library_text: str) -> list[str]:
    """The CLI's result document equals the library replay's, byte for byte."""
    return [] if cli_text == library_text else ["CLI trace result differs from the library replay"]


_MEMBERS = ["version", "soa", "principals", "positive", "negative", "time"]


def check_document(text: str, parse, serialize) -> list[str]:
    """The document has the published canonical form and survives a round trip.

    Canonical form, as documented: fixed member order, principals and entries
    sorted by (from, to), two-space indentation, trailing newline.
    """
    problems = []
    doc = json.loads(text)
    if list(doc) != _MEMBERS:
        problems.append(f"state document members are {list(doc)}")
    elif (
        doc["principals"] != sorted(doc["principals"])
        or any(doc[k] != sorted(doc[k], key=lambda e: (e["from"], e["to"])) for k in ("positive", "negative"))
    ):
        problems.append("state document entries are not sorted")
    if json.dumps(doc, indent=2, ensure_ascii=False) + "\n" != text:
        problems.append("state document is not laid out canonically")
    if serialize(parse(text)) != text:
        problems.append("state document changes in a parse and serialize round trip")
    return problems
