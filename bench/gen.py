"""Seeded input generator for the benchmark (standard library only).

A graph is a random TT spanning tree over the core principals, rooted at the
SOA, plus random extra edges between core principals until the positive edge
count is reached; a share of the positive edges is TF and a share is blocked
by an FF on the same pair.  Spare principals get no edges, so operations
aimed at them never disturb the core graph.  Graphs are handed to the program
either through the public `AuthorizationState` constructor or as a state
document for `parse_state`; they are never grown with `grant`, which runs a
full reachability pass per call.

Traces are valid by construction, judged by this module's own reachability
pass and never by calling the program:

* grants come only from grantors the own pass marks active, onto fresh pairs;
* each negative scheme is immediately followed by its undo, which restores the
  exact pre-state, so the core graph a later step sees is the base graph plus
  earlier grants;
* delete schemes target a TT edge between two spare principals that the trace
  itself granted, so their cascades stay among spare principals.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from authgraph import AuthorizationState, NegativeAuth, PositiveAuth, PositiveKind

from checks import reach

DELETE_SCHEMES = ("WLD", "WGD", "SLD", "SGD")
NEGATIVE_SCHEMES = ("WLN", "WGN", "SLN", "SGN")
LOCAL_NEGATIVE_SCHEMES = ("WLN", "SLN")
TF_SHARE = 0.3

Pair = tuple[str, str]


@dataclass
class Graph:
    soa: str
    core: list[str]
    spare: list[str]
    pos: dict[Pair, str]  # pair -> "TT" | "TF"
    neg: set[Pair] = field(default_factory=set)

    @property
    def principals(self) -> list[str]:
        return self.core + self.spare

    def active(self) -> set[str]:
        adj: dict[str, list[str]] = {}
        for (g, e), kind in self.pos.items():
            if kind == "TT" and (g, e) not in self.neg:
                adj.setdefault(g, []).append(e)
        return reach(adj, self.soa)


def make_graph(
    rng: random.Random,
    n: int,
    n_spare: int,
    edges: int,
    blocked: int = 0,
) -> Graph:
    """Spanning tree plus extras: `edges` positive edges, `TF_SHARE` of them TF
    and `blocked` of them FF'd."""
    width = len(str(n - 1))
    names = [f"p{k:0{width}d}" for k in range(n)]
    core, spare = names[: n - n_spare], names[n - n_spare :]
    soa = core[0]
    order = core[1:]
    rng.shuffle(order)
    pos: dict[Pair, str] = {}
    placed = [soa]
    for k in order:
        pos[(rng.choice(placed), k)] = "TT"
        placed.append(k)
    edges = min(edges, len(core) * (len(core) - 1))
    tf_left = round(TF_SHARE * edges)
    while len(pos) < edges:
        g, e = rng.choice(core), rng.choice(core)
        if g == e or (g, e) in pos:
            continue
        if tf_left > 0 and rng.random() < tf_left / (edges - len(pos)):
            pos[(g, e)] = "TF"
            tf_left -= 1
        else:
            pos[(g, e)] = "TT"
    pairs = sorted(pos)
    neg = set(rng.sample(pairs, min(blocked, len(pairs))))
    return Graph(soa, core, spare, pos, neg)


def standard_graph(rng: random.Random, n: int) -> Graph:
    """The large make-up: ~3 positive edges per core principal, 30% TF, 5% blocked."""
    n_spare = n // 20
    edges = 3 * (n - n_spare)
    return make_graph(rng, n, n_spare, edges, blocked=edges // 20)


def small_graph(rng: random.Random) -> Graph:
    """At most six principals: one spare, a tree, a few extras, at most one FF."""
    n = rng.randint(3, 6)
    core = n - 1
    edges = rng.randint(core - 1, min(2 * core, core * (core - 1)))
    return make_graph(rng, n, 1, edges, blocked=rng.randint(0, min(1, edges - 1)))


def to_state(graph: Graph) -> AuthorizationState:
    """Build the state through the public constructor."""
    return AuthorizationState(
        soa=graph.soa,
        principals=frozenset(graph.principals),
        positive=tuple(PositiveAuth(g, e, PositiveKind[k]) for (g, e), k in graph.pos.items()),
        negative=tuple(NegativeAuth(g, e) for g, e in graph.neg),
    )


def to_document(graph: Graph) -> str:
    """A state document in the published format, written without the program."""
    doc = {
        "version": 1,
        "soa": graph.soa,
        "principals": graph.principals,
        "positive": [{"from": g, "to": e, "kind": k} for (g, e), k in graph.pos.items()],
        "negative": [{"from": g, "to": e} for g, e in sorted(graph.neg)],
        "time": 0,
    }
    return json.dumps(doc)


def targets(graph: Graph) -> list[Pair]:
    """Unblocked edges (i, j): the targets of delete and global negative schemes."""
    return sorted(p for p in graph.pos if p not in graph.neg)


def local_negative_targets(graph: Graph) -> list[Pair]:
    """The targets of WLN and SLN: unblocked edges less those that hit the known fault.

    Left out: targets where j holds an unblocked TF grant to some k while the
    slot (i, k) is a blocked TT.  There a local negative scheme reissues the
    TF over the TT and k can lose its last plain rooted chain, breaking
    connectivity (a program fault; the benchmark shows it on one fixed input).
    """
    tf_out: dict[str, list[str]] = {}
    for (g, e), kind in graph.pos.items():
        if kind == "TF" and (g, e) not in graph.neg:
            tf_out.setdefault(g, []).append(e)
    return [
        (i, j)
        for i, j in targets(graph)
        if not any(graph.pos.get((i, k)) == "TT" and (i, k) in graph.neg for k in tf_out.get(j, ()))
    ]


def make_trace(rng: random.Random, graph: Graph, rounds: int) -> list[dict]:
    """A mixed trace: per round, two core grants, each delete scheme on a spare
    edge the trace grants first, and each negative scheme followed by its undo.

    `graph` is updated to the state the trace leaves behind (negatives undone,
    delete-scheme cascades confined to spare principals it does not track).
    """
    ops: list[dict] = []
    spare = list(graph.spare)
    rng.shuffle(spare)
    if len(spare) < 2 * len(DELETE_SCHEMES) * rounds:
        raise ValueError("not enough spare principals for the trace")
    for _ in range(rounds):
        active = sorted(graph.active() & set(graph.core))
        for _ in range(2):
            while True:
                g, e = rng.choice(active), rng.choice(graph.core)
                if g != e and (g, e) not in graph.pos:
                    break
            kind = rng.choice(("TT", "TF"))
            ops.append({"op": "grant", "from": g, "to": e, "kind": kind})
            graph.pos[(g, e)] = kind
            active = sorted(graph.active() & set(graph.core))
        for scheme in DELETE_SCHEMES:
            s1, s2 = spare.pop(), spare.pop()
            ops.append({"op": "grant", "from": rng.choice(active), "to": s1, "kind": "TT"})
            ops.append({"op": "grant", "from": s1, "to": s2, "kind": "TT"})
            ops.append({"op": "revoke", "from": s1, "to": s2, "scheme": scheme})
        candidates = targets(graph), local_negative_targets(graph)
        for scheme in NEGATIVE_SCHEMES:
            i, j = rng.choice(candidates[scheme in LOCAL_NEGATIVE_SCHEMES])
            ops.append({"op": "revoke", "from": i, "to": j, "scheme": scheme})
            ops.append({"op": "undo", "from": i, "to": j})
    return ops
