"""Serialization: state documents, trace documents, DOT export."""

from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import given, strategies as st

from authgraph import (
    AuthorizationState,
    GrantOp,
    NegativeAuth,
    NegativeOp,
    ParseError,
    PositiveAuth,
    PositiveKind,
    RevocationLabel,
    RevocationRequest,
    RevokeOp,
    Scheme,
    UndoOp,
    apply_scheme,
    export_dot,
    grant,
    issue_negative,
    new_state,
    parse_state,
    parse_trace,
    serialize_state,
    states_equal,
)

import sample_states

GOLDEN_STATES = [
    "after_sgd.json",
    "after_sgd_variant.json",
    "after_sld.json",
    "after_wgd.json",
    "after_wld.json",
    "after_wln.json",
    "blocked_chain.json",
    "empty_six.json",
    "orphan_grantor.json",
    "revocation_base.json",
    "rights_basic.json",
]

BASE_DOC = {
    "version": 1,
    "soa": "A",
    "principals": ["A", "B"],
    "positive": [{"from": "A", "to": "B", "kind": "TT"}],
    "negative": [],
    "time": 0,
}


def displaced_label_state():
    """A state whose reissue label carries both restore members."""
    state = new_state("A", ["A", "B", "C"])
    state, _ = grant(state, "A", "C", PositiveKind.TT)
    state, _ = grant(state, "A", "B", PositiveKind.TT)
    state, _ = grant(state, "B", "C", PositiveKind.TF)
    state, _ = issue_negative(state, "A", "C")
    state, _ = apply_scheme(state, RevocationRequest(Scheme.WLN, "A", "B"))
    return state


class TestStateRoundTrip:
    @pytest.mark.parametrize("name,state", sorted(sample_states.all_fixture_states().items()))
    def test_parse_inverts_serialize(self, name, state):
        back = parse_state(serialize_state(state))
        assert states_equal(back, state)
        assert back.time == state.time
        assert back.positive == state.positive
        assert back.negative == state.negative

    @pytest.mark.parametrize("filename", GOLDEN_STATES)
    def test_golden_files_are_canonical(self, fixtures_dir, filename):
        text = (fixtures_dir / filename).read_text(encoding="utf-8")
        assert serialize_state(parse_state(text)) == text

    def test_member_order_and_trailing_newline(self, revocation_base):
        text = serialize_state(revocation_base)
        keys = list(json.loads(text))
        assert keys == ["version", "soa", "principals", "positive", "negative", "time"]
        assert text.endswith("}\n")

    def test_entries_sorted_by_pair(self):
        state = new_state("A", ["A", "B", "C"])
        state, _ = grant(state, "A", "C", PositiveKind.TT)
        state, _ = grant(state, "A", "B", PositiveKind.TT)
        doc = json.loads(serialize_state(state))
        assert [(e["from"], e["to"]) for e in doc["positive"]] == [("A", "B"), ("A", "C")]

    def test_restore_members_survive_round_trip(self):
        state = displaced_label_state()
        label = state.positive_by_pair[("A", "C")].label
        assert label is not None and label.restores_kind is PositiveKind.TT
        assert label.restores_blocked
        text = serialize_state(state)
        assert serialize_state(parse_state(text)) == text
        doc = json.loads(text)
        slot = next(e for e in doc["positive"] if e["from"] == "A" and e["to"] == "C")
        assert slot["label"]["was_kind"] == "TT" and slot["label"]["was_blocked"] is True

    def test_version_member_is_optional(self):
        doc = dict(BASE_DOC)
        del doc["version"]
        state = parse_state(json.dumps(doc))
        assert state.soa == "A" and len(state.positive) == 1


def json_document(state):
    """The canonical document as `json` writes it, for comparison."""

    def label_doc(label):
        doc = {"from": label.root_grantor, "to": label.root_grantee, "seq": label.sequence}
        if label.restores_kind is not None:
            doc["was_kind"] = label.restores_kind.name
        if label.restores_blocked:
            doc["was_blocked"] = True
        return doc

    def entry_doc(auth, **kind):
        doc = {"from": auth.grantor, "to": auth.grantee, **kind}
        if auth.label is not None:
            doc["label"] = label_doc(auth.label)
        return doc

    doc = {
        "version": 1,
        "soa": state.soa,
        "principals": sorted(state.principals),
        "positive": [entry_doc(auth, kind=auth.kind.name) for auth in state.positive],
        "negative": [entry_doc(auth) for auth in state.negative],
        "time": state.time,
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# Names that need escaping, or are not ASCII, and any character UTF-8 can
# encode (no lone surrogate).
NAME_CHARS = st.sampled_from('"\\/\n\t\x00\x1f\x7f\u2028é中😀') | st.characters(blacklist_categories=("Cs",))


@st.composite
def labelled_states(draw):
    names = draw(st.lists(st.text(NAME_CHARS, min_size=1, max_size=4), min_size=1, max_size=5, unique=True))
    pairs = [(a, b) for a in names for b in names if a != b]
    roots = st.sampled_from(names) | st.text(NAME_CHARS, min_size=1, max_size=3)  # the library allows any
    labels = st.none() | st.builds(
        RevocationLabel,
        roots,
        roots,
        st.integers(0, 10**12),
        st.none() | st.sampled_from(PositiveKind),
        st.booleans(),
    )
    entries = st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([])
    positive = [PositiveAuth(*pair, draw(st.sampled_from(PositiveKind)), draw(labels)) for pair in draw(entries)]
    negative = [NegativeAuth(*pair, draw(labels)) for pair in draw(entries)]
    return AuthorizationState(
        names[0], frozenset(names), tuple(positive), tuple(negative), draw(st.integers(0, 10**12))
    )


@given(labelled_states())
def test_serialize_writes_what_json_writes(state):
    assert serialize_state(state) == json_document(state)


@given(labelled_states())
def test_the_constructor_records_every_label(state):
    # By key, the label index names exactly the pairs a scan of both maps
    # finds; a pickle and, where every label root is a principal, the state
    # the document parses to name the same.
    scanned: dict = {}
    for by_pair in (state.positive_by_pair, state.negative_by_pair):
        for pair, entry in by_pair.items():
            if entry.label is not None:
                scanned.setdefault(entry.label.key, set()).add(pair)
    copies = [state, pickle.loads(pickle.dumps(state))]
    if all(grantor in state.principals and grantee in state.principals for grantor, grantee, _ in scanned):
        copies.append(parse_state(serialize_state(state)))
    for copy in copies:
        assert {key: set(pairs) for key, pairs in copy.labelled.items()} == scanned


def _mutant(mutate):
    doc = json.loads(json.dumps(BASE_DOC))
    mutate(doc)
    return json.dumps(doc)


class TestParseStateErrors:
    @pytest.mark.parametrize(
        "payload,message",
        [
            ("{nope", "invalid document"),
            ("[1, 2]", "state document must be an object"),
            (_mutant(lambda d: d.pop("soa")), "missing member 'soa'"),
            (_mutant(lambda d: d.pop("principals")), "missing member 'principals'"),
            (_mutant(lambda d: d.pop("positive")), "missing member 'positive'"),
            (_mutant(lambda d: d.pop("negative")), "missing member 'negative'"),
            (_mutant(lambda d: d.pop("time")), "missing member 'time'"),
            (_mutant(lambda d: d.update(version=2)), "unsupported version 2"),
            (_mutant(lambda d: d.update(version=True)), "unsupported version True"),
            (_mutant(lambda d: d.update(version=1.0)), "unsupported version 1.0"),
            (_mutant(lambda d: d.update(extra=1)), "unknown member 'extra'"),
            (_mutant(lambda d: d.update(soa="Z")), "SOA 'Z' missing from principals"),
            (_mutant(lambda d: d.update(principals=["A", "A", "B"])), "duplicate principal"),
            (_mutant(lambda d: d.update(principals="AB")), "principals"),
            (_mutant(lambda d: d.update(time=-3)), "non-negative"),
            (
                _mutant(lambda d: d["positive"].append({"from": "B", "to": "B", "kind": "TF"})),
                "positive[1]: self-authorization",
            ),
            (
                _mutant(lambda d: d["positive"].append({"from": "A", "to": "B", "kind": "TF"})),
                "positive[1]: duplicate",
            ),
            (
                _mutant(lambda d: d["positive"].__setitem__(0, {"from": "A", "to": "B", "kind": "XX"})),
                '\'kind\' must be "TT" or "TF"',
            ),
            (
                _mutant(lambda d: d["positive"].__setitem__(0, {"from": "A", "to": "B"})),
                "positive[0]: missing member 'kind'",
            ),
            (
                _mutant(lambda d: d["positive"].__setitem__(0, {"from": "A", "to": "Z", "kind": "TT"})),
                "unknown principal 'Z'",
            ),
            (
                _mutant(lambda d: d["negative"].append({"from": "A", "to": "B", "kind": "FF"})),
                "negative[0]: unknown member 'kind'",
            ),
            (
                _mutant(
                    lambda d: d["positive"].__setitem__(
                        0,
                        {"from": "A", "to": "B", "kind": "TT", "label": {"from": "A", "to": "B"}},
                    )
                ),
                "missing label member 'seq'",
            ),
            (
                _mutant(
                    lambda d: d["positive"].__setitem__(
                        0,
                        {
                            "from": "A",
                            "to": "B",
                            "kind": "TT",
                            "label": {"from": "A", "to": "B", "seq": 0, "was_kind": "FF"},
                        },
                    )
                ),
                "was_kind",
            ),
            (
                _mutant(
                    lambda d: d["positive"].__setitem__(
                        0,
                        {"from": "A", "to": "B", "kind": "TT", "label": {"from": "", "to": "B", "seq": 0}},
                    )
                ),
                "positive[0]: label root principals must be non-empty",
            ),
            (
                _mutant(
                    lambda d: d["negative"].append(
                        {"from": "A", "to": "B", "label": {"from": "", "to": "B", "seq": 0}}
                    )
                ),
                "negative[0]: label root principals must be non-empty",
            ),
            pytest.param("1" * 5000, "invalid document", id="integer-past-digit-limit"),
            pytest.param(
                _mutant(lambda d: d.update(principals=["A", "B", "\ud800"])),
                "principals[2]: name is not UTF-8 text",
                id="lone-surrogate-principal",
            ),
            pytest.param(
                _mutant(
                    lambda d: d["positive"][0].update(label={"from": "\ud800", "to": "B", "seq": 0})
                ),
                "positive[0]: member 'from' is not UTF-8 text",
                id="lone-surrogate-label",
            ),
            pytest.param(
                _mutant(
                    lambda d: d["negative"].append(
                        {"from": "A", "to": "B", "label": {"from": "z", "to": "q", "seq": 5}}
                    )
                ),
                "negative[0]: label root 'z' is not a principal",
                id="label-root-not-a-principal",
            ),
            pytest.param(
                _mutant(
                    lambda d: d["positive"][0].update(label={"from": "A", "to": "q", "seq": 0})
                ),
                "positive[0]: label root 'q' is not a principal",
                id="label-grantee-root-not-a-principal",
            ),
            pytest.param(
                _mutant(lambda d: d["positive"][0].update({"to": "\ud800"})),
                "positive[0]: unknown principal '\\ud800'",
                id="lone-surrogate-endpoint",
            ),
            pytest.param(
                _mutant(lambda d: d["positive"][0].update({"from": 1})),
                "positive[0]: member 'from' must be text",
                id="endpoint-not-text",
            ),
            pytest.param(
                _mutant(lambda d: d["positive"][0].update(label=3)),
                "positive[0]: label must be an object",
                id="label-not-an-object",
            ),
            pytest.param(
                _mutant(
                    lambda d: d["positive"][0].update(label={"from": "A", "to": "B", "seq": 0, "why": 1})
                ),
                "positive[0]: unknown label member 'why'",
                id="unknown-label-member",
            ),
            pytest.param(
                _mutant(lambda d: d["positive"][0].update(label={"from": "A", "to": "B", "seq": -1})),
                "positive[0]: label member 'seq' must be a non-negative integer",
                id="negative-label-seq",
            ),
            pytest.param(
                _mutant(
                    lambda d: d["positive"][0].update(
                        label={"from": "A", "to": "B", "seq": 0, "was_blocked": 1}
                    )
                ),
                "positive[0]: label member 'was_blocked' must be a boolean",
                id="was-blocked-not-a-boolean",
            ),
            pytest.param(
                _mutant(lambda d: d.update(positive=[3])),
                "positive[0]: entry must be an object",
                id="entry-not-an-object",
            ),
            pytest.param(
                _mutant(lambda d: d.update(positive={})),
                "state: member 'positive' must be a list",
                id="positive-not-a-list",
            ),
            pytest.param(
                _mutant(lambda d: d.update(negative={})),
                "state: member 'negative' must be a list",
                id="negative-not-a-list",
            ),
            pytest.param(
                _mutant(lambda d: d.update(soa="", principals=["", "A", "B"])),
                "state: SOA id must be non-empty",
                id="empty-soa",
            ),
            pytest.param(
                _mutant(lambda d: d.update(principals=["A", "B", ""])),
                "state: principal ids must be non-empty strings",
                id="empty-principal",
            ),
        ],
    )
    def test_rejected_with_diagnostic(self, payload, message):
        with pytest.raises(ParseError) as err:
            parse_state(payload)
        assert message in str(err.value)


class TestParseTrace:
    OPS = [
        {"op": "grant", "from": "A", "to": "B", "kind": "TT"},
        {"op": "negative", "from": "A", "to": "B"},
        {"op": "undo", "from": "A", "to": "B"},
        {"op": "revoke", "from": "A", "to": "B", "scheme": "SGN"},
    ]

    def test_bare_list_and_object_forms_agree(self):
        bare = parse_trace(json.dumps(self.OPS))
        wrapped = parse_trace(json.dumps({"version": 1, "operations": self.OPS}))
        assert bare == wrapped
        assert bare == (
            GrantOp("A", "B", PositiveKind.TT),
            NegativeOp("A", "B"),
            UndoOp("A", "B"),
            RevokeOp(Scheme.SGN, "A", "B"),
        )

    def test_empty_trace(self):
        assert parse_trace("[]") == ()

    @pytest.mark.parametrize(
        "payload,message",
        [
            ('{"version": 2, "operations": []}', "unsupported version 2"),
            ('{"version": true, "operations": []}', "unsupported version True"),
            ('{"version": 1.0, "operations": []}', "unsupported version 1.0"),
            ('{"operations": [], "extra": 1}', "unknown member 'extra'"),
            ('{"version": 1}', "missing member 'operations'"),
            ('"grant"', "operations must form a list"),
            ("[42]", "operations[0]"),
            ('[{"from": "A", "to": "B"}]', "missing member 'op'"),
            ('[{"op": "promote", "from": "A", "to": "B"}]', "unknown operation 'promote'"),
            (
                '[{"op": "grant", "from": "A", "to": "B", "kind": "TT", "scheme": "WLD"}]',
                "grant needs exactly op/from/to/kind",
            ),
            (
                '[{"op": "revoke", "from": "A", "to": "B"}]',
                "revoke needs exactly op/from/to/scheme",
            ),
            (
                '[{"op": "negative", "from": "A", "to": "B", "kind": "TT"}]',
                "negative needs exactly op/from/to",
            ),
            (
                '[{"op": "undo", "from": "A", "to": "B", "kind": "TT"}]',
                "undo needs exactly op/from/to",
            ),
            ('[{"op": "revoke", "from": "A", "to": "B", "scheme": "QQQ"}]', "unknown scheme 'QQQ'"),
            ('[{"op": "grant", "from": "A", "to": "B", "kind": "FF"}]', "kind"),
            pytest.param("[" * 100_000, "nested too deeply", id="deep-nesting"),
            pytest.param("1" * 5000, "invalid document", id="integer-past-digit-limit"),
            pytest.param(
                '[{"op": "undo", "from": "\\ud800", "to": "B"}]',
                "operations[0]: member 'from' is not UTF-8 text",
                id="lone-surrogate",
            ),
        ],
    )
    def test_rejected_with_diagnostic(self, payload, message):
        with pytest.raises(ParseError) as err:
            parse_trace(payload)
        assert message in str(err.value)


class TestExportDot:
    def test_blocked_chain_exact_text(self, blocked_chain):
        assert export_dot(blocked_chain) == (
            "digraph authorization {\n"
            "  rankdir=LR;\n"
            '  "A" [peripheries=2];\n'
            '  "B";\n'
            '  "C";\n'
            '  "D";\n'
            '  "A" -> "B" [label="TT", style=dashed];\n'
            '  "A" -> "C" [label="TT"];\n'
            '  "B" -> "C" [label="TT", style=dashed];\n'
            '  "C" -> "D" [label="TT"];\n'
            '  "A" -> "B" [label="FF"];\n'
            "}\n"
        )

    def test_dashing_follows_activation(self, scheme_snapshots):
        lines = export_dot(scheme_snapshots["after_wln"]).splitlines()
        dashed = {
            line.split(" [")[0].strip()
            for line in lines
            if "style=dashed" in line
        }
        assert dashed == {'"A" -> "B"', '"B" -> "C"', '"B" -> "E"'}

    def test_single_principal(self):
        assert export_dot(new_state("A", ["A"])) == (
            "digraph authorization {\n  rankdir=LR;\n  \"A\" [peripheries=2];\n}\n"
        )

    def test_quoting(self):
        state = new_state('Root "R"', ['Root "R"', "back\\slash"])
        state, _ = grant(state, 'Root "R"', "back\\slash", PositiveKind.TF)
        text = export_dot(state)
        assert '"Root \\"R\\"" [peripheries=2];' in text
        assert '"Root \\"R\\"" -> "back\\\\slash" [label="TF"];' in text
