"""The scalar walk pinned against the reference interpreter.

Every single-stream scan runs :class:`~repro.core.scan.walk.SliceWalk`:
flow sessions, the ``serial`` backend and the policy layer's
attribution replay.  The e2e flows check replays through
``SessionScanner`` itself, so this seeded differential suite is the
independent check: each path is compared with ``DFA.run`` /
``DFA.match_events`` / ``DFA.count_matches`` and
``CompiledDictionary.match_events``, which stay on their own code.

Dictionaries: exact at D=1 and D>=3 (small ``max_states``) and a regex
dictionary.  ``count_matches`` is positional (one per final-state
entry); the walk counts per dictionary entry, so weighted totals are
checked against ``match_events`` and positional ones against
``count_matches``.
"""

import random
from collections import Counter

import pytest

from repro.core.backends import ScanContext, ScanRequest, execute
from repro.core.compiled import compile_dictionary
from repro.dfa.automaton import DFA
from repro.policy import Rule, RuleSet
from repro.service.sessions import SessionScanner

WORDS = [b"virus", b"worm", b"trojan", b"attack", b"backdoor",
         b"exploit", b"rootkit", b"malware", b"phish", b"botnet",
         b"abab", b"ABABAB", b"BABA", b"tac"]
REGEXES = ["vi.us", "wor+m", "tro[jy]an", "back(door)?", "a[bc]+d"]
KINDS = ["d1", "d3", "regex"]

_COMPILED = {}


def _dictionary(kind):
    if kind not in _COMPILED:
        if kind == "d1":
            found = compile_dictionary(WORDS)
        elif kind == "regex":
            found = compile_dictionary(REGEXES, regex=True, max_states=24)
        else:
            found = next(c for c in (compile_dictionary(WORDS, max_states=m)
                                     for m in range(40, 4, -1))
                         if c.num_slices >= 3)
        _COMPILED[kind] = found
    return _COMPILED[kind]


def _corpus(rng, length):
    """Random bytes biased toward dictionary words, regex hits and
    fold-aliasing bytes, so matches are dense and cross packet cuts."""
    pool = [bytes([rng.randrange(0, 256)]) for _ in range(4)]
    pool += [bytes([rng.randrange(0x40, 0x60)]) for _ in range(3)]
    pool += WORDS[:8] + [b"ABABABA", b"viRus", b"worrrm", b"troyan",
                         b"abccbd", b"aba", b" "]
    return b"".join(rng.choice(pool) for _ in range(length // 3 + 1))[:length]


def _cuts(rng, stream):
    """A random packetization of ``stream``, empty packets included."""
    packets, pos = [], 0
    while pos < len(stream):
        size = rng.choice([0, 1, 2, 5, 17, 64, 200])
        packets.append(stream[pos:pos + size])
        pos += size
    packets.insert(rng.randrange(len(packets) + 1), b"")
    return packets


def _from(dfa, state):
    """``dfa`` re-rooted at ``state``: the reference for a walk that
    enters mid-stream."""
    return DFA(dfa.transitions, dfa.finals, state, dfa.outputs)


@pytest.mark.parametrize("kind", KINDS)
class TestSliceWalk:
    def test_walk_equals_reference_from_any_entry_state(self, kind):
        compiled = _dictionary(kind)
        rng = random.Random(17)
        for walk, dfa in zip(compiled.walks(), compiled.dfas):
            assert walk.start == dfa.start
            for case in range(25):
                entry = rng.randrange(dfa.num_states)
                ref = _from(dfa, entry)
                folded = compiled.fold.fold_bytes(
                    _corpus(rng, rng.choice([0, 1, 9, 120, 700])))
                events = [(e.end, e.pattern)
                          for e in ref.match_events(folded)]
                state, count = walk.count(entry, folded)
                assert state == ref.run(folded), (kind, case)
                assert count == len(events), (kind, case)
                assert walk.events(entry, folded) == events, (kind, case)
                assert ref.count_matches(folded) == \
                    len({end for end, _ in events}), (kind, case)

    def test_tables_are_cached_and_lazy(self, kind):
        compiled = compile_dictionary(
            WORDS if kind != "regex" else REGEXES,
            regex=kind == "regex",
            max_states=_dictionary(kind).max_states)
        assert compiled._walks is None
        SessionScanner(compiled)                # construction builds none
        assert compiled._walks is None
        assert compiled.walks() is compiled.walks()


@pytest.mark.parametrize("kind", KINDS)
class TestSessionsDifferential:
    def test_packets_equal_per_slice_reference(self, kind):
        """Interleaved flows under random packetizations: every packet's
        ``pre_states`` are ``DFA.run`` of the flow's prefix, every
        ``per_slice`` delta is the slice reference's, and each flow's
        lifetime total is the whole-stream count."""
        compiled = _dictionary(kind)
        rng = random.Random(5 + len(kind))
        streams = {f"f{i}": _corpus(rng, rng.randrange(0, 900))
                   for i in range(5)}
        queues = {fid: _cuts(rng, s) for fid, s in streams.items()}
        sent = {fid: b"" for fid in streams}
        scanner = SessionScanner(compiled, max_flows=16)
        while any(queues.values()):
            fid = rng.choice([f for f, q in queues.items() if q])
            packet = queues[fid].pop(0)
            prefix = compiled.fold.fold_bytes(sent[fid])
            whole = compiled.fold.fold_bytes(sent[fid] + packet)
            detail = scanner.scan_packet_detail(fid, packet)
            assert detail.folded == compiled.fold.fold_bytes(packet)
            for i, dfa in enumerate(compiled.dfas):
                assert detail.pre_states[i] == dfa.run(prefix)
                assert detail.per_slice[i] == \
                    len(dfa.match_events(whole)) - \
                    len(dfa.match_events(prefix))
            assert detail.new == sum(detail.per_slice)
            assert detail.evicted == []
            sent[fid] += packet
        for fid, stream in streams.items():
            assert sent[fid] == stream
            folded = compiled.fold.fold_bytes(stream)
            # An empty packet moves no state: its pre_states are the
            # flow's exit states.
            assert scanner.scan_packet_detail(fid, b"").pre_states == \
                [dfa.run(folded) for dfa in compiled.dfas]
            expected = len(compiled.match_events(stream))
            assert expected == sum(len(dfa.match_events(folded))
                                   for dfa in compiled.dfas)
            assert scanner.close_flow(fid) == (len(stream), expected)

    def test_lru_eviction_mid_stream_restarts_the_flow(self, kind):
        compiled = _dictionary(kind)
        rng = random.Random(99)
        stream = _corpus(rng, 600)
        head, tail = stream[:300], stream[300:]
        scanner = SessionScanner(compiled, max_flows=2, on_full="lru")
        scanner.scan_packet("victim", head)
        scanner.scan_packet("x", b"")
        detail = scanner.scan_packet_detail("y", b"")
        assert detail.evicted == ["victim"]
        assert scanner.evictions == 1
        # The re-opened flow walks from every slice's start state: its
        # count is the tail's own, with no memory of the head.
        detail = scanner.scan_packet_detail("victim", tail)
        assert detail.evicted == ["x"]
        assert detail.pre_states == [dfa.start for dfa in compiled.dfas]
        assert detail.new == detail.flow_total == \
            len(compiled.match_events(tail))

    def test_carry_across_reload_restarts_states_keeps_order(self, kind):
        old_dict = _dictionary(kind)
        new_dict = _dictionary("d1" if kind != "d1" else "d3")
        rng = random.Random(123)
        old = SessionScanner(old_dict, max_flows=8)
        heads = {}
        for fid in ("a", "b", "c"):
            heads[fid] = _corpus(rng, 250)
            old.scan_packet(fid, heads[fid])
        old.scan_packet("a", b"")                  # a is most recent
        order = old.flow_ids()
        assert order == ["b", "c", "a"]
        new = SessionScanner(new_dict, max_flows=8)
        assert new.carry_from(old) == 3
        assert old.num_flows == 0
        assert new.flow_ids() == order
        for fid in order:
            tail = _corpus(rng, 250)
            detail = new.scan_packet_detail(fid, tail)
            assert detail.pre_states == [d.start for d in new_dict.dfas]
            assert detail.new == len(new_dict.match_events(tail))
            assert detail.flow_total == \
                len(old_dict.match_events(heads[fid])) + detail.new


@pytest.mark.parametrize("kind", KINDS)
def test_serial_backend_equals_match_events(kind):
    compiled = _dictionary(kind)
    rng = random.Random(7)
    with ScanContext(compiled) as ctx:
        for case in range(12):
            data = _corpus(rng, rng.choice([0, 1, 50, 900, 5000]))
            ref = compiled.match_events(data)
            prefilters = [False] if compiled.prefilter() is None \
                else [False, True]
            for prefilter in prefilters:
                out = execute(ctx, ScanRequest(data=data, with_events=True,
                                               prefilter=prefilter),
                              backend="serial")
                assert out.events == ref, (kind, case, prefilter)
                assert out.total_matches == len(ref)
                assert out.pattern_counts == \
                    dict(Counter(e.pattern for e in ref))


def _rules_for(compiled):
    """Rules that leave slice 0 pure (one rule owns all of it) and
    split every other slice — or the only slice — between two rules."""
    def named(gids):
        return tuple(compiled.patterns[g] for g in gids)

    groups = compiled.groups
    if len(groups) == 1:
        split = groups[0]
        rules = []
    else:
        split = [g for group in groups[1:] for g in group]
        rules = [Rule("own", "alert", patterns=named(groups[0]))]
    rules.append(Rule("even", "mirror", patterns=named(split[0::2])))
    rules.append(Rule("odd", "drop", patterns=named(split[1::2])))
    rules.append(Rule("any", "alert"))         # wildcard: every entry
    return RuleSet(tuple(rules), mode="accumulate")


@pytest.mark.parametrize("kind", KINDS)
def test_attribution_equals_grouped_match_events(kind):
    """Per-rule counts from ``CompiledRuleSet.attribute`` equal the
    packet's ``match_events`` grouped by rule, on mixed and pure
    slices, from non-start pre-packet states."""
    compiled = _dictionary(kind)
    ruleset = _rules_for(compiled)
    binding = ruleset.compile(compiled)
    if compiled.num_slices > 1:
        assert 0 < binding.pure_slices < compiled.num_slices
    else:
        assert binding.pure_slices == 0
    fold = compiled.fold
    members = [None if not rule.patterns else
               {fold.fold_bytes(p) for p in rule.patterns}
               for rule in ruleset.rules]
    scanner = SessionScanner(compiled)
    rng = random.Random(31)
    sent = b""
    mixed_resolved = 0
    for case, packet in enumerate(_cuts(rng, _corpus(rng, 3000))):
        detail = scanner.scan_packet_detail("f", packet)
        whole = sent + packet
        want = Counter()
        for ev in compiled.match_events(whole):
            if ev.end <= len(sent):
                continue
            name = fold.fold_bytes(compiled.patterns[ev.pattern])
            for ri, m in enumerate(members):
                if m is None or name in m:
                    want[ri] += 1
        assert binding.attribute(detail) == dict(want), (kind, case)
        mixed_resolved += sum(
            1 for si, delta in enumerate(detail.per_slice)
            if delta and binding._pure[si] is None)
        sent = whole
    assert mixed_resolved > 0
