"""Kernel tables in shared memory: export, attach, and lifetime.

Every registered kernel leaves the process the same way — its
``shared_export()`` bundle — and comes back worker-side through
``from_bundle()``.  The attached kernel must scan exactly like the
original, and closing the owner's bundle must leave no segment behind.
"""

import os
import pickle

import numpy as np
import pytest

from repro.core.compiled import compile_dictionary
from repro.core.scan import (FlatKernel, SharedArrayBundle, VectorDFAEngine,
                             build_flat_table, build_weight_table,
                             get_kernel)
from repro.dfa import build_dfa
from repro.dfa.alphabet import case_fold_32, identity_fold
from repro.dfa.automaton import DFAError
from repro.workloads import plant_matches, random_payload

PATTERNS = [b"\x01\x02\x03", b"\x02\x03", b"\x1f" * 4]

WORDS = [b"virus", b"worm", b"trojan", b"attack", b"backdoor",
         b"exploit", b"rootkit", b"malware", b"phish", b"botnet"]
REGEXES = ["vi.us", "wor+m", "tro[jy]an", "back(door)?"]


@pytest.fixture
def dfa():
    return build_dfa(PATTERNS, 32)


def _segments():
    """Names of the live POSIX shared-memory segments (empty where the
    platform does not expose them as files)."""
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") \
        else set()


# -- the flat kernel's bundle ------------------------------------------------------


def test_segment_holds_the_exact_artifacts(dfa):
    flat, _ = build_flat_table(dfa.transitions, dfa.final_mask)
    weights = build_weight_table(dfa)
    kernel = FlatKernel.from_dfas(dfa, weighted=True)
    with kernel.shared_export() as bundle:
        assert np.array_equal(bundle["flat0"], flat)
        assert np.array_equal(bundle["weights0"], weights)
        assert bundle.scalar("starts") == [dfa.start]
        assert bundle.scalar("num_states") == [dfa.num_states]
        assert bundle.scalar("symbol_width") == dfa.alphabet_size
        assert bundle.size_bytes >= flat.nbytes + weights.nbytes
    with FlatKernel.from_dfas(dfa).shared_export() as bundle:
        assert "weights0" not in bundle      # unweighted: flag counting


def test_attach_sees_the_creators_bytes(dfa):
    with FlatKernel.from_dfas(dfa).shared_export() as bundle:
        peer = SharedArrayBundle.attach(bundle.meta())
        try:
            assert np.array_equal(peer["flat0"], bundle["flat0"])
            # Same physical memory: a write on one side is visible on the
            # other (we restore it immediately).
            original = int(bundle["flat0"][0])
            bundle["flat0"][0] = original ^ 1
            assert int(peer["flat0"][0]) == original ^ 1
            bundle["flat0"][0] = original
        finally:
            peer.close()


def test_attached_scanner_matches_local_scan(dfa):
    data = bytes([1, 2, 3, 4, 2, 3, 31, 31, 31, 31, 0]) * 40
    expected = VectorDFAEngine(dfa).count_block_reference(data)
    with FlatKernel.from_dfas(dfa).shared_export() as bundle:
        peer = SharedArrayBundle.attach(bundle.meta())
        try:
            kernel = FlatKernel.from_bundle(peer)
            arr = np.frombuffer(data, dtype=np.uint8)
            assert kernel.count_total(arr) == expected
        finally:
            # The kernel's tables are views into the segment; drop them
            # before closing or the mapping cannot be released.
            kernel = None
            peer.close()


def test_meta_is_a_picklable_copy(dfa):
    with FlatKernel.from_dfas(dfa).shared_export() as bundle:
        meta = bundle.meta()
        assert pickle.loads(pickle.dumps(meta)) == meta
        meta["starts"] = [999]  # mutating the copy must not leak back
        assert bundle.meta()["starts"] == [dfa.start]


def test_owner_close_unlinks_the_segment(dfa):
    bundle = FlatKernel.from_dfas(dfa).shared_export()
    meta = bundle.meta()
    bundle.close()
    with pytest.raises(FileNotFoundError):
        SharedArrayBundle.attach(meta)
    bundle.close()     # idempotent


def test_fold_table_roundtrip(dfa):
    """A fold composed into the flat kernel travels inside its table:
    the attached kernel scans raw bytes exactly like the original."""
    fold = case_fold_32()
    kernel = FlatKernel.from_dfas(dfa, fold=fold)
    assert kernel.input_bound is None
    raw = bytes(range(256)) * 8 + b"\x01\x02\x03\x21\x22\x23" * 30
    arr = np.frombuffer(raw, dtype=np.uint8)
    expected = VectorDFAEngine(dfa).count_block_reference(
        fold.fold_bytes(raw))
    with kernel.shared_export() as bundle:
        assert bundle.scalar("symbol_width") == 256
        peer = SharedArrayBundle.attach(bundle.meta())
        try:
            attached = FlatKernel.from_bundle(peer)
            assert attached.input_bound is None
            assert attached.count_total(arr) == expected
        finally:
            attached = None
            peer.close()


def test_fold_width_mismatch_rejected(dfa):
    with pytest.raises(DFAError):
        FlatKernel.from_dfas(dfa, fold=identity_fold(256))


# -- every kernel's round trip ------------------------------------------------------

_COMPILED = {}


def _compiled(kind):
    """An exact dictionary partitioned into D slices, or a regex one."""
    if kind not in _COMPILED:
        if kind == "regex":
            found = compile_dictionary(REGEXES, regex=True)
        elif kind == 1:
            found = compile_dictionary(WORDS)
        else:
            found = None
            for max_states in range(60, 4, -1):
                c = compile_dictionary(WORDS, max_states=max_states)
                if c.num_slices == kind:
                    found = c
                    break
            if found is None:
                pytest.skip(f"no max_states budget yields {kind} slices")
        _COMPILED[kind] = found
    return _COMPILED[kind]


def _same_ledgers(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.entry_state == w.entry_state
        assert np.array_equal(g.seg_bounds, w.seg_bounds)
        assert np.array_equal(g.seg_counts, w.seg_counts)
        assert np.array_equal(g.seg_exits, w.seg_exits)


@pytest.mark.parametrize("dictionary", [1, 4, "regex"])
@pytest.mark.parametrize("name", ["flat", "fused", "hotcold", "hotcold2"])
def test_kernel_bundle_round_trip(name, dictionary):
    compiled = _compiled(dictionary)
    cls = get_kernel(name)
    if not cls.supports(compiled):
        pytest.skip(f"{name} needs the union automaton")
    kernel = cls.from_compiled(compiled)
    raw = plant_matches(random_payload(30_000, 256, seed=5), WORDS, 60,
                        seed=6)
    arr = np.frombuffer(raw, dtype=np.uint8)
    tail = arr[7_001:]
    # Non-start entry states: wherever the chains stand after a head
    # that stops inside a dictionary word.
    head = np.frombuffer(raw[:7_001] + b" backdo", dtype=np.uint8)
    entry = [d.exit_state for d in kernel.count_arr_detail(head, 64)]
    assert entry != [d.entry_state for d in kernel.count_arr_detail(
        head[:0])]
    before = _segments()
    bundle = kernel.shared_export()
    seg = bundle.meta()["name"].lstrip("/")
    try:
        assert seg in _segments() or not os.path.isdir("/dev/shm")
        peer = SharedArrayBundle.attach(pickle.loads(pickle.dumps(
            bundle.meta())))
        try:
            attached = cls.from_bundle(peer)
            for chunks in (None, 64):
                got = attached.count_arr_per_dfa(arr, chunks)
                want = kernel.count_arr_per_dfa(arr, chunks)
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])
                _same_ledgers(attached.count_arr_detail(arr, chunks),
                              kernel.count_arr_detail(arr, chunks))
                _same_ledgers(
                    attached.count_arr_detail(tail, chunks,
                                              entry_states=entry),
                    kernel.count_arr_detail(tail, chunks,
                                            entry_states=entry))
        finally:
            attached = None
            peer.close()
    finally:
        bundle.close()
    assert seg not in _segments()
    assert _segments() <= before
