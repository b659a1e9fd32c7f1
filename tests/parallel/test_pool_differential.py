"""Pooled and streaming scans against the serial reference.

The ``pooled`` and ``streaming`` backends run one kernel — whichever
``ScanContext.batch_kernel_name()`` picks for the dictionary — and must
give the serial reference walk's counts on a block, on an iterator of
odd-sized chunks and on a file, for exact dictionaries at D ∈ {1, 2, 4}
slices and for a partitioned regex dictionary.  A tiny staging ring
forces shard and buffer boundaries into matches so every kernel's
per-chain ledger repair demonstrably runs.
"""

import random

import pytest

from repro.core.backends import ScanContext, ScanRequest, execute
from repro.core.compiled import compile_dictionary
from repro.core.scan import get_kernel, kernel_names
from repro.parallel import ShardedScanner

WORDS = [b"virus", b"worm", b"trojan", b"attack", b"backdoor",
         b"exploit", b"rootkit", b"malware", b"phish", b"botnet",
         b"abab", b"ABABAB", b"tac"]
REGEXES = ["vi.us", "wor+m", "tro[jy]an", "back(door)?", "a[bc]+d"]

_COMPILED = {}


def _dictionary(kind):
    """An exact dictionary partitioned into ``kind`` slices, or the
    regex dictionary for ``kind == "regex"``."""
    if kind not in _COMPILED:
        if kind == "regex":
            found = compile_dictionary(REGEXES, regex=True, max_states=24)
        elif kind == 1:
            found = compile_dictionary(WORDS)
        else:
            found = None
            for max_states in range(80, 4, -1):
                c = compile_dictionary(WORDS, max_states=max_states)
                if c.num_slices == kind:
                    found = c
                    break
            if found is None:
                pytest.skip(f"no max_states budget yields {kind} slices")
        _COMPILED[kind] = found
    return _COMPILED[kind]


def _traffic(seed, length):
    """Match-dense bytes: dictionary words (and regex hits) packed
    between random bytes, so most shard boundaries land inside one."""
    rng = random.Random(seed)
    pool = WORDS + [b"viaus", b"worrrm", b"troyan", b"abcbd", b" "]
    out = bytearray()
    while len(out) < length:
        out += rng.choice(pool)
        if rng.random() < 0.3:
            out += bytes([rng.randrange(256)])
    return bytes(out[:length])


def _odd_chunks(data, seed):
    rng = random.Random(seed)
    chunks, pos = [], 0
    while pos < len(data):
        step = rng.choice([1, 7, 333, 4099, 65537])
        chunks.append(data[pos:pos + step])
        chunks.append(b"")
        pos += step
    return chunks


DICTIONARIES = [1, 2, 4, "regex"]


@pytest.mark.parametrize("dictionary", DICTIONARIES)
def test_pooled_and_streaming_equal_serial(dictionary, tmp_path):
    compiled = _dictionary(dictionary)
    data = _traffic(11, 300_000)        # past the pool's small-input bypass
    path = tmp_path / "traffic.bin"
    path.write_bytes(data)
    with ScanContext(compiled) as ctx:
        want = execute(ctx, ScanRequest(data=data),
                       backend="serial").total_matches
        assert want > 0
        kernel = ctx.batch_kernel_name()
        for workers in (1, 2):
            outcomes = [
                execute(ctx, ScanRequest(data=data, workers=workers),
                        backend="pooled"),
                execute(ctx, ScanRequest(data=data, workers=workers),
                        backend="streaming"),
                execute(ctx, ScanRequest(chunks=iter(_odd_chunks(data, 3)),
                                         workers=workers)),
                execute(ctx, ScanRequest(file=path, workers=workers)),
            ]
            for out in outcomes:
                assert out.total_matches == want, \
                    f"{out.backend} diverged (workers={workers})"
                assert out.stats["kernel"] == kernel
                assert out.workers == workers
            assert outcomes[2].backend == outcomes[3].backend == \
                "streaming"
        # pooled, streaming and the prefilter verifier share one kernel
        assert ctx.sharded(2).kernel is ctx.kernel(kernel)


@pytest.mark.parametrize("dictionary", DICTIONARIES)
def test_tiny_ring_repairs_stay_exact(dictionary, tmp_path):
    compiled = _dictionary(dictionary)
    data = _traffic(29, 60_000)
    path = tmp_path / "traffic.bin"
    path.write_bytes(data)
    with ScanContext(compiled) as ctx:
        want = execute(ctx, ScanRequest(data=data),
                       backend="serial").total_matches
    names = [n for n in kernel_names() if get_kernel(n).supports(compiled)]
    assert len(names) == (2 if dictionary == "regex" else 4)
    for name in names:
        kernel = get_kernel(name).from_compiled(compiled)
        with ShardedScanner(kernel, workers=2, min_shard_bytes=0,
                            ring_bytes=4093, chunks=8) as scanner:
            assert scanner.count_block(data) == want, name
            stats = scanner.last_scan_stats
            assert stats["buffers"] >= 14
            assert stats["repaired_shards"] > 0, name
            assert scanner.count_stream(iter(_odd_chunks(data, 5))) \
                == want, name
            assert scanner.last_scan_stats["repaired_shards"] > 0
            assert scanner.scan_file(path) == want, name
            assert scanner.last_scan_stats["bytes"] == len(data)
