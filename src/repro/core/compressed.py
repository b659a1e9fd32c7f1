"""Compressed state-transition tables — default-transition encodings of
the paper's §4 *complete* table.

The paper deliberately spends local store on a dense row per state because
a transition must cost exactly one load.  The classic alternative
(default-transition compression, the idea behind D2FA and the original
Aho–Corasick failure function) stores, per state, only the transitions
that *differ* from a default state's row and falls back otherwise:

* memory shrinks dramatically (security DFAs are failure-closed, so most
  rows differ from their failure state in a handful of symbols);
* but one input symbol may now take several fallback hops — the per-byte
  cost becomes input-dependent, surrendering exactly the overload-attack
  immunity the paper's §1 demands.

Two representations share the sparse (CSR-style) machinery here:

* :class:`CompressedSTT` — per-state default *chains* (AC failure links),
  the faithful D2FA-style ablation with input-dependent hop counts;
* :class:`ColdRowStore` — the depth-1 variant that actually ships inside
  the hot/cold fused scanner (:class:`repro.core.scan.HotColdFusedTable`):
  every cold row compresses against one shared default row, so a cold
  lookup is exactly one sorted probe, never a chain walk.  That bounds
  the slow path's per-byte cost and keeps the §1 immunity argument —
  the escape costs more than a hot gather, but a constant amount more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..dfa.automaton import DFA, DFAError
from .stt import CELL_BYTES

__all__ = ["ColdRowStore", "CompressedSTT", "CompressionStats", "csr_encode"]


def csr_encode(rows: np.ndarray,
               default_rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sparse ``(keys, vals)`` of the cells where ``rows`` differs from
    ``default_rows`` (same shape, or one shared row broadcast over the
    row axis).  Keys are ``row * width + column`` emitted in row-major
    order — strictly increasing, ready for ``searchsorted``."""
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise DFAError("row matrix must be 2-D")
    mask = rows != np.asarray(default_rows)
    r, c = np.nonzero(mask)
    keys = r.astype(np.int64) * rows.shape[1] + c
    return keys, rows[r, c]


class ColdRowStore:
    """Shared-default compressed rows with one-probe vectorized lookup.

    Row ``j`` is stored as its exceptions against a single shared
    ``default_row``; a miss in the sorted key array answers from the
    default.  Built from (and serialized as) three flat numpy arrays so
    it can live in an artifact file or a shared-memory segment verbatim.
    """

    def __init__(self, keys: np.ndarray, vals: np.ndarray,
                 default_row: np.ndarray, num_rows: int) -> None:
        self.keys = np.ascontiguousarray(keys, dtype=np.int64)
        self.vals = np.ascontiguousarray(vals, dtype=np.int32)
        self.default_row = np.ascontiguousarray(default_row,
                                                dtype=np.int32)
        self.num_rows = int(num_rows)
        self.width = int(self.default_row.size)
        if self.keys.shape != self.vals.shape or self.keys.ndim != 1:
            raise DFAError("cold-row keys/vals must be parallel 1-D arrays")
        if self.keys.size and bool((np.diff(self.keys) <= 0).any()):
            raise DFAError("cold-row keys must be strictly increasing")

    @classmethod
    def from_rows(cls, rows: np.ndarray,
                  default_row: np.ndarray) -> "ColdRowStore":
        rows = np.asarray(rows)
        keys, vals = csr_encode(rows, default_row)
        return cls(keys, vals, default_row, rows.shape[0])

    def lookup(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Vectorized ``(row, column) → cell`` with default fallback."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        out = self.default_row[cols]
        if self.keys.size:
            q = rows * self.width + cols
            pos = np.minimum(np.searchsorted(self.keys, q),
                             self.keys.size - 1)
            np.copyto(out, self.vals[pos], where=self.keys[pos] == q)
        return out

    def lookup_one(self, row: int, col: int) -> int:
        return int(self.lookup(np.asarray([row]), np.asarray([col]))[0])

    def dense_rows(self) -> np.ndarray:
        """Reconstruct the full ``(num_rows, width)`` matrix — the
        inverse of :meth:`from_rows`.  One broadcast plus one scatter,
        so artifact loaders can persist the shared-default encoding and
        still hand dense rows to table builders."""
        out = np.broadcast_to(
            self.default_row, (self.num_rows, self.width)).copy()
        if self.keys.size:
            out[self.keys // self.width,
                self.keys % self.width] = self.vals
        return out

    @property
    def stored_transitions(self) -> int:
        return int(self.keys.size)

    @property
    def nbytes(self) -> int:
        return int(self.keys.nbytes + self.vals.nbytes
                   + self.default_row.nbytes)


@dataclass(frozen=True)
class CompressionStats:
    """Footprint and run-time characteristics of one compressed table."""

    num_states: int
    dense_bytes: int
    compressed_bytes: int
    stored_transitions: int
    max_chain_length: int

    @property
    def ratio(self) -> float:
        """compressed / dense — smaller is better."""
        return self.compressed_bytes / self.dense_bytes


class CompressedSTT:
    """Default-transition-compressed transition table.

    Each state stores a sparse exception set plus a default state; a
    lookup follows defaults until an exception (or the root, which is
    stored densely) answers.  Defaults are the Aho–Corasick failure links
    when provided, else state 0 — both guarantee acyclic default chains
    ending at the root.  Exceptions live in one sorted key/value pair of
    arrays (the same :func:`csr_encode` layout :class:`ColdRowStore`
    uses), not per-state containers.
    """

    def __init__(self, dfa: DFA,
                 defaults: Optional[Sequence[int]] = None) -> None:
        self.dfa = dfa
        n = dfa.num_states
        W = dfa.alphabet_size
        if defaults is None:
            # Without structural knowledge the start state is the only
            # universally sound default; build via
            # :meth:`from_aho_corasick` for failure-link defaults.
            defaults = [dfa.start] * n
        defaults = list(defaults)
        if len(defaults) != n:
            raise DFAError("one default per state required")
        self._check_acyclic(defaults, dfa.start)
        self.defaults = defaults

        # Root row stays dense (every chain terminates there with an
        # answer); other states keep exceptions only.
        trans = np.asarray(dfa.transitions, dtype=np.int64)
        self.root_row = dfa.transitions[dfa.start].copy()
        diff = trans != trans[np.asarray(defaults, dtype=np.int64)]
        diff[dfa.start, :] = False
        r, c = np.nonzero(diff)
        self._keys = r.astype(np.int64) * W + c
        self._vals = trans[r, c]
        stored = int(self._keys.size)

        # Footprint model: dense = n*W cells; compressed = root row +
        # per-state (default pointer + count) + per-exception
        # (symbol, target) packed in one cell.
        dense = n * W * CELL_BYTES
        compressed = W * CELL_BYTES + n * 2 * CELL_BYTES \
            + stored * CELL_BYTES
        self.stats = CompressionStats(
            num_states=n,
            dense_bytes=dense,
            compressed_bytes=compressed,
            stored_transitions=stored,
            max_chain_length=self._max_chain(defaults, dfa.start),
        )

    # -- construction helpers ---------------------------------------------------

    @classmethod
    def from_aho_corasick(cls, ac) -> "CompressedSTT":
        """Build with the AC failure links as defaults — the classic
        result: state s's dense row differs from fail(s)'s row exactly at
        s's goto edges, so the exception count collapses to the number of
        trie edges (n − 1)."""
        dfa = ac.to_dfa()
        return cls(dfa, defaults=[int(f) for f in ac.fail])

    @staticmethod
    def _check_acyclic(defaults: Sequence[int], root: int) -> None:
        for s in range(len(defaults)):
            seen = set()
            cur = s
            while cur != root:
                if cur in seen:
                    raise DFAError("default chain contains a cycle")
                seen.add(cur)
                cur = defaults[cur]

    @staticmethod
    def _max_chain(defaults: Sequence[int], root: int) -> int:
        longest = 0
        for s in range(len(defaults)):
            hops = 0
            cur = s
            while cur != root:
                cur = defaults[cur]
                hops += 1
            longest = max(longest, hops)
        return longest

    # -- lookup -------------------------------------------------------------------

    def step(self, state: int, symbol: int) -> Tuple[int, int]:
        """One transition; returns (next_state, fallback_hops)."""
        if not 0 <= symbol < self.dfa.alphabet_size:
            raise DFAError(f"symbol {symbol} outside alphabet")
        W = self.dfa.alphabet_size
        keys = self._keys
        size = keys.size
        hops = 0
        cur = state
        while cur != self.dfa.start:
            q = cur * W + symbol
            pos = int(np.searchsorted(keys, q))
            if pos < size and int(keys[pos]) == q:
                return int(self._vals[pos]), hops
            cur = self.defaults[cur]
            hops += 1
        return int(self.root_row[symbol]), hops

    def count_matches(self, symbols: bytes) -> Tuple[int, int]:
        """Counting scan; returns (matches, total_fallback_hops)."""
        state = self.dfa.start
        final = self.dfa.final_mask
        count = 0
        hops_total = 0
        for sym in symbols:
            state, hops = self.step(state, sym)
            hops_total += hops
            if final[state]:
                count += 1
        return count, hops_total

    def average_hops(self, symbols: bytes) -> float:
        """Fallback hops per input byte — the input-dependence metric."""
        if not symbols:
            return 0.0
        _, hops = self.count_matches(symbols)
        return hops / len(symbols)
