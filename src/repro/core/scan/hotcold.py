"""Layout of the union automaton: hotness order and slice projections.

One union AC automaton advances every dictionary slice at once.
:func:`visit_order` ranks its states hottest-first and
:func:`project_states` maps each union state onto its image in one
slice DFA.  The pair table of :mod:`.hotcold2` — the one union
kernel — is built from the union DFA and these two arrays: the order
picks which states get squared pair rows under the hot budget, the
projections keep per-slice counts and exit states exact.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def visit_order(transitions: np.ndarray, start: int,
                fold_table: Optional[np.ndarray] = None,
                iters: int = 12, damping: float = 0.15) -> np.ndarray:
    """Deterministic hotness ranking of DFA states.

    Runs a damped power iteration of the DFA's transition graph under
    the per-symbol probabilities implied by the fold (a symbol's weight
    is the number of byte values folding to it, i.e. the stationary
    distribution of a uniformly random *byte* stream).  Inputs are not
    uniform, but what the ranking must get right is only the split into
    "visited constantly" (the failure-closed neighborhood of the start
    state) versus "visited while matching" — and that split is a
    structural property of security DFAs, not of the corpus.  Being
    input-free keeps the ranking a pure function of the compiled
    dictionary, so it can be persisted in the artifact cache.

    Returns the states sorted hottest-first with ``start`` forced to
    the front.
    """
    trans = np.asarray(transitions, dtype=np.int64)
    n, width = trans.shape
    if fold_table is not None:
        probs = np.bincount(np.asarray(fold_table, dtype=np.int64),
                            minlength=width).astype(np.float64)
        probs /= max(probs.sum(), 1.0)
    else:
        probs = np.full(width, 1.0 / width)
    restart = np.zeros(n, dtype=np.float64)
    restart[int(start)] = 1.0
    v = restart.copy()
    targets = trans.reshape(-1)
    for _ in range(int(iters)):
        contrib = (v[:, None] * probs[None, :]).reshape(-1)
        v = np.bincount(targets, weights=contrib, minlength=n)
        v = (1.0 - damping) * v + damping * restart
    order = np.argsort(-v, kind="stable").astype(np.int64)
    return np.concatenate(([int(start)], order[order != int(start)]))


def project_states(union_trans: np.ndarray, union_start: int,
                   slice_trans: np.ndarray, slice_start: int) -> np.ndarray:
    """Map every union-automaton state to its image in one slice DFA.

    For Aho–Corasick automata the state reached by a string is its
    longest suffix that is a pattern prefix.  A suffix of a union
    state's canonical string that is a *slice* prefix is also a union
    prefix, hence itself a suffix of the union state's canonical string
    — so the slice state reached by *any* string arriving at union
    state ``s`` is the same, and the map ``img`` is well defined.  It
    satisfies ``img[union_trans[s, c]] == slice_trans[img[s], c]``,
    which is exactly the BFS recurrence used here.
    """
    union_trans = np.asarray(union_trans, dtype=np.int64)
    slice_trans = np.asarray(slice_trans, dtype=np.int64)
    n = union_trans.shape[0]
    img = np.full(n, -1, dtype=np.int64)
    img[int(union_start)] = int(slice_start)
    frontier = np.asarray([int(union_start)], dtype=np.int64)
    while frontier.size:
        targets = union_trans[frontier].reshape(-1)
        cand = slice_trans[img[frontier]].reshape(-1)
        fresh = np.nonzero(img[targets] < 0)[0]
        if fresh.size == 0:
            break
        t, first = np.unique(targets[fresh], return_index=True)
        img[t] = cand[fresh][first]
        frontier = t
    # Unreachable union states have no canonical string; any image is
    # consistent (they never occur in a scan).
    img[img < 0] = int(slice_start)
    return img
