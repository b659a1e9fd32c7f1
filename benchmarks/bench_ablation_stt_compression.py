"""Ablation: the paper's complete-table STT vs default-transition
compression (DESIGN.md §5; paper §4's deliberate design choice).

The dense table costs one load per transition and ~W·4 bytes per state;
failure-link compression stores only goto edges (n−1 exceptions) but makes
the per-byte cost input-dependent.  This bench quantifies both sides on
dictionaries at the tile's operating points, and computes the effective
tile capacity each representation buys.

Two compressed representations are measured.  :class:`CompressedSTT` is
the faithful D2FA-style chain ablation (input-dependent hops — the
paper's reason to refuse it).  :class:`ColdRowStore` is the encoder
that *ships*: v5 artifacts and the compiled shared-memory bundle carry
the union automaton's rows as exceptions against one shared default
row, densified on load.  What the union kernel (``hotcold2``) scans is
its pair table; the budget sweep below reports that table's footprint
and pair-hot set next to the hit rate it reaches, with counts asserted
identical to the dense reference at every budget.
"""

import numpy as np
import pytest

from repro.analysis import ascii_table
from repro.core.compiled import compile_dictionary, compiled_arrays
from repro.core.compressed import ColdRowStore, CompressedSTT
from repro.core.scan import HOTCOLD_LANES_TARGET, count_arr
from repro.core.planner import plan_tile
from repro.dfa import AhoCorasick
from repro.dfa.alphabet import identity_fold
from repro.workloads import adversarial_payload, plant_matches, \
    random_payload, signatures_for_states


@pytest.fixture(scope="module")
def cases():
    out = []
    for states in (200, 800, 1500):
        patterns = signatures_for_states(states, seed=90 + states)
        ac = AhoCorasick(patterns, 32)
        out.append((states, ac, CompressedSTT.from_aho_corasick(ac)))
    return out


def test_compression_report(cases, report):
    plan = plan_tile()
    rows = []
    benign = random_payload(4000, seed=91)
    for states, ac, comp in cases:
        hostile = adversarial_payload(ac.patterns[0], 4000,
                                      mismatch_at_end=False)
        rows.append([
            ac.num_states,
            round(comp.stats.dense_bytes / 1024, 1),
            round(comp.stats.compressed_bytes / 1024, 1),
            round(comp.stats.ratio, 3),
            comp.stats.max_chain_length,
            round(comp.average_hops(benign), 2),
            round(comp.average_hops(hostile), 2),
        ])
    text = ascii_table(
        ["states", "dense KB", "compressed KB", "ratio", "max chain",
         "hops (benign)", "hops (hostile)"],
        rows, title="Ablation - dense STT (paper) vs default-transition "
                    "compression")
    capacity_note = (
        f"\ndense tile capacity: {plan.max_states} states; at the "
        f"measured ratio a compressed tile would hold roughly "
        f"{int(plan.max_states / max(c[2].stats.ratio for c in cases))} "
        f"states — the price is input-dependent per-byte cost.")
    report("ablation_stt_compression", text + capacity_note)


def test_compression_improves_with_dictionary_size(cases):
    ratios = [comp.stats.ratio for _, _, comp in cases]
    assert all(r < 0.25 for r in ratios)


def test_counts_identical_across_representations(cases):
    block = random_payload(5000, seed=92)
    for _, ac, comp in cases:
        assert comp.count_matches(block)[0] == \
            ac.to_dfa().count_matches(block)


def test_hostile_input_costs_more_fallbacks(cases):
    benign = bytes(4000)
    for _, ac, comp in cases:
        hostile = adversarial_payload(ac.patterns[0], 4000,
                                      mismatch_at_end=False)
        assert comp.average_hops(hostile) >= comp.average_hops(benign)


def test_dense_per_byte_cost_is_flat_by_construction(cases):
    """The dense table's cost is exactly one lookup per byte, which is
    the content-independence §1 demands; the compressed table's is not."""
    _, ac, comp = cases[-1]
    hostile = adversarial_payload(ac.patterns[0], 2000,
                                  mismatch_at_end=False)
    benign = bytes(2000)
    assert len(ac.to_dfa().state_trace(hostile)) == \
        len(ac.to_dfa().state_trace(benign)) == 2000
    assert comp.average_hops(hostile) != comp.average_hops(benign) or \
        comp.average_hops(hostile) == 0


# -- what ships: the pair table and the union-row CSR ------------------------

#: Pair budgets for the sweep — from starved (a handful of pair rows)
#: through the production default's neighborhood, up to one that holds
#: the whole pair table of the 800-state dictionary (802 rows × 32²
#: symbols × 2 bytes).
BUDGETS = (8 * 1024, 32 * 1024, 256 * 1024, 2048 * 1024)


@pytest.fixture(scope="module")
def shipping():
    """Partitioned dictionaries (so the union rows ship as CSR) plus a
    planted corpus per operating point."""
    out = []
    for states in (200, 800):
        patterns = signatures_for_states(states, seed=90 + states)
        compiled = compile_dictionary(patterns, fold=identity_fold(32),
                                      max_states=states // 2)
        assert compiled.num_slices > 1
        payload = bytes(plant_matches(random_payload(200_000,
                                                     seed=94 + states),
                                      patterns, 80, seed=95 + states))
        arr = np.frombuffer(payload, dtype=np.uint8)
        fused = compiled.fused_scanner()
        dense_total = int(fused.count_arr_per_dfa(
            arr, 256, weights=fused.weights)[0].sum())
        out.append((states, compiled, arr, dense_total))
    return out


def _shipped_union_rows(compiled) -> ColdRowStore:
    """The union-row CSR exactly as the artifact file and the compiled
    bundle carry it (both encode through ``compiled_arrays``)."""
    arrays, _ = compiled_arrays(compiled)
    return ColdRowStore(arrays["union_csr_keys"], arrays["union_csr_vals"],
                        arrays["union_csr_default"],
                        int(arrays["union_csr_rows"][0]))


def test_pair_table_budget_sweep_report(shipping, report):
    """Sweep the pair budget and assert every point counts
    bit-identically to the dense fused reference; report the union-row
    CSR that ships beside the table."""
    rows = []
    csr_rows = []
    for states, compiled, arr, dense_total in shipping:
        for budget in BUDGETS:
            table = compiled.hot_cold2_table(budget_bytes=budget)
            scanner = compiled.hot_cold2_scanner(budget_bytes=budget)
            total = int(count_arr(scanner, arr, 256, scanner.start,
                                  weights=scanner.weights,
                                  lanes_target=HOTCOLD_LANES_TARGET)[0])
            assert total == dense_total, \
                f"pair scan diverged at {states} states, " \
                f"budget {budget}: {total} != {dense_total}"
            rows.append([
                table.num_states,
                f"{budget // 1024}K",
                f"{table.num_hot2}/{table.num_states}",
                round(compiled.fused_table_bytes / 1024, 1),
                round(table.table_bytes / 1024, 1),
                round(table.table_bytes / compiled.fused_table_bytes, 3),
                round(scanner.hot_hit_rate, 4),
            ])
        union = compiled.union_dfa()
        csr = _shipped_union_rows(compiled)
        dense_bytes = union.num_states * union.alphabet_size * 4
        csr_rows.append([
            union.num_states, compiled.num_slices,
            union.num_states * union.alphabet_size,
            csr.stored_transitions,
            round(dense_bytes / 1024, 1), round(csr.nbytes / 1024, 1),
            round(csr.nbytes / dense_bytes, 3),
        ])
    text = ascii_table(
        ["states", "budget", "hot2 set", "dense KB", "pair KB", "ratio",
         "hot2 hit"],
        rows, title="Union kernel pair table (hotcold2) vs dense fused "
                    "table (counts == dense)")
    text += "\n\n" + ascii_table(
        ["states", "slices", "dense cells", "stored edges", "dense KB",
         "CSR KB", "ratio"],
        csr_rows, title="Union rows as shipped - ColdRowStore "
                        "shared-default CSR (v5 artifact, compiled bundle)")
    report("ablation_cold_rows", text)


def test_pair_hit_rate_grows_with_budget(shipping):
    """Hottest-first renumbering means a bigger budget can only add
    states to the pair-hot set — the observed hit rate must follow."""
    for states, compiled, arr, _ in shipping:
        hits = []
        for budget in BUDGETS:
            scanner = compiled.hot_cold2_scanner(budget_bytes=budget)
            count_arr(scanner, arr, 256, scanner.start,
                      weights=scanner.weights,
                      lanes_target=HOTCOLD_LANES_TARGET)
            hits.append(scanner.hot_hit_rate)
        assert hits == sorted(hits), \
            f"hit rate not monotone in budget at {states} states: {hits}"
        assert hits[-1] > 0.9, \
            f"generous budget should keep the scan hot, got {hits[-1]}"


def test_cold_rows_round_trip_the_dense_table(shipping):
    """The shipped union-row CSR densifies back to the union
    automaton's transition matrix, cell for cell."""
    for _, compiled, _, _ in shipping:
        csr = _shipped_union_rows(compiled)
        assert np.array_equal(csr.dense_rows(),
                              compiled.union_dfa().transitions)


def test_benchmark_compressed_scan(cases, benchmark):
    _, ac, comp = cases[0]
    block = random_payload(20_000, seed=93)

    def scan():
        return comp.count_matches(block)

    count, hops = benchmark.pedantic(scan, rounds=3, iterations=1)
    assert hops >= 0
