"""Alphabet folding (the paper's 256 -> 32 data reduction)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.dfa.alphabet import (
    FoldMap,
    case_fold_32,
    fold_from_classes,
    identity_fold,
)


class TestCaseFold32:
    def setup_method(self):
        self.fold = case_fold_32()

    def test_width_is_32(self):
        assert self.fold.width == 32

    def test_paper_range_maps_directly(self):
        """0x40..0x5F ('@', A-Z, '[', '\\', ']', '^', '_') -> 0..31."""
        for b in range(0x40, 0x60):
            assert self.fold.fold_byte(b) == b - 0x40

    def test_lowercase_folds_onto_uppercase(self):
        for c in range(ord("a"), ord("z") + 1):
            upper = c - 0x20
            assert self.fold.fold_byte(c) == self.fold.fold_byte(upper)

    def test_case_insensitive_end_to_end(self):
        assert self.fold.fold_bytes(b"ViRuS") == self.fold.fold_bytes(
            b"virus") == self.fold.fold_bytes(b"VIRUS")

    def test_other_bytes_bucket_to_zero(self):
        assert self.fold.fold_byte(0x00) == 0
        assert self.fold.fold_byte(ord("0")) == 0
        assert self.fold.fold_byte(0xFF) == 0

    def test_collisions_exist_by_design(self):
        assert self.fold.collision_count() > 0

    def test_preimage_of_letter(self):
        pre = self.fold.preimage(ord("A") - 0x40)
        assert ord("A") in pre and ord("a") in pre

    def test_fold_symbols_matches_fold_bytes(self):
        data = bytes(range(256))
        arr = self.fold.fold_symbols(data)
        assert arr.tobytes() == self.fold.fold_bytes(data)


class TestIdentityFold:
    def test_full_width_is_identity(self):
        fold = identity_fold()
        assert fold.is_identity()
        data = bytes(range(256))
        assert fold.fold_bytes(data) == data

    def test_narrow_width_buckets_high_bytes(self):
        fold = identity_fold(16)
        assert fold.fold_byte(10) == 10
        assert fold.fold_byte(200) == 0
        assert not fold.is_identity()


class TestFoldFromClasses:
    def test_explicit_classes(self):
        fold = fold_from_classes([[0, 1], [2], [3, 4, 5]])
        assert fold.width == 3
        assert fold.fold_byte(0) == 0
        assert fold.fold_byte(4) == 2
        assert fold.fold_byte(99) == 0  # default

    def test_overlapping_classes_rejected(self):
        with pytest.raises(ValueError, match="assigned to classes"):
            fold_from_classes([[1], [1]])

    def test_byte_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            fold_from_classes([[256]])

    def test_default_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            fold_from_classes([[1]], default=5)

    def test_empty_classes_rejected(self):
        with pytest.raises(ValueError):
            fold_from_classes([])


class TestFoldMapValidation:
    def test_wrong_table_size(self):
        with pytest.raises(ValueError, match="256"):
            FoldMap(tuple([0] * 100), 32)

    def test_symbol_out_of_width(self):
        table = [0] * 256
        table[5] = 40
        with pytest.raises(ValueError):
            FoldMap(tuple(table), 32)

    def test_bad_width(self):
        with pytest.raises(ValueError):
            FoldMap(tuple([0] * 256), 0)


class TestFoldProperties:
    @given(st.binary(min_size=0, max_size=512))
    def test_output_always_within_width(self, data):
        fold = case_fold_32()
        out = fold.fold_bytes(data)
        assert all(b < 32 for b in out)

    @given(st.binary(min_size=0, max_size=256))
    def test_fold_is_idempotent_on_range(self, data):
        """Folding folded output changes nothing for symbols that map to
        themselves... (symbols 0..31 all live in 0x00..0x1F, which the
        case fold buckets to 0 — so instead check determinism)."""
        fold = case_fold_32()
        assert fold.fold_bytes(data) == fold.fold_bytes(data)

    @given(st.integers(min_value=1, max_value=256))
    def test_identity_fold_table_is_consistent(self, width):
        fold = identity_fold(width)
        assert len(fold.table) == 256
        assert max(fold.table) < width


class TestNpTableCache:
    def test_cache_survives_id_reuse(self):
        """Regression: the numpy table cache must be per instance, not
        keyed by id() (recycled ids once returned a stale wide table)."""
        import gc
        wide = identity_fold(256)
        _ = wide.np_table
        del wide
        gc.collect()
        narrow = case_fold_32()
        table = narrow.np_table
        assert table.max() < 32
        assert len(table) == 256

    def test_distinct_instances_distinct_tables(self):
        a = identity_fold(256)
        b = case_fold_32()
        assert a.np_table is not b.np_table
        assert a.np_table[200] == 200
        assert b.np_table[200] == 0


class TestFoldBytesTranslate:
    """``fold_bytes`` folds through ``bytes.translate``; it must agree
    with the numpy gather through ``np_table`` on every byte value and
    every bytes-like input."""

    FOLDS = {
        "case_fold_32": case_fold_32,
        "identity": identity_fold,
        "classes": lambda: fold_from_classes(
            [range(0x30, 0x3A), range(0x41, 0x5B), b"\r\n", b""],
            default=3),
    }

    @pytest.mark.parametrize("name", sorted(FOLDS))
    def test_every_byte_value_matches_numpy(self, name):
        fold = self.FOLDS[name]()
        data = bytes(range(256)) * 3
        want = fold.np_table[np.frombuffer(data, dtype=np.uint8)].tobytes()
        for view in (data, bytearray(data), memoryview(data)):
            got = fold.fold_bytes(view)
            assert type(got) is bytes
            assert got == want

    @pytest.mark.parametrize("name", sorted(FOLDS))
    def test_empty_input(self, name):
        fold = self.FOLDS[name]()
        for view in (b"", bytearray(), memoryview(b"")):
            assert fold.fold_bytes(view) == b""

    def test_memoryview_slice(self):
        fold = case_fold_32()
        data = memoryview(b"xxViRuSyy")[2:7]
        assert fold.fold_bytes(data) == fold.fold_bytes(b"virus")
