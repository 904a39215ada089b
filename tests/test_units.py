"""Unit tests for repro.units."""

import pytest

from repro.units import (
    A100_80GB,
    CHUNK_SIZE,
    GB,
    KB,
    MB,
    align_up,
    fmt_bytes,
    is_aligned,
    parse_size,
)


class TestConstants:
    def test_kb_mb_gb_relationship(self):
        assert MB == 1024 * KB
        assert GB == 1024 * MB

    def test_chunk_size_is_2mb(self):
        assert CHUNK_SIZE == 2 * MB

    def test_a100_capacity(self):
        assert A100_80GB == 80 * GB


class TestAlignUp:
    def test_already_aligned(self):
        assert align_up(8, 4) == 8

    def test_rounds_up(self):
        assert align_up(5, 4) == 8

    def test_zero(self):
        assert align_up(0, 4) == 0

    def test_one_below(self):
        assert align_up(2 * MB - 1, 2 * MB) == 2 * MB

    def test_large_values(self):
        assert align_up(3 * GB + 1, 2 * MB) == 3 * GB + 2 * MB

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            align_up(-1, 4)

    def test_nonpositive_alignment_rejected(self):
        with pytest.raises(ValueError):
            align_up(4, 0)


class TestIsAligned:
    def test_aligned(self):
        assert is_aligned(4 * MB, 2 * MB)

    def test_not_aligned(self):
        assert not is_aligned(3 * MB, 2 * MB)

    def test_zero_is_aligned(self):
        assert is_aligned(0, 512)

    def test_bad_alignment(self):
        with pytest.raises(ValueError):
            is_aligned(4, -1)


class TestFmtBytes:
    def test_bytes(self):
        assert fmt_bytes(17) == "17 B"

    def test_kb(self):
        assert fmt_bytes(1536) == "1.50 KB"

    def test_mb(self):
        assert fmt_bytes(3 * MB) == "3.00 MB"

    def test_gb(self):
        assert fmt_bytes(int(2.5 * GB)) == "2.50 GB"

    def test_negative(self):
        assert fmt_bytes(-3 * MB) == "-3.00 MB"


class TestParseSize:
    def test_mb(self):
        assert parse_size("2MB") == 2 * MB

    def test_gb_with_space(self):
        assert parse_size("1.5 GB") == int(1.5 * GB)

    def test_bytes_suffix(self):
        assert parse_size("512B") == 512

    def test_bare_number(self):
        assert parse_size("1024") == 1024

    def test_case_insensitive(self):
        assert parse_size("3mb") == 3 * MB

    def test_roundtrip_with_fmt(self):
        assert parse_size(fmt_bytes(7 * MB)) == 7 * MB
