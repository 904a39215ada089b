"""Size units and formatting helpers used across the simulator.

All memory quantities in this codebase are plain ``int`` byte counts; the
constants here exist so call sites read like the paper ("2 MB chunks",
"80 GB HBM") instead of raw powers of two.
"""

from __future__ import annotations

KB: int = 1024
MB: int = 1024 * KB
GB: int = 1024 * MB

#: Granularity of CUDA VMM physical chunks (cuMemCreate minimum on A100).
CHUNK_SIZE: int = 2 * MB

#: Capacity of one NVIDIA A100-80GB device, as used throughout the paper.
A100_80GB: int = 80 * GB


def align_up(size: int, alignment: int) -> int:
    """Round ``size`` up to the next multiple of ``alignment``.

    >>> align_up(5, 4)
    8
    >>> align_up(8, 4)
    8
    >>> align_up(0, 4)
    0
    """
    if alignment <= 0:
        raise ValueError(f"alignment must be positive, got {alignment}")
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    return (size + alignment - 1) // alignment * alignment


def is_aligned(size: int, alignment: int) -> bool:
    """Return True if ``size`` is a multiple of ``alignment``."""
    if alignment <= 0:
        raise ValueError(f"alignment must be positive, got {alignment}")
    return size % alignment == 0


def fmt_bytes(size: int) -> str:
    """Human-readable byte count, e.g. ``fmt_bytes(3 * GB)`` -> ``'3.00 GB'``.

    Negative values are formatted with a leading minus sign.
    """
    sign = "-" if size < 0 else ""
    size = abs(size)
    if size >= GB:
        return f"{sign}{size / GB:.2f} GB"
    if size >= MB:
        return f"{sign}{size / MB:.2f} MB"
    if size >= KB:
        return f"{sign}{size / KB:.2f} KB"
    return f"{sign}{size} B"


def parse_size(text: str) -> int:
    """Parse a human-readable size string such as ``'2MB'`` or ``'1.5 GB'``.

    Accepted suffixes (case-insensitive): B, KB, MB, GB.

    >>> parse_size("2MB") == 2 * MB
    True
    >>> parse_size("1.5 GB") == int(1.5 * GB)
    True
    """
    text = text.strip().upper()
    multipliers = {"GB": GB, "MB": MB, "KB": KB, "B": 1}
    for suffix, mult in multipliers.items():
        if text.endswith(suffix):
            number = text[: -len(suffix)].strip()
            return int(float(number) * mult)
    # Bare number: bytes.
    return int(float(text))
