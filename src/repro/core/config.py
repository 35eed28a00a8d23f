"""Configuration of Oaken's quantization algorithm.

The paper's default configuration (used throughout its evaluation) is a
three-group split with a 4% outer / 90% middle / 6% inner ratio, 4-bit
inlier codes, 5-bit outlier codes, group-shift enabled, and the fused
dense-and-sparse encoding.  Table 3 and Figure 12(a) explore alternative
ratios and group counts; this config object spans that whole ablation
space so one code path serves both the paper defaults and the ablations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Tuple


@dataclass(frozen=True)
class OakenConfig:
    """Hyper-parameters of the Oaken KV quantizer.

    Attributes:
        outer_ratios: fraction of values assigned to each outer
            (large-magnitude) band, ordered outermost first.  The paper's
            default is a single 4% band; Table 3's ``2/2/90/...`` rows use
            two bands of 2%.
        middle_ratio: fraction of values in the dense inlier group.
        inner_ratios: fraction of values in each inner (near-zero) band,
            ordered from adjacent-to-middle down to innermost.  The
            paper's default is a single 6% band.
        inlier_bits: bitwidth of dense (middle group) codes.  The paper
            uses 4.
        outlier_bits: total bitwidth of outlier codes including the side
            bit (paper: 5 = 1 side + 4 magnitude; Table 3 also evaluates
            4 = 1 side + 3 magnitude).
        group_shift: apply the group-shift transform before quantization
            (Section 4.4).  Disabling it is an ablation.
        fused_encoding: embed 4 bits of each outlier code in its zeroed
            dense slot (Section 4.5).  Disabling it falls back to the
            naive 23-bit sparse records of prior work.
        index_bits: COO index bits per sparse record.  6 bits address a
            64-element chunk, matching the paper's memory alignment.
        scale_bits: bits per stored scale scalar (FP16 = 16).
        profile_samples: number of offline profiling inferences to
            average thresholds over (paper: "approximately a hundred").
    """

    outer_ratios: Tuple[float, ...] = (0.04,)
    middle_ratio: float = 0.90
    inner_ratios: Tuple[float, ...] = (0.06,)
    inlier_bits: int = 4
    outlier_bits: int = 5
    group_shift: bool = True
    fused_encoding: bool = True
    index_bits: int = 6
    scale_bits: int = 16
    profile_samples: int = 100

    def __post_init__(self) -> None:
        total = sum(self.outer_ratios) + self.middle_ratio + sum(
            self.inner_ratios
        )
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-6):
            raise ValueError(
                f"group ratios must sum to 1.0, got {total:.6f}"
            )
        if any(r <= 0 for r in self.outer_ratios):
            raise ValueError("outer ratios must be positive")
        if any(r <= 0 for r in self.inner_ratios):
            raise ValueError("inner ratios must be positive")
        if not 0 < self.middle_ratio <= 1:
            raise ValueError("middle ratio must be in (0, 1]")
        if self.inlier_bits < 2 or self.inlier_bits > 8:
            raise ValueError("inlier_bits must be in [2, 8]")
        if self.outlier_bits < 2 or self.outlier_bits > 8:
            raise ValueError("outlier_bits must be in [2, 8]")
        if self.index_bits < 1:
            raise ValueError("index_bits must be >= 1")

    @property
    def num_outer_bands(self) -> int:
        """Number of outer (large-magnitude) sparse bands."""
        return len(self.outer_ratios)

    @property
    def num_inner_bands(self) -> int:
        """Number of inner (near-zero) sparse bands."""
        return len(self.inner_ratios)

    # The derived constants the footprint accounting reads per chunk
    # are computed once per config: ``cached_property`` stores them in
    # the instance ``__dict__`` (no ``__setattr__``, so the frozen
    # dataclass allows it) and they are not fields, so equality, hash
    # and ``dataclasses.replace`` are unaffected.

    @cached_property
    def num_sparse_bands(self) -> int:
        """Total sparse bands (everything except the dense middle)."""
        return self.num_outer_bands + self.num_inner_bands

    @property
    def num_groups(self) -> int:
        """Total quantization groups, counting the dense middle group."""
        return self.num_sparse_bands + 1

    @property
    def outlier_ratio(self) -> float:
        """Total fraction of values stored through the sparse path."""
        return sum(self.outer_ratios) + sum(self.inner_ratios)

    @cached_property
    def group_id_bits(self) -> int:
        """Bits needed to name a sparse band inside a COO record."""
        return max(1, math.ceil(math.log2(max(2, self.num_sparse_bands))))

    @cached_property
    def sparse_record_bits(self) -> int:
        """Bits per sparse COO record, after alignment padding (see
        :func:`repro.core.encoding.sparse_record_bits`)."""
        if self.fused_encoding:
            code_bits = max(0, self.outlier_bits - self.inlier_bits)
            raw = self.index_bits + self.group_id_bits + code_bits
            return ((raw + 7) // 8) * 8
        return 16 + self.index_bits + self.group_id_bits

    @cached_property
    def token_metadata_bits(self) -> int:
        """Scale-bound bits stored per token: 2 FP16 scalars for the
        middle group plus 2 per sparse band."""
        return (2 + 2 * self.num_sparse_bands) * self.scale_bits

    @property
    def chunk_size(self) -> int:
        """Vector chunk addressed by one COO index (2**index_bits)."""
        return 2**self.index_bits

    @classmethod
    def paper_default(cls) -> "OakenConfig":
        """The 4%/90%/6% three-group configuration used in the paper."""
        return cls()

    @classmethod
    def from_ratio_string(cls, spec: str, **overrides) -> "OakenConfig":
        """Parse a Table 3 style ratio string such as ``"2/2/90/3/3"``.

        The largest entry is taken as the middle group; entries before it
        become outer bands and entries after it inner bands, matching the
        table's outer->inner ordering.
        """
        parts = [float(p) / 100.0 for p in spec.split("/")]
        if len(parts) < 2:
            raise ValueError(f"need at least two groups, got {spec!r}")
        middle_index = max(range(len(parts)), key=lambda i: parts[i])
        outer = tuple(parts[:middle_index])
        inner = tuple(parts[middle_index + 1:])
        if not outer and not inner:
            raise ValueError(f"no sparse bands in ratio spec {spec!r}")
        return cls(
            outer_ratios=outer,
            middle_ratio=parts[middle_index],
            inner_ratios=inner,
            **overrides,
        )


#: The group-ratio sweep evaluated in Table 3 of the paper, as
#: ``(ratio_string, outlier_bits)`` pairs.
TABLE3_CONFIGURATIONS = (
    ("4/90/6", 5),
    ("90/10", 5),
    ("10/90", 5),
    ("4/90/3/3", 5),
    ("2/2/90/6", 5),
    ("2/2/90/3/3", 5),
    ("4/90/3/3", 4),
    ("2/2/90/6", 4),
    ("2/2/90/3/3", 4),
)
