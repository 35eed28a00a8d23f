"""Unit tests for the fused dense-and-sparse encoding accounting."""

import numpy as np
import pytest

from repro.core.config import OakenConfig
from repro.core.encoding import (
    concat_encoded,
    sparse_record_bits,
    split_encoded,
)
from repro.core.quantizer import OakenQuantizer
from repro.engine import BASELINE_NAMES, create_quantizer

from conftest import make_kv_matrix


class TestSparseRecordBits:
    def test_paper_default_is_8(self):
        # 6 index + 1 group + 1 code bit = 8 (Section 4.5).
        assert sparse_record_bits(OakenConfig()) == 8

    def test_two_groups_still_8(self):
        # Table 3: the 2-group configs keep 8 bits via padding.
        config = OakenConfig.from_ratio_string("90/10")
        assert sparse_record_bits(config) == 8

    def test_four_groups_pad_to_16(self):
        # Table 3: 9-bit records (2 group bits) pad to 16.
        config = OakenConfig.from_ratio_string("4/90/3/3")
        assert sparse_record_bits(config) == 16

    def test_four_bit_outliers_restore_8(self):
        # Table 3: 4-bit outliers fit entirely in the dense slot.
        config = OakenConfig.from_ratio_string(
            "4/90/3/3", outlier_bits=4
        )
        assert sparse_record_bits(config) == 8

    def test_naive_encoding_is_23(self):
        # 16-bit value + 6-bit index + 1 group bit (prior work).
        config = OakenConfig(fused_encoding=False)
        assert sparse_record_bits(config) == 23


class TestEncodedKV:
    @pytest.fixture(scope="class")
    def encoded(self, kv_samples, kv_matrix):
        quantizer = OakenQuantizer.from_samples(kv_samples, OakenConfig())
        return quantizer.quantize(kv_matrix)

    def test_shape_metadata(self, encoded, kv_matrix):
        assert encoded.num_tokens == kv_matrix.shape[0]
        assert encoded.dim == kv_matrix.shape[1]

    def test_dense_codes_fit_in_nibbles(self, encoded):
        assert encoded.dense_codes.max() <= 15

    def test_footprint_hand_computed(self, encoded):
        fp = encoded.footprint()
        elements = encoded.num_tokens * encoded.dim
        assert fp.dense_bits == elements * 4
        assert fp.sparse_bits == encoded.num_outliers * 8
        # 2 scalars for middle + 2 per band, 2 bands, FP16 each.
        assert fp.metadata_bits == encoded.num_tokens * 6 * 16
        assert fp.element_count == elements

    def test_footprint_cached(self, encoded):
        assert encoded.footprint() is encoded.footprint()

    def test_outliers_of_token(self, encoded):
        token = int(encoded.sparse_token[0])
        indices = encoded.outliers_of_token(token)
        assert (encoded.sparse_token[indices] == token).all()

    def test_nbytes_consistent(self, encoded):
        assert encoded.nbytes() == pytest.approx(
            encoded.footprint().total_bits / 8.0
        )

    def test_band_ids_valid(self, encoded):
        assert encoded.sparse_band.min() >= 0
        assert encoded.sparse_band.max() < 2

    def test_scale_arrays_shapes(self, encoded):
        assert encoded.middle_lo.shape == (encoded.num_tokens,)
        assert encoded.band_lo.shape == (encoded.num_tokens, 2)


class TestFusedNibbleConsistency:
    def test_dense_slot_carries_outlier_payload(self):
        x = make_kv_matrix(tokens=64, dim=64, seed=9)
        quantizer = OakenQuantizer.from_samples([x], OakenConfig())
        encoded = quantizer.quantize(x)
        token, pos = encoded.sparse_token, encoded.sparse_pos
        # With 5-bit outliers the dense nibble holds the 4 magnitude
        # bits of each outlier code.
        nibbles = encoded.dense_codes[token, pos]
        np.testing.assert_array_equal(
            nibbles, encoded.sparse_mag_code & 0xF
        )

    def test_naive_encoding_zeroes_dense_slots(self):
        x = make_kv_matrix(tokens=64, dim=64, seed=9)
        config = OakenConfig(fused_encoding=False)
        quantizer = OakenQuantizer.from_samples([x], config)
        encoded = quantizer.quantize(x)
        token, pos = encoded.sparse_token, encoded.sparse_pos
        assert (encoded.dense_codes[token, pos] == 0).all()


class TestSplitEncoded:
    """split_encoded is the exact inverse of batch-quantizing blocks."""

    @staticmethod
    def _assert_chunks_equal(a, b):
        assert a.shape == b.shape
        for name in (
            "dense_codes", "middle_lo", "middle_hi", "band_lo",
            "band_hi", "sparse_token", "sparse_pos", "sparse_band",
            "sparse_side", "sparse_mag_code",
        ):
            np.testing.assert_array_equal(
                getattr(a, name), getattr(b, name)
            )
        if a.sparse_fp16 is None:
            assert b.sparse_fp16 is None
        else:
            np.testing.assert_array_equal(a.sparse_fp16, b.sparse_fp16)

    @pytest.mark.parametrize("fused", [True, False])
    def test_split_of_batch_matches_per_block_quantize(self, fused):
        config = OakenConfig(fused_encoding=fused)
        calibration = make_kv_matrix(tokens=96, dim=64, seed=1)
        quantizer = OakenQuantizer.from_samples([calibration], config)
        blocks = [
            make_kv_matrix(tokens=rows, dim=64, seed=10 + i)
            for i, rows in enumerate((3, 1, 0, 5))
        ]
        batch = quantizer.quantize(np.concatenate(blocks))
        pieces = split_encoded(batch, [b.shape[0] for b in blocks])
        assert len(pieces) == len(blocks)
        for block, piece in zip(blocks, pieces):
            if block.shape[0] == 0:
                assert piece.num_tokens == 0
                continue
            self._assert_chunks_equal(piece, quantizer.quantize(block))

    def test_split_concat_roundtrip(self):
        quantizer = OakenQuantizer.from_samples(
            [make_kv_matrix(tokens=96, dim=64, seed=2)]
        )
        batch = quantizer.quantize(make_kv_matrix(tokens=9, dim=64, seed=3))
        pieces = split_encoded(batch, [4, 5])
        merged = concat_encoded(pieces)
        self._assert_chunks_equal(merged, batch)

    def test_bad_row_counts_rejected(self):
        quantizer = OakenQuantizer.from_samples(
            [make_kv_matrix(tokens=96, dim=64, seed=2)]
        )
        batch = quantizer.quantize(make_kv_matrix(tokens=4, dim=64, seed=5))
        with pytest.raises(ValueError):
            split_encoded(batch, [1, 1])
        with pytest.raises(ValueError):
            split_encoded(batch, [5, -1])

    # -- property-based fuzz ------------------------------------------

    # The Table 3 encoding variants: default fused 5-bit records,
    # naive 23-bit records (fp16 outlier payloads, exercising the
    # sparse_fp16 arrays), 4-bit outliers folded into the dense slot,
    # and the 4-group 16-bit-record layout.
    FUZZ_CONFIGS = {
        "fused-5b": OakenConfig(),
        "naive-fp16": OakenConfig(fused_encoding=False),
        "outlier-4b": OakenConfig.from_ratio_string(
            "4/90/3/3", outlier_bits=4
        ),
        "groups-16b": OakenConfig.from_ratio_string("4/90/3/3"),
    }

    @pytest.mark.parametrize("variant", sorted(FUZZ_CONFIGS))
    @pytest.mark.parametrize("seed", range(5))
    def test_concat_of_split_is_identity_under_random_geometry(
        self, variant, seed
    ):
        """concat(split(x, k)) == x for seeded random chunk shapes.

        Geometries deliberately include the degenerate cases: empty
        pieces, single rows, ragged runs, and whole-batch splits.
        """
        config = self.FUZZ_CONFIGS[variant]
        quantizer = OakenQuantizer.from_samples(
            [make_kv_matrix(tokens=96, dim=64, seed=6)], config
        )
        rng = np.random.default_rng(seed)
        for round_index in range(8):
            tokens = int(rng.integers(1, 24))
            batch = quantizer.quantize(
                make_kv_matrix(
                    tokens=tokens, dim=64, seed=100 * seed + round_index
                )
            )
            # Random composition of tokens into (possibly empty) parts.
            parts = []
            remaining = tokens
            while remaining > 0:
                take = int(rng.integers(0, remaining + 1))
                parts.append(take)
                remaining -= take
            if not parts or rng.integers(2):
                parts.append(0)
            pieces = split_encoded(batch, parts)
            assert [p.num_tokens for p in pieces] == parts
            self._assert_chunks_equal(concat_encoded(pieces), batch)

    @pytest.mark.parametrize("variant", sorted(FUZZ_CONFIGS))
    @pytest.mark.parametrize("seed", range(5))
    def test_concat_of_block_encodes_is_the_batch_encode(
        self, variant, seed
    ):
        """concat(encode(b) for b in blocks) == encode(rows) for seeded
        random blocks of ``rows``: the path where concat builds a
        tensor (every piece of one split, in order, hands its source
        back instead)."""
        config = self.FUZZ_CONFIGS[variant]
        quantizer = OakenQuantizer.from_samples(
            [make_kv_matrix(tokens=96, dim=64, seed=6)], config
        )
        rng = np.random.default_rng(seed)
        for round_index in range(8):
            tokens = int(rng.integers(1, 24))
            rows = make_kv_matrix(
                tokens=tokens, dim=64, seed=200 * seed + round_index
            )
            # Sorted cuts drawn with replacement: empty blocks too.
            cuts = rng.integers(0, tokens + 1, size=int(rng.integers(0, 5)))
            bounds = [0, *sorted(cuts.tolist()), tokens]
            blocks = [rows[a:b] for a, b in zip(bounds, bounds[1:])]
            self._assert_chunks_equal(
                concat_encoded([quantizer.quantize(b) for b in blocks]),
                quantizer.quantize(rows),
            )

    def test_split_points_preserve_row_footprint(self):
        """Splitting never changes total bytes (row-additive storage)."""
        quantizer = OakenQuantizer.from_samples(
            [make_kv_matrix(tokens=96, dim=64, seed=6)]
        )
        batch = quantizer.quantize(make_kv_matrix(tokens=17, dim=64, seed=7))
        pieces = split_encoded(batch, [5, 0, 1, 11])
        assert sum(p.nbytes() for p in pieces) == batch.nbytes()


class TestRegistryBlockwiseRoundtrips:
    """The registry-wide face of the split/concat contract.

    Only Oaken emits :class:`EncodedKV`, so for the other registry
    methods the equivalent property is at the roundtrip level:
    ``roundtrip_batch`` over a seeded random block geometry must be
    bit-identical to per-block ``roundtrip`` calls — the invariant the
    pool's batched adapter paths (and the mirror pool in the sharing
    differential harness) lean on.
    """

    @pytest.mark.parametrize("method", sorted(BASELINE_NAMES))
    @pytest.mark.parametrize("seed", range(3))
    def test_batched_blocks_match_per_block(self, method, seed):
        quantizer = create_quantizer(method)
        quantizer.fit([make_kv_matrix(tokens=96, dim=64, seed=8)])
        rng = np.random.default_rng(seed)
        blocks = [
            make_kv_matrix(
                tokens=int(rng.integers(1, 9)), dim=64,
                seed=200 * seed + i,
            )
            for i in range(int(rng.integers(2, 6)))
        ]
        batched = quantizer.roundtrip_batch(blocks)
        for block, merged in zip(blocks, batched):
            np.testing.assert_array_equal(
                merged, quantizer.roundtrip(block)
            )
