"""Amortized sliding-window reads vs. full re-quantization, bit-for-bit.

The adapter backend's amortized read path
(:meth:`repro.baselines.base.KVCacheQuantizer.stable_prefix` +
:class:`repro.engine.backend._BaselineStream`) must be invisible: for
every registry method, at every step of a streaming append pattern, the
amortized read must equal the one-shot ``roundtrip`` of the full
history — the transform the accuracy harness measures, and the
reference the adapter contract names.  A row-count guard pins the
amortisation itself: the rows handed to ``roundtrip`` are exactly the
suffix the method's ``stable_prefix`` leaves.
"""

import numpy as np
import pytest

from repro.baselines.kivi import KIVIQuantizer
from repro.baselines.registry import available_methods, create_method
from repro.engine.backend import BaselineCacheBackend

from conftest import make_kv_matrix

DIM = 48

#: Ragged per-step append sizes: single tokens, prefill-sized bursts,
#: and a jump larger than any tested window.
APPEND_PATTERN = (3, 1, 7, 1, 1, 40, 2, 1, 1, 1)


def fitted(method, kind, **kwargs):
    if method == "kivi" and kwargs:
        quantizer = KIVIQuantizer(kind, **kwargs)
    else:
        quantizer = create_method(method, kind)
    quantizer.fit(
        [make_kv_matrix(96, DIM, seed=5), make_kv_matrix(96, DIM, seed=6)]
    )
    return quantizer


def oneshot(quantizer, blocks):
    """The reference: one ``roundtrip`` of the accumulated rows."""
    return np.asarray(
        quantizer.roundtrip(np.concatenate(blocks)), dtype=np.float32
    )


def stream_and_compare(key_quantizer, value_quantizer, method):
    """Append the ragged pattern, comparing reads at every step."""
    amortized = BaselineCacheBackend(
        [key_quantizer], [value_quantizer], method=method
    )
    keys, values = [], []
    for seed, rows in enumerate(APPEND_PATTERN, start=1):
        keys.append(make_kv_matrix(rows, DIM, seed=seed))
        values.append(make_kv_matrix(rows, DIM, seed=seed + 999))
        amortized.append(0, keys[-1], values[-1])
        amortized_keys, amortized_values = amortized.read(0)
        np.testing.assert_array_equal(
            amortized_keys, oneshot(key_quantizer, keys)
        )
        np.testing.assert_array_equal(
            amortized_values, oneshot(value_quantizer, values)
        )


@pytest.mark.parametrize("method", sorted(available_methods()))
def test_amortized_read_matches_full_for_every_method(method):
    stream_and_compare(fitted(method, "key"), fitted(method, "value"), method)


@pytest.mark.parametrize("kind", ["key", "value"])
@pytest.mark.parametrize("method", sorted(available_methods()))
def test_rows_requantized_are_the_unstable_suffix(method, kind, monkeypatch):
    """Over a 64-step stream every read hands ``roundtrip`` exactly the
    rows past the method's ``stable_prefix`` — the amortisation, pinned
    by row count rather than by a clock."""
    quantizers = {k: fitted(method, k) for k in ("key", "value")}
    quantizer = quantizers[kind]
    handed = []
    original = quantizer.roundtrip

    def counting(matrix):
        handed.append(np.asarray(matrix).shape[0])
        return original(matrix)

    monkeypatch.setattr(quantizer, "roundtrip", counting)
    backend = BaselineCacheBackend(
        [quantizers["key"]], [quantizers["value"]], method=method
    )
    length = 0
    for step in range(64):
        rows = 5 if step == 0 else 1
        backend.append(
            0,
            make_kv_matrix(rows, DIM, seed=step),
            make_kv_matrix(rows, DIM, seed=step + 999),
        )
        stable = quantizer.stable_prefix(length, length + rows) if length else 0
        stable = max(0, min(stable, length))
        length += rows
        del handed[:]
        backend.read(0)
        assert handed == [length - stable], (step, handed)
        backend.read(0)  # memoized between appends
        assert len(handed) == 1


@pytest.mark.parametrize("residual_length", [0, 1, 5, 16, 32, 100])
@pytest.mark.parametrize("group_size", [4, 32])
def test_kivi_window_sizes(residual_length, group_size):
    """The sliding window at several sizes, including degenerate ones.

    ``residual_length=0`` has no FP16 window (stability limited only by
    the trailing partial key group); ``100`` exceeds the final history
    length, so every read stays inside the window.
    """

    kwargs = dict(group_size=group_size, residual_length=residual_length)
    stream_and_compare(
        fitted("kivi", "key", **kwargs),
        fitted("kivi", "value", **kwargs),
        "kivi",
    )


def test_stable_prefix_contracts():
    """Spot-check the declared stability geometry."""
    # Row-local methods: everything already decoded stays.
    for method in ("fp16", "oaken", "qserve", "atom", "tender"):
        quantizer = fitted(method, "key")
        assert quantizer.stable_prefix(10, 17) == 10
    # History-global topK: nothing survives.
    assert fitted("kvquant", "key").stable_prefix(10, 17) == 0
    # KIVI keys: old window start, rounded down to a group boundary.
    kivi_key = KIVIQuantizer("key", group_size=4, residual_length=8)
    assert kivi_key.stable_prefix(21, 30) == 12  # (21 - 8) -> 13 -> 12
    assert kivi_key.stable_prefix(6, 30) == 0  # inside the window
    # KIVI values: per-token prefix, no group rounding.
    kivi_value = KIVIQuantizer("value", group_size=4, residual_length=8)
    assert kivi_value.stable_prefix(21, 30) == 13


def test_amortized_reads_are_readonly_and_memoized():
    backend = BaselineCacheBackend(
        [fitted("kivi", "key")], [fitted("kivi", "value")]
    )
    backend.append(0, make_kv_matrix(4, DIM, seed=1),
                   make_kv_matrix(4, DIM, seed=2))
    first_keys, _ = backend.read(0)
    again_keys, _ = backend.read(0)
    assert first_keys is again_keys  # memoized between appends
    with pytest.raises(ValueError):
        first_keys[0, 0] = 1.0
