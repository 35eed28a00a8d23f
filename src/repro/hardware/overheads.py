"""Per-method overhead profiles and the serving-system catalog.

A *serving system* is a (device, quantization method) pairing as it
appears in the paper's figures: ``GPU (vLLM)``, ``GPU (KVQuant)``,
``GPU (KIVI)``, ``GPU (QServe)``, ``Tender``, ``LPU``, ``Oaken-LPDDR``,
``Oaken-HBM``, plus ``Oaken-GPU`` (the paper's Figure 12b software
port).

The :class:`MethodProfile` captures what each method costs at runtime:

* ``kv_bits`` — analytic effective KV bitwidth (drives bytes moved and
  capacity),
* ``dequant_slowdown`` — multiplicative penalty on KV-cache reads from
  mixed-precision gathers / grouped layouts / reorder indirection,
* ``quant_flops_per_value`` — online quantization work per *generated*
  KV element (sorting for KVQuant, divergent grouping for Oaken-GPU),
* ``overlapped`` — whether the platform hides (de)quantization behind
  DMA/attention (Oaken's hardware engines do; GPU software does not),
* ``engine_*_gbps`` — hardware engine stream rates (Oaken NPUs), used
  for the Figure 12(b) latency breakdown,
* ``ragged_batch_efficiency`` — compute efficiency under mixed prompt
  lengths (Tender's systolic padding penalty, Figure 14).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.core.config import OakenConfig
from repro.core.quantizer import expected_effective_bitwidth
from repro.hardware.accelerator import DeviceSpec, get_device
from repro.models.config import ArchShape

#: FP16 weight bytes above which a model needs two pipeline-parallel
#: devices (Section 6.1 splits OPT-30B/Mixtral/Llama2-70B over 2 GPUs).
_DUAL_DEVICE_WEIGHT_GB = 40.0


@dataclass(frozen=True)
class MethodProfile:
    """Runtime cost profile of one KV quantization method."""

    name: str
    kv_bits: Callable[[int], float]
    dequant_slowdown: float = 1.0
    quant_flops_per_value: float = 0.0
    overlapped: bool = False
    engine_quant_gbps: float = 0.0
    engine_dequant_gbps: float = 0.0
    ragged_batch_efficiency: float = 1.0


def _fp16_bits(kv_dim: int) -> float:
    return 16.0


def _kvquant_bits(kv_dim: int) -> float:
    # 4-bit dense + 1% exact outliers at 23 bits + per-token value
    # scales amortized over the KV width.
    return 4.0 + 0.01 * 23.0 + 16.0 / kv_dim


def _kivi_bits(kv_dim: int) -> float:
    # 4-bit codes + one FP16 (scale, zero) pair per 32-element group.
    return 4.0 + 2.0 * 16.0 / 32.0


def _qserve_bits(kv_dim: int) -> float:
    # 4-bit codes + one FP16 (scale, zero) pair per 128-channel group.
    return 4.0 + 2.0 * 16.0 / 128.0


def _tender_bits(kv_dim: int) -> float:
    # 4-bit codes + static per-group tables only.
    return 4.0 + 24.0 / kv_dim


#: One shared paper-default config, so its derived accounting constants
#: are computed once instead of per analytic iteration.
_OAKEN_CONFIG = OakenConfig()


def _oaken_bits(kv_dim: int) -> float:
    return expected_effective_bitwidth(_OAKEN_CONFIG, kv_dim)


#: Method profiles.  GPU software numbers follow the paper's
#: characterization: KVQuant/KIVI pay heavy online sorting and
#: mixed-precision costs that "largely offset" their gains; QServe is
#: engineered for speed; Oaken's engines stream at DMA rate and overlap.
PROFILES: Dict[str, MethodProfile] = {
    "fp16": MethodProfile(name="fp16", kv_bits=_fp16_bits),
    "kvquant-gpu": MethodProfile(
        name="kvquant-gpu",
        kv_bits=_kvquant_bits,
        dequant_slowdown=2.60,
        quant_flops_per_value=96.0,  # online topK, divergent
    ),
    "kivi-gpu": MethodProfile(
        name="kivi-gpu",
        kv_bits=_kivi_bits,
        dequant_slowdown=2.30,
        quant_flops_per_value=24.0,
    ),
    "qserve-gpu": MethodProfile(
        name="qserve-gpu",
        kv_bits=_qserve_bits,
        dequant_slowdown=1.90,
        quant_flops_per_value=8.0,
    ),
    "oaken-gpu": MethodProfile(
        name="oaken-gpu",
        kv_bits=_oaken_bits,
        dequant_slowdown=2.00,
        quant_flops_per_value=64.0,  # warp-divergent 3-way grouping
    ),
    "tender-asic": MethodProfile(
        name="tender-asic",
        kv_bits=_tender_bits,
        dequant_slowdown=1.15,
        quant_flops_per_value=2.0,
        ragged_batch_efficiency=0.55,
    ),
    "oaken-engine": MethodProfile(
        name="oaken-engine",
        kv_bits=_oaken_bits,
        overlapped=True,
        engine_quant_gbps=180.0,
        engine_dequant_gbps=12000.0,
    ),
}


@dataclass(frozen=True)
class ServingSystem:
    """A (device, method) pairing from the paper's figures.

    Attributes:
        name: figure-legend name.
        device_small: device for single-device models.
        device_large: device for models needing two devices.
        profile: the method's runtime profile.
        weight_bits: stored weight precision (16 everywhere except the
            Figure 5 weight-quantization study).
    """

    name: str
    device_small: str
    device_large: str
    profile: MethodProfile
    weight_bits: float = 16.0

    def device_for(self, arch: ArchShape) -> DeviceSpec:
        """Pick 1- or 2-device configuration for a model size."""
        weight_gb = arch.weight_bytes(16.0) / 1024.0**3
        if weight_gb > _DUAL_DEVICE_WEIGHT_GB:
            return get_device(self.device_large)
        return get_device(self.device_small)

    def kv_bits(self, arch: ArchShape) -> float:
        """Effective KV bitwidth on this model."""
        return self.profile.kv_bits(arch.kv_dim)


#: The systems appearing across Figures 11-14.
SERVING_SYSTEMS: Dict[str, ServingSystem] = {
    "vllm": ServingSystem(
        name="vllm", device_small="a100", device_large="a100x2",
        profile=PROFILES["fp16"],
    ),
    "kvquant-gpu": ServingSystem(
        name="kvquant-gpu", device_small="a100", device_large="a100x2",
        profile=PROFILES["kvquant-gpu"],
    ),
    "kivi-gpu": ServingSystem(
        name="kivi-gpu", device_small="a100", device_large="a100x2",
        profile=PROFILES["kivi-gpu"],
    ),
    "qserve-gpu": ServingSystem(
        name="qserve-gpu", device_small="a100", device_large="a100x2",
        profile=PROFILES["qserve-gpu"],
    ),
    "oaken-gpu": ServingSystem(
        name="oaken-gpu", device_small="a100", device_large="a100x2",
        profile=PROFILES["oaken-gpu"],
    ),
    "tender": ServingSystem(
        name="tender", device_small="tender", device_large="tender-x2",
        profile=PROFILES["tender-asic"],
    ),
    "lpu": ServingSystem(
        name="lpu", device_small="lpu-lpddr", device_large="lpu-lpddr",
        profile=PROFILES["fp16"],
    ),
    "lpu-hbm": ServingSystem(
        name="lpu-hbm", device_small="lpu-hbm", device_large="lpu-hbm",
        profile=PROFILES["fp16"],
    ),
    "oaken-lpddr": ServingSystem(
        name="oaken-lpddr", device_small="oaken-lpddr",
        device_large="oaken-lpddr", profile=PROFILES["oaken-engine"],
    ),
    "oaken-hbm": ServingSystem(
        name="oaken-hbm", device_small="oaken-hbm",
        device_large="oaken-hbm", profile=PROFILES["oaken-engine"],
    ),
}


def get_system(name: str) -> ServingSystem:
    """Look up a serving system by figure-legend name."""
    try:
        return SERVING_SYSTEMS[name]
    except KeyError:
        raise ValueError(
            f"unknown system {name!r}; available: {list(SERVING_SYSTEMS)}"
        ) from None
