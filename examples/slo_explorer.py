#!/usr/bin/env python
"""Serving-SLO exploration: TTFT / TPOT / tail latency vs load.

Replays a synthetic Azure-style Conversation trace through the
continuous-batching scheduler on Oaken-LPDDR and the vLLM GPU
baseline, sweeping the residency cap, and reports the latency metrics
a serving operator actually watches: time-to-first-token, time per
output token, and p95 end-to-end latency.

Run:  python examples/slo_explorer.py
"""

from repro.data.traces import generate_trace
from repro.experiments.common import TextTable
from repro.hardware.overheads import get_system
from repro.models.config import get_model
from repro.serving.simulator import simulate_trace

ARCH = get_model("llama2-13b").arch


def main() -> None:
    trace = generate_trace(
        "conversation", num_requests=96, seed=11, max_tokens=1024
    )
    prompts = [r.input_tokens for r in trace]
    outputs = [r.output_tokens for r in trace]
    print(f"trace: {len(trace)} requests, mean prompt "
          f"{sum(prompts) / len(prompts):.0f} tokens, mean output "
          f"{sum(outputs) / len(outputs):.0f} tokens")

    table = TextTable(
        ["system", "cap", "resident", "tok/s", "TTFT_mean_s",
         "TTFT_p95_s", "TPOT_ms", "lat_p95_s"]
    )
    for system_name in ("oaken-lpddr", "vllm"):
        system = get_system(system_name)
        for cap in (8, 16, 32, 64, 128):
            report = simulate_trace(system, ARCH, trace, cap)
            if report.oom:
                table.add_row(
                    [system_name, cap, 0, "OOM", "-", "-", "-", "-"]
                )
                continue
            table.add_row(
                [
                    system_name,
                    cap,
                    report.effective_batch,
                    f"{report.generation_throughput:.0f}",
                    f"{report.mean_ttft_s:.2f}",
                    f"{report.p95_ttft_s:.2f}",
                    f"{report.mean_tpot_s * 1e3:.1f}",
                    f"{report.p95_latency_s:.2f}",
                ]
            )
    print()
    print(table.render())
    print("\nlarger caps cut queueing (TTFT) at a growing TPOT cost. "
          "The GPU wins per-iteration latency while its batch fits, "
          "but its FP16 KV clips residency (cap 128 -> 43 resident); "
          "Oaken's 4.8-bit KV keeps admitting, which is where its "
          "throughput lead at scale comes from (Figure 11's shape).")


if __name__ == "__main__":
    main()
