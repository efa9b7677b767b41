"""Autoregressive generation (decode-phase) cost model for TRON.

Encoder workloads (BERT/ViT) process a whole sequence per pass, but
decoder-only LLMs (GPT — Section II: "the decoder processes this
representation incrementally, generating a singular output while
incorporating prior outputs") spend most of their time in *decode*: one
token per step, attending over a growing KV context.

Per generated token, each layer performs matrix-VECTOR work (batch 1), so
the MR bank arrays are far less utilized than in prefill — exactly the
regime where TRON's conversion-free optical path and the fast photonic
clock matter most.  The model accounts:

- prefill: one full forward pass over the prompt (the standard
  ``run_transformer`` path at ``seq_len = prompt``);
- decode: per token, per layer — QKV projections for one token, a
  1 x L score row against the cached context (via the eq. 3 dataflow with
  the cached X^T held by the arrays), softmax over L, the context
  reduction, output linear, and the FF block for one token;
- KV-cache traffic: the cached context streams through the arrays'
  weight banks, so every decode step re-imprints L context columns —
  charged as memory reads plus weight-DAC conversions at the array's
  refresh granularity.

:func:`decode_step_reports` is the per-token model as a scalar step
loop — the reference.  Episodes are costed through the stacked
per-token series of :mod:`repro.streaming.decode`, which is
bit-identical to it; :func:`run_generation` collapses that series to
episode totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.reports import EnergyReport, LatencyReport, RunReport
from repro.errors import ConfigurationError
from repro.nn.counting import OpCount
from repro.nn.transformer import TransformerConfig, TransformerKind


@dataclass(frozen=True)
class GenerationReport:
    """Cost of one prompt-then-generate episode.

    Attributes:
        prefill: RunReport of the prompt pass.
        decode_latency / decode_energy: totals over all generated tokens.
        prompt_tokens / generated_tokens: episode shape.
        decode_ops: op totals of the decode phase.
    """

    prefill: RunReport
    decode_latency: LatencyReport
    decode_energy: EnergyReport
    decode_ops: OpCount
    prompt_tokens: int
    generated_tokens: int

    @property
    def total_latency_ns(self) -> float:
        return self.prefill.latency_ns + self.decode_latency.total_ns

    @property
    def total_energy_pj(self) -> float:
        return self.prefill.energy_pj + self.decode_energy.total_pj

    @property
    def tokens_per_second(self) -> float:
        """Steady-state decode rate (excludes prefill)."""
        if self.generated_tokens == 0:
            raise ConfigurationError("no generated tokens")
        per_token_ns = self.decode_latency.total_ns / self.generated_tokens
        return 1e9 / per_token_ns

    @property
    def energy_per_token_uj(self) -> float:
        """Mean decode energy per generated token."""
        if self.generated_tokens == 0:
            raise ConfigurationError("no generated tokens")
        return self.decode_energy.total_pj / self.generated_tokens / 1e6

    def summary(self) -> str:
        return (
            f"prefill {self.prompt_tokens} tok: "
            f"{self.prefill.latency_ns / 1e6:.3f} ms | decode "
            f"{self.generated_tokens} tok: "
            f"{self.decode_latency.total_ns / 1e6:.3f} ms "
            f"({self.tokens_per_second:,.0f} tok/s, "
            f"{self.energy_per_token_uj:.2f} uJ/tok)"
        )


def decode_step_ops(config: TransformerConfig, context_len: int) -> OpCount:
    """Op/byte count of generating ONE token at a given context length."""
    if context_len < 1:
        raise ConfigurationError(f"context length must be >= 1, got {context_len}")
    d = config.d_model
    d_ff = config.d_ff
    h = config.num_heads
    # Per layer: QKV + output projections for one token, attention row
    # against L cached positions, FF for one token.
    projection_macs = 4 * d * d
    attention_macs = 2 * context_len * d
    ff_macs = 2 * d * d_ff
    per_layer = OpCount(
        macs=projection_macs + attention_macs + ff_macs,
        adds=2 * d,
        activations=d_ff,
        softmax_elements=h * context_len,
        norm_elements=2 * d,
        # KV cache read: L cached context columns (eq. 3 keeps X^T, which
        # is d wide) plus the token's own activations.
        activation_bytes=context_len * d + 4 * d,
        weight_bytes=4 * d * d + 2 * d * d_ff,
    )
    return per_layer.scaled(config.num_layers)


@dataclass(frozen=True)
class DecodeStepCost:
    """Cost of generating ONE token at a given KV-cache context length.

    The scalar unit of the decode-phase model: the streaming subsystem
    (:mod:`repro.streaming.decode`) computes the same costs as
    per-token series columns.
    """

    context: int
    latency: LatencyReport
    energy: EnergyReport
    ops: OpCount


def _validate_episode(
    model: TransformerConfig, prompt_tokens: int, generated_tokens: int
) -> None:
    if model.kind is not TransformerKind.DECODER_ONLY:
        raise ConfigurationError(
            f"generation requires a decoder-only model, got {model.kind}"
        )
    if prompt_tokens < 1 or generated_tokens < 1:
        raise ConfigurationError("prompt and generation lengths must be >= 1")


def decode_step_reports(
    tron,
    model: TransformerConfig,
    prompt_tokens: int,
    generated_tokens: int,
) -> List[DecodeStepCost]:
    """Per-token decode costs for one episode — the scalar step loop.

    One :class:`DecodeStepCost` per generated token, in generation
    order; the KV context grows by one each step, shifting the op/byte
    mix from weight-dominated toward KV-cache-dominated.  The stacked
    SoA evaluator (:func:`repro.streaming.decode.decode_series`) is
    validated bit-identical against this loop.
    """
    _validate_episode(model, prompt_tokens, generated_tokens)
    cfg = tron.config
    head_unit = tron.mha_unit.head_unit
    array = head_unit.executor
    cycle_ns = cfg.cycle_ns
    d = model.d_model
    d_k = model.d_model // model.num_heads
    d_ff = model.d_ff
    breakdown = array.energy_breakdown_pj(
        weight_refresh_cycles=cfg.weight_refresh_cycles
    )

    steps: List[DecodeStepCost] = []
    for step in range(generated_tokens):
        context = prompt_tokens + step + 1
        # Optical cycles per layer for one token (batch = 1 everywhere):
        head_waves = -(-model.num_heads // cfg.num_head_units)
        per_head_cycles = (
            array.cycles_for(d_k, d, 1)  # q projection
            + array.cycles_for(d, d_k, 1)  # W_K^T mix
            + array.cycles_for(context, d, 1)  # score row vs cached X^T
            + array.cycles_for(d_k, d, 1)  # v projection
            + array.cycles_for(d_k, context, 1)  # context reduction
        )
        linear_cycles = -(
            -array.cycles_for(d, d, 1) // cfg.num_linear_arrays
        )
        ff_cycles = -(
            -(array.cycles_for(d_ff, d, 1) + array.cycles_for(d, d_ff, 1))
            // cfg.num_ff_arrays
        )
        layer_cycles = head_waves * per_head_cycles + linear_cycles + ff_cycles
        softmax_ns = cfg.softmax.latency_ns(context)
        layer_ns = layer_cycles * cycle_ns + softmax_ns
        compute_ns = layer_ns * model.num_layers

        ops = decode_step_ops(model, context)
        # KV-cache + weight streaming for this token.
        mem_pj, mem_ns = cfg.memory.read_onchip(ops.activation_bytes)
        weight_pj, weight_ns = cfg.memory.load_from_offchip(ops.weight_bytes)
        weight_pj /= cfg.batch
        weight_ns /= cfg.batch
        stall_ns = max(weight_ns - compute_ns, 0.0) + mem_ns

        active_cycles = layer_cycles * model.num_layers
        latency = LatencyReport(compute_ns=compute_ns, memory_ns=stall_ns)
        energy = EnergyReport(
            laser_pj=active_cycles * breakdown["laser_pj"],
            tuning_pj=active_cycles * breakdown["tuning_pj"],
            dac_pj=active_cycles * breakdown["dac_pj"],
            adc_pj=active_cycles * breakdown["adc_pj"],
            digital_pj=cfg.softmax.energy_pj(model.num_heads * context)
            * model.num_layers,
            memory_pj=mem_pj + weight_pj,
        )
        steps.append(
            DecodeStepCost(
                context=context, latency=latency, energy=energy, ops=ops
            )
        )
    return steps


def static_power_mw(tron) -> float:
    """Static power charged over the whole decode phase (control +
    buffer leakage), in mW — multiplied by total ns it yields pJ."""
    cfg = tron.config
    return cfg.control.power_mw + cfg.memory.global_buffer.leakage_mw


def prefill_report(
    tron, model: TransformerConfig, prompt_tokens: int
) -> RunReport:
    """The prompt pass: one full forward at ``seq_len = prompt_tokens``."""
    prefill_config = TransformerConfig(
        name=model.name,
        kind=model.kind,
        num_layers=model.num_layers,
        d_model=model.d_model,
        num_heads=model.num_heads,
        d_ff=model.d_ff,
        seq_len=prompt_tokens,
        vocab_size=model.vocab_size,
    )
    return tron.run_transformer(prefill_config)


def run_generation(
    tron,
    model: TransformerConfig,
    prompt_tokens: int = 128,
    generated_tokens: int = 128,
) -> GenerationReport:
    """Cost a prompt + generate episode on a TRON instance.

    Args:
        tron: a :class:`repro.core.tron.TRON` accelerator.
        model: a decoder-style transformer config (its ``seq_len`` is
            overridden by the episode shape).
        prompt_tokens: prompt length for the prefill pass.
        generated_tokens: tokens generated autoregressively.
    """
    # Local import: the streaming package layers on top of the core.
    from repro.streaming.decode import decode_series

    return decode_series(
        tron, model, prompt_tokens, generated_tokens
    ).to_generation_report()
