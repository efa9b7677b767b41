"""Autoregressive decode as a per-token *series* of stacked SoA columns.

Streaming serving needs the per-token shape of a decode episode — each
generated token attends over one more cached position, so latency,
energy and the op/byte mix drift token by token.  :func:`decode_series`
evaluates the whole episode — and :func:`decode_series_batch` a batch of
episodes — as column-resident NumPy arrays in one pass, mirroring the
scalar expression tree exactly (integer ceil-divisions as
``-(-a // b)``, float ceils as the same float64 operations), so the
series is *bit-identical* to the scalar step loop
:func:`repro.core.tron.generation.decode_step_reports`, its reference.
:func:`repro.core.tron.generation.run_generation` collapses the series
to episode totals.

Example:
    >>> from repro.core import TRON
    >>> from repro.core.tron.generation import decode_step_reports
    >>> from repro.nn.models import gpt2_small
    >>> series = decode_series(
    ...     TRON(), gpt2_small(), prompt_tokens=8, generated_tokens=4)
    >>> series.context.tolist()        # KV context per generated token
    [9, 10, 11, 12]
    >>> steps = decode_step_reports(
    ...     TRON(), gpt2_small(), prompt_tokens=8, generated_tokens=4)
    >>> series.per_token_ns.tolist() == [s.latency.total_ns for s in steps]
    True
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import Workload, WorkloadKind
from repro.core.reports import EnergyReport, LatencyReport, RunReport
from repro.core.tron.generation import (
    GenerationReport,
    _validate_episode,
    prefill_report,
    static_power_mw,
)
from repro.errors import ConfigurationError
from repro.nn.counting import OpCount, transformer_op_count
from repro.nn.transformer import TransformerConfig

#: Dynamic energy categories a decode step charges, in the order the
#: scalar loop builds its per-step :class:`EnergyReport`.
ENERGY_FIELDS = (
    "laser_pj",
    "tuning_pj",
    "dac_pj",
    "adc_pj",
    "digital_pj",
    "memory_pj",
)


def _ceil_div(a, b):
    """Exact integer ceil-division, elementwise on arrays."""
    return -(-a // b)


def _chain_sum(values: np.ndarray) -> float:
    """Left-to-right chained sum — the order ``total + step`` folding
    produces, which pairwise ``np.sum`` would not reproduce bitwise."""
    return float(np.add.accumulate(np.asarray(values, dtype=float))[-1])


@dataclass(frozen=True, eq=False)
class DecodeSeries:
    """Per-token decode columns for one prompt + generate episode.

    Attributes:
        model_name: decoder config name (e.g. ``'GPT-2'``).
        prompt_tokens / generated_tokens: episode shape.
        prefill: RunReport of the prompt pass.
        context: int64 column — KV context length per generated token.
        compute_ns / memory_ns: float64 latency columns per token.
        energy_pj: dynamic energy columns keyed by :data:`ENERGY_FIELDS`
            (static energy is charged on the episode total, as in
            :func:`repro.core.tron.generation.run_generation`).
        decode_ops: op/byte totals of the decode phase.
        static_mw: static power charged over the decode latency.
    """

    model_name: str
    prompt_tokens: int
    generated_tokens: int
    prefill: RunReport
    context: np.ndarray
    compute_ns: np.ndarray
    memory_ns: np.ndarray
    energy_pj: Dict[str, np.ndarray]
    decode_ops: OpCount
    static_mw: float

    @property
    def per_token_ns(self) -> np.ndarray:
        """Total latency per generated token (compute + memory stall)."""
        return self.compute_ns + self.memory_ns

    @property
    def per_token_pj(self) -> np.ndarray:
        """Dynamic energy per generated token (static excluded)."""
        total = np.zeros_like(self.compute_ns)
        for name in ENERGY_FIELDS:
            total = total + self.energy_pj[name]
        return total

    @property
    def tokens_per_second(self) -> np.ndarray:
        """Instantaneous decode rate at each token position."""
        return 1e9 / self.per_token_ns

    @property
    def cumulative_ns(self) -> np.ndarray:
        """Decode latency accumulated through each token."""
        return np.add.accumulate(self.per_token_ns)

    @property
    def decode_latency(self) -> LatencyReport:
        """Episode decode latency (chained-sum totals, loop-identical)."""
        return LatencyReport(
            compute_ns=_chain_sum(self.compute_ns),
            memory_ns=_chain_sum(self.memory_ns),
        )

    @property
    def decode_energy(self) -> EnergyReport:
        """Episode decode energy including the static charge."""
        totals = {name: _chain_sum(self.energy_pj[name]) for name in ENERGY_FIELDS}
        dynamic = EnergyReport(**totals)
        static_pj = self.static_mw * self.decode_latency.total_ns
        return dynamic + EnergyReport(static_pj=static_pj)

    def to_generation_report(self) -> GenerationReport:
        """Collapse the series to the episode-total report shape."""
        return GenerationReport(
            prefill=self.prefill,
            decode_latency=self.decode_latency,
            decode_energy=self.decode_energy,
            decode_ops=self.decode_ops,
            prompt_tokens=self.prompt_tokens,
            generated_tokens=self.generated_tokens,
        )

    def summary(self) -> str:
        """One line: episode shape, rate, and first->last token drift."""
        first = float(self.per_token_ns[0])
        last = float(self.per_token_ns[-1])
        report = self.to_generation_report()
        return (
            f"{self.model_name} decode {self.prompt_tokens}+"
            f"{self.generated_tokens}: {report.tokens_per_second:,.0f} tok/s, "
            f"token latency {first / 1e3:.2f} -> {last / 1e3:.2f} us"
        )


def episode_decode_ops(
    model: TransformerConfig, context_sum: int, num_steps: int
) -> OpCount:
    """Closed-form decode-phase op totals over an episode.

    Exact-integer equivalent of summing
    :func:`repro.core.tron.generation.decode_step_ops` per step, given
    the episode's total context-length mass ``context_sum``.
    """
    d = model.d_model
    d_ff = model.d_ff
    h = model.num_heads
    layers = model.num_layers
    per_step_const_macs = 4 * d * d + 2 * d * d_ff
    return OpCount(
        macs=layers * (per_step_const_macs * num_steps + 2 * d * context_sum),
        adds=layers * 2 * d * num_steps,
        activations=layers * d_ff * num_steps,
        softmax_elements=layers * h * context_sum,
        norm_elements=layers * 2 * d * num_steps,
        activation_bytes=layers * (d * context_sum + 4 * d * num_steps),
        weight_bytes=layers * (4 * d * d + 2 * d * d_ff) * num_steps,
    )


def _stacked_columns(
    tron, model: TransformerConfig, context: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, Dict[str, np.ndarray]]:
    """One column-resident pass over a context column.

    Mirrors the scalar step loop expression-for-expression: the integer
    tiling arithmetic is exact, and every float64 elementwise operation
    (including the ``math.ceil``-on-float-quotient buffer costing) is
    IEEE-identical to the scalar path, so the columns are bit-identical
    to :func:`repro.core.tron.generation.decode_step_reports`.
    """
    cfg = tron.config
    array = tron.mha_unit.head_unit.executor
    cycle_ns = cfg.cycle_ns
    d = model.d_model
    d_k = model.d_model // model.num_heads
    d_ff = model.d_ff
    layers = model.num_layers
    breakdown = array.energy_breakdown_pj(
        weight_refresh_cycles=cfg.weight_refresh_cycles
    )

    # Context-independent cycle terms, via the same executor calls the
    # scalar loop makes (same yield gating, same validation).
    head_waves = _ceil_div(model.num_heads, cfg.num_head_units)
    const_head_cycles = (
        array.cycles_for(d_k, d, 1)
        + array.cycles_for(d, d_k, 1)
        + array.cycles_for(d_k, d, 1)
    )
    linear_cycles = _ceil_div(array.cycles_for(d, d, 1), cfg.num_linear_arrays)
    ff_cycles = _ceil_div(
        array.cycles_for(d_ff, d, 1) + array.cycles_for(d, d_ff, 1),
        cfg.num_ff_arrays,
    )

    # Context-varying tiling: score row (context x d) and context
    # reduction (d_k x context) — the executor's usable geometry.
    rows = array.usable_rows
    cols = array.usable_cols
    score_cycles = _ceil_div(context, rows) * _ceil_div(d, cols)
    reduce_cycles = _ceil_div(d_k, rows) * _ceil_div(context, cols)
    per_head_cycles = const_head_cycles + score_cycles + reduce_cycles
    layer_cycles = head_waves * per_head_cycles + linear_cycles + ff_cycles

    softmax = cfg.softmax
    softmax_ns = (2 * np.ceil(context / softmax.lanes)) / softmax.clock_ghz
    layer_ns = layer_cycles * cycle_ns + softmax_ns
    compute_ns = layer_ns * layers

    # KV-cache reads through the global buffer: the scalar path does
    # math.ceil on a float quotient, so the column uses the same float64
    # divide-then-ceil (NOT integer ceil-division).
    buffer = cfg.memory.global_buffer
    act_bytes = (context * d + 4 * d) * layers
    accesses = np.ceil(act_bytes * 8 / buffer.word_bits)
    mem_pj = accesses * buffer.read_energy_pj
    serial = np.ceil(accesses / (buffer.banks * buffer.ports))
    mem_ns = serial * buffer.access_latency_ns

    # Weight streaming is context-independent: one scalar call.
    weight_bytes = (4 * d * d + 2 * d * d_ff) * layers
    weight_pj, weight_ns = cfg.memory.load_from_offchip(weight_bytes)
    weight_pj /= cfg.batch
    weight_ns /= cfg.batch
    stall_ns = np.maximum(weight_ns - compute_ns, 0.0) + mem_ns

    active_cycles = layer_cycles * layers
    per_element_pj = softmax.energy_pj(1)
    energy = {
        "laser_pj": active_cycles * breakdown["laser_pj"],
        "tuning_pj": active_cycles * breakdown["tuning_pj"],
        "dac_pj": active_cycles * breakdown["dac_pj"],
        "adc_pj": active_cycles * breakdown["adc_pj"],
        "digital_pj": ((model.num_heads * context) * per_element_pj) * layers,
        "memory_pj": mem_pj + weight_pj,
    }
    return compute_ns, stall_ns, energy


def _context_column(prompt_tokens: int, generated_tokens: int) -> np.ndarray:
    return np.arange(
        prompt_tokens + 1,
        prompt_tokens + generated_tokens + 1,
        dtype=np.int64,
    )


def _series_from_columns(
    tron,
    model: TransformerConfig,
    prompt_tokens: int,
    generated_tokens: int,
    prefill: RunReport,
    context: np.ndarray,
    compute_ns: np.ndarray,
    memory_ns: np.ndarray,
    energy: Dict[str, np.ndarray],
) -> DecodeSeries:
    return DecodeSeries(
        model_name=model.name,
        prompt_tokens=prompt_tokens,
        generated_tokens=generated_tokens,
        prefill=prefill,
        context=context,
        compute_ns=compute_ns,
        memory_ns=memory_ns,
        energy_pj=energy,
        decode_ops=episode_decode_ops(
            model, int(context.sum()), generated_tokens
        ),
        static_mw=static_power_mw(tron),
    )


def decode_series(
    tron,
    model: TransformerConfig,
    prompt_tokens: int = 128,
    generated_tokens: int = 128,
) -> DecodeSeries:
    """Per-token decode series for one episode on a TRON instance.

    Args:
        tron: a (possibly context-bound) :class:`repro.core.TRON`.
        model: decoder-only transformer config.
        prompt_tokens / generated_tokens: episode shape.
    """
    _validate_episode(model, prompt_tokens, generated_tokens)
    prefill = prefill_report(tron, model, prompt_tokens)
    context = _context_column(prompt_tokens, generated_tokens)
    compute_ns, memory_ns, energy = _stacked_columns(tron, model, context)
    return _series_from_columns(
        tron, model, prompt_tokens, generated_tokens, prefill,
        context, compute_ns, memory_ns, energy,
    )


def decode_series_batch(
    tron,
    model: TransformerConfig,
    episodes: Sequence[Tuple[int, int]],
) -> List[DecodeSeries]:
    """A sweep over episodes as ONE stacked column pass.

    All episodes' context columns are concatenated, evaluated in a
    single SoA pass, and split back — each returned series is
    bit-identical to its per-episode scalar loop.

    Example:
        >>> from repro.core import TRON
        >>> from repro.nn.models import gpt2_small
        >>> batch = decode_series_batch(
        ...     TRON(), gpt2_small(), [(8, 2), (16, 3)])
        >>> [s.generated_tokens for s in batch]
        [2, 3]
    """
    if not episodes:
        raise ConfigurationError("need at least one (prompt, generated) episode")
    for prompt, generated in episodes:
        _validate_episode(model, prompt, generated)
    columns = [_context_column(p, g) for p, g in episodes]
    stacked = np.concatenate(columns)
    compute_ns, memory_ns, energy = _stacked_columns(tron, model, stacked)
    offsets = np.cumsum([len(c) for c in columns])[:-1]
    compute_parts = np.split(compute_ns, offsets)
    memory_parts = np.split(memory_ns, offsets)
    energy_parts = {
        name: np.split(energy[name], offsets) for name in ENERGY_FIELDS
    }
    prefills: Dict[int, RunReport] = {}
    series = []
    for index, (prompt, generated) in enumerate(episodes):
        if prompt not in prefills:
            prefills[prompt] = prefill_report(tron, model, prompt)
        series.append(
            _series_from_columns(
                tron, model, prompt, generated, prefills[prompt],
                columns[index], compute_parts[index], memory_parts[index],
                {name: energy_parts[name][index] for name in ENERGY_FIELDS},
            )
        )
    return series


@dataclass(frozen=True)
class DecodeWorkload(Workload):
    """A prompt + generate episode as a registered workload.

    Runs through the uniform ``Accelerator.run`` entry point (TRON only
    — GHOST raises :class:`repro.errors.MappingError`), reporting the
    whole episode (prefill + decode); the per-token series is exposed
    via :meth:`repro.core.TRON.decode_series`.

    Example:
        >>> from repro.core.base import get_workload
        >>> workload = get_workload("decode-gpt2-small")
        >>> workload.kind.value, workload.prompt_tokens
        ('decode', 128)
    """

    model: TransformerConfig
    prompt_tokens: int = 128
    generated_tokens: int = 64
    label: Optional[str] = None

    def __post_init__(self) -> None:
        _validate_episode(self.model, self.prompt_tokens, self.generated_tokens)

    @property
    def name(self) -> str:
        return self.label or f"decode-{self.model.name}"

    @property
    def kind(self) -> WorkloadKind:
        return WorkloadKind.DECODE

    def op_count(self, bytes_per_value: int = 1) -> OpCount:
        prefill_ops = transformer_op_count(
            replace(self.model, seq_len=self.prompt_tokens),
            bytes_per_value=bytes_per_value,
        )
        context = _context_column(self.prompt_tokens, self.generated_tokens)
        decode = episode_decode_ops(
            self.model, int(context.sum()), self.generated_tokens
        )
        decode = replace(
            decode,
            weight_bytes=decode.weight_bytes * bytes_per_value,
            activation_bytes=decode.activation_bytes * bytes_per_value,
        )
        return prefill_ops + decode

    def describe(self) -> str:
        return (
            f"{self.name}: {self.model.name} prompt {self.prompt_tokens} + "
            f"{self.generated_tokens} generated tokens"
        )
