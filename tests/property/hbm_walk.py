"""Per-burst reference oracle of :class:`HBMMemoryModel`'s closed form.

The costing path prices a transfer with segment arithmetic; these
walkers re-derive the same costs the slow way, burst by burst.  Bursts
issue round-robin over channels, a sequential walk pays an ACT on every
row switch of a channel, a scattered walk pays one per burst in a
tFAW-paced slot, and energy accumulates per command.  The per-channel
burst and row maxima feed the *same* final timing expression, so
latency is bit-identical; energy is a correctly rounded per-command sum
(``math.fsum``), within 1e-12 relative of the closed form.  The property
suite and ``benchmarks/bench_memory_costing.py`` use them; the library
never does.

Example:
    >>> from repro.core.engine.hbm.model import HBMMemoryModel
    >>> from repro.electronics.memory import MemorySystem
    >>> model = HBMMemoryModel(MemorySystem())
    >>> walk_sequential(model, 1 << 20).latency_ns == (
    ...     model.burst_offchip(1 << 20).latency_ns)
    True
"""

import math

from repro.core.engine.memory import Traffic


def walk_sequential(model, num_bytes: int) -> Traffic:
    """A sequential DRAM transfer walked burst by burst."""
    if num_bytes == 0:
        return Traffic(0.0, 0.0)
    geo = model.geometry
    channels = model.system.hbm.channels
    e_bit = model.system.hbm.energy_per_bit_pj
    io_bit = geo.io_energy_per_bit_pj(e_bit)
    act_pj = geo.activate_energy_pj(e_bit)
    total, _, _ = model._burst_split(num_bytes)
    terms = []
    open_rows = {}
    bursts_per_channel = {}
    rows_per_channel = {}
    for i in range(total):
        ch = i % channels
        row_ordinal = (i // channels) // geo.bursts_per_row
        if open_rows.get(ch) != row_ordinal:
            open_rows[ch] = row_ordinal
            rows_per_channel[ch] = rows_per_channel.get(ch, 0) + 1
            terms.append(act_pj)
        bursts_per_channel[ch] = bursts_per_channel.get(ch, 0) + 1
        terms.append(model._burst_bytes_at(i, total, num_bytes) * 8 * io_bit)
    bursts_max = max(bursts_per_channel.values())
    rows_max = max(rows_per_channel.values())
    tburst = geo.tburst_ns(model.system.hbm.bandwidth_gbps)
    device_ns = (
        geo.trcd_ns
        + bursts_max * tburst
        + max(rows_max - 1, 0) * model._row_gap_ns(tburst)
    )
    return Traffic(math.fsum(terms), model._finish_latency(device_ns))


def walk_stream(model, num_bytes: int) -> Traffic:
    """``stream_offchip`` over the sequential walker."""
    dram = walk_sequential(model, num_bytes)
    if num_bytes == 0:
        return dram
    buffer = model.system.global_buffer
    energy = dram.energy_pj + buffer.transfer_energy_pj(num_bytes, write=True)
    latency = max(dram.latency_ns, buffer.transfer_latency_ns(num_bytes))
    return Traffic(energy, latency)


def walk_scattered(model, num_bytes: int) -> Traffic:
    """A scattered DRAM transfer walked burst by burst."""
    if num_bytes == 0:
        return Traffic(0.0, 0.0)
    geo = model.geometry
    channels = model.system.hbm.channels
    e_bit = model.system.hbm.energy_per_bit_pj
    io_bit = geo.io_energy_per_bit_pj(e_bit)
    act_pj = geo.activate_energy_pj(e_bit)
    total, _, _ = model._burst_split(num_bytes)
    terms = []
    bursts_per_channel = {}
    for i in range(total):
        ch = i % channels
        bursts_per_channel[ch] = bursts_per_channel.get(ch, 0) + 1
        terms.append(act_pj)
        terms.append(model._burst_bytes_at(i, total, num_bytes) * 8 * io_bit)
    slot = geo.random_slot_ns(model.system.hbm.bandwidth_gbps)
    device_ns = geo.trcd_ns + max(bursts_per_channel.values()) * slot
    return Traffic(math.fsum(terms), model._finish_latency(device_ns))
