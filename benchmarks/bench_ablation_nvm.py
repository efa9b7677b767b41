"""Ablation A6: non-volatile PCM weight cells (paper conclusion).

The paper's conclusion points to "alternative non-volatile optical memory
cells" as future work.  This bench quantifies the trade on both
accelerators: PCM weights eliminate the weight-DAC refresh and the weight
MRs' tuning hold power, at the cost of write energy whenever weights
change.  Weight-stationary GHOST wins outright; TRON wins once its
refresh window is long enough.
"""

from repro.core.ghost import GHOST, GHOSTConfig
from repro.core.tron import TRON, TRONConfig
from repro.graphs.datasets import get_dataset_stats, synthesize_dataset
from repro.nn.gnn import GNNKind, make_gnn
from repro.nn.models import bert_base
from repro.photonics.pcm import NonVolatileWeightBank, PCMCell

import numpy as np


def regenerate_nvm_ablation():
    pcm = PCMCell()
    results = {}

    # Device-level crossover.
    bank = NonVolatileWeightBank(cell=pcm)
    results["breakeven_reuse_cycles"] = bank.breakeven_reuse_cycles()

    # TRON at its default refresh window.
    volatile_tron = TRON(TRONConfig(batch=8)).run_transformer(bert_base())
    pcm_tron = TRON(TRONConfig(batch=8, pcm=pcm)).run_transformer(bert_base())
    results["tron_volatile_epb"] = volatile_tron.epb_pj
    results["tron_pcm_epb"] = pcm_tron.epb_pj

    # GHOST: weights are layer-stationary — one layer's sweep over Cora
    # reuses the tile for ~60k photonic cycles, so both variants are
    # evaluated at that realistic refresh window.
    stats = get_dataset_stats("cora")
    graph = synthesize_dataset(stats, rng=np.random.default_rng(0))
    model = make_gnn(
        GNNKind.GCN,
        in_dim=stats.feature_dim,
        out_dim=stats.num_classes,
        hidden_dim=64,
    )
    reuse = 60_000
    volatile_ghost = GHOST(
        GHOSTConfig(weight_refresh_cycles=reuse)
    ).run_gnn(model.config, graph)
    pcm_ghost = GHOST(
        GHOSTConfig(weight_refresh_cycles=reuse, pcm=pcm)
    ).run_gnn(model.config, graph)
    results["ghost_volatile_epb"] = volatile_ghost.epb_pj
    results["ghost_pcm_epb"] = pcm_ghost.epb_pj
    results["ghost_volatile_tuning_nj"] = volatile_ghost.energy.tuning_pj / 1e3
    results["ghost_pcm_tuning_nj"] = pcm_ghost.energy.tuning_pj / 1e3
    return results


def test_ablation_nonvolatile_weights(run_once):
    data = run_once(regenerate_nvm_ablation)
    print("\n=== Ablation A6: non-volatile PCM weight cells ===")
    print(
        f"  device breakeven: PCM wins beyond "
        f"{data['breakeven_reuse_cycles']} reuse cycles"
    )
    print(
        f"  TRON  EPB: volatile {data['tron_volatile_epb']:.4f} -> "
        f"PCM {data['tron_pcm_epb']:.4f} pJ/bit"
    )
    print(
        f"  GHOST EPB: volatile {data['ghost_volatile_epb']:.4f} -> "
        f"PCM {data['ghost_pcm_epb']:.4f} pJ/bit"
    )
    print(
        f"  GHOST tuning energy: {data['ghost_volatile_tuning_nj']:.1f} -> "
        f"{data['ghost_pcm_tuning_nj']:.1f} nJ"
    )
    # GHOST's layer-stationary weights clearly benefit.
    assert data["ghost_pcm_tuning_nj"] < data["ghost_volatile_tuning_nj"]
    assert data["ghost_pcm_epb"] <= data["ghost_volatile_epb"]
    # The device crossover exists and is finite.
    assert 1 < data["breakeven_reuse_cycles"] < 10**6
