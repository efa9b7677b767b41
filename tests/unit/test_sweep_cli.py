"""Tests for the design-space sweep engine and the CLI."""

import json

import pytest

from repro.analysis.sweep import (
    _run_serial,
    SweepPoint,
    SweepSpace,
    format_sweep,
    ghost_sweep_space,
    pareto_frontier,
    run_sweep,
    run_sweep_with_stats,
    sweep_ghost,
    sweep_tron,
    tron_sweep_space,
    with_corners,
)
from repro.cli import build_parser, main
from repro.core.context import ExecutionContext, standard_corners
from repro.core.engine import memo
from repro.core.reports import EnergyReport, LatencyReport, RunReport
from repro.errors import ConfigurationError
from repro.nn.counting import OpCount
from repro.photonics.variation import ProcessVariationModel


def _serial(space):
    """The scalar oracle: one ``Accelerator.run`` per point."""
    return _run_serial(space, space.evaluations())


def _cold_serial(space):
    """The scalar oracle from cold physics and graph memos."""
    memo.clear("engine.")
    memo.clear("workloads.graph")
    return _serial(space)


def _point(label, latency, energy):
    report = RunReport(
        platform="p",
        workload="w",
        ops=OpCount(macs=500),
        latency=LatencyReport(compute_ns=latency),
        energy=EnergyReport(digital_pj=energy),
    )
    return SweepPoint(label=label, knobs={}, report=report)


class TestParetoFrontier:
    def test_dominated_points_removed(self):
        points = [
            _point("fast+cheap", 1.0, 1.0),
            _point("dominated", 2.0, 2.0),
        ]
        frontier = pareto_frontier(points)
        assert [p.label for p in frontier] == ["fast+cheap"]

    def test_tradeoff_points_kept(self):
        points = [
            _point("fast", 1.0, 10.0),
            _point("cheap", 10.0, 1.0),
            _point("middle", 5.0, 5.0),
        ]
        frontier = pareto_frontier(points)
        assert {p.label for p in frontier} == {"fast", "cheap", "middle"}

    def test_sorted_by_latency(self):
        points = [_point("b", 5.0, 1.0), _point("a", 1.0, 5.0)]
        frontier = pareto_frontier(points)
        assert [p.label for p in frontier] == ["a", "b"]

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            pareto_frontier([])

    def test_duplicate_points_both_survive(self):
        """Exact latency/energy duplicates do not dominate each other."""
        points = [
            _point("twin-a", 2.0, 3.0),
            _point("twin-b", 2.0, 3.0),
        ]
        frontier = pareto_frontier(points)
        assert {p.label for p in frontier} == {"twin-a", "twin-b"}

    def test_duplicate_ties_break_by_label(self):
        """Deterministic ordering among exact ties: label ascending."""
        points = [
            _point("zzz", 2.0, 3.0),
            _point("aaa", 2.0, 3.0),
            _point("mmm", 2.0, 3.0),
        ]
        frontier = pareto_frontier(points)
        assert [p.label for p in frontier] == ["aaa", "mmm", "zzz"]

    def test_same_latency_different_energy_keeps_cheaper(self):
        points = [
            _point("cheap", 2.0, 1.0),
            _point("pricey", 2.0, 5.0),
        ]
        frontier = pareto_frontier(points)
        assert [p.label for p in frontier] == ["cheap"]

    def test_same_energy_ties_sorted_by_latency(self):
        points = [
            _point("slow", 9.0, 1.0),
            _point("fast", 1.0, 1.0),
        ]
        frontier = pareto_frontier(points)
        assert [p.label for p in frontier] == ["fast"]

    def test_duplicate_dominated_pair_removed_together(self):
        points = [
            _point("best", 1.0, 1.0),
            _point("dup-a", 3.0, 3.0),
            _point("dup-b", 3.0, 3.0),
        ]
        frontier = pareto_frontier(points)
        assert [p.label for p in frontier] == ["best"]


class TestSweepEngine:
    def test_enumeration_is_cartesian_and_ordered(self):
        space = tron_sweep_space(
            head_units=(4, 8), array_sizes=(32, 64), clocks_ghz=(5.0,)
        )
        settings = space.enumerate()
        assert space.num_points == len(settings) == 4
        assert settings[0] == {
            "head_units": 4,
            "array_size": 32,
            "clock_ghz": 5.0,
        }

    def test_empty_knob_grid_rejected(self):
        space = tron_sweep_space(head_units=())
        with pytest.raises(ConfigurationError):
            space.enumerate()

    def test_memoized_matches_naive(self):
        space = ghost_sweep_space(lanes=(8, 16), edge_units=(32,))
        fast = run_sweep(space)
        naive = _cold_serial(space)
        assert [p.label for p in fast] == [p.label for p in naive]
        for a, b in zip(fast, naive):
            assert a.latency_ns == pytest.approx(b.latency_ns)
            assert a.energy_pj == pytest.approx(b.energy_pj)

    def test_custom_space_over_any_workload(self):
        """The engine is workload-agnostic: any evaluate fn works.  A
        space with no evaluator runs the serial loop under soa."""
        from repro.core.base import get_workload
        from repro.core.tron import TRON, TRONConfig

        space = SweepSpace(
            name="mlp-batch",
            knobs=SweepSpace.ordered_knobs({"ff_arrays": (4, 8)}),
            build_accelerator=lambda knobs: TRON(
                TRONConfig(num_ff_arrays=int(knobs["ff_arrays"]))
            ),
            build_workload=lambda: get_workload("MLP-mnist"),
            label=lambda knobs: f"FF{knobs['ff_arrays']}",
        )
        points, stats = run_sweep_with_stats(space)
        assert [p.label for p in points] == ["FF4", "FF8"]
        assert all(p.report.workload == "MLP-mnist" for p in points)
        assert "strategy" not in stats.to_dict()
        assert stats.fallback_points == stats.points == 2
        serial = _serial(space)
        for a, b in zip(points, serial):
            assert a.report.to_dict() == b.report.to_dict()


class TestSweepStrategies:
    """The soa path is an exact reorganization of scalar runs."""

    def _spaces(self):
        return [
            tron_sweep_space(
                head_units=(4, 8), array_sizes=(32, 64), clocks_ghz=(2.5, 5.0)
            ),
            ghost_sweep_space(lanes=(8, 16), edge_units=(16, 32)),
        ]

    def test_soa_is_bit_identical_to_serial_and_naive(self):
        for space in self._spaces():
            soa = run_sweep(space)
            serial = _serial(space)
            naive = _cold_serial(space)
            assert [p.label for p in soa] == [p.label for p in serial]
            for a, b, c in zip(soa, serial, naive):
                assert a.report.to_dict() == b.report.to_dict()
                assert a.report.latency_ns == c.report.latency_ns
                assert a.report.energy_pj == c.report.energy_pj

    def test_soa_is_the_default_strategy(self):
        space = tron_sweep_space(
            head_units=(4,), array_sizes=(32,), clocks_ghz=(5.0,)
        )
        default, stats = run_sweep_with_stats(space)
        assert "strategy" not in stats.to_dict()
        assert stats.fallback_points == 0
        serial = _serial(space)
        assert default[0].report.energy_pj == serial[0].report.energy_pj

    def test_soa_groups_duplicate_signatures(self):
        """None and a nominal context share one evaluation group."""
        space = with_corners(
            tron_sweep_space(
                head_units=(4,), array_sizes=(32,), clocks_ghz=(5.0,)
            ),
            {"none": None, "nominal": ExecutionContext()},
        )
        points, stats = run_sweep_with_stats(space)
        assert len(points) == 2 and stats.groups == 1
        assert points[0].report.to_dict() == points[1].report.to_dict()

    def test_soa_primes_physics_before_running(self):
        from repro.core.engine import clear_physics_cache, memo

        clear_physics_cache()
        space = tron_sweep_space(
            head_units=(4,), array_sizes=(32, 64), clocks_ghz=(2.5, 5.0)
        )
        before = memo.stats("engine.breakdown")["engine.breakdown"]["insertions"]
        run_sweep(space)
        stats = memo.stats("engine.breakdown")["engine.breakdown"]
        # All four geometries were inserted by the vectorized primer.
        assert stats["insertions"] - before >= 4

    def test_cornered_soa_matches_naive(self):
        space = with_corners(
            tron_sweep_space(
                head_units=(4,), array_sizes=(32,), clocks_ghz=(5.0,)
            ),
            {"typical": ExecutionContext(variation=ProcessVariationModel())},
        )
        soa = run_sweep(space)
        naive = _cold_serial(space)
        for a, b in zip(soa, naive):
            assert a.report.latency_ns == b.report.latency_ns
            assert a.report.energy_pj == b.report.energy_pj


class TestCornerAxis:
    def _space(self):
        return tron_sweep_space(
            head_units=(4,), array_sizes=(32,), clocks_ghz=(5.0,)
        )

    def test_corner_axis_multiplies_points(self):
        space = with_corners(self._space(), standard_corners())
        assert space.num_points == 4
        points = run_sweep(space)
        assert len(points) == 4
        labels = {p.label for p in points}
        assert "H4/A32/5.0GHz@nominal" in labels
        assert "H4/A32/5.0GHz@slow-hot" in labels
        assert all("corner" in p.knobs for p in points)

    def test_corner_points_depart_nominal(self):
        space = with_corners(
            self._space(),
            {
                "nominal": None,
                "typical": ExecutionContext(
                    variation=ProcessVariationModel()
                ),
            },
        )
        by_corner = {p.knobs["corner"]: p for p in run_sweep(space)}
        assert (
            by_corner["typical"].energy_pj > by_corner["nominal"].energy_pj
        )

    def test_cornered_naive_matches_memoized(self):
        space = with_corners(
            self._space(),
            {"typical": ExecutionContext(variation=ProcessVariationModel())},
        )
        fast = run_sweep(space)
        naive = _cold_serial(space)
        assert [p.label for p in fast] == [p.label for p in naive]
        for a, b in zip(fast, naive):
            assert a.energy_pj == pytest.approx(b.energy_pj)

    def test_rejects_empty_corner_map(self):
        with pytest.raises(ConfigurationError):
            with_corners(self._space(), {})


class TestSweeps:
    def test_tron_sweep_covers_grid(self):
        points = sweep_tron(
            head_units=(4, 8), array_sizes=(32,), clocks_ghz=(5.0,)
        )
        assert len(points) == 2
        assert all(p.report.platform == "TRON" for p in points)

    def test_tron_bigger_arrays_on_frontier(self):
        points = sweep_tron(
            head_units=(4,), array_sizes=(32, 64), clocks_ghz=(5.0,)
        )
        frontier = pareto_frontier(points)
        # The larger array is strictly faster; it must survive.
        assert any(p.knobs["array_size"] == 64 for p in frontier)

    def test_ghost_sweep_covers_grid(self):
        points = sweep_ghost(lanes=(8, 16), edge_units=(32,))
        assert len(points) == 2
        assert all(p.report.platform == "GHOST" for p in points)

    def test_format_marks_pareto(self):
        points = sweep_tron(
            head_units=(4,), array_sizes=(32, 64), clocks_ghz=(5.0,)
        )
        text = format_sweep(points, pareto_frontier(points))
        assert "*" in text
        assert "latency" in text


class TestCLI:
    def test_describe(self, capsys):
        assert main(["describe"]) == 0
        out = capsys.readouterr().out
        assert "TRON" in out and "GHOST" in out

    def test_run_transformer_on_tron_with_batch(self, capsys):
        assert main(
            ["run", "BERT-base", "--platform", "tron", "--batch", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "BERT-base" in out and "GOPS" in out

    def test_run_gnn_on_ghost(self, capsys):
        assert main(["run", "GCN-cora", "--platform", "ghost"]) == 0
        out = capsys.readouterr().out
        assert "GCN-cora" in out and "GHOST" in out

    def test_sweep_tron_smoke(self, capsys):
        # Full sweep is slow; just exercise the parser path.
        parser = build_parser()
        args = parser.parse_args(["sweep", "tron"])
        assert args.target == "tron"

    def test_sweep_accepts_all_target(self):
        args = build_parser().parse_args(["sweep", "all"])
        assert args.target == "all"

    def test_run_registered_workload(self, capsys):
        assert main(["run", "MLP-mnist"]) == 0
        out = capsys.readouterr().out
        assert "MLP-mnist" in out and "TRON" in out

    def test_run_auto_routes_gnn_to_ghost(self, capsys):
        assert main(["run", "GCN-cora"]) == 0
        out = capsys.readouterr().out
        assert "GHOST" in out

    def test_run_explicit_platform_override(self, capsys):
        assert main(["run", "MLP-mnist", "--platform", "ghost"]) == 0
        out = capsys.readouterr().out
        assert "GHOST" in out

    def test_run_suite(self, capsys):
        assert main(["run", "LLM-serving-mix"]) == 0
        out = capsys.readouterr().out
        assert "LLM-serving-mix" in out

    def test_run_unknown_workload_fails_cleanly(self):
        with pytest.raises(ConfigurationError):
            main(["run", "no-such-workload"])

    def test_run_rejects_batch_on_ghost(self):
        with pytest.raises(ConfigurationError, match="--batch"):
            main(["run", "GCN-cora", "--batch", "8"])

    def test_workloads_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "BERT-base" in out and "GCN-cora" in out

    def test_unknown_model_fails_cleanly(self):
        with pytest.raises(ConfigurationError, match="BERT-giant"):
            main(["run", "BERT-giant"])

    def test_parser_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_run_json_output(self, capsys):
        assert main(["run", "MLP-mnist", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.run/1"
        assert payload["platform"] == "TRON"
        assert payload["context"] == {"corner": "nominal", "seed": 0}
        assert payload["latency_ns"] > 0.0

    def test_run_at_corner_costs_more(self, capsys):
        assert main(["run", "MLP-mnist", "--corner", "typical", "--json"]) == 0
        typical = json.loads(capsys.readouterr().out)
        assert main(["run", "MLP-mnist", "--json"]) == 0
        nominal = json.loads(capsys.readouterr().out)
        assert typical["energy_pj"] > nominal["energy_pj"]

    def test_run_seed_selects_die(self, capsys):
        args = ["run", "MLP-mnist", "--corner", "typical", "--json"]
        assert main(args + ["--seed", "1"]) == 0
        die_1 = json.loads(capsys.readouterr().out)
        assert main(args + ["--seed", "2"]) == 0
        die_2 = json.loads(capsys.readouterr().out)
        assert die_1["energy_pj"] != die_2["energy_pj"]

    def test_mc_command(self, capsys):
        assert main(["mc", "MLP-mnist", "--samples", "4"]) == 0
        out = capsys.readouterr().out
        assert "sampled dies" in out and "yield" in out

    def test_mc_json_output(self, capsys):
        assert main(
            ["mc", "MLP-mnist", "--samples", "4", "--seed", "9", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.mc/1"
        assert payload["context"] == {"corner": "typical", "seed": 9}
        assert payload["samples"] == 4
        assert 0.0 <= payload["yield"] <= 1.0
        assert payload["energy_pj"]["mean"] > 0.0

    def test_corners_command(self, capsys):
        assert main(["corners"]) == 0
        out = capsys.readouterr().out
        assert "slow-hot" in out and "TRON" in out and "GHOST" in out

    def test_corners_json(self, capsys):
        assert main(["corners", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.corners/1"
        rows = payload["rows"]
        assert len(rows) == 8  # 4 corners x 2 platforms
        nominal = [r for r in rows if r["corner"] == "nominal"]
        assert all(r["correction_power_mw"] == 0.0 for r in nominal)

    def test_run_gnn_seed_flag(self, capsys):
        assert main(["run", "GCN-cora", "--seed", "3"]) == 0
        assert "GCN-cora" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["sweep", "all", "--strategy", "serial"], "--strategy serial"),
            (["mc", "MLP-mnist", "--naive"], "--naive"),
        ],
    )
    def test_evaluation_path_flags_are_usage_errors(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro")
        assert f"repro: error: unrecognized arguments: {flag}" in err

    def test_corner_run_writes_no_files(self, capsys, tmp_path, monkeypatch):
        # Physics is memoized in process only: nothing lands under the
        # home directory (or a cache directory) and reruns print the
        # same bytes.
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["run", "GCN-cora", "--corner", "slow-hot", "--seed", "1",
                "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert list(tmp_path.iterdir()) == []

    def test_sweep_json_embeds_physics_cache_stats(self, capsys):
        from repro.core.engine import physics_cache_stats

        assert main(["sweep", "tron", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        block = payload["physics_cache"]
        assert list(block) == list(physics_cache_stats())
        assert "disk" not in block
        assert block["breakdown"]["insertions"] > 0

    def test_cache_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["cache"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'cache'" in capsys.readouterr().err

    def test_mc_has_no_strategy_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["mc", "MLP-mnist", "--strategy", "grouped"]
            )

    def test_sweep_parser_accepts_new_flags(self):
        args = build_parser().parse_args(
            ["sweep", "tron", "--corners", "--json", "--seed", "5"]
        )
        assert args.corners and args.json and args.seed == 5


class TestServeCLI:
    def _write_trace(self, tmp_path, requests=24, catalog=6):
        path = tmp_path / "trace.json"
        assert main(
            [
                "gen-trace",
                str(path),
                "--requests",
                str(requests),
                "--catalog",
                str(catalog),
            ]
        ) == 0
        return path

    def test_gen_trace_writes_valid_trace(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        out = capsys.readouterr().out
        assert "24 requests" in out
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.trace/1"
        assert len(payload["requests"]) == 24

    def test_serve_replays_trace(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        assert main(["serve", "--trace", str(path), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "served 24 requests" in out
        assert "cache hit rate" in out

    def test_serve_json_envelope_and_warm_replay(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        capsys.readouterr()  # drop the gen-trace confirmation line
        assert main(
            ["serve", "--trace", str(path), "--repeat", "2", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.serve/1"
        assert payload["context"]["repeat"] == 2
        assert payload["stats"]["requests"] == 48
        # The second replay is served entirely from the cache.
        assert payload["stats"]["hit_rate"] >= 0.5
        assert payload["stats"]["errors"] == 0

    def test_serve_rejects_missing_trace(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["serve", "--trace", str(tmp_path / "nope.json")])

    def test_serve_rejects_bad_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/9", "requests": []}))
        with pytest.raises(ConfigurationError, match="schema"):
            main(["serve", "--trace", str(path)])
