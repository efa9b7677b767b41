"""Tests for the declarative experiment API: registry, specs, Session.

The acceptance bar of the api layer: a sweep/mc/run/serve driven from a
serialized ``ExperimentSpec`` via ``Session`` must be **bit-identical**
to the equivalent CLI invocation — same reports, same frontiers, same
envelopes, same cache fingerprints.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import __version__
from repro.api import (
    AnalysisSpec,
    ContextSpec,
    ExperimentSpec,
    PlatformSpec,
    Session,
    get_platform,
    get_platform_info,
    list_platforms,
    load_spec,
    register_platform,
    resolve_platform,
    schema_for,
)
from repro.cli import main
from repro.core.base import WorkloadKind, get_workload
from repro.core.context import ExecutionContext
from repro.core.ghost import GHOSTConfig
from repro.core.tron import TRONConfig
from repro.errors import ConfigurationError
from repro.photonics.variation import ProcessVariationModel


# ----------------------------------------------------------------------
# Platform registry
# ----------------------------------------------------------------------


class TestPlatformRegistry:
    def test_stock_platforms_registered(self):
        names = list_platforms()
        assert "tron" in names and "ghost" in names
        assert "V100 GPU" in names  # baselines unified behind the API

    def test_get_platform_builds_defaults(self):
        assert get_platform("tron").name == "TRON"
        assert get_platform("ghost").name == "GHOST"

    def test_overrides_equal_hand_built_config(self):
        accelerator = get_platform("tron", overrides={"batch": 8})
        assert accelerator.config == TRONConfig(batch=8)

    def test_nested_overrides(self):
        accelerator = get_platform(
            "ghost", overrides={"memory": {"hbm": {"channels": 8}}}
        )
        assert accelerator.config.memory.hbm.channels == 8

    def test_unknown_platform_lists_known(self):
        with pytest.raises(ConfigurationError, match="known platforms"):
            get_platform("warp-drive")

    def test_unknown_override_key_names_path(self):
        with pytest.raises(ConfigurationError, match="batsh"):
            get_platform("tron", overrides={"batsh": 8})

    def test_out_of_range_override_fails(self):
        with pytest.raises(ConfigurationError, match="clock"):
            get_platform("tron", overrides={"clock_ghz": -1.0})

    def test_baseline_platform_rejects_overrides(self):
        with pytest.raises(ConfigurationError, match="no configuration"):
            get_platform("V100 GPU", overrides={"batch": 2})

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_platform("tron", lambda config=None: None)

    def test_auto_routing(self):
        assert resolve_platform("auto", WorkloadKind.GNN) == "ghost"
        assert resolve_platform("auto", WorkloadKind.TRANSFORMER) == "tron"

    def test_info_configurable_flag(self):
        assert get_platform_info("tron").configurable
        assert not get_platform_info("V100 GPU").configurable


# ----------------------------------------------------------------------
# Config serialization
# ----------------------------------------------------------------------


class TestConfigSerialization:
    @pytest.mark.parametrize(
        "config",
        [
            TRONConfig(),
            TRONConfig(batch=8, clock_ghz=2.5),
            GHOSTConfig(),
            GHOSTConfig(lanes=32, use_balancing=False),
        ],
    )
    def test_round_trip_identity(self, config):
        assert type(config).from_dict(config.to_dict()) == config

    def test_round_trip_survives_json(self):
        config = TRONConfig(clock_ghz=2.5)
        text = json.dumps(config.to_dict())
        assert TRONConfig.from_dict(json.loads(text)) == config

    def test_unknown_field_error_lists_valid_fields(self):
        with pytest.raises(ConfigurationError) as exc:
            TRONConfig.from_dict({"num_heads": 4})
        assert "num_heads" in str(exc.value)
        assert "num_head_units" in str(exc.value)  # the valid spelling

    def test_nested_unknown_field_names_path(self):
        with pytest.raises(ConfigurationError, match="memory.hbm"):
            GHOSTConfig.from_dict({"memory": {"hbm": {"chanels": 4}}})

    def test_each_unknown_field_named_by_dotted_path(self):
        with pytest.raises(ConfigurationError) as exc:
            GHOSTConfig.from_dict({"memory": {"hbm": {"zz": 1, "chanels": 4}}})
        assert str(exc.value).startswith(
            "GHOSTConfig.memory.hbm.chanels, GHOSTConfig.memory.hbm.zz: "
            "unknown fields; valid fields: ["
        )

    def test_type_mismatch_is_helpful(self):
        with pytest.raises(ConfigurationError, match="integer"):
            TRONConfig.from_dict({"batch": "eight"})

    def test_context_round_trip(self):
        ctx = ExecutionContext(
            variation=ProcessVariationModel(width_sigma_nm=3.0), seed=5
        )
        assert ExecutionContext.from_dict(ctx.to_dict()) == ctx

    def test_context_unknown_field(self):
        with pytest.raises(ConfigurationError, match="seeed"):
            ExecutionContext.from_dict({"seeed": 3})


class TestNonFiniteConfigRejected:
    """NaN and +-inf config values fail at the boundary, naming the path."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_session_override(self, value):
        with pytest.raises(
            ConfigurationError,
            match=r"tron\.overrides\.clock_ghz: expected a finite number",
        ):
            Session().run("MLP-mnist", overrides={"clock_ghz": value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_session_spec_context(self, value):
        doc = {
            "schema": "repro.spec/1",
            "workload": "MLP-mnist",
            "context": {"corner": "typical", "tuner_range_nm": value},
        }
        with pytest.raises(
            ConfigurationError,
            match=r"context\.tuner_range_nm: expected a finite number",
        ):
            Session().execute(ExperimentSpec.from_dict(doc))

    @staticmethod
    def _repro(*args):
        src = Path(repro.__file__).resolve().parents[1]
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=120,
        )

    @pytest.mark.parametrize(
        "overrides, message",
        [
            pytest.param(
                '{"clock_ghz": %s}' % literal,
                "tron.overrides.clock_ghz: expected a finite number",
                id=literal,
            )
            for literal in ("NaN", "Infinity", "-Infinity")
        ]
        + [
            pytest.param(
                '{"memory": {"hbm": {"bandwidth_gbps": 0}}}',
                "tron.overrides.memory.hbm: bandwidth_gbps must be > 0, "
                "got 0.0",
                id="nested-out-of-range",
            )
        ],
    )
    def test_cli_run_spec_exits_nonzero(self, tmp_path, overrides, message):
        path = tmp_path / "run.json"
        path.write_text(
            '{"schema": "repro.spec/1", "workload": "MLP-mnist", '
            '"platform": {"name": "tron", "overrides": %s}}' % overrides
        )
        proc = self._repro("run", "--spec", str(path), "--json")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"repro: error: {message}")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_session_run_tuner_range(self, value):
        with pytest.raises(ConfigurationError, match="tuner_range_nm"):
            Session().run(
                "MLP-mnist", corner="typical", tuner_range_nm=value
            )

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_session_monte_carlo_tuner_range(self, value):
        with pytest.raises(ConfigurationError, match="tuner_range_nm"):
            Session().monte_carlo(
                "MLP-mnist", samples=4, tuner_range_nm=value
            )

    def test_cli_mc_nan_tuner_range_exits_nonzero(self):
        proc = self._repro(
            "mc", "MLP-mnist", "--samples", "4", "--tuner-range", "nan",
            "--json",
        )
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert "tuner_range_nm" in proc.stderr


class TestNoEvaluationPathSelector:
    """Each analysis has one evaluation path; the old selectors are
    rejected at every boundary instead of silently ignored."""

    #: (removed analysis field, subcommand whose spec once carried it).
    REMOVED_FIELDS = [
        pytest.param("vectorized", "mc", id="vectorized"),
        pytest.param("batched_physics", "serve", id="batched_physics"),
    ]

    @staticmethod
    def _spec_path(tmp_path, field, kind):
        path = tmp_path / f"{kind}.json"
        path.write_text(
            '{"schema": "repro.spec/1", "workload": "MLP-mnist", '
            '"analysis": {"kind": "%s", "%s": true}}' % (kind, field)
        )
        return path

    @pytest.mark.parametrize("field, kind", REMOVED_FIELDS)
    def test_load_spec_rejects_removed_field(self, tmp_path, field, kind):
        path = self._spec_path(tmp_path, field, kind)
        with pytest.raises(
            ConfigurationError,
            match=rf"analysis\.{field}: unknown field; valid fields",
        ):
            load_spec(path)

    @pytest.mark.parametrize("field, kind", REMOVED_FIELDS)
    def test_cli_spec_with_removed_field_is_one_error_line(
        self, tmp_path, field, kind
    ):
        path = self._spec_path(tmp_path, field, kind)
        proc = TestNonFiniteConfigRejected._repro(
            kind, "--spec", str(path), "--json"
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith(
            f"repro: error: analysis.{field}: unknown field; "
        )
        assert proc.stderr.count("\n") == 1

    def test_cli_serve_has_no_batching_flag(self, tmp_path):
        proc = TestNonFiniteConfigRejected._repro(
            "serve", "--trace", str(tmp_path / "t.json"), "--no-batching"
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "unrecognized arguments: --no-batching" in proc.stderr

    @pytest.mark.parametrize(
        "flag, value", [("--max-queue", "1"), ("--tenant-rate", "1")]
    )
    def test_cli_serve_spec_rejects_fleet_flag(self, tmp_path, flag, value):
        path = tmp_path / "serve.json"
        path.write_text(
            '{"schema": "repro.spec/1", '
            '"analysis": {"kind": "serve", "trace": "t.json"}}'
        )
        proc = TestNonFiniteConfigRejected._repro(
            "serve", "--spec", str(path), flag, value
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("repro: error: --spec replaces ")
        assert flag.lstrip("-") in proc.stderr
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "name, removed",
        [
            ("repro.analysis.sweep.run_sweep", "strategy"),
            ("repro.analysis.sweep.run_sweep_with_stats", "strategy"),
            ("repro.analysis.robustness.run_monte_carlo", "vectorized"),
            ("repro.streaming.decode.decode_series", "stacked"),
            ("repro.api.session.Session.sweep", "strategy"),
            ("repro.api.session.Session.monte_carlo", "vectorized"),
            (
                "repro.serving.scheduler.BatchingScheduler.__init__",
                "use_batched_physics",
            ),
            (
                "repro.serving.engine.ServingEngine.__init__",
                "use_batched_physics",
            ),
            (
                "repro.serving.fleet.ServingFleet.__init__",
                "use_batched_physics",
            ),
            ("repro.api.session.Session.serve", "batched_physics"),
            ("repro.api.session.Session.serve", "granularity"),
            ("repro.serving.scheduler.BatchingScheduler.__init__", "catalog"),
            ("repro.serving.engine.ServingEngine.__init__", "catalog"),
            ("repro.serving.shard.ShardRouter.__init__", "catalog"),
        ],
    )
    def test_entry_point_takes_no_selector(self, name, removed):
        import importlib
        import inspect

        module_name, _, attr = name.rpartition(".")
        try:
            target = getattr(importlib.import_module(module_name), attr)
        except ModuleNotFoundError:  # a method: module.Class.method
            module_name, _, cls = module_name.rpartition(".")
            owner = getattr(importlib.import_module(module_name), cls)
            target = getattr(owner, attr)
        assert removed not in inspect.signature(target).parameters


# ----------------------------------------------------------------------
# ExperimentSpec round-trips
# ----------------------------------------------------------------------


def _rich_spec():
    return ExperimentSpec(
        platform=PlatformSpec(name="tron", overrides={"batch": 8}),
        workload="BERT-base",
        context=ContextSpec(corner="typical", seed=3),
        analysis=AnalysisSpec(kind="run"),
    )


class TestFiniteEnvelopes:
    """A non-finite value fails loudly instead of printing ``NaN``."""

    @staticmethod
    def _poison(monkeypatch, result_class):
        envelope = result_class.envelope

        def poisoned(self):
            document = envelope(self)
            document["result"] = math.nan
            return document

        monkeypatch.setattr(result_class, "envelope", poisoned)

    def test_run_json(self, monkeypatch, capsys):
        from repro.api.results import RunResult

        self._poison(monkeypatch, RunResult)
        with pytest.raises(ValueError, match="not JSON compliant"):
            main(["run", "MLP-mnist", "--json"])
        assert "NaN" not in capsys.readouterr().out

    def test_serve_json(self, monkeypatch, capsys, tmp_path):
        from repro.api.results import ServeResult

        trace = tmp_path / "trace.json"
        assert main(["gen-trace", str(trace), "--requests", "4"]) == 0
        capsys.readouterr()
        self._poison(monkeypatch, ServeResult)
        with pytest.raises(ValueError, match="not JSON compliant"):
            main(["serve", "--trace", str(trace), "--json"])
        assert "NaN" not in capsys.readouterr().out

    def test_trace_file(self, tmp_path):
        from repro.serving import save_trace

        path = tmp_path / "trace.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_trace([{"workload": "MLP-mnist", "rate": math.inf}], path)
        assert not path.exists()

    def test_spec_json(self, monkeypatch):
        spec = _rich_spec()
        monkeypatch.setattr(
            ExperimentSpec, "to_dict", lambda self: {"seed": math.nan}
        )
        with pytest.raises(ValueError, match="not JSON compliant"):
            spec.to_json()


class TestExperimentSpec:
    def test_dict_spec_dict_identity(self):
        spec = _rich_spec()
        data = spec.to_dict()
        assert ExperimentSpec.from_dict(data).to_dict() == data

    def test_json_round_trip(self):
        spec = _rich_spec()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_toml_round_trip(self):
        pytest.importorskip("tomllib")
        spec = _rich_spec()
        assert ExperimentSpec.from_toml(spec.to_toml()) == spec

    def test_minimal_spec_defaults(self):
        spec = ExperimentSpec.from_dict(
            {"schema": "repro.spec/1", "workload": "MLP-mnist"}
        )
        assert spec.platform.name == "auto"
        assert spec.analysis.kind == "run"
        assert spec.context.corner == "nominal"

    def test_schema_tag_required(self):
        with pytest.raises(ConfigurationError, match="schema"):
            ExperimentSpec.from_dict({"workload": "MLP-mnist"})

    def test_unknown_block_rejected(self):
        with pytest.raises(ConfigurationError, match="extras"):
            ExperimentSpec.from_dict(
                {"schema": "repro.spec/1", "extras": {}}
            )

    def test_unknown_analysis_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="teleport"):
            AnalysisSpec(kind="teleport")

    def test_file_round_trip_both_formats(self, tmp_path):
        spec = _rich_spec()
        json_path = tmp_path / "spec.json"
        spec.save(json_path)
        assert load_spec(json_path) == spec
        pytest.importorskip("tomllib")
        toml_path = tmp_path / "spec.toml"
        spec.save(toml_path)
        assert load_spec(toml_path) == spec

    def test_fingerprint_stable_and_distinct(self):
        spec = _rich_spec()
        assert spec.fingerprint() == _rich_spec().fingerprint()
        other = ExperimentSpec(workload="MLP-mnist")
        assert spec.fingerprint() != other.fingerprint()

    def test_fingerprint_embeds_version(self, monkeypatch):
        before = _rich_spec().fingerprint()
        import repro.api.spec as spec_module

        monkeypatch.setattr(spec_module, "__version__", "0.0.0-test")
        assert _rich_spec().fingerprint() != before

    def test_spec_matches_registered_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(_rich_spec().to_dict(), schema_for("repro.spec/1"))

    def test_minimal_hand_written_spec_matches_schema(self):
        """Everything from_dict accepts, the schema accepts too."""
        jsonschema = pytest.importorskip("jsonschema")
        minimal = {"schema": "repro.spec/1", "platform": {},
                   "workload": "BERT-base"}
        assert ExperimentSpec.from_dict(minimal).platform.name == "auto"
        jsonschema.validate(minimal, schema_for("repro.spec/1"))

    def test_specs_are_hashable(self):
        assert hash(_rich_spec()) == hash(_rich_spec())
        assert len({_rich_spec(), _rich_spec()}) == 1

    def test_nominal_corner_rejects_tuner_range(self):
        spec = ContextSpec(corner="nominal", tuner_range_nm=0.5)
        with pytest.raises(ConfigurationError, match="tuner_range_nm"):
            spec.resolve()

    def test_execute_rejects_fields_the_kind_cannot_honor(self):
        sweep_with_overrides = ExperimentSpec(
            platform=PlatformSpec("tron", {"clock_ghz": 2.5}),
            analysis=AnalysisSpec(kind="sweep"),
        )
        with pytest.raises(ConfigurationError, match="overrides"):
            Session().execute(sweep_with_overrides)
        corners_with_workload = ExperimentSpec(
            workload="BERT-base",
            analysis=AnalysisSpec(kind="corners"),
        )
        with pytest.raises(ConfigurationError, match="workload"):
            Session().execute(corners_with_workload)


# ----------------------------------------------------------------------
# Session vs. CLI bit-identity
# ----------------------------------------------------------------------


def _cli_json(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


class TestSessionCliEquivalence:
    def test_run_spec_bit_identical_to_cli(self, capsys, tmp_path):
        spec = ExperimentSpec(
            workload="MLP-mnist",
            context=ContextSpec(corner="typical", seed=3),
        )
        path = tmp_path / "run.json"
        spec.save(path)
        cli = _cli_json(
            capsys,
            ["run", "MLP-mnist", "--corner", "typical", "--seed", "3",
             "--json"],
        )
        via_spec_file = _cli_json(capsys, ["run", "--spec", str(path), "--json"])
        via_session = Session().execute(spec).envelope()
        assert via_session == cli
        assert via_spec_file == cli

    def test_mc_spec_bit_identical_to_cli(self, capsys, tmp_path):
        spec = ExperimentSpec(
            workload="MLP-mnist",
            context=ContextSpec(corner="typical", seed=9),
            analysis=AnalysisSpec(kind="mc", samples=4),
        )
        path = tmp_path / "mc.json"
        spec.save(path)
        cli = _cli_json(
            capsys,
            ["mc", "MLP-mnist", "--samples", "4", "--seed", "9", "--json"],
        )
        via_spec_file = _cli_json(capsys, ["mc", "--spec", str(path), "--json"])
        via_session = Session().execute(spec).envelope()
        assert via_session == cli
        assert via_spec_file == cli

    def test_run_envelope_carries_version(self, capsys):
        payload = _cli_json(capsys, ["run", "MLP-mnist", "--json"])
        assert payload["repro_version"] == __version__

    def test_batch_folds_into_tron_config(self):
        result = Session().run("MLP-mnist", batch=8)
        direct = get_platform("tron", overrides={"batch": 8}).run(
            get_workload("MLP-mnist")
        )
        assert result.report.energy_pj == direct.energy_pj

    def test_ghost_rejects_batch(self):
        with pytest.raises(ConfigurationError, match="--batch"):
            Session().run("GCN-cora", batch=8)

    def test_spec_kind_must_match_subcommand(self, tmp_path):
        path = tmp_path / "mc.json"
        ExperimentSpec(
            workload="MLP-mnist", analysis=AnalysisSpec(kind="mc", samples=4)
        ).save(path)
        with pytest.raises(ConfigurationError, match="analysis kind"):
            main(["run", "--spec", str(path)])

    def test_run_without_workload_or_spec_fails(self):
        with pytest.raises(ConfigurationError, match="--spec"):
            main(["run"])

    def test_spec_conflicts_with_explicit_flags(self, tmp_path):
        path = tmp_path / "run.json"
        ExperimentSpec(workload="MLP-mnist").save(path)
        with pytest.raises(ConfigurationError, match="corner"):
            main(["run", "--spec", str(path), "--corner", "typical"])
        with pytest.raises(ConfigurationError, match="workload"):
            main(["run", "GCN-cora", "--spec", str(path)])

    def test_sweep_spec_matches_direct_sweep(self):
        spec = ExperimentSpec(
            platform=PlatformSpec(name="tron"),
            analysis=AnalysisSpec(kind="sweep"),
        )
        via_spec = Session().execute(spec)
        direct = Session().sweep(target="tron")
        assert [p.label for p in via_spec.points["tron"]] == [
            p.label for p in direct.points["tron"]
        ]
        spec_frontier = [
            (p.label, p.latency_ns, p.energy_pj)
            for p in via_spec.frontiers["tron"]
        ]
        direct_frontier = [
            (p.label, p.latency_ns, p.energy_pj)
            for p in direct.frontiers["tron"]
        ]
        assert spec_frontier == direct_frontier

    def test_serve_spec_bit_identical_to_cli(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(
            ["gen-trace", str(trace), "--requests", "12", "--catalog", "4"]
        ) == 0
        capsys.readouterr()
        cli = _cli_json(capsys, ["serve", "--trace", str(trace), "--json"])
        spec = ExperimentSpec(
            analysis=AnalysisSpec(kind="serve", trace=str(trace))
        )
        path = tmp_path / "serve.json"
        spec.save(path)
        via_spec_file = _cli_json(
            capsys, ["serve", "--spec", str(path), "--json"]
        )
        # Timing-derived stats differ run to run; the numeric outcome
        # of every request must not.
        for payload in (cli, via_spec_file):
            del payload["stats"]["busy_s"]
            del payload["stats"]["throughput_rps"]
            del payload["stats"]["mean_latency_s"]
            del payload["stats"]["p50_latency_s"]
            del payload["stats"]["p95_latency_s"]
            del payload["stats"]["p99_latency_s"]
            del payload["physics_cache"]
        assert via_spec_file["stats"] == cli["stats"]
        assert via_spec_file["scheduler"] == cli["scheduler"]
        assert via_spec_file["context"] == cli["context"]

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


# ----------------------------------------------------------------------
# Memory-backend selection through the spec layer
# ----------------------------------------------------------------------


def _hbm_spec():
    return ExperimentSpec(
        platform=PlatformSpec(
            name="tron",
            overrides={"memory_backend": "hbm", "hbm": {"row_bytes": 2048}},
        ),
        workload="BERT-base",
    )


class TestMemoryBackendSpecs:
    def test_backend_override_round_trips_json(self):
        spec = _hbm_spec()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_backend_override_round_trips_toml(self):
        pytest.importorskip("tomllib")
        spec = _hbm_spec()
        assert ExperimentSpec.from_toml(spec.to_toml()) == spec

    def test_backend_override_changes_fingerprint(self):
        base = ExperimentSpec(
            platform=PlatformSpec(name="tron"), workload="BERT-base"
        )
        assert _hbm_spec().fingerprint() != base.fingerprint()

    def test_backend_config_round_trips(self):
        from repro.core.engine import HBMGeometry

        config = TRONConfig(
            memory_backend="hbm", hbm=HBMGeometry(row_bytes=2048)
        )
        assert TRONConfig.from_dict(config.to_dict()) == config

    def test_unknown_backend_error_names_override_path(self):
        with pytest.raises(ConfigurationError, match="tron.overrides"):
            get_platform("tron", overrides={"memory_backend": "sram"})

    def test_bad_geometry_error_names_override_path(self):
        with pytest.raises(ConfigurationError, match="hbm.row_bytes"):
            get_platform(
                "ghost", overrides={"hbm": {"row_bytes": 100}}
            )

    def test_backend_override_builds_hbm_model(self):
        from repro.core.engine import HBMMemoryModel

        accelerator = get_platform(
            "tron", overrides={"memory_backend": "hbm"}
        )
        assert isinstance(accelerator.memory_model, HBMMemoryModel)

    def test_spec_execute_surfaces_memory_block(self):
        spec = ExperimentSpec(
            platform=PlatformSpec(
                name="tron", overrides={"memory_backend": "hbm"}
            ),
            workload="MLP-mnist",
        )
        envelope = Session().execute(spec).envelope()
        assert envelope["memory"] == {"backend": "hbm"}

    def test_run_memory_envelope_validates(self, capsys):
        pytest.importorskip("jsonschema")
        from repro.api.schemas import validate_payload

        payload = _cli_json(
            capsys,
            ["run", "MLP-mnist", "--memory-backend", "hbm", "--json"],
        )
        assert payload["memory"]["backend"] == "hbm"
        assert validate_payload(payload) == "repro.run/1"

    def test_trace_dump_writes_and_reports(self, capsys, tmp_path):
        pytest.importorskip("jsonschema")
        from repro.api.schemas import validate_payload

        path = tmp_path / "mlp.dramtrace"
        payload = _cli_json(
            capsys,
            ["run", "MLP-mnist", "--memory-backend", "hbm",
             "--trace-dump", str(path), "--json"],
        )
        assert validate_payload(payload) == "repro.run/1"
        trace = payload["memory"]["trace"]
        assert trace["commands"] >= 1
        text = path.read_text()
        assert text.startswith("# repro hbm trace v1")
        assert len(text.splitlines()) == trace["commands"] + 1

    def test_trace_dump_rejects_analytic_backend(self, tmp_path):
        with pytest.raises(ConfigurationError, match="analytic"):
            Session().run(
                "MLP-mnist", trace_dump=str(tmp_path / "x.dramtrace")
            )

    def test_default_run_envelope_has_no_memory_key(self, capsys):
        payload = _cli_json(capsys, ["run", "MLP-mnist", "--json"])
        assert "memory" not in payload


# ----------------------------------------------------------------------
# Serving accepts specs directly
# ----------------------------------------------------------------------


class TestServingSpecs:
    def test_request_from_spec(self):
        from repro.serving.request import ServeRequest

        spec = ExperimentSpec(
            platform=PlatformSpec("tron", {"batch": 8}),
            workload="BERT-base",
            context=ContextSpec(corner="typical", seed=2),
        )
        request = ServeRequest.from_spec(spec)
        assert request.workload == "BERT-base"
        assert request.batch == 8
        assert request.ctx.seed == 2

    def test_request_from_spec_rejects_non_run(self):
        from repro.serving.request import ServeRequest

        spec = ExperimentSpec(
            workload="BERT-base",
            analysis=AnalysisSpec(kind="mc", samples=4),
        )
        with pytest.raises(ConfigurationError, match="run-kind"):
            ServeRequest.from_spec(spec)

    def test_request_from_spec_rejects_other_overrides(self):
        from repro.serving.request import ServeRequest

        spec = ExperimentSpec(
            platform=PlatformSpec("tron", {"clock_ghz": 2.5}),
            workload="BERT-base",
        )
        with pytest.raises(ConfigurationError, match="batch"):
            ServeRequest.from_spec(spec)

    def test_engine_serves_specs(self):
        from repro.serving import ServingEngine

        spec = ExperimentSpec(workload="MLP-mnist")
        engine = ServingEngine()
        responses = engine.serve_specs([spec, spec])
        assert responses[0].report.platform == "TRON"
        assert responses[1].deduped
        assert engine.serve_specs([spec])[0].cached

    def test_trace_record_may_embed_spec(self):
        from repro.serving.trace import record_to_request

        record = {
            "schema": "repro.spec/1",
            "workload": "GCN-cora",
            "context": {"corner": "typical", "seed": 1},
        }
        request = record_to_request(record)
        assert request.workload == "GCN-cora"
        assert request.ctx.seed == 1

    def test_spec_request_equals_flat_record(self):
        """A spec-embedded record and the flat trace form of the same
        request coalesce onto one cache entry."""
        from repro.serving.trace import record_to_request

        flat = record_to_request(
            {"workload": "MLP-mnist", "corner": "typical", "seed": 1}
        )
        embedded = record_to_request(
            {
                "schema": "repro.spec/1",
                "workload": "MLP-mnist",
                "context": {"corner": "typical", "seed": 1},
            }
        )
        assert flat == embedded

    def test_fleet_spec_with_window_rejected_when_built(self):
        """A fleet batches per shard, so a fleet serve spec that sets
        the in-process window fails at construction, not mid-serve."""
        from repro.api.spec import SERVE_WINDOW

        assert AnalysisSpec(kind="serve").window == SERVE_WINDOW
        assert AnalysisSpec(kind="serve", workers=1).window == SERVE_WINDOW
        assert AnalysisSpec(kind="serve", window=8).window == 8
        with pytest.raises(ConfigurationError, match=r"analysis\.window"):
            AnalysisSpec(kind="serve", workers=1, window=8)

    def test_cli_fleet_spec_with_window_is_one_error_line(self, tmp_path):
        spec = tmp_path / "serve.json"
        spec.write_text(json.dumps({
            "schema": "repro.spec/1",
            "analysis": {
                "kind": "serve", "trace": str(tmp_path / "unread.json"),
                "workers": 1, "window": 8,
            },
        }))
        proc = TestNonFiniteConfigRejected._repro("serve", "--spec", str(spec))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("repro: error: analysis: window ")
        assert "analysis.window" in proc.stderr
        assert proc.stderr.count("\n") == 1


class TestInProcessServe:
    """``Session.serve`` without workers is synchronous: one engine
    ``serve`` call per window, no thread; options only the other tier
    honours are rejected instead of ignored."""

    @staticmethod
    def _trace(tmp_path, requests=20):
        path = tmp_path / "trace.json"
        Session().generate_trace(
            output=str(path), requests=requests, catalog=6, seed=5
        )
        return str(path)

    def test_starts_no_thread(self, tmp_path, monkeypatch):
        import threading

        trace = self._trace(tmp_path)
        started = []
        start = threading.Thread.start

        def counting(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)
        result = Session().serve(trace=trace, repeat=2)
        assert result.served == 40
        assert started == []

    @pytest.mark.parametrize("window", [1, 7, 64])
    def test_one_flush_per_window(self, tmp_path, window):
        trace = self._trace(tmp_path)
        result = Session().serve(trace=trace, repeat=2, window=window)
        assert result.stats["flushes"] == 2 * math.ceil(20 / window)
        assert result.served == 40

    @pytest.mark.parametrize(
        "flags, option",
        [
            pytest.param(["--max-queue", "1"], "max_queue", id="max-queue"),
            pytest.param(
                ["--tenant-rate", "0.000001"], "tenant_rate",
                id="tenant-rate",
            ),
            pytest.param(
                ["--workers", "1", "--window", "8"], "window",
                id="fleet-window",
            ),
            pytest.param(["--window", "0"], "window", id="zero-window"),
        ],
    )
    def test_cli_rejects_option_the_tier_ignores(
        self, tmp_path, flags, option
    ):
        trace = self._trace(tmp_path)
        proc = TestNonFiniteConfigRejected._repro(
            "serve", "--trace", trace, "--json", *flags
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"repro: error: {option} ")
        assert proc.stderr.count("\n") == 1


# ----------------------------------------------------------------------
# Workload identity (spec/cache fingerprint stability)
# ----------------------------------------------------------------------


class TestWorkloadIdentity:
    def test_gnn_workload_equality_stable_across_materialization(self):
        from repro.workloads import make_gnn_workload
        from repro.nn.gnn import GNNKind

        a = make_gnn_workload(GNNKind.GCN, "cora")
        b = make_gnn_workload(GNNKind.GCN, "cora")
        assert a == b
        a.materialize()  # synthesizes and caches the graph on `a` only
        assert a == b

    def test_gnn_workload_repr_stable_across_materialization(self):
        from repro.workloads import make_gnn_workload
        from repro.nn.gnn import GNNKind

        workload = make_gnn_workload(GNNKind.GCN, "cora")
        before = repr(workload)
        workload.materialize()
        assert repr(workload) == before


class TestNoPersistentCache:
    def test_disk_cache_keyword_is_accepted_and_ignored(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        kwargs = dict(corner="slow-hot", seed=1)
        with_flag = Session(disk_cache=True).run("GCN-cora", **kwargs)
        without = Session().run("GCN-cora", **kwargs)
        assert with_flag.envelope() == without.envelope()
        assert list(tmp_path.iterdir()) == []

    def test_cache_surface_is_gone(self):
        import repro.api

        assert not hasattr(Session, "cache_info")
        assert not hasattr(Session, "clear_cache")
        assert not hasattr(repro.api, "CacheResult")
        with pytest.raises(ConfigurationError, match="no schema"):
            schema_for("repro.cache/1")

    def test_detailed_serve_summary_reports_memos_only(self):
        from repro.serving.request import ServeRequest

        result = Session().serve(
            requests=[ServeRequest(workload="MLP-mnist")] * 2
        )
        text = result.format(detailed=True)
        assert "physics memo" in text
        assert "disk" not in text


# ----------------------------------------------------------------------
# Envelope schemas
# ----------------------------------------------------------------------


class TestEnvelopeSchemas:
    def test_run_envelope_validates(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        from repro.api.schemas import validate_payload

        payload = _cli_json(capsys, ["run", "MLP-mnist", "--json"])
        assert validate_payload(payload) == "repro.run/1"

    def test_corners_envelope_validates(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        from repro.api.schemas import validate_payload

        payload = _cli_json(capsys, ["corners", "--json"])
        assert validate_payload(payload) == "repro.corners/1"

    def test_untagged_payload_rejected(self):
        pytest.importorskip("jsonschema")
        from repro.api.schemas import validate_payload

        with pytest.raises(ConfigurationError, match="schema tag"):
            validate_payload({"latency_ns": 1.0})

    def test_unknown_tag_rejected(self):
        with pytest.raises(ConfigurationError, match="no schema"):
            schema_for("repro.unknown/9")
