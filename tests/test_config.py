"""The unified ExecutionConfig surface: layering, validation, CLI.

One frozen :class:`repro.ExecutionConfig` is the only way to configure
execution, accepted at three layers with *call-site > query > engine >
defaults* precedence.  The pre-config keyword arguments
(``parallelism=``, ``backend=``, ``telemetry=``, ``allowed_lateness=``,
``shards=``) were removed in 2.0.
"""

import dataclasses

import pytest

import repro
from repro import ExecutionConfig, FaultPlan, RetryPolicy, StreamEngine
from repro.__main__ import build_config, build_parser
from repro.config import EXECUTION_DEFAULTS
from repro.core.errors import ValidationError
from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.times import t
from repro.core.tvr import TimeVaryingRelation, ins, wm

KEYED_SCHEMA = Schema(
    [int_col("k"), timestamp_col("ts", event_time=True), int_col("v")]
)

TUMBLE_SQL = (
    "SELECT k, wend, COUNT(*) AS n "
    "FROM Tumble(data => TABLE(S), timecol => DESCRIPTOR(ts), "
    "dur => INTERVAL '2' MINUTE) TS "
    "GROUP BY k, wend"
)


def keyed_engine(config=None):
    engine = StreamEngine(config=config)
    events = [
        ins(100, (1, t("8:00"), 10)),
        ins(200, (2, t("8:01"), 20)),
        wm(300, t("8:02")),
        ins(400, (1, t("8:03"), 30)),
        wm(500, t("8:10")),
    ]
    engine.register_stream("S", TimeVaryingRelation(KEYED_SCHEMA, events))
    return engine


# ---------------------------------------------------------------------------
# the config object itself
# ---------------------------------------------------------------------------


class TestExecutionConfig:
    def test_unset_everywhere_resolves_to_defaults(self):
        resolved = ExecutionConfig().resolved()
        for name, value in EXECUTION_DEFAULTS.items():
            assert getattr(resolved, name) == value

    def test_merged_over_keeps_set_fields(self):
        base = ExecutionConfig(parallelism=4, backend="sync")
        layered = ExecutionConfig(backend="threads").merged_over(base)
        assert layered.parallelism == 4  # inherited
        assert layered.backend == "threads"  # overridden

    def test_merged_over_is_field_wise_not_all_or_nothing(self):
        base = ExecutionConfig(
            parallelism=2, allowed_lateness=500, backend="processes"
        )
        top = ExecutionConfig(allowed_lateness=0)
        # allowed_lateness=0 is a *set* value, not "unset"
        merged = top.merged_over(base)
        assert merged.allowed_lateness == 0
        assert merged.parallelism == 2
        assert merged.backend == "processes"

    def test_frozen_and_hashable(self):
        config = ExecutionConfig(parallelism=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.parallelism = 3
        assert hash(config) == hash(ExecutionConfig(parallelism=2))
        assert config == ExecutionConfig(parallelism=2)
        assert config != ExecutionConfig(parallelism=3)

    def test_fault_plan_spec_string_is_parsed_at_construction(self):
        config = ExecutionConfig(fault_plan="poison-row:shard=1,at=3")
        assert isinstance(config.fault_plan, FaultPlan)
        assert config.fault_plan.faults[0].shard == 1

    def test_validation_rejects_impossible_settings(self):
        with pytest.raises(ValidationError):
            ExecutionConfig(parallelism=0)
        with pytest.raises(ValidationError):
            ExecutionConfig(backend="fibers")
        with pytest.raises(ValidationError):
            ExecutionConfig(allowed_lateness=-1)
        with pytest.raises(ValidationError):
            ExecutionConfig(retry="3 times")
        with pytest.raises(ValidationError):
            ExecutionConfig(fault_plan=42)

    def test_unset_fields_pass_validation(self):
        ExecutionConfig().validate()  # all None: nothing to reject


# ---------------------------------------------------------------------------
# precedence: call-site > query > engine > defaults
# ---------------------------------------------------------------------------


class TestPrecedence:
    def test_engine_layer_fills_unset_query_fields(self):
        engine = keyed_engine(ExecutionConfig(parallelism=4, backend="sync"))
        query = engine.query(TUMBLE_SQL)
        effective = query._effective()
        assert effective.parallelism == 4
        assert effective.backend == "sync"
        assert effective.allowed_lateness == 0  # library default

    def test_query_layer_overrides_engine(self):
        engine = keyed_engine(ExecutionConfig(parallelism=4))
        query = engine.query(TUMBLE_SQL, ExecutionConfig(parallelism=2))
        assert query._effective().parallelism == 2
        # unrelated fields still come from the engine/defaults
        assert query._effective().backend == "threads"

    def test_call_site_overrides_query_and_engine(self):
        engine = keyed_engine(ExecutionConfig(parallelism=4, backend="sync"))
        query = engine.query(TUMBLE_SQL, ExecutionConfig(parallelism=2))
        effective = query._effective(ExecutionConfig(parallelism=1))
        assert effective.parallelism == 1
        assert effective.backend == "sync"  # engine layer survives

    def test_allowed_lateness_resolves_through_the_chain(self):
        engine = keyed_engine(ExecutionConfig(allowed_lateness=120_000))
        assert engine.query(TUMBLE_SQL).allowed_lateness == 120_000
        query = engine.query(TUMBLE_SQL, ExecutionConfig(allowed_lateness=0))
        assert query.allowed_lateness == 0

    def test_explain_reports_the_effective_runtime(self):
        engine = keyed_engine(ExecutionConfig(parallelism=1))
        query = engine.query(
            TUMBLE_SQL, ExecutionConfig(parallelism=3, backend="sync")
        )
        note = query.explain()
        assert "sharded(3)" in note
        assert "[sync]" in note

    def test_run_results_are_cached_per_effective_config(self):
        engine = keyed_engine(ExecutionConfig(backend="sync"))
        query = engine.query(TUMBLE_SQL)
        first = query.run()
        assert query.run() is first  # same config: cached
        override = query.run(config=ExecutionConfig(parallelism=2))
        assert override is not first
        assert override.changes == first.changes  # sharded == serial

    def test_all_layers_produce_identical_results(self):
        base = keyed_engine(ExecutionConfig(backend="sync")).query(TUMBLE_SQL).run()
        via_engine = keyed_engine(
            ExecutionConfig(parallelism=2, backend="sync")
        ).query(TUMBLE_SQL).run()
        via_query = keyed_engine().query(
            TUMBLE_SQL, ExecutionConfig(parallelism=2, backend="sync")
        ).run()
        via_call = keyed_engine().query(TUMBLE_SQL).run(
            config=ExecutionConfig(parallelism=2, backend="sync")
        )
        for result in (via_engine, via_query, via_call):
            assert result.changes == base.changes
            assert result.watermarks.as_pairs() == base.watermarks.as_pairs()

    def test_engine_stores_a_fully_resolved_config(self):
        engine = StreamEngine(config=ExecutionConfig(parallelism=2))
        assert engine.config.backend == "threads"
        assert engine.config.retry == RetryPolicy()
        assert engine.parallelism == 2
        assert engine.backend == "threads"

    def test_config_must_be_an_execution_config(self):
        with pytest.raises(ValidationError):
            StreamEngine(config={"parallelism": 2})
        engine = keyed_engine()
        with pytest.raises(ValidationError):
            engine.query(TUMBLE_SQL).run(config={"parallelism": 2})


# ---------------------------------------------------------------------------
# the pre-config keywords are gone, not shimmed
# ---------------------------------------------------------------------------


class TestRemovedKeywords:
    def test_pre_config_keywords_are_type_errors(self):
        engine = keyed_engine()
        query = engine.query(TUMBLE_SQL)
        for call in (
            lambda: StreamEngine(parallelism=2),
            lambda: engine.query(TUMBLE_SQL, allowed_lateness=60_000),
            lambda: query.sharded_dataflow(shards=3),
        ):
            with pytest.raises(TypeError):
                call()


# ---------------------------------------------------------------------------
# the CLI builds the same config object
# ---------------------------------------------------------------------------


class TestCli:
    def parse(self, *argv):
        return build_config(build_parser().parse_args(list(argv)))

    def test_no_flags_build_the_all_unset_config(self):
        assert self.parse() == ExecutionConfig()

    def test_flags_map_onto_config_fields(self):
        config = self.parse(
            "--parallelism", "4",
            "--backend", "processes",
            "--telemetry", "jsonl:/tmp/events.jsonl",
            "--allowed-lateness", "5000",
        )
        assert config.parallelism == 4
        assert config.backend == "processes"
        assert config.telemetry == "jsonl:/tmp/events.jsonl"
        assert config.allowed_lateness == 5000
        assert config.retry is None  # no retry flag given: inherit

    def test_retry_flags_fill_unset_fields_from_policy_defaults(self):
        config = self.parse("--max-restarts", "5")
        assert config.retry == RetryPolicy(max_restarts=5)
        config = self.parse(
            "--checkpoint-interval", "50", "--backoff-base-ms", "10"
        )
        assert config.retry.checkpoint_interval == 50
        assert config.retry.backoff_base_ms == 10
        assert config.retry.max_restarts == RetryPolicy().max_restarts

    def test_fault_plan_flag_parses_to_a_plan(self):
        config = self.parse("--fault-plan", "crash-after-checkpoint:shard=1")
        assert isinstance(config.fault_plan, FaultPlan)
        assert config.fault_plan.faults[0].kind == "crash-after-checkpoint"

    def test_bad_flag_values_raise_validation_errors(self):
        with pytest.raises(ValidationError):
            self.parse("--backend", "fibers")
        from repro.core.errors import ExecutionError

        with pytest.raises(ExecutionError):
            self.parse("--fault-plan", "meteor-strike")

    def test_help_names_every_config_field(self):
        """``python -m repro --help`` must agree with docs/API.md."""
        text = build_parser().format_help()
        for flag in (
            "--parallelism", "--backend", "--telemetry", "--allowed-lateness",
            "--max-restarts", "--backoff-base-ms", "--checkpoint-interval",
            "--fault-plan",
        ):
            assert flag in text
        assert "ExecutionConfig" in text


# ---------------------------------------------------------------------------
# the exported surface
# ---------------------------------------------------------------------------


class TestPublicSurface:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_config_surface_is_exported(self):
        for name in (
            "ExecutionConfig", "RetryPolicy", "FaultPlan", "FaultSpec",
            "RecoveryStats", "StreamEngine",
        ):
            assert name in repro.__all__
