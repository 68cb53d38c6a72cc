"""The documented public surface stays importable.

docs/API.md promises that the public surface is exactly
``repro.__all__`` plus the documented package namespaces
(``repro.plan`` / ``repro.runtime`` / ``repro.obs``).  These tests
import every promised name so a refactor that drops or renames one
fails here, with the docs as the source of truth, before any user
notices.
"""

import ast
import importlib
import inspect
import os
import re

import pytest

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")


# The names docs/API.md calls out explicitly, per stability tier.
STABLE = [
    # engine surface
    "StreamEngine",
    "PreparedQuery",
    "ExecutionConfig",
    "RetryPolicy",
    # explain API
    "EXPLAIN_MODES",
    "parse_explain",
    "render_explain",
    # fault tolerance
    "FaultPlan",
    "FaultSpec",
    "RecoveryStats",
    # observability
    "MetricsReport",
    "RunTelemetry",
    "TraceCollector",
    # errors
    "ReproError",
    "SqlError",
    "ExecutionError",
    "SchemaError",
    "WatermarkError",
]

PROVISIONAL = [
    "PhysicalDecision",
    "TwoPhaseSplit",
    "plan_physical",
    "split_eligibility",
    "MIN_COMBINE_FANIN",
]

PACKAGE_SURFACES = {
    "repro.plan": [
        "LogicalNode",
        "AggregateNode",
        "PartialAggregateNode",
        "plan_fingerprint",
        "PhysicalDecision",
        "TwoPhaseSplit",
        "plan_physical",
        "split_eligibility",
        "MIN_COMBINE_FANIN",
    ],
    "repro.runtime": [
        "ShardedDataflow",
        "WatermarkFrontier",
        "RetryPolicy",
        "FaultPlan",
    ],
    "repro.obs": [
        "MetricsReport",
        "RunTelemetry",
        "RecoveryStats",
        "TraceCollector",
        "LineageRecorder",
    ],
}


class TestTopLevelSurface:
    def test_all_names_resolve(self):
        missing = [n for n in repro.__all__ if not hasattr(repro, n)]
        assert missing == []

    def test_no_duplicates_in_all(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    @pytest.mark.parametrize("name", STABLE + PROVISIONAL)
    def test_documented_name_is_exported(self, name):
        assert name in repro.__all__
        assert getattr(repro, name) is not None

    def test_version_is_pep440_ish(self):
        major, minor, patch = repro.__version__.split(".")
        assert all(part.isdigit() for part in (major, minor, patch))

    def test_every_version_string_agrees(self):
        """``pyproject.toml`` (read with a regex: Python 3.10 has no
        ``tomllib``), ``setup.py`` and ``repro.__version__`` name one
        release."""
        def version_in(name, pattern):
            with open(os.path.join(ROOT, name)) as handle:
                return re.search(pattern, handle.read(), re.MULTILINE).group(1)

        assert version_in(
            "pyproject.toml", r'^version\s*=\s*"([^"]+)"'
        ) == repro.__version__
        assert version_in(
            "setup.py", r'version\s*=\s*"([^"]+)"'
        ) == repro.__version__


class TestPackageSurfaces:
    @pytest.mark.parametrize("package", sorted(PACKAGE_SURFACES))
    def test_package_all_resolves(self, package):
        mod = importlib.import_module(package)
        missing = [n for n in mod.__all__ if not hasattr(mod, n)]
        assert missing == []

    @pytest.mark.parametrize(
        "package,name",
        [(p, n) for p, names in PACKAGE_SURFACES.items() for n in names],
    )
    def test_documented_package_name(self, package, name):
        mod = importlib.import_module(package)
        assert name in mod.__all__
        assert getattr(mod, name) is not None


class TestFacadeCoherence:
    def test_top_level_reexports_are_the_same_objects(self):
        import repro.plan
        import repro.runtime

        assert repro.PhysicalDecision is repro.plan.PhysicalDecision
        assert repro.plan_physical is repro.plan.plan_physical
        assert repro.split_eligibility is repro.plan.split_eligibility
        assert repro.RetryPolicy is repro.runtime.RetryPolicy
        assert repro.FaultPlan is repro.runtime.FaultPlan

    def test_explain_modes_is_the_renderers_contract(self):
        assert repro.EXPLAIN_MODES == ("logical", "physical", "costs", "analyze")
        parsed = repro.parse_explain("EXPLAIN (COSTS) SELECT 1")
        assert parsed == ("costs", "SELECT 1")
        assert repro.parse_explain("SELECT 1") is None


def _operator_classes():
    """Every Operator subclass reachable once all operator modules
    (including the fused pipeline and two-phase halves) are imported."""
    import repro.exec.compile  # noqa: F401 — imports every operator module
    from repro.exec.operators.base import Operator

    seen, stack = [], [Operator]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in seen:
                seen.append(sub)
                stack.append(sub)
    return sorted(seen, key=lambda cls: cls.__qualname__)


class TestOperatorProtocol:
    """One transition per operator (docs/RUNTIME.md §7): a class body
    writes ``on_batch`` *or* ``on_change``, never both, and an operator
    that claims the columnar encoding implements it."""

    def test_walk_finds_the_operator_zoo(self):
        names = {cls.__name__ for cls in _operator_classes()}
        assert {"AggregateOperator", "JoinOperator", "OverOperator",
                "PipelineOperator", "CombineAggregateOperator"} <= names

    @pytest.mark.parametrize(
        "cls", _operator_classes(), ids=lambda cls: cls.__name__
    )
    def test_exactly_one_row_entry_point_per_class_body(self, cls):
        from repro.exec.operators.base import Operator

        own = {"on_change", "on_batch"} & set(vars(cls))
        assert len(own) <= 1, (
            f"{cls.__name__} writes its transition twice: {sorted(own)}"
        )
        # ... and at least one is overridden somewhere below the base,
        # or the two base adapters would call each other forever.
        assert (
            cls.on_change is not Operator.on_change
            or cls.on_batch is not Operator.on_batch
        ), f"{cls.__name__} overrides neither on_change nor on_batch"

    @pytest.mark.parametrize(
        "cls", _operator_classes(), ids=lambda cls: cls.__name__
    )
    def test_columnar_claim_is_backed_by_on_cols(self, cls):
        from repro.exec.operators.base import Operator

        if cls.supports_columnar:
            assert cls.on_cols is not Operator.on_cols, (
                f"{cls.__name__} sets supports_columnar without on_cols"
            )

    def test_removed_entry_points_stay_removed(self):
        from repro.exec.operators.base import Operator
        from repro.obs.metrics import OperatorCounters

        assert not hasattr(Operator, "process_change")
        assert not hasattr(OperatorCounters, "record_in")

    def test_accounting_has_one_site_each(self):
        """Accounting rides the edge and settles on read (DESIGN.md): no
        counted wrapper around an operator, no per-operator recorder,
        one telemetry recording method, one place the executor calls
        it — ``OutputChannel.settle``, the single derivation site — and
        a watermark step that only notes where the log ended
        (``OutputChannel.step``), never settles."""
        from repro.exec import executor
        from repro.exec.operators.base import Operator
        from repro.obs.metrics import OperatorCounters
        from repro.obs.telemetry import RunTelemetry

        for name in ("process_batch", "process_cols", "process_open",
                     "process_timer"):
            assert not hasattr(Operator, name), name
        recorders = [n for n in dir(OperatorCounters) if n.startswith("record_")]
        assert recorders == []
        recorders = [n for n in dir(RunTelemetry) if n.startswith("record_")]
        assert recorders == ["record_emit_run"]
        mentions = [
            line for line in inspect.getsource(executor).splitlines()
            if "record_emit" in line
        ]
        assert len(mentions) == 1, mentions
        assert "record_emit_run" in inspect.getsource(
            executor.OutputChannel.settle
        )
        step = inspect.getsource(executor.Dataflow._push_watermark)
        assert "channel.step(" in step and "settle" not in step


FLOW_CONTRACT = (
    "process", "process_batch", "replay", "run", "finish", "result",
    "checkpoint", "restore", "attach_output", "remove_output", "output_ids",
    "output_size_of", "output_slice_of", "output_segments_of",
    "history_items_of", "take_touched", "root_watermark_of", "state_rows_of",
    "telemetry_of", "total_state_rows", "changes_coalesced", "sharing_map",
    "set_lineage", "metrics_report",
)

#: the members a caller drives a flow through: same parameter names and
#: defaults on both classes, so no caller forks on flow kind
DRIVING = (
    "process", "process_batch", "replay", "run", "finish", "checkpoint",
    "restore",
)

#: what only the sharded runtime's drive loop passes, to the serial
#: flows it owns as shards (a share's sequence numbers): optional, and
#: outside the contract — no caller of either flow kind names it
SHARD_ONLY = {"process_batch": {"seqs"}}


class TestFlowContract:
    """One flow contract (DESIGN.md): a sharded flow is driven, spliced
    and checkpointed the way a serial one is."""

    @pytest.mark.parametrize("member", FLOW_CONTRACT)
    def test_member_exists_on_both_flow_kinds(self, member):
        from repro.exec.executor import Dataflow
        from repro.runtime import ShardedDataflow

        assert callable(getattr(Dataflow, member, None)), member
        assert callable(getattr(ShardedDataflow, member, None)), member

    @pytest.mark.parametrize("member", DRIVING)
    def test_driving_members_take_the_same_parameters(self, member):
        from repro.exec.executor import Dataflow
        from repro.runtime import ShardedDataflow

        def shape(cls):
            parameters = inspect.signature(getattr(cls, member)).parameters
            return [(p.name, p.default, p.kind) for p in parameters.values()]

        shard_only = SHARD_ONLY.get(member, set())
        serial = shape(Dataflow)
        assert {
            (name, default) for name, default, _ in serial if name in shard_only
        } == {(name, None) for name in shard_only}
        assert shape(ShardedDataflow) == [
            parameter for parameter in serial if parameter[0] not in shard_only
        ]


def _parameters(function) -> list[str]:
    return list(inspect.signature(function).parameters)


def _src_files_matching(pattern: str) -> set[str]:
    """The modules under ``src/repro`` whose text matches ``pattern``."""
    hits = set()
    for directory, _, files in os.walk(SRC):
        for file in files:
            if file.endswith(".py"):
                path = os.path.join(directory, file)
                with open(path, encoding="utf-8") as handle:
                    if re.search(pattern, handle.read()):
                        hits.add(os.path.relpath(path, SRC))
    return hits


def counted_lines(root: str) -> int:
    """Lines under ``root`` by the rule :meth:`TestSaidOnce.test_counted_src_lines`
    states."""
    total = 0
    for directory, _, files in os.walk(root):
        for file in sorted(files):
            if not file.endswith(".py"):
                continue
            with open(os.path.join(directory, file), encoding="utf-8") as handle:
                text = handle.read()
            docstrings = set()
            for node in ast.walk(ast.parse(text)):
                if isinstance(
                    node,
                    (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
                ) and ast.get_docstring(node, clean=False) is not None:
                    first = node.body[0]
                    docstrings.update(range(first.lineno, first.end_lineno + 1))
            total += sum(
                1
                for number, line in enumerate(text.splitlines(), 1)
                if line.strip()
                and not line.lstrip().startswith("#")
                and number not in docstrings
            )
    return total


class TestSaidOnce:
    """2.0 says each thing once: one config object and no shims, one
    accessor per output (the ``*_of`` members), one evaluator beside
    the generated pipeline loops, one place a config becomes a flow,
    one executor — a two-phase output's merge half is a flow too."""

    REMOVED = (
        "warn_deprecated", "explain_analyze", "compile_plan",
        "CompiledPlan", "codegen.ENABLED", "CombineStage", "combine_stage",
    )

    def test_execution_config_has_seventeen_fields(self):
        import dataclasses

        fields = [f.name for f in dataclasses.fields(repro.ExecutionConfig)]
        assert len(fields) == 17, fields
        assert "lineage_max_traces" not in fields

    @pytest.mark.parametrize("name", REMOVED)
    def test_removed_name_appears_nowhere_in_src(self, name):
        assert _src_files_matching(re.escape(name)) == set()

    def test_the_collector_is_paused_in_one_place(self):
        """``collector_paused`` is the one thing that turns the cyclic
        collector off, and nothing freezes it: a forked shard worker
        inherits the pause of the ``run()`` that forked it."""
        assert _src_files_matching(r"gc\.disable\(") == {
            os.path.join("core", "collector.py")
        }
        assert _src_files_matching(r"gc\.freeze\(") == set()

    def test_a_group_counts_its_rows_once(self):
        """``_GroupState.retained`` was ``row_count`` twice: every write
        moved both by the same amount.  The row count is the one field."""
        import dataclasses

        from repro.exec.operators import aggregate

        fields = [f.name for f in dataclasses.fields(aggregate._GroupState)]
        assert fields == ["accumulators", "distinct_counts", "row_count", "emitted"]
        assert aggregate._GroupState.__slots__ == tuple(fields)
        assert re.findall(r"\.retained\b", inspect.getsource(aggregate)) == []

    @pytest.mark.parametrize(
        "call", ["count_edge", "compact_intra_instant", "MetricsRegistry"]
    )
    def test_edge_counting_compaction_and_state_sweep_run_in_the_executor(
        self, call
    ):
        """Called in ``exec/executor.py`` and nowhere else (definitions
        aside): no second copy of the executor's per-edge loop."""
        pattern = rf"(?<!def )(?<!class )\b{call}\("
        assert _src_files_matching(pattern) == {
            os.path.join("exec", "executor.py")
        }

    @pytest.mark.parametrize(
        "member", ["output_size", "output_slice", "root_watermark", "telemetry"]
    )
    def test_no_primary_output_twin(self, member):
        from repro.exec.executor import Dataflow
        from repro.runtime import ShardedDataflow

        assert not hasattr(Dataflow, member)
        assert not hasattr(ShardedDataflow, member)
        assert f"{member}_of" in FLOW_CONTRACT

    @pytest.mark.parametrize("member", ["__init__", "from_structure"])
    def test_flows_are_built_from_the_config(self, member):
        """Both flow kinds take the resolved ``ExecutionConfig`` under
        the same parameter names; the sharded flow adds only what the
        planner decided for it, keyword-only."""
        from repro.exec.executor import Dataflow
        from repro.runtime import ShardedDataflow

        serial = _parameters(getattr(Dataflow, member))
        sharded = inspect.signature(getattr(ShardedDataflow, member))
        assert "config" in serial
        assert list(sharded.parameters)[: len(serial)] == serial
        extra = list(sharded.parameters.values())[len(serial):]
        assert [p.name for p in extra] == ["spec", "two_phase"]
        assert all(p.kind is p.KEYWORD_ONLY for p in extra)

    def test_two_shard_drivers(self):
        """Sharding keeps two drivers: the caller's thread (the default)
        and a forked worker per shard.  Nothing under ``runtime/``
        starts a thread."""
        from repro.config import EXECUTION_DEFAULTS
        from repro.runtime import backends

        assert backends.BACKENDS == ("sync", "processes")
        assert EXECUTION_DEFAULTS["backend"] == "sync"
        assert _src_files_matching(r"_run_threads") == set()
        threading_imports = _src_files_matching(
            r"(?m)^\s*(import threading|from threading import)"
        )
        assert {
            path for path in threading_imports
            if path.startswith("runtime" + os.sep)
        } == set()

    def test_one_checkpoint_format_is_read(self):
        """No reader of a pre-v4 cut is left; the version is read in one
        place, and a group object has nothing to unpickle."""
        from repro.exec import executor
        from repro.exec.operators import aggregate

        readers = (
            "_restore_legacy", "_restore_script_sources", "plan_format_error",
            "forget_outputs", "_refusal", '"merged_changes"', '"root_changes"',
        )
        assert {
            name: hits
            for name in readers
            if (hits := _src_files_matching(re.escape(name)))
        } == {}
        assert _src_files_matching(r'payload\.get\("version"') == {
            os.path.join("exec", "executor.py")
        }
        assert inspect.getsource(executor).count('payload.get("version"') == 1
        assert 'payload.get("version"' in inspect.getsource(
            executor.check_checkpoint_version
        )
        assert "__setstate__" not in vars(aggregate._GroupState)

    def test_the_fold_is_generated_from_the_templates(self):
        """One group transition, generated: the hand-written fold loop,
        its one-aggregate shortcut ``_sole`` and its method tables are
        gone, and each built-in function's insert/retract/result is
        written once — as a source template on its class, from which
        both the generated fold and the function's methods come."""
        from repro.exec.operators import aggregate
        from repro.sql import functions

        source = inspect.getsource(aggregate)
        for gone in ("def _fold", "_sole", "_fold_specs", "_results",
                     "for i, add, _, distinct in specs", "result0"):
            assert gone not in source, gone
        assert _src_files_matching(r"\b_sole\b|_fold_specs") == set()
        assert _src_files_matching(r"\b(create|insert|retract|result)_src = ") == {
            os.path.join("sql", "functions.py")
        }
        registry = functions.default_registry()
        templated = {
            type(registry.aggregate(name, star))
            for name in ("COUNT", "SUM", "AVG", "MIN", "MAX")
            for star in (False, True)
        }
        for cls in templated:
            for template in (cls.insert_src, cls.retract_src, cls.result_src):
                for line in template.splitlines():
                    # each line is spelled in that one module only
                    assert _src_files_matching(re.escape(line.strip())) == {
                        os.path.join("sql", "functions.py")
                    }, line
        for cls in templated:
            # the methods are the templates', compiled
            for method in (cls.create, cls.add, cls.retract, cls.result):
                assert method.__code__.co_filename == f"<{cls.__name__} templates>"
        assert registry.aggregate("VAR_POP").insert_src is None  # called

    def test_a_live_row_is_folded_not_extracted(self):
        """A row batch enters the generated fold's row entry, which reads
        each row's key and arguments and applies the lateness cutoff
        inline: the row extractor is gone, ``on_batch`` drops nothing
        itself, and the merged input watermark the cutoff reads is a
        plain attribute, not a property merging the ports per read."""
        from repro.exec.operators.aggregate import AggregateOperator
        from repro.exec.operators.base import Operator

        assert _src_files_matching(r"def _extract\(") == set()
        on_batch = inspect.getsource(AggregateOperator.on_batch)
        assert "_drop_late" not in on_batch and "_extract" not in on_batch
        assert "_fold_rows" in on_batch
        assert _src_files_matching(
            r"@property\s+def input_watermark\b"
        ) == set()
        assert not isinstance(
            inspect.getattr_static(Operator, "input_watermark", None), property
        )

    def test_counted_src_lines(self):
        """Counted lines of ``src/repro`` stay at or below where the
        last deletion left them.  Counted: every line of a ``.py`` file
        that is not blank, not a comment (first non-space character
        ``#``) and not part of a docstring (a string literal that is the
        first statement of a module, class or function)."""
        assert counted_lines(SRC) <= 17_641

    def test_the_threads_backend_is_refused_by_name(self):
        from repro.core.errors import ValidationError

        with pytest.raises(ValidationError) as refused:
            repro.ExecutionConfig(backend="threads")
        assert "('sync', 'processes')" in str(refused.value)
