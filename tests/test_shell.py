"""Tests for the interactive shell (driven through feed())."""

import io

import pytest

from repro import StreamEngine
from repro.io import format_script
from repro.nexmark import paper_bid_stream
from repro.shell import Shell


@pytest.fixture
def script_file(tmp_path):
    path = tmp_path / "bids.script"
    path.write_text(format_script(paper_bid_stream()))
    return str(path)


@pytest.fixture
def shell(script_file):
    sh = Shell()
    sh.feed(f"\\load Bid {script_file}")
    return sh


class TestCommands:
    def test_help(self):
        assert "Commands:" in Shell().feed("\\help")

    def test_tables_empty(self):
        assert "no relations" in Shell().feed("\\tables")

    def test_load_and_tables(self, shell):
        assert shell.feed("\\tables") == "bid"

    def test_schema(self, shell):
        out = shell.feed("\\schema Bid")
        assert "bidtime" in out and "EVENT TIME" in out

    def test_listing_does_not_materialise_a_restored_source(
        self, script_file, monkeypatch
    ):
        """``\\tables`` / ``\\schema`` over a source brought back from its
        event log (still encoded), and ``\\load``'s event count, build no
        event list."""
        from repro.core.codec import encode_events
        from repro.core.tvr import TimeVaryingRelation

        bids = paper_bid_stream()
        engine = StreamEngine()
        engine.register_stream(
            "Bid",
            TimeVaryingRelation.restored(
                bids.schema, [encode_events(bids.events())]
            ),
        )
        monkeypatch.setattr(
            TimeVaryingRelation, "events",
            lambda self, start=0: pytest.fail("a listing read the events"),
        )
        sh = Shell(engine)
        assert sh.feed("\\tables") == "bid"
        assert "bidtime" in sh.feed("\\schema Bid")
        assert f"({bids.event_count} events)" in sh.feed(
            f"\\load Again {script_file}"
        )

    def test_load_missing_file(self):
        out = Shell().feed("\\load X /nonexistent/path")
        assert out.startswith("error:")

    def test_quit(self):
        sh = Shell()
        assert sh.feed("\\quit") == "bye"
        assert sh.done

    def test_unknown_command(self):
        assert "unknown command" in Shell().feed("\\frobnicate")

    def test_at_and_reset(self, shell):
        assert "8:13" in shell.feed("\\at 8:13")
        assert "reset" in shell.feed("\\at")

    def test_explain(self, shell):
        out = shell.feed("\\explain SELECT * FROM Bid;")
        assert "Scan(Bid stream)" in out

    def test_save_round_trips(self, shell, tmp_path):
        out_path = tmp_path / "out.script"
        out = shell.feed(f"\\save Bid {out_path}")
        assert "wrote Bid" in out
        other = Shell()
        other.feed(f"\\load Copy {out_path}")
        assert "8:07" in other.feed("SELECT * FROM Copy;")

    def test_view_registration(self, shell):
        out = shell.feed("\\view Cheap SELECT item FROM Bid WHERE price < 3;")
        assert "registered view" in out
        result = shell.feed("SELECT * FROM Cheap;")
        assert "A" in result and "E" in result and "F" not in result


class TestSql:
    def test_simple_select(self, shell):
        out = shell.feed("SELECT * FROM Bid;")
        assert "bidtime" in out
        assert "8:07" in out

    def test_multiline_buffering(self, shell):
        assert shell.feed("SELECT price, item") is None
        assert shell.prompt == "   ...> "
        out = shell.feed("FROM Bid WHERE price > 4;")
        assert "D" in out and "F" in out and "A" not in out

    def test_at_controls_snapshot(self, shell):
        shell.feed("\\at 8:13")
        q7 = (
            "SELECT TB.wend, MAX(TB.price) m FROM Tumble(data => TABLE(Bid), "
            "timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTES) TB "
            "GROUP BY TB.wend;"
        )
        out = shell.feed(q7)
        assert "4" in out  # C is the max of window 1 at 8:13

    def test_emit_stream_renders_changelog(self, shell):
        out = shell.feed(
            "SELECT TB.wend, MAX(TB.price) m FROM Tumble(data => TABLE(Bid), "
            "timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTES) TB "
            "GROUP BY TB.wend EMIT STREAM;"
        )
        assert "undo" in out and "ver" in out

    def test_sql_error_reported(self, shell):
        out = shell.feed("SELECT nope FROM Bid;")
        assert out.startswith("error:")
        # shell keeps working afterwards
        assert "8:07" in shell.feed("SELECT * FROM Bid;")


class TestInteractiveLoop:
    def test_run_with_streams(self, script_file):
        stdin = io.StringIO(
            f"\\load Bid {script_file}\nSELECT * FROM Bid;\n\\quit\n"
        )
        stdout = io.StringIO()
        Shell().run(stdin, stdout)
        output = stdout.getvalue()
        assert "repro>" in output
        assert "8:07" in output
        assert "bye" in output

    def test_a_bare_sql_command_answers_its_usage(self):
        """``\\explain``, ``\\analyze`` and ``\\state`` with no SQL after
        them answer their usage line, as ``\\watch`` does, and the loop
        goes on."""
        stdin = io.StringIO("\\explain\n\\analyze\n\\state\n\\watch\n\\quit\n")
        stdout = io.StringIO()
        Shell().run(stdin, stdout)
        output = stdout.getvalue()
        for usage in [
            "usage: \\explain [MODE] SELECT ...;",
            "usage: \\analyze SELECT ...;",
            "usage: \\state SELECT ...;",
            "usage: \\watch SELECT ...;",
        ]:
            assert usage in output
        assert "bye" in output
