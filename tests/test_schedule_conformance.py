"""Trace conformance: recorded transfers replayed against the static
schedule.  A fresh trace must conform exactly; a mutated-tag trace must
be rejected.
"""

import json

import pytest

from repro.analyze.checkers.schedule import TraceConformanceChecker
from repro.analyze.schedule import conformance_from_trace
from repro.cli import main


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("conformance") / "trace.json"
    rc = main([
        "run", "--machine", "frontier", "-p", "2", "--nl", "256",
        "-b", "64", "--chrome-trace", str(path),
    ])
    assert rc == 0
    return path


@pytest.fixture()
def mutated_trace_path(trace_path, tmp_path):
    doc = json.loads(trace_path.read_text())
    for event in doc["traceEvents"]:
        if event.get("name") == "xfer" and "tag" in event.get("args", {}):
            # shift one transfer onto a wire the model never uses
            event["args"]["tag"] += 17 * 1024
            break
    else:
        raise AssertionError("trace carries no tagged xfer spans")
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    return path


class TestFreshTraceConforms:
    def test_every_transfer_is_matched(self, trace_path):
        report = conformance_from_trace(str(trace_path))
        assert report.ok, [i.message for i in report.issues]
        assert report.stats["observed_transfers"] > 0
        assert report.stats["observed_channels"] > 0
        assert (report.stats["observed_transfers"]
                == report.stats["model_transfers"])

    def test_label_names_the_configuration(self, trace_path):
        report = conformance_from_trace(str(trace_path))
        assert "2x2" in report.label


class TestMutatedTraceFails:
    def test_shifted_tag_is_rejected(self, mutated_trace_path):
        report = conformance_from_trace(str(mutated_trace_path))
        assert not report.ok
        messages = "\n".join(i.message for i in report.issues)
        # the shifted transfer is unmatched AND leaves its home channel
        # one short
        assert "unmatched transfer" in messages or "out-of-model" in messages
        assert "count mismatch" in messages


class TestLintIntegration:
    def test_checker_sniffs_trace_artifacts(self, trace_path, tmp_path):
        checker = TraceConformanceChecker()
        assert checker.matches(str(trace_path))
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"results": []}))
        assert not checker.matches(str(other))

    def test_lint_passes_on_fresh_trace(self, trace_path):
        rc = main([
            "lint", str(trace_path), "--select", "trace-conformance",
            "--no-baseline",
        ])
        assert rc == 0

    def test_lint_fails_on_mutated_trace(self, mutated_trace_path, capsys):
        rc = main([
            "lint", str(mutated_trace_path), "--select", "trace-conformance",
            "--no-baseline",
        ])
        assert rc == 1
        assert "[trace-conformance]" in capsys.readouterr().out


class TestVerifyCommTraceMode:
    def test_cli_conforms_and_rejects(self, trace_path, mutated_trace_path,
                                      capsys):
        assert main(["verify-comm", "--trace", str(trace_path)]) == 0
        assert "conforms" in capsys.readouterr().out
        assert main(["verify-comm", "--trace", str(mutated_trace_path)]) == 1
        assert "FAILED" in capsys.readouterr().out
