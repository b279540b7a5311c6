"""``repro lint`` CLI tests: formats, exit codes, baseline workflow."""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]

DIRTY = "try:\n    pass\nexcept:\n    pass\n"

VALID_TRACE = {
    "otherData": {"schema": 1},
    "traceEvents": [
        {"name": "gemm", "cat": "executor", "ph": "X",
         "pid": 0, "tid": 0, "ts": 0.0, "dur": 5.0},
    ],
}


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = _write(tmp_path, "clean.py", "x = 1\n")
        assert main(["lint", path, "--no-baseline"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        path = _write(tmp_path, "dirty.py", DIRTY)
        assert main(["lint", path, "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "[hygiene]" in out and ":3:0: error" in out

    def test_unknown_checker_exits_two(self, tmp_path, capsys):
        path = _write(tmp_path, "clean.py", "x = 1\n")
        rc = main(["lint", path, "--select", "no-such-checker"])
        assert rc == 2

    def test_syntax_error_exits_one(self, tmp_path, capsys):
        path = _write(tmp_path, "broken.py", "def f(:\n")
        assert main(["lint", path, "--no-baseline"]) == 1
        assert "[parse]" in capsys.readouterr().out

    def test_list_checkers(self, capsys):
        assert main(["lint", "--list"]) == 0
        out = capsys.readouterr().out
        for checker_id in ("precision-flow", "tag-space",
                           "collective-matching", "hygiene", "trace-schema"):
            assert checker_id in out


class TestJsonFormat:
    def test_json_report_shape(self, tmp_path, capsys):
        path = _write(tmp_path, "dirty.py", DIRTY)
        out_file = tmp_path / "report.json"
        rc = main(["lint", path, "--no-baseline", "--format", "json",
                   "--out", str(out_file)])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        assert doc["files_checked"] == 1
        assert doc["findings"][0]["checker"] == "hygiene"
        # --out mirrors the same document to disk (the CI artifact).
        assert json.loads(out_file.read_text()) == doc


class TestBaselineWorkflow:
    def test_update_then_clean(self, tmp_path, capsys):
        path = _write(tmp_path, "dirty.py", DIRTY)
        base = str(tmp_path / "baseline.json")
        assert main(["lint", path, "--baseline", base,
                     "--update-baseline"]) == 0
        assert main(["lint", path, "--baseline", base]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_new_finding_still_fails(self, tmp_path, capsys):
        path = _write(tmp_path, "dirty.py", DIRTY)
        base = str(tmp_path / "baseline.json")
        main(["lint", path, "--baseline", base, "--update-baseline"])
        _write(tmp_path, "dirty.py", DIRTY + "def f(xs=[]):\n    return xs\n")
        assert main(["lint", path, "--baseline", base]) == 1

    def test_select_restricts_checkers(self, tmp_path, capsys):
        path = _write(
            tmp_path, "dirty.py",
            DIRTY + "import numpy as np\nH = np.float16(1.0)\n",
        )
        rc = main(["lint", path, "--no-baseline",
                   "--select", "precision-flow"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "[precision-flow]" in out and "[hygiene]" not in out


class TestTraceArtifacts:
    def test_valid_trace_passes(self, tmp_path, capsys):
        path = _write(tmp_path, "trace.json", json.dumps(VALID_TRACE))
        assert main(["lint", path, "--no-baseline"]) == 0

    def test_invalid_trace_fails(self, tmp_path, capsys):
        doc = {"traceEvents": []}  # no spans, no otherData
        path = _write(tmp_path, "trace.json", json.dumps(doc))
        assert main(["lint", path, "--no-baseline"]) == 1
        assert "[trace-schema]" in capsys.readouterr().out

    def test_require_layers_flag(self, tmp_path, capsys):
        path = _write(tmp_path, "trace.json", json.dumps(VALID_TRACE))
        rc = main(["lint", path, "--no-baseline", "--require-layers"])
        assert rc == 1  # only 'executor' spans present
        assert "required layer" in capsys.readouterr().out


SCENARIOS = sorted(
    f"scenarios/{p.name}"
    for p in (REPO_ROOT / "examples" / "scenarios").glob("*.json")
)

#: every artifact the repo writes, relative to the corpus directory
CORPUS = [
    "trace.json", "spans.jsonl", "profile.json", "health.json",
    "fleet.json", *SCENARIOS, "campaign/store.jsonl",
    "campaign/export.json", "campaign/queue.json", "campaign/summary.json",
    "bench.json",
]


def _break_first_span(doc):
    span = next(e for e in doc["traceEvents"] if e["ph"] == "X")
    span["dur"] = -1


def _set(key, value):
    def mutate(doc):
        doc[key] = value
    return mutate


def _drop_best(row):
    del row["best"]


#: per validated kind: artifact, the checker that owns it, one broken field
BROKEN = [
    ("trace.json", "trace-schema", _break_first_span),
    ("profile.json", "profile-schema", _set("num_ranks", 0)),
    ("health.json", "health-report", _set("cadence_s", 0)),
    ("fleet.json", "fleet-schema", _set("regressed", "nope")),
    (SCENARIOS[0], "scenario-schema", _set("injections", [{"kind": "bogus"}])),
    ("campaign/store.jsonl", "campaign-store", _drop_best),
    ("campaign/export.json", "campaign-store",
     lambda doc: _drop_best(doc["rows"][0])),
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The artifact corpus, generated once from the smallest configs."""
    d = tmp_path_factory.mktemp("corpus")
    run = ["--machine", "frontier", "-p", "2", "--nl", "256", "-b", "64"]
    for argv in (
        ["run", *run, "--chrome-trace", d / "trace.json", "--span-log",
         d / "spans.jsonl"],
        ["profile", d / "trace.json", "--format", "json",
         "--out", d / "profile.json"],
        ["run", *run, "--health-json", d / "health.json"],
        ["campaign", *run, "--bcasts", "bcast,ring2m", "--runs", "1",
         "--store", d / "campaign" / "store.jsonl",
         "--export", d / "campaign" / "export.json",
         "--summary-json", d / "campaign" / "summary.json"],
        ["fleet", d / "campaign" / "store.jsonl", "--format", "json",
         "--out", d / "fleet.json"],
        ["bench", "hotpaths", "-n", "256", "--reps", "1",
         "--out", d / "bench.json"],
    ):
        assert main([str(a) for a in argv]) == 0
    shutil.copytree(REPO_ROOT / "examples" / "scenarios", d / "scenarios")
    return d


def _lint(capsys, path, *extra):
    """(exit code, findings) of a default-suite lint of one file."""
    rc = main(["lint", str(path), "--no-baseline", "--format", "json",
               *extra])
    return rc, json.loads(capsys.readouterr().out)["findings"]


class TestArtifactCorpus:
    """Each artifact has exactly one owning checker in the default suite."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_artifact_lints_clean(self, corpus, name, capsys):
        assert _lint(capsys, corpus / name) == (0, [])

    @pytest.mark.parametrize(
        "name,checker,mutate", BROKEN, ids=[b[0] for b in BROKEN]
    )
    def test_broken_field_flagged_by_owner_only(self, corpus, tmp_path,
                                                name, checker, mutate,
                                                capsys):
        src = corpus / name
        if src.suffix == ".jsonl":
            rows = [json.loads(r) for r in src.read_text().splitlines()]
            mutate(rows[0])
            text = "".join(json.dumps(r) + "\n" for r in rows)
        else:
            doc = json.loads(src.read_text())
            mutate(doc)
            text = json.dumps(doc)
        broken = tmp_path / src.name
        broken.write_text(text)
        rc, findings = _lint(capsys, broken)
        assert rc == 1 and findings
        assert {f["checker"] for f in findings} == {checker}

    @pytest.mark.parametrize("select", [[], ["--select", "health-report"]])
    def test_non_strict_file_reported_once_by_owner(self, corpus, tmp_path,
                                                    select, capsys):
        doc = json.loads((corpus / "health.json").read_text())
        doc["cadence_s"] = float("nan")
        path = tmp_path / "health.json"
        path.write_text(json.dumps(doc))
        rc, findings = _lint(capsys, path, *select)
        assert rc == 1 and len(findings) == 1
        assert findings[0]["checker"] == "health-report"
        assert "not strict JSON" in findings[0]["message"]

    @pytest.mark.parametrize("select,checker", [
        ([], "trace-schema"),
        (["--select", "health-report"], "health-report"),
    ])
    def test_malformed_file_reported_once(self, tmp_path, select, checker,
                                          capsys):
        path = _write(tmp_path, "broken.json", '{"schema": ')
        rc, findings = _lint(capsys, path, *select)
        assert rc == 1 and len(findings) == 1
        assert findings[0]["checker"] == checker


class TestRepositoryIsClean:
    def test_src_tree_clean_against_checked_in_baseline(self, monkeypatch,
                                                        capsys):
        """The acceptance gate: `repro lint src/` exits 0 at HEAD."""
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "src"]) == 0
        assert "baseline: .lint-baseline.json" in capsys.readouterr().out


class TestChangedScoping:
    """``repro lint --changed``: diff-scoped analysis."""

    def _git_repo(self, tmp_path):
        import subprocess

        def git(*argv):
            subprocess.run(
                ["git", *argv], cwd=tmp_path, check=True,
                capture_output=True,
                env={"GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
                     "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
                     "HOME": str(tmp_path), "PATH": "/usr/bin:/bin"},
            )

        git("init", "-q")
        (tmp_path / "committed.py").write_text(DIRTY)
        git("add", "committed.py")
        git("commit", "-qm", "seed")
        return git

    def test_only_touched_files_are_linted(self, tmp_path, monkeypatch,
                                           capsys):
        self._git_repo(tmp_path)
        # the committed dirty file is NOT touched; a new dirty file is
        (tmp_path / "fresh.py").write_text(DIRTY)
        monkeypatch.chdir(tmp_path)
        rc = main(["lint", str(tmp_path), "--no-baseline", "--changed",
                   "--select", "hygiene"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "fresh.py" in out
        assert "committed.py" not in out
        assert "1 file(s)" in out

    def test_modified_tracked_file_is_linted(self, tmp_path, monkeypatch,
                                             capsys):
        self._git_repo(tmp_path)
        (tmp_path / "committed.py").write_text(DIRTY + "x = 1\n")
        monkeypatch.chdir(tmp_path)
        rc = main(["lint", str(tmp_path), "--no-baseline", "--changed",
                   "--select", "hygiene"])
        assert rc == 1
        assert "committed.py" in capsys.readouterr().out

    def test_no_changes_is_clean(self, tmp_path, monkeypatch, capsys):
        self._git_repo(tmp_path)
        monkeypatch.chdir(tmp_path)
        rc = main(["lint", str(tmp_path), "--no-baseline", "--changed"])
        assert rc == 0
        assert "no modified files" in capsys.readouterr().out

    def test_outside_git_falls_back_to_full_lint(self, tmp_path,
                                                 monkeypatch, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GIT_DIR", str(tmp_path / "no-such-repo"))
        rc = main(["lint", str(tmp_path), "--no-baseline", "--changed",
                   "--select", "hygiene"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "needs a git checkout" in err
