"""Tests for :mod:`repro.analysis` — the AST invariant linter.

Each rule gets positive fixtures (code that must be flagged) and
negative fixtures (idiomatic code that must pass), exercised through
``analyze_source`` with synthetic paths so the path-segment scoping is
covered without touching the real tree.  The CLI surface (exit codes,
``--json`` shape, ``--list-rules``) runs through subprocesses, and a
meta-test pins the shipped tree itself clean under ``--strict``.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import fsio
from repro.analysis import RULES, analyze_source, run_paths
from repro.analysis.core import META_RULE_ID
from repro.storage.store import StoreFormatError, TrajectoryStore
from repro.testing import FaultyFS

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

ENGINE = "src/repro/engine/mod.py"


def lint(snippet, path=ENGINE, strict=False):
    return analyze_source(path, textwrap.dedent(snippet), strict=strict)


def active(findings):
    """Rule ids of unsuppressed findings."""
    return [f.rule for f in findings if not f.suppressed]


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        cwd=cwd or REPO,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
    )


class TestRA01FsioSeam:
    def test_write_mode_open_flagged(self):
        findings = lint("handle = open(path, 'wb')\n")
        assert active(findings) == ["RA01"]

    def test_append_and_plus_modes_flagged(self):
        for mode in ("a", "r+b", "x"):
            assert active(lint(f"h = open(p, {mode!r})\n")) == ["RA01"]

    def test_read_mode_open_passes(self):
        assert active(lint("h = open(path)\nj = open(path, 'rb')\n")) == []

    def test_dynamic_mode_flagged_as_unprovable(self):
        findings = lint("h = open(path, mode)\n")
        assert active(findings) == ["RA01"]
        assert "cannot be proven read-only" in findings[0].message

    def test_os_mutators_flagged_with_seam_replacement(self):
        src = "import os\nos.replace(a, b)\nos.unlink(c)\nos.fsync(fd)\n"
        findings = lint(src)
        assert active(findings) == ["RA01", "RA01", "RA01"]
        assert "fsio.replace" in findings[0].message

    def test_fsio_calls_pass(self):
        src = (
            "from repro import fsio\n"
            "h = fsio.open_file(p, 'wb')\n"
            "fsio.replace(a, b)\n"
            "fsio.unlink(c)\n"
        )
        assert active(lint(src)) == []

    def test_fsio_module_itself_exempt(self):
        src = "import os\nos.replace(a, b)\n"
        assert active(lint(src, path="src/repro/fsio.py")) == []

    def test_testing_shims_exempt(self):
        src = "h = open(p, 'wb')\n"
        assert active(lint(src, path="src/repro/testing/faults.py")) == []


class TestRA02TmpHygiene:
    UNGUARDED = """\
        from repro import fsio

        def write(path):
            tmp = str(path) + ".tmp"
            handle = fsio.open_file(tmp, "wb")
            handle.write(b"data")
    """
    GUARDED = """\
        from repro import fsio

        def write(path):
            tmp = str(path) + ".tmp"
            try:
                handle = fsio.open_file(tmp, "wb")
                handle.write(b"data")
            except OSError:
                fsio.unlink(tmp)
                raise
    """

    def test_unguarded_tmp_write_flagged(self):
        assert active(lint(self.UNGUARDED)) == ["RA02"]

    def test_guarded_tmp_write_passes(self):
        assert active(lint(self.GUARDED)) == []

    def test_finally_cleanup_counts(self):
        src = self.GUARDED.replace(
            'except OSError:\n                fsio.unlink(tmp)\n                raise',
            "finally:\n                fsio.unlink(tmp)",
        )
        assert active(lint(src)) == []

    def test_path_method_unlink_counts(self):
        src = """\
            def write(path):
                tmp = path.with_suffix(".tmp")
                tmp = str(path) + ".tmp"
                try:
                    h = open(tmp, "rb")
                    h2 = fsio.open_file(tmp, "wb")
                except OSError:
                    tmp.unlink()
                    raise
        """
        assert active(lint(src)) == []

    def test_reading_a_tmp_is_fine(self):
        src = """\
            def read(path):
                tmp = str(path) + ".tmp"
                handle = open(tmp, "rb")
        """
        assert active(lint(src)) == []


class TestRA03Determinism:
    def test_wall_clock_flagged(self):
        assert active(lint("import time\nstamp = time.time()\n")) == ["RA03"]

    def test_datetime_now_flagged(self):
        src = "import datetime\nwhen = datetime.datetime.now()\n"
        assert active(lint(src)) == ["RA03"]

    def test_clock_exempt_in_main_and_testing(self):
        src = "import time\nstamp = time.time()\n"
        assert active(lint(src, path="src/repro/engine/__main__.py")) == []
        assert active(lint(src, path="src/repro/testing/synth.py")) == []

    def test_global_random_flagged_even_in_main(self):
        src = "import random\nx = random.random()\n"
        assert active(lint(src)) == ["RA03"]
        assert active(lint(src, path="src/repro/engine/__main__.py")) == ["RA03"]

    def test_unseeded_random_instance_flagged_seeded_passes(self):
        assert active(lint("rng = random.Random()\n")) == ["RA03"]
        assert active(lint("rng = random.Random(1234)\n")) == []
        assert active(lint("rng = random.Random(seed)\n")) == []

    def test_set_literal_iteration_flagged(self):
        assert active(lint("for x in {1, 2, 3}:\n    emit(x)\n")) == ["RA03"]

    def test_sorted_set_iteration_passes(self):
        assert active(lint("for x in sorted({1, 2, 3}):\n    emit(x)\n")) == []

    def test_local_set_binding_tracked(self):
        src = """\
            def report(xs):
                devices = set(xs)
                for d in devices:
                    emit(d)
        """
        assert active(lint(src)) == ["RA03"]

    def test_order_insensitive_consumers_pass(self):
        src = """\
            def report(xs):
                devices = set(xs)
                total = sum(v for v in devices)
                low = min(devices)
                ordered = sorted(devices)
        """
        assert active(lint(src)) == []

    def test_set_names_do_not_leak_across_functions(self):
        # ``items`` is a set in one function and a list in another; only
        # the set-typed one may be flagged.
        src = """\
            def a(xs):
                items = set(xs)
                return sorted(items)

            def b(xs):
                items = list(xs)
                for i in items:
                    emit(i)
        """
        assert active(lint(src)) == []

    def test_set_comprehension_iteration_flagged(self):
        src = "out = [f(x) for x in {1, 2}]\n"
        assert active(lint(src)) == ["RA03"]


class TestRA04TypedErrors:
    def test_bare_runtime_error_flagged(self):
        src = """\
            def pump(self):
                raise RuntimeError("worker died")
        """
        findings = lint(src)
        assert active(findings) == ["RA04"]
        assert "ShardCrashError" in findings[0].message

    def test_unguarded_value_error_flagged(self):
        src = """\
            def decode(self):
                raise ValueError("corrupt frame")
        """
        assert active(lint(src)) == ["RA04"]

    def test_argument_validation_exempt(self):
        src = """\
            def ingest(self, count):
                if count < 0:
                    raise ValueError(f"negative count: {count}")
        """
        assert active(lint(src)) == []

    def test_derived_value_validation_exempt(self):
        src = """\
            def ingest(self, fixes):
                total = len(fixes)
                if total == 0:
                    raise ValueError("empty batch")
        """
        assert active(lint(src)) == []

    def test_init_validation_exempt(self):
        src = """\
            class Engine:
                def __init__(self, shards):
                    raise ValueError("bad shards")
        """
        assert active(lint(src)) == []

    def test_typed_taxonomy_passes(self):
        src = """\
            def pump(self):
                raise ShardCrashError("worker died", shard=0)
        """
        assert active(lint(src)) == []

    def test_out_of_scope_paths_unchecked(self):
        src = """\
            def anything():
                raise RuntimeError("fine outside the data plane")
        """
        assert active(lint(src, path="src/repro/model/point.py")) == []
        assert active(lint(src, path="src/repro/engine/testing/helper.py")) == []


class TestRA05FloatBitExactness:
    def test_float_of_fstring_flagged(self):
        src = 'x = float(f"{value}")\n'
        findings = lint(src, path="src/repro/storage/codec.py")
        assert active(findings) == ["RA05"]

    def test_float_of_str_call_flagged(self):
        src = "x = float(str(value))\n"
        assert active(lint(src, path="src/repro/engine/journal.py")) == ["RA05"]

    def test_plain_float_conversion_passes(self):
        src = "x = float(raw)\ny = float(3)\n"
        assert active(lint(src, path="src/repro/storage/codec.py")) == []

    def test_out_of_scope_file_unchecked(self):
        src = "x = float(str(value))\n"
        assert active(lint(src, path="src/repro/model/point.py")) == []


class TestRA06ShmLifecycle:
    def test_attach_outside_helper_flagged(self):
        src = """\
            from multiprocessing import shared_memory

            def reader(name):
                shm = shared_memory.SharedMemory(name=name)
        """
        findings = lint(src, path="src/repro/engine/transport.py")
        assert active(findings) == ["RA06"]
        assert "bpo-38119" in findings[0].message

    def test_create_true_passes(self):
        src = """\
            from multiprocessing import shared_memory

            def writer(name, size):
                shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        """
        assert active(lint(src, path="src/repro/engine/transport.py")) == []

    def test_attach_inside_helper_passes(self):
        src = """\
            from multiprocessing import shared_memory
            from multiprocessing import resource_tracker

            def attach_shared_memory(name):
                original = resource_tracker.register
                resource_tracker.register = lambda *a, **k: None
                try:
                    return shared_memory.SharedMemory(name=name)
                finally:
                    resource_tracker.register = original
        """
        assert active(lint(src, path="src/repro/engine/transport.py")) == []

    def test_helper_name_outside_transport_still_flagged(self):
        src = """\
            from multiprocessing import shared_memory

            def attach_shared_memory(name):
                return shared_memory.SharedMemory(name=name)
        """
        assert active(lint(src, path="src/repro/engine/other.py")) == ["RA06"]

    def test_tracker_monkeypatch_outside_helper_flagged(self):
        src = """\
            from multiprocessing import resource_tracker

            def sneaky():
                resource_tracker.register = lambda *a, **k: None
        """
        assert active(lint(src, path="src/repro/engine/transport.py")) == [
            "RA06"
        ]


class TestSuppressions:
    def test_same_line_suppression(self):
        src = "os.unlink(p)  # repro: ignore[RA01] foreign file, not ours\n"
        findings = lint(src)
        assert active(findings) == []
        (f,) = findings
        assert f.suppressed and f.rule == "RA01"
        assert f.justification == "foreign file, not ours"

    def test_standalone_comment_governs_next_line(self):
        src = (
            "# repro: ignore[RA01] cleanup of a path outside the store\n"
            "os.unlink(p)\n"
        )
        findings = lint(src)
        assert active(findings) == []
        assert findings[0].suppressed

    def test_suppression_is_rule_specific(self):
        # an RA02 ignore does not silence an RA01 finding
        src = "os.unlink(p)  # repro: ignore[RA02] wrong rule\n"
        assert active(lint(src)) == ["RA01"]

    def test_multi_rule_suppression(self):
        src = "import time\nt = time.time()  # repro: ignore[RA01, RA03] both\n"
        assert active(lint(src)) == []

    def test_marker_inside_string_is_inert(self):
        src = 'doc = "# repro: ignore[RA01] not a comment"\nos.unlink(p)\n'
        assert active(lint(src)) == ["RA01"]

    def test_strict_flags_missing_justification(self):
        src = "os.unlink(p)  # repro: ignore[RA01]\n"
        findings = lint(src, strict=True)
        assert active(findings) == [META_RULE_ID]
        assert "justification" in findings[0].message

    def test_strict_flags_unused_suppression(self):
        src = "x = 1  # repro: ignore[RA01] nothing here needs this\n"
        findings = lint(src, strict=True)
        assert active(findings) == [META_RULE_ID]
        assert "unused" in findings[0].message

    def test_strict_flags_unknown_rule_id(self):
        src = "x = 1  # repro: ignore[RA99] bogus\n"
        findings = lint(src, strict=True)
        assert active(findings) == [META_RULE_ID]
        assert "RA99" in findings[0].message

    def test_non_strict_tolerates_suppression_hygiene(self):
        src = "os.unlink(p)  # repro: ignore[RA01]\n"
        assert active(lint(src, strict=False)) == []


class TestRunner:
    def test_findings_sorted_and_files_counted(self, tmp_path):
        pkg = tmp_path / "repro" / "engine"
        pkg.mkdir(parents=True)
        (pkg / "b.py").write_text("h = open(p, 'wb')\n")
        (pkg / "a.py").write_text("import os\nos.unlink(p)\nos.replace(a, b)\n")
        findings, checked = run_paths([str(tmp_path)])
        assert checked == 2
        keys = [f.sort_key() for f in findings]
        assert keys == sorted(keys)
        assert [f.rule for f in findings] == ["RA01", "RA01", "RA01"]

    def test_registry_has_all_six_rules(self):
        assert sorted(RULES) == ["RA01", "RA02", "RA03", "RA04", "RA05", "RA06"]


class TestCLI:
    @pytest.fixture()
    def bad_tree(self, tmp_path):
        pkg = tmp_path / "repro" / "engine"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(
            "import os\nos.unlink(p)\n\ndef pump(self):\n"
            "    raise RuntimeError('x')\n"
        )
        return tmp_path

    def test_exit_zero_on_clean_tree(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        proc = run_cli(str(tmp_path))
        assert proc.returncode == 0, proc.stderr

    def test_exit_one_on_findings(self, bad_tree):
        proc = run_cli(str(bad_tree))
        assert proc.returncode == 1
        assert "RA01" in proc.stdout and "RA04" in proc.stdout

    def test_exit_two_on_missing_path(self, tmp_path):
        proc = run_cli(str(tmp_path / "nope.py"))
        assert proc.returncode == 2

    def test_exit_two_on_syntax_error(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        proc = run_cli(str(tmp_path))
        assert proc.returncode == 2

    def test_list_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for rule_id in ("RA00", "RA01", "RA02", "RA03", "RA04", "RA05", "RA06"):
            assert rule_id in proc.stdout

    def test_json_report_shape(self, bad_tree):
        proc = run_cli("--json", "--strict", str(bad_tree))
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["tool"] == "repro.analysis"
        assert doc["version"] == 1
        assert doc["strict"] is True
        assert doc["checked_files"] == 1
        assert doc["exit_code"] == 1
        assert doc["counts"] == {"RA01": 1, "RA04": 1}
        assert len(doc["findings"]) == 2
        for f in doc["findings"]:
            assert set(f) == {
                "rule",
                "path",
                "line",
                "col",
                "message",
                "suppressed",
                "justification",
            }
            assert isinstance(f["line"], int) and f["line"] >= 1
            assert f["suppressed"] is False

    def test_json_includes_suppressed_findings_flagged(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "import os\nos.unlink(p)  # repro: ignore[RA01] cleanup elsewhere\n"
        )
        proc = run_cli("--json", str(tmp_path))
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["exit_code"] == 0
        assert doc["counts"] == {}
        (f,) = doc["findings"]
        assert f["suppressed"] is True
        assert f["justification"] == "cleanup elsewhere"

    def test_shipped_tree_is_strict_clean(self):
        """The gate CI enforces: the real src/ tree lints clean."""
        proc = run_cli("--strict", "src")
        assert proc.returncode == 0, f"\n{proc.stdout}\n{proc.stderr}"


class TestFixedViolations:
    """Regression tests for the violations the linter surfaced."""

    def test_fsio_unlink_routes_through_shim(self, tmp_path):
        target = tmp_path / "victim"
        target.write_bytes(b"x")
        shim = FaultyFS()
        with fsio.injected(shim):
            fsio.unlink(target)
        assert shim.unlinks == 1
        assert not target.exists()

    def test_fsio_unlink_falls_back_without_shim_support(self, tmp_path):
        class Minimal:
            def open(self, path, mode="rb", **kw):
                return open(path, mode, **kw)

            def replace(self, src, dst):
                raise AssertionError("unused")

            def fsync(self, fd):
                raise AssertionError("unused")

        target = tmp_path / "victim"
        target.write_bytes(b"x")
        with fsio.injected(Minimal()):
            fsio.unlink(target)
        assert not target.exists()

    def test_store_manifest_tmp_cleanup_goes_through_seam(self, tmp_path):
        # A manifest rename that fails must clean its .tmp via the seam
        # (visible to fault injection), not via a raw os.unlink.
        store = TrajectoryStore(tmp_path / "store")
        shim = FaultyFS(fail_replace_at=1)
        try:
            with fsio.injected(shim):
                with pytest.raises(OSError):
                    store._write_manifest()
            assert shim.unlinks >= 1
            assert not list((tmp_path / "store").glob("*.tmp"))
        finally:
            store.close()

    def test_unsupported_store_format_raises_typed_value_error(self, tmp_path):
        directory = tmp_path / "store"
        directory.mkdir()
        (directory / "manifest.json").write_text(json.dumps({"format": 99}))
        with pytest.raises(StoreFormatError) as exc_info:
            TrajectoryStore(directory)
        assert isinstance(exc_info.value, ValueError)
        assert "format 99" in str(exc_info.value)
