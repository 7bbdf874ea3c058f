"""Evaluation harness tests: synthetic data, suite runs, CLI entry point."""

import dataclasses

import pytest

from repro.compression import evaluate, evaluate_suite, synthetic_track
from repro.compression.evaluate import format_rows, main, synthetic_track as st


class TestSyntheticTrack:
    def test_deterministic_per_seed(self):
        assert synthetic_track(50, seed=3) == synthetic_track(50, seed=3)
        assert synthetic_track(50, seed=3) != synthetic_track(50, seed=4)

    def test_timestamps_and_length(self):
        pts = synthetic_track(100, seed=1, dt=2.0)
        assert len(pts) == 100
        assert [p.t for p in pts] == [2.0 * i for i in range(100)]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            synthetic_track(0)


class TestEvaluateSuite:
    def test_all_algorithms_reported_and_bounded(self):
        pts = synthetic_track(1500, seed=5)
        rows = evaluate_suite(pts, epsilon=12.0)
        names = {r.algorithm for r in rows}
        assert {"bqs", "fast-bqs", "dead-reckoning", "uniform",
                "douglas-peucker", "td-tr"} <= names
        for row in rows:
            assert row.original_points == 1500
            assert 0 < row.key_points < 1500
            assert row.push_seconds_per_point >= 0.0
            if row.error_bounded:
                assert row.within_bound, row.algorithm

    def test_total_cost_includes_finish_work(self):
        """Batch baselines do their compression in finish(); the comparable
        per-point figure must include it."""
        pts = synthetic_track(2000, seed=9)
        rows = evaluate_suite(pts, epsilon=10.0)
        by_name = {r.algorithm: r for r in rows}
        dp = by_name["douglas-peucker"]
        assert dp.finish_seconds > 0.0
        assert dp.total_seconds_per_point > dp.push_seconds_per_point

    def test_fast_bqs_never_buffers_in_evaluation(self):
        pts = synthetic_track(1000, seed=6)
        rows = evaluate_suite(pts, epsilon=10.0)
        by_name = {r.algorithm: r for r in rows}
        assert by_name["fast-bqs"].peak_buffered_points == 0
        assert by_name["douglas-peucker"].peak_buffered_points == 1000

    def test_format_rows_renders_table(self):
        pts = synthetic_track(300, seed=2)
        text = format_rows(evaluate_suite(pts, epsilon=10.0))
        assert "bqs" in text and "max dev" in text


class TestCLI:
    def test_main_runs(self, capsys):
        assert main(["--points", "400", "--epsilon", "8", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "400 points" in out
        assert "td-tr" in out

    def test_noisy_run_exits_zero(self, capsys):
        assert main(["--points", "1500", "--epsilon", "10", "--noise", "2.5"]) == 0
        assert capsys.readouterr().err == ""

    def test_exits_one_when_a_bounded_row_breaks_its_bound(self, monkeypatch, capsys):
        real = evaluate.evaluate_suite

        def broken_suite(points, epsilon, uniform_period=10):
            rows = real(points, epsilon, uniform_period)
            bqs = next(r for r in rows if r.algorithm == "bqs")
            rows[rows.index(bqs)] = dataclasses.replace(bqs, max_deviation=2 * epsilon)
            return rows

        monkeypatch.setattr(evaluate, "evaluate_suite", broken_suite)
        assert main(["--points", "300", "--epsilon", "8"]) == 1
        captured = capsys.readouterr()
        assert "bqs" in captured.err and "exceeds epsilon" in captured.err
        # The unbounded uniform sampler never fails the run.
        assert "uniform" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--points", "0"],
            ["--points", "-5"],
            ["--points", "ten"],
            ["--epsilon", "-1"],
            ["--epsilon", "0"],
            ["--epsilon", "nan"],
            ["--epsilon", "inf"],
            ["--uniform-period", "0"],
            ["--noise", "-1"],
            ["--noise", "nan"],
        ],
    )
    def test_bad_arguments_are_usage_errors(self, argv, capsys):
        """Exit status 1 means "a bound was broken"; a bad argument must
        not look like that.  argparse reports it in one line, status 2,
        before any compressor runs."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error_lines = [
            line for line in captured.err.splitlines() if "error:" in line
        ]
        assert len(error_lines) == 1
        assert f"argument {argv[0]}:" in error_lines[0]
        assert "Traceback" not in captured.err

    def test_boundary_arguments_accepted(self, capsys):
        assert main(
            ["--points", "1", "--epsilon", "0.5", "--uniform-period", "1",
             "--noise", "0"]
        ) == 0
        assert "1 points" in capsys.readouterr().out
