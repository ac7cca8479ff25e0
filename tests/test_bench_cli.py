"""Benchmark harness: extrapolation, studies, table configs, CLI verbs."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from parisian import bench_cli
from parisian.bench_cli import (
    AcceptanceCell,
    REFERENCE_TABLES,
    StudyConfig,
    StudyRow,
    _evaluate_cell,
    build_named_model,
    bump_greeks,
    load_config_file,
    main,
    observed_order,
    price_point,
    reference_option,
    richardson,
    run_study,
    write_plot_csv,
    write_study_csv,
)


# ---------------------------------------------------------------------------
# extrapolation
# ---------------------------------------------------------------------------


class TestRichardson:
    def test_recovers_limit_of_second_order_sequence(self):
        a, b = 7.25, -40.0
        pts = [(n, a + b / n**2) for n in (100, 150, 225)]
        for x in richardson(pts):
            assert x == pytest.approx(a, abs=1e-12)

    def test_converged_pair_is_fixed_point(self):
        assert richardson([(100, 3.5), (200, 3.5)]) == [pytest.approx(3.5)]

    def test_custom_order_is_exact_for_matching_decay(self):
        a, b, q = 2.0, 5.0, 1.2
        pts = [(n, a + b / n**q) for n in (64, 128)]
        assert richardson(pts, order=q)[0] == pytest.approx(a, abs=1e-12)

    def test_one_value_per_adjacent_pair(self):
        assert len(richardson([(1, 1.0), (2, 2.0), (4, 3.0), (8, 4.0)])) == 3

    def test_equal_grid_sizes_rejected(self):
        with pytest.raises(ValueError):
            richardson([(128, 1.0), (128, 2.0)])

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            richardson([(128, 1.0)])


class TestObservedOrder:
    def test_recovers_power_law(self):
        pts = [(n, 3.0 * n**-1.7) for n in (50, 100, 200, 400)]
        assert observed_order(pts) == pytest.approx(1.7, abs=1e-10)

    def test_needs_two_positive_errors(self):
        with pytest.raises(ValueError):
            observed_order([(100, 0.5), (200, None)])


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_BS_PARAMS = {"r_f": 0.1, "dividend": 0.05, "sigma": 0.3}


def _small_cfg(**overrides):
    base = dict(
        model="bs",
        model_params=_BS_PARAMS,
        flavor="down-in",
        spot=90.0,
        strike=95.0,
        barrier=90.0,
        window=1.0 / 12.0,
        rate=0.1,
        grids=(65, 97),
        lo=0.0,
        hi=720.0,
        split="sqrt",
    )
    base.update(overrides)
    return StudyConfig(**base)


class TestStudyConfig:
    def test_grid_list_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            _small_cfg(grids=(97, 97))
        with pytest.raises(ValueError, match="strictly increasing"):
            _small_cfg(grids=(97, 65))

    def test_finite_maturity_needs_dt(self):
        with pytest.raises(ValueError, match="dt"):
            _small_cfg(maturity=1.0)

    def test_down_out_needs_duration_step(self):
        with pytest.raises(ValueError, match="dd"):
            _small_cfg(flavor="down-out")

    def test_benchmark_and_self_benchmark_conflict(self):
        with pytest.raises(ValueError, match="self_benchmark"):
            _small_cfg(benchmark=26.3, self_benchmark=True)

    def test_benchmark_is_optional(self):
        assert _small_cfg().benchmark is None

    def test_spot_must_lie_inside_an_explicit_domain(self):
        # the domain ends are absorbing: a spot on or past one would be
        # quoted at the boundary state's value
        with pytest.raises(ValueError, match="lower end"):
            _small_cfg(lo=90.0)
        with pytest.raises(ValueError, match="upper end"):
            _small_cfg(spot=720.0)
        with pytest.raises(ValueError, match="upper end"):
            _small_cfg(spot=900.0, lo=10.0)
        assert _small_cfg(spot=900.0, lo=None, hi=None).spot == 900.0

    def test_from_mapping_aliases_and_param_prefix(self):
        cfg = StudyConfig.from_mapping(
            {
                "model": "bs",
                "param.r_f": 0.1,
                "param.dividend": 0.05,
                "param.sigma": "0.3",
                "flavor": "down-in",
                "maturity": "perpetual",
                "spot": 90,
                "strike": 95,
                "barrier": 90,
                "window": 1 / 12,
                "rate": 0.1,
                "grids": "65,97",
                "ymin": 0,
                "ymax": 720,
                "split": "sqrt",
                "out": "table.csv",
                "plot_data": "plot.csv",
            }
        )
        assert cfg.model_params == _BS_PARAMS
        assert math.isinf(cfg.maturity)
        assert cfg.grids == (65, 97)
        assert cfg.lo == 0.0 and cfg.hi == 720.0
        assert cfg.csv_out == "table.csv" and cfg.plot_out == "plot.csv"

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            StudyConfig.from_mapping({"model": "bs", "window_size": 3})
        # the LCP solver is fixed; a config that still names one fails loudly
        with pytest.raises(ValueError, match="unknown config keys.*solver"):
            StudyConfig.from_mapping({"model": "bs", "solver": "lemke"})
        # no pricer draws random numbers; a config seed fails loudly too
        with pytest.raises(ValueError, match="unknown config keys.*seed"):
            StudyConfig.from_mapping({"model": "bs", "seed": 3})


class TestBuildNamedModel:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown model"):
            build_named_model("heston", {})

    def test_missing_and_extra_parameters(self):
        with pytest.raises(ValueError, match="missing"):
            build_named_model("bs", {"sigma": 0.3})
        with pytest.raises(ValueError, match="unknown parameters"):
            build_named_model("bs", {**_BS_PARAMS, "skew": 1.0})

    def test_dividend_defaults_to_zero(self):
        model = build_named_model("bs", {"r_f": 0.05, "sigma": 0.2})
        assert model.drift(0.0, 100.0) == pytest.approx(5.0)

    def test_coordinate_conventions(self):
        bs = build_named_model("bs", _BS_PARAMS)
        kou = build_named_model(
            "kou",
            {
                "sigma": 0.3,
                "lam": 3.0,
                "eta_plus": 10.0,
                "eta_minus": 10.0,
                "p_plus": 0.5,
                "p_minus": 0.5,
                "r_f": 0.05,
            },
        )
        assert float(bs.state_of_price(90.0)) == pytest.approx(90.0)
        assert float(kou.state_of_price(90.0)) == pytest.approx(math.log(90.0))


class TestConfigFile:
    def test_key_value_format(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "model = bs\n"
            "param.sigma = 0.3\n"
            "grids = 65, 97\n"
            "maturity = perpetual\n",
            encoding="utf-8",
        )
        data = load_config_file(path)
        assert data["model"] == "bs"
        assert data["param.sigma"] == pytest.approx(0.3)
        assert data["grids"] == [65, 97]
        assert data["maturity"] == "perpetual"

    def test_json_format(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"model": "bs", "model_params": {"sigma": 0.3}}')
        data = load_config_file(path)
        assert data["model_params"] == {"sigma": 0.3}

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("model bs\n")
        with pytest.raises(ValueError, match="bad config line"):
            load_config_file(path)


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------


class TestRunStudy:
    def test_without_benchmark_prices_only(self):
        rows = run_study(_small_cfg())
        assert [r.n for r in rows] == [65, 97]
        assert all(r.price is not None for r in rows)
        assert all(r.abs_error is None and r.rel_error is None for r in rows)
        assert rows[1].extrapolated is not None

    def test_with_benchmark_fills_errors(self):
        rows = run_study(_small_cfg(benchmark=26.3239))
        for r in rows:
            assert r.abs_error == pytest.approx(abs(r.price - 26.3239))
            assert r.rel_error == pytest.approx(r.abs_error / 26.3239)
        assert rows[1].extra_rel_error is not None

    def test_failed_row_recorded_and_study_continues(self, monkeypatch):
        import parisian.bench_cli as bench

        real = bench.price_point

        def flaky(cfg, n):
            if n == 97:
                raise RuntimeError("synthetic failure")
            return real(cfg, n)

        monkeypatch.setattr(bench, "price_point", flaky)
        rows = run_study(_small_cfg(grids=(65, 97, 129), benchmark=26.3239))
        assert rows[0].price is not None and rows[0].error == ""
        assert rows[1].price is None
        assert "synthetic failure" in rows[1].error
        assert rows[1].abs_error is None
        assert rows[2].price is not None
        # the broken row interrupts the extrapolation chain
        assert rows[2].extrapolated is None

    def test_self_benchmark_uses_finest_grid(self):
        rows = run_study(_small_cfg(grids=(65, 97, 129), self_benchmark=True))
        finest = rows[-1]
        assert finest.abs_error is None and finest.rel_error is None
        for r in rows[:-1]:
            assert r.abs_error == pytest.approx(abs(r.price - finest.price))

    def test_jobs_do_not_change_values(self):
        cfg = _small_cfg(benchmark=26.3239)
        seq = run_study(cfg, jobs=1)
        par = run_study(cfg, jobs=3)
        for a, b in zip(seq, par):
            assert a.price == b.price
            assert a.extrapolated == b.extrapolated

    def test_convergence_study_meets_gate(self):
        """Published-layout study: errors fall monotonically and the last
        extrapolation lands within the gated tolerance of the benchmark."""

        opt = reference_option("bs", "perpetual-down-in")
        rows = run_study(opt.config)
        errs = [r.rel_error for r in rows]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert rows[-1].extra_rel_error <= 0.0015
        assert rows[-1].extrapolated == pytest.approx(26.3196, abs=0.02)

    def test_self_benchmark_convergence_order_is_sane(self):
        # doubling grids keep the pseudo-benchmark clear of the rows that
        # are measured against it; closely spaced grids would overstate
        # the slope of the differences
        opt = reference_option("bs", "perpetual-down-in")
        cfg = _replace(
            opt.config,
            grids=(65, 97, 129, 513),
            benchmark=None,
            benchmark_note="",
            self_benchmark=True,
        )
        rows = run_study(cfg)
        pts = [(r.n, r.abs_error) for r in rows if r.abs_error is not None]
        assert 0.8 <= observed_order(pts) <= 2.5

    def test_convergence_order_script_runs_without_an_install(self, tmp_path):
        # the script finds the pricer in the checkout's src/ on its own,
        # from any working directory and with no PYTHONPATH
        root = Path(__file__).resolve().parents[1]
        script = root / "scripts" / "convergence_order.py"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        out = subprocess.run(
            [sys.executable, str(script), "--grids", "17,25", "--factor", "2"],
            capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        for flavor in ("perpetual-down-in", "perpetual-down-out",
                       "finite-down-in", "finite-down-out"):
            assert sum(line.split()[0] == flavor and "observed order" in line
                       for line in lines if line.strip()) == 1, flavor


def _replace(cfg, **kw):
    import dataclasses

    return dataclasses.replace(cfg, **kw)


class TestCsvOutputs:
    def test_study_csv_layout(self, tmp_path):
        rows = run_study(_small_cfg(benchmark=26.3239))
        path = tmp_path / "study.csv"
        write_study_csv(rows, path, benchmark=26.3239)
        with open(path, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        assert table[0] == [
            "Grid", "Benchmark", "CTMC", "Abs.Err.", "Rel.Err.",
            "Time/s", "Extra.", "Abs.Err.", "Rel.Err.",
        ]
        assert table[1][0] == "65" and table[1][1] == "26.3239"
        assert table[1][6] == "" and table[2][6] != ""

    def test_plot_csv_is_n_error_series(self, tmp_path):
        rows = run_study(_small_cfg(benchmark=26.3239))
        path = tmp_path / "plot.csv"
        write_plot_csv(rows, path)
        with open(path, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        assert table[0] == ["n", "error"]
        assert len(table) == 3
        assert float(table[1][1]) == pytest.approx(rows[0].abs_error)

    def test_deterministic_output_excluding_timing(self, tmp_path):
        cfg = _small_cfg(benchmark=26.3239)
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path, jobs in zip(paths, (1, 2)):
            rows = run_study(_replace(cfg, csv_out=str(path)), jobs=jobs)
            assert rows
        TIME_COL = 5

        def strip_time(path):
            with open(path, newline="", encoding="utf-8") as fh:
                return [
                    [cell for i, cell in enumerate(row) if i != TIME_COL]
                    for row in csv.reader(fh)
                ]

        assert strip_time(paths[0]) == strip_time(paths[1])


# ---------------------------------------------------------------------------
# reference tables
# ---------------------------------------------------------------------------


class TestReferenceTables:
    def test_every_block_is_well_formed(self):
        seen = set()
        for model, options in REFERENCE_TABLES.items():
            keys = [opt.key for opt in options]
            assert keys == [
                "perpetual-down-in",
                "perpetual-down-out",
                "finite-down-in",
                "finite-down-out",
            ]
            for opt in options:
                seen.add((model, opt.key))
                assert len(opt.published) == len(opt.config.grids)
                assert opt.config.benchmark is not None
                for cell in opt.acceptance:
                    assert cell.n in opt.config.grids
        assert len(seen) == 12

    def test_reference_rows_trend_toward_benchmarks(self):
        # each published row should approach its benchmark as grids refine
        for options in REFERENCE_TABLES.values():
            for opt in options:
                bench = opt.config.benchmark
                gaps = [abs(v - bench) for v in opt.published]
                assert gaps[-1] < gaps[0]

    def test_published_extrapolation_consistency(self):
        # the stored reference row reproduces its own printed extrapolated
        # value and lands within 0.05% of the stored benchmark
        opt = reference_option("bs", "perpetual-down-in")
        pair = list(zip(opt.config.grids, opt.published))[-2:]
        extra = richardson(pair)[0]
        assert extra == pytest.approx(26.3196, abs=5e-4)
        assert abs(extra - opt.config.benchmark) / opt.config.benchmark <= 5e-4

    def test_lookup_unknown_block(self):
        with pytest.raises(KeyError):
            reference_option("bs", "upside-down")


class TestEvaluateCell:
    @staticmethod
    def _row(n, rel, extra_rel, err=""):
        return StudyRow(
            n=n, price=1.0, abs_error=rel, rel_error=rel, seconds=0.0,
            extrapolated=1.0, extra_abs_error=extra_rel, extra_rel_error=extra_rel,
            error=err,
        )

    def test_raw_and_extrapolated_kinds(self):
        rows = [self._row(129, 0.004, None), self._row(161, 0.002, 0.0009)]
        assert _evaluate_cell(AcceptanceCell("a", "raw", 161, 0.003), rows).passed
        assert not _evaluate_cell(AcceptanceCell("b", "raw", 129, 0.003), rows).passed
        assert _evaluate_cell(
            AcceptanceCell("c", "extrapolated", 161, 0.001), rows
        ).passed

    def test_missing_row_or_value_fails(self):
        rows = [self._row(129, None, None, err="boom")]
        assert not _evaluate_cell(AcceptanceCell("a", "raw", 257, 0.01), rows).passed
        check = _evaluate_cell(AcceptanceCell("b", "raw", 129, 0.01), rows)
        assert not check.passed and "boom" in check.detail

    def test_fallback_accepts_halved_decreasing_errors(self):
        rows = [self._row(129, 0.08, None), self._row(161, 0.06, 0.02)]
        cell = AcceptanceCell("x", "extrapolated", 161, 0.01, fallback_half_raw=True)
        assert _evaluate_cell(cell, rows).passed

    def test_fallback_requires_decreasing_raw_errors(self):
        rows = [self._row(129, 0.05, None), self._row(161, 0.06, 0.02)]
        cell = AcceptanceCell("x", "extrapolated", 161, 0.01, fallback_half_raw=True)
        assert not _evaluate_cell(cell, rows).passed


# ---------------------------------------------------------------------------
# CLI verbs
# ---------------------------------------------------------------------------

_PRICE_ARGS = [
    "price",
    "--model", "bs",
    "--flavor", "down-in",
    "--maturity", "perpetual",
    "--spot", "90", "--strike", "95", "--barrier", "90",
    "--window", "0.08333333333333333", "--rate", "0.1",
    "--param", "r_f=0.1", "--param", "dividend=0.05", "--param", "sigma=0.3",
    "--ymin", "0", "--ymax", "720", "--split", "sqrt",
    "--n", "129",
]


class TestCli:
    def test_price_verb(self, capsys):
        assert main(_PRICE_ARGS) == 0
        out = capsys.readouterr().out
        value = float(out.split()[1])
        assert value == pytest.approx(26.1536, abs=2e-3)

    def test_price_greeks(self, capsys):
        assert main(_PRICE_ARGS + ["--greeks"]) == 0
        out = capsys.readouterr().out
        assert "delta " in out and "gamma " in out

    def test_price_requires_grid_size(self, capsys):
        assert main(_PRICE_ARGS[:-2]) == 2
        assert "needs --n" in capsys.readouterr().err

    def test_price_with_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "contract.cfg"
        cfg.write_text(
            "model = bs\n"
            "param.r_f = 0.1\nparam.dividend = 0.05\nparam.sigma = 0.3\n"
            "flavor = down-in\nmaturity = perpetual\n"
            "spot = 90\nstrike = 95\nbarrier = 90\n"
            "window = 0.08333333333333333\nrate = 0.1\n"
            "ymin = 0\nymax = 720\nsplit = sqrt\nn = 129\n",
            encoding="utf-8",
        )
        assert main(["price", "--config", str(cfg)]) == 0
        assert float(capsys.readouterr().out.split()[1]) == pytest.approx(
            26.1536, abs=2e-3
        )

    def test_price_surface_and_generator_dump(self, tmp_path, capsys):
        surface = tmp_path / "surface.csv"
        gen_csv = tmp_path / "gen.csv"
        args = [
            "price",
            "--model", "bs",
            "--flavor", "down-out",
            "--maturity", "0.5",
            "--dt", "0.05", "--dd", "0.05",
            "--spot", "90", "--strike", "95", "--barrier", "90",
            "--window", "0.1", "--rate", "0.1",
            "--param", "r_f=0.1", "--param", "dividend=0.05",
            "--param", "sigma=0.3",
            "--n", "33",
            "--full-surface", str(surface),
            "--dump-generator", str(gen_csv),
        ]
        assert main(args) == 0
        with open(surface, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "d", "state", "price"]
        assert len(rows) > 100
        durations = sorted({float(r[1]) for r in rows[1:]})
        assert durations[0] == 0.0 and durations[-1] > 0.1
        with open(gen_csv, newline="", encoding="utf-8") as fh:
            grows = list(csv.reader(fh))
        assert grows[0] == ["i", "j", "rate"]
        assert len(grows) > 33

    def test_downin_surface_columns(self, tmp_path):
        surface = tmp_path / "surface.csv"
        assert main(_PRICE_ARGS + ["--full-surface", str(surface)]) == 0
        with open(surface, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "state", "price"]
        assert len(rows) == 130

    def test_study_verb(self, tmp_path, capsys):
        out_csv = tmp_path / "study.csv"
        args = [
            "study",
            "--model", "bs",
            "--flavor", "down-in",
            "--maturity", "perpetual",
            "--spot", "90", "--strike", "95", "--barrier", "90",
            "--window", "0.08333333333333333", "--rate", "0.1",
            "--param", "r_f=0.1", "--param", "dividend=0.05",
            "--param", "sigma=0.3",
            "--ymin", "0", "--ymax", "720", "--split", "sqrt",
            "--grids", "65,97",
            "--benchmark", "26.3239",
            "--out", str(out_csv),
            "--jobs", "2",
        ]
        assert main(args) == 0
        assert "Grid" in capsys.readouterr().out
        assert out_csv.exists()

    def test_verify_verb(self, capsys):
        assert main(["verify", "--suite", "lcp"]) == 0
        assert "300/300" in capsys.readouterr().out

    def test_reproduce_table_passes_for_bs(self, tmp_path, capsys):
        out_dir = tmp_path / "tables"
        assert main(["reproduce-table", "bs", "--jobs", "2",
                     "--out-dir", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS (8/8 acceptance cells)" in out
        assert "26.3239" in out
        written = sorted(p.name for p in out_dir.iterdir())
        assert "bs-perpetual-down-in.csv" in written
        assert "bs-perpetual-down-in-plot.csv" in written
        assert len(written) == 8

    def test_reproduce_table_runs_every_table_named(self, monkeypatch, capsys):
        # the verb grades each table it is given and fails if any one fails
        class Report:
            def __init__(self, name, passed):
                self.name, self.all_pass = name, passed

            def format(self):
                return f"benchmark table: {self.name}"

        seen = []

        def fake(name, jobs, out_dir):
            seen.append((name, jobs, out_dir))
            return Report(name, name != "vg")

        monkeypatch.setattr(bench_cli, "reproduce_table", fake)
        assert main(["reproduce-table", "bs", "kou", "--jobs", "3"]) == 0
        assert seen == [("bs", 3, None), ("kou", 3, None)]
        out = capsys.readouterr().out
        assert "table: bs" in out and "table: kou" in out
        assert main(["reproduce-table", "vg", "bs"]) == 1
        assert [name for name, _, _ in seen[2:]] == ["vg", "bs"]


class TestBumpGreeks:
    def test_vanilla_like_call_delta_in_unit_interval(self):
        cfg = _small_cfg(flavor="down-out", dd=1.0 / 24.0, window=1.0 / 12.0)
        outcome = price_point(cfg, 97)
        delta, gamma = bump_greeks(outcome, cfg.spot, 0.01)
        # a knock-out call loses value as the spot falls toward the barrier
        assert delta > 0.0
        assert math.isfinite(gamma)

    def test_rejects_nonpositive_bump(self):
        cfg = _small_cfg()
        outcome = price_point(cfg, 65)
        with pytest.raises(ValueError):
            bump_greeks(outcome, cfg.spot, 0.0)

    def test_rejects_bumped_spot_outside_grid(self):
        outcome = price_point(_small_cfg(spot=400.0), 65)
        assert math.isfinite(bump_greeks(outcome, 400.0, 0.5)[0])
        with pytest.raises(ValueError, match="outside the grid"):
            bump_greeks(outcome, 400.0, 0.9)  # 760 lies above the grid
        with pytest.raises(ValueError, match="outside the grid"):
            bump_greeks(outcome, 90.0, 1.5)  # -45 lies below it, 225 inside
        # log coordinates: spot - h = 0 maps to a non-finite state
        cfg = _small_cfg(model="kou", lo=None, hi=None, model_params={
            "sigma": 0.3, "lam": 3.0, "eta_plus": 10.0, "eta_minus": 10.0,
            "p_plus": 0.5, "p_minus": 0.5, "r_f": 0.05})
        with pytest.raises(ValueError, match="outside the grid"):
            bump_greeks(price_point(cfg, 65), cfg.spot, 1.0)
