import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lapmult.cli import EXIT_BUDGET, EXIT_CHECK_FAILURE, EXIT_CONFIG_ERROR, EXIT_OK, main
from lapmult.config import ConfigError, parse_config
from lapmult.multiplier import SampledMultiplier, StepMultiplier
from lapmult.runner import inequalities_csv, report_json, run_config

MINIMAL = {
    "schema": "lapmult-config-1",
    "suites": [
        {
            "check": "markov_conditions",
            "chain": {"seed": 42, "n": 5, "conductance_scale": 1.0},
            "time": 0.7,
            "tol": 1e-10,
        }
    ],
}


def single_state_crosscheck(horizon):
    return {"schema": "lapmult-config-1", "suites": [
        {"check": "mc_crosscheck", "seed": 1, "n": 1,
         "dilation": {"horizon": horizon, "epsilon": 0.8, "mode": "mc", "samples": 10, "seed": 2}}]}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestParsing:
    def test_minimal_config(self):
        config = parse_config(MINIMAL)
        assert len(config.suites) == 1
        assert config.suites[0].check == "markov_conditions"

    def test_requires_schema(self):
        with pytest.raises(ConfigError):
            parse_config({"suites": MINIMAL["suites"]})

    def test_unknown_check(self):
        bad = {"schema": "lapmult-config-1", "suites": [{"check": "nope"}]}
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_missing_seed_rejected(self):
        bad = {
            "schema": "lapmult-config-1",
            "suites": [{"check": "step_identity", "instances": 3}],
        }
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_malformed_multiplier_rejected(self):
        bad = {
            "schema": "lapmult-config-1",
            "suites": [
                {
                    "check": "step_convergence",
                    "chain": {"seed": 1, "n": 3, "conductance_scale": 1.0},
                    "field_seed": 2,
                    "piece_counts": [2, 4],
                    "multiplier": {"type": "step", "breakpoints": [0.5, 1.0], "values": [1.0]},
                }
            ],
        }
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_step_multiplier_complex_pairs(self):
        cfg = {
            "schema": "lapmult-config-1",
            "suites": [
                {
                    "check": "multiplier_pnorm",
                    "chain": {"seed": 3, "n": 4, "conductance_scale": 1.0},
                    "multiplier": {
                        "type": "step",
                        "breakpoints": [0.0, 1.0, 2.0],
                        "values": [[1.0, -0.5], 2.0],
                    },
                    "p_grid": [1.5, 2],
                    "probes": 8,
                    "ascent_steps": 2,
                    "probe_seed": 0,
                }
            ],
        }
        spec = parse_config(cfg).suites[0]
        multiplier = spec.kwargs["multiplier"]
        assert isinstance(multiplier, StepMultiplier)
        assert multiplier.values[0] == 1.0 - 0.5j

    def test_explicit_chain_matrices(self):
        cfg = {
            "schema": "lapmult-config-1",
            "suites": [
                {
                    "check": "markov_conditions",
                    "chain": {"weights": [0.5, 0.5], "generator": [[0.7, -0.7], [-0.7, 0.7]]},
                    "time": 1.0,
                }
            ],
        }
        spec = parse_config(cfg).suites[0]
        assert spec.kwargs["chain"].entries.shape == (2, 2)

    def test_invalid_explicit_chain_is_config_error(self):
        cfg = {
            "schema": "lapmult-config-1",
            "suites": [
                {
                    "check": "markov_conditions",
                    "chain": {"weights": [0.5, 0.5], "generator": [[0.7, 0.7], [-0.7, 0.7]]},
                }
            ],
        }
        with pytest.raises(ConfigError):
            parse_config(cfg)

    def test_field_literal_with_pairs(self):
        cfg = {
            "schema": "lapmult-config-1",
            "suites": [
                {
                    "check": "step_convergence",
                    "chain": {"seed": 1, "n": 3, "conductance_scale": 1.0},
                    "field": [[1.0, 2.0], 0.5, [0.0, -1.0]],
                    "piece_counts": [2, 4],
                    "multiplier": {"type": "sampled", "name": "exp", "t_max": 3.0, "grid": 65},
                }
            ],
        }
        spec = parse_config(cfg).suites[0]
        assert np.array_equal(spec.kwargs["field"], [1 + 2j, 0.5, -1j])

    def test_field_literal_and_seed_conflict(self):
        cfg = {
            "schema": "lapmult-config-1",
            "suites": [
                {
                    "check": "step_convergence",
                    "chain": {"seed": 1, "n": 3, "conductance_scale": 1.0},
                    "field": [1.0, 2.0, 3.0],
                    "field_seed": 4,
                    "piece_counts": [2],
                    "multiplier": {"type": "sampled", "name": "exp", "t_max": 3.0, "grid": 65},
                }
            ],
        }
        with pytest.raises(ConfigError):
            parse_config(cfg)

    def test_p_grid_rejects_endpoints_for_pnorm(self):
        cfg = {
            "schema": "lapmult-config-1",
            "suites": [
                {
                    "check": "multiplier_pnorm",
                    "chain": {"seed": 3, "n": 4, "conductance_scale": 1.0},
                    "multiplier": {"type": "step", "breakpoints": [0.0, 1.0], "values": [1.0]},
                    "p_grid": [1, 2],
                    "probes": 8,
                    "ascent_steps": 2,
                    "probe_seed": 0,
                }
            ],
        }
        with pytest.raises(ConfigError):
            parse_config(cfg)

    def test_imaginary_power_multiplier(self):
        cfg = {
            "schema": "lapmult-config-1",
            "suites": [
                {
                    "check": "multiplier_pnorm",
                    "chain": {"seed": 3, "n": 4, "conductance_scale": 1.0},
                    "multiplier": {
                        "type": "sampled",
                        "name": "imaginary_power",
                        "gamma": 1.0,
                        "t_max": 20.0,
                        "grid": 801,
                    },
                    "p_grid": [2],
                    "probes": 8,
                    "ascent_steps": 2,
                    "probe_seed": 0,
                }
            ],
        }
        spec = parse_config(cfg).suites[0]
        assert isinstance(spec.kwargs["multiplier"], SampledMultiplier)

    def test_negative_tolerance_rejected(self):
        bad = dict(MINIMAL)
        bad["suites"] = [dict(MINIMAL["suites"][0], tol=-1.0)]
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_mc_mode_rejected_for_exact_checks(self):
        bad = {
            "schema": "lapmult-config-1",
            "suites": [
                {
                    "check": "dilation_identity",
                    "seed": 1,
                    "instances": 2,
                    "dilation": {"epsilon": 0.8, "mode": "mc", "seed": 1, "samples": 100},
                }
            ],
        }
        with pytest.raises(ConfigError):
            parse_config(bad)


class TestRunner:
    def test_overall_pass_and_report_shape(self):
        outcome = run_config(parse_config(MINIMAL))
        assert outcome.overall_pass
        assert outcome.report["schema"] == "lapmult-report-3"
        assert [s["name"] for s in outcome.report["suites"]] == ["markov_conditions"]

    def test_each_requested_check_appears_once(self):
        cfg = {
            "schema": "lapmult-config-1",
            "suites": [
                MINIMAL["suites"][0],
                {"check": "step_identity", "seed": 5, "instances": 3},
                {"check": "l2_bound", "seed": 5, "instances": 3},
            ],
        }
        outcome = run_config(parse_config(cfg))
        names = [s["name"] for s in outcome.report["suites"]]
        assert names == ["markov_conditions", "step_identity", "l2_bound"]

    def test_reports_identical_across_runs_and_threads(self, cold_step_family):
        cfg = {
            "schema": "lapmult-config-1",
            "suites": [
                MINIMAL["suites"][0],
                {"check": "step_identity", "seed": 5, "instances": 4},
                {
                    "check": "transform_pnorm",
                    "seed": 6,
                    "instances": 3,
                    "max_n": 4,
                    "max_horizon": 4,
                    "dilation": {"epsilon": 0.8, "mode": "exact"},
                    "p_grid": [1.5, 2],
                },
                {
                    "check": "imaginary_powers",
                    "chain": {"seed": 11, "n": 5},
                    "gammas": [0.5, 1.0],
                    "t_max": 8.0,
                    "grid": 401,
                },
                {
                    "check": "step_convergence",
                    "chain": {"seed": 7, "n": 4},
                    "field_seed": 5,
                    "multiplier": {"type": "sampled", "name": "exp", "t_max": 4.0, "grid": 129},
                    "piece_counts": [4, 8, 16],
                    "rel_tol": 0.05,
                },
            ],
        }
        config = parse_config(cfg)
        reports = []
        for threads in (1, 1, 3):
            cold_step_family()
            reports.append(report_json(run_config(config, threads=threads)))
        first, second, threaded = reports
        assert first == second == threaded

    def test_csv_header_and_rows(self):
        cfg = {
            "schema": "lapmult-config-1",
            "suites": [
                {
                    "check": "multiplier_pnorm",
                    "chain": {"seed": 3, "n": 4, "conductance_scale": 1.0},
                    "multiplier": {"type": "step", "breakpoints": [0.0, 1.0], "values": [1.0]},
                    "p_grid": [1.5, 2],
                    "probes": 8,
                    "ascent_steps": 2,
                    "probe_seed": 0,
                }
            ],
        }
        outcome = run_config(parse_config(cfg))
        csv_text = inequalities_csv(outcome)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "suite,name,lhs,rhs,ratio,threshold,provenance,pass"
        assert len(lines) == 3


class TestCli:
    def test_run_exit_zero(self, tmp_path):
        cfg_path = write_config(tmp_path, MINIMAL)
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out_dir)]) == EXIT_OK
        assert (out_dir / "report.json").exists()
        assert (out_dir / "inequalities.csv").exists()

    def test_malformed_json_exits_config_error_without_report(self, tmp_path):
        cfg_path = tmp_path / "broken.json"
        cfg_path.write_text("{not json", encoding="utf-8")
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out_dir)]) == EXIT_CONFIG_ERROR
        assert not out_dir.exists()

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_is_usage_error_without_report(self, tmp_path, capsys, threads):
        cfg_path = write_config(tmp_path, MINIMAL)
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(["run", str(cfg_path), "--out", str(out_dir), "--threads", threads])
        assert excinfo.value.code == EXIT_CONFIG_ERROR
        assert "usage:" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_invalid_config_exits_config_error(self, tmp_path):
        cfg_path = write_config(tmp_path, {"schema": "lapmult-config-1", "suites": []})
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG_ERROR

    def test_budget_exceeded_exit_code(self, tmp_path):
        # the one instance has n = 7 and horizon 7: 7^8 paths, past the enumeration budget
        payload = {
            "schema": "lapmult-config-1",
            "suites": [
                {
                    "check": "dilation_identity",
                    "seed": 1,
                    "instances": 1,
                    "max_n": 12,
                    "max_horizon": 12,
                    "dilation": {"epsilon": 0.8, "mode": "exact"},
                }
            ],
        }
        cfg_path = write_config(tmp_path, payload)
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out_dir)]) == EXIT_BUDGET
        assert not out_dir.exists()

    def test_llogl_chain_over_budget_is_a_config_error(self, tmp_path, capsys):
        # n = 4 and horizon 10 give 4^11 paths, past the default enumeration budget
        payload = {
            "schema": "lapmult-config-1",
            "suites": [
                {
                    "check": "llogl_chain",
                    "seed": 606,
                    "chains": 1,
                    "fields": 2,
                    "n": 4,
                    "horizon": 10,
                    "dilation": {"epsilon": 0.8, "mode": "exact"},
                    "stability_doubling": False,
                }
            ],
        }
        cfg_path = write_config(tmp_path, payload)
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out_dir)]) == EXIT_CONFIG_ERROR
        assert "llogl_chain: n = 4 and horizon = 10 give 4194304 paths" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("horizon", [70, 63])
    def test_horizon_past_the_table_limit_is_a_config_error(self, tmp_path, capsys, horizon):
        # one state gives one path, within any budget, but the table has a horizon limit
        cfg_path = write_config(tmp_path, single_state_crosscheck(horizon))
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out_dir)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert f"horizon = {horizon} is past the path table's limit of 62" in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    def test_horizon_at_the_table_limit_runs(self, tmp_path):
        cfg_path = write_config(tmp_path, single_state_crosscheck(62))
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out_dir)]) == EXIT_OK
        assert (out_dir / "report.json").exists()

    @pytest.mark.parametrize("suite", [
        {"check": "multiplier_pnorm", "multiplier": {"type": "sampled", "name": "exp", "t_max": 1e300, "grid": 9},
         "p_grid": [1.5], "probes": 1, "ascent_steps": 0, "probe_seed": 1},
        {"check": "imaginary_powers", "gammas": [1.0], "t_max": 1e300, "grid": 9},
    ])
    def test_overflowing_quadrature_window_is_a_config_error(self, tmp_path, capsys, suite):
        suite = {**suite, "chain": {"seed": 0, "n": 3, "conductance_scale": 1e12}}
        cfg_path = write_config(tmp_path, {"schema": "lapmult-config-1", "suites": [suite]})
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out_dir)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "t_max = 1e+300 on a chain with eigenvalues up to" in err
        assert "overflows the quadrature symbol or its error bound" in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    def test_large_but_finite_quadrature_window_still_reports(self, tmp_path):
        suite = {"check": "multiplier_pnorm", "chain": {"seed": 0, "n": 3, "conductance_scale": 1e16},
                 "multiplier": {"type": "sampled", "name": "exp", "t_max": 1e16, "grid": 9},
                 "p_grid": [1.5], "probes": 1, "ascent_steps": 0, "probe_seed": 1}
        cfg_path = write_config(tmp_path, {"schema": "lapmult-config-1", "suites": [suite]})
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out_dir)]) in (EXIT_OK, EXIT_CHECK_FAILURE)
        assert (out_dir / "report.json").exists()

    @pytest.mark.parametrize("suite,message", [
        # p = 3.5e15 overflowed |z|**p in the probe ascent
        ({"check": "multiplier_pnorm_family", "seed": 2, "instances": 2, "max_n": 2, "max_pieces": 1,
          "p_grid": [3456402610759701.0], "probes": 3, "ascent_steps": 1, "probe_seed": 0},
         "p_grid entry = 3.4564e+15 is outside [1.01587, 64]"),
        # the conjugate of p is 4.5e15, the power the ascent's pullback takes
        ({"check": "transform_pnorm", "seed": 1, "instances": 1, "max_horizon": 1,
          "p_grid": [1.0000000000000002], "dilation": {"epsilon": 0.8}},
         "p_grid entry = 1 is outside [1.01587, 64]"),
        # T_m f reaches about 1e154 and its square overflowed in lp_norm
        ({"check": "approximation_limit", "chain": {"seed": 0, "n": 3}, "piece_counts": [1], "field_seed": 0,
          "multiplier": {"type": "sampled", "name": "exp", "t_max": 7.595803854684681e+154, "grid": 5}},
         "and their power 2 overflows"),
        # T_m f itself overflowed: the run died with "field values must be finite"
        ({"check": "step_convergence", "chain": {"n": 3, "seed": 2}, "piece_counts": [4, 1, 4],
          "multiplier": {"type": "sampled", "name": "exp", "t_max": 5.002352859469343e+299, "grid": 17},
          "field": [[0.0, 0.0], -1e-300, -7.151768886244289e+299]},
         "and their power 2 overflows"),
        ({"check": "multiplier_pnorm", "chain": {"seed": 0, "n": 3},
          "multiplier": {"type": "step", "breakpoints": [0, 1], "values": [1e200]},
          "p_grid": [2], "probes": 1, "ascent_steps": 1, "probe_seed": 1},
         "entries of T_m f may reach"),
        # lam * t overflowed in the step symbol's exponent
        ({"check": "multiplier_pnorm", "chain": {"seed": 1, "n": 3, "conductance_scale": 2e261},
          "multiplier": {"type": "step", "breakpoints": [0, 7.5e299], "values": [1e-300]},
          "p_grid": [2], "probes": 1, "ascent_steps": 1, "probe_seed": 1},
         "a breakpoint at 7.5e+299 on a chain with eigenvalues up to"),
    ])
    def test_overflowing_powers_are_a_config_error(self, tmp_path, capsys, suite, message):
        cfg_path = write_config(tmp_path, {"schema": "lapmult-config-1", "suites": [suite]})
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out_dir)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    def test_heat_kernel_at_an_overflowing_time_reports(self, tmp_path):
        # t * A overflowed, with a warning, in the kernel's roundoff allowance, which is then inf
        suite = {"check": "markov_conditions", "time": 1.9731300074493424e+298,
                 "chain": {"seed": 0, "n": 2, "unit_mass": True, "conductance_scale": 7.855371398117801e+238}}
        cfg_path = write_config(tmp_path, {"schema": "lapmult-config-1", "suites": [suite]})
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out_dir)]) in (EXIT_OK, EXIT_CHECK_FAILURE)
        assert (out_dir / "report.json").exists()

    def test_list_presets_includes_paper_suite_and_is_stable(self, capsys):
        assert main(["list-presets"]) == EXIT_OK
        first = capsys.readouterr().out
        assert "paper-suite" in first
        assert "imaginary-powers" in first
        assert "davis-family" in first
        assert main(["list-presets"]) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_every_preset_parses(self):
        from lapmult.cli import _preset_files

        for entry in _preset_files():
            raw = json.loads(entry.read_text(encoding="utf-8"))
            parse_config(raw)  # must not raise

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "lapmult" in capsys.readouterr().out

    def test_preset_runnable_by_name(self, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["run", "davis-family", "--out", str(out_dir)]) == EXIT_OK

    def test_check_failure_exit_code(self, tmp_path):
        # an explicitly non-reversible kernel cannot pass the condition check;
        # feed one through an explicit generator with a broken detailed balance
        payload = {
            "schema": "lapmult-config-1",
            "suites": [
                {
                    "check": "step_convergence",
                    "chain": {"seed": 7, "n": 6, "conductance_scale": 1.0},
                    "field_seed": 5,
                    "multiplier": {"type": "sampled", "name": "exp", "t_max": 4.0, "grid": 513},
                    "piece_counts": [4, 8],
                    "rel_tol": 1e-12,
                }
            ],
        }
        cfg_path = write_config(tmp_path, payload)
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out_dir)]) == EXIT_CHECK_FAILURE
        report = json.loads((out_dir / "report.json").read_text())
        assert report["overall_pass"] is False

    def test_stiff_heat_kernel_is_reported_not_raised(self, tmp_path):
        # at ||tA||_1 ~ 1e5 the eigh roundoff in the row sums exceeds 1e-10 but not
        # the heat kernel's backward-error bound, so the kernel is built and the
        # suite reports the conservation defect against its own tol
        payload = {
            "schema": "lapmult-config-1",
            "suites": [{"check": "markov_conditions",
                        "chain": {"seed": 1, "n": 9, "conductance_scale": 1e4}, "time": 3.0}],
        }
        cfg_path = write_config(tmp_path, payload)
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out_dir)]) == EXIT_CHECK_FAILURE
        report = json.loads((out_dir / "report.json").read_text())
        assert report["overall_pass"] is False

    def test_chain_with_large_conductances_runs(self, tmp_path):
        # eigh leaves the zero eigenvalue at -6e-9 here: roundoff of 1e-15
        # relative to the generator's entries, so decompose clamps it
        payload = {
            "schema": "lapmult-config-1",
            "suites": [{"check": "markov_conditions",
                        "chain": {"seed": 2, "n": 16, "conductance_scale": 1e6}, "time": 1e-6}],
        }
        out_dir = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, payload)), "--out", str(out_dir)]) == EXIT_OK
        assert json.loads((out_dir / "report.json").read_text())["overall_pass"] is True

    def test_generator_with_a_row_sum_defect_is_config_error(self, tmp_path):
        # the second row sums to -3e-9, which the generator's relative tolerance rejects
        payload = {
            "schema": "lapmult-config-1",
            "suites": [{"check": "markov_conditions",
                        "chain": {"weights": [1, 1], "generator": [[1, -1], [-1, 0.999999997]]}}],
        }
        out_dir = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, payload)), "--out", str(out_dir)]) == EXIT_CONFIG_ERROR
        assert not out_dir.exists()

    def test_seeded_chain_that_cannot_be_built_is_config_error(self, tmp_path):
        # conductances near 1e308 overflow the generator's row sums to inf
        payload = {
            "schema": "lapmult-config-1",
            "suites": [{"check": "markov_conditions",
                        "chain": {"seed": 1, "n": 4, "conductance_scale": 1e308}}],
        }
        out_dir = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="overflow"):
            code = main(["run", str(write_config(tmp_path, payload)), "--out", str(out_dir)])
        assert code == EXIT_CONFIG_ERROR
        assert not out_dir.exists()

    def test_step_convergence_passes_on_a_zero_field(self, tmp_path):
        # every error is exactly 0 and so is the tolerance rel_tol * ||f||_2
        payload = {
            "schema": "lapmult-config-1",
            "suites": [{"check": "step_convergence", "chain": {"seed": 7, "n": 3}, "field": [0, 0, 0],
                        "multiplier": {"type": "sampled", "name": "exp", "t_max": 4.0, "grid": 513},
                        "piece_counts": [4, 8]}],
        }
        out_dir = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, payload)), "--out", str(out_dir)]) == EXIT_OK
        summary = json.loads((out_dir / "report.json").read_text())["suites"][0]["summary"]
        assert summary["errors"] == [0.0, 0.0]
        assert summary["tol"] == 0.0
