import csv
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import backflow
from backflow import cli, linalg, spinchain, states
from backflow.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_INVARIANT,
    EXIT_OK,
    GridSpec,
    PRESETS,
    RunConfig,
    main,
    parse_config,
    run,
)
from backflow.witness import EigenPropagator, InvariantViolation


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_summary(out_dir):
    with open(out_dir / "summary.json") as fh:
        return json.load(fh)


def run_python(*args, cwd=None, **env):
    """This interpreter run on ``args`` in a new process that imports the
    package from this checkout, with ``env`` added to the environment."""
    src = str(Path(backflow.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path, **env}, timeout=300)


class TestListPresets:
    def test_contains_required_names(self, capsys):
        assert main(["list-presets"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("fig2a", "fig2b", "fig2c", "fig3", "semigroup", "bell-check"):
            assert name in out


class TestPresetRuns:
    def test_semigroup(self, tmp_path):
        out = tmp_path / "sg"
        assert main(["run", "--preset", "semigroup", "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "surface.csv")
        assert header == list(cli.SURFACE_COLUMNS)
        assert len(rows) == 50 * 50
        summary = read_summary(out)
        assert summary["measure"] == 0.0
        assert summary["classification_counts"]["GuaranteedIncrease"] == 0
        assert summary["max_bound_violation"] == 0.0
        p_header, p_rows = read_csv(out / "profile.csv")
        assert p_header == list(cli.PROFILE_COLUMNS)
        assert len(p_rows) == 50
        assert all(r[2] == "0" for r in p_rows)

    def test_fig2b_detects_backflow(self, tmp_path):
        out = tmp_path / "b"
        assert main(["run", "--preset", "fig2b", "--out", str(out)]) == EXIT_OK
        summary = read_summary(out)
        assert summary["classification_counts"]["GuaranteedIncrease"] >= 1
        assert summary["measure"] > 0

    def test_fig2c_sweep_shape(self, tmp_path):
        out = tmp_path / "c"
        assert main(["run", "--preset", "fig2c", "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "surface.csv")
        assert header == list(cli.SWEEP_COLUMNS)
        assert len(rows) == 21 * 50
        summary = read_summary(out)
        assert summary["ratios"][0] == 0.0 and summary["ratios"][-1] == 1.0
        by_r = {entry["r"]: entry for entry in summary["per_ratio"]}
        assert by_r[0.0]["max_influence"] <= 1e-12
        assert by_r[1.0]["points_above_upper"] >= 1

    def test_bell_check(self, tmp_path):
        out = tmp_path / "bell"
        assert main(["run", "--preset", "bell-check", "--out", str(out)]) == EXIT_OK
        summary = read_summary(out)
        assert summary["pass"] is True
        assert summary["bell_norm_error"] <= 1e-12

    def test_bell_check_removes_an_earlier_runs_tables(self, tmp_path):
        out = tmp_path / "shared"
        assert main(["run", "--preset", "semigroup", "--out", str(out)]) == EXIT_OK
        assert (out / "surface.csv").exists() and (out / "profile.csv").exists()
        assert main(["run", "--preset", "bell-check", "--out", str(out)]) == EXIT_OK
        assert [p.name for p in out.iterdir()] == ["summary.json"]
        assert read_summary(out)["scenario"] == "bell-check"

    def test_a_run_removes_the_other_formats_tables(self, tmp_path):
        out = tmp_path / "shared"
        assert main(["run", "--preset", "fig2a", "--out", str(out), "--format", "json"]) == EXIT_OK
        assert main(["run", "--preset", "fig2a", "--out", str(out)]) == EXIT_OK
        assert {p.name for p in out.iterdir()} == {"surface.csv", "profile.csv", "summary.json"}

    def test_json_format(self, tmp_path):
        out = tmp_path / "j"
        code = main(["run", "--preset", "semigroup", "--out", str(out), "--format", "json"])
        assert code == EXIT_OK
        with open(out / "surface.json") as fh:
            points = json.load(fh)
        assert len(points) == 2500
        assert set(points[0]) == set(cli.SURFACE_COLUMNS)


class TestConfigRuns:
    def write_config(self, tmp_path, text):
        path = tmp_path / "run.ini"
        path.write_text(text)
        return path

    def test_inline_single_lorentzian(self, tmp_path):
        out = tmp_path / "out"
        config = self.write_config(
            tmp_path,
            f"""
[scenario]
model = single_lorentzian
omega0 = 1.0
delta = 1.0

[t_grid]
min = 0.0
max = 2.0
count = 12

[tprime_grid]
min = 0.0
max = 2.0
count = 8

[output]
path = {out}
format = csv
""",
        )
        assert main(["run", str(config)]) == EXIT_OK
        header, rows = read_csv(out / "surface.csv")
        assert len(rows) == 12 * 8
        # coherence decays exponentially: first row is t=0, t'=0
        assert float(rows[0][2]) == pytest.approx(1.0)

    def test_inline_spin_chain(self, tmp_path):
        # fig3's default 40x40 grid is exercised by the acceptance suite; a
        # reduced grid keeps this end-to-end smoke cheap
        out = tmp_path / "chain"
        config = self.write_config(
            tmp_path,
            f"""
[scenario]
model = spin_chain
sites = 3
exchange = 1.0
probe_exchange = 1.0
field = 0.01

[t_grid]
min = 0.0
max = 2.0
count = 5

[tprime_grid]
min = 0.0
max = 2.0
count = 5

[output]
path = {out}
""",
        )
        assert main(["run", str(config)]) == EXIT_OK
        summary = read_summary(out)
        assert summary["points"] == 25
        assert summary["max_bound_violation"] == 0.0
        assert summary["parameters"] == {
            "sites": 3, "exchange": 1.0, "probe_exchange": 1.0, "field": 0.01,
        }
        assert isinstance(summary["parameters"]["sites"], int)

    def test_preset_with_grid_override(self, tmp_path):
        out = tmp_path / "po"
        config = self.write_config(
            tmp_path,
            f"""
[scenario]
preset = fig2a

[t_grid]
min = 0.0
max = 1.0
count = 6

[output]
path = {out}
""",
        )
        assert main(["run", str(config)]) == EXIT_OK
        summary = read_summary(out)
        assert summary["t_grid"]["count"] == 6
        assert summary["tprime_grid"]["count"] == 50  # preset default kept

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["run", "--preset", "fig2a", "--out", str(out1)])
        main(["run", "--preset", "fig2a", "--out", str(out2)])
        assert (out1 / "surface.csv").read_bytes() == (out2 / "surface.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_csv_values_have_15_significant_digits(self, tmp_path):
        out = tmp_path / "digits"
        main(["run", "--preset", "semigroup", "--out", str(out)])
        _, rows = read_csv(out / "surface.csv")
        for row in rows[:100]:
            for cell in row[:-1]:
                assert cell == f"{float(cell):.15g}"


OUTPUT = "\n[output]\npath = {out}\n"
BIG_GRIDS = "[t_grid]\nmin = 0\nmax = 1e308\ncount = 3\n[tprime_grid]\nmin = 0\nmax = 1e308\ncount = 3\n"
# t + t' stays finite, but the phases exp(-i w t) overflow
OVERFLOWING_PHASES = ("[scenario]\npreset = {}\n\n[t_grid]\nmin = 0\nmax = 1e308\ncount = 3\n\n"
                      "[tprime_grid]\nmin = 0\nmax = 0\ncount = 1\n")


class TestConfigErrors:
    def test_unknown_preset(self):
        assert main(["run", "--preset", "nope"]) == EXIT_CONFIG_ERROR

    def test_missing_arguments(self):
        assert main(["run"]) == EXIT_CONFIG_ERROR

    def test_both_config_and_preset(self, tmp_path):
        cfg = tmp_path / "x.ini"
        cfg.write_text("[scenario]\npreset = fig2a\n")
        assert main(["run", str(cfg), "--preset", "fig2a"]) == EXIT_CONFIG_ERROR

    def test_missing_file(self):
        assert main(["run", "/nonexistent/path.ini"]) == EXIT_CONFIG_ERROR

    def test_no_command(self):
        assert main([]) == EXIT_CONFIG_ERROR

    def test_malformed_grid(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[scenario]\npreset = fig2a\n\n[t_grid]\nmin = 1.0\nmax = 0.0\ncount = 5\n")
        assert main(["run", str(cfg)]) == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("preset", ["fig2b", "fig2c"])
    def test_grid_of_one_repeated_time_rejected(self, tmp_path, capsys, preset):
        cfg = tmp_path / "flat.ini"
        cfg.write_text(
            f"[scenario]\npreset = {preset}\n\n[t_grid]\nmin = 1.0\nmax = 1.0\ncount = 3\n"
        )
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("[scenario]\npreset = fig2b\n\n[t_grid]\nmin = 1\nmax = 1.0000000000000002\n"
             "count = 3\n", "must be strictly ascending"),
            ("[scenario]\npreset = fig3\n" + BIG_GRIDS, "t + t' must be finite, got inf"),
            ("[scenario]\npreset = fig2b\n" + BIG_GRIDS, "t + t' must be finite, got inf"),
            ("[scenario]\nmodel = spin_chain\nsites = 2\nexchange = 1\nprobe_exchange = 1\n"
             "field = 1e308\n", "that is not finite"),
        ],
        ids=["grid-collapses-under-rounding", "fig3-step-overflow", "fig2b-step-overflow",
             "chain-field-overflows-h"],
    )
    def test_library_rule_is_a_config_error(self, tmp_path, capsys, text, expected):
        # warnings are errors here, so an overflow warning would fail the test too
        cfg, out = tmp_path / "bad.ini", tmp_path / "out"
        cfg.write_text(text)
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert expected in err
        assert not out.exists()

    @pytest.mark.parametrize("given", ["option", "config"])
    def test_empty_output_path_rejected(self, tmp_path, monkeypatch, capsys, given):
        # an empty path would name the current directory and clear its tables
        monkeypatch.chdir(tmp_path)
        earlier = {name: f"{name} of an earlier run\n"
                   for name in ("surface.csv", "profile.json", "summary.json")}
        for name, text in earlier.items():
            (tmp_path / name).write_text(text)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[scenario]\npreset = fig2a\n\n[output]\npath =\n")
        via = {"option": ["--preset", "fig2a", "--out", ""], "config": [str(cfg)]}
        assert main(["run", *via[given]]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == "error: output path must not be empty\n"
        for name, text in earlier.items():
            assert (tmp_path / name).read_text() == text

    def test_format_option_checked_as_the_config_key(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--preset", "fig2a", "--out", str(out), "--format", "xml"]) == 1
        assert capsys.readouterr().err == "error: output format must be csv or json, got 'xml'\n"
        assert not out.exists()

    def test_unknown_model_parameter(self, tmp_path):
        cfg = tmp_path / "bad2.ini"
        cfg.write_text("[scenario]\nmodel = single_lorentzian\nomega0 = 1\ndelta = 1\nbogus = 2\n")
        assert main(["run", str(cfg)]) == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize(
        "text",
        [
            "[scenario]\nmodel = double_lorentzian\nomega0_1 = 1\ndelta1 = nan\n"
            "omega0_2 = 9\ndelta2 = 1\nr = 1\n",
            "[scenario]\nmodel = double_lorentzian\nomega0_1 = 1\ndelta1 = 1\n"
            "omega0_2 = 9\ndelta2 = 1\nr = inf\n",
            "[scenario]\npreset = fig2a\n\n[t_grid]\nmin = 0\nmax = nan\ncount = 5\n",
        ],
        ids=["delta1-nan", "r-inf", "grid-max-nan"],
    )
    def test_bad_number_rejected(self, tmp_path, text):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text + f"\n[output]\npath = {tmp_path / 'out'}\n")
        assert main(["run", str(cfg)]) == EXIT_CONFIG_ERROR
        assert not (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("[scenario]\npreset = fig2a\n\n[t_grid]\nmin = zero\nmax = 1\ncount = 5\n"
             + OUTPUT, "cannot parse 'zero' as a number"),
            ("[scenario]\npreset = fig2a\n\n[t_grid]\nmin = 0\nmax = 1\ncount = 5.5\n"
             + OUTPUT, "cannot parse '5.5' as an integer"),
            ("[scenario]\npreset = fig2a\n\n[t_grid]\nmin = 0\nmax = 1\n" + OUTPUT,
             "must define exactly min, max, count"),
            ("[scenario]\npreset = fig2a\nomega0 = 1\n" + OUTPUT, "no extra scenario keys"),
            ("[scenario]\nsites = 3\n" + OUTPUT, "either 'preset' or 'model'"),
            ("[scenario]\nmodel = ising\n" + OUTPUT, "unknown model 'ising'"),
            ("[scenario]\npreset = fig%2b\n" + OUTPUT, "unknown preset 'fig%2b'"),
            ("[t_grid]\nmin = 0\nmax = 1\ncount = 3\n" + OUTPUT, "[scenario] section"),
            # the margin and the rise tolerance are constants, not settings
            ("[scenario]\npreset = fig2b\n\n[tolerances]\nclass_eps = 1e-9\n" + OUTPUT,
             "error: unknown config sections: ['tolerances']\n"),
            ("[scenario]\npreset = fig2b\n" + OUTPUT + "colour = red\n",
             "[output] has unknown keys ['colour']"),
            ("[scenario]\npreset = fig2b\n" + OUTPUT + "format = xml\n",
             "output format must be csv or json"),
        ],
        ids=["float-unparsable", "int-unparsable", "grid-keys", "preset-extra-keys",
             "no-preset-or-model", "unknown-model", "percent-read-literally", "no-scenario",
             "unknown-tolerance", "unknown-output-key", "format-xml"],
    )
    def test_bad_config_rejected(self, tmp_path, capsys, text, expected):
        out = tmp_path / "out"
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text.format(out=out))
        assert main(["run", str(cfg)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert expected in err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize(
        "content, expected",
        [
            (b"preset = fig2b\n", "no section headers"),
            (b"[scenario]\npreset = fig2b\npreset = fig2a\n", "option 'preset'"),
            (b"[scenario]\npreset = fig2b\n\n[scenario]\n", "section 'scenario'"),
            (b"[scenario]\npreset = fig2b\nfoo\n", "parsing errors"),
            (b"\xff\xfe[scenario]\npreset = fig2b\n", "can't decode byte 0xff"),
        ],
        ids=["no-section-header", "duplicate-option", "duplicate-section", "bare-line",
             "not-utf-8"],
    )
    def test_malformed_file_rejected(self, tmp_path, capsys, content, expected):
        cfg, out = tmp_path / "bad.ini", tmp_path / "out"
        cfg.write_bytes(content)
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {cfg}: ") and err.count("\n") == 1
        assert expected in err and "Traceback" not in err, err
        assert not out.exists()

    @pytest.mark.parametrize("given", ["option", "config"])
    @pytest.mark.parametrize("below", [False, True], ids=["the-file", "below-the-file"])
    def test_output_path_through_a_file_rejected(self, tmp_path, capsys, given, below):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / "sub" if below else afile
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[scenario]\npreset = bell-check\n\n[output]\npath = {out}\n")
        via = {"option": ["--preset", "bell-check", "--out", str(out)], "config": [str(cfg)]}
        assert main(["run", *via[given]]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot make output directory {out}: ")
        assert err.count("\n") == 1 and "Traceback" not in err, err
        assert afile.read_text() == "kept\n"

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("model = single_lorentzian\nomega0 = 1\ndelta = -1.0\n", "width"),
            (
                "model = double_lorentzian\nomega0_1 = 1\ndelta1 = 1\n"
                "omega0_2 = 9\ndelta2 = 1\nr = -0.5\n",
                "ratio",
            ),
            ("model = spin_chain\nexchange = 1\nprobe_exchange = 1\nfield = 0\n", "'sites'"),
            (
                "model = spin_chain\nsites = 12\nexchange = 1\nprobe_exchange = 1\nfield = 0\n",
                "cap",
            ),
        ],
        ids=["delta-negative", "r-negative", "sites-missing", "sites-over-cap"],
    )
    def test_invalid_model_parameter(self, tmp_path, capsys, text, expected):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[scenario]\n{text}\n[output]\npath = {tmp_path / 'out'}\n")
        assert main(["run", str(cfg)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert expected in err
        assert not (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize(
        "preset, section",
        [
            ("fig2c", "[tprime_grid]\nmin = 0\nmax = 1\ncount = 3\n"),
            ("bell-check", "[t_grid]\nmin = 0\nmax = 1\ncount = 3\n"),
            ("bell-check", "[tprime_grid]\nmin = 0\nmax = 1\ncount = 3\n"),
        ],
        ids=["fig2c-tprime-grid", "bell-check-t-grid", "bell-check-tprime-grid"],
    )
    def test_unused_section_rejected(self, tmp_path, capsys, preset, section):
        cfg = tmp_path / "unused.ini"
        out = tmp_path / "out"
        cfg.write_text(f"[scenario]\npreset = {preset}\n\n{section}\n[output]\npath = {out}\n")
        assert main(["run", str(cfg)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert section.split("\n")[0] in err
        assert not (out / "summary.json").exists()


def _propagator_without_the_vacuum(spec):
    """The chain's propagator on charges 1 and 2 only: the polarised initial
    pair has weight outside it."""
    q = spinchain.excitations(spec.dim)
    s = np.concatenate([np.flatnonzero(q == c) for c in (1, 2)])
    eig = linalg.hermitian_eigensystem(spinchain.hamiltonian_block(spec, s))
    return EigenPropagator(eig, s, spec.dim)


class TestInvariantExit:
    def test_violation_maps_to_exit_2(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise InvariantViolation("forced for the exit-code contract")

        monkeypatch.setattr(cli, "_run_surface_job", boom)
        code = main(["run", "--preset", "semigroup", "--out", str(tmp_path / "v")])
        assert code == EXIT_INVARIANT

    @pytest.mark.parametrize("failure", ["above-tolerance", "assertion"])
    def test_bell_check_failure_exits_2(self, tmp_path, monkeypatch, capsys, failure):
        # the split check raises on its own bound, so a Bell bound stands for
        # a value above tolerance
        def broken_split_check(rng):
            if failure == "assertion":
                raise InvariantViolation("reconstruction error 1.0")
            return 0.0

        monkeypatch.setattr(cli, "_check_correlation_split", broken_split_check)
        if failure == "above-tolerance":
            monkeypatch.setattr(states.CorrelationDecomposition, "correlation_norm",
                                lambda split: 1.6)
        out = tmp_path / "bell"
        assert main(["run", "--preset", "bell-check", "--out", str(out)]) == EXIT_INVARIANT
        assert "error" in read_summary(out)
        assert "Traceback" not in capsys.readouterr().err

    def test_operator_outside_the_chain_subspace_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(spinchain, "_block_propagator", _propagator_without_the_vacuum)
        cfg = tmp_path / "chain.ini"
        cfg.write_text(
            "[scenario]\nmodel = spin_chain\nsites = 3\nexchange = 1.0\n"
            "probe_exchange = 1.0\nfield = 0.0\n\n"
            "[t_grid]\nmin = 0.0\nmax = 1.0\ncount = 2\n\n"
            "[tprime_grid]\nmin = 0.0\nmax = 1.0\ncount = 2\n"
        )
        out = tmp_path / "chain"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_INVARIANT
        assert "outside" in read_summary(out)["error"]
        assert "Traceback" not in capsys.readouterr().err

    def test_non_finite_chain_values_exit_2(self, tmp_path, capsys):
        # t + t' stays finite, but the phases exp(-i w t) overflow at t = 1e308:
        # linalg._exp_outer reports it, as it does for the dephasing model
        cfg = tmp_path / "phase.ini"
        cfg.write_text(
            "[scenario]\nmodel = spin_chain\nsites = 3\nexchange = 1.0\n"
            "probe_exchange = 1.0\nfield = 0.0\n\n"
            "[t_grid]\nmin = 0.0\nmax = 1e308\ncount = 2\n\n"
            "[tprime_grid]\nmin = 0.0\nmax = 0.0\ncount = 1\n"
        )
        out = tmp_path / "phase"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert err.startswith("invariant violation: ") and err.count("\n") == 1, err
        assert "phase exp(t z) overflows at t = 1e+308" in read_summary(out)["error"]

    @pytest.mark.parametrize("preset", ["fig3", "fig2b"])
    def test_overflowing_phases_exit_2_without_a_warning(self, tmp_path, capsys, preset):
        cfg = tmp_path / "phase.ini"
        cfg.write_text(OVERFLOWING_PHASES.format(preset))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", str(cfg), "--out", str(tmp_path / "phase")])
        err = capsys.readouterr().err
        assert code == EXIT_INVARIANT
        assert err.startswith("invariant violation: ") and err.count("\n") == 1, err

    def test_failed_run_leaves_no_stale_tables(self, tmp_path, monkeypatch):
        cfg = tmp_path / "chain.ini"
        cfg.write_text(
            "[scenario]\nmodel = spin_chain\nsites = 3\nexchange = 1.0\n"
            "probe_exchange = 1.0\nfield = 0.0\n\n"
            "[t_grid]\nmin = 0.0\nmax = 1.0\ncount = 2\n\n"
            "[tprime_grid]\nmin = 0.0\nmax = 1.0\ncount = 2\n"
        )
        out = tmp_path / "chain"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
        assert main(["run", str(cfg), "--out", str(out), "--format", "json"]) == EXIT_OK
        assert {p.name for p in out.iterdir()} == {"surface.json", "profile.json", "summary.json"}
        # as in test_operator_outside_the_chain_subspace_exits_2
        monkeypatch.setattr(spinchain, "_block_propagator", _propagator_without_the_vacuum)
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_INVARIANT
        assert [p.name for p in out.iterdir()] == ["summary.json"]
        assert "error" in read_summary(out)


class TestParseConfig:
    def test_grid_spec_validation(self):
        # the library's grid check applies, with its ValueError
        with pytest.raises(ValueError, match="nonnegative"):
            GridSpec(lo=-1.0, hi=1.0, count=5)
        with pytest.raises(ValueError, match="nonempty"):
            GridSpec(lo=0.0, hi=1.0, count=0)
        with pytest.raises(ValueError, match="strictly ascending"):
            GridSpec(lo=1.0, hi=1.0, count=3)
        with pytest.raises(ValueError, match="strictly ascending"):  # collapses under rounding
            GridSpec(lo=1.0, hi=1.0000000000000002, count=3)
        np.testing.assert_array_equal(GridSpec(lo=1.0, hi=1.0, count=1).points(), [1.0])

    def test_run_config_holds_the_scenario_and_output_only(self):
        assert [f.name for f in fields(RunConfig)] == ["preset", "out_dir", "fmt"]

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "sec.ini"
        cfg.write_text("[scenario]\npreset = fig2a\n\n[mystery]\nx = 1\n")
        with pytest.raises(cli.ConfigError, match="mystery"):
            parse_config(cfg)


class TestAudit:
    def test_audit_passes(self, capsys):
        assert main(["audit"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == len(cli.AUDIT_CHECKS)
        assert "FAIL" not in out

    def test_broken_trace_norm_fails_under_optimize(self):
        # -O strips assert statements; the audit checks must not depend on them
        script = (
            "import sys\n"
            "from backflow import cli, linalg\n"
            "norm = linalg.trace_norm\n"
            "linalg.trace_norm = lambda a: 3.0 * norm(a)\n"
            "sys.exit(cli.main(['audit']))\n"
        )
        proc = run_python("-O", "-c", script)
        assert proc.returncode == EXIT_INVARIANT, proc.stdout + proc.stderr
        assert f"{len(cli.AUDIT_CHECKS) - 1}/{len(cli.AUDIT_CHECKS)} checks passed" in proc.stdout


def test_fig3_does_not_import_numpy_ma(tmp_path):
    # numpy.ma costs about 10 ms of start-up; a plain np.unique imports it on numpy >= 2.3
    script = (
        "import sys\n"
        "from backflow import cli\n"
        f"assert cli.main(['run', '--preset', 'fig3', '--out', {str(tmp_path)!r}]) == 0\n"
        "sys.exit('numpy.ma' in sys.modules)\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_nm_max_does_not_import_numpy_ma():
    """The benchmark's nm-max run: 6 Bloch pairs on the 7-site chain, 40
    times up to 3. The chain's gather layout finds the environment indices
    its support reaches by ``np.bincount``."""
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from backflow import blp, spinchain\n"
        "spec = spinchain.SpinChainSpec(sites=7, exchange=1.0, probe_exchange=1.0, field=0.01)\n"
        "make = lambda r1, r2: spinchain.scenario(spec, pair=(r1, r2))\n"
        "blp.nm_measure_maximized(make, np.linspace(0.0, 3.0, 40), blp.bloch_pair_grid(3, 2))\n"
        "sys.exit('numpy.ma' in sys.modules)\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "args, config, code",
    [
        (["list-presets"], None, EXIT_OK),
        (["run", "--preset", "bell-check", "--out", "out"], None, EXIT_OK),
        (["run", "run.ini", "--out", "out"],
         "[scenario]\npreset = fig2b\n\n[t_grid]\nmin = 1.0\nmax = 1.0\ncount = 3\n",
         EXIT_CONFIG_ERROR),
        (["run", "run.ini"],
         "[scenario]\npreset = fig2b\n\n[t_grid]\nmin = 1\nmax = 1.0000000000000002\ncount = 3\n",
         EXIT_CONFIG_ERROR),
        (["run", "run.ini"], "[scenario]\npreset = fig2a\n\n[output]\npath =\n",
         EXIT_CONFIG_ERROR),
        (["run", "run.ini", "--out", "out"], "preset = fig2b\n", EXIT_CONFIG_ERROR),
        (["run", "run.ini", "--out", "out"], OVERFLOWING_PHASES.format("fig3"), EXIT_INVARIANT),
        (["run", "run.ini", "--out", "out"], OVERFLOWING_PHASES.format("fig2b"), EXIT_INVARIANT),
        (["run", "--preset", "fig3", "--format", "json", "--out", "out"], None, EXIT_OK),
    ],
    ids=["list-presets", "bell-check", "flat-grid", "grid-collapses-under-rounding",
         "empty-output-path", "no-section-header", "fig3-phases-overflow",
         "fig2b-phases-overflow", "fig3-json"],
)
def test_module_entry_point(tmp_path, args, config, code):
    """``python -m backflow`` in a new process with warnings turned into
    errors: the exit code, no traceback, and one line on stderr for a failed
    run; the fig3 run writes every point inside its window."""
    if config is not None:
        (tmp_path / "run.ini").write_text(config)
    proc = run_python("-m", "backflow", *args, cwd=tmp_path, PYTHONWARNINGS="error")
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    if code != EXIT_OK:
        prefix = "error: " if code == EXIT_CONFIG_ERROR else "invariant violation: "
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix), proc.stderr
    if "json" in args:
        assert read_summary(tmp_path / "out")["max_bound_violation"] == 0.0


def test_all_cheap_presets_run(tmp_path):
    # fig3 runs at its default grid in the acceptance suite
    for name in ("semigroup", "fig2a", "fig2b", "fig2c", "bell-check"):
        out = tmp_path / name
        assert main(["run", "--preset", name, "--out", str(out)]) == EXIT_OK, name
        assert (out / "summary.json").exists()
