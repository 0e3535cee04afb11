"""Command line interface, driven through main() with captured artifacts."""

import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from importlib import resources
from importlib.metadata import EntryPoint, PackageNotFoundError, distribution
from pathlib import Path

import pytest

import swsense
from swsense import cli
from swsense.cli import main
from swsense.estimator import load_calibration


def run_cli(tmp_path, *argv):
    return main(["--out", str(tmp_path), *argv])


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def scenario_path(name):
    return str(resources.files("swsense").joinpath(f"data/scenarios/{name}"))


def coupler_config(tmp_path):
    """A --config file selecting the default 1-14 GHz directional coupler."""
    path = tmp_path / "coupler.json"
    path.write_text(json.dumps({"chain": {"coupling_kind": "coupler"}}))
    return str(path)


class TestSweepSparams:
    def test_default_tap_sweep(self, tmp_path, capsys):
        assert run_cli(tmp_path, "sweep-sparams", "--points", "11") == 0
        lines = (tmp_path / "sparams.csv").read_text().splitlines()
        assert lines[0] == "freq_hz,s11_db,s21_db,coupling_db,s21_absent_db"
        assert len(lines) == 12
        first = lines[1].split(",")
        assert float(first[0]) == 1e9
        assert float(first[1]) == pytest.approx(-21.437640, abs=1e-4)
        assert float(first[2]) == pytest.approx(-0.769165, abs=1e-4)
        assert float(first[3]) == pytest.approx(-15.417040, abs=1e-4)
        assert float(first[4]) == 0.0

    def test_r_c_override(self, tmp_path):
        assert run_cli(tmp_path, "sweep-sparams", "--points", "3", "--r-c", "210") == 0
        row = (tmp_path / "sparams.csv").read_text().splitlines()[1].split(",")
        assert float(row[3]) == pytest.approx(-15.117497, abs=1e-4)

    def test_coupler_chain_defaults_to_its_band(self, tmp_path, capsys):
        assert run_cli(tmp_path, "--config", coupler_config(tmp_path), "sweep-sparams") == 0
        rows = (tmp_path / "sparams.csv").read_text().splitlines()[1:]
        assert len(rows) == 151
        assert float(rows[0].split(",")[0]) == 1e9
        assert float(rows[-1].split(",")[0]) == 14e9
        assert all(math.isnan(float(row.split(",")[1])) for row in rows)

    def test_out_of_band_stop_writes_no_file(self, tmp_path, capsys):
        cfg = coupler_config(tmp_path)
        assert run_cli(tmp_path / "out", "--config", cfg, "sweep-sparams", "--f-stop", "15e9") == 1
        assert "outside coupler band" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sparams.csv").exists()

    def test_r_c_refused_on_coupler_chain(self, tmp_path, capsys):
        cfg = coupler_config(tmp_path)
        assert run_cli(tmp_path / "out", "--config", cfg, "sweep-sparams", "--r-c", "10") == 2
        assert "--r-c" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sparams.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--f-start", "nan", "--points", "3"],
            ["--f-stop", "inf"],
            ["--points", "0"],
            ["--points", "-2"],
        ],
    )
    def test_out_of_domain_sweep_is_malformed(self, tmp_path, capsys, argv):
        assert run_cli(tmp_path / "out", "sweep-sparams", *argv) == 2
        assert capsys.readouterr().err.startswith("swsense: sweep-sparams needs a finite --f-start")
        assert not (tmp_path / "out" / "sparams.csv").exists()


class TestResolution:
    def test_single_point_json(self, tmp_path, capsys):
        assert run_cli(tmp_path, "resolution", "--freq", "8e9") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["resolution_hz"] == pytest.approx(20012577.485, abs=1.0)
        assert out["resolution_pct"] == pytest.approx(0.25016, abs=1e-4)

    def test_sweep_csv(self, tmp_path):
        assert run_cli(
            tmp_path, "resolution", "--sweep", "--f-start", "2e9", "--f-stop", "14e9", "--f-step", "1e9"
        ) == 0
        lines = (tmp_path / "resolution.csv").read_text().splitlines()
        assert lines[0] == "freq_hz,resolution_ghz,resolution_pct"
        assert len(lines) == 14
        pcts = [float(l.split(",")[2]) for l in lines[1:]]
        assert all(a > b for a, b in zip(pcts, pcts[1:]))  # relative accuracy improves

    @pytest.mark.parametrize(
        "argv",
        [
            ["--f-step", "0"],
            ["--f-step=-1e9"],
            ["--f-step", "inf"],
            ["--f-start", "5e9", "--f-stop", "2e9"],
            ["--f-start", "nan"],
        ],
    )
    def test_out_of_domain_sweep_is_malformed(self, tmp_path, capsys, argv):
        assert run_cli(tmp_path / "out", "resolution", "--sweep", *argv) == 2
        assert capsys.readouterr().err.startswith("swsense: frequency sweep needs")
        assert not (tmp_path / "out" / "resolution.csv").exists()

    def test_sweep_ends_on_its_stop(self, tmp_path):
        # The axis is the calibration grid's: 1.0 to 15.9 GHz by 0.1 GHz, then
        # the stop itself, never a step past it at f_max.
        argv = ["--f-start", "1e9", "--f-stop", "15.96e9"]
        assert run_cli(tmp_path, "resolution", "--sweep", *argv) == 0
        rows = (tmp_path / "resolution.csv").read_text().splitlines()[1:]
        assert len(rows) == 151
        assert float(rows[-1].split(",")[0]) == 15.96e9

    def test_sweep_from_zero_is_malformed(self, tmp_path, capsys):
        assert run_cli(tmp_path / "out", "resolution", "--sweep", "--f-start", "0") == 2
        assert capsys.readouterr().err == "swsense: frequency sweep must start above 0 Hz; got 0.0\n"
        assert not (tmp_path / "out" / "resolution.csv").exists()

    def test_sweep_reaching_f_max_writes_no_file(self, tmp_path, capsys):
        assert run_cli(tmp_path / "out", "resolution", "--sweep", "--f-stop", "16e9") == 1
        assert "resolution defined on (0, f_max)" in capsys.readouterr().err
        assert not (tmp_path / "out" / "resolution.csv").exists()


class TestPlaceNodes:
    def test_default_design(self, tmp_path, capsys):
        assert run_cli(tmp_path, "place-nodes") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["f_max_2_hz"] == pytest.approx(8.002e9, abs=5e6)
        assert out["f_min_hz"] == pytest.approx(4.002e9, abs=5e6)
        assert out["length_1_m"] == pytest.approx(0.00468425715625, rel=1e-9)
        assert out["length_2_m"] == pytest.approx(2.0 * out["length_1_m"], rel=1e-3)


class TestCalibrate:
    def test_small_grid(self, tmp_path):
        assert run_cli(
            tmp_path,
            "calibrate",
            "--f-start", "5e9", "--f-stop", "7e9", "--f-step", "1e9",
            "--p-start", "-5", "--p-stop", "5", "--p-step", "5",
        ) == 0
        cal = load_calibration(
            str(tmp_path / "calibration.csv"), str(tmp_path / "calibration.json")
        )
        assert cal.code_oc.shape == (3, 3)
        lines = (tmp_path / "calibration.csv").read_text().splitlines()
        assert lines[0] == "freq_hz,power_dbm,att_db,code_oc,code_l1,code_l2"

    def test_coupler_chain_defaults_to_its_band(self, tmp_path, capsys):
        assert run_cli(tmp_path, "--config", coupler_config(tmp_path), "calibrate") == 0
        assert capsys.readouterr().out.startswith("wrote 5371 cells")
        cal = load_calibration(
            str(tmp_path / "calibration.csv"), str(tmp_path / "calibration.json")
        )
        assert cal.code_oc.shape == (131, 41)
        assert (cal.freqs_hz[0], cal.freqs_hz[-1]) == (1e9, 14e9)

    def test_a_step_that_does_not_divide_the_band_ends_on_its_edge(self, tmp_path, capsys):
        # 1 to 16 GHz is 37.5 steps of 0.4 GHz: the last, short step ends on
        # the band edge, and no row passes it.
        assert run_cli(tmp_path, "calibrate", "--f-step", "0.4e9") == 0
        assert capsys.readouterr().out.startswith("wrote 1599 cells")
        cal = load_calibration(str(tmp_path / "calibration.csv"), str(tmp_path / "calibration.json"))
        assert cal.freqs_hz[-3:].tolist() == [15.4e9, 15.8e9, 16e9]

    @pytest.mark.parametrize(
        "argv, cells, digest",
        [
            ([], 6191, "01a3e8811953a305b358c7b5526c719926f5e336bcc5c480c6b7b5fea588a942"),
            (["--f-start", "2e9"], 5781, "4257df85d14451444524d47b858a1f1f89aa4e44e41a454078ce6a9d361df900"),
            (["--f-stop", "12e9"], 4551, "04cf8f07319bc0ca22804f7073b32d0f2a424dd2c7af9b6ba83e30d6776a11d6"),
            (["--f-step", "0.5e9"], 1271, "df338676e86da2df1ece5a9f5b1ca53164c2d9d8b57fbbfdeac8197a4a99bbde"),
            (["--p-start", "-10"], 4681, "a18e509469b708efcbc7aabf92b6e9e65e1f58d13b2c90212c683ea3c0aa2a9c"),
            (["--p-stop", "10"], 4681, "92081dd5fcd2f4eb44e71a7689360edbab274e56c2eb00b19589921bf26d2e0a"),
            (["--p-step", "2"], 3171, "7c2c0e05f7aa3d03edd1580192b405169e874e65bb64781d7c748b21592850aa"),
        ],
    )
    def test_an_option_not_given_keeps_the_default_grids_value(self, tmp_path, capsys, argv, cells, digest):
        # sha256 of calibration.csv then calibration.json, as written when
        # the options restated CalibrationGrid's defaults.
        assert run_cli(tmp_path, "calibrate", *argv) == 0
        assert capsys.readouterr().out.startswith(f"wrote {cells} cells")
        written = b"".join((tmp_path / name).read_bytes() for name in ("calibration.csv", "calibration.json"))
        assert hashlib.sha256(written).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["--f-step", "0"], "frequency sweep needs finite start <= stop and step > 0; got 1000000000.0, 16000000000.0, 0.0"),
            (["--p-step", "0"], "power sweep needs finite start <= stop and step > 0; got -20.0, 20.0, 0.0"),
            (["--f-start", "17e9"], "frequency sweep needs finite start <= stop and step > 0; "
             "got 17000000000.0, 16000000000.0, 100000000.0"),
        ],
    )
    def test_a_refused_grid_names_the_default_values(self, tmp_path, capsys, argv, err):
        assert run_cli(tmp_path, "calibrate", *argv) == 2
        assert capsys.readouterr() == ("", f"swsense: {err}\n")

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["--f-step", "0"], "frequency sweep needs"),
            (["--p-step", "0"], "power sweep needs"),
            (["--p-start", "10", "--p-stop", "-10"], "power sweep needs"),
            (["--f-start", "5e9", "--f-stop", "2e9"], "frequency sweep needs"),
            (["--f-step", "inf"], "frequency sweep needs"),
            (["--f-start", "0"], "frequency sweep must start above 0 Hz"),
        ],
    )
    def test_out_of_domain_grid_is_malformed(self, tmp_path, capsys, argv, err):
        assert run_cli(tmp_path / "out", "calibrate", *argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"swsense: {err}")
        assert not (tmp_path / "out").exists()


class TestEstimate:
    def test_top_tap_off_the_grid_step(self, tmp_path, capsys):
        # The default grid ends on the top tap's f_max, 16.16 GHz, rather than
        # one 0.1 GHz step past it, above the stub band.
        path = tmp_path / "config.json"
        taps = [{"name": "l1", "f_max": 16.16e9}, {"name": "l2", "f_max": 5e9}]
        path.write_text(json.dumps({"chain": {"stub": {"taps": taps}}}))
        assert run_cli(tmp_path, "--config", str(path), "estimate", "--freq", "8e9", "--power", "0") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["freq_hz"] == pytest.approx(8e9, abs=30e6)
        assert out["power_dbm"] == pytest.approx(0.0, abs=0.1)

    def test_synthesized_codes(self, tmp_path, capsys):
        assert run_cli(tmp_path, "estimate", "--freq", "6e9", "--power", "-3") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["freq_hz"] == pytest.approx(6e9, abs=30e6)
        assert out["power_dbm"] == pytest.approx(-3.0, abs=0.1)
        assert out["tap_used"] == "l1"
        assert out["confidence"] == "in-range"

    def test_explicit_codes(self, tmp_path, capsys):
        # frozen chain anchor: 8 GHz at 0 dBm reads (2965, 2788, 2857)
        assert run_cli(tmp_path, "estimate", "--codes", "2965,2788,2857") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["freq_hz"] == pytest.approx(8e9, abs=30e6)
        assert out["power_dbm"] == pytest.approx(0.0, abs=0.1)

    def test_coupler_chain(self, tmp_path, capsys):
        cfg = coupler_config(tmp_path)
        assert run_cli(tmp_path, "--config", cfg, "estimate", "--freq", "8e9", "--power", "0") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["freq_hz"] == pytest.approx(8e9, abs=30e6)
        assert out["power_dbm"] == pytest.approx(0.0, abs=0.1)
        assert (out["tap_used"], out["confidence"]) == ("l1", "in-range")
        assert run_cli(tmp_path, "--config", cfg, "estimate", "--codes", "2965,2788,2857") == 0
        assert json.loads(capsys.readouterr().out)["freq_hz"] == pytest.approx(8e9, abs=30e6)

    def test_line_above_the_stub_band_is_a_domain_error(self, tmp_path, capsys):
        assert run_cli(tmp_path, "estimate", "--freq", "20e9", "--power", "0") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("swsense: 20.000 GHz above the stub band")
        assert run_cli(tmp_path, "estimate", "--freq", "16e9", "--power", "0") == 0

    @pytest.mark.parametrize("power", ["0", "5", "10", "20"])
    def test_gain_control_settles_before_the_inversion(self, tmp_path, capsys, power):
        # Read at 0 dB, +5 dBm came out saturated and +10 and +20 dBm
        # exited 1; settled, each reads as exactly as 0 dBm (README's line),
        # at the setting that brings it there.
        assert run_cli(tmp_path, "estimate", "--freq", "8e9", "--power", power) == 0
        assert capsys.readouterr().out == (
            f'{{"freq_hz": 8000000000.0, "power_dbm": {float(power)}, "tap_used": "l1", "confidence": "in-range", '
            f'"att_db": {float(power)}}}\n'
        )

    def test_att_db_is_the_setting_the_codes_were_read_at(self, tmp_path, capsys):
        # --codes are read at --att; --freq/--power at the setting settled from --att.
        for argv, att in [
            (["--codes", "2965,2788,2857"], 0.0),
            (["--codes", "2965,2788,2857", "--att", "2.5"], 2.5),
            (["--freq", "8e9", "--power", "-10", "--att", "12"], 0.0),
            (["--freq", "8e9", "--power", "10", "--att", "31.75"], 12.5),
        ]:
            assert run_cli(tmp_path, "estimate", *argv) == 0
            assert json.loads(capsys.readouterr().out)["att_db"] == att, argv

    def test_readme_sample_outputs(self, tmp_path, capsys):
        readme = (PYPROJECT.parent / "README.md").read_text()
        samples = re.findall(r"^\$ swsense (estimate .*)\n(.*)$", readme, flags=re.M)
        assert len(samples) == 2
        for command, output in samples:
            assert run_cli(tmp_path, *command.split()) == 0
            assert capsys.readouterr().out == output + "\n"

    def test_gain_control_starts_from_att(self, tmp_path, capsys):
        # From 10 dB, +10 dBm is already in the window. From the top the walk
        # comes down and stops at the window's lower edge, not at the table
        # cell's setting, so the answer is interpolated.
        assert run_cli(tmp_path, "estimate", "--freq", "8e9", "--power", "10", "--att", "10") == 0
        assert json.loads(capsys.readouterr().out)["power_dbm"] == 10.0
        assert run_cli(tmp_path, "estimate", "--freq", "8e9", "--power", "10", "--att", "31.75") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["power_dbm"] != 10.0 and out["power_dbm"] == pytest.approx(10.0, abs=0.05)
        assert out["freq_hz"] == pytest.approx(8e9, abs=30e6)
        assert (out["tap_used"], out["confidence"]) == ("l1", "in-range")

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["--freq=-8e9", "--power", "0"], "swsense: frequency -8000000000.0 Hz is not positive and finite\n"),
            (["--freq", "nan", "--power", "0"], "swsense: frequency nan Hz is not positive and finite\n"),
            (["--freq", "inf", "--power", "0"], "swsense: frequency inf Hz is not positive and finite\n"),
            (["--freq", "0", "--power", "0"], "swsense: frequency 0.0 Hz is not positive and finite\n"),
            (["--freq", "8e9", "--power=-inf"], "swsense: power -inf dBm is not finite\n"),
            (["--freq", "8e9", "--power", "nan"], "swsense: power nan dBm is not finite\n"),
            (
                ["--freq", "8e9", "--power", "4000"],
                "swsense: power 4000.0 dBm is too large: its watts overflow a float\n",
            ),
        ],
    )
    def test_signal_outside_the_tone_domain_is_malformed(self, tmp_path, capsys, argv, err):
        assert run_cli(tmp_path, "estimate", *argv) == 2
        assert capsys.readouterr() == ("", err)

    def test_requires_codes_or_signal(self, tmp_path, capsys):
        assert run_cli(tmp_path, "estimate") == 2
        assert "codes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--codes", "3000,2900,2950", "--freq", "8e9"],
            ["--codes", "3000,2900,2950", "--power", "0"],
            ["--codes", "3000,2900,2950", "--freq", "8e9", "--power", "0"],
            ["--freq", "8e9"],
            ["--power", "0"],
        ],
    )
    def test_codes_and_signal_are_exclusive(self, tmp_path, capsys, argv):
        assert run_cli(tmp_path, "estimate", *argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "estimate: give either --codes or both --freq and --power\n"

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["--codes", "99999,-5,0"], "swsense: code_oc=99999 is not an ADC code in [0, 4095]\n"),
            (["--codes", "2965,2788,4096"], "swsense: code_l2=4096 is not an ADC code in [0, 4095]\n"),
            (["--codes", "2965,2788,2857", "--att", "0.3"], "swsense: att_db=0.3 is not a multiple"),
            (["--codes", "2965,2788,2857", "--att", "-4"], "swsense: att_db=-4.0 is not a multiple"),
            (["--freq", "8e9", "--power", "0", "--att", "0.3"], "swsense: att_db=0.3 is not a multiple"),
        ],
    )
    def test_out_of_domain_input_is_malformed(self, tmp_path, capsys, argv, err):
        assert run_cli(tmp_path, "estimate", *argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(err)


class TestSimulate:
    def test_bundled_pulse_scenario(self, tmp_path, capsys):
        assert run_cli(tmp_path, "simulate", scenario_path("pulse_response.json")) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert 400e-9 <= metrics["response_time_engage_s"] <= 600e-9
        assert 400e-9 <= metrics["response_time_release_s"] <= 600e-9
        assert not metrics["limit_cycle"]
        assert (tmp_path / "trace.csv").exists()
        assert (tmp_path / "samples_stage0.csv").exists()
        disk = json.loads((tmp_path / "metrics.json").read_text())
        assert disk == metrics

    def test_bundled_limit_cycle_scenarios(self, tmp_path, capsys):
        assert run_cli(
            tmp_path, "simulate", "--no-trace", scenario_path("limit_cycle_tap.json")
        ) == 0
        tap = json.loads(capsys.readouterr().out)
        assert tap["limit_cycle"]
        assert tap["limit_cycle_period_s"] == pytest.approx(1e-6, rel=0.05)
        assert not (tmp_path / "trace.csv").exists()

        assert run_cli(
            tmp_path, "simulate", "--no-trace", scenario_path("limit_cycle_coupler.json")
        ) == 0
        coupler = json.loads(capsys.readouterr().out)
        assert not coupler["limit_cycle"]
        assert coupler["suppression_db"][0] > 25.0

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("limit_cycle_tap.json", "6bafea1b6ffd2732ed876213b80351bb2f969fbef3ed0a3c40d7fe7219d92249"),
            ("limit_cycle_coupler.json", "509d13c50c0fb6a2d40cae3654283358d99309b29de92a5cf8bab2dfac9e5208"),
        ],
    )
    def test_codes_under_reflection_are_pinned(self, tmp_path, capsys, name, digest):
        # Every per-sample code of a stage whose notch reflects back into its pick-off.
        assert run_cli(tmp_path, "simulate", "--no-trace", scenario_path(name)) == 0
        assert hashlib.sha256((tmp_path / "samples_stage0.csv").read_bytes()).hexdigest() == digest

    def test_bundled_cascade_scenario(self, tmp_path, capsys):
        assert run_cli(
            tmp_path, "simulate", "--no-trace", scenario_path("cascade_6_12.json")
        ) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["final_output_dbm"][0] < -16.0
        assert metrics["final_output_dbm"][1] < -16.0
        assert (tmp_path / "samples_stage1.csv").exists()

    def test_seed_override_changes_samples(self, tmp_path, capsys):
        sc = scenario_path("pulse_response.json")
        assert run_cli(tmp_path, "--seed", "1", "simulate", "--no-trace", sc) == 0
        capsys.readouterr()
        first = (tmp_path / "samples_stage0.csv").read_text()
        assert run_cli(tmp_path, "--seed", "2", "simulate", "--no-trace", sc) == 0
        second = (tmp_path / "samples_stage0.csv").read_text()
        assert first != second

    @pytest.mark.parametrize(
        "edit, err",
        [
            (lambda d: d["stages"][0]["notch"].update(q_factor=3), "stages[0].notch: unknown key 'q_factor'"),
            (lambda d: d["sources"][0].update(pwr=3), "sources[0]: unknown key 'pwr'"),
            (lambda d: d["sources"][0].pop("freq_hz"), "sources[0]: missing key 'freq_hz'"),
            (lambda d: d.pop("duration_s"), "scenario: missing key 'duration_s'"),
            (lambda d: d.update(durationn=1e-5), "scenario: unknown key 'durationn'"),
            (lambda d: d["sources"][0].update(power_dbm="3"), "sources[0].power_dbm: expected float, got str"),
            (lambda d: d["stages"][0]["notch"].update(f_tune_range_hz=3),
             "stages[0].notch.f_tune_range_hz: expected a list, got int"),
            (lambda d: d["stages"][0].update(chain=5), "stages[0].chain: expected an object, got int"),
            (lambda d: d["stages"][0].update(electrical_delay_s="1e-9"),
             "stages[0].electrical_delay_s: expected float, got str"),
            (lambda d: d.update(duration_s=math.nan), "duration_s: expected a finite float"),
            (lambda d: d["stages"][0]["controller"].update(clock_period=-2e-7),
             "stages[0].controller: clock_period must be positive and finite, got -2e-07"),
            (lambda d: d["stages"][0]["controller"].update(agc_low_code=5000),
             "stages[0].controller: need agc_low_code <= agc_high_code, got 5000, 2965"),
            (lambda d: d["stages"][0]["controller"].update(agc_floor_code=757),
             "stages[0].controller: unknown key 'agc_floor_code'"),
            (lambda d: d["stages"][0]["controller"].update(agc_low_code=757),
             "stages[0]: agc_low_code=757 must lie above the chain's floor_code=757"),
            (lambda d: d["stages"][0]["controller"].update(agc_high_code=3101),
             "stages[0]: agc_high_code=3101 must lie below the chain's ceiling_code=3101"),
        ],
    )
    def test_malformed_scenario_is_malformed(self, tmp_path, capsys, edit, err):
        d = json.loads(Path(scenario_path("pulse_response.json")).read_text())
        edit(d)
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(d))
        assert run_cli(tmp_path, "simulate", "--no-trace", str(path)) == 2
        assert capsys.readouterr().err == f"swsense: {err}\n"
        assert not (tmp_path / "metrics.json").exists()

    def test_out_of_band_source_is_a_domain_error(self, tmp_path, capsys):
        d = json.loads(Path(scenario_path("pulse_response.json")).read_text())
        d["sources"][0]["freq_hz"] = 20e9
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(d))
        assert run_cli(tmp_path, "simulate", "--no-trace", str(path)) == 1
        assert capsys.readouterr().err == (
            "swsense: stage 0: source line 20.000 GHz above the stub band (tap l1 resolves up to 16.000 GHz)\n"
        )
        assert not (tmp_path / "metrics.json").exists()

    def test_negative_seed_is_malformed(self, tmp_path, capsys):
        assert run_cli(tmp_path, "--seed", "-1", "simulate", "--no-trace", scenario_path("pulse_response.json")) == 2
        assert capsys.readouterr().err == "swsense: seed must be an int >= 0, got -1\n"
        assert not (tmp_path / "metrics.json").exists()

    def test_scenario_that_is_not_json_names_its_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"a": }')
        assert run_cli(tmp_path, "simulate", str(path)) == 2
        assert capsys.readouterr().err == f"swsense: {path}: Expecting value: line 1 column 7 (char 6)\n"
        assert not (tmp_path / "metrics.json").exists()

    def test_missing_scenario_is_io_error(self, tmp_path, capsys):
        assert run_cli(tmp_path, "simulate", str(tmp_path / "nope.json")) == 2
        assert "swsense:" in capsys.readouterr().err


SUBCOMMANDS = ("sweep-sparams", "calibrate", "resolution", "place-nodes", "estimate", "simulate")


def _files(folder):
    return {p.name: p.read_bytes() for p in folder.iterdir()} if folder.exists() else {}


class TestRepeatedCalls:
    """main() parses with one parser built at import; calls must not see each other."""

    def test_main_does_not_rebuild_the_parser(self, tmp_path, capsys, monkeypatch):
        def no_rebuild():
            raise AssertionError("main rebuilt the parser")

        monkeypatch.setattr(cli, "_parser", no_rebuild)
        assert run_cli(tmp_path, "resolution", "--freq", "8e9") == 0
        assert run_cli(tmp_path, "estimate", "--codes", "2965,2788,2857") == 0
        assert json.loads(capsys.readouterr().out.splitlines()[1])["tap_used"] == "l1"

    def test_calls_in_one_process_match_calls_made_alone(self, tmp_path, capsys, monkeypatch):
        """Each call's exit code, output and files equal those of the same call
        in a fresh interpreter, though all share one --out and one parser."""
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.delenv("SWSENSE_CONFIG", raising=False)
        calls = [
            ["--config", coupler_config(tmp_path), "estimate", "--codes", "2965,2788,2857"],
            ["--seed", "eleven", "simulate", scenario_path("pulse_response.json")],
            ["--seed", "11", "simulate", "--no-trace", scenario_path("cascade_6_12.json")],
            ["simulate", scenario_path("pulse_response.json")],
            ["estimate", "--codes", "2965,2788,2857"],
        ]
        entry_point = EntryPoint(name="swsense", value="swsense.cli:main", group="console_scripts")
        shared = tmp_path / "shared"
        codes = []
        for k, argv in enumerate(calls):
            alone_dir = tmp_path / f"alone{k}"
            alone = _run_console_script(entry_point, tmp_path, "--out", str(alone_dir), *argv)
            before = _files(shared)
            try:
                rc = main(["--out", str(shared), *argv])
            except SystemExit as exc:
                rc = exc.code
            captured = capsys.readouterr()
            assert (rc, captured.out, captured.err) == (alone.returncode, alone.stdout, alone.stderr), argv
            codes.append(rc)
            # The call wrote what it writes alone and left every other file as it was.
            written, after = _files(alone_dir), _files(shared)
            assert {name: after.get(name) for name in written} == written, argv
            assert {name: after[name] for name in after if name not in written} == {
                name: before[name] for name in before if name not in written
            }, argv
        assert codes == [0, 2, 0, 0, 0]
        assert sorted(_files(tmp_path / "alone2")) == ["metrics.json", "samples_stage0.csv", "samples_stage1.csv"]
        assert sorted(_files(tmp_path / "alone3")) == ["metrics.json", "samples_stage0.csv", "trace.csv"]

    def test_help_matches_a_fresh_parser(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert main(["resolution", "--freq", "8e9"]) == 0
        capsys.readouterr()

        def help_text(parse, argv):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == 0
            return capsys.readouterr().out

        for argv in [["--help"]] + [[name, "--help"] for name in SUBCOMMANDS]:
            assert help_text(main, argv) == help_text(cli._parser().parse_args, argv)


class TestConfigPlumbing:
    def test_config_flag(self, tmp_path, capsys):
        cfg = {
            "chain": {"adc": {"bits": 10}},
            "controller": {"agc_high_code": 741, "agc_low_code": 704},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(tmp_path, "--config", str(path), "resolution", "--freq", "8e9") == 0
        out = json.loads(capsys.readouterr().out)
        # 10-bit ADC: LSB is 4x coarser, so resolution is 4x worse
        assert out["resolution_hz"] == pytest.approx(4 * 20012577.485, abs=4.0)

    def test_config_unknown_key_is_malformed(self, tmp_path, capsys):
        cfg = {"chain": {"attenuator": {"step_db": 0.25, "max_db": 31.75, "settle_time": 5e-8}}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(tmp_path, "--config", str(path), "resolution", "--freq", "8e9") == 2
        assert capsys.readouterr().err == "swsense: chain.attenuator: unknown key 'settle_time'\n"

    @pytest.mark.parametrize(
        "cfg, err",
        [
            ({"controller": {"threshold": 1.0}}, "controller: unknown key 'threshold'"),
            ({"chain": {"stub": {"eps_ef": 4.0}}}, "chain.stub: unknown key 'eps_ef'"),
            ({"chain": {"stub": {"taps": [{"name": "l1"}, {"name": "l2", "f_max": 5e9}]}}},
             "chain.stub.taps[0]: missing key 'f_max'"),
            ({"chain": {"coupling_kind": "coupler", "coupler": {"coupling_dbb": -15.0}}},
             "chain.coupler: unknown key 'coupling_dbb'"),
            ({"controler": {"threshold_dbm": 1.0}}, "config: unknown key 'controler'"),
            ([{"chain": {}}], "config: expected an object, got list"),
            ({"controller": {"agc_engage_power": 0.0}}, "controller: unknown key 'agc_engage_power'"),
            ({"chain": {"coupling_kind": "coupler", "coupler": {"insertion_db": []}}},
             "chain.coupler: insertion_db needs a number or at least one breakpoint"),
            ({"chain": {"amplifier": {"p_out_sat_dbm": 4000.0}}},
             "chain.amplifier: p_out_sat_dbm must be finite with a linear factor that fits a float, got 4000.0"),
            ({"chain": {"coupler": {"coupling_db": -10.0}}},
             "chain: coupler must be null on a tap chain; set coupling_kind to 'coupler' to read through it"),
            ({"chain": {"coupling_kind": "coupler", "coupler": {"f_min_hz": 17e9, "f_max_hz": 18e9}}},
             "chain: coupler f_min_hz=17000000000.0 lies above the stub band edge, 16.000 GHz (tap l1's f_max): "
             "the chain's band is empty"),
            ({"chain": {"detector": {"intercept_b": -100.0}}},
             "chain: detector range [0.014, 1.4] V reads as the one ADC code 0: "
             "the chain needs a floor_code below its ceiling_code"),
            ({"controller": {"agc_floor_code": 757}}, "controller: unknown key 'agc_floor_code'"),
            ({"controller": {"agc_low_code": 700}}, "config: agc_low_code=700 must lie above the chain's floor_code=757"),
            ({"controller": {"agc_high_code": 3200, "agc_low_code": 3050}},
             "config: agc_high_code=3200 must lie below the chain's ceiling_code=3101"),
        ],
    )
    def test_config_block_errors_are_malformed(self, tmp_path, capsys, cfg, err):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(tmp_path, "--config", str(path), "place-nodes") == 2
        assert capsys.readouterr().err == f"swsense: {err}\n"

    @pytest.mark.parametrize("env", [False, True])
    def test_config_that_is_not_json_names_its_file(self, tmp_path, capsys, monkeypatch, env):
        # With $SWSENSE_CONFIG set, the path tells a broken config from a broken scenario.
        path = tmp_path / "bad.json"
        path.write_text('{"a": }')
        argv = ["resolution", "--freq", "8e9"]
        if env:
            monkeypatch.setenv("SWSENSE_CONFIG", str(path))
        else:
            argv = ["--config", str(path), *argv]
        assert run_cli(tmp_path, *argv) == 2
        assert capsys.readouterr() == ("", f"swsense: {path}: Expecting value: line 1 column 7 (char 6)\n")

    def test_partial_coupler_block(self, tmp_path, capsys):
        cfg = {"chain": {"coupling_kind": "coupler", "coupler": {"coupling_db": -15.0}}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(tmp_path, "--config", str(path), "resolution", "--freq", "8e9") == 0
        assert json.loads(capsys.readouterr().out)["freq_hz"] == 8e9

    def test_config_env_var(self, tmp_path, capsys, monkeypatch):
        # The default window lies above a 10-bit chain's ceiling, so it carries its own.
        cfg = {"chain": {"adc": {"bits": 10}}, "controller": {"agc_high_code": 741, "agc_low_code": 704}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        monkeypatch.setenv("SWSENSE_CONFIG", str(path))
        assert run_cli(tmp_path, "resolution", "--freq", "8e9") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["resolution_hz"] == pytest.approx(4 * 20012577.485, abs=4.0)

    def test_bundled_default_matches_library_defaults(self, tmp_path, capsys):
        assert run_cli(tmp_path, "estimate", "--codes", "2965,2788,2857") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["freq_hz"] == pytest.approx(8e9, abs=30e6)


def _declared_script():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["swsense"]


def _run_console_script(entry_point, cwd, *argv):
    """Runs the body an installer writes for entry_point in a fresh interpreter."""
    package_root = str(Path(swsense.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env.pop("SWSENSE_CONFIG", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    body = (
        f"import sys; from {entry_point.module} import {entry_point.attr}; "
        f"sys.exit({entry_point.attr}())"
    )
    return subprocess.run(
        [sys.executable, "-c", body, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_console_script_installed(tmp_path):
    """The declared `swsense` console script resolves to cli.main and keeps
    the exit-status contract through a real process.

    Checks the `[project.scripts]` entry in pyproject.toml, loads it the way
    an installer does, then runs the installer's wrapper body in a
    subprocess: success exits 0, a domain error 1, malformed input 2. This
    is the one CLI test where main() reads sys.argv and its return value
    becomes the process status. It does not look on PATH, which depends on
    whether this interpreter has the package installed, not on the source;
    test_installed_console_script_on_path covers that where it holds.
    """
    declared = _declared_script()
    assert declared == "swsense.cli:main"

    entry_point = EntryPoint(name="swsense", value=declared, group="console_scripts")
    assert entry_point.load() is main

    ok = _run_console_script(entry_point, tmp_path, "resolution", "--freq", "8e9")
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["resolution_pct"] == pytest.approx(0.25016, abs=1e-4)

    out_of_band = _run_console_script(entry_point, tmp_path, "resolution", "--freq", "20e9")
    assert out_of_band.returncode == 1
    assert out_of_band.stderr.startswith("swsense:")

    missing = _run_console_script(entry_point, tmp_path, "simulate", str(tmp_path / "nope.json"))
    assert missing.returncode == 2
    assert missing.stderr.startswith("swsense:")


def _distribution_missing():
    try:
        distribution("swsense")
    except PackageNotFoundError:
        return True
    return False


@pytest.mark.skipif(
    _distribution_missing(), reason="swsense distribution not installed in this interpreter"
)
def test_installed_console_script_on_path():
    scripts = distribution("swsense").entry_points.select(group="console_scripts")
    assert scripts["swsense"].value == _declared_script()
    assert shutil.which("swsense") is not None
