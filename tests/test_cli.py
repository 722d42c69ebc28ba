import json
import math

import pytest

from screwspec import (
    Model,
    PhysicalParams,
    SweepSpec,
    ground_state_closed_form,
    ground_state_wavefunction,
    levels_to_json,
    rows_to_csv,
    run_verification,
    sweep_rows,
)
from screwspec.cli import main
from screwspec.spectrum import Branch

OSC_ARGS = [
    "--omega0", "2", "--beta", "0.5", "--k", "0.5", "--ell", "2",
    "--flux", "0.75",
]

P_OSC = PhysicalParams(
    model=Model.OSCILLATOR,
    mass=1.0,
    omega0=2.0,
    beta=0.5,
    k=0.5,
    ell=2,
    flux=0.75,
)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnergy:
    def test_json_output_equals_library_output(self, capsys):
        code, out, err = run(["energy", *OSC_ARGS], capsys)
        assert code == 0
        assert err == ""
        assert out == levels_to_json(ground_state_closed_form(P_OSC)) + "\n"

    def test_json_payload(self, capsys):
        code, out, _ = run(["energy", *OSC_ARGS], capsys)
        data = json.loads(out)
        assert [rec["branch"] for rec in data] == ["minus", "plus"]
        assert data[0]["energy"] == pytest.approx(10.268593539448982, rel=1e-13)

    def test_csv_format(self, capsys):
        code, out, _ = run(["energy", *OSC_ARGS, "--format", "csv"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "n,ell,branch,energy,spectral,discriminant,termination_defect,c1_over_c0"
        )
        assert len(lines) == 3
        assert lines[1].startswith("1,2,minus,10.268593539448982,")

    def test_no_real_level_is_exit_2(self, capsys):
        # omega0 defaults to 1, so the pair at this shift is complex
        # (discriminant 1.5 + 20 + 3.5 - 30).
        code, out, err = run(
            ["energy", "--beta", "0.5", "--ell", "1",
             "--flux", "0.25", "--k", "1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "no-real-level"
        assert payload["discriminant"] == pytest.approx(-5.0, rel=1e-13)

    def test_truncation_method(self, capsys):
        code, out, _ = run(
            ["energy", *OSC_ARGS, "--method", "truncation"], capsys
        )
        assert code == 0
        data = json.loads(out)
        root7 = math.sqrt(7.0)
        assert data[0]["spectral"] == pytest.approx(14 - 4 * root7, rel=1e-12)
        assert data[1]["spectral"] == pytest.approx(14 + 4 * root7, rel=1e-12)

    def test_branch_fallback_for_unlabelled_roots(self, capsys):
        code, out, _ = run(
            ["energy", *OSC_ARGS, "--method", "truncation", "--n", "2",
             "--branch", "minus"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert len(data) == 1
        assert data[0]["branch"] is None
        assert data[0]["n"] == 2

    def test_high_truncation_order_is_exit_3(self, capsys):
        code, out, err = run(
            ["energy", *OSC_ARGS, "--method", "truncation", "--n", "80"], capsys
        )
        assert code == 3
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "truncation-failed"
        assert payload["message"] == "degree of c_79 is 78, expected 79"

    def test_closed_form_rejects_higher_orders(self, capsys):
        code, _, err = run(["energy", *OSC_ARGS, "--n", "2"], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "invalid-input"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "levels.json"
        code, out, _ = run(["energy", *OSC_ARGS, "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())[0]["branch"] == "minus"


class TestBadInput:
    def test_malformed_flag_value(self, capsys):
        code, _, err = run(["energy", "--beta", "notanumber"], capsys)
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "invalid-input"
        assert "beta" in payload["message"]

    def test_invalid_physics(self, capsys):
        code, _, err = run(["energy", "--beta", "1.5"], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "invalid-input"

    def test_unknown_command(self, capsys):
        code, _, err = run(["transmogrify"], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "invalid-input"

    def test_unknown_sweep_parameter(self, capsys):
        code, _, err = run(
            ["sweep", "--param", "mass", "--from", "0.5", "--to", "1",
             "--steps", "3"],
            capsys,
        )
        assert code == 1
        assert "cannot sweep" in json.loads(err)["message"]


class TestPerCommandFlags:
    # a flag is offered only by the commands that read it; anywhere else
    # argparse rejects it with the package's JSON error
    @pytest.mark.parametrize(
        "command, flag",
        [
            ("oracle", ["--format", "json"]),
            ("wavefunction", ["--format", "json"]),
            ("energy", ["--seed", "3"]),
            ("sweep", ["--seed", "3"]),
            ("oracle", ["--seed", "3"]),
            ("wavefunction", ["--seed", "3"]),
            ("energy", ["--jobs", "2"]),
            ("sweep", ["--jobs", "2"]),
            ("oracle", ["--jobs", "2"]),
            ("verify", ["--jobs", "2"]),
            ("wavefunction", ["--jobs", "2"]),
            ("verify", ["--omega0", "5"]),
            ("verify", ["--model", "inverse-square"]),
            ("oracle", ["--no-match"]),
        ],
    )
    def test_unread_flag_is_exit_1(self, capsys, command, flag):
        extra = ["--param", "flux", "--from", "0", "--to", "1", "--steps", "3"]
        argv = [command, *flag, *(extra if command == "sweep" else [])]
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "invalid-input"
        assert f"unrecognized arguments: {' '.join(flag)}" in payload["message"]

    def test_verify_format_is_text_or_json(self, capsys):
        code, out, err = run(["verify", "--fast", "--format", "csv"], capsys)
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "invalid-input"
        assert "invalid choice: 'csv'" in payload["message"]

    def test_verify_reads_seed(self, capsys):
        code, out, _ = run(["verify", "--fast", "--seed", "3", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["overall"] == "PASS"


class TestSweep:
    def test_csv_equals_library_output(self, capsys):
        code, out, _ = run(
            ["sweep", *OSC_ARGS, "--param", "beta", "--from", "0.3",
             "--to", "0.7", "--steps", "4"],
            capsys,
        )
        assert code == 0
        spec = SweepSpec(parameter="beta", start=0.3, stop=0.7, steps=4)
        assert out == rows_to_csv(sweep_rows(P_OSC, spec))

    def test_gnuplot_stub(self, capsys, tmp_path):
        data = tmp_path / "flux.csv"
        script = tmp_path / "flux.gp"
        code, _, _ = run(
            ["sweep", *OSC_ARGS, "--param", "flux", "--from", "0",
             "--to", "2", "--steps", "5", "--out", str(data),
             "--gnuplot", str(script)],
            capsys,
        )
        assert code == 0
        text = script.read_text()
        assert str(data) in text
        assert 'set xlabel "flux"' in text
        assert data.exists()


class TestOracle:
    def test_flat_mode_csv(self, capsys):
        code, out, err = run(["oracle", "--mode", "flat", "--ell", "0"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "mode,index,lambda,residual_norm,n_points,r_min,r_max"
        assert len(lines) == 6
        ground = float(lines[1].split(",")[2])
        assert ground == pytest.approx(2.0, rel=1e-5)

    def test_all_modes(self, capsys):
        code, out, _ = run(["oracle", *OSC_ARGS, "--neigs", "2"], capsys)
        assert code == 0
        modes = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert modes == ["outer", "outer", "core", "core", "flat", "flat"]

    def test_coarse_grid_is_exit_1(self, capsys):
        code, out, err = run(
            ["oracle", "--mode", "flat", "--ell", "0", "--points", "1000"],
            capsys,
        )
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "grid-too-coarse"
        assert "increase n_points" in payload["message"]

    def test_relaxed_tolerance_lets_coarse_grids_through(self, capsys):
        code, out, _ = run(
            ["oracle", "--mode", "flat", "--ell", "0", "--points", "1000",
             "--residual-tol", "1e-4"],
            capsys,
        )
        assert code == 0
        assert len(out.splitlines()) == 6

    def test_rmax_on_core_grid_is_exit_1(self, capsys):
        code, out, err = run(
            ["oracle", *OSC_ARGS, "--mode", "core", "--rmax", "5"], capsys
        )
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "invalid-input"
        assert "--rmax" in payload["message"]

    def test_rmax_reaches_outer_and_flat_grids_only(self, capsys):
        code, out, _ = run(
            ["oracle", *OSC_ARGS, "--points", "2000", "--neigs", "1",
             "--residual-tol", "1e-3", "--rmax", "5"],
            capsys,
        )
        assert code == 0
        r_max = {line.split(",")[0]: line.split(",")[-1] for line in out.splitlines()[1:]}
        assert float(r_max["outer"]) == float(r_max["flat"]) == 5.0
        assert float(r_max["core"]) < P_OSC.beta

    def test_outer_rmin_below_beta_is_exit_1(self, capsys):
        code, _, err = run(
            ["oracle", *OSC_ARGS, "--mode", "outer", "--rmin", "0.2"], capsys
        )
        assert code == 1
        assert json.loads(err)["error"] == "invalid-input"

    def test_report_goes_to_stderr(self, capsys):
        code, out, err = run(
            ["oracle", *OSC_ARGS, "--points", "2000", "--residual-tol", "1e-4",
             "--report"],
            capsys,
        )
        assert code == 0
        assert "oracle report" in err
        assert "oracle report" not in out


class TestWavefunction:
    def test_profile_matches_independent_evaluation(self, capsys):
        code, out, _ = run(
            ["wavefunction", *OSC_ARGS, "--samples", "8", "--xmax", "0.8"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,r,psi,dpsi_dx"
        assert len(lines) == 9
        sol = ground_state_wavefunction(P_OSC, Branch.MINUS).solution
        c0, c1 = sol.coeffs
        psis = []
        for line in lines[1:]:
            x, r, psi, _ = (float(v) for v in line.split(","))
            assert r == pytest.approx(P_OSC.beta * math.sqrt(x), rel=1e-15)
            direct = (
                x**sol.power * math.exp(-sol.gauss_factor * x) * (c0 + c1 * x)
            )
            assert psi == pytest.approx(direct, rel=1e-12)
            psis.append(psi)
        # the profile vanishes at the origin, so the first sample sits
        # below the peak
        assert abs(psis[0]) < max(abs(v) for v in psis)

    def test_terminating_profile_may_cross_x_equals_1(self, capsys):
        code, out, _ = run(
            ["wavefunction", *OSC_ARGS, "--method", "truncation",
             "--samples", "5", "--xmax", "1.2"],
            capsys,
        )
        assert code == 0
        assert len(out.splitlines()) == 6

    def test_no_real_level_is_exit_2(self, capsys):
        code, _, err = run(
            ["wavefunction", "--beta", "0.5", "--ell", "1",
             "--flux", "0.25", "--k", "1"],
            capsys,
        )
        assert code == 2
        assert json.loads(err)["error"] == "no-real-level"

    def test_sample_validation(self, capsys):
        code, _, err = run(
            ["wavefunction", *OSC_ARGS, "--samples", "0"], capsys
        )
        assert code == 1
        assert json.loads(err)["error"] == "invalid-input"


class TestVerify:
    def test_fast_suite_passes(self, capsys):
        code, out, _ = run(["verify", "--fast", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["overall"] == "PASS"
        assert len(payload["checks"]) >= 8
        names = {c["name"] for c in payload["checks"]}
        assert "series-residual" in names
        assert "flat-oracle-validation" in names

    def test_table_output(self, capsys):
        code, out, _ = run(["verify", "--fast"], capsys)
        assert code == 0
        assert "series-residual" in out
        assert "PASS" in out

    def test_tampered_recurrence_fails_the_series_check(self, monkeypatch):
        # Non-fakeability: flip one sign inside the recurrence and the
        # residual check must fail rather than keep reporting success.
        import screwspec.series as series_mod

        original = series_mod._triple

        def tampered(i, iota, j, omega, scaled):
            d1, d2, d3 = original(i, iota, j, omega, scaled)
            return d1, -d2, d3

        monkeypatch.setattr(series_mod, "_triple", tampered)
        report = run_verification(fast=True)
        assert report.check("series-residual").status == "FAIL"
        assert report.check("series-residual").measured is not None
        assert report.overall_pass is False

    def test_tampered_recurrence_is_exit_1(self, capsys, monkeypatch):
        import screwspec.series as series_mod

        original = series_mod._triple

        def tampered(i, iota, j, omega, scaled):
            d1, d2, d3 = original(i, iota, j, omega, scaled)
            return d1, -d2, d3

        monkeypatch.setattr(series_mod, "_triple", tampered)
        code, out, _ = run(["verify", "--fast", "--format", "json"], capsys)
        assert code == 1
        assert "FAIL" in out
        check = {c["name"]: c for c in json.loads(out)["checks"]}["series-residual"]
        assert check["status"] == "FAIL"
        assert check["measured"] is not None
