import json
import math

import pytest
from cli_golden import GOLDEN_PATH
from cli_golden import cases as golden_cases

from screwspec import (
    Model,
    PhysicalParams,
    SweepSpec,
    ground_state_closed_form,
    ground_state_wavefunction,
    levels_to_csv,
    levels_to_json,
    rows_to_csv,
    run_verification,
    sweep_rows,
    truncation_solve,
)
from screwspec.cli import main
from screwspec.spectrum import Branch, NegativeDiscriminantError

OSC_ARGS = [
    "--omega0", "2", "--beta", "0.5", "--k", "0.5", "--ell", "2",
    "--flux", "0.75",
]

# a negative closed-form discriminant (omega0 defaults to 1:
# 1.5 + 20 + 3.5 - 30 = -5), and a truncation condition with no real root
NO_CLOSED_FORM = ["--beta", "0.5", "--ell", "1", "--flux", "0.25", "--k", "1"]
NO_TRUNCATION_ROOT = [
    "--method", "truncation", "--model", "inverse-square", "--beta", "0.5", "--k", "0.5",
    "--ell", "0", "--flux", "0",
]
SWEEP_ARGS = [*OSC_ARGS, "--param", "flux", "--from", "0", "--to", "2", "--steps", "5"]

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
        assert out == levels_to_csv(ground_state_closed_form(P_OSC))
        lines = out.splitlines()
        assert lines[0] == (
            "n,ell,branch,energy,spectral,discriminant,termination_defect,c1_over_c0"
        )
        assert len(lines) == 3
        assert lines[1].startswith("1,2,minus,10.268593539448982,")

    def test_no_real_level_is_exit_2(self, capsys):
        code, out, err = run(["energy", *NO_CLOSED_FORM], capsys)
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

    def test_truncation_csv_leaves_absent_fields_empty(self, capsys):
        code, out, _ = run(
            ["energy", *OSC_ARGS, "--method", "truncation", "--n", "3", "--format", "csv"],
            capsys,
        )
        assert code == 0
        assert out == levels_to_csv(truncation_solve(P_OSC, 3))
        for line in out.splitlines()[1:]:
            n, ell, branch, *_, discriminant, _, _ = line.split(",")
            assert (n, ell, branch, discriminant) == ("3", "2", "", "")

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

    @pytest.mark.parametrize(
        "flag, spaced, joined",
        [
            ("--Omega", "-1e-3", "-0.001"),
            ("--flux", "-2.5e-1", "-0.25"),
            ("--Omega", "-1E+2", "-100"),
        ],
    )
    def test_negative_exponent_value_is_a_number(self, capsys, flag, spaced, joined):
        want = run(["energy", *OSC_ARGS, f"{flag}={joined}"], capsys)
        assert want[0] == 0
        assert run(["energy", *OSC_ARGS, flag, spaced], capsys) == want


class TestOverflow:
    # squaring a flux of 1e160 leaves the float range, and so does an energy
    # of delta - Omega iota = 2e308
    @pytest.mark.parametrize(
        "argv",
        [
            ["energy", "--flux", "1e160"],
            ["sweep", "--param", "flux", "--from", "1e160", "--to", "1e161", "--steps", "11",
             "--method", "truncation"],
            ["energy", *OSC_ARGS, "--delta", "1e308", "--Omega=-1e308"],
            ["energy", *OSC_ARGS, "--delta", "1e308", "--Omega=-1e308", "--method", "truncation",
             "--format", "csv"],
            ["sweep", *OSC_ARGS, "--delta", "1e308", "--param", "Omega", "--from=-1e308",
             "--to=-1.7e308", "--steps", "2", "--format", "json"],
            ["wavefunction", "--flux", "1e160"],
            ["oracle", "--mode", "core", "--mass", "1e300", "--points", "100"],
            # a level's discriminant or diagnostics, once printed as NaN or -Infinity
            ["energy", *OSC_ARGS, "--flux", "1e80"],
            ["energy", *OSC_ARGS, "--flux", "1e50", "--method", "truncation", "--n", "2"],
            ["energy", *OSC_ARGS, "--mass", "1e150", "--method", "truncation"],
            ["energy", "--gamma", "5e307"],
            ["sweep", "--param", "gamma", "--from", "0", "--to", "5e307", "--steps", "2",
             "--format", "json"],
        ],
        ids=[
            "energy", "sweep", "energy-sum", "energy-sum-truncation", "sweep-energy-sum",
            "wavefunction", "oracle-potential", "defect", "defect-truncation-n2",
            "defect-truncation-mass", "discriminant", "sweep-discriminant",
        ],
    )
    # a numpy warning would print lines of its own before the JSON error
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_is_invalid_input(self, capsys, argv):
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "invalid-input"
        assert "overflow" in payload["message"]

    @pytest.mark.parametrize(
        "argv, quantity",
        [
            # at k = 3.33e299, iota = ell - flux - beta k = -1.67e299
            (["sweep", *OSC_ARGS, "--param", "k", "--from", "1", "--to", "1e300", "--steps", "4"],
             "iota = -1.6666666666666668e+299"),
            # at beta 1e-10 iota stays small, and the energy's k**2 overflows
            (["energy", *OSC_ARGS, "--beta", "1e-10", "--k", "1e160"], "k = 1e+160"),
            (["energy", *OSC_ARGS, "--mass", "1e160"],
             "the closed-form rate mass * omega0 * beta = 1e+160"),
        ],
        ids=["sweep-iota", "energy-k", "energy-rate"],
    )
    def test_an_overflowing_square_names_its_quantity(self, capsys, argv, quantity):
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "invalid-input",
            "message": f"overflow at these parameters: the square of {quantity} "
                       "leaves the float range",
        }


class TestErrorContract:
    """Every failure ``main`` maps: its exit status and one JSON line on stderr.

    ``TestOverflow`` holds the overflow cases.
    """

    @pytest.mark.parametrize(
        "argv, status, error",
        [
            (["energy", "--beta", "notanumber"], 1, "invalid-input"),
            (["energy", "--beta", "1.5"], 1, "invalid-input"),
            (["energy", *OSC_ARGS, "--out", "{tmp}/missing/levels.json"], 1, "invalid-input"),
            (["sweep", *SWEEP_ARGS, "--out", "{tmp}"], 1, "invalid-input"),
            (["sweep", *SWEEP_ARGS, "--gnuplot", "{tmp}/missing/flux.gp"], 1, "invalid-input"),
            (["verify", "--fast", "--out", "{tmp}/missing/report.txt"], 1, "invalid-input"),
            (["energy", *NO_CLOSED_FORM], 2, "no-real-level"),
            (["wavefunction", *NO_CLOSED_FORM], 2, "no-real-level"),
            (["energy", *NO_TRUNCATION_ROOT], 2, "no-real-level"),
            (["wavefunction", *NO_TRUNCATION_ROOT], 2, "no-real-level"),
            (["energy", *OSC_ARGS, "--method", "truncation", "--n", "80"], 3, "truncation-failed"),
            (["oracle", *OSC_ARGS, "--neigs", "3", "--points", "3000"], 1, "grid-too-coarse"),
            # NaN residual norms, which the gate once let through
            (["oracle", *OSC_ARGS, "--flux", "1e80", "--mode", "outer"], 1, "invalid-input"),
            (["oracle", *OSC_ARGS, "--flux", "1e80", "--mode", "core"], 1, "invalid-input"),
        ],
        ids=[
            "argparse", "invalid-value", "out-missing-dir", "out-is-dir",
            "gnuplot-missing-dir", "verify-out-missing-dir", "energy-discriminant",
            "wavefunction-discriminant", "energy-no-root", "wavefunction-no-root",
            "truncation-failed", "grid-too-coarse", "outer-residual-nan", "core-residual-nan",
        ],
    )
    def test_failure_is_one_json_line(self, capsys, tmp_path, argv, status, error):
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        code, out, err = run(argv, capsys)
        assert code == status
        assert out == ""
        assert "Traceback" not in err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == error

    @pytest.mark.parametrize(
        "target, reason",
        [("missing/levels.json", "No such file or directory"), ("", "Is a directory")],
        ids=["missing-dir", "directory"],
    )
    def test_unwritable_path_is_named(self, capsys, tmp_path, target, reason):
        target = tmp_path / target
        _, out, err = run(["energy", *OSC_ARGS, "--out", str(target)], capsys)
        assert out == ""
        assert json.loads(err)["message"] == f"cannot write {target}: {reason}"

    def test_unwritable_path_is_refused_before_any_work(self, capsys, tmp_path, monkeypatch):
        import screwspec.cli as cli_mod

        def not_reached(*args, **kwargs):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(cli_mod, "run_verification", not_reached)
        code, out, err = run(["verify", "--out", str(tmp_path / "missing" / "r.txt")], capsys)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "invalid-input"

    @pytest.mark.parametrize(
        "point", [NO_CLOSED_FORM, NO_TRUNCATION_ROOT], ids=["closed-form", "truncation"]
    )
    def test_energy_and_wavefunction_fail_alike(self, capsys, point):
        _, _, energy_err = run(["energy", *point], capsys)
        _, _, wavefunction_err = run(["wavefunction", *point], capsys)
        assert energy_err == wavefunction_err

    def test_discriminant_message_is_the_library_message(self, capsys):
        p = PhysicalParams(model=Model.OSCILLATOR, mass=1.0, omega0=1.0, beta=0.5, ell=1,
                           flux=0.25, k=1.0)
        with pytest.raises(NegativeDiscriminantError) as exc:
            ground_state_closed_form(p)
        _, _, err = run(["energy", *NO_CLOSED_FORM], capsys)
        assert json.loads(err) == {
            "error": "no-real-level", "message": str(exc.value), "discriminant": -5.0,
        }


class TestGolden:
    """CLI bytes against ``data/cli_golden.json`` (see ``cli_golden.py``)."""

    GOLDEN = json.loads(GOLDEN_PATH.read_text())
    CASES = golden_cases()

    def test_every_case_is_recorded(self):
        assert sorted(self.GOLDEN) == sorted(self.CASES)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_output_is_byte_identical(self, capsys, name):
        code, out, err = run(self.CASES[name], capsys)
        assert code == 0
        want = self.GOLDEN[name]
        if isinstance(want, str):  # standard output alone, nothing on stderr
            want = {"stdout": want, "stderr": ""}
        assert {"stdout": out, "stderr": err} == want


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


class TestOutFile:
    @pytest.mark.parametrize(
        "argv",
        [["energy", *OSC_ARGS], ["sweep", *SWEEP_ARGS, "--format", "json"]],
        ids=["energy-json", "sweep-json"],
    )
    def test_file_holds_the_stdout_bytes(self, capsys, tmp_path, argv):
        target = tmp_path / "out.json"
        _, stdout, _ = run(argv, capsys)
        code, out, _ = run([*argv, "--out", str(target)], capsys)
        assert (code, out) == (0, "")
        assert target.read_bytes() == stdout.encode()


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

    def test_swept_field_flag_is_not_validated(self, capsys):
        # the axis replaces --beta at every point, so its out-of-range value is never used
        argv = ["sweep", *OSC_ARGS, "--param", "beta", "--from", "0.1", "--to", "0.9",
                "--steps", "3"]
        want = run(argv, capsys)
        assert want[0] == 0
        assert run([*argv, "--beta", "1.5"], capsys) == want

    def test_ell_sweep_off_the_integers_is_refused(self, capsys):
        code, out, err = run(
            ["sweep", *OSC_ARGS, "--param", "ell", "--from", "0", "--to", "1", "--steps", "3"],
            capsys,
        )
        assert (code, out) == (1, "")
        assert json.loads(err)["message"] == "an ell sweep must hit integers exactly: got 0.5"

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

    def test_gnuplot_refuses_json_data(self, capsys, tmp_path, monkeypatch):
        # the stub plots CSV columns, which a JSON file does not have
        import screwspec.cli as cli_mod

        def not_reached(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli_mod, "sweep_rows", not_reached)
        data = tmp_path / "flux.json"
        script = tmp_path / "flux.gp"
        code, out, err = run(
            ["sweep", *OSC_ARGS, "--param", "flux", "--from", "0",
             "--to", "2", "--steps", "5", "--format", "json", "--out", str(data),
             "--gnuplot", str(script)],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "invalid-input"
        assert not data.exists() and not script.exists()


    @pytest.mark.parametrize(
        "bounds, message",
        [
            # these ended in "flux must be finite: got nan" and "Omega must be
            # finite: got nan", from 0 * inf and from an overflowing span
            (["--param", "flux", "--from", "0", "--to", "inf"],
             "sweep endpoints must be finite numbers: got start=0.0, stop=inf"),
            (["--param", "Omega", "--from=-1e308", "--to", "1e308"],
             "the sweep span stop - start overflows: got start=-1e+308, stop=1e+308"),
        ],
    )
    def test_unusable_range_is_exit_1_naming_it(self, capsys, bounds, message):
        code, out, err = run(["sweep", *OSC_ARGS, *bounds, "--steps", "3"], capsys)
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "invalid-input"
        assert payload["message"] == message


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

    def test_rmin_with_all_modes_is_exit_1_before_any_solve(self, capsys, monkeypatch):
        # no --rmin suits both the outer grid (at or above beta) and the core grid (below it)
        import screwspec.cli as cli_mod

        calls = []
        monkeypatch.setattr(cli_mod, "oracle_eigenvalues", lambda *a, **k: calls.append(a))
        code, out, err = run(["oracle", *OSC_ARGS, "--mode", "all", "--rmin", "0.6"], capsys)
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "invalid-input"
        assert "--rmin" in payload["message"]
        assert calls == []

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

    @pytest.mark.parametrize("tol", ["nan", "0", "-1e-6"])
    def test_unusable_residual_tol_is_exit_1(self, capsys, tol):
        # the flat grid at 100 points fails the default gate (residual ~7e-4);
        # a NaN tolerance must not wave it through
        code, out, err = run(
            ["oracle", "--mode", "flat", "--points", "100", f"--residual-tol={tol}"],
            capsys,
        )
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "invalid-input"
        assert "residual_tol" in payload["message"]

    @pytest.mark.parametrize("mode", ["outer", "flat"])
    def test_infinite_rmax_is_exit_1(self, capsys, mode):
        code, out, err = run(
            ["oracle", *OSC_ARGS, "--mode", mode, "--rmax", "inf"], capsys
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1  # the JSON error alone, no numpy warnings
        assert json.loads(err)["error"] == "invalid-input"

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

    def test_report_names_a_complex_closed_form(self, capsys):
        code, out, err = run(["oracle", *NO_CLOSED_FORM, "--report"], capsys)
        assert code == 0 and out.startswith("mode,index,lambda")
        # c_2 has no real root here either, so nothing follows the line
        assert err.splitlines()[-1] == "  closed form: none (negative discriminant (-5))"


class TestEnergyFreeCommands:
    @pytest.mark.parametrize(
        "command",
        [["wavefunction"], ["oracle", "--mode", "flat", "--report"]],
        ids=["wavefunction", "oracle-report"],
    )
    def test_output_ignores_omega_and_delta(self, capsys, command):
        # psi and the report's spectral values depend on neither; these two
        # make the energy, which neither command prints, overflow
        want = run([*command, *OSC_ARGS], capsys)
        assert want[0] == 0
        assert run([*command, *OSC_ARGS, "--delta", "1e308", "--Omega=-1e308"], capsys) == want


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
        sol = ground_state_wavefunction(P_OSC, Branch.MINUS)
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
        code, _, err = run(["wavefunction", *NO_CLOSED_FORM], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "no-real-level"

    @pytest.mark.parametrize("xmax", ["nan", "inf", "-inf", "0"])
    def test_xmax_must_be_positive_and_finite(self, capsys, xmax):
        code, out, err = run(
            ["wavefunction", *OSC_ARGS, "--method", "truncation", f"--xmax={xmax}"],
            capsys,
        )
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "invalid-input"
        assert "xmax" in payload["message"]

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

    def test_out_file_is_the_only_output(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        code, out, err = run(["verify", "--fast", "--out", str(target)], capsys)
        assert code == 0
        assert (out, err) == ("", "")
        assert target.read_text().startswith("verification report")

    def test_periodicity_baselines_have_truncation_roots(self):
        # seed 7 draws a truncation baseline whose c_2 has no real root at
        # flux + nu; the sampler must reject it instead of the check failing
        report = run_verification(seed=7)
        check = report.check("ab-periodicity")
        assert check.status == "PASS"
        assert check.measured is not None
        assert report.overall_pass is True

    def test_tampered_recurrence_fails_the_series_check(self, monkeypatch):
        # Non-fakeability: flip one sign inside the recurrence and the
        # residual check must fail rather than keep reporting success.
        import screwspec.series as series_mod

        original = series_mod._triple

        def tampered(i, iota2, j, omega, scaled):
            d1, d2, d3 = original(i, iota2, j, omega, scaled)
            return d1, -d2, d3

        monkeypatch.setattr(series_mod, "_triple", tampered)
        report = run_verification(fast=True)
        assert report.check("series-residual").status == "FAIL"
        assert report.check("series-residual").measured is not None
        assert report.overall_pass is False

    def test_tampered_recurrence_is_exit_1(self, capsys, monkeypatch):
        import screwspec.series as series_mod

        original = series_mod._triple

        def tampered(i, iota2, j, omega, scaled):
            d1, d2, d3 = original(i, iota2, j, omega, scaled)
            return d1, -d2, d3

        monkeypatch.setattr(series_mod, "_triple", tampered)
        code, out, err = run(["verify", "--fast", "--format", "json"], capsys)
        assert code == 1
        assert err == ""  # the report names the failed check; no JSON error
        assert "FAIL" in out
        check = {c["name"]: c for c in json.loads(out)["checks"]}["series-residual"]
        assert check["status"] == "FAIL"
        assert check["measured"] is not None
