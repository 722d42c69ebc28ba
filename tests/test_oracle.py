import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from screwspec import (
    GridMode,
    GridSpec,
    InvalidParameterError,
    Model,
    OracleAccuracyError,
    PhysicalParams,
    flat_exact_spectrum,
    oracle_csv,
    oracle_eigenvalues,
)
import screwspec.oracle as oracle_mod
from screwspec.cli import main

P_OSC = PhysicalParams(
    model=Model.OSCILLATOR,
    mass=1.0,
    omega0=2.0,
    beta=0.5,
    k=0.5,
    ell=2,
    flux=0.75,
)

P_INV = PhysicalParams(
    model=Model.INVERSE_SQUARE, mass=1.0, beta=0.5, k=0.4, ell=2
)


def flat_critical():
    """Oscillator point whose flat limit sits in the critical channel s = 0."""
    return PhysicalParams(
        model=Model.OSCILLATOR, mass=1.0, omega0=1.0, beta=0.5, k=1.0, ell=0
    )


def coefficients(p, mode, r):
    """``(c0, damp, W, U, weight)`` of the oracle at the nodes r."""
    return oracle_mod._coefficients(p, mode, np.asarray(r, dtype=float))


class TestPotential:
    def test_flat_value(self):
        p = PhysicalParams(
            model=Model.OSCILLATOR, mass=1.0, omega0=1.0, beta=0.5, k=1.0, ell=1
        )
        r = 1.3
        c0, damp, pot, normal, weight = coefficients(p, GridMode.FLAT, [r])
        assert c0 == (1.0 - 0.0) ** 2 + 0.0 - 0.25
        expected = (1.0 * 1.0 * r) ** 2 + ((1.0 - 0.0) ** 2 + 0.0 - 0.25) / r**2
        assert normal[0] == pytest.approx(expected, rel=1e-15)
        assert pot[0] == pytest.approx(r**2 + 1.0 / r**2, rel=1e-15)
        assert damp[0] == pytest.approx(1.0 / r, rel=1e-15)
        assert weight[0] == pytest.approx(r**-0.5, rel=1e-15)

    def test_outer_value(self):
        p = PhysicalParams(
            model=Model.OSCILLATOR,
            mass=1.0,
            omega0=1.0,
            beta=0.5,
            k=1.0,
            ell=1,
            gamma=0.3,
        )
        r = 1.3
        iota = 1.0 - 0.0 - 0.5 * 1.0
        g = r**2 - 0.25
        c0, damp, pot, normal, weight = coefficients(p, GridMode.OUTER, [r])
        assert c0 == 2 * 0.3
        expected = r**2 + 0.6 / r**2 + iota**2 / g - (r**2 + 0.5) / (4 * g**2)
        assert normal[0] == pytest.approx(expected, rel=1e-15)
        assert pot[0] == pytest.approx(r**2 + 0.6 / r**2 + iota**2 / g, rel=1e-15)
        assert damp[0] == pytest.approx(r / g, rel=1e-15)
        assert weight[0] == pytest.approx(g**-0.25, rel=1e-15)

    @pytest.mark.parametrize("mode", list(GridMode))
    def test_normal_form_matches_first_derivative_form(self, mode):
        # Removing the first-derivative term damp of psi'' + damp psi' +
        # (spectral - W) psi = 0 via psi = u exp(-int damp/2) shifts the
        # potential by damp^2/4 + damp'/2; damp' is written out
        # independently here, so a wrong collapse of the correction term
        # in the production code would show up.  The flat grid's damp is
        # 1/r, with damp' = -1/r^2.
        p = PhysicalParams(
            model=Model.OSCILLATOR,
            mass=1.3,
            omega0=0.9,
            beta=0.6,
            k=0.7,
            ell=2,
            flux=0.4,
            gamma=0.25,
        )
        radii = {GridMode.CORE: (0.2, 0.45), GridMode.OUTER: (0.75, 1.1, 2.4),
                 GridMode.FLAT: (0.2, 0.75, 2.4)}[mode]
        _, damp, pot, normal, _ = coefficients(p, mode, radii)
        for i, r in enumerate(radii):
            if mode is GridMode.FLAT:
                ddamp = -1.0 / r**2
                first_form = (
                    (p.mass * p.omega0 * r) ** 2
                    + (2 * p.mass * p.gamma + (p.ell - p.flux) ** 2) / r**2
                )
            else:
                g = r**2 - p.beta**2
                ddamp = -(r**2 + p.beta**2) / g**2
                first_form = (
                    (p.mass * p.omega0 * r) ** 2
                    + 2 * p.mass * p.gamma / r**2
                    + (p.ell - p.flux - p.beta * p.k) ** 2 / g
                )
            assert pot[i] == pytest.approx(first_form, rel=1e-14)
            expected = first_form + damp[i] ** 2 / 4.0 + ddamp / 2.0
            assert normal[i] == pytest.approx(expected, rel=1e-13)

    def test_vanishing_beta_approaches_the_flat_grid(self):
        # The flat grid is the outer formulas at b = 0; at beta = 1e-6 the
        # outer coefficients differ from the flat ones at O(beta) (iota
        # moves by beta k), away from r = beta.
        beta = 1e-6
        p = PhysicalParams(
            model=Model.OSCILLATOR, mass=1.1, omega0=1.3, beta=beta, k=0.8, ell=1,
            flux=0.3, gamma=0.2,
        )
        r = np.linspace(0.1, 8.0, 400)
        outer = coefficients(p, GridMode.OUTER, r)[1:]
        flat = coefficients(p, GridMode.FLAT, r)[1:]
        for name, a, b in zip(("damp", "W", "U", "weight"), outer, flat):
            assert np.max(np.abs(a - b) / np.abs(b)) <= 10 * beta, name


class TestFlatExact:
    def test_ground_value(self):
        p = flat_critical()
        # s = 0 exactly: 2 M w0 (2 n + 1)
        assert flat_exact_spectrum(p, 0) == 2.0
        assert flat_exact_spectrum(p, 2) == 10.0

    def test_with_angular_index(self):
        p = PhysicalParams(
            model=Model.OSCILLATOR, mass=1.0, omega0=1.0, beta=0.5, k=1.0, ell=2
        )
        assert flat_exact_spectrum(p, 1) == 10.0

    def test_only_for_oscillator(self):
        with pytest.raises(InvalidParameterError, match="oscillator"):
            flat_exact_spectrum(P_INV, 0)

    def test_level_index_nonnegative(self):
        with pytest.raises(InvalidParameterError, match="n_r"):
            flat_exact_spectrum(flat_critical(), -1)


class TestEigenvalues:
    def test_flat_critical_channel_matches_exact(self):
        p = flat_critical()
        res = oracle_eigenvalues(p, GridSpec.default(GridMode.FLAT, p))
        exact = np.array([flat_exact_spectrum(p, i) for i in range(5)])
        rel = np.abs(res.eigenvalues - exact) / exact
        assert rel.max() <= 5e-4
        assert res.residual_norms.max() <= 1e-6
        assert list(res.eigenvalues) == sorted(res.eigenvalues)

    def test_naive_diagonal_fails_critical_channel(self):
        # With the plain sampled c0/r^2 diagonal the s = 0 channel
        # converges only logarithmically; the matched diagonal is not a
        # cosmetic choice.  Kept as a pinned record of the failure mode.
        p = flat_critical()
        n = 4000
        h = 10.0 / (n + 1)
        r = np.arange(1, n + 1) * h
        diag = 2.0 / h**2 + coefficients(p, GridMode.FLAT, r)[3]
        lowest = eigh_tridiagonal(
            diag, np.full(n - 1, -1.0 / h**2), eigvals_only=True, select="i", select_range=(0, 0)
        )
        rel = abs(lowest[0] - 2.0) / 2.0
        assert rel > 0.05

    def test_coarse_grid_trips_the_gate(self):
        p = flat_critical()
        grid = GridSpec.default(GridMode.FLAT, p, n_points=1000)
        with pytest.raises(OracleAccuracyError, match="increase n_points"):
            oracle_eigenvalues(p, grid)

    def test_gate_can_be_disabled_for_convergence_studies(self):
        p = flat_critical()
        grid = GridSpec.default(GridMode.FLAT, p, n_points=1000)
        res = oracle_eigenvalues(p, grid, residual_tol=None)
        assert res.eigenvalues[0] == pytest.approx(2.0, rel=1e-4)

    @pytest.mark.parametrize("mode", [GridMode.OUTER, GridMode.CORE])
    @pytest.mark.parametrize("tol", [1e-6, 1e300, None])
    def test_a_residual_that_is_not_finite_is_refused(self, mode, tol):
        # at flux 1e80 the residual terms overflow and the norms come out NaN,
        # which a gate written as norms > tol lets through
        p = PhysicalParams(model=Model.OSCILLATOR, mass=1.0, omega0=2.0, beta=0.5, k=0.5,
                           ell=2, flux=1e80)
        with pytest.raises(InvalidParameterError, match="residual .* is not finite"):
            oracle_eigenvalues(p, GridSpec.default(mode, p, 400), residual_tol=tol)

    def test_eigensolve_is_looked_up_on_the_module(self, monkeypatch):
        # profilers time the eigensolve alone by replacing this module global
        import screwspec.oracle as oracle_mod

        p = flat_critical()
        grid = GridSpec.default(GridMode.FLAT, p)
        plain = oracle_eigenvalues(p, grid)
        solve = oracle_mod.eigh_tridiagonal
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return solve(*args, **kwargs)

        monkeypatch.setattr(oracle_mod, "eigh_tridiagonal", counting)
        counted = oracle_eigenvalues(p, grid)
        assert calls == [(grid.n_points,)]
        assert counted.eigenvalues.tobytes() == plain.eigenvalues.tobytes()

    def test_outer_grid_must_clear_the_dislocation_radius(self):
        grid = GridSpec(mode=GridMode.OUTER, r_min=0.2, r_max=10.0)
        with pytest.raises(InvalidParameterError, match="outer"):
            oracle_eigenvalues(P_OSC, grid)

    def test_core_grid_must_stay_inside(self):
        grid = GridSpec(mode=GridMode.CORE, r_min=0.0, r_max=0.7)
        with pytest.raises(InvalidParameterError, match="core"):
            oracle_eigenvalues(P_OSC, grid)

    def test_grid_validation(self):
        with pytest.raises(InvalidParameterError, match="n_points"):
            GridSpec(mode=GridMode.FLAT, r_min=0.0, r_max=10.0, n_points=32)
        with pytest.raises(InvalidParameterError, match="r_max"):
            GridSpec(mode=GridMode.FLAT, r_min=2.0, r_max=1.0)

    def test_outer_grid_named_by_value_must_clear_the_dislocation_radius(self):
        grid = GridSpec(mode="outer", r_min=0.1, r_max=10, n_points=2000)
        assert grid.mode is GridMode.OUTER
        with pytest.raises(InvalidParameterError, match="outer"):
            oracle_eigenvalues(P_OSC, grid)

    def test_flat_grid_named_by_value_solves_as_the_flat_grid(self):
        named = GridSpec(mode="flat", r_min=0.0, r_max=10.0, n_points=2000)
        grid = GridSpec(mode=GridMode.FLAT, r_min=0.0, r_max=10.0, n_points=2000)
        got = oracle_eigenvalues(P_OSC, named, residual_tol=None)
        assert got.mode is GridMode.FLAT
        assert got.eigenvalues.tobytes() == oracle_eigenvalues(
            P_OSC, grid, residual_tol=None
        ).eigenvalues.tobytes()

    def test_unknown_grid_mode_is_refused(self):
        with pytest.raises(InvalidParameterError, match="bogus"):
            GridSpec(mode="bogus", r_min=0.0, r_max=10.0)
        with pytest.raises(InvalidParameterError, match="bogus"):
            GridSpec.default("bogus", P_OSC)

    @pytest.mark.parametrize("n_points", [4000.0, True, np.float64(4000.0), "4000"])
    def test_point_count_must_be_an_integer(self, n_points):
        with pytest.raises(InvalidParameterError, match="n_points"):
            GridSpec(mode=GridMode.FLAT, r_min=0.0, r_max=10.0, n_points=n_points)

    def test_numpy_integer_point_count_is_accepted(self):
        grid = GridSpec(mode=GridMode.FLAT, r_min=0.0, r_max=10.0, n_points=np.int64(4000))
        assert type(grid.n_points) is int and grid.n_points == 4000

    @pytest.mark.parametrize("r_min, r_max", [(0.0, math.inf), (0.0, math.nan), (math.nan, 5.0)])
    def test_grid_ends_must_be_finite(self, r_min, r_max):
        with pytest.raises(InvalidParameterError, match="finite"):
            GridSpec(mode=GridMode.FLAT, r_min=r_min, r_max=r_max)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-6])
    def test_residual_tol_must_be_positive(self, tol):
        # a NaN tolerance would let every residual through the gate unseen
        p = flat_critical()
        grid = GridSpec.default(GridMode.FLAT, p, n_points=1000)
        with pytest.raises(InvalidParameterError, match="residual_tol"):
            oracle_eigenvalues(p, grid, residual_tol=tol)

    def test_n_eigs_validation(self):
        p = flat_critical()
        grid = GridSpec.default(GridMode.FLAT, p, n_points=128)
        with pytest.raises(InvalidParameterError, match="n_eigs"):
            oracle_eigenvalues(p, grid, n_eigs=0)
        with pytest.raises(InvalidParameterError, match="too large"):
            oracle_eigenvalues(p, grid, n_eigs=64)

    def test_outer_spectrum_monotone_in_coupling(self):
        import dataclasses

        base = PhysicalParams(
            model=Model.OSCILLATOR,
            mass=1.0,
            omega0=1.0,
            beta=0.5,
            k=1.0,
            ell=1,
            flux=0.25,
        )
        previous = None
        for gamma in (0.0, 0.5):
            p = dataclasses.replace(base, gamma=gamma)
            res = oracle_eigenvalues(p, GridSpec.default(GridMode.OUTER, p))
            if previous is not None:
                assert np.all(res.eigenvalues >= previous - 1e-12)
            previous = res.eigenvalues

    def test_default_grid_geometry(self):
        g = GridSpec.default(GridMode.OUTER, P_OSC)
        assert g.r_min == pytest.approx(P_OSC.beta + 1e-6)
        assert g.r_max == 10.0
        g = GridSpec.default(GridMode.CORE, P_OSC)
        assert (g.r_min, g.r_max) == (0.0, pytest.approx(P_OSC.beta - 1e-6))
        g = GridSpec.default(GridMode.FLAT, P_INV)
        assert (g.r_min, g.r_max) == (0.0, 40.0)
        for mode in GridMode:
            assert GridSpec.default(mode.value, P_OSC) == GridSpec.default(mode, P_OSC)


EPS = np.finfo(float).eps


def seeded_grids():
    """Seeded points of both models on every mode at N = 500 to 16000.

    The untrapped model's outer grid is also solved in boxes of 80 and
    160, past its default of 40.
    """
    rng = np.random.default_rng(20261018)
    u = rng.uniform
    grids = []
    for model in (Model.OSCILLATOR, Model.INVERSE_SQUARE):
        for _ in range(2):
            common = dict(mass=u(0.8, 1.25), beta=u(0.3, 0.7), k=u(0.3, 1.5),
                          ell=int(rng.integers(0, 3)), flux=u(0.0, 1.0), gamma=u(0.0, 0.5),
                          Omega=u(-0.5, 0.5))
            if model is Model.OSCILLATOR:
                p = PhysicalParams(model=model, omega0=u(0.8, 1.25), delta=u(-0.5, 0.5), **common)
            else:
                p = PhysicalParams(model=model, **common)
            for n in (500, 2000, 4000, 16000):
                for mode in GridMode:
                    grids.append((p, GridSpec.default(mode, p, n)))
                if model is Model.INVERSE_SQUARE:
                    for r_max in (80.0, 160.0):
                        grids.append((p, GridSpec(GridMode.OUTER, p.beta + 1e-6, r_max, n)))
    return grids


def default_bisection_eigenpairs(diag, off, n_eigs):
    """The eigensolve the Rayleigh quotients replaced, kept as the reference path.

    Bisection to scipy's default tolerance, ulp * ||T||.
    """
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, n_eigs - 1))


@pytest.fixture(scope="module")
def seeded_solves():
    """Each seeded grid solved by the oracle, by the reference path and by tol=1e-300.

    Bisection with ``tol=1e-300`` still has an error of order eps ||T||,
    with ||T|| about 4 / h^2, so distances to it are measured in that
    unit.
    """
    solves = []
    for p, grid in seeded_grids():
        h, diag, gate = oracle_mod._assemble(p, grid)
        off = np.full(grid.n_points - 1, -1.0 / h**2)
        finest = eigh_tridiagonal(
            diag, off, select="i", select_range=(0, 4), tol=1e-300, eigvals_only=True
        )
        values, vectors = default_bisection_eigenpairs(diag, off, 5)
        result = oracle_eigenvalues(p, grid, residual_tol=None)
        unit = EPS * np.max(np.abs(diag) + 2.0 / h**2)
        solves.append(
            dict(
                label=f"{p.model.value} {grid.mode.value}"
                + (f" r_max={grid.r_max:g}" if grid.mode is GridMode.OUTER else ""),
                quotient=np.max(np.abs(result.eigenvalues - finest)) / unit,
                bisection=np.max(np.abs(values - finest)) / unit,
                gate=bool(np.any(result.residual_norms > oracle_mod.DEFAULT_RESIDUAL_TOL)),
                bisection_gate=bool(
                    np.any(oracle_mod._residual_norms(h, gate, values, vectors)
                           > oracle_mod.DEFAULT_RESIDUAL_TOL)
                ),
            )
        )
    return solves


class TestEigensolve:
    """Bisection to tau, Rayleigh-quotient eigenvalues, and the retry."""

    def test_within_half_an_eps_norm_of_the_finest_bisection(self, seeded_solves):
        assert len(seeded_solves) == 64
        worst = max(s["quotient"] for s in seeded_solves)
        assert worst <= 0.5, worst

    def test_closer_to_the_finest_bisection_than_the_reference_path(self, seeded_solves):
        # per class of grid, the largest distance of the quotients against
        # that of the reference path; equal only if the quotients were not taken
        labels = {s["label"] for s in seeded_solves}
        assert len(labels) == 8
        for label in sorted(labels):
            group = [s for s in seeded_solves if s["label"] == label]
            quotient = max(s["quotient"] for s in group)
            bisection = max(s["bisection"] for s in group)
            assert quotient < bisection, (label, quotient, bisection)

    def test_residual_gate_verdicts_match_the_reference_path(self, seeded_solves):
        verdicts = [(s["gate"], s["bisection_gate"]) for s in seeded_solves]
        assert [a for a, _ in verdicts] == [b for _, b in verdicts]
        assert {a for a, _ in verdicts} == {True, False}  # both verdicts are exercised

    @staticmethod
    def counted(monkeypatch, wrong_by=0.0):
        """Record the ``tol`` of each eigensolve; optionally shift the loose one's values."""
        solve = oracle_mod.eigh_tridiagonal
        tols = []

        def counting(*args, **kwargs):
            tols.append(kwargs["tol"])
            values, vectors = solve(*args, **kwargs)
            return (values + wrong_by if kwargs["tol"] else values), vectors

        monkeypatch.setattr(oracle_mod, "eigh_tridiagonal", counting)
        return tols

    def test_a_double_well_takes_the_retry(self, monkeypatch):
        # Each low level of a quartic double well is a pair split far below
        # tau, so bisection cannot tell the two apart.  Both quotients would
        # still lie within the splitting of the pair; the retry is taken
        # because the pair's bisection values lie within tau of each other.
        n, length = 200, 10.0
        h = length / (n + 1)
        x = -length / 2 + h * np.arange(1, n + 1)
        diag = 2.0 / h**2 + 100.0 * (x**2 - 4.0) ** 2 / 16.0
        off = np.full(n - 1, -1.0 / h**2)
        dense = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[:5]
        tau = oracle_mod.BISECTION_GAP_FRACTION * 3.0 * math.pi**2 / length**2
        assert dense[1] - dense[0] < 1e-5 * tau
        tols = self.counted(monkeypatch)
        values, vectors = oracle_mod._lowest_eigenpairs(diag, off, 5, tau)
        assert tols == [tau, 0.0]
        assert np.max(np.abs(values - dense)) <= 20 * EPS * np.max(np.abs(diag) + 2.0 / h**2)
        assert np.max(np.abs(vectors.T @ vectors - np.eye(5))) <= 1e-12

    def test_a_stray_quotient_takes_the_retry(self, monkeypatch):
        # well-separated levels whose bisection values land 2 tau off
        p = flat_critical()
        grid = GridSpec.default(GridMode.FLAT, p, n_points=500)
        h, diag, _ = oracle_mod._assemble(p, grid)
        off = np.full(grid.n_points - 1, -1.0 / h**2)
        tau = oracle_mod.BISECTION_GAP_FRACTION * 3.0 * math.pi**2 / grid.r_max**2
        tols = self.counted(monkeypatch, wrong_by=2.0 * tau)
        values, _ = oracle_mod._lowest_eigenpairs(diag, off, 5, tau)
        assert tols == [tau, 0.0]
        assert values.tobytes() == default_bisection_eigenpairs(diag, off, 5)[0].tobytes()


class TestReport:
    """``oracle --report`` lines up the grids the command itself solved."""

    OSC_ARGS = ["--omega0", "2", "--beta", "0.5", "--k", "0.5", "--ell", "2", "--flux", "0.75"]

    @staticmethod
    def report(argv, capsys):
        assert main(["oracle", *argv, "--report"]) == 0
        return capsys.readouterr().err.splitlines()

    @staticmethod
    def predictions(lines):
        return [ln for ln in lines if ln.startswith(("  closed-", "  truncation-"))]

    def test_oscillator_report(self, capsys):
        lines = self.report(self.OSC_ARGS, capsys)
        assert lines[0] == "oracle report (oscillator model)"
        [ladder] = [ln for ln in lines if ln.startswith("  flat exact:")]
        assert len(ladder.split(",")) == 5
        predictions = self.predictions(lines)
        assert len(predictions) == 4  # two closed branches, two roots
        assert all("nearest outer" in ln and "nearest core" in ln for ln in predictions)
        text = "\n".join(lines)
        assert "outer" in text and "core" in text and "flat" in text

    def test_inverse_square_report_has_no_flat_ladder(self, capsys):
        argv = ["--model", "inverse-square", "--beta", "0.5", "--k", "0.4", "--ell", "2",
                "--points", "2000"]
        lines = self.report(argv, capsys)
        assert not any(ln.startswith("  flat exact:") for ln in lines)
        assert not any(ln.startswith("  closed form: none") for ln in lines)
        assert sum(ln.startswith("  truncation-") for ln in self.predictions(lines)) == 2

    def test_report_follows_the_grid_flags(self, capsys):
        lines = self.report([*self.OSC_ARGS, "--rmax", "7"], capsys)
        assert lines[1].startswith("  outer grid (0.500001, 7), n = 4000: [")

    def test_one_mode_report_solves_its_grid_once(self, capsys, monkeypatch):
        import screwspec.cli as cli_mod
        import screwspec.oracle as oracle_mod

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1].mode)
            return oracle_eigenvalues(*args, **kwargs)

        # the command and any report helper may reach the solver from either module
        monkeypatch.setattr(cli_mod, "oracle_eigenvalues", counted)
        monkeypatch.setattr(oracle_mod, "oracle_eigenvalues", counted)
        lines = self.report([*self.OSC_ARGS, "--mode", "flat"], capsys)
        assert calls == [GridMode.FLAT]
        assert [ln.split(" grid")[0].strip() for ln in lines if " grid (" in ln] == ["flat"]
        assert len(self.predictions(lines)) == 4
        assert not any("nearest" in ln for ln in self.predictions(lines))


class TestCsv:
    def test_header_and_shape(self):
        p = flat_critical()
        res = oracle_eigenvalues(p, GridSpec.default(GridMode.FLAT, p), n_eigs=3)
        text = oracle_csv([res])
        lines = text.splitlines()
        assert lines[0] == "mode,index,lambda,residual_norm,n_points,r_min,r_max"
        assert len(lines) == 4
        assert lines[1].startswith("flat,0,")
        assert lines[1].endswith(",4000,0,10")

    def test_byte_stability(self):
        p = flat_critical()
        res = oracle_eigenvalues(p, GridSpec.default(GridMode.FLAT, p), n_eigs=3)
        again = oracle_eigenvalues(p, GridSpec.default(GridMode.FLAT, p), n_eigs=3)
        assert oracle_csv([res]) == oracle_csv([again])
