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
    effective_potential,
    flat_exact_spectrum,
    gaussian_probe,
    oracle_csv,
    oracle_eigenvalues,
    oracle_vs_closed_form_report,
    separation_residual,
)

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


class TestPotential:
    def test_flat_value(self):
        p = PhysicalParams(
            model=Model.OSCILLATOR, mass=1.0, omega0=1.0, beta=0.5, k=1.0, ell=1
        )
        r = 1.3
        expected = (1.0 * 1.0 * r) ** 2 + ((1.0 - 0.0) ** 2 + 0.0 - 0.25) / r**2
        assert effective_potential(p, GridMode.FLAT, r) == pytest.approx(
            expected, rel=1e-15
        )

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
        expected = r**2 + 0.6 / r**2 + iota**2 / g - (r**2 + 0.5) / (4 * g**2)
        assert effective_potential(p, GridMode.OUTER, r) == pytest.approx(
            expected, rel=1e-15
        )

    def test_normal_form_matches_first_derivative_form(self):
        # Removing the first-derivative term p = r/(r^2 - beta^2) via
        # psi = u exp(-int p/2) shifts the potential by p^2/4 + p'/2;
        # p' is written out independently here, so a wrong collapse of
        # the correction term in the production code would show up.
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
        from screwspec.params import derive_params

        iota = derive_params(p).iota
        for r in (0.2, 0.75, 1.1, 2.4):
            g = r**2 - p.beta**2
            damp = r / g
            ddamp = -(r**2 + p.beta**2) / g**2
            first_form = (
                (p.mass * p.omega0 * r) ** 2
                + 2 * p.mass * p.gamma / r**2
                + iota**2 / g
            )
            mode = GridMode.CORE if r < p.beta else GridMode.OUTER
            expected = first_form + damp**2 / 4.0 + ddamp / 2.0
            assert effective_potential(p, mode, r) == pytest.approx(
                expected, rel=1e-13
            )

    def test_singular_points_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            effective_potential(P_OSC, GridMode.FLAT, 0.0)
        with pytest.raises(ValueError, match="differ"):
            effective_potential(P_OSC, GridMode.OUTER, P_OSC.beta)


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
        diag = 2.0 / h**2 + effective_potential(p, GridMode.FLAT, r)
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


class TestSeparation:
    @pytest.mark.parametrize(
        "p",
        [
            PhysicalParams(
                model=Model.OSCILLATOR,
                mass=1.0,
                omega0=2.0,
                beta=0.5,
                k=0.5,
                ell=2,
                flux=0.75,
                Omega=0.8,
                delta=0.3,
            ),
            PhysicalParams(
                model=Model.INVERSE_SQUARE,
                mass=1.4,
                beta=0.3,
                k=0.9,
                ell=-1,
                flux=0.6,
                Omega=-0.4,
                gamma=0.2,
            ),
        ],
        ids=["osc", "invsq"],
    )
    def test_identity_holds_for_any_energy(self, p):
        probe = gaussian_probe(width=0.8, center=0.9)
        for energy in (-2.0, 0.0, 1.234):
            for r in (0.4, 1.1, 2.3):
                if abs(r - p.beta) < 1e-3:
                    continue
                assert separation_residual(p, energy, probe, r) <= 1e-12

    def test_independent_of_the_sample_phase(self):
        probe = gaussian_probe(width=0.8, center=0.9)
        for angle, z in ((0.0, 0.0), (1.9, -0.4), (-2.7, 3.1)):
            res = separation_residual(
                P_OSC, 1.0, probe, 1.2, angle=angle, z=z
            )
            assert res <= 1e-12

    def test_singular_radii_rejected(self):
        probe = gaussian_probe(width=0.8, center=0.9)
        with pytest.raises(ValueError, match="positive"):
            separation_residual(P_OSC, 1.0, probe, 0.0)
        with pytest.raises(ValueError, match="differ"):
            separation_residual(P_OSC, 1.0, probe, P_OSC.beta)


class TestReport:
    def test_oscillator_report(self):
        report = oracle_vs_closed_form_report(P_OSC)
        assert report.flat_exact is not None and len(report.flat_exact) == 5
        assert len(report.matches) == 4  # two closed branches, two roots
        text = report.to_text()
        assert "oracle report" in text
        assert "outer" in text and "core" in text and "flat" in text

    def test_inverse_square_report_has_no_flat_ladder(self):
        report = oracle_vs_closed_form_report(P_INV, n_points=2000, residual_tol=None)
        assert report.flat_exact is None
        assert report.closed_empty_reason is None
        assert len(report.truncation) == 2


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
