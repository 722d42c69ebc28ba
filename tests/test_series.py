import numpy as np
import pytest

from screwspec import (
    ConvergenceWarning,
    Model,
    PhysicalParams,
    SeriesOverflowError,
    SeriesSolution,
    derive_params,
    eval_psi_x_derivatives,
    series_coefficients,
)
from screwspec.series import _seed, _triple, series_residual
from screwspec.verify import _alternate_coefficients

# Oscillator set used throughout: iota = 1, omega = 1/2, j = 1/2.
P_OSC = PhysicalParams(
    model=Model.OSCILLATOR,
    mass=1.0,
    omega0=2.0,
    beta=0.5,
    k=0.5,
    ell=2,
    flux=0.75,
)

# Inverse-square set: iota = 1.8, omega = 0, j = 1/2.
P_INV = PhysicalParams(
    model=Model.INVERSE_SQUARE, mass=1.0, beta=0.5, k=0.4, ell=2
)


class TestRecurrence:
    def test_factors_at_zero_coupling(self):
        # iota = 0, j = 1/2, omega = 0, spectral = 0:
        # d1 = 2 - (-1)/4, d2 = 0, d3 = 2.5 * 2.
        assert _triple(0, 0.0, 0.5, 0.0, 0.0) == (2.25, 0.0, 5.0)

    def test_alternate_denominator_differs(self):
        # the verify audit's series at iota = 0, j = 1/2, omega = 0,
        # spectral = 0: c_2 = (d1 c_1 + d2 c_0) / d3 with the same d1, d2
        p = PhysicalParams(
            model=Model.INVERSE_SQUARE, mass=1.0, beta=0.5, k=1.0, ell=1, flux=0.5
        )
        c = _alternate_coefficients(p, 0.0, 2).coeffs
        d1, d2, _ = _triple(0, 0.0, 0.5, 0.0, 0.0)
        d3 = (d1 * c[1] + d2 * c[0]) / c[2]
        assert (d1, d2) == (2.25, 0.0)
        assert d3 == 4.0

    def test_factors_from_physical_parameters(self):
        # iota = 0 and j = 1/2 from the parameters, omega = 0, spectral = 0
        p = PhysicalParams(
            model=Model.INVERSE_SQUARE, mass=1.0, beta=0.5, k=1.0, ell=1, flux=0.5
        )
        d = derive_params(p)
        assert _triple(0, d.iota**2, d.j, d.omega, 0.0) == (2.25, 0.0, 5.0)

    def test_seed_is_recurrence_row_minus_one(self):
        # c_1 = d1(-1) c_0 / d3(-1): the closed seed must agree with the
        # i = -1 row of the same recurrence for any parameter draw.
        rng = np.random.default_rng(3)
        for _ in range(50):
            iota = rng.uniform(-2, 2)
            j = rng.uniform(0.5, 2.0)
            omega = rng.uniform(0.0, 2.0)
            scaled = rng.uniform(-5, 5)
            d1, _, d3 = _triple(-1, iota**2, j, omega, scaled)
            assert d1 / d3 == pytest.approx(
                _seed(iota**2, j, omega, scaled), rel=1e-13
            )

    def test_first_coefficient_rational_example(self):
        p = PhysicalParams(
            model=Model.OSCILLATOR,
            mass=2.0,
            omega0=2.0,
            beta=0.5,
            k=1.0,
            ell=1,
            flux=0.5,
        )
        sol = series_coefficients(p, 0.0, 4)
        assert sol.coeffs[0] == 1.0
        assert sol.coeffs[1] == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_overflow_is_reported_with_index(self):
        with pytest.raises(SeriesOverflowError) as exc:
            series_coefficients(P_OSC, 1e160, 50)
        assert exc.value.index >= 2

    def test_at_least_one_term(self):
        with pytest.raises(ValueError, match="n_terms must be >= 1"):
            series_coefficients(P_OSC, 3.7, 0)


class TestEvaluation:
    def test_prefactor_only(self):
        sol = SeriesSolution(
            coeffs=np.array([1.0]),
            power=0.5,
            gauss_factor=0.0,
            polynomial_degree=0,
        )
        assert eval_psi_x_derivatives(sol, 4.0)[0] == pytest.approx(2.0, rel=1e-15)

    def test_linear_polynomial_value(self):
        sol = SeriesSolution(
            coeffs=np.array([1.0, 2.0 / 3.0]),
            power=0.5,
            gauss_factor=0.5,
            polynomial_degree=1,
        )
        # sqrt(1) * exp(-1/2) * (5/3)
        assert eval_psi_x_derivatives(sol, 1.0)[0] == pytest.approx(
            1.0108844328543891, rel=1e-15
        )

    def test_derivatives_frozen_point(self):
        sol = SeriesSolution(
            coeffs=np.array([1.0, 2.0 / 3.0]),
            power=0.5,
            gauss_factor=0.5,
            polynomial_degree=1,
        )
        f, f1, f2 = eval_psi_x_derivatives(sol, 0.7)
        assert f == pytest.approx(0.8647237219020485, rel=1e-14)
        assert f1 == pytest.approx(0.5783541776357857, rel=1e-14)
        assert f2 == pytest.approx(-0.6742117701842967, rel=1e-14)

    def test_derivatives_match_finite_differences(self):
        sol = series_coefficients(P_OSC, 3.7, 60)
        h = 1e-5
        for x in (0.2, 0.45, 0.8):
            f, f1, f2 = eval_psi_x_derivatives(sol, x)
            fp = eval_psi_x_derivatives(sol, x + h)[0]
            fm = eval_psi_x_derivatives(sol, x - h)[0]
            assert f1 == pytest.approx((fp - fm) / (2 * h), rel=1e-8)
            assert f2 == pytest.approx((fp - 2 * f + fm) / h**2, rel=1e-5)

    def test_nonpositive_x_rejected(self):
        sol = series_coefficients(P_OSC, 3.7, 10)
        with pytest.raises(ValueError, match="positive"):
            eval_psi_x_derivatives(sol, 0.0)

    def test_outside_convergence_disc_warns(self):
        sol = series_coefficients(P_OSC, 3.7, 10)
        with pytest.warns(ConvergenceWarning):
            eval_psi_x_derivatives(sol, 1.0)

    def test_terminating_solutions_do_not_warn(self):
        import warnings

        sol = SeriesSolution(
            coeffs=np.array([1.0, -0.5]),
            power=0.75,
            gauss_factor=0.5,
            polynomial_degree=1,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eval_psi_x_derivatives(sol, 2.5)


class TestResidual:
    @pytest.mark.parametrize(
        "p,value",
        [(P_OSC, 3.7), (P_OSC, -4.2), (P_INV, 2.0), (P_INV, -11.0)],
    )
    def test_consistent_series_solves_the_equation(self, p, value):
        sol = series_coefficients(p, value, 200)
        points = (0.1, 0.3, 0.5)
        residual = series_residual(sol, p, value, points)
        assert residual <= 1e-12
        assert residual == max(series_residual(sol, p, value, (t,)) for t in points)

    def test_alternate_denominator_fails_the_equation(self):
        s = 3.7
        sol = _alternate_coefficients(P_OSC, s, 200)
        assert series_residual(sol, P_OSC, s, (0.1, 0.3, 0.5)) > 1e-3

    def test_random_draws_stay_below_tolerance(self):
        rng = np.random.default_rng(11)
        for p in (P_OSC, P_INV):
            for _ in range(10):
                s = rng.uniform(-10, 10)
                sol = series_coefficients(p, s, 200)
                assert series_residual(sol, p, s, (0.1, 0.3, 0.5)) <= 1e-9

    @pytest.mark.parametrize("bad", [0.0, 1e-4, 0.9995, 1.0, -0.3])
    def test_points_outside_band_rejected(self, bad):
        sol = series_coefficients(P_OSC, 3.7, 10)
        with pytest.raises(ValueError, match="residual points"):
            series_residual(sol, P_OSC, 3.7, (bad,))
