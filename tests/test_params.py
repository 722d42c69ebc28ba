import math
import random
import warnings

import pytest

from screwspec import (
    InvalidParameterError,
    Model,
    PhysicalParams,
    derive_params,
    spectral_to_energy,
)


def osc(**kw):
    base = dict(
        model=Model.OSCILLATOR, mass=1.0, omega0=1.0, beta=0.5, k=1.0, ell=1
    )
    base.update(kw)
    return PhysicalParams(**base)


def invsq(**kw):
    base = dict(model=Model.INVERSE_SQUARE, mass=1.0, beta=0.5, k=1.0, ell=1)
    base.update(kw)
    return PhysicalParams(**base)


class TestDerived:
    def test_iota_composition(self):
        p = osc(ell=1, flux=0.25, beta=0.5, k=1.0)
        assert derive_params(p).iota == 0.25

    def test_j_without_coupling(self):
        assert derive_params(osc(gamma=0.0)).j == 0.5

    def test_j_with_coupling(self):
        p = osc(mass=2.0, gamma=0.375)
        # 2*M*gamma + 1/4 = 1.75
        assert derive_params(p).j == pytest.approx(math.sqrt(1.75), rel=1e-15)

    def test_omega_is_the_gaussian_rate(self):
        # omega must satisfy exp(-omega x / 2) == exp(-M w0 r^2 / 2) under
        # x = r^2/beta^2, i.e. omega = M w0 beta^2; the change-of-variable
        # check in test_series pins this against the radial operator.
        p = osc(mass=1.0, omega0=2.0, beta=0.5)
        assert derive_params(p).omega == 0.5

    def test_omega_vanishes_without_trap(self):
        assert derive_params(invsq()).omega == 0.0


class TestEnergyConversion:
    def test_oscillator_example(self):
        p = osc(mass=1.0, k=1.0, Omega=0.0, delta=0.0)
        assert spectral_to_energy(p, 0.0) == 0.5

    def test_inverse_square_example(self):
        p = invsq(mass=1.0, k=1.0, Omega=1.0, ell=1, flux=0.25, beta=0.5)
        assert derive_params(p).iota == 0.25
        assert spectral_to_energy(p, 2.0) == 1.25

    def test_energy_is_a_float(self):
        rng = random.Random(7)
        for _ in range(200):
            p = osc(
                mass=rng.uniform(0.5, 2.0),
                omega0=rng.uniform(0.5, 2.0),
                beta=rng.uniform(0.1, 0.9),
                k=rng.uniform(0.2, 2.0),
                ell=rng.randint(-3, 4),
                flux=rng.uniform(0.0, 2.0),
                Omega=rng.uniform(-1.0, 1.0),
                delta=rng.uniform(-0.5, 0.5),
                gamma=rng.uniform(0.0, 1.0),
            )
            assert type(spectral_to_energy(p, rng.uniform(-50.0, 50.0))) is float


class TestValidation:
    def test_mass_positive(self):
        with pytest.raises(InvalidParameterError, match="mass"):
            osc(mass=0.0)

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.2, 1.5])
    def test_beta_open_interval(self, beta):
        with pytest.raises(InvalidParameterError, match="beta"):
            osc(beta=beta)

    def test_k_positive(self):
        with pytest.raises(InvalidParameterError, match="k must"):
            osc(k=0.0)

    def test_ell_integer(self):
        with pytest.raises(InvalidParameterError, match="ell"):
            osc(ell=1.5)

    def test_gamma_nonnegative(self):
        with pytest.raises(InvalidParameterError, match="gamma"):
            osc(gamma=-0.1)

    def test_oscillator_needs_trap(self):
        with pytest.raises(InvalidParameterError, match="omega0"):
            osc(omega0=0.0)

    def test_inverse_square_forbids_trap(self):
        with pytest.raises(InvalidParameterError, match="omega0"):
            invsq(omega0=1.0)

    def test_inverse_square_forbids_offset(self):
        with pytest.raises(InvalidParameterError, match="delta"):
            invsq(delta=0.5)

    def test_finite_required(self):
        with pytest.raises(InvalidParameterError, match="finite"):
            osc(flux=math.inf)

    def test_negative_flux_builds_without_warning(self):
        # a flux tube of the other orientation is valid input
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = osc(flux=-0.25)
        assert p.flux == -0.25

    def test_model_accepts_string(self):
        p = PhysicalParams(
            model="inverse-square", mass=1.0, beta=0.5, k=1.0, ell=0
        )
        assert p.model is Model.INVERSE_SQUARE
