"""The ``verify`` suite: its reports, its check machinery and the operator identities it audits."""

import json

import numpy as np
import pytest
from verify_golden import GOLDEN_PATH, record
from verify_golden import cases as golden_cases

import screwspec.verify as verify
from screwspec import Model, PhysicalParams, gaussian_probe, run_verification
from screwspec.verify import CHECKS, CheckResult, changeofvar_consistency, separation_residual

GOLDEN = json.loads(GOLDEN_PATH.read_text())
GOLDEN_CASES = golden_cases()
CHECK_NAMES = [c["name"] for c in GOLDEN["seed-20260814:full"]]

# iota = 1, omega = 1/2, j = 1/2
P_OSC = PhysicalParams(
    model=Model.OSCILLATOR,
    mass=1.0,
    omega0=2.0,
    beta=0.5,
    k=0.5,
    ell=2,
    flux=0.75,
)

# iota = 1.8, omega = 0, j = 1/2
P_INV = PhysicalParams(
    model=Model.INVERSE_SQUARE, mass=1.0, beta=0.5, k=0.4, ell=2
)


class TestChangeOfVariable:
    def test_probe_identity_both_models(self):
        probe = gaussian_probe(width=0.6, center=0.4)
        for p, value in ((P_OSC, 3.7), (P_INV, -2.0)):
            for r in (0.2, 0.9, 1.3, 2.0):
                assert changeofvar_consistency(p, value, probe, r) <= 1e-12

    def test_dislocation_radius_excluded(self):
        probe = gaussian_probe(width=0.6, center=0.4)
        with pytest.raises(ValueError, match="dislocation radius"):
            changeofvar_consistency(P_OSC, 3.7, probe, P_OSC.beta + 1e-9)

    def test_nonpositive_radius_rejected(self):
        probe = gaussian_probe(width=0.6, center=0.4)
        with pytest.raises(ValueError, match="positive"):
            changeofvar_consistency(P_OSC, 3.7, probe, 0.0)


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


class TestGolden:
    """Reports against ``data/verify_golden.json`` (see ``verify_golden.py``)."""

    def test_every_case_is_recorded(self):
        assert sorted(GOLDEN) == sorted(GOLDEN_CASES)

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_report_is_unchanged(self, name):
        assert record(*GOLDEN_CASES[name]) == GOLDEN[name]


class TestChecks:
    def test_ten_checks_in_order_called_as_rng_fast(self):
        rng = np.random.default_rng(3)
        results = [check(rng, fast=True) for check in CHECKS]
        assert all(isinstance(r, CheckResult) for r in results)
        assert [r.name for r in results] == CHECK_NAMES
        assert len(CHECKS) == 10

    def test_a_raising_measurement_is_a_fail_and_the_suite_goes_on(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(verify, "series_coefficients", boom)
        report = run_verification(fast=True)
        failed = report.check("series-residual")
        assert (failed.status, failed.measured, failed.tolerance) == ("FAIL", None, 1e-9)
        assert failed.detail == "RuntimeError: boom"
        assert [c.name for c in report.checks] == CHECK_NAMES
        assert all(c.status != "FAIL" and c.measured is not None for c in report.checks[1:])
        assert report.overall_pass is False
