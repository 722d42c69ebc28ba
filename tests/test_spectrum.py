import dataclasses
import json
import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

from screwspec import (
    Branch,
    Model,
    NegativeDiscriminantError,
    PhysicalParams,
    derive_params,
    eval_psi_x_derivatives,
    ground_state_closed_form,
    ground_state_wavefunction,
    lambda_polynomials,
    level_series,
    levels_to_json,
    series_coefficients,
    spectral_to_energy,
    truncation_solve,
)
from screwspec.series import _seed, _triple
from screwspec.spectrum import (
    TruncationError,
    _companions,
    _table,
    closed_form_discriminant,
    n1_levels,
)
from screwspec.verify import _audit_text, check_closed_form_audit

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


def quadratic_truncation_oracle(p):
    """Roots of c_2(spectral) = 0, built symbolically from the seed rows.

    Independent of :mod:`screwspec.spectrum`: expands
    c_2 = (d1(0) c_1 + d2(0)) / d3(0) with c_1 the seed, both linear in
    the scaled spectral value, and solves the resulting quadratic.
    """
    d = derive_params(p)
    b2 = p.beta**2

    # c_1 = s0 + s1 * scaled
    s0 = (2 * d.omega * (1 + d.j) - d.iota**2 + 0.5 + d.j) / (4 * (1 + d.j))
    s1 = -1.0 / (4 * (1 + d.j))
    # d1(0) = a0 + a1 * scaled, d2(0) = e0 + e1 * scaled
    a0 = (d.omega + 1.5 + d.j) - (
        d.iota**2 - 0.5 - d.j - 2 * d.omega * (1 + d.j)
    ) / 4
    a1 = -0.25
    e0 = -d.omega * (3 + 2 * d.j) / 4
    e1 = 0.25

    # numerator of c_2 in scaled: (a0 + a1 t)(s0 + s1 t) + (e0 + e1 t)
    qa = a1 * s1
    qb = a0 * s1 + a1 * s0 + e1
    qc = a0 * s0 + e0
    disc = qb**2 - 4 * qa * qc
    if disc < 0:
        return []
    roots = sorted(
        [(-qb - math.sqrt(disc)) / (2 * qa), (-qb + math.sqrt(disc)) / (2 * qa)]
    )
    return [t / b2 for t in roots]


class TestPolynomialTable:
    def test_degrees(self):
        table = lambda_polynomials(P_OSC, 6)
        assert table.n_max == 6
        for i in range(7):
            assert len(table.entry(i)) == i + 1

    def test_matches_numeric_recurrence(self):
        rng = np.random.default_rng(5)
        for p in (P_OSC, P_INV):
            table = lambda_polynomials(p, 12)
            for _ in range(8):
                value = rng.uniform(-20, 20)
                sol = series_coefficients(p, value, 12)
                for i in range(13):
                    assert table.eval(i, value) == pytest.approx(
                        sol.coeffs[i], rel=1e-11, abs=1e-12
                    )

    def test_first_entry_slope_and_intercept(self):
        p = PhysicalParams(
            model=Model.INVERSE_SQUARE, mass=1.0, beta=0.5, k=1.0, ell=1, flux=0.5
        )
        entry = lambda_polynomials(p, 1).entry(1)
        assert entry[0] == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert entry[1] == pytest.approx(-0.25 / 6.0, rel=1e-15)


class TestTruncation:
    def test_ground_roots_match_independent_quadratic(self):
        for p in (P_OSC, P_INV):
            expected = quadratic_truncation_oracle(p)
            got = [lv.spectral for lv in truncation_solve(p, 1)]
            assert got == pytest.approx(expected, rel=1e-10)

    def test_oscillator_frozen_roots(self):
        # exact values 14 -+ 4 sqrt(7)
        got = [lv.spectral for lv in truncation_solve(P_OSC, 1)]
        root7 = math.sqrt(7.0)
        assert got[0] == pytest.approx(14 - 4 * root7, rel=1e-12)
        assert got[1] == pytest.approx(14 + 4 * root7, rel=1e-12)

    def test_inverse_square_frozen_roots(self):
        got = [lv.spectral for lv in truncation_solve(P_INV, 1)]
        assert got[0] == pytest.approx(-20.16, rel=1e-12)
        assert got[1] == pytest.approx(10.24, rel=1e-12)

    def test_ground_branch_labels_and_diagnostics(self):
        levels = truncation_solve(P_OSC, 1)
        assert [lv.branch for lv in levels] == [Branch.MINUS, Branch.PLUS]
        for lv in levels:
            assert lv.n == 1
            assert lv.ell == P_OSC.ell
            assert lv.discriminant is not None and lv.discriminant > 0
            # c_{n+2} is proportional to c_n at a root, so the defect is
            # genuinely nonzero; it must only be finite and honest.
            assert 0.0 <= lv.termination_defect < 1.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("p", [P_OSC, P_INV], ids=["osc", "invsq"])
    def test_truncation_condition_holds_at_solutions(self, p, n):
        table = lambda_polynomials(p, n + 1)
        levels = truncation_solve(p, n)
        assert len(levels) <= n + 1
        for lv in levels:
            asc = table.entry(n + 1)
            scale = float(
                np.polynomial.polynomial.polyval(abs(lv.spectral), np.abs(asc))
            )
            residual = abs(table.eval(n + 1, lv.spectral))
            assert residual <= 1e-10 * max(1.0, scale)
            assert lv.termination_defect >= 0.0
            if n >= 2:
                assert lv.branch is None
                assert lv.discriminant is None

    def test_empty_spectrum_band(self):
        # iota = 0.5 gives a negative quadratic discriminant: no real
        # terminating ground level exists for this parameter point.
        p = PhysicalParams(
            model=Model.INVERSE_SQUARE,
            mass=1.0,
            beta=0.5,
            k=0.5,
            ell=1,
            flux=0.25,
        )
        assert derive_params(p).iota == 0.5
        assert truncation_solve(p, 1) == []

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError, match="truncation order"):
            truncation_solve(P_OSC, 0)


class TestClosedForm:
    def test_oscillator_frozen_values(self):
        # disc = 16*1*1.5 + 16*1*2.5 + 14*1 - 22 - 8 = 48 with the
        # analytic route's rate M*omega0*beta = 1; spectral values are
        # 48 -/+ 16*sqrt(3).
        minus, plus = ground_state_closed_form(P_OSC)
        assert minus.discriminant == pytest.approx(48.0, rel=1e-13)
        assert minus.spectral == pytest.approx(20.287187078897965, rel=1e-13)
        assert plus.spectral == pytest.approx(75.71281292110203, rel=1e-13)
        assert minus.energy == pytest.approx(10.268593539448982, rel=1e-13)
        assert plus.energy == pytest.approx(37.981406460551014, rel=1e-13)
        assert (minus.branch, plus.branch) == (Branch.MINUS, Branch.PLUS)

    def test_oscillator_quarter_shift_discriminant(self):
        # At iota = 1/4: disc = 1.5 + 40 + 14 - 22 - 8 = 25.5.
        p = PhysicalParams(
            model=Model.OSCILLATOR,
            mass=1.0,
            omega0=2.0,
            beta=0.5,
            k=1.0,
            ell=1,
            flux=0.25,
        )
        minus, _ = ground_state_closed_form(p)
        assert minus.discriminant == pytest.approx(25.5, rel=1e-13)

    def test_inverse_square_frozen_values(self):
        minus, plus = ground_state_closed_form(P_INV)
        assert minus.discriminant == pytest.approx(1.18, rel=1e-13)
        assert minus.spectral == pytest.approx(-9.305112196480088, rel=1e-13)
        assert plus.spectral == pytest.approx(-0.6148878035199141, rel=1e-13)
        assert minus.energy == pytest.approx(-4.572556098240044, rel=1e-13)
        assert plus.energy == pytest.approx(-0.22744390175995705, rel=1e-13)

    def test_negative_discriminant_raises(self):
        # Same shift as above but omega0 = 1: disc = 1.5 + 20 + 3.5 - 30.
        p = PhysicalParams(
            model=Model.OSCILLATOR,
            mass=1.0,
            omega0=1.0,
            beta=0.5,
            k=1.0,
            ell=1,
            flux=0.25,
        )
        with pytest.raises(NegativeDiscriminantError) as exc:
            ground_state_closed_form(p)
        assert exc.value.discriminant == pytest.approx(-5.0, rel=1e-13)
        assert exc.value.model is Model.OSCILLATOR

    @staticmethod
    def seed_at_closed_form(p, level):
        """The recurrence seed c_1 at a closed-form level, with the analytic rate."""
        d = derive_params(p)
        rate = p.mass * p.omega0 * p.beta
        return _seed(d.iota**2, d.j, rate, level.spectral * p.beta**2)

    def test_closed_form_values_seed_terminating_series(self):
        # At the closed-form spectral value the seed c_1 must equal the
        # branch's closed first coefficient.
        for p in (P_OSC, P_INV):
            for level, branch in zip(ground_state_closed_form(p), (Branch.MINUS, Branch.PLUS)):
                sol = ground_state_wavefunction(p, branch)
                assert abs(sol.coeffs[1] - self.seed_at_closed_form(p, level)) <= 1e-12
                assert sol.polynomial_degree == 1

    def test_inverse_square_first_coefficient_frozen(self):
        minus, plus = ground_state_closed_form(P_INV)
        c1 = ground_state_wavefunction(P_INV, Branch.MINUS).coeffs[1]
        assert c1 == pytest.approx(0.014379674853336947, rel=1e-10)
        assert abs(c1 - self.seed_at_closed_form(P_INV, minus)) <= 1e-12
        c1_plus = ground_state_wavefunction(P_INV, Branch.PLUS).coeffs[1]
        assert c1_plus == pytest.approx(-0.34771300818667034, rel=1e-10)
        assert abs(c1_plus - self.seed_at_closed_form(P_INV, plus)) <= 1e-12

    def test_oscillator_first_coefficient_frozen(self):
        # (-9 +/- sqrt(48)) / 6; the minus energy branch takes the plus
        # sign in front of the square root.
        minus, plus = ground_state_closed_form(P_OSC)
        c1 = ground_state_wavefunction(P_OSC, Branch.MINUS).coeffs[1]
        assert c1 == pytest.approx(-0.34529946162074854, rel=1e-13)
        assert abs(c1 - self.seed_at_closed_form(P_OSC, minus)) <= 1e-12
        c1_plus = ground_state_wavefunction(P_OSC, Branch.PLUS).coeffs[1]
        assert c1_plus == pytest.approx(-2.6547005383792515, rel=1e-13)
        assert abs(c1_plus - self.seed_at_closed_form(P_OSC, plus)) <= 1e-12

    def test_analytic_route_uses_its_own_gaussian_rate(self):
        # The degree-1 analytic solution decays at M*omega0*beta/2; the
        # recurrence-backed solutions decay at M*omega0*beta**2/2.  Both
        # rates must stay visible, neither silently replaces the other.
        sol = ground_state_wavefunction(P_OSC, Branch.MINUS)
        assert sol.gauss_factor == 0.5
        minus = ground_state_closed_form(P_OSC)[0]
        assert abs(sol.coeffs[1] - self.seed_at_closed_form(P_OSC, minus)) <= 1e-12
        lo = truncation_solve(P_OSC, 1)[0]
        assert level_series(P_OSC, lo).gauss_factor == 0.25


class TestComparison:
    @pytest.mark.parametrize("p", [P_OSC, P_INV], ids=["osc", "invsq"])
    def test_frozen_sets_are_discrepant_documented(self, p):
        roots = [lv.spectral for lv in truncation_solve(p, 1)]
        closed = ground_state_closed_form(p)
        assert len(roots) == len(closed) == 2
        for lv in closed:
            near = min(roots, key=lambda t: abs(t - lv.spectral))
            rel = abs(near - lv.spectral) / max(1.0, abs(near), abs(lv.spectral))
            assert rel > 1e-8
        text = _audit_text(p, 1e-8)
        assert text.count("-> DISCREPANT-DOCUMENTED") == 2
        assert "existence: both-populated" in text

    def test_verify_detail_prints_the_first_discrepant_set(self):
        check = check_closed_form_audit(np.random.default_rng(1), fast=True)
        assert check.status == "DISCREPANT-DOCUMENTED"
        first, *report = check.detail.splitlines()
        assert first == "0 AGREE, 32 DISCREPANT over 16 parameter sets"
        assert report[0] == "closed-form audit (oscillator model)"
        assert report[1].startswith("  truncation quadratic: (")

    def test_report_prints_full_quadratic(self):
        text = _audit_text(P_OSC, 1e-8)
        for coeff in lambda_polynomials(P_OSC, 2).entry(2):
            assert f"({coeff:.17g})" in text
        for lv in truncation_solve(P_OSC, 1) + ground_state_closed_form(P_OSC):
            assert f"{lv.spectral:.17g}" in text
        assert "DISCREPANT-DOCUMENTED" in text

    def test_oscillator_quadratic_coefficients(self):
        # entry(2) of the polynomial table for the frozen oscillator set,
        # descending order; proportional to t^2 - 28 t + 84 in the scaled
        # variable.
        c, b, a = lambda_polynomials(P_OSC, 2).entry(2)
        assert a == pytest.approx(0.00052083333333333333, rel=1e-13)
        assert b == pytest.approx(-0.014583333333333332, rel=1e-13)
        assert c == pytest.approx(0.043749999999999997, rel=1e-13)
        roots = sorted(np.roots([a, b, c]).real)
        truncation = [lv.spectral for lv in truncation_solve(P_OSC, 1)]
        assert roots == pytest.approx(truncation, rel=1e-9)

    def test_empty_band_reported_on_both_routes(self):
        p = PhysicalParams(
            model=Model.INVERSE_SQUARE,
            mass=1.0,
            beta=0.5,
            k=0.5,
            ell=1,
            flux=0.25,
        )
        assert truncation_solve(p, 1) == []
        with pytest.raises(NegativeDiscriminantError):
            ground_state_closed_form(p)


class TestPeriodicity:
    @staticmethod
    def shifted(p, nu):
        return dataclasses.replace(p, flux=p.flux + nu), dataclasses.replace(p, ell=p.ell - nu)

    def test_closed_form_energy_invariant_under_integer_shift(self):
        # iota = 4 at the baseline keeps every shifted point (iota = 3,
        # 2, 1) inside the region where the closed-form pair is real.
        p = PhysicalParams(
            model=Model.OSCILLATOR,
            mass=1.0,
            omega0=2.0,
            beta=0.5,
            k=0.5,
            ell=5,
            flux=0.75,
        )
        for nu in (1, 2, 3):
            by_flux, by_ell = self.shifted(p, nu)
            lhs = ground_state_closed_form(by_flux)[0].energy
            rhs = ground_state_closed_form(by_ell)[0].energy
            assert abs(lhs - rhs) <= 1e-12

    def test_truncation_energy_invariant_under_integer_shift(self):
        p = PhysicalParams(
            model=Model.INVERSE_SQUARE, mass=1.0, beta=0.5, k=0.4, ell=3
        )
        by_flux, by_ell = self.shifted(p, 1)
        lhs = truncation_solve(by_flux, 1)[0].energy
        rhs = truncation_solve(by_ell, 1)[0].energy
        assert abs(lhs - rhs) <= 1e-12


class TestLevelSeries:
    def test_terminating_level_matches_table(self):
        table = lambda_polynomials(P_INV, 2)
        lv = truncation_solve(P_INV, 1)[0]
        sol = level_series(P_INV, lv)
        assert sol.polynomial_degree == 1
        assert len(sol.coeffs) == 2
        assert sol.coeffs[0] == 1.0
        assert sol.coeffs[1] == pytest.approx(
            table.eval(1, lv.spectral), rel=1e-13
        )
        # matches the raw seed at the root
        d = derive_params(P_INV)
        assert sol.coeffs[1] == pytest.approx(
            _seed(d.iota**2, d.j, d.omega, lv.spectral * P_INV.beta**2), rel=1e-12
        )

    def test_polynomial_evaluates_without_warning(self):
        import warnings

        lv = truncation_solve(P_OSC, 1)[0]
        sol = level_series(P_OSC, lv)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert eval_psi_x_derivatives(sol, 1.5)[0] != 0.0


class TestJson:
    def test_schema_and_round_trip(self):
        levels = truncation_solve(P_OSC, 2)
        text = levels_to_json(levels)
        data = json.loads(text)
        assert len(data) == len(levels)
        keys = [
            "n",
            "ell",
            "branch",
            "energy",
            "spectral",
            "discriminant",
            "termination_defect",
            "c1_over_c0",
        ]
        for rec, lv in zip(data, levels):
            assert list(rec) == keys
            assert rec["branch"] is None
            assert rec["energy"] == lv.energy
            assert rec["spectral"] == lv.spectral

    def test_branch_serialised_as_string(self):
        text = levels_to_json(ground_state_closed_form(P_OSC))
        data = json.loads(text)
        assert [rec["branch"] for rec in data] == ["minus", "plus"]


class TestHighOrderTruncation:
    # the README point: companion entries overflow at n = 75-76, and c_79
    # loses its leading coefficient from n = 77 on
    @pytest.mark.parametrize(
        "n, message",
        [
            (75, "companion eigenvalues failed"),
            (76, "companion eigenvalues failed"),
            (77, "degree of c_79 is 78, expected 79"),
            (80, "degree of c_79 is 78, expected 79"),
        ],
    )
    def test_raises_the_typed_error(self, n, message):
        with pytest.raises(TruncationError, match=message):
            truncation_solve(P_OSC, n)

    def test_failed_polish_raises_the_typed_error(self):
        p = PhysicalParams(
            model=Model.INVERSE_SQUARE, mass=1.3121918303736375,
            beta=0.35979832337616935, k=0.9608369981557852, ell=2,
            gamma=0.028319671145462966, flux=0.2485665529991279,
        )
        with pytest.raises(TruncationError, match="root polish failed"):
            truncation_solve(p, 70)


def reference_closed_form(p):
    """The n = 1 closed form at one point, in Python floats.

    The scalar formula the array kernel replaced, with its diagnostics
    from the polynomial table; :func:`ground_state_closed_form` must equal
    it bit for bit.
    """
    d = derive_params(p)
    iota, j = d.iota, d.j
    if p.model is Model.OSCILLATOR:
        w = p.mass * p.omega0 * p.beta
        disc = (
            16.0 * iota**2 * (1.0 + j) + 16.0 * w * (2.0 + j) + 14.0 * w**2
            - 44.0 * j - 32.0 * p.mass * p.gamma - 8.0
        )
        center = 3.0 - 2.0 * iota**2 + 4.0 * w * (2.0 + j) + 2.0 * j
    else:
        disc = iota**2 * (j + 0.25) - j * (j + 1.5) - 0.25
        center = j + 1.5 - iota**2
    if disc < 0:
        return disc, []
    table = lambda_polynomials(p, 3)
    levels = []
    for s in ((center - math.sqrt(disc)) / p.beta**2, (center + math.sqrt(disc)) / p.beta**2):
        values = [abs(table.eval(i, s)) for i in range(3)]
        levels.append((
            spectral_to_energy(p, s), s, abs(table.eval(3, s)) / max(values),
            table.eval(1, s),
        ))
    return disc, levels


def random_points(seed, count):
    rng = np.random.default_rng(seed)
    for i in range(count):
        osc = i % 2 == 0
        yield PhysicalParams(
            model=Model.OSCILLATOR if osc else Model.INVERSE_SQUARE,
            mass=float(10 ** rng.uniform(-1, 1)),
            beta=float(rng.uniform(0.01, 0.99)),
            k=float(10 ** rng.uniform(-2, 1)),
            ell=int(rng.integers(-6, 7)),
            omega0=float(10 ** rng.uniform(-2, 2)) if osc else 0.0,
            gamma=float(10 ** rng.uniform(-3, 1)),
            delta=float(rng.uniform(-2, 2)) if osc else 0.0,
            Omega=float(rng.uniform(-2, 2)),
            flux=float(rng.uniform(0, 6)),
        )


def reference_table(p, n_max):
    """c_0 .. c_{n_max} built with ``numpy.polynomial``, as the package once built it.

    ``npp.polymul`` and ``polyadd`` trim trailing zeros, so an entry whose
    top coefficient underflows comes out short; the first short entry
    raises.  :func:`lambda_polynomials` must equal this table bit for bit
    and raise where it raises, with the same message.
    """
    d = derive_params(p)
    iota, j, omega, b2 = d.iota, d.j, d.omega, p.beta**2
    entries = [
        np.array([1.0]),
        np.array([
            (2.0 * omega * (1.0 + j) - iota**2 + 0.5 + j) / (4.0 * (1.0 + j)),
            -b2 / (4.0 * (1.0 + j)),
        ]),
    ]
    for i in range(n_max - 1):
        d1_const, d2_const, d3 = _triple(i, iota**2, j, omega, 0.0)
        d1 = np.array([d1_const, -b2 / 4.0])
        d2 = np.array([d2_const, b2 / 4.0])
        nxt = npp.polyadd(npp.polymul(d1, entries[i + 1]), npp.polymul(d2, entries[i]))
        entries.append(nxt / d3)
    for i, e in enumerate(entries):
        if len(e) != i + 1:
            raise TruncationError(f"degree of c_{i} is {len(e) - 1}, expected {i}")
    return entries


def table_outcome(build, p, n_max):
    """The entries' bytes, or the TruncationError message."""
    try:
        with np.errstate(all="ignore"):
            return [np.asarray(e).tobytes() for e in build(p, n_max)]
    except TruncationError as exc:
        return str(exc)


def extreme_points():
    """Valid points where the table's top coefficients underflow early, and
    where omega or j overflow or turn NaN."""
    for beta in (1e-100, 1e-150, 1e-162, 1e-170, 1e-200, 5e-324):
        for mass, omega0, gamma in ((1.0, 2.0, 0.0), (1e300, 1e300, 0.0), (1e300, 1.0, 1e300)):
            for model in Model:
                osc = model is Model.OSCILLATOR
                yield PhysicalParams(
                    model=model, mass=mass, omega0=omega0 if osc else 0.0, gamma=gamma,
                    beta=beta, k=0.5, ell=2, flux=0.75,
                )


class TestTable:
    N_MAX = 80

    def test_table_is_bitwise_the_numpy_polynomial_table(self):
        lost = set()
        for idx, p in enumerate(random_points(14, 240)):
            want = table_outcome(reference_table, p, self.N_MAX)
            orders = [self.N_MAX]
            if isinstance(want, str):
                order = int(want.split()[2][2:])  # "degree of c_<order> is ..."
                lost.add((idx, order))
                orders += [order - 1, order]
            for n_max in orders:
                got = table_outcome(lambda q, m: lambda_polynomials(q, m).entries, p, n_max)
                assert got == table_outcome(reference_table, p, n_max), (idx, n_max)
        # the random points lose the degree at many orders, in both models
        assert len({order for _, order in lost}) > 10
        assert {idx % 2 for idx, _ in lost} == {0, 1}

    def test_extreme_points_lose_the_degree_as_numpy_polynomial_does(self):
        messages = set()
        for p in extreme_points():
            for n_max in (1, 2, 3, 40, self.N_MAX):
                want = table_outcome(reference_table, p, n_max)
                got = table_outcome(lambda q, m: lambda_polynomials(q, m).entries, p, n_max)
                assert got == want, (p, n_max)
                if isinstance(want, str):
                    messages.add(want)
        # c_2 keeps only its constant term where beta**2 / 4 underflows, and
        # its first two terms where only the slope times the top of c_1 does
        assert {"degree of c_2 is 0, expected 2", "degree of c_2 is 1, expected 2"} <= messages

    def test_an_axis_table_is_its_one_point_tables(self):
        inputs = [
            (d.iota**2, d.j, d.omega, p.beta**2)
            for p in random_points(15, 200) for d in [derive_params(p)]
        ]
        axis, lost = _table(*(np.array(column) for column in zip(*inputs)), self.N_MAX)
        for idx, args in enumerate(inputs):
            try:
                point, _ = _table(*args, self.N_MAX)
            except TruncationError as exc:
                assert lost[idx]
                order = int(str(exc).split()[2][2:])
                point, _ = _table(*args, order - 1)
            else:
                assert not lost[idx]
            for i, entry in enumerate(point[1:], start=1):
                assert np.array(entry).tobytes() == np.array([c[idx] for c in axis[i]]).tobytes()
        assert 0 < lost.sum() < len(inputs)


class TestN1Kernel:
    def test_closed_form_is_bitwise_the_scalar_formula(self):
        gaps = 0
        for p in random_points(11, 400):
            disc, want = reference_closed_form(p)
            assert repr(closed_form_discriminant(p)) == repr(disc)
            try:
                got = ground_state_closed_form(p)
            except NegativeDiscriminantError as exc:
                got = []
                assert repr(exc.discriminant) == repr(disc)
                gaps += 1
            assert [
                repr((lv.energy, lv.spectral, lv.termination_defect, lv.c1_over_c0))
                for lv in got
            ] == [repr(level) for level in want]
            assert all(repr(lv.discriminant) == repr(disc) for lv in got)
        assert 0 < gaps < 400

    @staticmethod
    def assert_truncation_solve(p, got, i=0):
        """Row ``i`` of an N1Levels equals ``truncation_solve(p, 1)`` bit for bit."""
        want = truncation_solve(p, 1)
        assert got.present[i].sum() == len(want)
        for col, lv in enumerate(want):
            assert repr((
                float(got.energy[i, col]), float(got.spectral[i, col]),
                float(got.discriminant[i]), float(got.termination_defect[i, col]),
                float(got.c1_over_c0[i, col]),
            )) == repr((
                lv.energy, lv.spectral, lv.discriminant, lv.termination_defect,
                lv.c1_over_c0,
            ))
        return len(want)

    def test_truncation_roots_are_bitwise_truncation_solve(self):
        counts = {self.assert_truncation_solve(p, n1_levels(p, "truncation"))
                  for p in random_points(12, 400)}
        assert counts == {0, 2}

    def test_truncation_roots_at_the_gap_edge(self):
        # bisect the flux to the two adjacent doubles where the c_2
        # discriminant changes sign, then compare on both sides of that edge,
        # where the roots are nearly double and Newton's end point hangs on
        # the eigenvalue seeds
        p = dataclasses.replace(P_INV, gamma=0.3, mass=0.9, k=0.5, ell=3)
        disc = lambda flux: n1_levels(p, "truncation", "flux", [flux]).discriminant[0]
        lo, hi = 1.62, 1.63
        assert disc(lo) * disc(hi) < 0
        while np.nextafter(lo, hi) != hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if disc(mid) * disc(lo) > 0 else (lo, mid)
        fluxes = [lo, hi]
        for _ in range(40):
            fluxes = [np.nextafter(fluxes[0], -1.0)] + fluxes + [np.nextafter(fluxes[-1], 2.0)]
        fluxes += [hi + d for d in np.geomspace(1e-15, 1e-5, 40)]
        fluxes += [lo - d for d in np.geomspace(1e-15, 1e-5, 40)]
        fluxes = [float(f) for f in fluxes]
        axis = n1_levels(p, "truncation", "flux", fluxes)
        assert np.abs(axis.discriminant[:82]).max() < 1e-12
        counts = {
            self.assert_truncation_solve(dataclasses.replace(p, flux=f), axis, i)
            for i, f in enumerate(fluxes)
        }
        assert counts == {0, 1, 2} or counts == {0, 2}

    def test_companions_are_numpys(self):
        # the seeds of both root routes come from _companions; pin its layout
        # to numpy's own companion matrix and root finder
        rng = np.random.default_rng(5)
        for degree in (2, 3, 7):
            for _ in range(20):
                c = rng.normal(size=degree + 1)
                np.testing.assert_array_equal(_companions(c), npp.polycompanion(c))
                np.testing.assert_array_equal(
                    np.sort(np.linalg.eigvals(_companions(c))), npp.polyroots(c)
                )
        stack = rng.normal(size=(50, 3))
        np.testing.assert_array_equal(
            _companions(stack), np.array([npp.polycompanion(c) for c in stack])
        )

    @pytest.mark.parametrize("method", ["closed-form", "truncation"])
    def test_an_axis_equals_its_points(self, method):
        p = next(random_points(13, 1))
        values = np.linspace(0.2, 0.8, 7)
        axis = n1_levels(p, method, "beta", values)
        for i, beta in enumerate(values):
            point = n1_levels(dataclasses.replace(p, beta=float(beta)), method)
            for name in ("discriminant", "present", "spectral", "energy", "termination_defect"):
                np.testing.assert_array_equal(getattr(axis, name)[i], getattr(point, name)[0])

    @pytest.mark.parametrize("method", ["closed-form", "truncation"])
    def test_faults_are_where_the_one_point_routes_raise(self, method):
        one_point = ground_state_closed_form if method == "closed-form" else (
            lambda q: truncation_solve(q, 1))
        # at delta = 1e308 the energy overflows once Omega iota < -1e308 (iota = 1)
        shifted = dataclasses.replace(P_OSC, delta=1e308)
        messages = set()
        for p, field, values in [
            (P_OSC, "beta", [0.5, 0.4, 1e-60, 1e-80, 1e-170]),
            (P_OSC, "flux", [0.75, 1.5, 1e160, 1e80]),
            (P_OSC, "flux", [0.75, 1e80]),
            (P_OSC, "gamma", [0.0, 5e307]),
            (P_OSC, "mass", [1.0, 1e150]),
            (shifted, "Omega", [0.0, -1.0, -1e308]),
        ]:
            first = next(i for i, value in enumerate(values) if self.raises(
                one_point, dataclasses.replace(p, **{field: value})))
            with pytest.raises((TruncationError, OverflowError)) as want:
                one_point(dataclasses.replace(p, **{field: values[first]}))
            with pytest.raises(want.type) as got:
                n1_levels(p, method, field, values)
            assert str(got.value) == str(want.value), (field, values)
            messages.add(str(want.value))
            n1_levels(p, method, field, values[:first])  # the points before it solve
        # where a square overflows, the scalar route names the quantity and its value
        assert "the square of iota = -1e+160 leaves the float range" in messages
        # and the overflows that once came back as NaN or -inf numbers
        assert any(m.startswith("the termination_defect at spectral value") for m in messages)
        if method == "closed-form":
            assert "the n = 1 discriminant is -inf" in messages

    @staticmethod
    def raises(one_point, q):
        try:
            one_point(q)
        except NegativeDiscriminantError:
            return False
        except (TruncationError, OverflowError):
            return True
        return False
