import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from sweep_golden import GOLDEN_PATH
from sweep_golden import INV as GOLDEN_INV
from sweep_golden import cases as golden_cases

from screwspec import (
    InvalidParameterError,
    Model,
    NegativeFluxWarning,
    PhysicalParams,
    SweepSpec,
    ground_state_closed_form,
    lambda_polynomials,
    rows_to_csv,
    rows_to_json,
    sweep_rows,
    sweep_values,
    truncation_solve,
)
from screwspec.spectrum import TruncationError

GOLDEN_CASES = golden_cases()

BASE = PhysicalParams(
    model=Model.OSCILLATOR,
    mass=1.0,
    omega0=2.0,
    beta=0.5,
    k=0.5,
    ell=2,
    flux=0.75,
)

# A trap weak enough that the closed-form pair goes complex for small
# |iota|: disc = 24 iota^2 - 19.125, so the no-level band is |iota| < 0.893.
WEAK = dataclasses.replace(BASE, omega0=0.5)


class TestSpec:
    def test_parameter_whitelist(self):
        with pytest.raises(InvalidParameterError, match="cannot sweep"):
            SweepSpec(parameter="mass", start=0.5, stop=1.0, steps=3)

    def test_minimum_two_steps(self):
        with pytest.raises(InvalidParameterError, match="steps"):
            SweepSpec(parameter="flux", start=0.0, stop=1.0, steps=1)

    def test_method_and_branch_choices(self):
        with pytest.raises(InvalidParameterError, match="method"):
            SweepSpec(parameter="flux", start=0, stop=1, steps=2, method="magic")
        with pytest.raises(InvalidParameterError, match="branch"):
            SweepSpec(parameter="flux", start=0, stop=1, steps=2, branch="middle")

    def test_values_inclusive(self):
        spec = SweepSpec(parameter="beta", start=0.3, stop=0.7, steps=5)
        values = sweep_values(spec)
        assert values[0] == 0.3
        assert values[-1] == 0.7
        assert len(values) == 5

    def test_ell_sweep_must_hit_integers(self):
        spec = SweepSpec(parameter="ell", start=0, stop=1, steps=3)
        with pytest.raises(InvalidParameterError, match="integers"):
            sweep_values(spec)
        ok = SweepSpec(parameter="ell", start=-1, stop=3, steps=5)
        assert sweep_values(ok) == [-1, 0, 1, 2, 3]


class TestRows:
    def test_two_branches_per_value(self):
        spec = SweepSpec(parameter="beta", start=0.3, stop=0.7, steps=3)
        rows = sweep_rows(BASE, spec)
        assert len(rows) == 6
        assert [r.branch for r in rows] == ["minus", "plus"] * 3

    def test_branch_filter(self):
        spec = SweepSpec(
            parameter="beta", start=0.3, stop=0.7, steps=2, branch="minus"
        )
        rows = sweep_rows(BASE, spec)
        assert len(rows) == 2
        assert all(r.branch == "minus" for r in rows)
        assert rows[0].energy == pytest.approx(12.796908223351618, rel=1e-13)
        assert rows[1].energy == pytest.approx(8.128083277382432, rel=1e-13)

    def test_gaps_keep_their_rows(self):
        # iota crosses the region with no real pair partway through this
        # flux range; the rows must stay, with the (negative)
        # discriminant recorded and everything else empty.
        spec = SweepSpec(parameter="flux", start=0.0, stop=2.0, steps=9)
        rows = sweep_rows(WEAK, spec)
        assert len(rows) == 18
        empty = [r for r in rows if r.energy is None]
        filled = [r for r in rows if r.energy is not None]
        assert len(empty) == 10 and len(filled) == 8
        for r in empty:
            assert r.discriminant is not None and r.discriminant < 0
            assert r.spectral is None and r.termination_defect is None

    def test_flux_shift_matches_ell_shift(self):
        # same iota values: (ell = 2, flux in [0, 2]) against
        # (ell = 3, flux in [1, 3]) must give identical spectra cell by
        # cell, including which cells are empty.
        spec_a = SweepSpec(parameter="flux", start=0.0, stop=2.0, steps=9)
        spec_b = SweepSpec(parameter="flux", start=1.0, stop=3.0, steps=9)
        rows_a = sweep_rows(WEAK, spec_a)
        rows_b = sweep_rows(dataclasses.replace(WEAK, ell=3), spec_b)
        assert len(rows_a) == len(rows_b)
        for ra, rb in zip(rows_a, rows_b):
            assert rb.param_value == pytest.approx(ra.param_value + 1.0)
            assert (ra.energy is None) == (rb.energy is None)
            if ra.energy is not None:
                assert rb.energy == pytest.approx(ra.energy, abs=1e-12)

    def test_truncation_method_populates_defect(self):
        spec = SweepSpec(
            parameter="k", start=0.3, stop=0.8, steps=3, method="truncation"
        )
        rows = sweep_rows(BASE, spec)
        for r in rows:
            if r.energy is not None:
                assert r.termination_defect is not None
                assert r.termination_defect >= 0.0


class TestSerialisation:
    def test_csv_header_and_precision(self):
        spec = SweepSpec(
            parameter="beta", start=0.3, stop=0.7, steps=2, branch="minus"
        )
        text = rows_to_csv(sweep_rows(BASE, spec))
        lines = text.splitlines()
        assert lines[0] == (
            "param_value,ell,branch,energy,spectral,discriminant,termination_defect"
        )
        assert lines[1].startswith("0.29999999999999999,2,minus,")

    def test_csv_empty_cells(self):
        spec = SweepSpec(parameter="flux", start=1.25, stop=1.75, steps=2)
        text = rows_to_csv(sweep_rows(WEAK, spec))
        # iota in [0, 0.5] here: no real pair, three empty cells around
        # the recorded discriminant
        for line in text.splitlines()[1:]:
            fields = line.split(",")
            assert fields[3] == "" and fields[4] == "" and fields[6] == ""
            assert float(fields[5]) < 0

    def test_csv_byte_stability(self):
        spec = SweepSpec(parameter="gamma", start=0.0, stop=1.0, steps=5)
        a = rows_to_csv(sweep_rows(BASE, spec))
        b = rows_to_csv(sweep_rows(BASE, spec))
        assert a == b

    def test_json_round_trip(self):
        spec = SweepSpec(parameter="beta", start=0.3, stop=0.7, steps=2)
        rows = sweep_rows(BASE, spec)
        data = json.loads(rows_to_json(rows))
        assert len(data) == len(rows)
        assert data[0]["branch"] == "minus"
        assert data[0]["energy"] == rows[0].energy


class TestGolden:
    """Sweep bytes against ``data/sweep_golden.json`` (see ``sweep_golden.py``)."""

    GOLDEN = json.loads(GOLDEN_PATH.read_text())

    @staticmethod
    def c2_discriminant(base, spec, value):
        q = dataclasses.replace(
            base, **{spec.parameter: int(value) if spec.parameter == "ell" else value}
        )
        c0, c1, c2 = (float(v) for v in lambda_polynomials(q, 2).entry(2))
        return c1 * c1 - 4.0 * c2 * c0

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_bytes_match_the_recording(self, name):
        # The recording left the discriminant of truncation rows with no
        # real root empty; those cells must now hold the c_2 discriminant.
        # Every other cell must be byte-identical.
        base, spec = GOLDEN_CASES[name]
        golden = self.GOLDEN[name]
        rows = sweep_rows(base, spec)
        want_lines = [golden["csv"][0]]
        want_json = golden["json"]
        for line, record in zip(golden["csv"][1:], want_json):
            cells = line.split(",")
            if cells[5] == "":
                assert spec.method == "truncation" and cells[3] == ""
                disc = self.c2_discriminant(base, spec, record["param_value"])
                cells[5] = f"{disc:.17g}"
                record["discriminant"] = disc
            want_lines.append(",".join(cells))
        assert rows_to_csv(rows) == "\n".join(want_lines) + "\n"
        assert rows_to_json(rows) == json.dumps(want_json, indent=2)

    def test_recording_covers_gaps_and_filters(self):
        gaps = {name: sum(r["energy"] is None for r in case["json"])
                for name, case in self.GOLDEN.items()}
        for method in ("closed-form", "truncation"):
            for model in ("oscillator", "inverse-square"):
                assert gaps[f"{model}:flux:{method}"] > 0
        assert {spec.branch for _, spec in GOLDEN_CASES.values()} == {"all", "minus", "plus"}


class TestTruncationGapRows:
    def test_gap_rows_carry_the_c2_discriminant(self):
        # inverse square: c_2 has complex roots for |iota| below ~1.14
        spec = SweepSpec(parameter="flux", start=1.0, stop=4.0, steps=31,
                         method="truncation")
        rows = sweep_rows(GOLDEN_INV, spec)
        gaps = [r for r in rows if r.energy is None]
        assert gaps
        for r in rows:
            assert r.discriminant == TestGolden.c2_discriminant(GOLDEN_INV, spec, r.param_value)
            assert (r.discriminant < 0) == (r.energy is None)


class TestValidationParity:
    """Invalid values stop a sweep with the error a point-by-point sweep raised."""

    @pytest.mark.parametrize("method", ["closed-form", "truncation"])
    @pytest.mark.parametrize(
        "base, parameter, start, stop, steps, message",
        [
            (BASE, "beta", 0.5, 1.5, 5, "beta must lie in the open interval (0, 1): got 1.0"),
            (BASE, "omega0", 1.0, -1.0, 5,
             "omega0 must be positive for the oscillator model: got 0.0"),
            (BASE, "gamma", 0.5, -0.5, 5, "gamma must be non-negative: got -0.25"),
            (GOLDEN_INV, "omega0", 0.0, 1.0, 3,
             "omega0 must be zero for the inverse-square model: got 0.5"),
            (GOLDEN_INV, "beta", 0.9, 1.1, 3,
             "beta must lie in the open interval (0, 1): got 1.0"),
            (BASE, "k", 1.0, -1.0, 5, "k must be positive: got 0.0"),
            (BASE, "flux", 0.0, math.inf, 3, "flux must be finite: got nan"),
            (BASE, "Omega", 0.0, math.nan, 3, "Omega must be finite: got nan"),
        ],
    )
    def test_first_invalid_value_raises(self, base, parameter, start, stop, steps, message,
                                        method):
        spec = SweepSpec(parameter, start, stop, steps, method=method)
        with pytest.raises(InvalidParameterError) as exc:
            sweep_rows(base, spec)
        assert str(exc.value) == message

    @pytest.mark.parametrize("method", ["closed-form", "truncation"])
    def test_numerical_failure_raises_the_one_point_error(self, method):
        # beta: the polynomial table loses its degree; flux: iota**2 overflows
        for parameter, start, stop in [("beta", 0.5, 1e-170), ("flux", 0.0, 1e160)]:
            spec = SweepSpec(parameter, start, stop, 3, method=method)
            want = None
            for value in sweep_values(spec):
                q = dataclasses.replace(BASE, **{parameter: value})
                try:
                    if method == "closed-form":
                        ground_state_closed_form(q)
                    else:
                        truncation_solve(q, 1)
                except (TruncationError, OverflowError) as exc:
                    want = exc
                    break
            assert want is not None
            with pytest.raises(type(want)) as got:
                sweep_rows(BASE, spec)
            assert str(got.value) == str(want)

    def test_negative_flux_still_warns(self):
        spec = SweepSpec(parameter="flux", start=-0.5, stop=0.5, steps=5)
        with pytest.warns(NegativeFluxWarning, match="flux = -0.5 is negative"):
            rows = sweep_rows(BASE, spec)
        assert len(rows) == 10
        spec = SweepSpec(parameter="flux", start=0.5, stop=-0.5, steps=5)
        with pytest.warns(NegativeFluxWarning, match="flux = -0.25 is negative"):
            sweep_rows(BASE, spec)

    def test_negative_base_flux_warns_in_any_sweep(self):
        with pytest.warns(NegativeFluxWarning, match="flux = -0.25 is negative"):
            p = dataclasses.replace(BASE, flux=-0.25)
        spec = SweepSpec(parameter="Omega", start=0.0, stop=1.0, steps=3)
        with pytest.warns(NegativeFluxWarning, match="flux = -0.25 is negative"):
            sweep_rows(p, spec)
