import copy
import dataclasses
import itertools
import json
import math
import pickle
import random
import warnings

import numpy as np
import pytest
from sweep_golden import GOLDEN_PATH
from sweep_golden import INV as GOLDEN_INV
from sweep_golden import cases as golden_cases

from screwspec import (
    InvalidParameterError,
    Model,
    PhysicalParams,
    SweepRow,
    SweepSpec,
    ground_state_closed_form,
    lambda_polynomials,
    rows_to_csv,
    rows_to_json,
    sweep_rows,
    sweep_values,
    truncation_solve,
)
from screwspec import sweep as sweep_module
from screwspec.spectrum import NegativeDiscriminantError, TruncationError, n1_levels

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

    @pytest.mark.parametrize("steps", [2.5, 3.0, True, "3", None])
    def test_steps_must_be_an_integer(self, steps):
        with pytest.raises(InvalidParameterError) as exc:
            SweepSpec("flux", 0.0, 1.0, steps)
        assert str(exc.value) == f"steps must be an integer: got {steps!r}"

    def test_numpy_integer_steps_are_stored_as_int(self):
        spec = SweepSpec("flux", 0.0, 1.0, np.int64(3))
        assert type(spec.steps) is int and spec.steps == 3
        assert len(sweep_rows(BASE, spec)) == 6

    # the first two cases ran into the kernel as "flux must be finite: got
    # nan" and "Omega must be finite: got nan", a nan the user never gave
    @pytest.mark.parametrize(
        "parameter, start, stop",
        [
            ("flux", 0.0, math.inf),
            ("Omega", 0.0, math.nan),
            ("flux", -math.inf, 1.0),
            ("beta", math.nan, 0.5),
            ("gamma", "0", 1.0),
        ],
    )
    def test_non_finite_endpoint_is_refused(self, parameter, start, stop):
        with pytest.raises(InvalidParameterError) as exc:
            SweepSpec(parameter, start, stop, 3)
        assert str(exc.value) == (
            f"sweep endpoints must be finite numbers: got start={start!r}, stop={stop!r}"
        )

    def test_overflowing_span_is_refused(self):
        # both endpoints are finite; stop - start is not
        with pytest.raises(InvalidParameterError) as exc:
            SweepSpec("Omega", -1e308, 1e308, 3)
        assert str(exc.value) == (
            "the sweep span stop - start overflows: got start=-1e+308, stop=1e+308"
        )
        assert sweep_values(SweepSpec("Omega", -8e307, 8e307, 3)) == [-8e307, 0.0, 8e307]

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

    def test_sweep_through_negative_flux_returns_rows(self):
        # a flux tube of the other orientation is valid input
        spec = SweepSpec(parameter="flux", start=-0.5, stop=0.5, steps=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = sweep_rows(BASE, spec)
        assert len(rows) == 10
        assert [row.param_value for row in rows[::2]] == sweep_values(spec)

    def test_negative_base_flux_sweeps_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = dataclasses.replace(BASE, flux=-0.25)
            rows = sweep_rows(p, SweepSpec(parameter="Omega", start=0.0, stop=1.0, steps=3))
        assert len(rows) == 6


# The fields a sweep can leave the valid range through, with their bounds.
# flux and Omega have none: their sweeps must succeed.
BOUNDS = {"beta": (0.0, 1.0), "gamma": (0.0,), "omega0": (0.0,), "k": (0.0,),
          "flux": (0.0,), "Omega": (0.0,)}


def point_by_point(p, spec):
    """(index, error) of the first value of ``spec`` that fails, solved one at a time, or None."""
    for i, value in enumerate(sweep_values(spec)):
        try:
            q = dataclasses.replace(p, **{spec.parameter: value})
            if spec.method == "truncation":
                truncation_solve(q, 1)
            else:
                ground_state_closed_form(q)
        except NegativeDiscriminantError:
            pass  # gap rows, not an error
        except (InvalidParameterError, TruncationError, OverflowError) as exc:
            return i, exc
    return None


def parity_sweeps(model, method, field):
    """Seeded sweeps whose ends fall below, on or above each bound of ``field``."""
    rng = random.Random(f"17:{model}:{method}:{field}")
    base = BASE if model == "oscillator" else GOLDEN_INV
    sweeps = []
    for bound in BOUNDS[field]:
        for sides in itertools.product((-1, 0, 1), repeat=2):
            start, stop = (bound + side * rng.uniform(1e-3, 0.6) for side in sides)
            sweeps.append((base, SweepSpec(field, start, stop, rng.randint(2, 40),
                                           method=method)))
    return sweeps


class TestSweepParity:
    """A sweep raises what a point-by-point sweep raises, at the same value, or succeeds."""

    @pytest.mark.parametrize("model", ["oscillator", "inverse-square"])
    @pytest.mark.parametrize("field", sorted(BOUNDS))
    def test_sweep_agrees_with_point_by_point(self, field, model):
        failed_at = []
        sweeps = [s for method in ("closed-form", "truncation")
                  for s in parity_sweeps(model, method, field)]
        for base, spec in sweeps:
            want = point_by_point(base, spec)
            if want is None:
                assert len(sweep_rows(base, spec)) == 2 * spec.steps, spec
                continue
            failed_at.append(want[0])
            with pytest.raises(type(want[1])) as got:
                sweep_rows(base, spec)
            assert str(got.value) == str(want[1]), spec
        if field in ("flux", "Omega"):
            assert failed_at == []
        else:  # sweeps refused at their start and sweeps refused further on
            assert 0 in failed_at and max(failed_at) > 0

    @pytest.mark.parametrize("method", ["closed-form", "truncation"])
    def test_a_value_past_both_ends_is_refused(self, method):
        # 13/8 rounds to 2 subnormal steps, so the 8th value overshoots the
        # stop 0.0: valid ends, an invalid value between them
        spec = SweepSpec("gamma", 13 * 5e-324, 0.0, 9, method=method)
        assert sweep_values(spec)[7] == -5e-324
        with pytest.raises(InvalidParameterError) as got:
            sweep_rows(BASE, spec)
        assert str(got.value) == str(point_by_point(BASE, spec)[1])
        assert str(got.value) == "gamma must be non-negative: got -5e-324"


def reference_rows_to_csv(rows):
    """The f-string writer ``rows_to_csv`` replaced, one format per cell."""

    def cell(v):
        return "" if v is None else f"{v:.17g}"

    lines = [",".join(f.name for f in dataclasses.fields(SweepRow))]
    for row in rows:
        lines.append(
            f"{row.param_value:.17g},{row.ell},{row.branch},"
            f"{cell(row.energy)},{cell(row.spectral)},"
            f"{cell(row.discriminant)},{cell(row.termination_defect)}"
        )
    return "\n".join(lines) + "\n"


def typed_cells(row):
    """Each field's type and repr, so -0.0, NaN and int-for-float all show."""
    return tuple((type(v), repr(v)) for v in dataclasses.astuple(row))


class TestCsvWriter:
    """``rows_to_csv`` against the reference writer, byte for byte."""

    def test_hand_built_rows(self):
        one_a, one_b = float("1.5"), float("1.5")
        zero, neg_zero = 0.0, -0.0
        assert one_a is not one_b and one_a == one_b and zero == neg_zero
        specials = [math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e308]
        rows = [
            # a cell missing on its own
            SweepRow(0.5, 2, "minus", None, 1.25, -3.0, None),
            SweepRow(0.5, 2, "plus", 2.5, None, -3.0, 0.0),
            SweepRow(0.5, 2, "plus", 2.5, 1.25, None, 0.0),
            # equal values in distinct objects, as swept value and discriminant
            SweepRow(zero, 1, "minus", 1.0, 2.0, zero, 3.0),
            SweepRow(neg_zero, 1, "plus", 1.0, 2.0, neg_zero, 3.0),
            SweepRow(one_a, 1, "minus", None, None, one_a, None),
            SweepRow(one_b, 1, "plus", None, None, one_b, None),
            SweepRow(neg_zero, 1, "plus", 1.0, 2.0, zero, 3.0),
            SweepRow(zero, 1, "plus", 1.0, 2.0, neg_zero, 3.0),
        ]
        for v in specials:
            rows.append(SweepRow(v, -3, "minus", v, v, v, v))
            rows.append(SweepRow(v, -3, "plus", None, v, v, None))
            rows.append(SweepRow(1.0, 0, "plus", v, 1.0, math.nan, v))
        assert rows_to_csv(rows) == reference_rows_to_csv(rows)
        assert rows_to_csv([]) == reference_rows_to_csv([])

    def test_swept_rows(self):
        sweeps = [
            (BASE, SweepSpec("flux", 0.0, 2.0, 9, branch="plus")),
            (BASE, SweepSpec("beta", 0.3, 0.7, 7, branch="minus")),
            (BASE, SweepSpec("ell", -2, 4, 7)),
            (WEAK, SweepSpec("flux", 0.0, 2.0, 17)),
            (GOLDEN_INV, SweepSpec("flux", 1.0, 4.0, 31, method="truncation")),
            (BASE, SweepSpec("Omega", -1.0, 1.0, 5, method="truncation", branch="plus")),
        ]
        row_lists = [sweep_rows(base, spec) for base, spec in sweeps]
        for rows in row_lists:
            assert rows_to_csv(rows) == reference_rows_to_csv(rows)
        # two sweeps end to end: the second starts where the first ends
        joined = row_lists[0] + sweep_rows(BASE, SweepSpec("flux", 2.0, 3.0, 3, branch="plus"))
        assert rows_to_csv(joined) == reference_rows_to_csv(joined)
        everything = [row for rows in row_lists for row in rows]
        assert rows_to_csv(everything) == reference_rows_to_csv(everything)


class TestRowSemantics:
    """Rows filled through their slots behave as rows built by ``SweepRow(...)``."""

    SWEEPS = [
        (BASE, SweepSpec("flux", 0.0, 2.0, 9)),
        (BASE, SweepSpec("Omega", -1.0, 1.0, 5, method="truncation")),
        (WEAK, SweepSpec("flux", 0.0, 2.0, 9)),
        (GOLDEN_INV, SweepSpec("flux", 1.0, 4.0, 31, method="truncation")),
        (BASE, SweepSpec("beta", 0.3, 0.7, 5, branch="plus")),
        (BASE, SweepSpec("ell", -1, 3, 5, method="truncation", branch="minus")),
    ]

    @staticmethod
    def built(base, spec):
        values = sweep_values(spec)
        ells = [int(v) for v in values] if spec.parameter == "ell" else [base.ell] * len(values)
        axis = np.array(ells if spec.parameter == "ell" else values, dtype=float)
        levels = n1_levels(base, spec.method, spec.parameter, axis)
        columns = [(0, "minus"), (1, "plus")]
        if spec.branch != "all":
            columns = [columns[spec.branch == "plus"]]
        rows = []
        for i, value in enumerate(values):
            disc = float(levels.discriminant[i])
            for col, branch in columns:
                if levels.present[i, col]:
                    cells = (float(levels.energy[i, col]), float(levels.spectral[i, col]),
                             float(levels.termination_defect[i, col]))
                else:
                    cells = (None, None, None)
                energy, spectral, defect = cells
                rows.append(SweepRow(value, ells[i], branch, energy, spectral, disc, defect))
        return rows

    @pytest.mark.parametrize("case", range(len(SWEEPS)))
    def test_rows_equal_constructed_rows(self, case):
        base, spec = self.SWEEPS[case]
        rows = sweep_rows(base, spec)
        want = self.built(base, spec)
        assert rows == want
        assert [typed_cells(r) for r in rows] == [typed_cells(r) for r in want]
        assert any(r.energy is None for r in rows) == (case in (2, 3))

    def test_fill_takes_its_fields_from_row_fields(self, monkeypatch):
        # a field added to SweepRow without a column to fill it from fails the sweep
        monkeypatch.setattr(sweep_module, "_ROW_FIELDS", (*sweep_module._ROW_FIELDS, "extra"))
        with pytest.raises((KeyError, AttributeError), match="extra"):
            sweep_rows(BASE, SweepSpec("flux", 0.0, 1.0, 3))

    def test_rows_are_frozen_slotted_values(self):
        rows = sweep_rows(WEAK, SweepSpec("flux", 0.0, 2.0, 9))
        row = rows[0]
        assert not hasattr(row, "__dict__")
        with pytest.raises(TypeError):
            vars(row)
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.energy = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del row.spectral
        assert len(set(rows)) == len(rows)
        assert hash(row) == hash(SweepRow(*dataclasses.astuple(row)))

    def test_rows_survive_replace_deepcopy_and_pickle(self):
        rows = sweep_rows(WEAK, SweepSpec("flux", 0.0, 2.0, 9, method="truncation"))
        for row in rows:
            moved = dataclasses.replace(row, energy=1.0)
            assert moved.energy == 1.0 and type(moved) is SweepRow
            assert typed_cells(moved)[:3] == typed_cells(row)[:3]
            assert typed_cells(moved)[4:] == typed_cells(row)[4:]
            for twin in (copy.deepcopy(row), pickle.loads(pickle.dumps(row))):
                assert twin == row and typed_cells(twin) == typed_cells(row)
