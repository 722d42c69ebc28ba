"""Each output check rejects a deliberately perturbed output, and a tiny
list of every workload runs to its end.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import checks as C
import run
import spans
import workloads as W
from screwspec import (
    GridMode,
    GridSpec,
    Model,
    PhysicalParams,
    SweepSpec,
    lambda_polynomials,
    oracle_eigenvalues,
    rows_to_csv,
    sweep_rows,
    truncation_solve,
)

README = PhysicalParams(model=Model.OSCILLATOR, mass=1.0, omega0=2.0, beta=0.5, k=0.5, ell=2,
                        flux=0.75)
INV = PhysicalParams(model=Model.INVERSE_SQUARE, mass=1.0, beta=0.5, k=0.5, ell=8, gamma=0.3,
                     Omega=0.2)


def _reject(fn, *args):
    with pytest.raises(C.CheckError):
        fn(*args)


# --- truncation roots -------------------------------------------------------


def test_truncation_roots_pass_and_perturbed_roots_fail():
    levels = truncation_solve(README, 6)
    assert C.check_truncation(README, 6, levels)["roots_confirmed"] == len(levels)
    moved = [dataclasses.replace(levels[0], spectral=levels[0].spectral * (1 + 1e-7))] + levels[1:]
    _reject(C.check_truncation, README, 6, moved)
    _reject(C.check_truncation, README, 6, levels[::-1])
    _reject(C.check_truncation, README, 1, levels)  # more roots than the order allows
    shifted = [dataclasses.replace(levels[0], energy=levels[0].energy + 1e-6)] + levels[1:]
    _reject(C.check_truncation, README, 6, shifted)


def test_known_high_order_fault_is_caught():
    with pytest.raises(C.CheckError) as info:
        C.check_truncation(README, 40, truncation_solve(README, 40))
    assert info.value.counters["roots_checked"] > info.value.counters["roots_confirmed"]


def test_c2_is_built_independently_but_agrees_with_the_table():
    for p in (README, INV):
        iota = p.ell - p.flux - p.beta * p.k
        omega = p.mass * p.omega0 * p.beta**2
        j = math.sqrt(2 * p.mass * p.gamma + 0.25)
        assert np.allclose(C.c2_coefficients(iota, omega, j, p.beta),
                           lambda_polynomials(p, 2).entry(2), rtol=1e-13, atol=0)


def test_truncation_gap_edge_is_where_c2_loses_its_roots():
    edge = W._truncation_gap_edge(INV)
    j = math.sqrt(2 * INV.mass * INV.gamma + 0.25)
    for iota, real in ((edge * 0.999, False), (edge * 1.001, True)):
        a0, a1, a2 = C.c2_coefficients(iota, 0.0, j, INV.beta)
        assert (a1 * a1 - 4 * a0 * a2 > 0) == real


# --- sweeps -----------------------------------------------------------------


def _gap_sweep(method):
    edge = W._closed_form_gap_edge(INV) if method == "closed-form" else W._truncation_gap_edge(INV)
    f0 = INV.ell - INV.beta * INV.k - 1.5 * edge
    base = dataclasses.replace(INV, flux=f0)
    rows = sweep_rows(base, SweepSpec("flux", f0, f0 + 4 * edge, 41, method=method))
    return base, f0, f0 + 4 * edge, rows


@pytest.mark.parametrize("method", ["closed-form", "truncation"])
def test_sweep_rows_pass_and_perturbed_rows_fail(method):
    base, start, stop, rows = _gap_sweep(method)
    empty = C.check_sweep_rows(base, "flux", method, rows, start, stop, 41)
    assert 0 < empty < len(rows)
    full = next(i for i, r in enumerate(rows) if r.energy is not None)
    gap = next(i for i, r in enumerate(rows) if r.energy is None)

    def broken(i, **changes):
        out = list(rows)
        out[i] = dataclasses.replace(out[i], **changes)
        return out

    _reject(C.check_sweep_rows, base, "flux", method, broken(full, energy=rows[full].energy + 1e-6),
            start, stop, 41)
    filled = {k: getattr(rows[full], k) for k in ("energy", "spectral", "termination_defect")}
    _reject(C.check_sweep_rows, base, "flux", method, broken(gap, **filled), start, stop, 41)
    emptied = dict(energy=None, spectral=None, termination_defect=None)
    _reject(C.check_sweep_rows, base, "flux", method, broken(full, **emptied), start, stop, 41)
    m = full - full % 2
    swapped = list(rows)
    swapped[m], swapped[m + 1] = (dataclasses.replace(rows[m + 1], branch="minus"),
                                  dataclasses.replace(rows[m], branch="plus"))
    _reject(C.check_sweep_rows, base, "flux", method, swapped, start, stop, 41)


def test_truncation_rows_must_be_roots_of_c2():
    base, start, stop, rows = _gap_sweep("truncation")
    i = next(i for i, r in enumerate(rows) if r.energy is not None)
    s = rows[i].spectral * (1 + 1e-6)
    moved = list(rows)
    moved[i] = dataclasses.replace(rows[i], spectral=s, energy=C.energy_of(base, s))
    _reject(C.check_sweep_rows, base, "flux", "truncation", moved, start, stop, 41)


def test_csv_must_carry_the_rows():
    _, _, _, rows = _gap_sweep("closed-form")
    csv = rows_to_csv(rows)
    C.check_sweep_csv(rows, csv)
    _reject(C.check_sweep_csv, rows, csv.replace("\n", "\n1", 3))
    _reject(C.check_sweep_csv, rows, csv[: csv.rindex("\n", 0, -1) + 1])


def test_omega_sweep_must_be_affine_with_slope_minus_iota():
    rows = sweep_rows(README, SweepSpec("Omega", -1.0, 1.0, 21))
    C.check_omega_affine(README, rows)
    s = rows[10].spectral + 1e-6
    bent = list(rows)
    bent[10] = dataclasses.replace(rows[10], spectral=s,
                                   energy=C.energy_of(dataclasses.replace(README, Omega=rows[10].param_value), s))
    _reject(C.check_omega_affine, README, bent)


def test_flux_sweep_must_match_one_quantum_up():
    rows = sweep_rows(README, SweepSpec("flux", 0.0, 1.0, 21))
    up = sweep_rows(dataclasses.replace(README, ell=README.ell + 1), SweepSpec("flux", 1.0, 2.0, 21))
    C.check_flux_shift(rows, up)
    _reject(C.check_flux_shift, rows, up[2:] + up[:2])
    _reject(C.check_flux_shift, rows, sweep_rows(README, SweepSpec("flux", 1.0, 2.0, 21)))


# --- grids ------------------------------------------------------------------


def test_flat_grid_must_match_the_exact_spectrum():
    p = dataclasses.replace(README, omega0=1.0, ell=1, flux=0.25)
    res = oracle_eigenvalues(p, GridSpec.default(GridMode.FLAT, p, 4000), 5)
    C.check_flat(p, 4000, res.eigenvalues)
    _reject(C.check_flat, p, 4000, res.eigenvalues * (1 + 1e-3))
    _reject(C.check_flat, p, 40000, res.eigenvalues)  # the tolerance tightens as h^2


def test_outer_and_core_checks_reject_broken_spectra():
    vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    C.check_finite_ascending(vals, 5)
    _reject(C.check_finite_ascending, vals[::-1], 5)
    _reject(C.check_finite_ascending, np.append(vals[:4], np.nan), 5)
    C.check_same_spectrum(vals, vals * (1 + 1e-12), "a shift")
    _reject(C.check_same_spectrum, vals, vals * (1 + 1e-6), "a shift")
    C.check_not_lower(vals, vals + 0.1)
    _reject(C.check_not_lower, vals, vals - 1e-6)


def test_grid_op_check_runs_the_invariance_and_gamma_checks():
    p = dataclasses.replace(README, omega0=1.0, ell=1, flux=0.25, gamma=0.2)
    op = W._grid_op(p, "outer", 4000)
    res = op.call()
    op.check(res)
    _reject(op.check, dataclasses.replace(res, eigenvalues=res.eigenvalues * (1 + 1e-6)))


def test_time_to_tolerance_check():
    op = W._tol_op(W._tol_point(np.random.default_rng(3)))
    n, solves, vals = op.call()
    assert n > W.TOL_START and solves == int(math.log2(n // W.TOL_START)) + 1
    op.check((n, solves, vals))
    _reject(op.check, (n, solves + 1, vals))
    _reject(op.check, (n, solves, vals * (1 + 1e-4)))


# --- command line -----------------------------------------------------------


def test_cli_text_and_verify_checks():
    C.check_same_text("energy", "a\nb\n", "a\nb\n")
    _reject(C.check_same_text, "energy", "a\nb\n", "a\nc\n")
    _reject(C.check_same_text, "energy", "a\nb\n", "a\nb\nc\n")
    checks = [{"name": str(i), "status": "PASS"} for i in range(10)]
    C.check_verify_json(json.dumps({"overall": "PASS", "checks": checks}), 10)
    _reject(C.check_verify_json, json.dumps({"overall": "FAIL", "checks": checks}), 10)
    _reject(C.check_verify_json, json.dumps({"overall": "PASS", "checks": checks[:9]}), 10)
    _reject(C.check_verify_json, "Traceback (most recent call last):", 10)


# --- smoke: a tiny list of every workload runs to its end ------------------------------


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_smoke_workload_runs_to_its_end(name, tmp_path):
    runner = W.CliRunner(run.ROOT, str(tmp_path)) if name == "cli" else None
    wl = W.build(name, seed=7, smoke=True, runner=runner)
    wl.warm_up()
    m = run._measure(wl, 0.0, None, run.Judge())
    assert m["unexpected"] == []
    assert m["rounds"] == 1 and m["attempted"] == len(wl.ops)
    assert m["failed"] == sum(op.expect_fail for op in wl.ops)
    assert m["tol_times"] and m["latencies"]
    values = run._end_to_end(wl, m, [0.5], runner)
    assert set(values) == set(run.END_TO_END) and all(v > 0 for v in values.values())


def test_smoke_traced_run_reports_every_layer(tmp_path):
    wl = W.build("sweep", seed=7, smoke=True)
    import screwspec

    tracer = spans.Tracer()
    uninstall = spans.install(tracer, screwspec)
    try:
        judge = run.Judge()
        m = run._measure(wl, 0.0, tracer, judge)
    finally:
        uninstall()
    assert sweep_rows.__name__ == "sweep_rows" and not hasattr(screwspec.sweep.sweep_rows, "__bench_original__")
    values = spans.per_layer(tracer, m["rounds"], judge.counters)
    assert set(values) == set(spans.PER_LAYER)
    assert values["sweep.points"] == 12 * 41 and values["params.validate_calls"] > 0
    assert values["oracle.solves"] == 0  # the sweep workload never reaches the oracle
    assert 0.9 < values["trace.self_share"] <= 1.0
