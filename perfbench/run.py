"""Benchmark of screwspec: one workload, one seed, one run.

    python3 perfbench/run.py --workload {sweep,levels,grids,cli} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; screwspec is imported from ./src and
nothing else.  The workload's fixed operation list (see workloads.py) is
repeated in whole rounds until S seconds have passed.  Each operation's
output is checked apart from the program (see checks.py).  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics from a run with span wrappers installed with
``--trace 1``.  The line before it is the machine record.  Result and
span files go to perfbench/results/.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before numpy, screwspec or the inputs

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("sweep", "levels", "grids", "cli")
SETUP_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "time_to_tol_ms": "ms",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _setup(name: str, seed: int):
    """Import screwspec, build the workload from the seed, warm it up."""
    sys.path.insert(0, SRC)
    import screwspec

    if not os.path.realpath(screwspec.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"screwspec was imported from {screwspec.__file__}, not from {SRC}")
    import workloads

    runner = workloads.CliRunner(ROOT, RESULTS) if name == "cli" else None
    wl = workloads.build(name, seed, runner=runner)
    wl.warm_up()
    return wl, runner, time.perf_counter() - T0


def _setup_samples(name: str, seed: int, own: float, runner) -> list[float]:
    """Set-up repeated in fresh processes; the median is ``setup_s``.

    For ``cli`` one sample is the wall time of a fresh ``import screwspec``,
    what every command pays before it runs.  For the in-process workloads
    it is this script's own set-up (import, inputs, warm-up), done again
    in fresh processes.
    """
    if name == "cli":
        samples = []
        for _ in range(SETUP_SAMPLES):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import screwspec"], env=runner.env, cwd=ROOT,
                           check=True, timeout=120)
            samples.append(time.perf_counter() - start)
        return samples
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--setup-only"],
            cwd=ROOT, check=True, timeout=120, capture_output=True, text=True)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def _timed(op, tracer):
    if tracer is not None:
        tracer.active = True
        idx = tracer.open("bench.op")
    start = time.perf_counter()
    try:
        out, error = op.call(), None
    except Exception as exc:  # noqa: BLE001 - a raising operation is a failed operation
        out, error = None, exc
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.close(idx)
        tracer.active = False
    return out, error, elapsed


class Judge:
    """Checks outputs; an output equal to one already checked for the same
    operation in this run gets the same verdict without a second check."""

    def __init__(self) -> None:
        import checks

        self.CheckError = checks.CheckError
        self.verified: dict[int, object] = {}
        self.rejected: dict[tuple[int, object], str] = {}
        self.counters: dict[str, float] = {}

    def __call__(self, i: int, op, out, error) -> str | None:
        if error is not None:
            return f"{op.kind}: {type(error).__name__}: {error}"
        fp = op.fingerprint(out)
        if i in self.verified and self.verified[i] == fp:
            return None
        if (i, fp) in self.rejected:
            return self.rejected[(i, fp)]
        try:
            counters = op.check(out)
        except self.CheckError as exc:
            counters, message = exc.counters, f"{op.kind}: {exc}"
            self.rejected[(i, fp)] = message
        else:
            message = None
            self.verified[i] = fp
        for key, value in counters.items():
            self.counters[key] = self.counters.get(key, 0) + value
        return message


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile: at least (1 - q) * len(values) samples are at or above it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))  # ceil(q * n)
    return ordered[int(rank) - 1]


def _measure(wl, seconds: float, tracer, judge: Judge) -> dict:
    from workloads import TOL_REPEATS

    rounds, attempted, failed = 0, 0, 0
    durations: list[float] = []
    latencies: list[float] = []
    by_kind: dict[str, list[float]] = {}
    tol_times: list[float] = []
    tol_solves: list[int] = []
    unexpected: list[str] = []
    expected: dict[str, str] = {}

    def probe(k: int, op, tracer) -> None:
        out, error, elapsed = _timed(op, tracer)
        message = judge(-1 - k, op, out, error)
        if message is None:
            tol_times.append(elapsed)
            tol_solves.append(out[1])
        else:
            unexpected.append(message)

    start = time.perf_counter()
    while rounds < wl.min_rounds or time.perf_counter() - start < seconds:
        for i, op in enumerate(wl.ops):
            out, error, elapsed = _timed(op, tracer)
            message = judge(i, op, out, error)
            attempted += 1
            durations.append(elapsed)
            by_kind.setdefault(op.kind, []).append(elapsed)
            if message is None:
                latencies.append(elapsed)
                continue
            failed += 1
            if op.expect_fail:
                expected[op.kind] = message
            elif len(unexpected) < 20:
                unexpected.append(message)
        if wl.probes_each_round:
            for k, op in enumerate(wl.probes):
                probe(k, op, tracer)
        rounds += 1
    wall = time.perf_counter() - start
    if not wl.probes_each_round:
        for _ in range(TOL_REPEATS):  # outside the rounds, so not traced either
            for k, op in enumerate(wl.probes):
                probe(k, op, None)
    return dict(rounds=rounds, attempted=attempted, failed=failed, durations=durations,
                latencies=latencies, tol_times=tol_times, tol_solves=tol_solves,
                unexpected=unexpected, expected=expected, wall_s=wall,
                kind_median_ms={k: statistics.median(v) * 1e3 for k, v in by_kind.items()},
                kind_max_ms={k: max(v) * 1e3 for k, v in by_kind.items()})


def _end_to_end(wl, m: dict, setup: list[float], runner) -> dict[str, float]:
    lat = m["latencies"]
    if runner is not None:
        rss_kb = runner.max_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # too few operations for a tail: the field repeats the median, so that every
    # run reports every metric without a sample as noisy as a run's slowest one
    tail = statistics.median(lat) if wl.tail_quantile is None else _quantile(lat, wl.tail_quantile)
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(lat) / sum(m["durations"]),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": rss_kb / 1024.0,
        "time_to_tol_ms": statistics.median(m["tol_times"]) * 1e3,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "screwspec", "__init__.py")):
        print(f"run.py: no screwspec sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    wl, runner, own_setup = _setup(args.workload, args.seed)
    if args.setup_only:
        print(own_setup)
        return 0
    os.makedirs(RESULTS, exist_ok=True)
    import machine
    import screwspec
    import spans

    tracer = uninstall = None
    if args.trace:
        tracer = spans.Tracer()
        uninstall = spans.install(tracer, screwspec)
        if runner is not None:
            runner.tracer = tracer
    judge = Judge()
    m = _measure(wl, args.seconds, tracer, judge)
    if uninstall is not None:
        uninstall()
    correct = not m["unexpected"] and len(m["latencies"]) > 0 and len(m["tol_times"]) > 0
    if args.trace:
        counters = dict(judge.counters)
        counters["solves_to_tol"] = statistics.median(m["tol_solves"]) if m["tol_solves"] else 0
        counters["stdout_bytes"] = runner.stdout_bytes if runner is not None else 0
        values = spans.per_layer(tracer, m["rounds"], counters)
        units = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
        tracer.write(os.path.join(RESULTS, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
        setup = []
    else:
        setup = _setup_samples(args.workload, args.seed, own_setup, runner)
        values = _end_to_end(wl, m, setup, runner) if correct else {k: 0.0 for k in END_TO_END}
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record = machine.machine_record()
    result = {"correct": correct, "attempted": m["attempted"], "failed": m["failed"],
              "metrics": metrics}

    quantile = "p50 (no tail)" if wl.tail_quantile is None else f"p{wl.tail_quantile * 100:g}"
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {m['rounds']} rounds "
          f"of {len(wl.ops)} operations in {m['wall_s']:.1f} s; tail = {quantile}")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>16.6f} {metric['unit']}")
    print(f"  attempted {m['attempted']}, failed {m['failed']}")
    for message in sorted(m["expected"].values()):
        print(f"  known failure  {message[:160]}")
    for message in m["unexpected"][:5]:
        print(f"  UNEXPECTED     {message[:300]}", file=sys.stderr)
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"result": result, "machine": record, "rounds": m["rounds"],
                   "setup_samples_s": setup, "tail_quantile": quantile,
                   "known_failures": m["expected"], "unexpected": m["unexpected"],
                   "mean_op_ms": 1e3 * sum(m["durations"]) / max(m["attempted"], 1),
                   "kind_median_ms": m["kind_median_ms"], "kind_max_ms": m["kind_max_ms"]},
                  fh, indent=1)
    print("machine: " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
