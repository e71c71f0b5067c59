"""lexor_ray benchmark: one workload, one JSON result line.

    python3 perfbench/run.py --workload extract --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The process generates the workload's
inputs from ``--seed`` (cached under ``.pb/data``), starts its own
2-CPU Ray session in ``.pb/r<pid>`` several times to time set-up, then runs
whole rounds of the workload until ``--seconds`` have passed. Every
operation is checked against a computation made apart from the program.
The last line of standard output is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (``--trace 0``) or its
per-layer metrics (``--trace 1``). The line before it stamps the host.
See perfbench/README.md.
"""

from __future__ import annotations

T_START = __import__("time").perf_counter()
CPU_START = __import__("time").process_time()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".pb")
NUM_CPUS = 2
OBJECT_STORE_MB = 512
#: session start-ups per run; setup_s is their median
SETUPS = 3
#: rounds per run at least, so that the median of each operation's times
#: leaves out the first round, which pays Ray Data's first execution
MIN_ROUNDS = 3
#: input scale of the quick mode, which also starts the session once
QUICK_SCALE = 0.05
#: a run that has not finished by then stops itself, tearing down; the
#: supervisor kills it 20 s later
DEADLINE_S = 150
#: input directories kept between runs: every input of ten seeds of
#: each workload
KEEP_INPUTS = 32
#: signals that stop a run; each tears the session down first
SIGNALS = (signal.SIGTERM, signal.SIGHUP, signal.SIGINT, signal.SIGALRM)
#: prctl option (linux/prctl.h)
PR_SET_CHILD_SUBREAPER = 36


class Terminated(BaseException):
    """Raised from a signal handler so that teardown still runs."""

    def __init__(self, signum: int) -> None:
        super().__init__(signum)
        self.signum = signum


def _log(msg: str) -> None:
    print(f"[{time.perf_counter() - T_START:7.2f}s] {msg}", file=sys.stderr, flush=True)


class Signals:
    """Turns the stop signals into :class:`Terminated`, except while
    the session is being torn down: a signal then waits until the
    teardown is over."""

    def __init__(self) -> None:
        self.deferring = False
        self.pending: list[int] = []

    def install(self) -> None:
        # ray.init replaces the SIGTERM handler, so this runs again after it
        for sig in SIGNALS:
            signal.signal(sig, self.handle)

    def handle(self, signum, _frame) -> None:
        if self.deferring:
            self.pending.append(signum)
            return
        raise Terminated(signum)

    @contextlib.contextmanager
    def deferred(self):
        self.deferring = True
        try:
            yield
        finally:
            self.deferring = False
        if self.pending:
            raise Terminated(self.pending[0])


def _calibrate() -> float:
    """A fixed pure-Python loop, median of three: the host's speed."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _host_stamp(calib_s: float) -> dict:
    import pyarrow
    import ray

    from lexor_ray.transcripts import GEN_VERSION

    nproc = subprocess.run(["nproc"], capture_output=True, text=True, check=True)
    return {
        "host.calib_s": calib_s,
        "nproc": int(nproc.stdout),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "num_cpus": NUM_CPUS,
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "python": platform.python_version(),
        "gen_version": GEN_VERSION,
    }


def _cpu_times() -> list[int]:
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _metric_specs() -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _measure(workload, seconds: int, traced: bool, min_rounds: int):
    """Whole rounds until ``seconds`` have passed and ``min_rounds``
    are done."""
    from perfbench.trace import Trace

    records, layers, traces = [], [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        tr = Trace() if traced else None
        t0 = time.perf_counter()
        rec = workload.round(k, tr)
        records.append(rec)
        _log(f"round {k}: {time.perf_counter() - t0:.2f}s")
        if traced:
            layers.append(workload.layers(rec, tr))
            traces.append(tr)
        k += 1
        if k >= min_rounds and time.perf_counter() >= deadline:
            return records, layers, traces


def run(args, signals: Signals) -> dict:
    e2e_units, layer_units = _metric_specs()
    try:
        import ray  # noqa: F401
        import ray.data  # noqa: F401

        import lexor_ray.pipeline  # noqa: F401
        from perfbench import inputs, workloads
        from perfbench.session import Session
    except ImportError as exc:
        print(f"cannot import the program from {ROOT}: {exc}", file=sys.stderr)
        sys.exit(2)
    import_s = time.perf_counter() - T_START
    import_cpu_s = time.process_time() - CPU_START

    host = _host_stamp(_calibrate())
    workload = workloads.WORKLOADS[args.workload](
        WORK, args.seed, QUICK_SCALE if args.quick else 1.0
    )
    _log("host stamped")
    workload.prepare()
    _log("inputs ready")
    inputs.prune(os.path.join(WORK, "data"), KEEP_INPUTS)

    session = Session(args.session_dir, NUM_CPUS, OBJECT_STORE_MB)
    try:
        starts = []
        setups = 1 if args.quick else SETUPS
        for i in range(setups):
            starts.append(session.start())
            signals.install()
            _log(f"session up (init {starts[-1][0]:.2f}s, warm {starts[-1][1]:.2f}s)")
            if i < setups - 1:
                session.stop()
                _log("session down")
        cpu0 = _cpu_times()
        records, layers, traces = _measure(
            workload, args.seconds, args.trace, 1 if args.quick else MIN_ROUNDS
        )
        peak_rss_mb = _peak_rss_mb()
        cpu = [b - a for a, b in zip(cpu0, _cpu_times())]
        _log(f"{len(records)} rounds measured")
    finally:
        with signals.deferred():
            session.stop()
    _log("session torn down")
    outcomes = workload.check(records)
    workload.cleanup()
    _log("outputs checked")

    init_s = statistics.median(s[0] for s in starts)
    warm_s = statistics.median(s[1] for s in starts)
    if args.trace:
        values = dict.fromkeys(layer_units, 0.0)
        for name in layers[0]:  # the layers this workload reaches
            values[name] = statistics.median(layer[name] for layer in layers)
        values.update({
            "host.calib_s": host["host.calib_s"],
            "ray.init_s": init_s,
            "ray.warm_s": warm_s,
        })
        units = layer_units
        os.makedirs(os.path.join(WORK, "trace"), exist_ok=True)
        with open(os.path.join(WORK, "trace", f"{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump([{"spans": t.spans, "counts": t.counts} for t in traces], fh)
    else:
        values = workload.metrics(records)
        # wall-clock throughput moves with the load of other guests on
        # the host, so it is stamped for the reader, not gated on
        host["rows_per_s"] = values.pop("rows_per_s")
        # in CPU seconds, like the throughput: the wall-clock set-up time
        # follows the load of other guests on the host
        values["setup_s"] = import_cpu_s + statistics.median(s[2] for s in starts)
        host["setup_wall_s"] = import_s + statistics.median(s[0] + s[1] for s in starts)
        values["peak_rss_mb"] = peak_rss_mb
        units = e2e_units
    unknown = set(values) - set(units)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    for err in filter(None, outcomes):
        print(err, file=sys.stderr)
    host.update(
        workload=args.workload, seed=args.seed, trace=args.trace, rounds=len(records),
        # share of the machine's CPU time taken by other guests while measuring
        cpu_steal_pct=round(100 * cpu[7] / max(1, sum(cpu)), 2),
    )
    print("host " + json.dumps(host))
    return {
        "correct": not any(o and o.startswith("wrong") for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }


def child(args) -> int:
    """The measuring process: owns the Ray session."""
    signals = Signals()
    signals.install()
    signal.alarm(DEADLINE_S)
    try:
        result = run(args, signals)
    except Terminated as exc:
        print(f"stopped by signal {exc.signum}; session torn down", file=sys.stderr)
        return 128 + exc.signum
    except Exception:  # noqa: BLE001 - report, tear down, fail the run
        traceback.print_exc()
        return 1
    finally:
        signal.alarm(0)
    print(json.dumps(result), flush=True)
    return 0


def supervise(argv: list[str]) -> int:
    """Run the measuring process as a child, then make sure that nothing
    it started is left: orphans of the session are re-parented to this
    process (a child subreaper), which kills and reaps them however the
    child ended."""
    from perfbench import session

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")
    session.reap_stale(WORK)
    temp_dir = session.session_dir(WORK)
    received: list[int] = []
    children: list[subprocess.Popen] = []

    def forward(signum, _frame):
        received.append(signum)
        for proc in children:
            if proc.poll() is None:
                proc.send_signal(signum)

    for sig in SIGNALS[:3]:
        signal.signal(sig, forward)
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), *argv, "--session-dir", temp_dir]
    )
    children.append(proc)
    if received:  # a signal came before the child could take it
        proc.send_signal(received[0])
    try:
        code = proc.wait(timeout=DEADLINE_S + 20)
    except subprocess.TimeoutExpired:
        proc.kill()
        code = proc.wait()
    finally:
        for sig in SIGNALS[:3]:
            signal.signal(sig, signal.SIG_IGN)
        session.reap(temp_dir)
        shutil.rmtree(temp_dir, ignore_errors=True)
    if received:
        return 128 + received[0]
    return code if code >= 0 else 128 - code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["extract", "ops"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs and one session start: a smoke test of the "
                             "workload, its checks and the teardown")
    parser.add_argument("--session-dir", help=argparse.SUPPRESS)
    args = parser.parse_args()
    # this process and, through the environment, every process it starts
    # import the program from this checkout
    sys.path.insert(0, ROOT)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = ROOT + (os.pathsep + old if old else "")
    if args.session_dir is None:
        return supervise(sys.argv[1:])
    return child(args)


if __name__ == "__main__":
    sys.exit(main())
