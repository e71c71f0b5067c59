"""The benchmark's own Ray session: start, warm, shut down, reap.

The session lives in its own directory inside the checkout, so every
process it starts can be found by that path on its command line and
killed without touching any other Ray session on the host (no
``ray stop --force``).
"""

from __future__ import annotations

import importlib
import os
import shutil
import signal
import tempfile
import time

#: AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets at
#: <temp_dir>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store,
#: which leaves this much for <temp_dir>
_MAX_TEMP_DIR = 40

#: what every worker imports during the warm step of set-up
WARM_MODULES = ("lexor_ray.pipeline",)

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _warm() -> int:
    for name in WARM_MODULES:
        importlib.import_module(name)
    # hold the worker so that concurrent calls land on distinct workers
    time.sleep(0.1)
    return os.getpid()


class Session:
    """One ``num_cpus`` Ray session at a time, in ``temp_dir``. Workers
    inherit this process's environment, ``PYTHONPATH`` included."""

    def __init__(self, temp_dir: str, num_cpus: int, object_store_mb: int):
        self.temp_dir = temp_dir
        self.num_cpus = num_cpus
        self.object_store_mb = object_store_mb
        self.up = False

    def start(self) -> tuple[float, float, float]:
        """Start the session and import the library on every worker;
        returns (init seconds, warm seconds, CPU seconds of both)."""
        import ray

        cpu0, t0 = cpu_s(), time.perf_counter()
        ray.init(
            address="local",
            num_cpus=self.num_cpus,
            object_store_memory=self.object_store_mb * 1024 * 1024,
            include_dashboard=False,
            log_to_driver=False,
            logging_level="ERROR",
            _temp_dir=self.temp_dir,
        )
        self.up = True
        t1 = time.perf_counter()
        import ray.data

        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        warm = ray.remote(num_cpus=1)(_warm)
        pids: set[int] = set()
        for _ in range(3):
            pids |= set(ray.get([warm.remote() for _ in range(self.num_cpus)]))
            if len(pids) >= self.num_cpus:
                break
        else:
            raise RuntimeError(f"warm step reached {len(pids)} of {self.num_cpus} workers")
        return t1 - t0, time.perf_counter() - t1, cpu_s() - cpu0

    def stop(self) -> None:
        """Shut the session down, then kill whatever of it is left."""
        if self.up:
            import ray

            try:
                ray.shutdown()
            finally:
                self.up = False
        reap(self.temp_dir)


def session_dir(parent: str) -> str:
    """A directory of this run's own under ``parent`` (so that runs side
    by side never reap each other), or under the system's temporary
    directory when ``parent`` is too long for Ray's socket names."""
    path = os.path.join(parent, f"r{os.getpid()}")
    if len(path) > _MAX_TEMP_DIR:
        return tempfile.mkdtemp(prefix="pb")
    os.makedirs(path, exist_ok=True)
    return path


def reap_stale(parent: str) -> None:
    """Kill and remove what is left of earlier runs under ``parent``
    whose supervising process is gone."""
    if not os.path.isdir(parent):
        return
    for name in os.listdir(parent):
        if not (name[:1] == "r" and name[1:].isdigit()):
            continue
        try:
            os.kill(int(name[1:]), 0)
            continue  # its run is still going
        except ProcessLookupError:
            pass
        except PermissionError:
            continue
        path = os.path.join(parent, name)
        reap(path, grace_s=0)
        shutil.rmtree(path, ignore_errors=True)


def _processes(with_cmdline: bool):
    """(pid, parent pid, state, CPU ticks, command line) of every process
    that can be read; the ticks are user + system time of the process
    and of the children it has reaped."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
            cmd = b""
            if with_cmdline:
                with open(f"/proc/{entry}/cmdline", "rb") as fh:
                    cmd = fh.read()
        except OSError:
            continue
        # the fields after the parenthesised command name, from the state
        # on: state, parent pid, ..., utime, stime, cutime, cstime
        fields = stat[stat.rfind(b")") + 2 :].split()
        ticks = sum(int(x) for x in fields[11:15])
        yield int(entry), int(fields[1]), fields[0], ticks, cmd


def _descends(pid: int, ancestor: int, parent: dict[int, int]) -> bool:
    while pid and pid != ancestor:
        pid = parent.get(pid, 0)
    return pid == ancestor


def cpu_s() -> float:
    """CPU seconds used so far by this process and every process it
    started that is alive, a zombie, or reaped by one of them: the
    benchmark process and its Ray session. The kernel counts time stolen
    by the hypervisor apart (the steal column of /proc/stat), so these
    seconds leave it out; they still grow, less than wall time, when
    other guests load the host's cores, caches and memory."""
    me = os.getpid()
    procs = list(_processes(with_cmdline=False))
    parent = {pid: ppid for pid, ppid, _, _, _ in procs}
    ticks = sum(t for pid, _, _, t, _ in procs if _descends(pid, me, parent))
    return ticks / _CLK_TCK


def _session_pids(temp_dir: str) -> list[int]:
    """Processes whose command line names ``temp_dir``, or that descend
    from this process."""
    me = os.getpid()
    needle = temp_dir.encode()
    procs = [p for p in _processes(with_cmdline=True) if p[2] != b"Z"]
    parent = {pid: ppid for pid, ppid, _, _, _ in procs}
    out = {pid for pid, _, _, _, cmd in procs if needle in cmd or _descends(pid, me, parent)}
    out.discard(me)
    return sorted(out)


def _reap_children() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def reap(temp_dir: str, grace_s: float = 10.0) -> None:
    """Wait up to ``grace_s`` for the session's processes to exit after
    a shutdown, then SIGKILL the rest and wait until they are gone."""
    deadline = time.monotonic() + grace_s
    sig = None
    while True:
        _reap_children()
        pids = _session_pids(temp_dir)
        if not pids:
            _reap_children()
            return
        if time.monotonic() > deadline:
            if sig == signal.SIGKILL:
                raise RuntimeError(f"session processes survive SIGKILL: {pids}")
            sig = signal.SIGKILL
            deadline = time.monotonic() + 5.0
            for pid in pids:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
        time.sleep(0.1)
