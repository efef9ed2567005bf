"""Child processes of a benchmark run, each of which is waited for.

A run starts its workers and checkers through ``spawn`` and ends each with
``reap``, which kills the child first if it is still running.  Every child
runs under the run's deadline: a watchdog kills it when the deadline
passes.  A SIGTERM, SIGINT or SIGHUP to the run kills and reaps every live
child before the run exits.  Each child calls ``die_with_parent`` first,
so that the kernel kills it if the run itself is killed outright.

No ``multiprocessing`` is used: its helper processes can outlive the run.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

_LIVE: set = set()
_DEADLINE = [time.monotonic() + 3600.0]  # until set_deadline is called
PARENT_ENV = "ORDINALIA_BENCH_PARENT"


def set_deadline(seconds_from_now: float) -> None:
    _DEADLINE[0] = time.monotonic() + seconds_from_now


def remaining() -> float:
    return _DEADLINE[0] - time.monotonic()


def _reap_all(signum, _frame) -> None:
    for proc in list(_LIVE):
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    os._exit(128 + signum)


def install_signal_handlers() -> None:
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, _reap_all)


def spawn(script: str, root: str, extra_env: dict | None = None):
    """Start ``python3 script`` in ``root`` with ``src`` on its path, under
    a watchdog that kills it at the run's deadline."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env[PARENT_ENV] = str(os.getpid())
    env.update(extra_env or {})
    proc = subprocess.Popen([sys.executable, script], cwd=root, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    _LIVE.add(proc)
    watchdog = threading.Timer(max(remaining(), 0.0), proc.kill)
    watchdog.daemon = True
    watchdog.start()
    proc.watchdog = watchdog
    return proc


def reap(proc) -> int:
    """Wait for the child until the deadline, then kill it; its exit code."""
    if not proc.stdin.closed:
        proc.stdin.close()
    try:
        code = proc.wait(timeout=max(remaining(), 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        code = proc.wait()
    proc.watchdog.cancel()
    proc.stdout.close()
    _LIVE.discard(proc)
    return code


def die_with_parent() -> None:
    """In a child: have the kernel kill this process when the run dies."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass  # not Linux: the run's signal handlers still reap its children
    if os.getppid() != int(os.environ.get(PARENT_ENV, os.getppid())):
        os._exit(1)  # the run died before the request took effect
