"""Work cut into parts that run at the same time, one per CPU.

The feature writer formats its row ranges, and training descends its
stack slices, through `in_parts`: part 0 runs in this process and each
other part in a worker made by ``os.fork`` that leaves through
``os._exit``. A forked worker shares the parent's memory copy-on-write,
so the tables it reads are not copied. ``os._exit`` flushes no buffer, so
a part that writes a file flushes it itself: the feature writer's ranges
go to nameless temporary files the parent makes before the fork, which
SIGKILL cannot leave behind. A worker also ends, through ``os._exit``,
as soon as its parent can no longer read its result (see `_fork`), so a
killed parent leaves no worker running. Forking is safe only where
``os.fork`` exists and no second thread is alive (a fork copies the
calling thread alone, so a lock another thread holds would stay held in
the worker); elsewhere `worker_count` is 1 and `part_bounds` makes one
part. No other module forks, pins CPUs or counts workers.
"""

import contextlib
import os
import pickle
import select
import signal
import threading


def worker_count() -> int:
    """How many parts may run at once: one per CPU this process may run
    on, and one where a fork is unsafe."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return len(cpus())


def part_bounds(items: int, work: int, least: int) -> list:
    """Where to cut `items` items into contiguous parts: one part per
    worker_count while each holds at least `least` of the `work`, and no
    more parts than items. Part i holds items bounds[i]..bounds[i + 1]."""
    parts = max(1, min(items, worker_count(), work // least))
    return [items * i // parts for i in range(parts + 1)]


def cpus() -> list:
    """The CPUs this process may run on; one where that cannot be asked."""
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]


def in_parts(count: int, run) -> list:
    """[run(0), ..., run(count - 1)]: part 0 here, every other part at the
    same time in a forked worker.

    A worker sends back its result, or the exception it raised, pickled
    through a pipe, and ends in ``os._exit``, so it runs no exit handler
    and flushes no buffer of the parent's. The exception of the earliest
    failing part is raised; the workers of later parts are then killed.
    Every worker is reaped before this returns or raises. A part whose
    fork fails runs here, after the parts before it.

    While workers run, part i runs on CPU i of the process's affinity
    set, and the parent's set is restored after: a kernel that does not
    balance load across CPUs (a cpuset with ``sched_load_balance`` 0)
    would otherwise run every worker on its parent's CPU.
    """
    if count == 1:
        return [run(0)]
    allowed = cpus()
    workers = []
    try:
        for index in range(1, count):
            inherited = [worker[1] for worker in workers if worker is not None]
            workers.append(_fork(run, index, allowed, inherited))
        _run_on({allowed[0]})
        results = [run(0)]
        for index in range(1, count):
            worker, workers[index - 1] = workers[index - 1], None
            results.append(run(index) if worker is None else _join(*worker))
        return results
    finally:
        for worker in workers:
            if worker is not None:
                pid, read_end = worker
                os.close(read_end)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        _run_on(allowed)


def _run_on(allowed) -> None:
    """Let the calling process run on the CPUs `allowed` only, where the
    system allows."""
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, allowed)


def _fork(run, index: int, allowed: list, inherited: list):
    """(pid, read end of its pipe) of a worker running run(index) on CPU
    `index` of `allowed`, or None when the fork fails.

    The worker closes the `inherited` read ends of earlier workers' pipes,
    so only the parent holds each pipe's read end, and it leaves through
    ``os._exit`` once no process holds the read end of its own pipe: its
    parent died, or gave up on the result.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        try:
            for fd in (read_end, *inherited):
                os.close(fd)
            _exit_without_reader(write_end)
            _run_on({allowed[index % len(allowed)]})
            try:
                outcome = (True, run(index))
            except BaseException as exc:
                outcome = (False, exc)
            with os.fdopen(write_end, "wb") as pipe:
                pickle.dump(outcome, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    os.close(write_end)
    return pid, read_end


def _exit_without_reader(write_end: int) -> None:
    """Start a thread that ends this process once the pipe `write_end`
    writes into has no reader left (POLLERR, or POLLHUP elsewhere)."""

    def watch():
        poller = select.poll()
        poller.register(write_end, 0)  # errors and hang-ups only
        poller.poll()
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _join(pid: int, read_end: int):
    """The result of the worker `pid`, once reaped, or the exception it
    raised."""
    try:
        with os.fdopen(read_end, "rb") as pipe:
            payload = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    try:
        ok, value = pickle.loads(payload)
    except Exception:
        raise ChildProcessError(
            f"a worker ended without a result (wait status {status})"
        ) from None
    if not ok:
        raise value
    return value
