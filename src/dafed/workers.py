"""Processes forked from this one: how many the host affords, one helper
that starts them, reaches them over pipes and reaps them, and one rule for
what they return. `explain` deals its subjects over them round robin, `eval`
its sites and training its target sites. Each shard runs its items until one
raises (`until_error`), and `in_item_order` merges the shards in item order
and raises the first failing item's error, as one process would. A forked
process sends that pair with `send_outcome`, which turns an error that
cannot cross the pipe into a ChildProcessError naming it.

Forking, not spawning, is the point: a forked process already holds every
object its work reads, so nothing is pickled on the way in. It is safe here
because dafed starts no Python thread, and OpenBLAS stops its own threads
around a fork. `multiprocessing` is imported only where a process is forked,
so a run that forks nothing never loads it.
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal


def process_count(items: int) -> int:
    """Processes for `items` units of work: the cores this process may run on,
    divided by the BLAS threads each process starts, at most one per item.

    The BLAS thread count is the first positive integer among
    OPENBLAS_NUM_THREADS and OMP_NUM_THREADS; without one, OpenBLAS starts
    a thread per core, so a single process already uses every core."""
    cores = len(os.sched_getaffinity(0))
    blas_threads = cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdecimal() and int(value) > 0:
            blas_threads = int(value)
            break
    return max(1, min(cores // blas_threads, items))


def _enter(body, k: int, conn, inherited):
    """The start of forked process k: ignore Ctrl-C, since the parent ends
    and reaps its forked processes, and drop the parent's ends of every pipe,
    so that each one reads end-of-file once the parent's copy closes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for other in inherited:
        other.close()
    body(k, conn)


class Workers:
    """`count` processes forked from this one; process k runs `body(k, conn)`,
    where `conn` is its end of a two-way pipe to this process. Errors name
    process k `what k+1`, counting this process as 0.

    A body returns when its pipe reads end-of-file, which happens when this
    process closes its end or dies. `close` closes the pipes, then ends and
    reaps the processes, so none outlives the object."""

    def __init__(self, body, count: int, what: str):
        self.what = what
        self.procs, self.conns = [], []
        if count < 1:
            return
        import multiprocessing  # here, so that a run that forks nothing never loads it

        context = multiprocessing.get_context("fork")
        try:
            for k in range(count):
                here, there = context.Pipe()
                proc = context.Process(target=_enter, args=(body, k, there, self.conns + [here]),
                                       daemon=True)
                proc.start()
                there.close()
                self.procs.append(proc)
                self.conns.append(here)
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _lost(self, k: int) -> ChildProcessError:
        proc = self.procs[k]
        proc.join()
        return ChildProcessError(f"{self.what} {k + 1}: its process exited with code "
                                 f"{proc.exitcode} before it replied")

    def send(self, k: int, data: bytes):
        """Send the bytes `data` to worker k, as they are."""
        try:
            self.conns[k].send_bytes(data)
        except (BrokenPipeError, ConnectionResetError):
            raise self._lost(k) from None

    def receive(self, k: int):
        """The next `send_outcome` pair worker k sent, unpickled; a worker
        that exited raises ChildProcessError."""
        try:
            return self.conns[k].recv()
        except (EOFError, ConnectionResetError):
            raise self._lost(k) from None

    def close(self):
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            proc.terminate()
            proc.join()


def send_outcome(conn, name: str, outcome: tuple[list, Exception | None]):
    """Send an `until_error` pair from the forked process `name` over `conn`.
    An error that does not survive a pickle round trip is sent as a
    ChildProcessError naming the process, the error's type and its message."""
    done, error = outcome
    if error is not None:
        try:
            pickle.loads(pickle.dumps(error))
        except Exception:  # unpickling calls the error's class, which may raise anything
            error = ChildProcessError(f"{name}: {type(error).__name__}: {error}")
    conn.send((done, error))


def until_error(fn, items) -> tuple[list, Exception | None]:
    """[fn(x) for x in items] up to the first call that raises: the results
    before it, and its error, or None when every call returned."""
    done = []
    for x in items:
        try:
            done.append(fn(x))
        except Exception as err:  # in_item_order raises it in item order
            return done, err
    return done, None


def in_item_order(shards: list) -> list:
    """The results of items dealt round robin over the shards, in item order,
    from each shard's `until_error` pair; the error of the first item that
    failed is raised instead."""
    processes = len(shards)
    results = []
    for i in itertools.count():
        done, error = shards[i % processes]
        if i // processes < len(done):
            results.append(done[i // processes])
        elif error is None:  # shard i % processes ran all its items, so item i does not exist
            return results
        else:
            raise error


def run_shards(fn, items: list, processes: int, what: str) -> list:
    """[fn(x) for x in items], with the items dealt round robin over
    `processes` shards: shard 0 runs in this process, each other shard in a
    process forked from it, so `fn` and what it reads are never pickled.
    The error of the first item that failed is raised here, and a shard
    process that dies is reported as `what k`. No process outlives the call."""

    def send_shard(k, conn):
        send_outcome(conn, f"{what} {k + 1}", until_error(fn, items[k + 1::processes]))

    with Workers(send_shard, processes - 1, what) as workers:
        here = until_error(fn, items[::processes])
        return in_item_order([here] + [workers.receive(k) for k in range(processes - 1)])
