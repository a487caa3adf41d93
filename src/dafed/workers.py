"""Processes forked from this one: how many the host affords, and one helper
that starts them, reaches them over pipes and reaps them. `explain` scores
its subject shards in them, `eval` its site shards, and training runs target
sites in them.

Forking, not spawning, is the point: a forked process already holds every
object its work reads, so nothing is pickled on the way in. It is safe here
because dafed starts no Python thread, and OpenBLAS stops its own threads
around a fork. `multiprocessing` is imported only where a process is forked,
so a run that forks nothing never loads it.
"""

from __future__ import annotations

import os


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
    """The start of forked process k: drop the parent's ends of every pipe,
    so that each one reads end-of-file once the parent's copy closes."""
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

    def send(self, k: int, obj, raw: bool = False):
        """Pickle `obj` to worker k, or with `raw`, send the bytes `obj` as they are."""
        try:
            if raw:
                self.conns[k].send_bytes(obj)
            else:
                self.conns[k].send(obj)
        except (BrokenPipeError, ConnectionResetError):
            raise self._lost(k) from None

    def receive(self, k: int, raw: bool = False):
        """The next object worker k sent, or with `raw`, its next bytes; a
        worker that exited raises ChildProcessError."""
        try:
            return self.conns[k].recv_bytes() if raw else self.conns[k].recv()
        except (EOFError, ConnectionResetError):
            raise self._lost(k) from None

    def close(self):
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            proc.terminate()
            proc.join()


def run_shards(fn, items: list, processes: int, what: str) -> list:
    """[fn(x) for x in items], with the items dealt round robin over
    `processes` shards: shard 0 runs in this process, each other shard in a
    process forked from it, so `fn` and what it reads are never pickled.
    An error raised by a shard is raised here, and a shard process that dies
    is reported as `what k`. No process outlives the call."""

    def shard(k):
        return [fn(x) for x in items[k::processes]]

    def send_shard(k, conn):
        try:
            result = (True, shard(k + 1))
        except Exception as err:  # this process re-raises it
            result = (False, err)
        conn.send(result)

    results = [None] * len(items)
    with Workers(send_shard, processes - 1, what) as workers:
        results[::processes] = shard(0)
        for k in range(1, processes):
            ok, value = workers.receive(k - 1)
            if not ok:
                raise value
            results[k::processes] = value
    return results
