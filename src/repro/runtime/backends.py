"""Worker-pool backends for driving shard dataflows.

``run_shards`` executes one zero-argument worker per shard and returns
their results in shard order.  Three backends:

* ``"sync"`` — run the workers one after another in the calling thread.
  The reference semantics; useful for debugging and tiny inputs.
* ``"threads"`` — one thread per shard (the default).  Each worker
  touches only its own shard's ``Dataflow``, so no locking is needed;
  pure-Python operator work still serialises on the GIL, but any
  I/O-bound or C-accelerated stages overlap.
* ``"processes"`` — fork one child per shard.  The child inherits its
  shard by fork (no pickling on the way in) and ships its result — and
  a ``Dataflow.checkpoint()`` of the shard's final state — back through
  a pipe, so the parent can restore the shard and keep going
  incrementally.  Falls back to ``"threads"`` where ``fork`` is
  unavailable.

Whatever the backend, the merge stage reassembles the shard outputs by
global event sequence, so results are identical across all three.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, TypeVar

from ..core.errors import ExecutionError

__all__ = ["run_shards"]

T = TypeVar("T")

BACKENDS = ("sync", "threads", "processes")


def run_shards(workers: list[Callable[[], T]], backend: str = "threads") -> list[T]:
    """Run one worker per shard; return results in shard order.

    The first worker failure (by shard index) is re-raised in the
    caller after all workers have stopped.
    """
    if backend == "sync":
        return [worker() for worker in workers]
    if backend == "threads":
        return _run_threads(workers)
    if backend == "processes":
        if not _fork_available():
            return _run_threads(workers)
        return _run_processes(workers)
    raise ExecutionError(
        f"unknown runtime backend {backend!r}; expected one of {BACKENDS}"
    )


def _run_threads(workers: list[Callable[[], T]]) -> list[T]:
    results: list[Optional[T]] = [None] * len(workers)
    errors: list[Optional[BaseException]] = [None] * len(workers)

    def entry(index: int, worker: Callable[[], T]) -> None:
        try:
            results[index] = worker()
        except BaseException as exc:  # noqa: BLE001 — re-raised in caller
            errors[index] = exc

    threads = [
        threading.Thread(target=entry, args=(i, worker), name=f"repro-shard-{i}")
        for i, worker in enumerate(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results  # type: ignore[return-value]


def _fork_available() -> bool:
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _process_entry(worker: Callable[[], T], conn) -> None:
    try:
        payload = ("ok", worker())
    except BaseException as exc:  # noqa: BLE001 — re-raised in parent
        payload = ("err", exc)
    try:
        conn.send(payload)
    except Exception:
        # The result (or the exception itself) didn't pickle; report that
        # instead of leaving the parent hanging on a closed pipe.
        conn.send(("err", ExecutionError(f"shard result not picklable: {payload[1]!r}")))
    finally:
        conn.close()


def _run_processes(workers: list[Callable[[], T]]) -> list[T]:
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    pipes = []
    procs = []
    for i, worker in enumerate(workers):
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_process_entry,
            args=(worker, child_conn),
            name=f"repro-shard-{i}",
        )
        proc.start()
        child_conn.close()
        pipes.append(parent_conn)
        procs.append(proc)

    results: list[Optional[T]] = [None] * len(workers)
    errors: list[Optional[BaseException]] = [None] * len(workers)
    try:
        for i, conn in enumerate(pipes):
            try:
                status, value = conn.recv()
            except EOFError:
                status, value = "err", ExecutionError(
                    f"shard {i} worker process died without reporting a result"
                )
            except Exception as exc:  # noqa: BLE001 — re-raised below
                # Pickled in the child, failed to load here.
                status, value = "err", ExecutionError(
                    f"shard {i} worker's result could not be loaded in the "
                    f"parent: {exc!r}"
                )
                value.__cause__ = exc
            if status == "ok":
                results[i] = value
            else:
                errors[i] = value
    finally:
        # Whatever happened above, no worker outlives the call: closing
        # our end first unblocks a child still writing its result.
        for conn in pipes:
            conn.close()
        for proc in procs:
            proc.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results  # type: ignore[return-value]
