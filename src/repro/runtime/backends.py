"""The two backends that drive shard dataflows.

``run_shards`` executes one zero-argument worker per shard and returns
their results in shard order.  Two drivers:

* ``"sync"`` — run the workers one after another in the calling thread
  (the default).  Each worker mutates its shard's ``Dataflow`` in place.
* ``"processes"`` — fork one child per shard.  The child inherits its
  shard by fork (no pickling on the way in) and ships its result — and
  a ``Dataflow.checkpoint()`` of the shard's final state — back through
  a pipe, so the parent can restore the shard and keep going
  incrementally.  Falls back to ``"sync"`` where ``fork`` is
  unavailable (:func:`forks` says which driver a backend gets).

Whatever the backend, the merge stage reassembles the shard outputs by
global event sequence, so results are identical on both.
"""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

from ..config import BACKENDS
from ..core.errors import ExecutionError

__all__ = ["run_shards"]

T = TypeVar("T")


def run_shards(workers: list[Callable[[], T]], backend: str = "sync") -> list[T]:
    """Run one worker per shard; return results in shard order.

    The first worker failure (by shard index) is re-raised in the
    caller after all workers have stopped.
    """
    if backend not in BACKENDS:
        raise ExecutionError(
            f"unknown runtime backend {backend!r}; expected one of {BACKENDS}"
        )
    if forks(backend):
        return _run_processes(workers)
    return [worker() for worker in workers]


def forks(backend: str) -> bool:
    """Whether ``backend`` runs its workers in forked children."""
    return backend == "processes" and _fork_available()


def _fork_available() -> bool:
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _process_entry(worker: Callable[[], T], conn) -> None:
    # The worker inherits the collector the way the parent left it at
    # the fork: off, since ``ShardedDataflow.run`` (the one caller that
    # forks) is a paused call.  So no collection in the worker walks —
    # and copies on write — the heap it inherited.
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
    results: list[Optional[T]] = [None] * len(workers)
    errors: list[Optional[BaseException]] = [None] * len(workers)
    try:
        for i, worker in enumerate(workers):
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            pipes.append(parent_conn)
            try:
                proc = ctx.Process(
                    target=_process_entry,
                    args=(worker, child_conn),
                    name=f"repro-shard-{i}",
                )
                proc.start()
            finally:
                child_conn.close()
            procs.append(proc)
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
        # Whatever happened above — a failed fork included — no worker
        # outlives the call: closing our end first unblocks a child
        # still writing its result.
        for conn in pipes:
            conn.close()
        for proc in procs:
            proc.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results  # type: ignore[return-value]
