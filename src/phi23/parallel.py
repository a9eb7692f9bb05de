"""Multi-process driver: map a walk over opaque tasks, with the workers
forked once and every process, this one included, claiming tasks.

The driver knows nothing about what a task is or how it is walked; the
forked workers inherit the walk and the tasks, and only results travel back,
pickled.  ``search.solve`` imports this module only when a run may start
more than one worker, so a serial run never loads it.  It needs ``os.fork``;
where that does not exist ``SearchConfig.workers`` is 1.
"""

from __future__ import annotations

import os
from typing import Callable, NoReturn, Sequence, TypeVar

__all__ = ["run_tasks"]

T = TypeVar("T")
R = TypeVar("R")


def _walk_tasks(
    tasks: Sequence[T], walk: Callable[[T], R], tokens: tuple[int, int], stride: int
) -> list[tuple[int, R]]:
    """Claim tasks through the token pipe and walk them until none is left.

    Returns (index, result) for each task this process walked.
    """
    read_end, write_end = tokens
    done = []
    while True:
        i = int.from_bytes(os.read(read_end, 8), "little")
        if i >= len(tasks):
            return done
        os.write(write_end, (i + stride).to_bytes(8, "little"))
        done.append((i, walk(tasks[i])))


def _run_child(
    tasks: Sequence[T],
    walk: Callable[[T], R],
    tokens: tuple[int, int],
    stride: int,
    result_end: int,
) -> NoReturn:
    """A forked worker's whole life: walk its share, pickle the results (or
    the exception that ended the walk) into ``result_end``, and leave through
    os._exit, so it never runs its parent's code past the fork."""
    import pickle

    code = 1
    try:
        try:
            outcome = _walk_tasks(tasks, walk, tokens, stride)
        except BaseException as exc:
            outcome = exc
        with open(result_end, "wb") as pipe:
            pipe.write(pickle.dumps(outcome))
        code = 0
    finally:
        os._exit(code)


def run_tasks(tasks: Sequence[T], walk: Callable[[T], R], processes: int) -> list[R]:
    """``[walk(t) for t in tasks]``, computed on ``processes`` processes, this
    one included; ``processes`` below 1 raises ValueError, as the pipe would
    start with no token and this process's first claim would block forever.

    The other processes are forked here and inherit ``walk`` and ``tasks``
    as they are at the fork.  Tasks are claimed through one pipe of 8-byte
    tokens, one per process to start with: token i is the next task of the
    indices i mod ``processes``.  A claim reads a token i; if task i exists
    it at once writes back i + ``processes`` and walks task i, and otherwise
    the process is done and the spent token leaves the pipe with it.  So the
    pipe never holds more than ``processes`` tokens, however many tasks there
    are, and no process holds a token while it walks.  A process that dies
    takes at most one token with it, so the pipe keeps a token for each
    process left and none of them waits forever; only the tasks of a lost
    token's class go unwalked, and the dead child's missing result makes
    this raise.

    Each child pickles its results, or the exception that stopped it, into
    a pipe of its own, which is read here after this process's share.  A
    child's exception is raised again here, and a child that sends nothing
    makes this raise.  On every path each child is killed if still running
    and reaped.
    """
    if processes < 1:
        raise ValueError(f"need processes >= 1, got {processes}")
    import pickle
    import signal

    tokens = os.pipe()
    children: dict[int, int] = {}  # pid -> read end of its result pipe
    try:
        os.write(tokens[1], b"".join(i.to_bytes(8, "little") for i in range(processes)))
        for _ in range(processes - 1):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _run_child(tasks, walk, tokens, processes, write_end)
            os.close(write_end)
            children[pid] = read_end
        done = _walk_tasks(tasks, walk, tokens, processes)
        for pid, read_end in children.items():
            with open(read_end, "rb", closefd=False) as pipe:
                sent = pipe.read()
            if not sent:
                raise RuntimeError(f"worker {pid} exited without sending its results")
            outcome = pickle.loads(sent)
            if isinstance(outcome, BaseException):
                raise outcome
            done += outcome
    finally:
        for pid, read_end in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_end)
        os.close(tokens[0])
        os.close(tokens[1])
    done.sort(key=lambda task: task[0])
    return [result for _, result in done]
