"""The task engine: runs the tasks of a ready queue, in this process or on
forked worker processes, one task at a time per process.

A client subclasses :class:`Queue`, which decides everything about its
tasks: which are ready, what a reply makes ready next (so work can come in
rounds, each made from the last one's replies), which replies retire
their process, and what becomes of a task whose process died. ``run`` maps
a task to its reply; each forked process keeps its own copy between tasks.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection


def _worker(run, conn) -> None:
    """A forked process: runs each task the parent sends and sends back
    its reply, until the parent sends None."""
    try:
        for task in iter(conn.recv, None):
            conn.send(run(task))
    except EOFError:
        pass  # the parent is gone


class Queue:
    """A ready queue of tasks, which the engine serves; ``len`` is the
    number of tasks ready."""

    def pop(self):
        """The next ready task."""
        raise NotImplementedError

    def receive(self, reply):
        """Take a reply; returns the task its process is to run next, if any."""
        raise NotImplementedError

    def retires(self, reply) -> bool:
        """Whether a forked process that sent ``reply`` is replaced by a fresh one."""
        return False

    def lost(self, task, exitcode) -> None:
        """The process running ``task`` died with ``exitcode``."""
        raise NotImplementedError

    def serve(self, run) -> None:
        """Run every task with ``run``, in this process."""
        task = None
        while task is not None or len(self):
            task = self.receive(run(task or self.pop()))

    def serve_forked(self, run, workers: int) -> None:
        """Run every task on ``workers`` forked processes, each running its
        copy of ``run``, one task at a time. A process that dies loses only
        the task it was running (see :meth:`lost`), and a fresh one is
        forked in its place. One that dies idle is not replaced, so a
        process that cannot live is not forked forever; once every process
        has, this returns with tasks left. A process whose reply
        :meth:`retires` it is replaced by a fresh one, which gets its
        follow-up task, if any. Processes inherit ``run`` without pickling."""
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
        procs, conns, running = {}, {}, {}  # slot -> process, pipe end, task

        def fork(slot: int) -> None:
            here, there = ctx.Pipe()
            procs[slot] = ctx.Process(target=_worker, args=(run, there), daemon=True)
            procs[slot].start()
            there.close()
            conns[slot] = here

        def send(slot: int, task) -> None:
            running[slot] = task
            try:
                conns[slot].send(task)
            except OSError:
                pass  # it died: its end of the pipe reads EOF next

        try:
            for slot in range(workers):
                fork(slot)
            while running or len(self):
                if not conns:  # every process died without a task
                    break
                for slot in [slot for slot in conns if slot not in running][:len(self)]:
                    send(slot, self.pop())
                for conn in multiprocessing.connection.wait(list(conns.values())):
                    slot = next(s for s, c in conns.items() if c is conn)
                    task = running.pop(slot, None)
                    try:
                        reply = conn.recv()
                    except (EOFError, OSError):  # OSError: it died with a reply unread
                        proc = procs.pop(slot)
                        conns.pop(slot).close()
                        proc.join()
                        if task is not None:
                            self.lost(task, proc.exitcode)
                            fork(slot)
                        continue
                    task = self.receive(reply)
                    if self.retires(reply):  # send marks it busy
                        send(slot, None)
                        del running[slot]
                        conns.pop(slot).close()
                        procs.pop(slot).join()
                        fork(slot)
                    if task is not None:
                        send(slot, task)
            for slot in conns:
                send(slot, None)
            for proc in procs.values():
                proc.join()
        finally:
            for proc in procs.values():
                if proc.is_alive():
                    proc.terminate()
                    proc.join()
            for conn in conns.values():
                conn.close()
