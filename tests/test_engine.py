"""The task engine on a toy queue with no LP: two rounds of tasks, the
second made from the first one's replies, a follow-up task, a worker
killed mid-task and a reply that retires its process."""

import os
import signal

from voltaic import engine


class _Toy:
    """Runs a task ``(kind, x)`` and replies ``(task, value, pid)``: the
    value is ``x + 1`` for ``add`` and ``x * x`` otherwise. A ``die`` task
    kills the forked process that runs it; the calling process squares it."""

    def __init__(self):
        self.parent = os.getpid()

    def __call__(self, task):
        kind, x = task
        if kind == "die" and os.getpid() != self.parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return task, x + 1 if kind == "add" else x * x, os.getpid()


class _Rounds(engine.Queue):
    """Round 1 squares 1 to 7, and round 2, queued once round 1 has fully
    replied, adds one to each of its values. 7 is the follow-up of the
    reply for 2, for the process that sent it. The reply for 3 retires its
    process; a task whose process died is queued again as a square."""

    def __init__(self):
        self.ready = [("square", 1), ("square", 2), ("retire", 3), ("die", 4), ("square", 5), ("square", 6)]
        self.values, self.replies, self.lost_tasks = {}, [], []

    def __len__(self):
        return len(self.ready)

    def pop(self):
        return self.ready.pop(0)

    def receive(self, reply):
        task, value, _ = reply
        self.replies.append(reply)
        self.values[2 if task[0] == "add" else 1, task[1]] = value
        if len(self.values) == 7:  # round 1 is in: round 2 is made from its replies
            self.ready += [("add", self.values[key]) for key in sorted(self.values)]
        return ("square", 7) if task == ("square", 2) else None

    def retires(self, reply):
        return reply[0][0] == "retire"

    def lost(self, task, exitcode):
        self.lost_tasks.append((task, exitcode))
        self.ready.append(("square", task[1]))


_VALUES = {**{(1, x): x * x for x in range(1, 8)}, **{(2, x * x): x * x + 1 for x in range(1, 8)}}


def test_in_process_runs_both_rounds():
    queue = _Rounds()
    queue.serve(_Toy())
    assert queue.values == _VALUES
    assert queue.lost_tasks == [] and {pid for *_, pid in queue.replies} == {os.getpid()}


def test_forked_workers_give_the_same_replies_through_a_death_and_a_retirement(tmp_path, monkeypatch):
    worker = engine._worker

    def counted(run, conn):  # each forked process leaves a file named by its pid
        (tmp_path / str(os.getpid())).touch()
        worker(run, conn)

    monkeypatch.setattr(engine, "_worker", counted)
    queue = _Rounds()
    queue.serve_forked(_Toy(), 2)
    assert queue.values == _VALUES
    assert queue.lost_tasks == [(("die", 4), -signal.SIGKILL)]
    pids = [pid for *_, pid in queue.replies]
    pid_of = {task: pid for task, _, pid in queue.replies}
    assert os.getpid() not in pids
    assert pid_of[("square", 7)] == pid_of[("square", 2)]  # the follow-up went back to the same process
    retired = next(k for k, (task, *_) in enumerate(queue.replies) if task == ("retire", 3))
    assert pid_of[("retire", 3)] not in pids[retired + 1:]
    # Two workers, a fresh one for the one that died and one for the one that retired.
    assert len(list(tmp_path.iterdir())) == 4
