"""``FleetServer``: the coordinator side of the distributed sweep fleet.

The coordinator owns the listening socket.  Persistent workers dial in
(``spnn-repro worker --connect HOST:PORT``) and stay connected across
requests; the local :class:`~repro.execution.fleet.backend.FleetBackend`
enqueues one **request** per ``Backend.map`` call.  Requests are served
strictly FIFO; within the active request, chunks are pulled dynamically by
whichever worker link is idle (the chunk *plan* itself was already fixed
caller-side by ``plan_chunk_size``, so dynamic pull only changes who
evaluates a chunk, never what it contains), and results are reassembled in
task order — the same determinism contract every other backend keeps.

Scheduling within the active request is **throughput-weighted** by
default: each link keeps an EWMA of rows/second from its returned chunk
frames, a measurably slower link abstains from claiming a chunk the
faster links will drain sooner (so chunk counts land roughly proportional
to throughput instead of FIFO-uniform), and once the queue is empty an
idle fast link *re-dispatches* a straggler's in-flight tail chunk —
first result wins, the duplicate is dropped on reassembly
(:meth:`_Request.post` ignores posts to completed slots).  All of this
only moves chunks between workers; the task-ordered reassembly is
untouched, so results stay bit-identical to ``SerialBackend`` for any
fleet size, skew, or cache state.  ``REPRO_FLEET_SCHEDULING=fifo`` (or
``FleetServer(scheduling="fifo")``) restores plain FIFO claiming.

Artifact flow: a request names the spec-hash digests it ``requires``; each
worker link pushes only the blobs that link has not already sent
(tracked per connection), so a warm repeat request transfers nothing but
the hashes inside its ~300-byte chunk tasks.  Per-request transfer totals
land in :attr:`FleetServer.request_log` — the numbers the cold/warm tests
and the ``artifact_cache_hit`` benchmark assert on.

Failure semantics are bounded, never hanging: a worker that dies
mid-request has its in-flight chunk requeued to the survivors; when no
workers remain — or the request's deadline passes — the request fails with
a :class:`FleetRequestError` naming the situation.

This module is numpy-free.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .cache import artifact_store
from .protocol import (
    ConnectionClosed,
    format_address,
    parse_address,
    recv_frame,
    send_frame,
)

__all__ = ["FleetRequestError", "FleetServer", "FLEET_SCHEDULING_ENV"]

#: Chunk-assignment policy override: ``weighted`` (default) or ``fifo``.
FLEET_SCHEDULING_ENV = "REPRO_FLEET_SCHEDULING"

#: EWMA weight of a link's newest rows/second sample (recent chunks
#: dominate — throughput shifts with competing load, not just hardware).
_RATE_DECAY = 0.5

#: A link must be this much faster than another before the scheduler
#: treats them as different classes; within the band they behave FIFO,
#: so homogeneous fleets never abstain or duplicate on timing noise.
_RATE_MARGIN = 1.2

#: A chunk owner this much slower than an idle link is a straggler worth
#: duplicating immediately once the queue is empty.
_STRAGGLER_MARGIN = 1.5


class FleetRequestError(RuntimeError):
    """A fleet request could not complete (disconnects, timeout, remote error)."""


class _WorkerLink:
    """One connected worker: its socket, identity, and per-link send state."""

    def __init__(self, sock: socket.socket, hello: dict):
        self.sock = sock
        self.host = str(hello.get("host", "?"))
        self.pid = int(hello.get("pid", -1))
        self.sent_digests: set = set()
        self.request_id: Optional[int] = None
        self.lock = threading.Lock()
        #: EWMA rows/second over returned chunks; ``None`` until the first
        #: chunk lands (an unmeasured link is scheduled like the fastest —
        #: it must claim work to get measured at all).
        self.rate: Optional[float] = None
        self.rows_done = 0
        self.seconds_busy = 0.0

    def note_result(self, rows: int, seconds: float) -> None:
        sample = max(1, rows) / max(seconds, 1e-9)
        self.rate = sample if self.rate is None else (
            _RATE_DECAY * sample + (1.0 - _RATE_DECAY) * self.rate
        )
        self.rows_done += max(1, rows)
        self.seconds_busy += max(seconds, 0.0)

    @property
    def name(self) -> str:
        return f"{self.host}/pid {self.pid}"


def _task_rows(task: Any) -> int:
    """A chunk's workload weight: its realization count when discoverable.

    Engine chunk tasks carry their stream run last (``(start, trial,
    streams)``), and both materialized generator lists and ``StreamSlice``
    recipes are sized; anything else weighs 1 — with uniform weights the
    proportional scheduler degrades to chunk counting, which is exactly
    right when chunks are planned equal-size.
    """
    try:
        return max(1, len(task[-1]))
    except (TypeError, IndexError, KeyError):
        return 1


class _Request:
    """One ``map`` call: tasks, result slots, transfer stats, deadline."""

    def __init__(
        self,
        request_id: int,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        required: Tuple[str, ...],
        deadline: Optional[float],
        condition: threading.Condition,
    ):
        self.id = request_id
        self.fn = fn
        self.tasks = list(tasks)
        self.required = tuple(required)
        self.deadline = deadline
        self._condition = condition
        self.pending: deque = deque(range(len(self.tasks)))
        self.results: List[Any] = [None] * len(self.tasks)
        self.done: List[bool] = [False] * len(self.tasks)
        self.rows: List[int] = [_task_rows(task) for task in self.tasks]
        self.pending_rows = sum(self.rows)
        #: index -> [(link, started_at)] of live in-flight assignments;
        #: entries are pruned when their link returns or disconnects, so
        #: the duplicate scheduler sees only real outstanding work.
        self.assigned: Dict[int, List[Tuple[Any, float]]] = {}
        self.completed = 0
        self.error: Optional[BaseException] = None
        self.stats: Dict[str, int] = {
            "tasks": len(self.tasks),
            "task_bytes": 0,
            "fn_bytes": 0,
            "artifacts_sent": 0,
            "artifact_bytes": 0,
            "requeues": 0,
            "duplicates": 0,
        }

    @property
    def finished(self) -> bool:
        return self.error is not None or self.completed == len(self.tasks)

    # Called with the server condition held. ---------------------------------
    def post(self, index: int, result: Any) -> None:
        if not self.done[index]:
            self.results[index] = result
            self.done[index] = True
            self.completed += 1

    def fail(self, error: BaseException) -> None:
        if self.error is None:
            self.error = error

    def requeue(self, index: int) -> None:
        if not self.done[index]:
            self.pending.appendleft(index)
            self.pending_rows += self.rows[index]
            self.stats["requeues"] += 1

    def release_assignment(self, index: int, link: Any) -> List[Tuple[Any, float]]:
        """Drop ``link``'s in-flight entry for ``index``; return survivors."""
        entries = [e for e in self.assigned.get(index, ()) if e[0] is not link]
        if entries:
            self.assigned[index] = entries
        else:
            self.assigned.pop(index, None)
        return entries


class FleetServer:
    """Socket coordinator: accepts workers, schedules FIFO requests.

    ``scheduling`` picks the within-request chunk-assignment policy:
    ``"weighted"`` (the default; throughput-proportional claiming with
    tail-chunk re-dispatch) or ``"fifo"`` (every idle link claims the
    queue head unconditionally).  ``REPRO_FLEET_SCHEDULING`` sets the
    default; the attribute stays mutable for benchmarks comparing both
    policies over one fleet.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, scheduling: Optional[str] = None):
        if scheduling is None:
            scheduling = os.environ.get(FLEET_SCHEDULING_ENV, "").strip().lower() or "weighted"
        if scheduling not in ("weighted", "fifo"):
            raise ValueError(
                f"unknown fleet scheduling {scheduling!r} "
                f"({FLEET_SCHEDULING_ENV}); expected 'weighted' or 'fifo'"
            )
        self.scheduling = scheduling
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        # Poll instead of blocking forever: a thread stuck in accept() is
        # not woken by close(), and once the fd number is recycled a stale
        # accept retry can steal connections meant for a newer coordinator.
        self._listener.settimeout(0.25)
        self._host = host
        self._port = int(self._listener.getsockname()[1])
        self._condition = threading.Condition()
        self._links: List[_WorkerLink] = []
        self._queue: deque = deque()
        self._next_request_id = 1
        self._closed = False
        #: Transfer stats of every finished request, in completion order.
        self.request_log: List[dict] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="fleet-accept", daemon=True
        )
        self._accept_thread.start()

    # ------------------------------------------------------------------ #
    # public surface
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> str:
        """The bound ``HOST:PORT`` workers should ``--connect`` to."""
        return format_address(self._host, self._port)

    @property
    def worker_count(self) -> int:
        with self._condition:
            return len(self._links)

    def worker_names(self) -> List[str]:
        with self._condition:
            return [link.name for link in self._links]

    def worker_rates(self) -> Dict[str, Optional[float]]:
        """Per-link measured throughput (rows/second EWMA; ``None`` = unmeasured)."""
        with self._condition:
            return {link.name: link.rate for link in self._links}

    def wait_for_workers(self, count: int, timeout: float = 60.0) -> None:
        """Block until ``count`` workers are connected (or raise)."""
        deadline = time.monotonic() + timeout
        with self._condition:
            while len(self._links) < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise FleetRequestError(
                        f"waited {timeout:.0f}s for {count} fleet worker(s) at "
                        f"{self.address}; only {len(self._links)} connected — start "
                        f"workers with: spnn-repro worker --connect {self.address}"
                    )
                self._condition.wait(min(remaining, 0.2))

    def enqueue(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        required: Tuple[str, ...] = (),
        timeout: Optional[float] = None,
    ) -> "_Request":
        """Append one request to the FIFO queue; results stream via ``iter_results``."""
        with self._condition:
            if self._closed:
                raise FleetRequestError("the fleet coordinator is closed")
            request = _Request(
                self._next_request_id,
                fn,
                tasks,
                required,
                time.monotonic() + timeout if timeout is not None else None,
                self._condition,
            )
            self._next_request_id += 1
            self._queue.append(request)
            self._condition.notify_all()
        return request

    def iter_results(self, request: "_Request") -> Iterator[Any]:
        """Yield ``request``'s results in task order as they complete.

        Raises :class:`FleetRequestError` on worker-side failure, total
        disconnection, or deadline expiry — never hangs.
        """
        for index in range(len(request.tasks)):
            with self._condition:
                while not request.done[index]:
                    if request.error is not None:
                        self._retire(request)
                        raise FleetRequestError(str(request.error)) from request.error
                    if request.deadline is not None and time.monotonic() > request.deadline:
                        request.fail(
                            FleetRequestError(
                                f"fleet request {request.id} timed out with "
                                f"{request.completed}/{len(request.tasks)} chunks done "
                                f"and {len(self._links)} worker(s) connected"
                            )
                        )
                        continue
                    if not self._links and request.pending:
                        # No workers and work outstanding: fail fast rather
                        # than sleeping until the deadline.
                        request.fail(
                            FleetRequestError(
                                f"fleet request {request.id} has no connected workers "
                                f"({request.completed}/{len(request.tasks)} chunks done) "
                                f"— start workers with: spnn-repro worker --connect "
                                f"{self.address}"
                            )
                        )
                        continue
                    self._condition.wait(0.05)
            yield request.results[index]
        with self._condition:
            self._retire(request)

    def close(self) -> None:
        """Shut the coordinator down: close the listener and every link."""
        with self._condition:
            if self._closed:
                return
            self._closed = True
            links = list(self._links)
            self._condition.notify_all()
        for link in links:
            try:
                link.sock.close()
            except OSError:  # pragma: no cover
                pass
        # The accept thread owns the listener fd (see _accept_loop); wait
        # for it to observe the closed flag — at most one poll interval —
        # so the port is really released when close() returns.
        self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "FleetServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _retire(self, request: "_Request") -> None:
        # Condition held.  Log once, drop from the queue.
        if request in self._queue:
            self._queue.remove(request)
            entry = dict(request.stats)
            entry["id"] = request.id
            entry["error"] = str(request.error) if request.error is not None else None
            self.request_log.append(entry)

    def _accept_loop(self) -> None:
        # This thread is the listener fd's sole owner after construction —
        # closing an fd another thread is blocked accepting on does not
        # wake it on Linux, and a stale accept retry on a recycled fd
        # number would steal connections meant for a newer coordinator.
        # So the loop polls (0.25s listener timeout), exits on the closed
        # flag, and closes the listener itself on the way out.
        while True:
            sock = None
            try:
                sock, _ = self._listener.accept()
            except TimeoutError:
                pass
            except OSError:  # pragma: no cover - listener failed
                break
            with self._condition:
                closed = self._closed
            if closed:
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:  # pragma: no cover
                        pass
                break
            if sock is not None:
                # Handshake off-thread: one worker slow to say hello must
                # not block the other dialing workers behind it.
                threading.Thread(
                    target=self._handshake,
                    args=(sock,),
                    name="fleet-handshake",
                    daemon=True,
                ).start()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def _handshake(self, sock: socket.socket) -> None:
        """Read one connection's hello; register the link and serve it."""
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(30.0)
            hello = recv_frame(sock)
            sock.settimeout(None)
            if not isinstance(hello, dict) or hello.get("role") != "worker":
                sock.close()
                return
        except (ConnectionClosed, OSError):
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
            return
        link = _WorkerLink(sock, hello)
        with self._condition:
            if self._closed:
                sock.close()
                return
            self._links.append(link)
            self._condition.notify_all()
        threading.current_thread().name = f"fleet-link-{link.pid}"
        self._serve_link(link)

    def _active_request(self) -> Optional["_Request"]:
        # Condition held.  The FIFO head stays active until it finishes.
        while self._queue and self._queue[0].finished:
            self._retire(self._queue[0])
        return self._queue[0] if self._queue else None

    def _claim(self, link: _WorkerLink) -> Optional[Tuple["_Request", int]]:
        """Block until a chunk of the active request is available (or shutdown)."""
        with self._condition:
            while True:
                if self._closed or link not in self._links:
                    return None
                request = self._active_request()
                if request is not None:
                    index = self._next_index(request, link)
                    if index is not None:
                        request.assigned.setdefault(index, []).append(
                            (link, time.monotonic())
                        )
                        return request, index
                self._condition.wait(0.1)

    def _next_index(self, request: "_Request", link: _WorkerLink) -> Optional[int]:
        # Condition held.  FIFO: claim the head unconditionally.  Weighted:
        # a measurably slower link abstains while faster links would drain
        # the remaining queue sooner than it could finish the head chunk;
        # with the queue empty, an idle link may duplicate a straggler's
        # in-flight tail chunk instead of going idle.
        if request.pending:
            if self.scheduling != "weighted" or self._worth_claiming(request, link):
                index = request.pending.popleft()
                request.pending_rows -= request.rows[index]
                return index
            return None
        if self.scheduling == "weighted":
            return self._duplicate_index(request, link)
        return None

    def _worth_claiming(self, request: "_Request", link: _WorkerLink) -> bool:
        # Condition held.  An unmeasured link always claims (that is how it
        # gets measured), and so does any link no other is clearly faster
        # than — the fastest class never abstains, so the queue always
        # drains.  Otherwise compare finishing the head chunk here against
        # the faster links draining the whole remaining queue.
        if link.rate is None:
            return True
        faster = [
            other.rate
            for other in self._links
            if other is not link
            and other.rate is not None
            and other.rate > link.rate * _RATE_MARGIN
        ]
        if not faster:
            return True
        head_seconds = request.rows[request.pending[0]] / link.rate
        drain_seconds = request.pending_rows / sum(faster)
        return head_seconds <= drain_seconds

    def _duplicate_index(self, request: "_Request", link: _WorkerLink) -> Optional[int]:
        # Condition held.  Tail re-dispatch: the queue is empty but chunks
        # are still in flight.  Give this idle link the lowest unfinished
        # chunk whose sole owner is either a measured straggler or has held
        # the chunk well past this link's own expected time — first result
        # wins, the loser's post lands on a completed slot and is ignored.
        if link.rate is None:
            return None
        now = time.monotonic()
        for index, entries in sorted(request.assigned.items()):
            if request.done[index] or len(entries) != 1:
                continue
            owner, started = entries[0]
            if owner is link:
                continue
            expected = request.rows[index] / link.rate
            straggling = (
                owner.rate is not None and owner.rate * _STRAGGLER_MARGIN < link.rate
            )
            overdue = (now - started) > max(2.0 * expected, 0.05)
            if straggling or overdue:
                request.stats["duplicates"] += 1
                return index
        return None

    def _serve_link(self, link: _WorkerLink) -> None:
        """One worker's send/recv loop: artifacts + fn once, then chunks."""
        store = artifact_store()
        while True:
            claimed = self._claim(link)
            if claimed is None:
                return
            request, index = claimed
            try:
                if link.request_id != request.id:
                    request.stats["fn_bytes"] += send_frame(
                        link.sock,
                        {"type": "request", "id": request.id, "fn": request.fn,
                         "required": request.required},
                    )
                    link.request_id = request.id
                for digest in request.required:
                    if digest not in link.sent_digests:
                        request.stats["artifact_bytes"] += send_frame(
                            link.sock,
                            {"type": "artifact", "digest": digest,
                             "payload": store.get(digest)},
                        )
                        request.stats["artifacts_sent"] += 1
                        link.sent_digests.add(digest)
                started = time.monotonic()
                reply = self._send_task(link, request, index)
                elapsed = time.monotonic() - started
                with self._condition:
                    request.release_assignment(index, link)
                    if reply.get("type") == "result":
                        # Prefer the worker's own evaluation time (no queue
                        # or transfer latency) for the throughput EWMA; the
                        # coordinator-side wall clock is the fallback for
                        # older workers that don't stamp it.
                        seconds = reply.get("seconds")
                        link.note_result(
                            request.rows[index],
                            float(seconds) if seconds is not None else elapsed,
                        )
                        request.post(index, reply["payload"])
                    elif not request.done[index]:
                        request.fail(
                            FleetRequestError(
                                f"worker {link.name} failed chunk {index}: "
                                f"{reply.get('message', 'unknown error')}"
                            )
                        )
                    self._condition.notify_all()
            except (ConnectionClosed, OSError) as error:
                self._drop_link(link, request, index, error)
                return

    def _send_task(self, link: _WorkerLink, request: "_Request", index: int) -> dict:
        request.stats["task_bytes"] += send_frame(
            link.sock,
            {"type": "task", "id": request.id, "index": index,
             "payload": request.tasks[index]},
        )
        while True:
            reply = recv_frame(link.sock)
            kind = reply.get("type")
            if kind == "need":
                # The worker's LRU evicted blobs this link already sent:
                # forget our bookkeeping for them and resend with the task.
                store = artifact_store()
                for digest in reply.get("digests", ()):
                    request.stats["artifact_bytes"] += send_frame(
                        link.sock,
                        {"type": "artifact", "digest": digest,
                         "payload": store.get(digest)},
                    )
                    request.stats["artifacts_sent"] += 1
                    link.sent_digests.add(digest)
                request.stats["task_bytes"] += send_frame(
                    link.sock,
                    {"type": "task", "id": request.id, "index": index,
                     "payload": request.tasks[index]},
                )
                continue
            return reply

    def _drop_link(
        self,
        link: _WorkerLink,
        request: Optional["_Request"],
        index: Optional[int],
        error: BaseException,
    ) -> None:
        with self._condition:
            if link in self._links:
                self._links.remove(link)
            if request is not None and index is not None and not request.done[index]:
                survivors = request.release_assignment(index, link)
                if survivors:
                    # A duplicate of this chunk is still in flight on a
                    # live link; nothing to requeue.
                    pass
                elif self._links:
                    request.requeue(index)
                else:
                    request.fail(
                        FleetRequestError(
                            f"worker {link.name} disconnected mid-request "
                            f"({type(error).__name__}) and no workers remain "
                            f"connected; chunk {index} of request {request.id} "
                            f"is unrecoverable"
                        )
                    )
            self._condition.notify_all()
        try:
            link.sock.close()
        except OSError:  # pragma: no cover
            pass
