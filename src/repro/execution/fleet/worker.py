"""The persistent fleet worker: ``spnn-repro worker --connect HOST:PORT``.

A worker dials the coordinator (retrying while the coordinator is still
starting), announces itself with a hello frame carrying its
``platform.node()`` host and pid — the identity that later stamps its
:class:`~repro.observability.frames.ChunkFrame` telemetry — and then
serves frames until the coordinator hangs up:

``artifact``
    Store a content-addressed blob in the process
    :class:`~repro.execution.fleet.cache.ArtifactStore`.  Blobs arrive at
    most once per connection (the coordinator tracks what it sent); on a
    repeat request over the same spec nothing arrives at all.
``request``
    Install the request's evaluator.  The evaluator is wrapped with a
    :class:`~repro.execution.fleet.cache.TaskRehydrator` *inside* any
    :class:`~repro.observability.frames.InstrumentedChunkEvaluator`, so
    traced chunks report the wire payload bytes, and rehydration (trial
    lookup, network rebuild) happens worker-side from the store.
``task``
    Evaluate one chunk and reply with ``result`` (or ``error`` carrying
    the traceback, or ``need`` naming store-evicted digests so the
    coordinator resends them).

Evaluation itself is the plain inline call every other backend makes; the
determinism contract is untouched because the task payloads are the same
self-contained chunk tuples, rebuilt bit-identically from their
``StreamSlice`` recipes.

This module is numpy-free — the numerics arrive via the pickled
evaluator.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import socket
import time
import traceback
from typing import Any, Callable, Optional

from .cache import TaskRehydrator, artifact_store
from .protocol import ConnectionClosed, parse_address, recv_frame, send_frame

__all__ = ["connect_worker", "run_worker"]


def _with_rehydration(fn: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """Wrap ``fn`` so refs resolve before evaluation, inside instrumentation."""
    from ...observability.frames import InstrumentedChunkEvaluator

    if isinstance(fn, InstrumentedChunkEvaluator):
        return dataclasses.replace(fn, evaluator=TaskRehydrator(fn.evaluator))
    return TaskRehydrator(fn)


def connect_worker(
    address: str, connect_timeout: float = 30.0, retry_interval: float = 0.2
) -> socket.socket:
    """Dial the coordinator, retrying until it is up (bounded by the timeout).

    Retrying matters operationally: fleets are usually launched as
    "start N workers, then start the study", so workers often race the
    coordinator's bind.
    """
    host, port = parse_address(address)
    deadline = time.monotonic() + connect_timeout
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=connect_timeout)
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError:
            if time.monotonic() >= deadline:
                raise ConnectionError(
                    f"could not reach a fleet coordinator at {address} within "
                    f"{connect_timeout:.0f}s — is one listening? (a FleetBackend "
                    f"binds it; check the address passed to --connect)"
                )
            time.sleep(retry_interval)


def run_worker(
    address: str,
    connect_timeout: float = 30.0,
    max_requests: Optional[int] = None,
) -> int:
    """Serve chunks for the coordinator at ``address`` until it disconnects.

    Returns the number of chunks evaluated (useful for tests and for the
    CLI's exit message).  ``max_requests`` bounds how many distinct
    requests the worker serves before exiting voluntarily — tests use it;
    production workers run unbounded.
    """
    store = artifact_store()
    sock = connect_worker(address, connect_timeout=connect_timeout)
    send_frame(
        sock,
        {"type": "hello", "role": "worker", "host": platform.node() or "localhost",
         "pid": os.getpid()},
    )
    evaluator: Optional[Callable[[Any], Any]] = None
    required: tuple = ()
    chunks = 0
    requests = 0
    try:
        while True:
            try:
                message = recv_frame(sock)
            except (ConnectionClosed, OSError):
                break  # coordinator gone: a persistent worker just exits
            kind = message.get("type")
            if kind == "artifact":
                payload = message["payload"]
                store.put(
                    message["digest"], payload, nbytes=int(getattr(payload, "nbytes", 0))
                )
            elif kind == "request":
                evaluator = _with_rehydration(message["fn"])
                required = tuple(message.get("required", ()))
                requests += 1
            elif kind == "task":
                index = int(message["index"])
                missing = store.missing(required)
                if missing:
                    send_frame(sock, {"type": "need", "index": index, "digests": missing})
                    continue
                started = time.perf_counter()
                try:
                    result = evaluator(message["payload"])
                except BaseException as error:  # ship the failure, keep serving
                    send_frame(
                        sock,
                        {"type": "error", "index": index,
                         "message": f"{type(error).__name__}: {error}",
                         "traceback": traceback.format_exc()},
                    )
                    continue
                # The evaluation wall time rides the result frame so the
                # coordinator's throughput EWMA (weighted scheduling)
                # measures compute, not queueing or transfer.
                send_frame(
                    sock,
                    {"type": "result", "index": index, "payload": result,
                     "seconds": time.perf_counter() - started},
                )
                chunks += 1
                if max_requests is not None and requests >= max_requests:
                    break
            elif kind == "shutdown":
                break
            elif kind == "ping":
                send_frame(sock, {"type": "pong", "pid": os.getpid()})
    finally:
        try:
            sock.close()
        except OSError:  # pragma: no cover
            pass
    return chunks
