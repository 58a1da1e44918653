"""Distributed sweep fleet: network backend, persistent workers, artifact cache.

The package splits along the wire:

``protocol``
    Length-prefixed pickle frames over stdlib sockets.
``cache``
    The content-addressed :class:`ArtifactStore` plus the spec-hash refs
    (:class:`ArrayRef`, :class:`NetworkRef`, :class:`TrialRef`) that stand
    in for heavy payloads on the wire.
``server``
    The :class:`FleetServer` coordinator: accepts worker links, runs the
    FIFO request queue, pushes artifacts at most once per link.
``worker``
    The persistent worker loop behind ``spnn-repro worker --connect``.
``backend``
    :class:`FleetBackend`, the ``Backend``-protocol face the analysis
    layer sees, and the :func:`local_fleet` localhost harness.

Everything here is numpy-free: the fleet moves payloads, it never
computes on them.
"""

from .backend import FLEET_ADDRESS_ENV, FleetBackend, default_fleet_address, local_fleet
from .cache import (
    ArrayRef,
    ArtifactRef,
    ArtifactStore,
    NetworkRef,
    TaskRehydrator,
    TrialRef,
    array_digest,
    artifact_store,
    iter_refs,
    network_digest,
    publish_array,
    publish_network,
    publish_trial,
    rehydrate_task,
)
from .protocol import (
    ConnectionClosed,
    FleetProtocolError,
    format_address,
    parse_address,
    recv_frame,
    send_frame,
)
from .server import FleetRequestError, FleetServer
from .worker import connect_worker, run_worker

__all__ = [
    "FLEET_ADDRESS_ENV",
    "ArrayRef",
    "ArtifactRef",
    "ArtifactStore",
    "ConnectionClosed",
    "FleetBackend",
    "FleetProtocolError",
    "FleetRequestError",
    "FleetServer",
    "NetworkRef",
    "TaskRehydrator",
    "TrialRef",
    "array_digest",
    "artifact_store",
    "connect_worker",
    "default_fleet_address",
    "format_address",
    "iter_refs",
    "local_fleet",
    "network_digest",
    "parse_address",
    "publish_array",
    "publish_network",
    "publish_trial",
    "recv_frame",
    "rehydrate_task",
    "run_worker",
    "send_frame",
]
