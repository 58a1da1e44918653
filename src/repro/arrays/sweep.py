"""Column-sweep kernel registry: packed programs and fused mesh megakernels.

The mesh column sweep is the innermost hot loop of every Monte Carlo
trial, yield sweep, drift timeline, and noise-aware training step: apply
``~n`` columns of 2x2 MZI blocks to a (batch of) ``n x n`` matrices.  The
reference implementation (:func:`repro.arrays.kernels.apply_mzi_blocks`)
is a Python loop over columns, each iteration doing two fancy-indexed
gathers and two scatters that allocate fresh temporaries.

This module makes the sweep pluggable:

* :class:`ColumnProgram` — the per-mesh structure "compiled" once into
  packed flat index arrays (column-sorted top/bottom row indices plus
  column boundary offsets), replacing the per-call list-of-triples
  ``groups`` structure.  Programs are built once per mesh.
* :class:`SweepKernel` implementations behind a small registry:

  - ``looped`` — the reference sweep (bit-exact legacy arithmetic).
  - ``fused``  — hand-fused out-buffer sweep: three elementwise out-ops
    per column through preallocated capacity-tracked scratch buffers
    (zero per-column allocation, exact same float op sequence as
    ``looped``), cache-blocked over the batch axis.
  - ``numba``  — optional prange-jitted kernel
    (:mod:`repro.arrays.numba_sweep`); available only when importable.

* :func:`apply_column_sweep` — the runtime dispatch used by
  :meth:`repro.mesh.mesh.MZIMesh.matrix_batch`: pick the best available
  kernel (or honor the ``REPRO_SWEEP_KERNEL`` environment override) and
  run it.

Every kernel must be *conformant*: bit-identical to ``looped`` (same
ufunc sequence).  The registry conformance suite in ``tests/arrays``
enforces this for every registered kernel.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..observability.dispatch import active_collector, active_feedback
from ..observability.recorder import perf_seconds

__all__ = [
    "ColumnProgram",
    "SweepKernel",
    "SweepShape",
    "LoopedSweepKernel",
    "FusedSweepKernel",
    "SWEEP_KERNEL_ENV",
    "register_sweep_kernel",
    "get_sweep_kernel",
    "sweep_kernel_names",
    "available_sweep_kernels",
    "select_sweep_kernel",
    "apply_column_sweep",
]

#: Environment override for kernel selection (exact registry name).
SWEEP_KERNEL_ENV = "REPRO_SWEEP_KERNEL"

#: The array-backend name dispatch records and cost tables carry.
BACKEND_NAME = "numpy"

#: Precomputed index tuples selecting a column block's top/bottom rows of
#: the ``(..., m, 2, n)`` pair view (keepdims so components broadcast).
_TOP = (Ellipsis, slice(0, 1), slice(None))
_BOTTOM = (Ellipsis, slice(1, 2), slice(None))

#: Matrix elements per cache block of the fused sweep: one block of
#: stacked matrices (~256 KiB complex128) stays L2-resident across *all*
#: columns, so the batch streams through memory once per sweep instead of
#: once per column.
_HOST_BLOCK_ELEMENTS = 16384


@dataclass(frozen=True)
class ColumnProgram:
    """Packed flat-index form of a mesh's column-sweep structure.

    Built once per mesh and cached by it — no index rebuilding on the
    per-call hot path.  All index arrays are in
    *column-sorted propagation order* (the mesh's stable column
    permutation), so per-column work is a contiguous slice.

    Attributes
    ----------
    n:
        Matrix dimension (number of modes).
    perm:
        ``(M,)`` column-sorted propagation permutation over devices; the
        caller gathers each block-component array by it once per sweep.
    top, bottom:
        ``(M,)`` matrix row indices of each device's upper/lower mode, in
        column-sorted order.
    rows:
        ``(2M,)`` packed gather/scatter row map: for each column ``c``
        spanning ``[s, e)`` the block ``rows[2s:2e]`` interleaves the
        column's mode pairs — ``t0, b0, t1, b1, ...`` — one fancy gather
        and one fancy scatter per column instead of two of each.
    starts:
        ``(C + 1,)`` column boundary offsets into ``perm``/``top``/
        ``bottom``.
    spans:
        ``starts`` as plain ``(start, stop)`` int pairs — a tuple so the
        per-column loop never converts array scalars.
    bases:
        One entry per column: the first matrix row of the column's
        contiguous row block when its interleaved rows are exactly
        ``base, base + 1, ..., base + 2m - 1`` (every Clements column;
        most Reck columns), else ``None``.  Conforming columns skip the
        gather/scatter entirely — the fused kernel updates a reshaped
        *view* of the matrices and writes back with one contiguous copy.
    cache:
        Kernel-private per-program scratch (contiguous index copies,
        compiled launch parameters, ...), keyed by kernel name.
    """

    n: int
    perm: np.ndarray
    top: np.ndarray
    bottom: np.ndarray
    rows: np.ndarray
    starts: np.ndarray
    spans: Tuple[Tuple[int, int], ...]
    bases: Tuple[Optional[int], ...]
    cache: Dict[object, object] = field(default_factory=dict, repr=False, compare=False)

    @property
    def num_devices(self) -> int:
        return self.spans[-1][1] if self.spans else 0

    @property
    def num_columns(self) -> int:
        return len(self.spans)

    @property
    def max_column_devices(self) -> int:
        """Widest column (devices), sizing the fused scratch buffers."""
        return max((stop - start for start, stop in self.spans), default=0)


class SweepShape(NamedTuple):
    """Shape hint for kernel selection: one sweep call's problem size.

    Callers that know their shape (``MZIMesh.matrix_batch`` knows ``n``,
    the realization batch, the column count and the mesh scheme) pass
    this to :func:`select_sweep_kernel` so the autotuned cost model
    (:mod:`repro.tuning`) can pick the cheapest kernel for *this* shape
    instead of the static preference order.  ``scheme`` is optional —
    it only narrows which calibration points the model interpolates.
    """

    n: int
    batch: int
    columns: int
    scheme: Optional[str] = None


class SweepKernel:
    """One strategy for executing a packed column sweep.

    Subclasses implement :meth:`run`; ``matrices`` is ``(..., n, n)``,
    ``components`` the four ``(..., M)`` block component arrays *already
    gathered into column-sorted order* (by ``program.perm``), and
    ``program`` the mesh's :class:`ColumnProgram`.  The sweep updates
    ``matrices`` in place and must be bit-identical to the ``looped``
    reference.
    """

    #: Registry name (also the ``REPRO_SWEEP_KERNEL`` override value).
    name: str = ""

    #: Whether the kernel manages its own lead-axis blocking.  Callers
    #: (``MZIMesh.matrix_batch``) hand such kernels the *whole* batch in
    #: one call instead of chunking externally for cache residency.
    blocks_internally: bool = False

    #: Memoized ``(available, reason)`` probe result; availability cannot
    #: change mid-process (deps don't materialize after import), so the
    #: probe — which may import numba — runs at most once per kernel
    #: instance.
    _availability: Optional[Tuple[bool, Optional[str]]] = None

    def _probe(self) -> Tuple[bool, Optional[str]]:
        """One-shot availability probe: ``(available, unavailable_reason)``.

        Subclasses with real dependencies override *this* (not
        :meth:`available`) so the memoization in :meth:`availability`
        covers every probe path uniformly.
        """
        return True, None

    def availability(self) -> Tuple[bool, Optional[str]]:
        """Cached ``(available, reason)`` — the probe runs at most once."""
        if self._availability is None:
            ok, reason = self._probe()
            self._availability = (ok, reason if not ok else None)
        return self._availability

    def refresh_availability(self) -> None:
        """Drop the memoized probe (tests simulating changed environments)."""
        self._availability = None

    def available(self) -> bool:
        """Whether the kernel can run in this process (deps importable)."""
        return self.availability()[0]

    def unavailable_reason(self) -> Optional[str]:
        """Why :meth:`available` is ``False``, or ``None`` when it is not.

        Diagnostics (``spnn-repro info``) surface this so a user can tell
        a missing dependency from a broken one without reading source.
        """
        return self.availability()[1]

    def run(self, matrices, components, program: ColumnProgram) -> None:
        raise NotImplementedError

    def __call__(self, matrices, components, program: ColumnProgram) -> None:
        self.run(matrices, components, program)

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return f"{type(self).__name__}(name={self.name!r})"


class LoopedSweepKernel(SweepKernel):
    """The legacy reference sweep: per-column gathers with fresh temporaries.

    Delegates to :func:`repro.arrays.kernels.apply_mzi_blocks` — the
    byte-for-byte historical arithmetic every other kernel is measured
    against, and the denominator of the ``mesh_megakernel`` benchmark.
    """

    name = "looped"

    def run(self, matrices, components, program: ColumnProgram) -> None:
        from .kernels import apply_mzi_blocks

        apply_mzi_blocks(matrices, components, program)


class FusedSweepKernel(SweepKernel):
    """Hand-fused out-buffer sweep: zero per-column allocation.

    Per column the reference does two fancy gathers, four multiplies, two
    adds and two scatters, every one allocating a fresh temporary.  This
    kernel collapses that to (at most) four ufunc calls per column:

    * The four block components are packed once per sweep into two
      ``(..., M, 2)`` stacks — ``CA = [b00 | b10]``, ``CB = [b01 | b11]``
      — so one broadcast multiply produces *both* row updates of every
      device: ``new = CA * top + CB * bottom`` evaluated as two
      multiplies and one add into preallocated contiguous scratch.
    * Columns whose interleaved mode rows form a contiguous block
      (``program.bases``; every Clements column) need no gather at all:
      the update reads a reshaped ``(..., m, 2, n)`` *view* of the
      matrices and writes back with a single block copy.  Non-conforming
      columns (some Reck diagonals) gather/scatter through the packed
      ``rows`` map with one ``take`` and one fancy assignment.

    The kernel additionally blocks the leading batch axis so one block's
    matrices (and scratch) stay cache-resident across *all* columns of the
    sweep — the whole batch streams through memory once instead of once
    per column.  Batch rows are independent and the
    per-row arithmetic is unchanged, so blocking never changes a value;
    at Monte Carlo scale (thousands of stacked realizations) it is where
    most of the megakernel speedup comes from.

    The per-element float op sequence — a component multiply per matrix
    element and one add — is exactly the reference's (broadcast multiply
    is elementwise; no reductions anywhere), so results are bit-identical
    (ufunc-with-``out`` equals ufunc-then-copy).  Scratch lives per
    ``(role, dtype)`` in the kernel instance, capacity-tracked like the
    workspace arena; processes never share buffers, and the sweep never
    reads a scratch cell it did not just write.
    """

    name = "fused"
    blocks_internally = True

    def __init__(self) -> None:
        self._scratch: Dict[tuple, object] = {}
        # Per-(program, shape, dtype) column plans.  Keyed by
        # id(program) with a weakref guard against id reuse; kept on the
        # kernel instance (not in ``program.cache``) so pickling a mesh to
        # worker processes never ships megabytes of scratch views.
        self._plans: Dict[int, tuple] = {}

    def _buffer(self, role: str, shape, dtype):
        """Capacity-tracked scratch view of ``shape`` for ``role``."""
        size = 1
        for extent in shape:
            size *= int(extent)
        key = (role, str(dtype))
        flat = self._scratch.get(key)
        if flat is None or flat.shape[0] < size:
            flat = np.empty((size,), dtype)
            self._scratch[key] = flat
        return flat[:size].reshape(shape)

    def _plan(self, program: ColumnProgram, lead, comp_lead, dtype):
        """The per-column execution plan for one (program, shape) pairing.

        Each entry packs everything the hot loop needs per column as
        precomputed index tuples and preallocated scratch views: only the
        matrix-block view itself must be rebuilt per call (the matrices
        array changes identity between calls).  Scratch views are written
        before they are read within every sweep, so plans stay correct
        even if a later, larger sweep reallocates a backing.
        """
        entry = self._plans.get(id(program))
        if entry is not None:
            ref, plans = entry
            if ref() is not program:
                entry = None
        if entry is None:
            plans = {}
            self._plans[id(program)] = (weakref.ref(program), plans)
        key = (lead, comp_lead, str(dtype))
        plan = plans.get(key)
        if plan is not None:
            return plan
        n = program.n
        rows = program.rows
        # Warm the shared backings to the widest column up front; the
        # per-column views below then never reallocate.  Columns reuse
        # one backing per role (each view is fully written before it is
        # read within its own column).
        width = program.max_column_devices
        self._buffer("updated", lead + (width, 2, n), dtype)
        self._buffer("scratch", lead + (width, 2, n), dtype)
        if any(base is None for base in program.bases):
            self._buffer("gathered", lead + (width, 2, n), dtype)
        plan = []
        for (start, stop), base in zip(program.spans, program.bases):
            m = stop - start
            xshape = lead + (m, 2, n)
            ca_index = (Ellipsis, slice(start, stop), slice(None), None)
            new = self._buffer("updated", xshape, dtype)
            tmp = self._buffer("scratch", xshape, dtype)
            if base is None:
                block_rows = rows[2 * start : 2 * stop]
                block = self._buffer("gathered", lead + (2 * m, n), dtype)
                x = block.reshape(xshape)
                plan.append((None, None, ca_index, block_rows, block, x, new, tmp))
            else:
                plan.append(((base, base + 2 * m), xshape, ca_index, None, None, None, new, tmp))
        plan = tuple(plan)
        plans[key] = plan
        return plan

    def run(self, matrices, components, program: ColumnProgram) -> None:
        b00, b01, b10, b11 = components
        lead = tuple(matrices.shape[:-2])
        comp_lead = tuple(b00.shape[:-1])
        if program.num_devices == 0:
            return
        dtype = matrices.dtype
        # Component stacks: CA[..., i, 0] = b00[..., i], CA[..., i, 1] =
        # b10[..., i] (likewise CB with b01/b11), so the per-column views
        # below broadcast one multiply over both output rows of a device.
        ca = self._buffer("ca", comp_lead + (program.num_devices, 2), dtype)
        cb = self._buffer("cb", comp_lead + (program.num_devices, 2), dtype)
        ca[..., 0] = b00
        ca[..., 1] = b10
        cb[..., 0] = b01
        cb[..., 1] = b11
        block = self._lead_block(lead, comp_lead, program.n)
        if block is None:
            self._sweep(matrices, ca, cb, program, lead, comp_lead, dtype)
            return
        for start in range(0, lead[0], block):
            stop = min(start + block, lead[0])
            self._sweep(
                matrices[start:stop],
                ca[start:stop],
                cb[start:stop],
                program,
                (stop - start,),
                (stop - start,),
                dtype,
            )

    @staticmethod
    def _lead_block(lead, comp_lead, n: int):
        """Batch rows per cache block, or ``None`` to sweep in one pass.

        Only for the stacked ``(B, n, n)`` layout with fully batched
        components — broadcasting component stacks cannot be sliced along
        the batch axis.
        """
        if len(lead) != 1 or comp_lead != lead:
            return None
        block = max(1, _HOST_BLOCK_ELEMENTS // max(1, n * n))
        return block if lead[0] > block else None

    def _sweep(self, matrices, ca, cb, program, lead, comp_lead, dtype) -> None:
        multiply = np.multiply
        add = np.add
        for span, xshape, ca_index, block_rows, block, gx, new, tmp in self._plan(
            program, lead, comp_lead, dtype
        ):
            if span is not None:
                # Contiguous row block: read through a reshaped view and
                # write the final add straight back into the matrices —
                # the add reads only scratch, so no aliasing hazard.
                x = matrices[..., span[0] : span[1], :].reshape(xshape)
                multiply(ca[ca_index], x[_TOP], out=new)
                multiply(cb[ca_index], x[_BOTTOM], out=tmp)
                add(new, tmp, out=x)
            else:
                # Non-conforming column: gather the interleaved rows into
                # scratch, update in place there, scatter back once.
                # mode="clip" skips the temporary take-with-out buffers
                # through under mode="raise"; program indices are always
                # in bounds, so it never changes a value.
                np.take(matrices, block_rows, axis=-2, out=block, mode="clip")
                multiply(ca[ca_index], gx[_TOP], out=new)
                multiply(cb[ca_index], gx[_BOTTOM], out=tmp)
                add(new, tmp, out=gx)
                matrices[..., block_rows, :] = block


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #

_KERNELS: Dict[str, SweepKernel] = {}

#: Selection preference when no override is set, filtered by
#: ``available()``.
_DEFAULT_ORDER: Tuple[str, ...] = ("numba", "fused", "looped")


def register_sweep_kernel(kernel: SweepKernel) -> SweepKernel:
    """Add ``kernel`` to the registry (replacing any same-named entry)."""
    if not kernel.name:
        raise ConfigurationError("sweep kernels must carry a non-empty name")
    _KERNELS[kernel.name] = kernel
    return kernel


def get_sweep_kernel(name: str) -> SweepKernel:
    """Registered kernel by exact name."""
    try:
        return _KERNELS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown sweep kernel {name!r}; registered: {sweep_kernel_names()}"
        ) from None


def sweep_kernel_names() -> Tuple[str, ...]:
    """Names of every registered kernel (available or not)."""
    return tuple(_KERNELS)


def available_sweep_kernels() -> Tuple[str, ...]:
    """Names of the kernels that can run now."""
    return tuple(name for name, kernel in _KERNELS.items() if kernel.available())


def select_sweep_kernel(shape: Optional[SweepShape] = None) -> SweepKernel:
    """The kernel to run: env override or best available.

    ``REPRO_SWEEP_KERNEL`` names a registered kernel and fails loudly when
    it is unknown or unavailable (dependency missing) — a silent fallback
    would hide a misconfigured run.  Without the override, the first
    available kernel in the preference order ``numba > fused > looped``
    wins; ``fused`` is the default, ``looped`` the safety net.

    With a :class:`SweepShape` hint the autotuned cost model
    (:mod:`repro.tuning.policy`) may reorder *within* the available set
    — it picks the kernel its per-machine calibration predicts cheapest
    for this shape.  The hint never widens the candidate set (only
    available kernels compete), the env pin always wins over
    it, and ``REPRO_AUTOTUNE=off`` restores the static order exactly.
    Every candidate is conformant with the ``looped`` reference, so the
    choice affects time, never results.
    """
    override = os.environ.get(SWEEP_KERNEL_ENV)
    if override:
        kernel = get_sweep_kernel(override)
        if not kernel.available():
            raise ConfigurationError(
                f"sweep kernel {override!r} ({SWEEP_KERNEL_ENV}) is not available "
                f"in this environment; available: {available_sweep_kernels()}"
            )
        return kernel
    candidates = tuple(
        name for name in _DEFAULT_ORDER if name in _KERNELS and _KERNELS[name].available()
    )
    if shape is not None and len(candidates) > 1:
        from ..tuning.policy import choose_kernel_name

        chosen = choose_kernel_name(shape, candidates)
        if chosen is not None:
            return _KERNELS[chosen]
    return _KERNELS[candidates[0]]


def apply_column_sweep(
    matrices,
    components,
    program: ColumnProgram,
    kernel: Optional[object] = None,
) -> None:
    """Run the column sweep on ``matrices`` in place with the best kernel.

    ``components`` must already be gathered into column-sorted order (by
    ``program.perm``); the mesh does that once per call.  ``kernel`` optionally pins a registry
    name (or passes a :class:`SweepKernel` instance through), otherwise
    :func:`select_sweep_kernel` decides.

    When a dispatch collector is installed
    (:mod:`repro.observability.dispatch`), each call records
    ``(kernel, backend, n, batch, columns, seconds)`` — shapes and wall
    time only, never the array contents, so recording cannot perturb
    results.  The same timing feeds the autotune feedback sink when a
    cost table is active, refining its observed layer online.  With
    neither installed the instrumentation is two module-global reads per
    call.
    """
    batch = 1
    for extent in matrices.shape[:-2]:
        batch *= int(extent)
    if kernel is None:
        selected = select_sweep_kernel(SweepShape(program.n, batch, program.num_columns))
    elif isinstance(kernel, SweepKernel):
        selected = kernel
    else:
        selected = get_sweep_kernel(kernel)
    collector = active_collector()
    sink = active_feedback()
    if collector is None and sink is None:
        selected(matrices, components, program)
        return
    started = perf_seconds()
    selected(matrices, components, program)
    elapsed = perf_seconds() - started
    if collector is not None:
        collector.record(
            selected.name, BACKEND_NAME, program.n, batch, program.num_columns, elapsed
        )
    if sink is not None:
        sink(BACKEND_NAME, selected.name, program.n, batch, program.num_columns, elapsed)


register_sweep_kernel(LoopedSweepKernel())
register_sweep_kernel(FusedSweepKernel())


def _register_optional_kernels() -> None:
    """Register the numba kernel (an import-guarded wrapper).

    The wrapper module imports numba lazily and reports
    ``available() == False`` when it is missing, so merely registering it
    is always safe — selection skips unavailable kernels and the env
    override fails with a clear message.
    """
    from .numba_sweep import NumbaSweepKernel

    register_sweep_kernel(NumbaSweepKernel())
