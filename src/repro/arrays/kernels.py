"""Out-buffer kernels of the numerics hot paths.

These are the ufunc sequences the Monte Carlo engine, the SPNN forward
pass and the MZI transfer functions share.  The ``out=`` parameters follow
the library-wide workspace contract: an out buffer only changes *where*
the result lives, never its values, and callers fully overwrite any buffer
they receive.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "matmul_result_shape",
    "matmul_transposed",
    "softplus",
    "log_softmax",
    "unit_phasor",
    "mzi_block_components",
    "apply_mzi_blocks",
]


def matmul_result_shape(activations, matrix) -> Tuple[int, ...]:
    """Shape of ``activations @ swapaxes(matrix, -2, -1)`` under broadcasting."""
    return np.broadcast_shapes(
        tuple(activations.shape[:-1]), tuple(matrix.shape[:-2]) + (1,)
    ) + (int(matrix.shape[-2]),)


def matmul_transposed(activations, matrix, out=None):
    """``activations @ matrix.T`` with a real/complex split on the hot path.

    After the modulus-Softplus the activations are real while the hardware
    matrices stay complex; multiplying through a complex matmul would spend
    half its work on the zero imaginary part, so the real and imaginary
    products are computed separately.  ``matrix`` may carry a leading batch
    axis (stacked matmuls run the same per-slice kernel as the 2-D ones,
    keeping the looped and batched paths bit-identical).  ``out``
    optionally supplies the result buffer.
    """
    transposed = np.swapaxes(matrix, -2, -1)
    if np.iscomplexobj(activations):
        if out is None:
            return np.matmul(activations, transposed)
        return np.matmul(activations, transposed, out=out)
    if out is None:
        out = np.empty(matmul_result_shape(activations, matrix), dtype=np.complex128)
    out.real = np.matmul(activations, transposed.real)
    out.imag = np.matmul(activations, transposed.imag)
    return out


def softplus(x, beta: float = 1.0, threshold: float = 30.0, out=None):
    """Numerically stable Softplus, ``log(1 + exp(beta x)) / beta``.

    ``out`` optionally supplies the result buffer (it must not alias ``x``,
    which is still read for the saturated branch); one buffer is reused for
    the chained elementwise steps either way.
    """
    scaled = np.multiply(beta, x, out=out) if out is not None else beta * x
    saturated = scaled > threshold
    any_saturated = bool(saturated.any())
    result = np.minimum(scaled, threshold, out=scaled)
    np.exp(result, out=result)
    np.log1p(result, out=result)
    if beta != 1.0:
        result /= beta
    # With no saturated entries the where() would copy `result` verbatim.
    return np.where(saturated, x, result) if any_saturated else result


def log_softmax(x):
    """Row-wise log-softmax over the last axis."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def unit_phasor(angle, out=None):
    """``exp(1j * angle)`` assembled from real sin/cos into one buffer.

    Bit-identical to ``exp(1j * angle)`` (complex exp of a purely imaginary
    argument reduces to exactly this) while skipping the complex temporary
    and the slower complex-exp kernel on the Monte Carlo hot path.
    """
    angle = np.asarray(angle, dtype=np.float64)
    if out is None:
        out = np.empty(angle.shape, dtype=np.complex128)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def mzi_block_components(theta, phi, r1, t1=None, r2=None, t2=None):
    """The four elements of the non-ideal MZI transfer matrix (paper Eq. (5)).

    Same physics as the assembled ``(..., 2, 2)`` matrix but returned as the
    tuple ``(T00, T01, T10, T11)`` of broadcast-shaped arrays — the layout
    the mesh evaluators consume directly.  All parameters broadcast.
    """
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    r1 = np.asarray(r1, dtype=np.float64)
    r2 = np.asarray(r1 if r2 is None else r2, dtype=np.float64)
    t1 = (
        np.sqrt(np.clip(1.0 - r1**2, 0.0, 1.0))
        if t1 is None
        else np.asarray(t1, dtype=np.float64)
    )
    t2 = (
        np.sqrt(np.clip(1.0 - r2**2, 0.0, 1.0))
        if t2 is None
        else np.asarray(t2, dtype=np.float64)
    )
    e_theta = unit_phasor(theta)
    e_phi = unit_phasor(phi)
    e_both = e_phi * e_theta
    # Shared splitter products; multiplying a real array by 1j is an exact
    # placement into the imaginary part, so the factored forms below equal
    # the textbook Eq. (5) expressions term for term.
    rr = r1 * r2
    tt = t1 * t2
    i_rt = 1j * (r2 * t1)
    i_tr = 1j * (t2 * r1)
    i_tr2 = 1j * (t1 * r2)
    return (
        rr * e_both - tt * e_phi,
        i_rt * e_theta + i_tr,
        i_tr * e_both + i_tr2 * e_phi,
        rr - tt * e_theta,
    )


def apply_mzi_blocks(matrices, components, program) -> None:
    """Apply MZI 2x2 blocks to ``matrices`` in place, column by column.

    The *reference* column sweep — the byte-for-byte legacy arithmetic
    every registered sweep kernel (:mod:`repro.arrays.sweep`) is measured
    against.  ``matrices`` has shape ``(..., n, n)``; ``components`` are
    the four block-element arrays (``(..., M)`` or ``(M,)``, broadcasting
    over the leading dimensions) **already gathered into column-sorted
    order** by the program's propagation permutation; ``program`` is a
    :class:`~repro.arrays.sweep.ColumnProgram`.  Devices in one column act
    on disjoint mode pairs, so their two-row updates are gathered and
    applied in a single elementwise step; the arithmetic is pure
    elementwise multiply-add, which makes the batched application
    bit-identical to the single-realization one.
    """
    b00, b01, b10, b11 = components
    top_rows = program.top
    bottom_rows = program.bottom
    for start, stop in program.spans:
        top_modes = top_rows[start:stop]
        bottom_modes = bottom_rows[start:stop]
        top = matrices[..., top_modes, :]
        bottom = matrices[..., bottom_modes, :]
        matrices[..., top_modes, :] = (
            b00[..., start:stop, None] * top + b01[..., start:stop, None] * bottom
        )
        matrices[..., bottom_modes, :] = (
            b10[..., start:stop, None] * top + b11[..., start:stop, None] * bottom
        )
