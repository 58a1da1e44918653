"""Photonic realization of the diagonal (singular-value) stage.

The SVD of a weight matrix gives ``M = U @ Sigma @ V^H``.  The diagonal
``Sigma`` is realized with one MZI per singular value used as a tunable
attenuator — one input and one output of each MZI are terminated (paper
Fig. 1) — followed by a global optical amplification ``beta`` that restores
the scale lost by normalizing the singular values to at most 1 (§II-B).

For a singular value ``s`` and gain ``beta``, the attenuator MZI is tuned so
that its bar-path amplitude equals ``s / beta``::

    |T00| = sin(theta / 2) = s / beta

and the input phase shifter ``phi`` is set to cancel the residual phase of
``T00`` so the realized diagonal entry is real and non-negative, matching
the non-negative singular values produced by the SVD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..exceptions import ConfigurationError, ShapeError
from ..photonics.mzi import mzi_transfer_components
from ._batch import PerturbationBatchFields, ensure_batch_field


@dataclass
class DiagonalPerturbation:
    """Per-attenuator perturbations for a :class:`DiagonalStage`.

    Arrays are indexed by singular-value position.  ``None`` means no
    perturbation of that parameter.
    """

    delta_theta: Optional[np.ndarray] = None
    delta_phi: Optional[np.ndarray] = None
    delta_r_in: Optional[np.ndarray] = None
    delta_r_out: Optional[np.ndarray] = None

    def validate(self, count: int) -> None:
        for name in ("delta_theta", "delta_phi", "delta_r_in", "delta_r_out"):
            value = getattr(self, name)
            if value is None:
                continue
            value = np.asarray(value, dtype=np.float64)
            if value.shape != (count,):
                raise ShapeError(f"{name} must have shape ({count},), got {value.shape}")
            setattr(self, name, value)


@dataclass
class DiagonalPerturbationBatch(PerturbationBatchFields):
    """A stack of ``B`` attenuator-bank perturbations, each array ``(B, k)``.

    Stacking, batch-size inference and single-realization slicing come from
    :class:`PerturbationBatchFields`.
    """

    delta_theta: Optional[np.ndarray] = None
    delta_phi: Optional[np.ndarray] = None
    delta_r_in: Optional[np.ndarray] = None
    delta_r_out: Optional[np.ndarray] = None

    _FIELDS = ("delta_theta", "delta_phi", "delta_r_in", "delta_r_out")
    _SINGLE_CLS = DiagonalPerturbation

    def validate(self, count: int) -> None:
        batch = self.batch_size
        for name in self._FIELDS:
            setattr(self, name, ensure_batch_field(getattr(self, name), (batch, count), name))


class DiagonalStage:
    """MZI-attenuator bank plus global gain implementing ``Sigma``.

    Parameters
    ----------
    singular_values:
        Non-negative singular values (length ``k = min(rows, cols)``).
    shape:
        Shape ``(rows, cols)`` of the rectangular ``Sigma`` matrix to embed
        the attenuated values into; defaults to square ``(k, k)``.
    gain:
        Global field gain ``beta``.  Defaults to ``max(singular_values)``
        (or 1 when all values are zero) so every normalized value is
        realizable by a passive attenuator.
    """

    def __init__(
        self,
        singular_values: np.ndarray,
        shape: Optional[tuple[int, int]] = None,
        gain: Optional[float] = None,
    ):
        values = np.asarray(singular_values, dtype=np.float64)
        if values.ndim != 1:
            raise ShapeError(f"singular_values must be 1-D, got shape {values.shape}")
        self.singular_values = values.copy()  # size anchor for retune
        k = values.shape[0]
        if shape is None:
            shape = (k, k)
        rows, cols = int(shape[0]), int(shape[1])
        if min(rows, cols) != k:
            raise ShapeError(
                f"shape {shape} is incompatible with {k} singular values (min(shape) must equal k)"
            )
        self.shape = (rows, cols)
        # Nominal 50:50 splitter amplitudes, shared by every evaluation.
        self._nominal_r = np.full(k, 1.0 / np.sqrt(2.0))
        # Value validation, gain selection and the attenuator set points
        # live in retune() so a recompile tunes through the exact same code.
        self.retune(values, gain)

    # ------------------------------------------------------------------ #
    def retune(self, singular_values: np.ndarray, gain: Optional[float] = None) -> None:
        """Re-tune the attenuator bank to new singular values in place.

        The bank keeps its size and embedding ``shape``; only the set
        points (and the global gain) change — the cheap counterpart of
        rebuilding the stage during an incremental recompile.  Gain
        selection follows the constructor: ``None`` picks
        ``max(singular_values)`` (or 1 for an all-zero spectrum).
        """
        values = np.asarray(singular_values, dtype=np.float64)
        if values.shape != self.singular_values.shape:
            raise ShapeError(
                f"singular_values must have shape {self.singular_values.shape}, got {values.shape}"
            )
        if np.any(values < 0):
            raise ConfigurationError("singular values must be non-negative")
        self.singular_values = values.copy()
        if gain is None:
            max_value = float(values.max()) if values.size else 1.0
            gain = max_value if max_value > 0 else 1.0
        if gain <= 0:
            raise ConfigurationError(f"gain must be positive, got {gain}")
        self.gain = float(gain)
        normalized = values / self.gain
        if np.any(normalized > 1.0 + 1e-9):
            raise ConfigurationError(
                "normalized singular values exceed 1; increase the gain "
                f"(max normalized value {normalized.max():.6f})"
            )
        normalized = np.clip(normalized, 0.0, 1.0)
        self.thetas = 2.0 * np.arcsin(normalized)
        self.phis = np.mod(-0.5 * self.thetas - 0.5 * np.pi, 2.0 * np.pi)

    # ------------------------------------------------------------------ #
    @property
    def num_mzis(self) -> int:
        return int(self.singular_values.shape[0])

    @property
    def num_phase_shifters(self) -> int:
        return 2 * self.num_mzis

    def normalized_values(self) -> np.ndarray:
        """Singular values divided by the gain (the attenuator set points)."""
        return self.singular_values / self.gain

    # ------------------------------------------------------------------ #
    def _perturbed_parameters(self, perturbation) -> tuple:
        """Attenuator parameters under an (already validated) perturbation.

        Shared by the single and batched amplitude paths: ``perturbation``
        may be a :class:`DiagonalPerturbation` (1-D fields) or a
        :class:`DiagonalPerturbationBatch` (2-D fields), whose arrays
        broadcast against the 1-D nominal parameters through the exact same
        elementwise arithmetic.
        """
        thetas = self.thetas
        phis = self.phis
        r_in = self._nominal_r
        r_out = r_in
        if perturbation is not None:
            if perturbation.delta_theta is not None:
                thetas = thetas + np.asarray(perturbation.delta_theta)
            if perturbation.delta_phi is not None:
                phis = phis + np.asarray(perturbation.delta_phi)
            if perturbation.delta_r_in is not None:
                r_in = np.clip(r_in + np.asarray(perturbation.delta_r_in), 0.0, 1.0)
            if perturbation.delta_r_out is not None:
                r_out = np.clip(r_out + np.asarray(perturbation.delta_r_out), 0.0, 1.0)
        return thetas, phis, r_in, r_out

    def attenuations(self, perturbation: Optional[DiagonalPerturbation] = None) -> np.ndarray:
        """Complex bar-path amplitudes realized by the attenuator MZIs.

        With no perturbation these are the non-negative normalized singular
        values; with perturbations they acquire both magnitude and phase
        errors (the full complex ``T00`` of each faulty MZI is kept, since
        the downstream mesh is coherent).
        """
        if perturbation is not None:
            perturbation.validate(self.num_mzis)
        if self.num_mzis == 0:
            return np.zeros(0, dtype=np.complex128)
        thetas, phis, r_in, r_out = self._perturbed_parameters(perturbation)
        return mzi_transfer_components(thetas, phis, r_in, r2=r_out)[0]

    def matrix(self, perturbation: Optional[DiagonalPerturbation] = None) -> np.ndarray:
        """Rectangular ``Sigma`` matrix (including the global gain ``beta``)."""
        rows, cols = self.shape
        sigma = np.zeros((rows, cols), dtype=np.complex128)
        amplitudes = self.gain * self.attenuations(perturbation)
        k = self.num_mzis
        sigma[:k, :k] = np.diag(amplitudes)
        return sigma

    def ideal_matrix(self) -> np.ndarray:
        """Nominal ``Sigma`` (equals ``diag(singular_values)`` up to numerics)."""
        return self.matrix(None)

    def attenuations_batch(self, perturbation: DiagonalPerturbationBatch) -> np.ndarray:
        """Complex bar-path amplitudes for ``B`` realizations, shape ``(B, k)``."""
        perturbation.validate(self.num_mzis)
        batch = perturbation.batch_size
        if self.num_mzis == 0:
            return np.zeros((batch, 0), dtype=np.complex128)
        thetas, phis, r_in, r_out = self._perturbed_parameters(perturbation)
        amplitudes = mzi_transfer_components(thetas, phis, r_in, r2=r_out)[0]
        if amplitudes.ndim == 1:  # every parameter family unperturbed
            amplitudes = np.broadcast_to(amplitudes, (batch, self.num_mzis))
        return amplitudes

    def matrix_batch(
        self,
        perturbation: Optional[DiagonalPerturbationBatch] = None,
        batch_size: Optional[int] = None,
    ) -> np.ndarray:
        """Rectangular ``Sigma`` matrices for ``B`` realizations, ``(B, rows, cols)``.

        Bit-identical to stacking ``B`` calls of :meth:`matrix` on the
        individual realizations.
        """
        if perturbation is None:
            if batch_size is None:
                raise ValueError("batch_size is required when perturbation is None")
            if batch_size < 1:
                raise ValueError(f"batch_size must be >= 1, got {batch_size}")
            nominal = self.matrix(None)
            return np.broadcast_to(nominal, (batch_size,) + nominal.shape).copy()
        batch = perturbation.batch_size
        if batch_size is not None and batch_size != batch:
            raise ShapeError(f"batch_size {batch_size} does not match perturbation batch {batch}")
        rows, cols = self.shape
        sigma = np.zeros((batch, rows, cols), dtype=np.complex128)
        amplitudes = self.gain * self.attenuations_batch(perturbation)
        k = self.num_mzis
        indices = np.arange(k)
        sigma[:, indices, indices] = amplitudes
        return sigma

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return f"DiagonalStage(k={self.num_mzis}, shape={self.shape}, gain={self.gain:.4f})"
