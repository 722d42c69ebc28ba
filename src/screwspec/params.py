"""Physical and derived parameters of the screw-dislocation bound-state problem.

The medium carries a screw dislocation with torsion parameter ``beta``
(line element ``ds^2 = dr^2 + r^2 dphi^2 + 2 beta dphi dz + dz^2``), a
thin Aharonov-Bohm flux line along the axis (``flux``, in units of the
flux quantum), and an optional uniform rotation ``Omega`` about the same
axis.  A particle of mass ``mass`` moves in one of two radial potentials:

* ``oscillator``: harmonic trap ``(1/2) mass omega0^2 r^2`` plus the
  inverse-square term ``gamma / r^2`` and a constant offset ``delta``;
* ``inverse-square``: the ``gamma / r^2`` term alone.

Separating ``Psi = exp(i ell phi) exp(i k z) psi(r)`` leaves a radial
problem controlled by three derived quantities,

    iota  = ell - flux - beta * k        (effective angular momentum)
    j     = sqrt(2 mass gamma + 1/4)     (power of psi ~ r^(j + 1/2) at r -> 0)
    omega = mass * omega0 * beta**2      (Gaussian rate: in x = r^2/beta^2 the
                                          trap factor exp(-mass omega0 r^2 / 2)
                                          is exactly exp(-omega x / 2))

and a single spectral parameter

    spectral = 2 mass (E - delta + Omega * iota) - k^2,

in terms of which the radial equation reads

    psi'' + r/(r^2 - beta^2) psi'
          + [spectral - (mass omega0 r)^2 - 2 mass gamma / r^2
             - iota^2/(r^2 - beta^2)] psi = 0.

For the inverse-square model ``omega0 = 0`` and ``delta = 0``, so
``omega = 0`` and the same formulas apply with the trap terms absent.

This module is the one home of iota, omega, j and the energy map, each
one elementwise expression for floats at one point and for the arrays of
the n = 1 kernel in :mod:`screwspec.spectrum`.  Callers pass in squares,
taken through libm ``pow`` (Python's float ``**``, or ``np.float_power``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Model",
    "PhysicalParams",
    "DerivedParams",
    "InvalidParameterError",
    "derive_params",
    "spectral_to_energy",
]


class Model(str, Enum):
    """Which radial potential the problem carries."""

    OSCILLATOR = "oscillator"
    INVERSE_SQUARE = "inverse-square"


class InvalidParameterError(ValueError):
    """A physical parameter violates its validity range."""


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite: got {value!r}")
    return value


@dataclass(frozen=True, kw_only=True)
class PhysicalParams:
    """Validated input parameters.

    Invariants enforced at construction:

    * ``mass > 0``
    * ``0 < beta < 1``
    * ``k > 0``
    * ``ell`` is an integer
    * ``gamma >= 0``
    * ``omega0 > 0`` for the oscillator model, ``omega0 == 0`` otherwise
    * ``delta == 0`` for the inverse-square model
    * every float is finite

    ``flux`` and ``Omega`` may have either sign: a negative flux is a flux
    tube of the other orientation.
    """

    model: Model
    mass: float
    beta: float
    k: float
    ell: int
    omega0: float = 0.0
    gamma: float = 0.0
    delta: float = 0.0
    Omega: float = 0.0
    flux: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "model", Model(self.model))
        for name in ("mass", "beta", "k", "omega0", "gamma", "delta", "Omega", "flux"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if self.mass <= 0:
            raise InvalidParameterError(f"mass must be positive: got {self.mass}")
        if not 0.0 < self.beta < 1.0:
            raise InvalidParameterError(
                f"beta must lie in the open interval (0, 1): got {self.beta}"
            )
        if self.k <= 0:
            raise InvalidParameterError(f"k must be positive: got {self.k}")
        if isinstance(self.ell, bool) or not isinstance(self.ell, int):
            raise InvalidParameterError(f"ell must be an integer: got {self.ell!r}")
        if self.gamma < 0:
            raise InvalidParameterError(f"gamma must be non-negative: got {self.gamma}")
        if self.model is Model.OSCILLATOR:
            if self.omega0 <= 0:
                raise InvalidParameterError(
                    f"omega0 must be positive for the oscillator model: got {self.omega0}"
                )
        else:
            if self.omega0 != 0.0:
                raise InvalidParameterError(
                    f"omega0 must be zero for the inverse-square model: got {self.omega0}"
                )
            if self.delta != 0.0:
                raise InvalidParameterError(
                    f"delta must be zero for the inverse-square model: got {self.delta}"
                )


@dataclass(frozen=True)
class DerivedParams:
    """Quantities the radial problem actually depends on."""

    iota: float
    omega: float
    j: float


def _square_of(name: str, value: float) -> float:
    """``value**2`` of a Python float; ``OverflowError`` naming ``name`` and its value.

    Python's float ``**`` raises where the square leaves the float range,
    with only ``(34, 'Numerical result out of range')`` for a message.
    """
    try:
        return value**2
    except OverflowError:
        raise OverflowError(f"the square of {name} = {value!r} leaves the float range") from None


def _derived(f, beta2) -> tuple:
    """(iota, omega, j), elementwise, from the fields ``f`` by name; ``beta2`` is beta**2."""
    iota = f["ell"] - f["flux"] - f["beta"] * f["k"]
    omega = f["mass"] * f["omega0"] * beta2
    j = np.sqrt(2.0 * f["mass"] * f["gamma"] + 0.25)
    return iota, omega, j


def _energy(f, k2, spectral, iota):
    """The energy at ``spectral`` from the fields ``f``, elementwise; ``k2`` is ``k**2``."""
    return (k2 + spectral) / (2.0 * f["mass"]) + f["delta"] - f["Omega"] * iota


def derive_params(p: PhysicalParams) -> DerivedParams:
    """Compute (iota, omega, j) from validated physical parameters."""
    iota, omega, j = _derived(vars(p), p.beta**2)
    return DerivedParams(iota=iota, omega=omega, j=float(j))


def spectral_to_energy(p: PhysicalParams, spectral: float) -> float:
    """Energy for a spectral value, a bare float in either model.

    ``E = k^2/(2 mass) + spectral/(2 mass) + delta - Omega * iota``.
    Raises ``OverflowError`` where a finite spectral value gives a
    non-finite energy.
    """
    value = float(spectral)
    energy = _energy(vars(p), _square_of("k", p.k), value, derive_params(p).iota)
    if math.isfinite(value) and not math.isfinite(energy):
        raise OverflowError(f"the energy at spectral value {value!r} leaves the float range")
    return energy
