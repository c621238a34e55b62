"""COST 231 Hata link budget and per-cell coverage maps.

Path loss between the base-station antenna and the UAV follows the COST 231
extension of the Okumura-Hata model,

    L_b = 46.3 + 33.9 log10(f) - 13.82 log10(h_B) - a(h_R)
          + (44.9 - 6.55 log10(h_B)) log10(d) + C_m

with f in MHz, antenna heights in metres, d in kilometres, and the mobile
antenna correction

    a(h_R) = (1.1 log10(f) - 0.7) h_R - (1.56 log10(f) - 0.8).

The model is applied exactly as written even where the inputs leave the
canonical COST 231 validity box (mobile height 1-10 m, 1500-2000 MHz); a
single warning is emitted the first time that happens. Distances below
``d_min_km`` are clamped up to it, since the formula diverges at d -> 0 and
is not meaningful in the near field anyway.

All functions are pure; a coverage map is a plain function of the link
budget and the grid geometry and ignores obstacles entirely.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .gridworld import Cell, GridSpec, GridWorld, cell_center_m

VALID_H_R_RANGE_M = (1.0, 10.0)
VALID_F_RANGE_MHZ = (1500.0, 2000.0)


class HataValidityWarning(UserWarning):
    """Inputs are outside the canonical COST 231 Hata validity ranges."""


_validity_warned = False


def _warn_validity_once(f_mhz: float, h_r_m: float) -> None:
    global _validity_warned
    if _validity_warned:
        return
    out_f = not VALID_F_RANGE_MHZ[0] <= f_mhz <= VALID_F_RANGE_MHZ[1]
    out_h = not VALID_H_R_RANGE_M[0] <= h_r_m <= VALID_H_R_RANGE_M[1]
    if out_f or out_h:
        _validity_warned = True
        warnings.warn(
            f"COST 231 Hata evaluated outside its canonical validity ranges "
            f"(f={f_mhz:g} MHz, mobile height={h_r_m:g} m); applying the "
            f"formula as written",
            HataValidityWarning,
            stacklevel=3,
        )


@dataclass(frozen=True)
class LinkBudget:
    """Carrier, antenna and receiver parameters for the SNR budget.

    The transmit-side numbers and the SNR threshold are synthetic defaults,
    chosen so the default grid exhibits the band-dependent coverage
    trade-off (900 MHz nearly blanket coverage, visible outage rings at
    1800/2100 MHz). Everything is overridable.
    """

    f_mhz: float = 900.0
    h_b_m: float = 60.0
    c_m_db: float = 0.0
    p_tx_dbm: float = 43.0
    g_tx_db: float = 0.0
    g_rx_db: float = 0.0
    bandwidth_hz: float = 10e6
    noise_figure_db: float = 7.0
    snr_threshold_db: float = 46.0
    d_min_km: float = 0.01

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # a threshold of -inf is legal: every cell counts as covered
            if f.name == "snr_threshold_db" and value == -math.inf:
                continue
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        if self.f_mhz <= 0:
            raise ValueError("carrier frequency must be positive")
        if self.h_b_m <= 0:
            raise ValueError("base-station antenna height must be positive")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth must be positive")
        if self.d_min_km <= 0:
            raise ValueError("minimum distance clamp must be positive")

    @property
    def noise_floor_dbm(self) -> float:
        """Thermal noise floor, recomputed from bandwidth and noise figure."""
        return -174.0 + 10.0 * math.log10(self.bandwidth_hz) + self.noise_figure_db


def mobile_correction_alpha(f_mhz: float, h_r_m: float) -> float:
    """Mobile antenna height correction a(h_R) in dB. Linear in h_R."""
    if f_mhz <= 0 or h_r_m <= 0:
        raise ValueError("frequency and mobile height must be positive")
    logf = math.log10(f_mhz)
    return (1.1 * logf - 0.7) * h_r_m - (1.56 * logf - 0.8)


def path_loss_db(lb: LinkBudget, h_r_m: float, d_km: float) -> float:
    """COST 231 Hata path loss in dB for a UAV at height h_r_m, range d_km."""
    if not (math.isfinite(h_r_m) and math.isfinite(d_km)):
        raise ValueError("path-loss inputs must be finite")
    if h_r_m <= 0:
        raise ValueError("mobile height must be positive")
    _warn_validity_once(lb.f_mhz, h_r_m)
    d = max(d_km, lb.d_min_km)
    logf = math.log10(lb.f_mhz)
    logh = math.log10(lb.h_b_m)
    alpha = mobile_correction_alpha(lb.f_mhz, h_r_m)
    return (
        46.3
        + 33.9 * logf
        - 13.82 * logh
        - alpha
        + (44.9 - 6.55 * logh) * math.log10(d)
        + lb.c_m_db
    )


def snr_db(lb: LinkBudget, h_r_m: float, d_km: float) -> float:
    """Receive SNR in dB: budget terms minus path loss minus noise floor."""
    loss = path_loss_db(lb, h_r_m, d_km)
    return lb.p_tx_dbm + lb.g_tx_db + lb.g_rx_db - loss - lb.noise_floor_dbm


def bs_antenna_point_m(spec: GridSpec, bs_cell: Cell, h_b_m: float) -> tuple[float, float, float]:
    """Antenna location: center of the BS column at the antenna height."""
    x = (bs_cell[0] + 0.5) * spec.cell_size_m
    y = (bs_cell[1] + 0.5) * spec.cell_size_m
    return (x, y, h_b_m)


def cell_snr_db(lb: LinkBudget, spec: GridSpec, bs_cell: Cell, c: Cell) -> float:
    """SNR at a cell center, using the 3D slant distance to the BS antenna."""
    cx, cy, cz = cell_center_m(spec, c)
    bx, by, bz = bs_antenna_point_m(spec, bs_cell, lb.h_b_m)
    d_km = math.sqrt((cx - bx) ** 2 + (cy - by) ** 2 + (cz - bz) ** 2) / 1000.0
    return snr_db(lb, cz, d_km)


@dataclass(frozen=True)
class CoverageMap:
    """Per-cell SNR lattice for one band, aligned to a GridSpec."""

    spec: GridSpec
    f_mhz: float
    snr_threshold_db: float
    snr: np.ndarray = field(repr=False)  # shape (nx, ny, nz), dB

    def covered(self) -> np.ndarray:
        return self.snr >= self.snr_threshold_db

    def covered_fraction(self) -> float:
        return float(np.count_nonzero(self.covered())) / self.spec.n_cells

    @cached_property
    def snr_by_index(self) -> list[float]:
        """SNR per flat cell index (``GridWorld.index``), as Python floats."""
        return self.snr.ravel().tolist()


def coverage_map(lb: LinkBudget, world: GridWorld) -> CoverageMap:
    """Evaluate the SNR budget at every cell center of the world's grid."""
    spec = world.spec
    snr = np.empty((spec.nx, spec.ny, spec.nz), dtype=np.float64)
    bs = world.base_station_cell
    for x in range(spec.nx):
        for y in range(spec.ny):
            for z in range(spec.nz):
                snr[x, y, z] = cell_snr_db(lb, spec, bs, (x, y, z))
    return CoverageMap(
        spec=spec, f_mhz=lb.f_mhz, snr_threshold_db=lb.snr_threshold_db, snr=snr
    )
