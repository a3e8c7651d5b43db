"""Achievable link rates under the two interference views.

The scheduling layer prices links with an interference-free rate (conflicts
are delegated to the SIR graph); the validation pass recomputes rates with
the optical interference actually received from concurrently active beams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class LinkRate:
    """Rates attached to one link: scheduling-time and validated."""

    link_index: int
    capacity_protocol: float
    capacity_physical: Optional[float] = None


def _check_common(bandwidth_hz: float, responsivity: float, gain: float,
                  p_ac: float, noise_variance: float) -> None:
    if bandwidth_hz < 0.0:
        raise ValueError(f"bandwidth_hz={bandwidth_hz}: must be >= 0")
    if responsivity <= 0.0:
        raise ValueError(f"responsivity={responsivity}: must be > 0")
    if gain < 0.0:
        raise ValueError(f"gain={gain}: must be >= 0")
    if p_ac < 0.0:
        raise ValueError(f"p_ac={p_ac}: must be >= 0")
    if noise_variance <= 0.0:
        raise ValueError(f"noise_variance={noise_variance}: must be > 0")


def protocol_capacity(
    bandwidth_hz: float,
    responsivity: float,
    gain: float,
    p_ac: float,
    noise_variance: float,
) -> float:
    """Shannon rate (bit/s) with all interference handled by exclusion."""
    _check_common(bandwidth_hz, responsivity, gain, p_ac, noise_variance)
    snr = (responsivity * gain * p_ac) ** 2 / noise_variance
    return bandwidth_hz * math.log2(1.0 + snr)


def physical_capacity(
    bandwidth_hz: float,
    responsivity: float,
    gain: float,
    p_ac: float,
    p_interference: float,
    noise_variance: float,
) -> float:
    """Shannon rate (bit/s) with received optical interference in the denominator."""
    _check_common(bandwidth_hz, responsivity, gain, p_ac, noise_variance)
    if p_interference < 0.0:
        raise ValueError(f"p_interference={p_interference}: must be >= 0")
    signal = (responsivity * gain * p_ac) ** 2
    denom = (responsivity * p_interference) ** 2 + noise_variance
    return bandwidth_hz * math.log2(1.0 + signal / denom)

