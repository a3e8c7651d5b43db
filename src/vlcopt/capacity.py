"""Achievable link rates under the two interference views.

The scheduling layer prices links with an interference-free rate (conflicts
are delegated to the SIR graph); the validation pass recomputes rates with
the optical interference actually received from concurrently active beams.
Both take numpy arrays as well as numbers: link building rates every
candidate link with one `protocol_capacity` call, and the validation pass
every scheduled link with one `physical_capacity` call.
"""

from __future__ import annotations

from typing import Union

import numpy as np

Real = Union[float, np.ndarray]


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


def _least(value: Real) -> float:
    """The least element of `value`, NaNs passed over (inf if none is left),
    so that one scalar check covers every element, as it covers a number."""
    return np.fmin.reduce(value, axis=None, dtype=float, initial=np.inf)


def protocol_capacity(
    bandwidth_hz: Real,
    responsivity: Real,
    gain: Real,
    p_ac: Real,
    noise_variance: Real,
) -> Real:
    """Shannon rate (bit/s) with all interference handled by exclusion. Any
    argument may be a numpy array, as in `physical_capacity`, so one call
    rates every candidate link."""
    _check_common(*map(_least, (bandwidth_hz, responsivity, gain, p_ac, noise_variance)))
    snr = (responsivity * gain * p_ac) ** 2 / noise_variance
    # numpy's log2, as in physical_capacity, so that zero interference
    # gives this rate bit for bit
    return bandwidth_hz * np.log2(1.0 + snr)


def physical_capacity(
    bandwidth_hz: Real,
    responsivity: Real,
    gain: Real,
    p_ac: Real,
    p_interference: Real,
    noise_variance: Real,
) -> Real:
    """Shannon rate (bit/s) with received optical interference in the
    denominator. Any argument may be a numpy array: they broadcast together,
    each rate is what the call with that element's numbers gives, and an
    array with a bad element raises, naming its least element."""
    _check_common(*map(_least, (bandwidth_hz, responsivity, gain, p_ac, noise_variance)))
    least = _least(p_interference)
    if least < 0.0:
        raise ValueError(f"p_interference={least}: must be >= 0")
    signal = (responsivity * gain * p_ac) ** 2
    denom = (responsivity * p_interference) ** 2 + noise_variance
    return bandwidth_hz * np.log2(1.0 + signal / denom)
