"""Closed-form time-average age of information for each scheme.

The destination's age rises linearly and resets whenever a processed update
comes back.  With exponential transmission delays (rate ``arrival_rate``),
a source that transmits a fresh update the moment the previous one is
accepted, and a pool that drops arrivals while busy, the long-run average
age depends on the service time S only through its first two moments:

    age = E[D] + E[S] + E[(S + Z)^2] / (2 E[S + Z]),

where the delay D and the post-service idle wait Z are both exponential
with the arrival rate and independent of S.  Every scheme's closed form is
this one expression evaluated at its service moments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .schemes import Scheme, ServiceMoments, SystemParams, service_moments


@dataclass(frozen=True)
class AgeResult:
    delta: float
    es: float
    es2: float


def age_from_moments(arrival_rate: float, m: ServiceMoments) -> float:
    """Average age for a service time with moments m under the given arrival rate."""
    lam = arrival_rate
    ey = m.es + 1.0 / lam
    ey2 = m.es2 + 2.0 * m.es / lam + 2.0 / lam / lam
    return 1.0 / lam + m.es + ey2 / (2.0 * ey)


def age_of(scheme: Scheme, params: SystemParams) -> AgeResult:
    """Average age of the given scheme, with its service moments; raises
    OverflowError when a double cannot hold the age or a moment behind it."""
    m = service_moments(scheme, params)
    delta = age_from_moments(params.arrival_rate, m)
    if not math.isfinite(delta):
        raise OverflowError(f"age of {scheme} overflows a double "
                            f"(E[S]={m.es:.6g}, E[S^2]={m.es2:.6g})")
    return AgeResult(delta, m.es, m.es2)

