"""Physical units and conversion helpers used throughout the library.

The whole code base sticks to a single set of units:

* time and latency are expressed in **milliseconds** (float),
* bandwidth is expressed in **megabits per second** (float),
* distances are expressed in **kilometres** (float).

The helpers in this module make conversions explicit at call sites instead
of scattering magic constants around the code.
"""

from __future__ import annotations

#: Speed of light in vacuum, kilometres per millisecond.
SPEED_OF_LIGHT_KM_PER_MS = 299.792458

#: Effective propagation speed in optical fibre (roughly two thirds of c),
#: kilometres per millisecond.  This matches the common 4.9 microseconds per
#: kilometre rule of thumb used to estimate propagation delay from distance.
FIBER_SPEED_KM_PER_MS = SPEED_OF_LIGHT_KM_PER_MS * 2.0 / 3.0

#: Milliseconds in one second.
MS_PER_SECOND = 1000.0

#: Milliseconds in one minute.
MS_PER_MINUTE = 60.0 * MS_PER_SECOND


def minutes(value: float) -> float:
    """Convert minutes to the library's millisecond unit."""
    return float(value) * MS_PER_MINUTE


def fiber_delay_ms(distance_km: float) -> float:
    """Return the propagation delay over ``distance_km`` of optical fibre.

    The paper estimates link propagation delay from the great-circle
    distance between the two link endpoints; this helper performs the
    distance-to-delay conversion with the standard fibre refraction factor.
    """
    if distance_km < 0.0:
        raise ValueError(f"distance must be non-negative, got {distance_km}")
    return float(distance_km) / FIBER_SPEED_KM_PER_MS


def gbps(value: float) -> float:
    """Convert gigabits per second to the library's Mbit/s unit."""
    return float(value) * 1000.0
