"""Discrete-event simulation kernel.

Every simulated processor in the Origin2000 model runs application code as a
*coroutine process*: a Python generator that yields simulation primitives
(:class:`Delay`, :class:`WaitEvent`, ...) and is resumed by the
:class:`Engine` when the corresponding virtual-time condition is met.  All
times are in simulated nanoseconds; the engine is fully deterministic (FIFO
tie-breaking on equal timestamps).
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Deadlock,
    Delay,
    Engine,
    Event,
    Process,
    SimError,
)
from repro.sim.resources import Channel, Mutex, Resource

__all__ = [
    "AllOf",
    "AnyOf",
    "Channel",
    "Deadlock",
    "Delay",
    "Engine",
    "Event",
    "Mutex",
    "Process",
    "Resource",
    "SimError",
]
