"""Discrete-event simulation engine.

A small, self-contained, simpy-flavoured discrete-event simulation (DES)
kernel.  Everything in the GPU simulator — streaming multiprocessors, memory
bandwidth arbitration, runtime daemons, host processes — is expressed as
processes (Python generators) scheduled by an :class:`Environment`.

Design notes
------------
* Events carry a *value* (or an exception) and a list of callbacks.  An event
  moves through three states: untriggered, triggered (scheduled on the event
  queue with its value), and processed (callbacks have run).
* Processes are generators driven by the environment.  A process yields
  events; when a yielded event is processed the generator is resumed with the
  event's value (or the exception is thrown into it).
* There are no process interrupts: Slate's ``retreat`` is modelled by the
  device (:meth:`repro.gpu.device.SimulatedGPU.resize`), not by throwing
  into worker processes.
* The event queue is ordered by ``(time, priority, sequence)`` so that
  simultaneous events are processed deterministically in scheduling order.
"""

from repro.sim.engine import (
    Environment,
    EnvironmentStats,
    StopSimulation,
    aggregate_stats,
    reset_aggregate_stats,
)
from repro.sim.events import (
    AllOf,
    Event,
    EventPriority,
    SimulationError,
    Timeout,
)
from repro.sim.process import Process
from repro.sim.resources import Resource
from repro.sim.store import Store

__all__ = [
    "AllOf",
    "Environment",
    "EnvironmentStats",
    "Event",
    "EventPriority",
    "aggregate_stats",
    "reset_aggregate_stats",
    "Process",
    "Resource",
    "SimulationError",
    "StopSimulation",
    "Store",
    "Timeout",
]
