"""Discrete-event simulation engine.

A small, self-contained, simpy-flavoured discrete-event simulation (DES)
kernel, holding only what the simulator uses: an :class:`Environment`
(clock, event queue, ``call_later`` timers), events (:class:`Event`,
:class:`Timeout`, :class:`AllOf`), processes (:class:`Process`: Python
generators that yield events) and a :class:`Store` (the CUDA and MPS
dispatch queues).  Runtime daemons and host processes are processes; the
device itself advances on ``call_later`` timers.

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
    "SimulationError",
    "StopSimulation",
    "Store",
    "Timeout",
]
