"""Host <-> device transfer model (PCIe 3.0 x16).

A single copy engine serializes transfers, first come first served; each
transfer pays a fixed latency plus ``bytes / bandwidth``.  The evaluation's
application-time bars (Fig. 6) include these host-side transfer costs,
which are identical across CUDA, MPS and Slate because Slate reuses the
same transfer mechanism (§IV-A: shared buffers avoid extra copies).
"""

from __future__ import annotations

from collections import deque
from typing import Generator

from repro.config import HostConfig
from repro.sim import Environment, Event

__all__ = ["PcieLink"]


class PcieLink:
    """Serialized host-device copy engine."""

    def __init__(self, env: Environment, host: HostConfig = HostConfig()) -> None:
        self.env = env
        self.host = host
        #: True while a transfer holds the copy engine.
        self._busy = False
        #: Turn events of the transfers waiting for it, oldest first.
        self._waiting: deque[Event] = deque()
        self.bytes_moved: float = 0.0
        self.transfer_count: int = 0

    def transfer(self, nbytes: float) -> Generator:
        """Process generator performing one transfer (either direction).

        The transfer waits for its turn event, which fires at once on a
        free link; on a busy one it fires when the transfer ahead of it
        hands the link over.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        turn = Event(self.env)
        if self._busy:
            self._waiting.append(turn)
        else:
            self._busy = True
            turn.succeed()
        yield turn
        yield self.env.timeout(self.transfer_time(nbytes))
        if self._waiting:
            self._waiting.popleft().succeed()
        else:
            self._busy = False
        self.bytes_moved += nbytes
        self.transfer_count += 1

    def transfer_time(self, nbytes: float) -> float:
        """Uncontended duration of a transfer of ``nbytes``."""
        return self.host.pcie_latency + nbytes / self.host.pcie_bandwidth
