"""The scheduler keeps each kernel's first-run profile (paper §III-B1).

A kernel whose behaviour drifts with its input data keeps the class it
was profiled with on its first run: later runs never refresh the
profile table.
"""

from dataclasses import replace

from repro.kernels import quasirandom, transpose
from repro.sim import Environment
from repro.slate import SlateRuntime
from repro.slate.classify import IntensityClass as C


def drifting_kernel(heavy: bool):
    """The 'same' kernel whose behaviour depends on its input data:
    light quasirandom work, or a memory-heavy variant under one name."""
    spec = quasirandom(num_blocks=48_000) if not heavy else transpose(num_blocks=336_000)
    return replace(spec, name="DRIFTY")


def run_phases():
    env = Environment()
    rt = SlateRuntime(env)
    session = rt.create_session("app")
    classes = []

    def app(env):
        # Phase 1: light behaviour — profiled as L_C on first run.
        for _ in range(2):
            yield from session.launch(drifting_kernel(heavy=False))
            yield from session.synchronize()
        classes.append(rt.profiles.get("DRIFTY").intensity)
        # Phase 2: the input changes; the kernel turns memory-heavy.
        for _ in range(6):
            yield from session.launch(drifting_kernel(heavy=True))
            yield from session.synchronize()
        classes.append(rt.profiles.get("DRIFTY").intensity)

    env.run(until=env.process(app(env)))
    return classes


class TestProfileRefresh:
    def test_paper_behaviour_keeps_first_profile(self):
        assert run_phases() == [C.L_C, C.L_C]
