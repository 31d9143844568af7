"""Fixtures shared by the test modules."""

import pytest

from windcosim.cosim import SimComponent


@pytest.fixture
def stepped_order(monkeypatch):
    """Steps a master one macro step and returns the component ids that
    ``SimComponent.step`` was called with, in call order: the order the
    master actually steps in."""
    def step_once(master) -> list[str]:
        order, step = [], SimComponent.step

        def record(comp, t, dt):
            order.append(comp.component_id)
            step(comp, t, dt)

        monkeypatch.setattr(SimComponent, "step", record)
        master.step_macro()
        monkeypatch.setattr(SimComponent, "step", step)
        return order
    return step_once
