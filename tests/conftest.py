import hypothesis

hypothesis.settings.register_profile(
    "det", derandomize=True, max_examples=60, deadline=None
)
hypothesis.settings.load_profile("det")

import pytest

from qspecies import numeric


@pytest.fixture
def small_budget(monkeypatch):
    """A work budget that a meter opened in the test spends in milliseconds."""
    monkeypatch.setattr(numeric, "WORK_BUDGET", 20_000)
