"""Zone-graph analyses on the paper's improved design (§6)."""

import pytest

from repro.soc import MemorySubsystem, SubsystemConfig
from repro.zones import checker_placement_candidates


@pytest.fixture(scope="module")
def improved_zones():
    return MemorySubsystem(SubsystemConfig.improved()).extract_zones()


def test_checker_candidates_rank_failure_funnels(improved_zones):
    """The ranking sees zone -> zone propagation: every top score is
    positive, and the decoder pipeline the §6 redesign guards with a
    checker is among the top five."""
    top = checker_placement_candidates(improved_zones, top=5)
    assert len(top) == 5
    assert all(score > 0 for _, score in top)
    assert any(name.startswith("fmem/decoder/pipe_") for name, _ in top)
