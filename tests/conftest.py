import numpy as np
import pytest

from hypca import ca1d, embed
from hypca import region as reg

_REGION_CACHE: dict[tuple, reg.Region] = {}


@pytest.fixture(scope="session")
def region_of():
    """Session-wide region builder.  Regions are immutable in practice and
    expensive at size, so every test shares one instance per key."""

    def build(grid: str, radius: int, halfwidth: int) -> reg.Region:
        key = (grid, radius, halfwidth)
        if key not in _REGION_CACHE:
            _REGION_CACHE[key] = reg.build_region(grid, radius, halfwidth)
        return _REGION_CACHE[key]

    return build


@pytest.fixture(scope="session")
def rule110() -> ca1d.Rule1D:
    return ca1d.elementary(110)


@pytest.fixture(scope="session")
def all_six(rule110):
    """The six produced automata for rule 110, keyed (method, grid)."""
    return {
        ("extra", "pentagrid"): embed.embed_extra_state(rule110, "pentagrid"),
        ("extra", "heptagrid"): embed.embed_extra_state(rule110, "heptagrid"),
        ("extra", "dodecagrid"): embed.embed_extra_state(rule110,
                                                         "dodecagrid"),
        ("compact", "pentagrid"): embed.embed_compact(rule110, "pentagrid"),
        ("compact", "heptagrid"): embed.embed_compact(rule110, "heptagrid"),
        ("compact", "dodecagrid"): embed.embed_compact(rule110, "dodecagrid"),
    }


def assert_states_equal(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape and (a == b).all()
