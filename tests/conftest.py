import json

import numpy as np
import pytest

from hypca import ca1d, embed
from hypca import region as reg

import region_reference

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


@pytest.fixture(scope="session")
def legacy_region_json():
    """A region file as written before files carried a format version:
    every array of the region in full."""

    def dump(region: reg.Region) -> str:
        gl = region.guideline
        # regions no longer carry the guide planes; the loader ignores them
        normals, p0, w = region_reference.guide_frame(region.grid)
        return json.dumps({
            "grid": region.grid,
            "radius": region.radius,
            "halfwidth": region.halfwidth,
            "matrices": region.matrices.tolist(),
            "adjacency": region.adjacency.tolist(),
            "dist": region.dist.tolist(),
            "positions": region_reference.tape_positions(region).tolist(),
            "guideline": {
                "cell_ids": gl.cell_ids.tolist(),
                "positions": gl.positions.tolist(),
                "left_sides": gl.left_sides.tolist(),
                "right_sides": gl.right_sides.tolist(),
                "segment_halfwidth": region.halfwidth,
                "normals": [n.tolist() for n in normals],
                "frame_p0": p0.tolist(),
                "frame_w": w.tolist(),
                "mirror_ids": None if gl.mirror_ids is None
                else gl.mirror_ids.tolist(),
            },
        })

    return dump
