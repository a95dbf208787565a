import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hypca import embed, engine, render
from hypca import geometry as geo

import region_reference
import render_reference

GOLDEN = Path(__file__).parent / "golden"


def test_render_is_deterministic(region_of):
    r = region_of("pentagrid", 2, 1)
    spec = render.blank_render_spec("pentagrid")
    assert render.render_svg(r, spec) == render.render_svg(r, spec)


def test_blank_pentagrid_golden(region_of):
    r = region_of("pentagrid", 2, 1)
    svg = render.render_svg(r, render.blank_render_spec("pentagrid"))
    assert svg == (GOLDEN / "blank_pentagrid_r2.svg").read_text()


def test_signed_zero_normalised(region_of):
    # the golden compare sees this only where matmul noise comes out negative
    for x in (-0.0, -1e-16, -4e-7):
        assert render._fmt(x) == "0.000000"
    assert render._fmt(-6e-7) == "-0.000001"
    r = region_of("heptagrid", 2, 1)
    svg = render.render_svg(r, render.blank_render_spec("heptagrid"))
    assert "-0.000000" not in svg
    assert "-0.000000" not in (GOLDEN / "blank_pentagrid_r2.svg").read_text()


def test_blank_default_colors(region_of):
    r = region_of("pentagrid", 2, 1)
    svg = render.render_svg(r, render.RenderSpec(grid="pentagrid"))
    assert render.LINE_BLANK in svg and render.OFF_BLANK in svg
    assert svg.startswith("<svg ") and svg.endswith("</svg>\n")


def test_missing_color_rejected(region_of):
    r = region_of("pentagrid", 2, 1)
    spec = render.blank_render_spec("pentagrid")
    states = np.full(r.n_cells, 2, dtype=np.int16)
    with pytest.raises(ValueError):
        render.render_svg(r, spec, states)


def test_grid_mismatch_rejected(region_of):
    r = region_of("pentagrid", 2, 1)
    with pytest.raises(ValueError):
        render.render_svg(r, render.blank_render_spec("heptagrid"))


def test_compact_markers_painted_red(region_of, rule110):
    r = region_of("pentagrid", 2, 1)
    b = embed.embed_compact(rule110, "pentagrid")
    cfg = engine.init_configuration(r, b, [])
    svg = render.render_svg(r, render.default_render_spec(b), cfg.states)
    n_markers = len(region_reference.marker_cell_ids(r))
    assert svg.count(f'fill="{render.RED}"') == n_markers
    assert svg.count(f'fill="{render.GREEN}"') == r.n_cells - n_markers


def test_extra_fill_is_blue(region_of, rule110):
    r = region_of("pentagrid", 2, 1)
    b = embed.embed_extra_state(rule110, "pentagrid")
    cfg = engine.init_configuration(r, b, [1])
    svg = render.render_svg(r, render.default_render_spec(b), cfg.states)
    n_line = len(r.guideline.cell_ids)
    assert svg.count(f'fill="{render.BLUE}"') == r.n_cells - n_line
    assert svg.count("<path") == r.n_cells


def test_depth_filter(region_of):
    r = region_of("pentagrid", 2, 1)
    spec = render.blank_render_spec("pentagrid")
    spec.depth = 0
    svg = render.render_svg(r, spec, render.blank_states(r))
    assert svg.count("<path") == int((r.dist == 0).sum())


def test_dodecagrid_trace_view(region_of, rule110):
    r = region_of("dodecagrid", 3, 1)
    b = embed.embed_compact(rule110, "dodecagrid")
    cfg = engine.init_configuration(r, b, [1])
    svg = render.render_svg(r, render.default_render_spec(b), cfg.states)
    assert svg.count("<path") > 10
    # interior plane cells show their across-the-plane partner as a disc
    assert svg.count("<circle") > 1
    assert f'fill="{render.RED}"' in svg


def test_trace_frame_is_the_guideline_frame(region_of):
    """The trace view's frame is the guide planes' frame of the float
    reference, bit for bit, so the tape runs the same way across every
    picture; and the tape cells advance along its direction."""
    n0, e0, e1, _ = render._trace_basis("dodecagrid")
    normals, p0, w = region_reference.guide_frame("dodecagrid")
    for got, want in ((n0, normals[0]), (e0, p0), (e1, w)):
        assert np.array_equal(got, want)
    r = region_of("dodecagrid", 3, 1)
    along = geo.mdot(r.centers[r.guideline.cell_ids], e1)
    assert (np.diff(along) > 0).all()


def test_spec_round_trip():
    spec = render.RenderSpec(grid="dodecagrid", colors={0: "#112233"},
                             size=300, depth=2, quiet=0)
    back = render.spec_from_json(json.dumps(dataclasses.asdict(spec)))
    assert back == spec


def test_spec_takes_a_whole_stroke_width():
    """A JSON int is a stroke width, read as a float; a boolean is not
    (the CLI's failure test)."""
    spec = render.spec_from_json(json.dumps(
        {"grid": "pentagrid", "colors": {"0": "#fff"}, "stroke_width": 1}))
    assert type(spec.stroke_width) is float and spec.stroke_width == 1.0


def _point(dist, angle):
    return geo.point_at(dist, np.array([np.cos(angle), np.sin(angle)]))


@given(st.floats(0.1, 2.0), st.floats(0.0, 6.28), st.floats(0.1, 2.0),
       st.floats(0.0, 6.28))
def test_geodesic_points_stay_on_sheet(ad, aa, bd, ba):
    p, q = _point(ad, aa), _point(bd, ba)
    pts = render_reference.geodesic_points(p, q, 9)
    assert np.allclose(geo.mdot(pts, pts), 1.0, atol=1e-9)
    assert np.allclose(pts[0], p, atol=1e-9)
    assert np.allclose(pts[-1], q, atol=1e-9)


def _assert_same_svg(region, spec, states):
    got = render.render_svg(region, spec, states)
    want = render_reference.render_svg(region, spec, states)
    if got != want:     # name the first differing line; a full diff is slow
        i, g, w = next((i, g, w) for i, (g, w) in enumerate(
            zip(got.splitlines() + [""], want.splitlines() + [""]))
            if g != w)
        raise AssertionError(f"line {i} differs:\n{g[:200]}\n{w[:200]}")


def _differential_cases(spec, states):
    """(spec, states) pairs: the blank region and the given states, each
    with every cell drawn and with depth 1."""
    blank = render.blank_render_spec(spec.grid)
    return [(sp, st) for base, st in ((blank, None), (spec, states))
            for sp in (base, dataclasses.replace(base, depth=1))]


@pytest.mark.parametrize("grid", ["pentagrid", "heptagrid"])
@pytest.mark.parametrize("radius", [1, 2, 3, 4, 5])
def test_polygons_match_reference(region_of, all_six, grid, radius):
    r = region_of(grid, radius, 1)
    b = all_six[("extra", grid)]
    states = np.random.default_rng(radius).integers(
        0, b.n_states, r.n_cells).astype(np.int16)
    for spec, st in _differential_cases(render.default_render_spec(b),
                                        states):
        _assert_same_svg(r, spec, st)


@pytest.mark.parametrize("radius", [2, 3, 4])
def test_trace_plane_matches_reference(region_of, all_six, radius):
    r = region_of("dodecagrid", radius, 1)
    b = all_six[("compact", "dodecagrid")]
    cfgs = engine.run_hca(b, r, engine.init_configuration(r, b, [1, 1, 0]),
                          radius - 1)
    spec = render.default_render_spec(b)
    for snap in (cfgs[-1].states, np.random.default_rng(radius).integers(
            0, b.n_states, r.n_cells).astype(np.int16)):
        for sp, st in _differential_cases(spec, snap):
            _assert_same_svg(r, sp, st)
