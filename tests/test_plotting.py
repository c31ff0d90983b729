import os

import pytest

from elastweak.plotting import PlotSpec, Series, emit_plot, render_svg

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "convergence_golden.svg")

FIXTURE = [
    Series(label="err_l2", x=(0.35355339059327379, 0.17677669529663689,
                              0.088388347648318447),
           y=(0.013649439997925605, 0.0053469874489597162,
              0.0016802330542017103)),
    Series(label="err_h1", x=(0.35355339059327379, 0.17677669529663689,
                              0.088388347648318447),
           y=(0.055241166575650302, 0.026670724564743069,
              0.011554172078171541)),
]
SPEC = PlotSpec(title="convergence fixture", xlabel="h_max", ylabel="error",
                ref_slopes=(1.0, 2.0))


def test_golden_byte_equality(tmp_path):
    out = tmp_path / "plot.svg"
    emit_plot(FIXTURE, SPEC, out)
    assert out.read_bytes() == open(GOLDEN, "rb").read()


def test_rerender_is_identical():
    assert render_svg(FIXTURE, SPEC) == render_svg(FIXTURE, SPEC)


def test_two_series_two_polylines_with_legend():
    svg = render_svg(FIXTURE, SPEC)
    assert svg.count("<polyline") == 2
    assert "err_l2" in svg and "err_h1" in svg
    assert svg.count("<polygon") == 2  # the reference-slope triangles


def test_single_point_marker_no_line():
    svg = render_svg([Series(label="one", x=(0.5,), y=(0.25,))], PlotSpec())
    assert "<polyline" not in svg
    assert svg.count("<circle") == 1


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        render_svg([], SPEC)
    with pytest.raises(ValueError):
        render_svg([Series(label="nil", x=(), y=())], SPEC)


def test_nonpositive_data_rejected():
    with pytest.raises(ValueError):
        render_svg([Series(label="bad", x=(1.0, 0.5), y=(1.0, 0.0))],
                   PlotSpec())


def test_markup_characters_are_escaped():
    # a title or label such as a CSV file name may hold &, < and >; the
    # SVG must still parse, and its text must read back unchanged
    import xml.etree.ElementTree as ET
    spec = PlotSpec(title="a&b<c.csv", xlabel="h <max>", ylabel="err & more")
    series = [Series(label="u<h>&p", x=FIXTURE[0].x, y=FIXTURE[0].y)]
    root = ET.fromstring(render_svg(series, spec))
    texts = {t.text for t in root.iter("{http://www.w3.org/2000/svg}text")}
    assert {"a&b<c.csv", "h <max>", "err & more", "u<h>&p"} <= texts
