import csv
import io
import xml.etree.ElementTree as ET

import pytest

from udiscrim.output import csv_bytes, emit, svg_bytes, write_csv, write_svg
from udiscrim.sweeps import ScenarioParams, SweepSpec, Table, nstate_report, sweep_intensity


def small_table():
    spec = SweepSpec(0.0, 2.0, 3)
    params = ScenarioParams(dark=0.0, vis1=1.0, vis2=1.0, trials=500, blocks=2, seed=9)
    return sweep_intensity(spec, params)


class TestCsv:
    def test_header_row_is_fixed(self):
        table = small_table()
        first_line = csv_bytes(table).split(b"\n", 1)[0]
        assert first_line == ",".join(table.columns).encode()

    def test_deterministic_bytes(self):
        assert csv_bytes(small_table()) == csv_bytes(small_table())

    def test_lf_only_and_dot_decimals(self):
        data = csv_bytes(small_table())
        assert b"\r" not in data
        assert data.endswith(b"\n")
        for line in data.decode().strip().split("\n")[1:]:
            for cell in line.split(","):
                float(cell)  # parses with '.' decimal separator

    def test_round_trip_precision(self):
        table = small_table()
        lines = csv_bytes(table).decode().strip().split("\n")
        parsed = [tuple(float(c) for c in line.split(",")) for line in lines[1:]]
        assert tuple(parsed) == table.rows

    def test_cells_read_back_through_the_csv_module(self):
        # A comma in a cell or a column name is quoted, so the row stays one
        # cell per column.
        table = Table("t", ("x", "p_a,b"), ((0.0, "1,2"), (0.5, 0.25)))
        rows = list(csv.reader(io.StringIO(csv_bytes(table).decode())))
        assert rows == [["x", "p_a,b"], ["0.0", "1,2"], ["0.5", "0.25"]]

    def test_write(self, tmp_path):
        path = write_csv(small_table(), tmp_path / "out.csv")
        assert path.read_bytes() == csv_bytes(small_table())


class TestSvg:
    def test_valid_self_contained_xml(self):
        data = svg_bytes(small_table())
        root = ET.fromstring(data)
        assert root.tag.endswith("svg")
        text = data.decode()
        assert "href" not in text
        assert "<image" not in text

    def test_deterministic_bytes(self):
        assert svg_bytes(small_table()) == svg_bytes(small_table())

    def test_includes_analytic_lines_and_markers(self):
        text = svg_bytes(small_table()).decode()
        assert text.count("<polyline") == 4  # measured + ideal curves, both ports
        assert "<circle" in text
        assert "analytic_p1" in text

    def test_nstate_table_renders(self):
        params = ScenarioParams(dark=0.0, vis1=1.0, trials=500, blocks=2, seed=9)
        table = nstate_report(3, params)
        root = ET.fromstring(svg_bytes(table, title="three states"))
        assert root is not None

    def test_labels_are_escaped(self):
        table = Table("a<b & c>", ("x", "p_x&y"), ((0.0, 0.5), (1.0, 0.25)))
        root = ET.fromstring(svg_bytes(table, x_label="x > 0"))
        texts = {node.text for node in root.iter() if node.tag.endswith("text")}
        assert {"a<b & c>", "p_x&y", "x > 0"} <= texts

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            svg_bytes(Table("empty", ("x", "y"), ()))

    def test_write(self, tmp_path):
        path = write_svg(small_table(), tmp_path / "chart.svg")
        assert path.read_bytes().startswith(b"<svg")


class TestEmit:
    def test_dispatch(self, tmp_path):
        table = small_table()
        csv_path = emit(table, tmp_path / "t.csv", "csv")
        svg_path = emit(table, tmp_path / "t.svg", "svg")
        assert csv_path.read_bytes() == csv_bytes(table)
        assert svg_path.read_bytes() == svg_bytes(table)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit(small_table(), tmp_path / "t.xyz", "xyz")

    def test_missing_directory_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            emit(small_table(), tmp_path / "no_such_dir" / "t.csv", "csv")


# A short row wrote a short CSV line and ended the chart in an IndexError;
# a long row's extra cell was written to the CSV and dropped from the chart.
@pytest.mark.parametrize("write", [csv_bytes, svg_bytes])
@pytest.mark.parametrize(
    "rows, message",
    [
        pytest.param(((0.0,), (1.0, 0.5)), r"^rows\[0\] has 1 cells, expected 2", id="short"),
        pytest.param(((0.0, 0.5), (1.0, 0.5, 0.25)), r"^rows\[1\] has 3 cells, expected 2",
                     id="long"),
    ],
)
def test_ragged_rows_are_rejected(write, rows, message):
    with pytest.raises(ValueError, match=message):
        write(Table("t", ("x", "p_a"), rows))
