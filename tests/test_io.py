import pytest

from graphsplines import io as gio
from graphsplines.errors import NonNumericColumn


def test_vertex_columns_take_integer_valued_floats(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("u,v,weight,length\n0,1.0,1,1\n1,2,1,1\n2.0,0,1,1\n")
    assert gio.read_edge_csv(path).edges == ((0, 1, 1.0, 1.0), (0, 2, 1.0, 1.0), (1, 2, 1.0, 1.0))


@pytest.mark.parametrize("token", ["2.5", "1e20"])
def test_vertex_column_rejects_what_is_no_vertex_id(tmp_path, token):
    path = tmp_path / "nodes.csv"
    path.write_text(f"vertex\n0\n{token}\n")
    with pytest.raises(NonNumericColumn, match=r"nodes.csv: row 3, column 'vertex'"):
        gio.read_nodes_csv(path)
