import numpy as np

from dilutefermi.tables import write_table


def test_write_table_cell_rule(tmp_path):
    path = tmp_path / "t.csv"
    write_table(
        path,
        ["first", "second"],
        ("a", "b", "c", "d", "e"),
        [(np.float64(0.1), np.int64(3), 3, 2.0, "pass")],
    )
    assert path.read_text() == "# first\n# second\na,b,c,d,e\n0.1,3,3,2.0,pass\n"
