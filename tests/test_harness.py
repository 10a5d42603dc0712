import numpy as np
import pytest

from percolab.harness import _fmt_cell, cli_dispatch, write_csv

RATE = ["estimate-rate", "--set=d=2", "--set=p=0.6", "--set=seed=1"]


@pytest.mark.parametrize(
    "bad",
    [
        ["--set=replicates=abc"],
        ["--set=n_grid=8,x"],
        ["--replicates", "abc"],
    ],
)
def test_unparsable_value_exits_2(tmp_path, capsys, bad):
    assert cli_dispatch(RATE + bad + ["--out-dir", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_set_key_exits_2(tmp_path):
    argv = RATE + ["--set=nope=1", "--out-dir", str(tmp_path)]
    assert cli_dispatch(argv) == 2


def test_set_without_equals_exits_1(tmp_path):
    assert cli_dispatch(RATE + ["--set=replicates", "--out-dir", str(tmp_path)]) == 1


def test_fmt_cell_numpy_and_signed_zero():
    assert _fmt_cell(np.float64(1.0)) == "1.0"
    assert _fmt_cell(np.float32(0.5)) == "0.5"
    assert _fmt_cell(-0.0) == "0.0"
    assert _fmt_cell(np.float64(-0.0)) == "0.0"
    assert _fmt_cell(np.float64(np.nan)) == "nan"
    assert _fmt_cell(0.1) == "0.1"
    assert _fmt_cell(-2.5) == "-2.5"
    assert _fmt_cell(7) == 7
    assert _fmt_cell("x") == "x"


def test_write_csv_cells(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, "t", ["a", "b", "c"], [[np.float64(0.75), -0.0, np.int64(3)]])
    assert path.read_text().splitlines()[1:] == ["a,b,c", "0.75,0.0,3"]
