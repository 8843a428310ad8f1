"""Tests for the mae command-line tool."""

import json

import pytest

from repro.cli import main
from repro.netlist.writers import write_spice, write_verilog


@pytest.fixture
def verilog_file(half_adder, tmp_path):
    path = tmp_path / "ha.v"
    path.write_text(write_verilog(half_adder))
    return path


@pytest.fixture
def spice_file(transistor_module, tmp_path):
    path = tmp_path / "x.sp"
    path.write_text(write_spice(transistor_module))
    return path


class TestEstimateCommand:
    def test_both_methodologies(self, verilog_file, capsys):
        assert main(["estimate", str(verilog_file)]) == 0
        out = capsys.readouterr().out
        assert "standard-cell:" in out
        assert "full-custom (exact areas):" in out
        assert "recommended methodology:" in out

    def test_single_methodology(self, verilog_file, capsys):
        assert main(
            ["estimate", str(verilog_file), "--methodology", "standard-cell"]
        ) == 0
        out = capsys.readouterr().out
        assert "standard-cell:" in out
        assert "full-custom" not in out

    def test_fixed_rows(self, verilog_file, capsys):
        assert main(["estimate", str(verilog_file), "--rows", "2"]) == 0
        assert "2 rows" in capsys.readouterr().out

    def test_spice_input(self, spice_file, capsys):
        assert main(
            ["estimate", str(spice_file), "--methodology", "full-custom"]
        ) == 0
        assert "full-custom" in capsys.readouterr().out

    def test_output_database(self, verilog_file, tmp_path, capsys):
        out_path = tmp_path / "db.json"
        assert main(
            ["estimate", str(verilog_file), "--output", str(out_path)]
        ) == 0
        data = json.loads(out_path.read_text())
        assert data["modules"][0]["module_name"] == "half_adder"

    def test_cmos_process(self, verilog_file, capsys):
        assert main(
            ["estimate", str(verilog_file), "--tech", "cmos"]
        ) == 0

    def test_missing_file_is_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.v"
        with pytest.raises(SystemExit):
            main(["estimate"])  # argparse: missing positional
        # runtime error path: file does not parse
        missing.write_text("garbage")
        assert main(["estimate", str(missing)]) == 1
        assert "error:" in capsys.readouterr().err


def _unreadable(kind, tmp_path):
    if kind == "missing":
        return tmp_path / "nope.v"
    if kind == "directory":
        path = tmp_path / "x.v"
        path.mkdir()
        return path
    if kind == "non-utf8":
        path = tmp_path / "bad.v"
        path.write_bytes(b"\xff\xfe module m; endmodule \x80")
        return path
    return tmp_path / "nope.txt"  # missing, unknown extension


class TestUnreadableSchematic:
    """A schematic that cannot be read is one typed ``error:`` line and
    exit status 1, never a raw traceback."""

    @pytest.mark.parametrize("command, kind", [
        (command, kind)
        for command in ("estimate", "scan", "layout", "compare",
                        "floorplan", "explain")
        for kind in ("missing", "directory", "non-utf8",
                     "missing-unknown-extension")
        # explain reads a missing path as a suite-module name
        if not (command == "explain" and kind.startswith("missing"))
    ])
    def test_one_error_line(self, command, kind, tmp_path, capsys):
        path = _unreadable(kind, tmp_path)
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


class TestScanCommand:
    def test_prints_statistics(self, verilog_file, capsys):
        assert main(["scan", str(verilog_file)]) == 0
        out = capsys.readouterr().out
        assert "N=2" in out
        assert "width histogram" in out


class TestProcessCommands:
    def test_list(self, capsys):
        assert main(["process", "list"]) == 0
        out = capsys.readouterr().out
        assert "nmos" in out and "cmos" in out

    def test_show(self, capsys):
        assert main(["process", "show", "--tech", "nmos"]) == 0
        out = capsys.readouterr().out
        assert "row height" in out
        assert "INV" in out

    def test_export_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "nmos.json"
        assert main(["process", "export", str(out_path)]) == 0
        from repro.technology.loader import load_process_file

        process = load_process_file(out_path)
        assert process.lambda_um == 2.5


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "commands" in capsys.readouterr().out

    def test_pla_experiment_runs(self, capsys):
        assert main(["pla"]) == 0
        out = capsys.readouterr().out
        assert "R^2" in out

    def test_central_row_runs(self, capsys):
        assert main(["central-row"]) == 0
        assert "central" in capsys.readouterr().out
