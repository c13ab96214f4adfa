import numpy as np
import pytest

from corrugate.cli import emit_report, main, parse_config, parse_report
from corrugate.errors import InputError
from corrugate.fieldio import (
    export_obj,
    parse_obj_counts,
    read_field,
    read_frame,
    read_primitives,
    write_field,
    write_frame,
    write_primitives,
)
from corrugate.frame import normal_pair
from corrugate.grid import ImmersionField, MetricField, PeriodicGrid, pullback_metric

from conftest import clifford_map, unit_circle_map


class TestParseConfig:
    def test_run_flags(self):
        cfg = parse_config(["run", "--stages", "4", "--epsilon", "0.5",
                            "--out-prefix", "x"])
        assert cfg.command == "run"
        assert cfg.params["stages"] == 4
        assert cfg.params["epsilon"] == 0.5

    def test_negative_stage_count_rejected(self):
        with pytest.raises(InputError):
            parse_config(["run", "--stages", "-1", "--out-prefix", "x"])

    def test_unknown_flag_is_usage_error(self):
        code = main(["run", "--out-prefix", "x", "--bogus", "1"])
        assert code == 2

    def test_missing_subcommand(self):
        with pytest.raises(InputError):
            parse_config([])

    def test_config_file_round_trip(self, tmp_path):
        cfg = parse_config(["flow", "--alpha", "0.04", "--out-prefix", "pre"])
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        back = parse_config(config_file=path)
        assert back == cfg

    def test_config_file_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"command": "free-check", "params": {"bogus": 1}}')
        with pytest.raises(InputError):
            parse_config(config_file=path)


class TestObjExport:
    def test_two_by_two_counts(self, tmp_path):
        grid = PeriodicGrid((2, 2), min_resolution=2)
        vals = np.zeros((2, 2, 3))
        w = ImmersionField(grid, vals)
        path = tmp_path / "mesh.obj"
        export_obj(w, path)
        assert parse_obj_counts(path) == (4, 4)

    def test_clifford_vertices(self, tmp_path):
        grid = PeriodicGrid((16, 16))
        w = clifford_map(grid, r=0.8)
        path = tmp_path / "mesh.obj"
        export_obj(w, path)
        nv, nf = parse_obj_counts(path)
        assert nv == grid.num_nodes
        assert nf == grid.num_nodes
        with open(path) as fh:
            first = fh.readline().split()
        assert first[0] == "v"
        assert all(np.isfinite(float(v)) for v in first[1:])

    def test_circle_rejected(self, tmp_path):
        w = unit_circle_map(PeriodicGrid((16,)))
        with pytest.raises(InputError):
            export_obj(w, tmp_path / "mesh.obj")


class TestReportIO:
    def test_stage_report_file_round_trip(self, tmp_path):
        from corrugate.corrugation import StageReport

        rep = StageReport(c0_delta=0.1, c1_delta=0.2, defect_before=1.0,
                          defect_after=0.2, lambdas=[8.0], resolution=(64,),
                          slack=1e-15)
        path = tmp_path / "stage.csv"
        emit_report(rep, path)
        assert parse_report(path, "stage") == rep

    def test_empty_run_report_is_header_only(self, tmp_path):
        from corrugate.driver import RunReport

        path = tmp_path / "run.csv"
        emit_report(RunReport(), path)
        assert path.read_text().strip().count("\n") == 0

    def test_flow_report_round_trip(self, tmp_path):
        from corrugate.flow import FlowDiagnostics, FlowSample

        diag = FlowDiagnostics(samples=[
            FlowSample(10.0, 1e-3, 2e-3, 3e-3, 4e-3, 0.0, 1e-9, 0.1, 0.04)])
        path = tmp_path / "flow.csv"
        emit_report(diag, path)
        back = parse_report(path, "flow")
        assert back == diag.samples


class TestFrameAndPrimitiveIO:
    def test_frame_round_trip(self, tmp_path):
        w = unit_circle_map(PeriodicGrid((64,)))
        pair = normal_pair(w)
        path = tmp_path / "frame.csv"
        write_frame(pair, path)
        back = read_frame(path)
        assert np.array_equal(back.nu, pair.nu)
        assert np.array_equal(back.b, pair.b)

    def test_primitives_round_trip(self, tmp_path):
        from corrugate.decompose import global_decompose

        grid = PeriodicGrid((32, 32))
        prims = global_decompose(MetricField.identity(grid, 1.44), bump_count=1)
        path = tmp_path / "prims.csv"
        write_primitives(prims, path)
        back = read_primitives(path)
        assert len(back) == len(prims)
        for a, b in zip(back, prims):
            assert np.array_equal(a.amplitude.values, b.amplitude.values)
            assert np.array_equal(a.psi_linear, b.psi_linear)
            assert a.support_id == b.support_id


class TestMainDispatch:
    def test_pullback_and_free_check(self, tmp_path, capsys):
        w = unit_circle_map(PeriodicGrid((64,)), ambient=2)
        in_path = tmp_path / "w.csv"
        out_path = tmp_path / "g.csv"
        write_field(w, in_path)
        assert main(["pullback", "--in", str(in_path), "--out", str(out_path)]) == 0
        g = read_field(out_path)
        assert np.max(np.abs(g.comps - 1.0)) <= 1e-12
        assert main(["free-check", "--in", str(in_path)]) == 0
        assert "free=True" in capsys.readouterr().out

    def test_decompose_command(self, tmp_path):
        grid = PeriodicGrid((32, 32))
        h_path = tmp_path / "h.csv"
        write_field(MetricField.identity(grid, 1.21), h_path)
        out = tmp_path / "prims.csv"
        assert main(["decompose", "--in", str(h_path), "--out", str(out)]) == 0
        assert len(read_primitives(out)) == 3

    def test_frame_command_capability_error(self, tmp_path):
        w = unit_circle_map(PeriodicGrid((64,)), ambient=2)
        in_path = tmp_path / "w.csv"
        write_field(w, in_path)
        code = main(["frame", "--in", str(in_path), "--out", str(tmp_path / "f.csv")])
        assert code == 4

    def test_stage_command_on_circle(self, tmp_path, capsys):
        w = unit_circle_map(PeriodicGrid((64,)))
        g = MetricField.identity(PeriodicGrid((64,)), 1.2**2)
        wp, gp = tmp_path / "w.csv", tmp_path / "g.csv"
        write_field(w, wp)
        write_field(g, gp)
        prefix = str(tmp_path / "stage")
        code = main(["stage", "--in", str(wp), "--metric", str(gp),
                     "--eta", "0.5", "--delta", "0.25",
                     "--out-prefix", prefix])
        assert code == 0
        rep = parse_report(prefix + "_report.csv", "stage")
        assert rep.defect_after < 0.25
        z = read_field(prefix + "_map.csv")
        assert isinstance(z, ImmersionField)

    @pytest.mark.parametrize("swap, expected", [("in", "immersion"), ("metric", "metric")])
    def test_stage_rejects_wrong_field_kind(self, tmp_path, capsys, swap, expected):
        grid = PeriodicGrid((64,))
        paths = {"in": tmp_path / "w.csv", "metric": tmp_path / "g.csv"}
        write_field(unit_circle_map(grid), paths["in"])
        write_field(MetricField.identity(grid, 1.2**2), paths["metric"])
        # hand the other input's file to the swapped flag
        other = "metric" if swap == "in" else "in"
        paths[swap] = paths[other]
        code = main(["stage", "--in", str(paths["in"]), "--metric", str(paths["metric"]),
                     "--eta", "0.1", "--delta", "0.25",
                     "--out-prefix", str(tmp_path / "s")])
        assert code == 2
        assert f"expects {expected} data" in capsys.readouterr().err

    def test_run_command_circle_one_stage(self, tmp_path):
        prefix = str(tmp_path / "run")
        code = main(["run", "--stages", "1", "--epsilon", "0.5",
                     "--resolution", "64", "--target-scale", "1.2",
                     "--manifold", "circle", "--out-prefix", prefix])
        assert code == 0
        rep = parse_report(prefix + "_report.csv", "run")
        assert len(rep.stage_reports) == 1

    def test_flow_command_and_divergence_exit_code(self, tmp_path):
        prefix = str(tmp_path / "flow")
        code = main(["flow", "--alpha", "0.04", "--t0", "10", "--tend", "16",
                     "--tol", "1e-4", "--resolution", "128",
                     "--out-prefix", prefix])
        assert code == 0
        samples = parse_report(prefix + "_diagnostics.csv", "flow")
        assert len(samples) > 100
        final = read_field(prefix + "_final.csv")
        g11 = pullback_metric(final).component(0, 0)
        assert np.max(np.abs(g11 - 1.04)) <= 1e-4

        code = main(["flow", "--alpha", "0.04", "--t0", "10", "--tend", "16",
                     "--tol", "1e-15", "--resolution", "128",
                     "--out-prefix", prefix + "_bad"])
        assert code == 3

    def test_flow_needs_exactly_one_target(self, tmp_path):
        code = main(["flow", "--out-prefix", str(tmp_path / "x")])
        assert code == 2

    def test_flow_h_file_target(self, tmp_path):
        grid = PeriodicGrid((128,))
        (x,) = grid.meshes()
        h = MetricField(grid, (0.01 * np.cos(x))[..., None])
        h_path = tmp_path / "h.csv"
        write_field(h, h_path)
        prefix = str(tmp_path / "hflow")
        code = main(["flow", "--h-file", str(h_path), "--t0", "10",
                     "--tend", "16", "--tol", "1e-3", "--resolution", "128",
                     "--out-prefix", prefix])
        assert code == 0

    def test_smooth_bench_command(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["smooth-bench", "--resolution", "128", "--out", str(out)])
        assert code == 0
        from corrugate.fieldio import read_table

        header, rows = read_table(out)
        assert header == ["family", "r", "s", "max_ratio"]
        assert all(float(row[3]) <= 64.0 for row in rows)


class TestWriterBytes:
    """The CSV writers print each float as the per-value "{:.17g}" did."""

    VALUES = [-0.0, 0.0, 1e-300, 1e300, 5e-324, 2.2250738585072014e-309,
              3.0, -17.0, 2.0 ** 53, 0.1, -1.0 / 3.0, np.pi, 6.02214076e23, -2.5e-8]

    @staticmethod
    def _old_row(row):
        return ",".join("{:.17g}".format(float(v)) for v in row)

    def test_field_block_bytes(self, tmp_path):
        grid = PeriodicGrid((16,))
        fields = [
            MetricField(grid, np.resize(np.array(self.VALUES), (16, 1))),
            ImmersionField(grid, np.resize(np.array(self.VALUES[::-1]), (16, 3)),
                           np.array([[1.0, -0.0, 1e-300]])),
        ]
        for f in fields:
            path = tmp_path / "f.csv"
            write_field(f, path)
            payload = f.values.reshape(16, -1)
            assert f.kind != "metric" or np.signbit(payload[0, 0])
            header = f"# field {f.kind} dim=1 res=16 N={payload.shape[1]}\n"
            if f.kind == "immersion":
                header += f"# offsets {self._old_row(f.offsets[0])}\n"
            expected = header + "".join(self._old_row(row) + "\n" for row in payload)
            assert path.read_text() == expected

    def test_table_bytes(self, tmp_path):
        from corrugate.fieldio import write_table

        path = tmp_path / "t.csv"
        rows = [["x", *self.VALUES[:4]], ["y", *self.VALUES[4:8]]]
        write_table(["name", "a", "b", "c", "d"], rows, path)
        expected = "name,a,b,c,d\n" + "".join(
            row[0] + "," + self._old_row(row[1:]) + "\n" for row in rows)
        assert path.read_text() == expected
