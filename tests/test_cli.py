import json

import numpy as np
import pytest

from corrugate.cli import _build_parser, emit_report, main, parse_config, parse_report
from corrugate.errors import InputError
from corrugate.fieldio import (
    export_obj,
    parse_obj_counts,
    read_field,
    read_frame,
    read_primitives,
    read_table,
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

    def test_start_grid_over_the_node_cap_refused(self, monkeypatch):
        import corrugate.corrugation as corrugation

        with pytest.raises(InputError, match="start grid of 16777216 nodes, beyond the "
                                             "desk-scale cap of 4194304 nodes"):
            parse_config(["run", "--manifold", "torus", "--resolution", "4096",
                          "--out-prefix", "x"])
        parse_config(["run", "--manifold", "circle", "--resolution", "4096",
                      "--out-prefix", "x"])
        monkeypatch.setattr(corrugation, "MAX_NODES", 2**10)
        with pytest.raises(InputError, match="cap of 1024 nodes"):
            parse_config(["run", "--manifold", "circle", "--resolution", "2048",
                          "--out-prefix", "x"])

    def test_missing_subcommand(self):
        with pytest.raises(InputError):
            parse_config([])

    def test_config_file_round_trip(self, tmp_path):
        cfg = parse_config(["flow", "--alpha", "0.04", "--out-prefix", "pre"])
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        back = parse_config(["--config", str(path)])
        assert back == cfg

    def test_config_file_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"command": "free-check", "params": {"bogus": 1}}')
        with pytest.raises(InputError):
            parse_config(["--config", str(path)])

    @pytest.mark.parametrize("command", sorted(_build_parser()[1]))
    def test_required_keys_config_matches_flags(self, tmp_path, command):
        required = [a for a in _build_parser()[1][command]._actions if a.required]
        argv = [command]
        params = {}
        for action in required:
            argv += [action.option_strings[0], "3"]
            params[action.dest] = (action.type or str)("3")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": command, "params": params}))
        assert parse_config(["--config", str(path)]) == parse_config(argv)

    def test_config_omitting_optional_key_runs_as_flags(self, tmp_path):
        flags = ["--manifold", "circle", "--stages", "1", "--epsilon", "0.5",
                 "--target-scale", "1.2"]
        assert main(["run", *flags, "--out-prefix", str(tmp_path / "flags")]) == 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "run", "params": {
            "manifold": "circle", "stages": 1, "epsilon": 0.5, "target_scale": 1.2,
            "out_prefix": str(tmp_path / "config")}}))
        assert main(["--config", str(path)]) == 0
        for suffix in ("_report.csv", "_final.csv"):
            assert ((tmp_path / f"config{suffix}").read_bytes()
                    == (tmp_path / f"flags{suffix}").read_bytes())

    @pytest.mark.parametrize("text", [
        '{"command": "run", "params": {"stages": "1", "out_prefix": "x"}}',
        '{"command": "run", "params": {"stages": null, "out_prefix": "x"}}',
        '{"command": "run", "params": {"stages": 1.5, "out_prefix": "x"}}',
        '{"command": "run", "params": {"manifold": "sphere", "out_prefix": "x"}}',
        '{"command": "run", "params": {}}',
        '{"command": "warp", "params": {}}',
        '{"params": {}}',
        '["run"]',
        'run --stages 1',
    ])
    def test_bad_config_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["--config", str(path)]) == 2
        assert capsys.readouterr().err


class TestObjExport:
    def test_clifford_vertices(self, tmp_path):
        grid = PeriodicGrid((16, 16))
        w = clifford_map(grid, r=0.8)
        path = tmp_path / "mesh.obj"
        export_obj(w, path)
        assert parse_obj_counts(path) == (grid.num_nodes, grid.num_nodes)
        with open(path) as fh:
            lines = fh.read().splitlines()
        first = lines[0].split()
        assert first[0] == "v"
        assert all(np.isfinite(float(v)) for v in first[1:])
        # the last quad wraps across both seams back to vertex 1
        assert lines[-1] == "f 256 16 1 241"

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

    @pytest.mark.parametrize("line, bad", [
        (0, "# field immersion dim=1 res=16 N"),
        (0, "# field immersion dim=1 res=16,x N=2"),
        (0, "# field immersion dim=1 N=2 M=3"),
        (2, "1.0,abc"),
        (2, "1.0,2.0,3.0"),
        (1, "# offsets 1.0,x"),
        (1, "# offsets 1.0;2.0,3.0"),
    ], ids=["N-without-value", "res-not-integer", "res-missing", "row-not-a-number",
            "row-too-wide", "offset-not-a-number", "offsets-ragged"])
    def test_malformed_field_file_exits_2(self, tmp_path, capsys, line, bad):
        path = tmp_path / "w.csv"
        write_field(unit_circle_map(PeriodicGrid((16,)), ambient=2), path)
        lines = path.read_text().splitlines()
        lines[line] = bad
        path.write_text("\n".join(lines) + "\n")
        assert main(["free-check", "--in", str(path)]) == 2
        assert repr(bad) in capsys.readouterr().err

    def test_malformed_h_file_exits_2(self, tmp_path, capsys):
        grid = PeriodicGrid((16,))
        path = tmp_path / "h.csv"
        write_field(MetricField.identity(grid, 0.01), path)
        path.write_text(path.read_text().replace("N=1", "N"))
        code = main(["flow", "--h-file", str(path), "--resolution", "16",
                     "--out-prefix", str(tmp_path / "f")])
        assert code == 2
        assert "malformed field header" in capsys.readouterr().err

    @pytest.mark.parametrize("manifest", [
        "primitive id=0 patch=0", "primitive id=0 patch=x psi_linear=1,0",
        "primitive id=0 patch=0 psi_linear=1,y", "primitive id=0 patch psi_linear=1,0"],
        ids=["psi-linear-missing", "patch-not-integer", "psi-linear-not-a-number",
             "patch-without-value"])
    def test_malformed_primitive_manifest(self, tmp_path, manifest):
        from corrugate.decompose import global_decompose

        prims = global_decompose(MetricField.identity(PeriodicGrid((16, 16)), 1.44))
        path = tmp_path / "prims.csv"
        write_primitives(prims[:1], path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([manifest] + lines[1:]) + "\n")
        with pytest.raises(InputError, match="malformed primitive manifest") as err:
            read_primitives(path)
        assert repr(manifest) in str(err.value)

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

    def test_frame_command_on_clifford(self, tmp_path):
        w = clifford_map(PeriodicGrid((32, 32)))
        in_path, out_path = tmp_path / "w.csv", tmp_path / "frame.csv"
        write_field(w, in_path)
        assert main(["frame", "--in", str(in_path), "--out", str(out_path)]) == 0
        pair = read_frame(out_path)
        assert pair.grid.shape == (32, 32)
        pair.validate(w)

    def test_frame_command_on_tilted_flat_strip(self, tmp_path):
        # all four coordinate axes have the same normal residual at the seed
        c = np.sqrt(0.5)
        w = ImmersionField.from_periodic(PeriodicGrid((16, 16)), np.zeros((16, 16, 4)),
                                         [[c, c, 0.0, 0.0], [0.0, 0.0, c, c]])
        in_path, out_path = tmp_path / "w.csv", tmp_path / "frame.csv"
        write_field(w, in_path)
        assert main(["frame", "--in", str(in_path), "--out", str(out_path)]) == 0
        read_frame(out_path).validate(w)

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

    def test_run_command_torus_no_stages(self, tmp_path):
        prefix = str(tmp_path / "torus")
        code = main(["run", "--manifold", "torus", "--stages", "0",
                     "--resolution", "16", "--out-prefix", prefix])
        assert code == 0
        final = read_field(prefix + "_final.csv")
        assert isinstance(final, ImmersionField)
        assert final.grid.shape == (16, 16)
        assert np.array_equal(final.values, clifford_map(final.grid).values)
        header, rows = read_table(prefix + "_report.csv")
        assert header[0] == "stage" and rows == []
        assert parse_obj_counts(prefix + "_final.obj") == (256, 256)

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

    @pytest.mark.parametrize("option", [
        "flow --tol nan", "flow --smallness nan", "flow --t0 nan", "flow --tend nan",
        "run --epsilon nan", "run --epsilon inf"])
    def test_non_finite_option_exits_2(self, tmp_path, capsys, option):
        command, flag, value = option.split()
        # each base command finishes quickly where an option goes unchecked
        base = {"flow": ["--alpha", "0.04", "--tend", "16", "--resolution", "64"],
                "run": ["--manifold", "circle", "--stages", "1", "--resolution", "64",
                        "--target-scale", "1.2"]}[command]
        argv = [command, *base, flag, value, "--out-prefix", str(tmp_path / "x")]
        assert main(argv) == 2
        assert capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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

    def test_flow_lost_freeness_writes_its_steps(self, tmp_path, monkeypatch):
        import corrugate.flow as flow

        calls = []
        free_stack = flow._free_stack

        def free_for_40_calls(w):
            calls.append(w)
            stack, report = free_stack(w)
            return stack, report._replace(is_free=len(calls) <= 40)

        monkeypatch.setattr(flow, "_free_stack", free_for_40_calls)
        prefix = str(tmp_path / "flow")
        code = main(["flow", "--alpha", "0.04", "--tend", "16", "--resolution", "64",
                     "--out-prefix", prefix])
        assert code == 3
        # four right-hand sides per step: the 41st call opens step 11
        samples = parse_report(prefix + "_diagnostics.csv", "flow")
        assert [s.t for s in samples] == pytest.approx([10.0 + 0.05 * k for k in range(10)])
        assert not (tmp_path / "flow_final.csv").exists()

    def test_smooth_bench_command(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["smooth-bench", "--resolution", "128", "--out", str(out)])
        assert code == 0
        header, rows = read_table(out)
        assert header == ["family", "r", "s", "max_ratio"]
        assert all(float(row[3]) <= 64.0 for row in rows)

    @pytest.mark.parametrize("params", [
        {"pairs": "2;x"}, {"pairs": "1,2,3"}, {"pairs": "2"}, {"pairs": "1.5,0"},
        {"eps": "0.5,x"}, {"eps": "0.5;0.25"}, {"pairs": "-1,0"}, {"pairs": "2,0;0,-3"},
    ])
    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_smooth_bench_malformed_lists_exit_2(self, tmp_path, capsys, params, source):
        params = {"resolution": 16, "out": str(tmp_path / "b.csv"), **params}
        if source == "flags":
            argv = ["smooth-bench"] + [f"--{key}={value}" for key, value in params.items()]
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"command": "smooth-bench", "params": params}))
            argv = ["--config", str(path)]
        assert main(argv) == 2
        assert "smooth-bench needs" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()


    def test_smooth_bench_order_above_4_exits_4(self, tmp_path, capsys):
        code = main(["smooth-bench", "--resolution", "16", "--pairs=5,0",
                     "--out", str(tmp_path / "b.csv")])
        assert code == 4
        assert "derivative order 5 unsupported" in capsys.readouterr().err


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
            # the rows are the stored samples; the offsets line holds the linear part
            payload = f.data.reshape(16, -1)
            assert f.kind != "metric" or np.signbit(payload[0, 0])
            header = f"# field {f.kind} dim=1 res=16 N={payload.shape[1]}\n"
            if f.kind == "immersion":
                header += f"# offsets {self._old_row(f.offsets[0])}\n"
            expected = header + "".join(self._old_row(row) + "\n" for row in payload)
            assert path.read_text() == expected

    def test_report_bytes(self, tmp_path):
        from corrugate.corrugation import StageReport
        from corrugate.driver import RunReport
        from corrugate.flow import FlowDiagnostics, FlowSample

        odd = [-0.0, 1e-300, 5e-324, float("nan")]
        stage = StageReport(c0_delta=odd[0], c1_delta=odd[1], defect_before=odd[2],
                            defect_after=odd[3], lambdas=odd, resolution=(64, 32),
                            slack=2.2250738585072014e-309)
        header = "resolution,c0_delta,c1_delta,defect_before,defect_after,slack,lambdas\n"
        row = ("64x32," + self._old_row(odd + [stage.slack]) + ","
               + ";".join("{:.17g}".format(v) for v in odd) + "\n")
        sample = FlowSample(*(odd + odd + [0.1]))
        cases = [
            (stage, header + row),
            (RunReport(stage_reports=[stage, stage]), "stage," + header + "1," + row + "2," + row),
            (FlowDiagnostics(samples=[sample] * 2),
             ",".join(FlowSample._fields) + "\n" + 2 * (self._old_row(sample) + "\n")),
        ]
        path = tmp_path / "report.csv"
        for report, expected in cases:
            emit_report(report, path)
            assert path.read_text() == expected

    def test_table_bytes(self, tmp_path):
        from corrugate.fieldio import write_table

        path = tmp_path / "t.csv"
        rows = [["x", *self.VALUES[:4]], ["y", *self.VALUES[4:8]]]
        write_table(["name", "a", "b", "c", "d"], rows, path)
        expected = "name,a,b,c,d\n" + "".join(
            row[0] + "," + self._old_row(row[1:]) + "\n" for row in rows)
        assert path.read_text() == expected
