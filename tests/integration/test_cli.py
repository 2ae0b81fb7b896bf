"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_constants_command(self, capsys):
        assert main(["constants"]) == 0
        output = capsys.readouterr().out
        assert "eps" in output
        assert "Appendix B constraints: satisfied" in output
        assert "0.65686" in output or "0.656856" in output

    def test_counters_command_prints_capability_table(self, capsys):
        assert main(["counters"]) == 0
        output = capsys.readouterr().out
        for name in ("assadi-shah", "brute-force", "hhh22", "phase-fmm", "wedge"):
            assert name in output
        assert "batch_hook" in output and "oracle" in output
        assert "phase_length" in output  # options column lists counter knobs
        assert "O(n)" in output  # asymptotic class column

    def test_compare_rejects_bad_vertices(self, capsys):
        with pytest.raises(SystemExit):
            main(["compare", "--vertices", "-3"])

    def test_compare_command(self, capsys):
        assert main(["compare", "--vertices", "12", "--updates", "60", "--counters", "wedge,hhh22"]) == 0
        output = capsys.readouterr().out
        assert "wedge" in output and "hhh22" in output
        assert "final_count" in output

    def test_compare_all_counters_small(self, capsys):
        assert main(["compare", "--vertices", "10", "--updates", "40", "--workload", "hubs"]) == 0
        output = capsys.readouterr().out
        assert "assadi-shah" in output

    def test_omega_sweep_command(self, capsys):
        assert main(["omega-sweep", "--step", "0.25"]) == 0
        output = capsys.readouterr().out
        assert "omega" in output
        assert "yes" in output and "no" in output

    def test_parser_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_bench_command_writes_artifacts(self, capsys, tmp_path):
        assert (
            main(
                [
                    "bench",
                    "--quick",
                    "--experiments",
                    "e11",
                    "--output-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "E11" in output and "wrote" in output
        artifact = tmp_path / "BENCH_E11.json"
        assert artifact.exists()
        import json

        payload = json.loads(artifact.read_text())
        assert payload["benchmark"] == "E11"
        assert payload["params"]["batch_size"] == 64
        kernels = {row["kernel"] for row in payload["rows"]}
        assert kernels == {"wedge-updates", "hhh22-updates", "assadi-shah-updates"}
        assert {row["variant"] for row in payload["rows"]} == {"per-update", "batched"}
        assert all(row["consistent"] for row in payload["rows"])
        assert [row["speedup"] for row in payload["rows"] if row["variant"] == "per-update"] == [
            1.0
        ] * 3

    def test_bench_has_no_backend_option(self):
        with pytest.raises(SystemExit):
            main(["bench", "--quick", "--backend", "csr"])

    def test_batch_throughput_prints_throughput_rows(self, capsys):
        argv = ["batch-throughput", "--vertices", "8", "--updates", "32", "--batch-sizes", "1,8"]
        assert main(argv + ["--counters", "wedge"]) == 0
        output = capsys.readouterr().out
        assert "speedup" in output and "consistent" in output
        assert "batch=8" in output

    def test_bench_command_rejects_unknown_experiment(self, capsys):
        assert main(["bench", "--experiments", "e99"]) == 2
        assert "unknown experiment" in capsys.readouterr().out
