import json

import numpy as np
import pytest

from multexode import CoverageGap, LowerContext, NonMonotoneAbscissae, lower
from multexode.cli import ingest_samples, load_config, run
from multexode import Grid


def write(path, text):
    path.write_text(text)
    return str(path)


def read_csv(path):
    rows = np.array(
        [[float(v) for v in line.split(",")] for line in path.read_text().splitlines()[1:]]
    )
    return rows[:, 0], rows[:, 1] + 1j * rows[:, 2]


BASIC = """
# circular test problem
n = 2
a1 = 0
a2 = -4
ic = 1, 0
interval = -1:1
grid = 2000
tol = 1e-12
"""


class TestConfig:
    def test_missing_coefficient_named(self, tmp_path, capsys):
        cfg = write(tmp_path / "p.cfg", "n = 3\na1 = 0\na2 = x\nic = 1,0,0\n")
        code = run(["solve", "--config", cfg, "--output", str(tmp_path / "out")])
        assert code == 1
        assert "a3" in capsys.readouterr().err

    def test_bad_expression_offset_reported(self, tmp_path, capsys):
        cfg = write(tmp_path / "p.cfg", "n = 1\na1 = ((x\nic = 1\n")
        assert run(["solve", "--config", cfg]) == 1
        assert "offset" in capsys.readouterr().err

    def test_ic_count_checked(self, tmp_path, capsys):
        cfg = write(tmp_path / "p.cfg", "n = 2\na1 = 0\na2 = -1\nic = 1\n")
        assert run(["solve", "--config", cfg]) == 1
        assert "ic" in capsys.readouterr().err

    def test_mode_mismatch(self, tmp_path, capsys):
        cfg = write(tmp_path / "p.cfg", "mode = basis\nn = 1\na1 = 0\n")
        assert run(["solve", "--config", cfg]) == 1

    def test_overrides(self, tmp_path):
        cfg = write(tmp_path / "p.cfg", BASIC)
        parsed = load_config(cfg, {"grid": "400", "tol": "1e-10"})
        assert parsed.grid_n == 400
        assert parsed.tol == 1e-10


class TestIngest:
    def test_known_function_table(self, tmp_path, grid200):
        xs = np.linspace(-1.5, 1.5, 5001)
        lines = ["x,value"] + [f"{x:.12g},{np.cos(x):.12g}" for x in xs]
        table = tmp_path / "cos.csv"
        table.write_text("\n".join(lines))
        s = ingest_samples(table)
        got = lower(s, LowerContext(grid200))
        assert np.max(np.abs(got.values - np.cos(grid200.nodes))) <= 1e-8

    def test_coverage_gap(self, tmp_path, grid200):
        xs = np.linspace(0.0, 1.0, 101)
        table = tmp_path / "half.csv"
        table.write_text("\n".join(f"{x},{x}" for x in xs))
        s = ingest_samples(table)
        with pytest.raises(CoverageGap):
            lower(s, LowerContext(grid200))

    def test_duplicate_abscissa(self, tmp_path):
        table = tmp_path / "dup.csv"
        table.write_text("0.0,1\n0.5,1\n0.5,2\n1.0,1\n")
        with pytest.raises(NonMonotoneAbscissae) as exc:
            ingest_samples(table)
        assert "row" in str(exc.value)

    def test_complex_column(self, tmp_path, grid200):
        xs = np.linspace(-1.5, 1.5, 2001)
        table = tmp_path / "cx.csv"
        table.write_text("\n".join(f"{x},{np.cos(x)},{np.sin(x)}" for x in xs))
        s = ingest_samples(table)
        got = lower(s, LowerContext(grid200))
        ref = np.cos(grid200.nodes) + 1j * np.sin(grid200.nodes)
        assert np.max(np.abs(got.values - ref)) <= 1e-9


class TestRuns:
    def test_solve_writes_cosine(self, tmp_path):
        cfg = write(tmp_path / "p.cfg", BASIC)
        out = tmp_path / "out"
        assert run(["solve", "--config", cfg, "--output", str(out)]) == 0
        xs, ys = read_csv(out / "solution.csv")
        assert np.max(np.abs(ys - np.cos(2 * xs))) <= 1e-8

    def test_basis_writes_all_members(self, tmp_path):
        cfg = write(tmp_path / "p.cfg", "mode = basis\nn = 3\na1 = 0\na2 = x\na3 = 1\ngrid = 500\n")
        out = tmp_path / "out"
        assert run(["basis", "--config", cfg, "--output", str(out)]) == 0
        for k in (1, 2, 3):
            assert (out / f"psi_{k}.csv").exists()

    def test_compare_report_passes(self, tmp_path):
        cfg = write(
            tmp_path / "p.cfg",
            "mode = compare\nn = 3\na1 = 0\na2 = 1+x^2\na3 = x\nic = 1, 0, 0\ngrid = 1000\ninterval = -0.75:0.75\n",
        )
        out = tmp_path / "out"
        assert run(["compare", "--config", cfg, "--output", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is True
        assert report["max_abs_err"] <= 1e-6
        assert report["member_diagnostics"][0]["converged"] is True

    def test_compare_failure_exits_nonzero(self, tmp_path):
        cfg = write(
            tmp_path / "p.cfg",
            "mode = compare\nn = 2\na1 = 0\na2 = -4\nic = 1, 0\ngrid = 2000\ncompare_tol = 1e-18\n",
        )
        out = tmp_path / "out"
        assert run(["compare", "--config", cfg, "--output", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is False

    def test_preset_schrodinger(self, tmp_path):
        cfg = write(
            tmp_path / "p.cfg",
            "preset = schrodinger\nzeta = 1\nomega = 2\ngrid = 2000\n",
        )
        out = tmp_path / "out"
        assert run(["preset", "--config", cfg, "--output", str(out)]) == 0
        xs, c = read_csv(out / "c.csv")
        assert np.max(np.abs(c - np.cos(2 * xs))) <= 1e-8

    def test_preset_orr(self, tmp_path):
        cfg = write(tmp_path / "p.cfg", "preset = orr\na2 = 0\na4 = 0\ngrid = 200\n")
        out = tmp_path / "out"
        assert run(["preset", "--config", cfg, "--output", str(out)]) == 0
        xs, p4 = read_csv(out / "psi_4.csv")
        assert np.max(np.abs(p4 - xs**3 / 6)) <= 1e-12

    @pytest.mark.parametrize(
        "body, ic, members",
        [
            ("preset = orr\na2 = -1+x\na4 = 1/2\n", "1, 0.5, -0.25, 2j", ("psi_1", "psi_2", "psi_3", "psi_4")),
            ("preset = schrodinger\nzeta = 2+x\nomega = 1.5\n", "1, -0.5+0.25j", ("c", "s")),
        ],
    )
    def test_preset_solution_combines_members(self, tmp_path, body, ic, members):
        cfg = write(tmp_path / "p.cfg", f"{body}ic = {ic}\ngrid = 200\n")
        out = tmp_path / "out"
        assert run(["preset", "--config", cfg, "--output", str(out)]) == 0
        _, y = read_csv(out / "solution.csv")
        expected = 0
        for c, name in zip(ic.split(","), members, strict=True):
            expected = expected + complex(c) * read_csv(out / f"{name}.csv")[1]
        assert np.array_equal(y, expected)

    def test_json_format(self, tmp_path):
        cfg = write(tmp_path / "p.cfg", BASIC)
        out = tmp_path / "out"
        assert run(["solve", "--config", cfg, "--output", str(out), "--format", "json"]) == 0
        doc = json.loads((out / "result.json").read_text())
        ys = np.array(doc["functions"]["solution"]["re"])
        xs = np.array(doc["x"])
        assert np.max(np.abs(ys - np.cos(2 * xs))) <= 1e-8

    def test_not_converged_exit_code(self, tmp_path):
        cfg = write(
            tmp_path / "p.cfg",
            "n = 2\na1 = 0\na2 = -400\nic = 1, 0\nmax_terms = 4\ntol = 1e-16\ngrid = 200\n",
        )
        assert run(["solve", "--config", cfg, "--output", str(tmp_path / "o")]) == 2

    def test_overflow_exit_code(self, tmp_path):
        # the trig series of a near-singular divisor overflows at N = 400
        cfg = write(
            tmp_path / "p.cfg",
            "n = 3\na1 = 0\na2 = -40+3*x\na3 = 1\nic = 1, 0.3, -0.2\n"
            "interval = -0.75:0.75\ngrid = 400\ntol = 1e-13\n",
        )
        assert run(["solve", "--config", cfg, "--output", str(tmp_path / "o")]) == 2

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write(
            tmp_path / "p.cfg",
            "mode = compare\nn = 2\na1 = sin(x)\na2 = 1+x\nic = 1, 0.5\ngrid = 500\n",
        )
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run(["compare", "--config", cfg, "--output", str(out1)]) == 0
        assert run(["compare", "--config", cfg, "--output", str(out2)]) == 0
        for name in ("solution.csv", "oracle_series.csv", "oracle_stepper.csv", "report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_sampled_impedance_needs_numeric_diff_flag(self, tmp_path, capsys):
        xs = np.linspace(-1.5, 1.5, 4001)
        (tmp_path / "zeta.csv").write_text("\n".join(f"{x},{2 + np.sin(x)}" for x in xs))
        cfg = write(
            tmp_path / "p.cfg",
            "preset = schrodinger\nzeta = @zeta.csv\nomega = 1\ngrid = 500\n",
        )
        out = tmp_path / "out"
        assert run(["preset", "--config", cfg, "--output", str(out)]) == 1
        assert "numeric" in capsys.readouterr().err
        assert run(["preset", "--config", cfg, "--output", str(out), "--numeric-diff"]) == 0
        xs2, c = read_csv(out / "c.csv")
        from multexode import preset_schrodinger

        ref = preset_schrodinger("2 + sin(x)", 1.0, Grid.aligned(-1, 1, 500)).psi[0]
        assert np.max(np.abs(c - ref.values)) <= 1e-6

    def test_threads_env_validated(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MULTEXODE_THREADS", "zero")
        cfg = write(tmp_path / "p.cfg", BASIC)
        assert run(["solve", "--config", cfg, "--output", str(tmp_path / "o")]) == 1
        assert "MULTEXODE_THREADS" in capsys.readouterr().err
