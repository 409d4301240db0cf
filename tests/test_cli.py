import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from multexode import CoverageGap, GridFn, Interval, LowerContext, NonMonotoneAbscissae, lower
from multexode.cli import _result_json, ingest_samples, load_config, run, write_function_csv
from multexode import Grid, IVProblem, solve_ivp


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
ORR = "preset = orr\na2 = -1+x\na4 = 1/2\n"
SCHRODINGER = "preset = schrodinger\nzeta = 2+x\nomega = 1.5\n"


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
        # a1..a9 are config keys, not names an expression can refer to
        cfg = write(tmp_path / "q.cfg", "n = 2\na1 = 0\na2 = a1*x - 1\nic = 1, 0\n")
        assert run(["solve", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "a2" in err and "offset 0" in err and "found 'a1'" in err

    def test_nesting_too_deep_is_a_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path / "p.cfg", "n = 1\na1 = " + "(" * 300 + "x" + ")" * 300 + "\nic = 1\n")
        assert run(["solve", "--config", cfg, "--output", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("multexode: a1: syntax error at offset 0") and "nesting too deep" in err

    @pytest.mark.parametrize(
        "command, text, key",
        [
            pytest.param("solve", BASIC + "gird = 400\n", "gird", id="gird = 400"),
            pytest.param("solve", BASIC + "max_terms = 50\n", "max_terms", id="max_terms = 50"),
            # accepted keys that the chosen mode never reads
            pytest.param("solve", "n = 2\na1 = 0\na2 = -4\na3 = x\nzeta = 2\nic = 1, 0\n", "a3", id="a3-beyond-n"),
            pytest.param("solve", BASIC + "zeta = 2\n", "zeta", id="zeta-in-solve"),
            pytest.param("compare", "mode = compare\n" + BASIC + "omega = 1\n", "omega", id="omega-in-compare"),
            pytest.param("preset", ORR + "mode = compare\n", "mode", id="mode-with-preset"),
            pytest.param("preset", ORR + "n = 4\n", "n", id="n-in-orr"),
            pytest.param("preset", ORR + "a1 = 0\n", "a1", id="a1-in-orr"),
            pytest.param("preset", ORR + "omega = 1\n", "omega", id="omega-in-orr"),
            pytest.param("preset", SCHRODINGER + "n = 2\n", "n", id="n-in-schrodinger"),
            pytest.param("preset", SCHRODINGER + "a2 = x\n", "a2", id="a2-in-schrodinger"),
        ],
    )
    def test_unknown_key_named(self, tmp_path, capsys, command, text, key):
        cfg = write(tmp_path / "p.cfg", text)
        assert run([command, "--config", cfg, "--output", str(tmp_path / "out")]) == 1
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "setting, key",
        [
            ("tol = nan", "tol"),
            ("tol = inf", "tol"),
            ("tol = 0", "tol"),
            ("compare_tol = nan", "compare_tol"),
            ("compare_tol = inf", "compare_tol"),
            ("compare_tol = -1e-6", "compare_tol"),
            ("ic = nan, 0", "ic"),
            ("ic = inf, 0", "ic"),
            ("interval = -inf:1", "interval"),
            ("omega = nan", "omega"),
        ],
    )
    def test_bad_value_named(self, tmp_path, capsys, setting, key):
        if key == "omega":
            command, lines = "preset", ["preset = schrodinger", "zeta = 1", "ic = 1, 0", "grid = 200"]
        else:
            command, lines = "compare", ["mode = compare", "n = 2", "a1 = 0", "a2 = -4", "ic = 1, 0", "grid = 200"]
        # the setting replaces a line of the same key
        lines = [line for line in lines if line.split(" = ")[0] != key] + [setting]
        cfg = write(tmp_path / "p.cfg", "\n".join(lines) + "\n")
        assert run([command, "--config", cfg, "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"multexode: {key}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "body, ic",
        [("n = 2\na1 = 0\na2 = -4\n", "1, 0"), (ORR, "1, 0, 0, 0"), (SCHRODINGER, "1, 0")],
        ids=["solve", "orr", "schrodinger"],
    )
    def test_shared_keys_accepted_in_every_mode(self, tmp_path, body, ic):
        shared = f"ic = {ic}\ninterval = -1:1\ngrid = 200\ntol = 1e-10\ncompare_tol = 1e-7\n"
        cfg = load_config(write(tmp_path / "p.cfg", body + shared))
        assert (cfg.grid_n, cfg.tol, cfg.compare_tol) == (200, 1e-10, 1e-7)

    def test_readme_config_examples_load(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Config format", 1)[1].split("\n##", 1)[0]
        blocks = re.findall(r"```\n(.*?)```", section, re.S)
        assert len(blocks) == 3  # solve, schrodinger, orr
        for block in blocks:
            load_config(write(tmp_path / "p.cfg", block))

    def test_ic_count_checked(self, tmp_path, capsys):
        cfg = write(tmp_path / "p.cfg", "n = 2\na1 = 0\na2 = -1\nic = 1\n")
        assert run(["solve", "--config", cfg]) == 1
        assert "ic" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, ic",
        [
            ("preset = orr\na2 = -1+x\na4 = 1/2\n", "1, 0, 0"),
            ("preset = schrodinger\nzeta = 2+x\nomega = 1.5\n", "1, 0, 0"),
        ],
        ids=["orr", "schrodinger"],
    )
    def test_preset_ic_count_checked(self, tmp_path, capsys, body, ic):
        cfg = write(tmp_path / "p.cfg", f"{body}ic = {ic}\ngrid = 200\n")
        assert run(["preset", "--config", cfg, "--output", str(tmp_path / "out")]) == 1
        assert "ic" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, table, named",
        [
            pytest.param("n = 1\na1 = @t.csv\nic = 1\n", "x, y\n-1, 0\nfoo, 2\n", "t.csv: line 3 is not numeric",
                         id="table-text-after-data"),
            pytest.param("n = 1\na1 = @t.csv\nic = 1\n", "-1\n", "t.csv: line 1 has 1 columns", id="table-1-column"),
            pytest.param("n = 1\na1 = @t.csv\nic = 1\n", "-1, 0, 0, 0\n", "t.csv: line 1 has 4 columns",
                         id="table-4-columns"),
            pytest.param("n = 1\na1 = @t.csv\nic = 1\n", "-1, 0\n0, 0\n1, 0\n", "t.csv: need at least 4",
                         id="table-3-rows"),
            pytest.param("n = 1\na1 0\n", None, "p.cfg: line 2 is not 'key = value'", id="no-equals"),
            pytest.param("n = 1\n= 0\n", None, "p.cfg: line 2 has an empty key", id="empty-key"),
            pytest.param("n = 1\na1 =\n", None, "p.cfg: line 2 has an empty key or value", id="empty-value"),
            pytest.param("n = 1\nn = 2\n", None, "p.cfg: duplicate key 'n' at line 2", id="duplicate-key"),
            pytest.param("n = 1\na1 = @t.csv\nic = 1\n", None, "a1: sample table", id="missing-table"),
            pytest.param("n = 1\na1 = 0\nic = one\n", None, "ic: 'one' is not a complex number", id="ic-not-complex"),
            pytest.param("preset = schrodinger\nzeta = 1\nomega = fast\n", None, "omega: 'fast' is not a complex",
                         id="omega-not-complex"),
            pytest.param("preset = airy\n", None, "preset: unknown preset 'airy'", id="unknown-preset"),
            pytest.param("mode = plot\n", None, "mode: unknown mode 'plot'", id="unknown-mode"),
            pytest.param("interval = 1\n", None, "interval: expected LO:HI", id="interval-not-lo-hi"),
            pytest.param("interval = 0.5:1\n", None, "interval: [0.5, 1.0] must contain 0", id="interval-without-0"),
            pytest.param("grid = many\n", None, "grid: 'many' is not a int", id="grid-not-numeric"),
            pytest.param("tol = small\n", None, "tol: 'small' is not a float", id="tol-not-numeric"),
            pytest.param("compare_tol = x\n", None, "compare_tol: 'x' is not a float", id="compare-tol-not-numeric"),
            pytest.param("grid = 201\n", None, "grid: N must be even and >= 16, got 201", id="grid-odd"),
            pytest.param("grid = 8\n", None, "grid: N must be even and >= 16, got 8", id="grid-small"),
            pytest.param("preset = schrodinger\nomega = 1\n", None, "zeta: required", id="zeta-missing"),
            pytest.param("preset = schrodinger\nzeta = 1\n", None, "omega: required", id="omega-missing"),
            pytest.param("preset = orr\na4 = 1\n", None, "a2: required", id="a2-missing"),
            pytest.param("preset = orr\na2 = 1\n", None, "a4: required", id="a4-missing"),
            pytest.param("a1 = 0\nic = 1\n", None, "n: required", id="n-missing"),
            pytest.param("n = 1.5\n", None, "n: '1.5' is not an integer", id="n-not-integer"),
            pytest.param("n = 0\n", None, "n: order must be in 1..9, got 0", id="n-0"),
            pytest.param("n = 10\n", None, "n: order must be in 1..9, got 10", id="n-10"),
        ],
    )
    def test_config_error_named(self, tmp_path, capsys, text, table, named):
        if table is not None:
            (tmp_path / "t.csv").write_text(table)
        cfg = write(tmp_path / "p.cfg", text)
        # every config error is raised before the subcommand is matched to the mode
        assert run(["solve", "--config", cfg, "--output", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("multexode: ") and named in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_named(self, tmp_path, capsys):
        assert run(["solve", "--config", str(tmp_path / "absent.cfg")]) == 1
        assert "absent.cfg does not exist" in capsys.readouterr().err

    def test_bad_arguments_exit_1(self, capsys):
        assert run([]) == 1
        assert "usage: multexode" in capsys.readouterr().err

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

    @pytest.mark.parametrize("imag", ["", ",0"], ids=["two_columns", "zero_imaginary"])
    def test_real_table_ingests_as_float(self, tmp_path, imag):
        table = tmp_path / "real.csv"
        table.write_text("\n".join(f"{x},{np.cos(x)}{imag}" for x in np.linspace(-1.5, 1.5, 101)))
        assert ingest_samples(table).ys.dtype == np.float64

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_named(self, tmp_path, capsys, bad):
        table = tmp_path / "bad.csv"
        xs = np.linspace(-1.5, 1.5, 101)
        table.write_text("x,value\n" + "\n".join(f"{x},{bad if i == 5 else np.cos(x)}" for i, x in enumerate(xs)))
        cfg = write(tmp_path / "p.cfg", f"n = 2\na1 = 0\na2 = @{table}\nic = 1, 0\n")
        assert run(["solve", "--config", cfg, "--output", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "bad.csv" in err and "line 7" in err and "not finite" in err

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

    def test_order9_solves_and_compares(self, tmp_path):
        # the top of the documented range 1..9: y^(9) = y
        body = "n = 9\n" + "".join(f"a{j} = 0\n" for j in range(1, 9))
        body += "a9 = 1\nic = 1, 0, 0, 0, 0, 0, 0, 0, 0\ngrid = 2000\n"
        assert run(["solve", "--config", write(tmp_path / "p.cfg", body), "--output", str(tmp_path / "s")]) == 0
        cfg = write(tmp_path / "c.cfg", "mode = compare\n" + body)
        assert run(["compare", "--config", cfg, "--output", str(tmp_path / "c")]) == 0
        report = json.loads((tmp_path / "c" / "report.json").read_text())
        assert report["pass"] is True
        assert max(report["max_abs_err_series_oracle"], report["max_abs_err_stepper_oracle"]) <= 1e-6

    def test_compare_failure_exits_nonzero(self, tmp_path):
        cfg = write(
            tmp_path / "p.cfg",
            "mode = compare\nn = 2\na1 = 0\na2 = -4\nic = 1, 0\ngrid = 2000\ncompare_tol = 1e-18\n",
        )
        out = tmp_path / "out"
        assert run(["compare", "--config", cfg, "--output", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is False

    def test_compare_follows_solve_across_a_cut(self, tmp_path):
        # a1 = 1/(x-0.5) divides inside the window; compare checks the
        # interval solve reports instead of rejecting the input
        body = "n = 1\na1 = 1/(x-0.5)\nic = 1\ninterval = -1:1\ngrid = 2000\n"
        cfg = write(tmp_path / "p.cfg", body)
        cmp_cfg = write(tmp_path / "c.cfg", "mode = compare\n" + body)
        assert run(["solve", "--config", cfg, "--output", str(tmp_path / "s")]) == 0
        assert run(["compare", "--config", cmp_cfg, "--output", str(tmp_path / "c")]) in (0, 2)
        report = json.loads((tmp_path / "c" / "report.json").read_text())
        _, bs = solve_ivp(IVProblem(1, ("1/(x-0.5)",), (1,)), Grid(-1, 1, 2000))
        assert report["validity"] == [bs.validity.lo, bs.validity.hi]
        assert report["validity"] == pytest.approx([-1.0, 0.498], abs=1e-12)
        assert (tmp_path / "c" / "solution.csv").read_bytes() == (tmp_path / "s" / "solution.csv").read_bytes()

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
        "body, ic, members, command",
        [
            ("preset = orr\na2 = -1+x\na4 = 1/2\n", "1, 0.5, -0.25, 2j", ("psi_1", "psi_2", "psi_3", "psi_4"), "preset"),
            ("preset = schrodinger\nzeta = 2+x\nomega = 1.5\n", "1, -0.5+0.25j", ("c", "s"), "preset"),
            ("mode = basis\nn = 2\na1 = 0\na2 = -4\n", "1, -0.5+0.25j", ("psi_1", "psi_2"), "basis"),
        ],
    )
    def test_preset_solution_combines_members(self, tmp_path, body, ic, members, command):
        cfg = write(tmp_path / "p.cfg", f"{body}ic = {ic}\ngrid = 200\n")
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--output", str(out)]) == 0
        _, y = read_csv(out / "solution.csv")
        expected = 0
        for c, name in zip(ic.split(","), members, strict=True):
            expected = expected + complex(c) * read_csv(out / f"{name}.csv")[1]
        assert np.array_equal(y, expected)

    def test_collapsed_validity_exit_code(self, tmp_path, capsys):
        # poles at +-0.025 leave two cells of validity once the margin is off
        cfg = write(tmp_path / "p.cfg", "n = 1\na1 = 1/((x-0.025)*(x+0.025))\nic = 1\ngrid = 200\n")
        assert run(["solve", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        assert "grid cells" in capsys.readouterr().err

    def test_json_format(self, tmp_path):
        cfg = write(tmp_path / "p.cfg", BASIC)
        out = tmp_path / "out"
        assert run(["solve", "--config", cfg, "--output", str(out), "--format", "json"]) == 0
        doc = json.loads((out / "result.json").read_text())
        ys = np.array(doc["functions"]["solution"]["re"])
        xs = np.array(doc["x"])
        assert np.max(np.abs(ys - np.cos(2 * xs))) <= 1e-8

    def test_a_long_chain_of_operators_solves(self, tmp_path):
        cfg = write(tmp_path / "p.cfg", "n = 2\na1 = 0\na2 = -1" + " - 0.0001*x" * 2000 + "\nic = 1, 0\ngrid = 200\n")
        assert run(["solve", "--config", cfg, "--output", str(tmp_path / "o")]) == 0

    def test_not_converged_exit_code(self, tmp_path):
        cfg = write(
            tmp_path / "p.cfg",
            "n = 2\na1 = 0\na2 = -10000\nic = 1, 0\ngrid = 200\n",
        )
        assert run(["solve", "--config", cfg, "--output", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            # the trig series of a near-singular divisor overflows at N = 400
            "n = 3\na1 = 0\na2 = -40+3*x\na3 = 1\nic = 1, 0.3, -0.2\n"
            "interval = -0.75:0.75\ngrid = 400\ntol = 1e-13\n",
            # a coefficient that is not finite on the grid
            "n = 2\na1 = exp(800*x)\na2 = -1\nic = 1, 0\ngrid = 200\n",
            # initial data whose combination of the members is not finite
            "n = 2\na1 = 0\na2 = -4\nic = 1.7e308, 1.7e308\ngrid = 2000\n",
        ],
        ids=["trig_series", "coefficient", "initial_data"],
    )
    def test_overflow_exit_code(self, tmp_path, text):
        cfg = write(tmp_path / "p.cfg", text)
        assert run(["solve", "--config", cfg, "--output", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "fmt, names",
        [
            ("csv", ("solution.csv", "oracle_series.csv", "oracle_stepper.csv", "report.json")),
            ("json", ("result.json",)),
        ],
        ids=["csv", "json"],
    )
    def test_determinism_byte_identical(self, tmp_path, fmt, names):
        cfg = write(
            tmp_path / "p.cfg",
            "mode = compare\nn = 2\na1 = sin(x)\na2 = 1+x\nic = 1, 0.5\ngrid = 500\n",
        )
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run(["compare", "--config", cfg, "--output", str(out1), "--format", fmt]) == 0
        assert run(["compare", "--config", cfg, "--output", str(out2), "--format", fmt]) == 0
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_json_solve_matches_csv(self, tmp_path):
        cfg = write(tmp_path / "p.cfg", "n = 3\na1 = sin(x)\na2 = 1+x^2\na3 = x\nic = 1, 0.5j, -0.25\ngrid = 400\n")
        assert run(["solve", "--config", cfg, "--output", str(tmp_path / "c")]) == 0
        assert run(["solve", "--config", cfg, "--output", str(tmp_path / "j"), "--format", "json"]) == 0
        xs, ys = read_csv(tmp_path / "c" / "solution.csv")
        doc = json.loads((tmp_path / "j" / "result.json").read_text())
        sol = doc["functions"]["solution"]
        assert doc["x"] == xs.tolist()
        assert sol["re"] == ys.real.tolist() and sol["im"] == ys.imag.tolist()

    def test_sampled_impedance_runs_without_a_flag(self, tmp_path):
        xs = np.linspace(-1.5, 1.5, 4001)
        (tmp_path / "zeta.csv").write_text("\n".join(f"{x},{2 + np.sin(x)}" for x in xs))
        cfg = write(
            tmp_path / "p.cfg",
            "preset = schrodinger\nzeta = @zeta.csv\nomega = 1\ngrid = 500\n",
        )
        out = tmp_path / "out"
        assert run(["preset", "--config", cfg, "--output", str(out)]) == 0
        xs2, c = read_csv(out / "c.csv")
        from multexode import preset_schrodinger

        ref = preset_schrodinger("2 + sin(x)", 1.0, Grid.aligned(-1, 1, 500)).psi[0]
        assert np.max(np.abs(c - ref.values)) <= 1e-6

    def test_numeric_diff_key_is_unknown(self, tmp_path, capsys):
        cfg = write(tmp_path / "p.cfg", "preset = schrodinger\nzeta = 2+x\nomega = 1\nnumeric_diff = true\n")
        assert run(["preset", "--config", cfg, "--output", str(tmp_path / "out")]) == 1
        assert "numeric_diff" in capsys.readouterr().err


# floats whose repr takes every form: signed zero, subnormal, exponent with a
# negative two-digit, positive and three-digit power, and the largest double
EDGE_FLOATS = (-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308)
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
FLOAT_LISTS = st.lists(FLOATS, min_size=1, max_size=12)
REPORT = st.recursive(
    st.none() | st.booleans() | st.integers() | FLOATS | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def csv_by_format_loop(fn, validity):
    """The per-value format(v, ".17g") loop write_function_csv replaced, kept
    as the reference for its bytes."""
    keep = fn.grid.mask(validity)
    lines = ["x,re,im"]
    for x, v in zip(fn.grid.nodes[keep], fn.values[keep]):
        lines.append(f"{format(x, '.17g')},{format(v.real, '.17g')},{format(v.imag, '.17g')}")
    return "\n".join(lines) + "\n"


class TestWriters:
    @settings(max_examples=150, deadline=None)
    @given(
        xs=FLOAT_LISTS,
        functions=st.dictionaries(
            st.sampled_from(["solution", "oracle_series", "oracle_stepper", "psi_1", "c", "s"]),
            st.fixed_dictionaries({"re": FLOAT_LISTS, "im": FLOAT_LISTS}),
            min_size=1,
            max_size=4,
        ),
        report=st.none() | st.dictionaries(st.text(max_size=6), REPORT, max_size=6),
    )
    def test_json_emitter_matches_json_dumps(self, xs, functions, report):
        doc = {"x": xs, "functions": functions}
        if report is not None:
            doc["report"] = report
        assert _result_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @settings(max_examples=60, deadline=None)
    @given(
        re=arrays(float, 201, elements=FLOATS),
        im=arrays(float, 201, elements=FLOATS),
        lo=st.integers(0, 96),
        hi=st.integers(104, 200),
    )
    def test_csv_writer_matches_format_loop(self, tmp_path_factory, re, im, lo, hi):
        grid = Grid(-1.0, 1.0, 200)
        values = np.empty(201, dtype=complex)
        values.real, values.imag = re, im  # keeps -0.0 in both parts
        fn = GridFn(grid, values)
        validity = Interval(float(grid.nodes[lo]), float(grid.nodes[hi]))
        path = tmp_path_factory.mktemp("csv") / "f.csv"
        write_function_csv(path, fn, validity)
        assert path.read_bytes() == csv_by_format_loop(fn, validity).encode()
