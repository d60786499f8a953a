"""CLI tests: parsing, exit codes, determinism, options from flags only, round trips.

main() takes argv and returns the exit code, so everything runs in-process.
"""

import json
import math
import os
import re
import warnings
from pathlib import Path

import pytest

import bffkit.specfun as sf
from bffkit.cli import main, summarize_rows
from bffkit.evidence import EffectGrid

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_curve_file(path: str):
    """Parse a curve CSV written by `bffkit curve` back into rows and
    summary metadata."""
    rows: list[tuple[float, float, float]] = []
    meta: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        assert fh.readline().strip() == "omega,r_star,log_bf10"
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
                continue
            omega, r_star, log_bf10 = map(float, line.split(","))
            rows.append((omega, r_star, log_bf10))
    return rows, meta


def write_rows(path: Path, rows: list[str]):
    header = "test,sided,stat,nu,k,m,n,n1,n2,rho,design"
    path.write_text("\n".join([header, *rows]) + "\n")


class TestPoint:
    def test_fig1_fixed_r(self, capsys):
        code, out, _ = run(
            capsys, "point", "--file", str(DATA / "fig1.csv"), "--omega", "0.11", "--r", "1"
        )
        assert code == 0
        assert "log_bf10 = 0.9720364382" in out
        assert "study 0:" in out

    def test_single_row_mmap_returns_r_one(self, capsys):
        code, out, _ = run(
            capsys, "point", "--file", str(DATA / "fig1.csv"), "--omega", "0.11"
        )
        assert code == 0
        r_line = next(l for l in out.splitlines() if l.startswith("r_star"))
        assert abs(float(r_line.split("=")[1]) - 1.0) <= 1e-3

    def test_omega_zero_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "point", "--file", str(DATA / "fig1.csv"), "--omega", "0"
        )
        assert code == 2
        assert "omega" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "point", "--file", "/no/such.csv", "--omega", "0.1")
        assert code == 2

    def test_numeric_failure_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(sf, "TERM_CAP", 4)
        code, _, err = run(
            capsys, "point", "--file", str(DATA / "stroop.csv"), "--omega", "0.5", "--r", "1"
        )
        assert code == 3
        assert "numeric error" in err
        assert "study 0" in err  # failure tagged with the study index


class TestParsing:
    def test_unknown_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("test,sided,stat,oops\nz,one,1.0,1\n")
        code, _, err = run(capsys, "point", "--file", str(bad), "--omega", "0.1")
        assert code == 2
        assert "oops" in err

    def test_row_number_in_error(self, tmp_path, capsys):
        f = tmp_path / "s.csv"
        write_rows(f, ["z,one,1.0,,,,50,,,,one_sample_z", "z,one,abc,,,,50,,,,one_sample_z"])
        code, _, err = run(capsys, "point", "--file", str(f), "--omega", "0.1")
        assert code == 2
        assert "row 3" in err

    def test_stat_and_rho_mutually_exclusive(self, tmp_path, capsys):
        f = tmp_path / "s.csv"
        write_rows(f, ["z,,1.0,,,,50,,,0.2,correlation_z"])
        code, _, err = run(capsys, "point", "--file", str(f), "--omega", "0.1")
        assert code == 2
        assert "exactly one" in err

    def test_zt_requires_sided(self, tmp_path, capsys):
        f = tmp_path / "s.csv"
        write_rows(f, ["t,,2.0,10,,,11,,,,one_sample_t"])
        code, _, err = run(capsys, "point", "--file", str(f), "--omega", "0.1")
        assert code == 2
        assert "sided" in err

    @pytest.mark.parametrize(
        "row, message",
        [
            ("q,one,1.0,,,,50,,,,one_sample_z", "unknown test 'q'"),
            ("z,one,1.0,,,,50,,,,three_sample_z", "unknown design 'three_sample_z'"),
            ("z,both,1.0,,,,50,,,,one_sample_z", "unknown sidedness 'both'"),
            ("z,,1.0,,,,50,,,,one_sample_z", "z statistics require sided"),
            ("t,two,2.1,58,,,60,30,30,,two_sample_t", "two-sample designs take n1/n2, not n"),
            ("z,one,1.0,,,,50,25,25,,one_sample_z", "one_sample_z takes a single sample size n"),
            # stray cells go to TestStatistic, which rejects them
            ("chisq,one,3.0,7,2,,50,,,,multinomial_chisq", "chisq statistics do not take sided"),
            ("z,one,1.5,,3,4,100,,,,one_sample_z", "z statistics do not take k"),
            ("z,two,,7,3,,100,,,0.3,correlation_z", "z statistics do not take nu"),
            ("z,one,1.5,,,,50,,,,multinomial_chisq", "multinomial_chisq requires numerator df k > 0"),
            # integer cells that are not finite are parse errors, not numeric ones
            ("z,one,1.0,,,,inf,,,,one_sample_z", "field 'n' must be an integer, got inf"),
            ("z,one,1.0,,,,nan,,,,one_sample_z", "field 'n' must be an integer, got nan"),
            # a row's cells must match the header's columns one for one
            ("z,two,1.5,,,,50,,,,one_sample_z,extra", "12 cells, the header has 11"),
            ("z,two,1.5,,,,50", "7 cells, the header has 11"),
            # a rho cell is a Fisher-z correlation
            ("t,one,,49,,,50,,,0.3,correlation_z", "rho entry requires test=z, design=correlation_z"),
            ("z,one,,,,,50,,,0.3,one_sample_z", "rho entry requires test=z, design=correlation_z"),
        ],
    )
    def test_rejected_row(self, tmp_path, capsys, row, message):
        f = tmp_path / "s.csv"
        write_rows(f, ["z,one,1.0,,,,50,,,,one_sample_z", row])
        code, _, err = run(capsys, "point", "--file", str(f), "--omega", "0.1")
        assert code == 2
        assert f"row 3: {message}" in err

    @pytest.mark.parametrize(
        "lines, message", [([], "empty file"), (["test,sided,stat,n,design"], "no study rows")]
    )
    def test_table_without_rows(self, tmp_path, capsys, lines, message):
        f = tmp_path / "s.csv"
        f.write_text("".join(line + "\n" for line in lines))
        code, out, err = run(capsys, "point", "--file", str(f), "--omega", "0.1")
        assert (code, out) == (2, "")
        assert err == f"error: {f}: {message}\n"

    @pytest.mark.parametrize("indent", [None, 1])
    def test_json_file_rejected(self, tmp_path, capsys, indent):
        # tables are CSV whatever the file is called; JSON is a usage error
        row = {"test": "z", "sided": "one", "stat": 1.5, "n": 100, "design": "one_sample_z"}
        f = tmp_path / "s.json"
        f.write_text(json.dumps([row], indent=indent))
        code, out, err = run(capsys, "point", "--file", str(f), "--omega", "0.1", "--r", "1")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        # one line of JSON, a header and no rows, is not taken for an empty table
        assert "row 1: unknown columns" in err and "no study rows" not in err

    @pytest.mark.parametrize(
        "header, row, message",
        [
            ("test,sided,stat,n", "z,one,1.5,100", "row 1: no 'design' column"),
            ("sided,stat,n,design", "one,1.5,100,one_sample_z", "row 1: no 'test' column"),
            ("sided,stat,n", "one,1.5,100", "row 1: no 'test' or 'design' column"),
        ],
    )
    def test_missing_test_or_design_column(self, tmp_path, capsys, header, row, message):
        # the header is checked once, before any row: a missing column is
        # named, not reported as an unknown value None in row 2
        f = tmp_path / "s.csv"
        f.write_text(f"{header}\n{row}\n")
        code, _, err = run(capsys, "point", "--file", str(f), "--omega", "0.1", "--r", "1")
        assert code == 2
        assert err == f"error: {message}\n"

    def test_repeated_column_rejected(self, tmp_path, capsys):
        # the last "stat" cell (z = 9) must not silently win
        f = tmp_path / "s.csv"
        f.write_text("test,sided,stat,n,design,stat\nz,one,1.5,100,one_sample_z,9\n")
        code, _, err = run(capsys, "point", "--file", str(f), "--omega", "0.1", "--r", "1")
        assert code == 2
        assert "row 1: column 'stat' repeated" in err

    @pytest.mark.parametrize("suffix", [".csv"])
    def test_byte_order_mark_read(self, tmp_path, capsys, suffix):
        # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark
        f = tmp_path / f"s{suffix}"
        f.write_bytes(b"\xef\xbb\xbf" + (DATA / "fig1.csv").read_bytes())
        code_b, out_b, err = run(capsys, "point", "--file", str(f), "--omega", "0.11", "--r", "1")
        code, out, _ = run(
            capsys, "point", "--file", str(DATA / "fig1.csv"), "--omega", "0.11", "--r", "1"
        )
        assert (code_b, err) == (0, "")
        assert out_b == out

    def test_mixed_families_rejected(self, tmp_path, capsys):
        f = tmp_path / "s.csv"
        write_rows(
            f,
            [
                "z,one,1.0,,,,50,,,,one_sample_z",
                "chisq,,3.0,,2,,50,,,,multinomial_chisq",
            ],
        )
        code, _, err = run(capsys, "point", "--file", str(f), "--omega", "0.1")
        assert code == 2
        assert "mixed" in err

    def test_correlation_rho_mode(self, tmp_path, capsys):
        f = tmp_path / "corr.csv"
        write_rows(f, ["z,,,,,,50,,,0.3,correlation_z"])
        code, out, _ = run(capsys, "point", "--file", str(f), "--omega", "0.1", "--r", "1")
        assert code == 0

    def test_two_sample_design(self, tmp_path, capsys):
        f = tmp_path / "two.csv"
        write_rows(f, ["t,two,2.1,58,,,,30,30,,two_sample_t"])
        code, out, _ = run(capsys, "point", "--file", str(f), "--omega", "0.2", "--r", "1")
        assert code == 0


class TestCurve:
    def test_fig1_curve_summary(self, tmp_path, capsys):
        out_file = tmp_path / "curve.csv"
        code, out, _ = run(
            capsys,
            "curve",
            "--file",
            str(DATA / "fig1.csv"),
            "--r",
            "1",
            "--out",
            str(out_file),
            "--levels",
            "0,-1",
        )
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("omega,r_star,log_bf10\n")
        assert "# max_log_bf10: 0.9733878545" in text
        crossing0 = next(l for l in text.splitlines() if "level=0:" in l)
        assert abs(float(crossing0.split(":")[1]) - 0.3143) < 5e-4

    def test_default_grid(self, tmp_path, capsys):
        # with no omega flag, the curve's rows are at EffectGrid.default()'s
        # omegas, each written as the CLI formats a value
        out_file = tmp_path / "curve.csv"
        code, _, _ = run(capsys, "curve", "--file", str(DATA / "fig1.csv"), "--r", "1", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()[1:]
        omegas = [line.split(",")[0] for line in lines if not line.startswith("#")]
        assert omegas == [format(w, ".10g") for w in EffectGrid.default().omegas]

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out_file in (a, b):
            code, _, _ = run(
                capsys,
                "curve", "--file", str(DATA / "fig1.csv"), "--r", "1",
                "--omega-max", "0.5", "--out", str(out_file),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "table, policy, golden",
        [
            ("fig1", ["--r", "1"], "curve_fig1_r1.csv"),
            ("stroop", [], "curve_stroop.csv"),
            ("correlation", [], "curve_correlation.csv"),
        ],
    )
    def test_golden_bytes(self, tmp_path, capsys, table, policy, golden):
        # curve_fig1_r1.csv was written by an earlier release that evaluated
        # every study and every r one at a time; the two MMAP files by the
        # first release that took r* from a Chebyshev fit in log r
        out_file = tmp_path / "curve.csv"
        code, _, _ = run(
            capsys,
            "curve", "--file", str(DATA / f"{table}.csv"), "--omega-step", "0.08",
            *policy, "--out", str(out_file),
        )
        assert code == 0
        assert out_file.read_bytes() == (DATA / golden).read_bytes()

    def test_empty_grid_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "curve", "--file", str(DATA / "fig1.csv"), "--r", "1",
            "--omega-min", "0.5", "--omega-max", "0.1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2

    def test_infinite_omega_step_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "curve", "--file", str(DATA / "fig1.csv"), "--r", "1", "--omega-step", "inf",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "step=inf" in err

    @pytest.mark.parametrize("levels", ["nan", "-1,inf"])
    def test_non_finite_levels_usage_error(self, tmp_path, capsys, levels):
        code, _, err = run(
            capsys,
            "curve", "--file", str(DATA / "fig1.csv"), "--r", "1", "--omega-step", "0.1",
            f"--levels={levels}", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "levels must be finite" in err

    def test_levels_help_example_runs(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["curve", "--help"])
        example = re.search(r"e\.g\. (--levels=\S+)", capsys.readouterr().out).group(1)
        code, out, _ = run(
            capsys,
            "curve", "--file", str(DATA / "fig1.csv"), "--r", "1", "--omega-step", "0.1",
            example, "--out", str(tmp_path / "x.csv"),
        )
        assert code == 0
        levels = [l.split(":")[0] for l in out.splitlines() if l.startswith("# crossing")]
        assert levels == [f"# crossing level={v}" for v in ("-1", "-3", "-5")]

    def test_round_trip_summary(self, tmp_path, capsys):
        out_file = tmp_path / "curve.csv"
        code, _, _ = run(
            capsys,
            "curve", "--file", str(DATA / "fig1.csv"), "--r", "1",
            "--omega-max", "0.6", "--out", str(out_file),
        )
        assert code == 0
        rows, meta = parse_curve_file(str(out_file))
        regenerated = summarize_rows(rows, None, False, (-1.0, -3.0, -5.0))
        in_file = [l.strip() for l in out_file.read_text().splitlines() if l.startswith("#")]
        assert regenerated == in_file

    def test_locale_independent_format(self, tmp_path, capsys):
        out_file = tmp_path / "curve.csv"
        run(
            capsys,
            "curve", "--file", str(DATA / "fig1.csv"), "--r", "1",
            "--omega-max", "0.1", "--out", str(out_file),
        )
        text = out_file.read_text()
        assert "," in text and ";" not in text
        for line in text.splitlines()[1:3]:
            for cell in line.split(","):
                float(cell)  # parses with '.' decimal point


class TestRemovedValidate:
    def test_validate_is_a_usage_error(self, capsys):
        # the quadrature oracle is test support; the CLI has no subcommand for it
        with pytest.raises(SystemExit) as exc:
            main(["validate"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "validate" in err


class TestPolicyFlags:
    @pytest.mark.parametrize(
        "command, flags",
        [
            ("point", {"--help", "--file", "--omega", "--r", "--r-max"}),
            (
                "curve",
                {"--help", "--file", "--omega-min", "--omega-max", "--omega-step", "--r",
                 "--r-max", "--out", "--levels"},
            ),
        ],
    )
    def test_help_lists_the_flags_that_act(self, capsys, command, flags):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = capsys.readouterr().out
        assert set(re.findall(r"--[a-z][a-z-]*", out)) == flags
        assert "[--r R | --r-max R_MAX]" in out  # MMAP's r unless --r fixes it

    @pytest.mark.parametrize("command", ["point", "curve"])
    def test_fixed_r_with_r_max_is_a_usage_error(self, tmp_path, capsys, command):
        argv = [command, "--file", str(DATA / "fig1.csv"), "--r", "1", "--r-max", "5"]
        argv += ["--omega", "0.1"] if command == "point" else ["--out", str(tmp_path / "x.csv")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestRMaxValidation:
    def test_infinite_r_max_is_one_usage_error(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(
                capsys, "point", "--file", str(DATA / "fig1.csv"), "--omega", "0.2",
                "--r-max", "inf",
            )
        assert code == 2 and caught == []
        assert err.splitlines() == ["error: r_max must be finite and >= 1, got inf"]


class TestBoundaryWarning:
    def test_point_warns_at_r_cap(self, tmp_path, capsys):
        f = tmp_path / "consistent.csv"
        write_rows(
            f,
            [
                "t,one,4.0,49,,,50,,,,one_sample_t",
                "t,one,4.4,79,,,80,,,,one_sample_t",
                "t,one,3.8,59,,,60,,,,one_sample_t",
            ],
        )
        code, out, _ = run(
            capsys, "point", "--file", str(f), "--omega", "0.5", "--r-max", "1.2"
        )
        assert code == 0
        assert "warning: r* at search boundary" in out

    def test_curve_counts_the_points_at_r_cap(self, tmp_path, capsys):
        f, out_file = tmp_path / "consistent.csv", tmp_path / "curve.csv"
        write_rows(
            f,
            [
                "t,one,4.0,49,,,50,,,,one_sample_t",
                "t,one,4.4,79,,,80,,,,one_sample_t",
                "t,one,3.8,59,,,60,,,,one_sample_t",
            ],
        )
        code, out, _ = run(
            capsys,
            "curve", "--file", str(f), "--omega-min", "0.3", "--omega-max", "0.7",
            "--omega-step", "0.1", "--r-max", "1.2", "--out", str(out_file),
        )
        assert code == 0
        rows, _ = parse_curve_file(str(out_file))
        assert [r_star for _, r_star, _ in rows] == [1.0, 1.0, 1.2, 1.2, 1.0]
        assert out.endswith("# warning: r* at search boundary for 2 grid point(s)\n")


class TestPublicApi:
    def test_package_level_names(self):
        import bffkit

        assert bffkit.log_bf10_z_one(0.0, 1.0, 1.0) == pytest.approx(
            -1.5 * math.log(2.0)
        )
        assert bffkit.EffectGrid.default().omegas[0] == pytest.approx(0.005)
        assert bffkit.rmses([0.3, 0.3]) == pytest.approx(0.3)
        # the quadrature oracle lives with the tests, not in the package
        assert not hasattr(bffkit, "marginal_bf_quadrature")

