"""Command-line front end: ingest study tables and evaluate BFF curves and
points.

Input is a CSV file, whatever its extension, whose header row names each of
its columns once, out of
    test,sided,stat,nu,k,m,n,n1,n2,rho,design
and test and design among them (empty cells for absent fields), read as
UTF-8 with or without a byte-order mark.  The header is checked once, as
row 1.  Correlation studies are entered as (rho, n) pairs; the Fisher
transform happens at ingestion.  Options come from the command line only;
there is no configuration file.  r is MMAP's unless --r fixes it; --r-max
bounds the MMAP search and cannot be given with --r.

Exit codes: 0 success, 2 usage/parse error (bad options, a bad table or row,
an input out of its domain), 3 numeric failure (non-convergence, a one-sided
bracket that cancelled below double precision).
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

import numpy as np

from .bayes_factors import Sidedness, StatFamily, TestStatistic
from .effect_map import DesignKind, DesignTag, fisher_z
from .evidence import (
    _DEFAULT_GRID,
    EffectGrid,
    FixedR,
    MmapR,
    Study,
    StudySet,
    bff_curve,
    crossings,
    jeffreys_log_prior,
)

DEFAULT_LEVELS = (-1.0, -3.0, -5.0)

_CSV_FIELDS = ("test", "sided", "stat", "nu", "k", "m", "n", "n1", "n2", "rho", "design")


def _fmt(x: float) -> str:
    """Locale-independent 10-significant-digit formatting."""
    return format(x, ".10g")


def _opt_float(row: dict, key: str, row_no: int) -> float | None:
    raw = row.get(key, "")
    if not raw.strip():
        return None
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"row {row_no}: field '{key}' is not a number: {raw!r}")


def _opt_int(row: dict, key: str, row_no: int) -> int | None:
    val = _opt_float(row, key, row_no)
    if val is None:
        return None
    if not val.is_integer():  # inf and NaN too
        raise ValueError(f"row {row_no}: field '{key}' must be an integer, got {val}")
    return int(val)


def _cell(row: dict, key: str) -> str:
    return row.get(key, "").strip().lower()


def _lookup(enum, row: dict, key: str, what: str, row_no: int):
    """The member of enum whose value (its CSV spelling) is the row's cell."""
    try:
        return enum(_cell(row, key))
    except ValueError:
        raise ValueError(f"row {row_no}: unknown {what} {row.get(key)!r}")


def _study_from_row(row: dict[str, str], row_no: int) -> Study:
    """The study of one table row: its cells keyed by the CSV header's field
    names, checked by _check_header."""
    family = _lookup(StatFamily, row, "test", "test", row_no)
    tag = _lookup(DesignTag, row, "design", "design", row_no)

    n = _opt_int(row, "n", row_no)
    n1 = _opt_int(row, "n1", row_no)
    n2 = _opt_int(row, "n2", row_no)
    try:
        design = DesignKind(tag, n=n, n1=n1, n2=n2)
    except ValueError as exc:
        raise ValueError(f"row {row_no}: {exc}")

    sided = _lookup(Sidedness, row, "sided", "sidedness", row_no) if _cell(row, "sided") else None

    stat = _opt_float(row, "stat", row_no)
    rho = _opt_float(row, "rho", row_no)
    if (stat is None) == (rho is None):
        raise ValueError(f"row {row_no}: exactly one of 'stat' or 'rho' is required")
    fields = {key: _opt_float(row, key, row_no) for key in ("nu", "k", "m")}
    if rho is not None and (family is not StatFamily.Z or tag is not DesignTag.CORRELATION_Z):
        raise ValueError(f"row {row_no}: rho entry requires test=z, design=correlation_z")

    try:
        if rho is None:
            statistic = TestStatistic(family, stat, sided, **fields)
        else:
            # the Fisher-z statistic checks the row's other cells as any z row's
            z = fisher_z(rho, n, sided) if sided else fisher_z(rho, n)
            statistic = TestStatistic(z.family, z.value, z.sided, **fields)
        return Study(statistic, design)
    except ValueError as exc:
        raise ValueError(f"row {row_no}: {exc}")


def _check_header(header: list[str]) -> None:
    """Reject a header row that is not a table's: a repeated or unknown
    column name, or no test or design column, which every row needs."""
    for i, name in enumerate(header):
        if name in header[:i]:
            raise ValueError(f"row 1: column {name!r} repeated")
    unknown = [name for name in header if name not in _CSV_FIELDS]
    if unknown:
        raise ValueError(
            f"row 1: unknown columns {unknown}; a table's header names columns "
            f"out of {','.join(_CSV_FIELDS)}"
        )
    missing = [name for name in ("test", "design") if name not in header]
    if missing:
        raise ValueError(f"row 1: no {' or '.join(repr(m) for m in missing)} column")


def load_studies(path: str) -> StudySet:
    """Read a study table (CSV)."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        lines = [cells for cells in csv.reader(fh) if cells]  # blank lines skipped
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0]
    _check_header(header)
    studies = []
    for row_no, cells in enumerate(lines[1:], start=2):  # header is row 1
        if len(cells) != len(header):
            raise ValueError(f"row {row_no}: {len(cells)} cells, the header has {len(header)}")
        studies.append(_study_from_row(dict(zip(header, cells)), row_no))
    if not studies:
        raise ValueError(f"{path}: no study rows")
    return StudySet(tuple(studies), label=os.path.basename(path))


def _policy_from_args(args) -> "FixedR | MmapR":
    if args.r is not None:
        return FixedR(args.r)
    return MmapR(args.r_max)


def cmd_point(args) -> int:
    studies = load_studies(args.file)
    (point,) = bff_curve(studies, EffectGrid((args.omega,)), _policy_from_args(args)).points
    if point.at_r_boundary:
        print(f"# warning: r* at search boundary r_max={_fmt(args.r_max)}")
    print(f"omega = {_fmt(args.omega)}")
    print(f"r = {_fmt(point.r_star)}" if args.r is not None else f"r_star = {_fmt(point.r_star)}")
    print(f"log_bf10 = {_fmt(point.log_bf10)}")
    for i, value in enumerate(point.per_study_log_bf):
        print(f"study {i}: log_bf10 = {_fmt(value)}")
    return 0


def summarize_rows(
    rows: list[tuple[float, float, float]],
    k: float | None,
    policy_is_mmap: bool,
    levels: tuple[float, ...],
) -> list[str]:
    """Summary lines for a curve given its (omega, r_star, log_bf10) rows.

    Works from the printed row values only, so re-summarizing a parsed file
    reproduces the file's own summary byte for byte.  Crossings follow the
    objective curve (log BF plus the log Jeffreys prior at r_star) under an
    MMAP policy, the plain log-BF curve under fixed r.  k is the shared
    numerator df of a chi-square/F set (gamma prior) and None for z/t
    (normal-moment prior).
    """
    omegas = np.array([r[0] for r in rows])
    rstars = np.array([r[1] for r in rows])
    logbf = np.array([r[2] for r in rows])
    if policy_is_mmap:
        objective = logbf + np.array([jeffreys_log_prior(r, k) for r in rstars])
    else:
        objective = logbf
    best = int(np.argmax(logbf))
    lines = [
        "# prior_family: normal_moment" if k is None else f"# prior_family: gamma k={_fmt(k)}",
        f"# policy: {'mmap' if policy_is_mmap else 'fixed'}",
        f"# omega_star: {_fmt(float(omegas[best]))}",
        f"# r_star_at_max: {_fmt(float(rstars[best]))}",
        f"# max_log_bf10: {_fmt(float(logbf[best]))}",
    ]
    for level, w in zip(levels, crossings(omegas, objective, levels)):
        lines.append(f"# crossing level={_fmt(level)}: {'absent' if w is None else _fmt(w)}")
    return lines


def cmd_curve(args) -> int:
    studies = load_studies(args.file)
    grid = EffectGrid.from_range(args.omega_min, args.omega_max, args.omega_step)
    levels = tuple(args.levels)
    for level in levels:
        if not math.isfinite(level):
            raise ValueError(f"levels must be finite, got {level}")
    policy = _policy_from_args(args)
    curve = bff_curve(studies, grid, policy)
    k = studies.studies[0].stat.k  # None for z/t sets, shared by chi-square/F sets

    # round first, then summarize from the rounded values: re-parsing the
    # file and re-summarizing must reproduce the summary exactly
    rows = [
        (
            float(_fmt(p.omega)),
            float(_fmt(p.r_star)),
            float(_fmt(p.log_bf10)),
        )
        for p in curve.points
    ]
    summary = summarize_rows(rows, k, isinstance(policy, MmapR), levels)
    out_lines = ["omega,r_star,log_bf10"]
    out_lines += [f"{_fmt(a)},{_fmt(b)},{_fmt(c)}" for a, b, c in rows]
    out_lines += summary
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out_lines) + "\n")
    for line in summary:
        print(line)
    boundary = [p.omega for p in curve.points if p.at_r_boundary]
    if boundary:
        print(f"# warning: r* at search boundary for {len(boundary)} grid point(s)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bffkit",
        description="Bayes factor functions from z, t, chi-square, and F statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_policy(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument(
            "--r", type=float, default=None, help="fixed prior shape r >= 1 (MMAP's r when absent)"
        )
        group.add_argument(
            "--r-max", type=float, default=MmapR.r_max, help="upper bound of the MMAP search on r"
        )

    p_point = sub.add_parser("point", help="combined log BF at one effect size")
    p_point.add_argument("--file", required=True)
    p_point.add_argument("--omega", type=float, required=True)
    add_policy(p_point)
    p_point.set_defaults(func=cmd_point)

    p_curve = sub.add_parser("curve", help="BFF curve over an effect-size grid")
    p_curve.add_argument("--file", required=True)
    p_curve.add_argument("--omega-min", type=float, default=_DEFAULT_GRID[0])
    p_curve.add_argument("--omega-max", type=float, default=_DEFAULT_GRID[1])
    p_curve.add_argument("--omega-step", type=float, default=_DEFAULT_GRID[2])
    add_policy(p_curve)
    p_curve.add_argument("--out", required=True, help="output CSV path")
    p_curve.add_argument(
        "--levels",
        type=lambda s: tuple(float(x) for x in s.split(",")),
        default=DEFAULT_LEVELS,
        # with a space, argparse takes "-1,-3,-5" for an option
        help="log-BF reporting levels, e.g. --levels=-1,-3,-5",
    )
    p_curve.set_defaults(func=cmd_curve)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        # bad tables and rows, and inputs out of their domain, are usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError) as exc:
        # non-convergence, one-sided brackets cancelled below double precision
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
