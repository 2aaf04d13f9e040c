"""Command-line interface: outputs, config handling, exit codes."""

import ast
import gc
import hashlib
import io
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unital_otto import CycleParams, LZParams, Regime, enumerate_paths, monitored_vs_unmonitored
from unital_otto import arraycli, cli, landauzener
from unital_otto.arraycli import _run
from unital_otto.cli import _COMMANDS, _merge_config, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BASE = ["--beta", "0.7", "--nu1", "1", "--nu2", "2", "--delta", "0", "--zeta", "0"]


def test_cumulants_prints_quoted_work(capsys):
    code, out, _ = run(capsys, "cumulants", *BASE, "--theta", "0.2")
    assert code == 0
    assert out.startswith("#")
    enum_row = next(l for l in out.splitlines() if l.startswith("enumeration"))
    w_k1 = float(enum_row.split(",")[1])
    assert w_k1 == pytest.approx(0.241747, abs=1e-5)


def test_cumulants_routes_agree_in_output(capsys):
    code, out, _ = run(capsys, "cumulants", *BASE, "--theta", "0.2")
    closed_delta = next(l for l in out.splitlines() if l.startswith("closed_form_delta"))
    assert float(closed_delta.split(",")[1]) < 1e-12
    fd_delta = next(l for l in out.splitlines() if l.startswith("cf_derivative_delta"))
    assert float(fd_delta.split(",")[1]) < 1e-6


def test_infinite_temperature_odd_cumulants_vanish(capsys):
    code, out, _ = run(
        capsys, "cumulants", "--beta", "0", "--nu1", "1", "--nu2", "2",
        "--delta", "0.1", "--zeta", "0.2", "--theta", "0.3",
    )
    assert code == 0
    enum_row = next(l for l in out.splitlines() if l.startswith("enumeration"))
    cells = [float(c) for c in enum_row.split(",")[1:]]
    w_k1, w_k3 = cells[0], cells[2]
    qm_k1, qm_k3 = cells[4], cells[6]
    assert max(abs(w_k1), abs(w_k3), abs(qm_k1), abs(qm_k3)) < 1e-14


def test_pauli_weights_channel_spec(capsys):
    code, out, _ = run(
        capsys, "cumulants", *BASE, "--p0", "0.5", "--p1", "0.1", "--p2", "0.1",
        "--p3", "0.3",
    )
    assert code == 0
    enum_row = next(l for l in out.splitlines() if l.startswith("enumeration"))
    w_k1 = float(enum_row.split(",")[1])
    # theta = p1 + p2 = 0.2, same point as the quoted-work test
    assert w_k1 == pytest.approx(0.241747, abs=1e-5)


def test_measurement_angle_channel_spec(capsys):
    alpha_m = math.asin(math.sqrt(0.4))  # sin^2(alpha)/2 = 0.2
    code, out, _ = run(capsys, "cumulants", *BASE, "--alpha-m", str(alpha_m))
    enum_row = next(l for l in out.splitlines() if l.startswith("enumeration"))
    assert float(enum_row.split(",")[1]) == pytest.approx(0.241747, abs=1e-5)


@pytest.mark.parametrize("angle", ["4", "-1", "nan", "inf"])
def test_measurement_angle_is_checked_as_lz_compare_checks_it(angle, capsys):
    cycle = ["--beta", "0.7", "--nu1", "1", "--nu2", "2"]
    code, out, err = run(capsys, "cumulants", *cycle, "--delta", "0.1", "--zeta", "0.1",
                         "--alpha-m", angle)
    message = "angles must be finite" if angle in ("nan", "inf") else "alpha_m must lie in [0, pi]"
    assert (code, out, err) == (2, "", f"config error: {message}\n")
    lz = run(capsys, "lz-compare", *cycle, "--alpha-m", angle,
             "--axis", "delta", "--start", "0", "--stop", "1", "--steps", "3")
    assert lz == (code, out, err)


@pytest.mark.parametrize("command, grid", [
    ("sweep", []),
    ("classify", ["--axis2", "beta", "--start2", "0.5", "--stop2", "1", "--steps2", "2"]),
])
def test_swept_measurement_angle_beyond_pi_is_config_error(command, grid, capsys):
    axis = ["--axis", "alpha-m", "--steps", "5"]
    code, out, err = run(capsys, command, *BASE, *axis, "--start", "3", "--stop", "4", *grid)
    assert (code, out, err) == (2, "", "config error: alpha_m must lie in [0, pi]\n")
    code, out, _ = run(capsys, command, *BASE, *axis, "--start", "0", "--stop", repr(math.pi), *grid)
    assert code == 0 and out.count("\n") == 2 + 5 * (2 if grid else 1)


def test_sweep_finds_work_sign_change(capsys):
    code, out, _ = run(
        capsys, "sweep", "--axis", "delta", "--start", "0.106", "--stop", "0.107",
        "--steps", "2", "--beta", "0.7", "--nu1", "1", "--nu2", "2",
        "--delta", "0", "--zeta", "0", "--theta", "0.2",
    )
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if not l.startswith(("#", "delta"))]
    w_values = [float(r[1]) for r in rows]
    assert w_values[0] > 0.0 > w_values[1]


def test_missing_channel_is_config_error(capsys):
    code, _, err = run(capsys, "cumulants", *BASE)
    assert code == 2
    assert "channel" in err


def test_missing_cycle_param_is_config_error(capsys):
    code, _, err = run(capsys, "cumulants", "--beta", "0.7", "--theta", "0.2")
    assert code == 2


def test_unphysical_cs_mixture_is_physics_error(capsys):
    code, _, err = run(
        capsys, "cumulants", "--beta", "0.7", "--nu1", "1", "--nu2", "2",
        "--delta", "0.1", "--zeta", "0.1", "--theta", "0.9",
        "--cs-alpha", "0.5", "--branch", "minus",
    )
    assert code == 3
    assert "physics" in err


@pytest.mark.parametrize(
    "command",
    [["cumulants"], ["sample"], ["sweep", "--axis", "beta", "--start", "0.5", "--stop", "0.6",
                                 "--steps", "2"]],
    ids=["cumulants", "sample", "sweep"],
)
def test_controlled_point_checks_theta_range_before_flip_bound(command, capsys):
    # theta 1.5 lies outside [0, 1] and beyond 2 p_minus: a single point is
    # checked in the order every point of a grid is
    code, out, err = run(
        capsys, *command, "--beta", "0.5", "--nu1", "1", "--nu2", "2", "--delta", "0.1",
        "--zeta", "0.1", "--cs-alpha", "0.3", "--branch", "minus", "--theta", "1.5",
    )
    assert (code, out, err) == (2, "", "config error: theta must lie in [0, 1]\n")


def test_bound_violations_are_not_failures(capsys):
    code, out, _ = run(capsys, "verify-bounds", "--samples", "200", "--seed", "7")
    assert code == 0
    assert out.splitlines()[1] == "bound_name,satisfied,violated,inapplicable"


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# reference point\n"
        "beta = 0.5\n"
        "nu1 = 1\n"
        "nu2 = 2\n"
        "delta = 0\n"
        "zeta = 0\n"
        "theta = 0.2\n"
    )
    _, out_file, _ = run(capsys, "cumulants", "--config", str(cfg))
    _, out_override, _ = run(capsys, "cumulants", "--config", str(cfg), "--beta", "0.7")
    w_file = float(next(l for l in out_file.splitlines() if l.startswith("enumeration")).split(",")[1])
    w_override = float(next(l for l in out_override.splitlines() if l.startswith("enumeration")).split(",")[1])
    assert w_file == pytest.approx(2 * 0.2 * math.tanh(0.5), rel=1e-12)
    assert w_override == pytest.approx(2 * 0.2 * math.tanh(0.7), rel=1e-12)


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    code, _, err = run(capsys, "cumulants", "--config", str(cfg))
    assert code == 2
    assert "bogus" in err


def _long_options(parser):
    """(subcommand, action, key) for every long option of every subcommand."""
    sub = next(a for a in parser._actions if a.dest == "command")
    for name, subparser in sub.choices.items():
        for action in subparser._actions:
            for flag in action.option_strings:
                if flag.startswith("--") and flag not in ("--help", "--config"):
                    yield name, action, flag[2:]


def test_every_flag_is_a_config_key_with_the_flag_type(tmp_path):
    parser = build_parser()
    cfg = tmp_path / "one.cfg"
    seen = 0
    for command, action, key in _long_options(parser):
        kind = action.type or str
        text = {float: "0.25", int: "7"}.get(kind, (action.choices or ["x.csv"])[0])
        cfg.write_text(f"{key} = {text}\n")
        args = parser.parse_args([command, "--config", str(cfg)])
        merged = _merge_config(args)
        assert merged[action.dest] == kind(text), (command, key)
        assert type(merged[action.dest]) is kind, (command, key)
        seen += 1
    assert seen > 40


# every option of every subcommand, as the parser declared it before its
# flags moved into one table: (flag, destination, value type, choices, help)
_SWEEPABLE = ("beta", "nu1", "nu2", "delta", "zeta", "theta", "cs-alpha", "alpha-m")
_PARSER_SURFACE = {
    ("cumulants", "one parameter point, all three routes"): [
        ("--config", "config", str, None, "flat key=value config file; flags override"),
        ("--beta", "beta", float, None, None),
        ("--nu1", "nu1", float, None, None),
        ("--nu2", "nu2", float, None, None),
        ("--delta", "delta", float, None, None),
        ("--zeta", "zeta", float, None, None),
        ("--out", "out", str, None, "output CSV path (default: stdout)"),
        ("--theta", "theta", float, None, None),
        ("--p0", "p0", float, None, None),
        ("--p1", "p1", float, None, None),
        ("--p2", "p2", float, None, None),
        ("--p3", "p3", float, None, None),
        ("--alpha-m", "alpha_m", float, None, None),
        ("--cs-alpha", "cs_alpha", float, None, None),
        ("--branch", "branch", str, ("plus", "minus"), None),
        ("--dist-out", "dist_out", str, None, "also dump the joint distribution CSV here"),
        ("--bounds-out", "bounds_out", str, None, "also write the bound reports CSV here"),
    ],
    ("sweep", "cumulants/efficiency/regime along one axis"): [
        ("--config", "config", str, None, "flat key=value config file; flags override"),
        ("--beta", "beta", float, None, None),
        ("--nu1", "nu1", float, None, None),
        ("--nu2", "nu2", float, None, None),
        ("--delta", "delta", float, None, None),
        ("--zeta", "zeta", float, None, None),
        ("--out", "out", str, None, "output CSV path (default: stdout)"),
        ("--theta", "theta", float, None, None),
        ("--p0", "p0", float, None, None),
        ("--p1", "p1", float, None, None),
        ("--p2", "p2", float, None, None),
        ("--p3", "p3", float, None, None),
        ("--alpha-m", "alpha_m", float, None, None),
        ("--cs-alpha", "cs_alpha", float, None, None),
        ("--branch", "branch", str, ("plus", "minus"), None),
        ("--axis", "axis", str, _SWEEPABLE, None),
        ("--start", "start", float, None, None),
        ("--stop", "stop", float, None, None),
        ("--steps", "steps", int, None, None),
    ],
    ("classify", "regime map over a 2-D grid"): [
        ("--config", "config", str, None, "flat key=value config file; flags override"),
        ("--beta", "beta", float, None, None),
        ("--nu1", "nu1", float, None, None),
        ("--nu2", "nu2", float, None, None),
        ("--delta", "delta", float, None, None),
        ("--zeta", "zeta", float, None, None),
        ("--out", "out", str, None, "output CSV path (default: stdout)"),
        ("--theta", "theta", float, None, None),
        ("--p0", "p0", float, None, None),
        ("--p1", "p1", float, None, None),
        ("--p2", "p2", float, None, None),
        ("--p3", "p3", float, None, None),
        ("--alpha-m", "alpha_m", float, None, None),
        ("--cs-alpha", "cs_alpha", float, None, None),
        ("--branch", "branch", str, ("plus", "minus"), None),
        ("--axis", "axis", str, _SWEEPABLE, None),
        ("--start", "start", float, None, None),
        ("--stop", "stop", float, None, None),
        ("--steps", "steps", int, None, None),
        ("--axis2", "axis2", str, _SWEEPABLE, None),
        ("--start2", "start2", float, None, None),
        ("--stop2", "stop2", float, None, None),
        ("--steps2", "steps2", int, None, None),
    ],
    ("verify-bounds", "randomized bound-verification campaign"): [
        ("--config", "config", str, None, "flat key=value config file; flags override"),
        ("--out", "out", str, None, "output CSV path (default: stdout)"),
        ("--samples", "samples", int, None, None),
        ("--seed", "seed", int, None, None),
    ],
    ("sample", "Monte Carlo draws against the enumeration"): [
        ("--config", "config", str, None, "flat key=value config file; flags override"),
        ("--beta", "beta", float, None, None),
        ("--nu1", "nu1", float, None, None),
        ("--nu2", "nu2", float, None, None),
        ("--delta", "delta", float, None, None),
        ("--zeta", "zeta", float, None, None),
        ("--out", "out", str, None, "output CSV path (default: stdout)"),
        ("--theta", "theta", float, None, None),
        ("--p0", "p0", float, None, None),
        ("--p1", "p1", float, None, None),
        ("--p2", "p2", float, None, None),
        ("--p3", "p3", float, None, None),
        ("--alpha-m", "alpha_m", float, None, None),
        ("--cs-alpha", "cs_alpha", float, None, None),
        ("--branch", "branch", str, ("plus", "minus"), None),
        ("--samples", "samples", int, None, None),
        ("--seed", "seed", int, None, None),
    ],
    ("lz-compare", "monitored vs unmonitored Landau-Zener table"): [
        ("--config", "config", str, None, "flat key=value config file; flags override"),
        ("--beta", "beta", float, None, None),
        ("--nu1", "nu1", float, None, None),
        ("--nu2", "nu2", float, None, None),
        ("--out", "out", str, None, "output CSV path (default: stdout)"),
        ("--alpha-m", "alpha_m", float, None, None),
        ("--chi", "chi", float, None, None),
        ("--phi", "phi", float, None, None),
        ("--axis", "axis", str, ("delta",), None),
        ("--start", "start", float, None, None),
        ("--stop", "stop", float, None, None),
        ("--steps", "steps", int, None, None),
    ],
}


def test_parser_surface_is_pinned():
    # a flag, type, choice or help text that changes fails here; the value
    # type is the one a config file's text goes through (argparse passes a
    # string flag's text as it is)
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    helps = {action.dest: action.help for action in sub._choices_actions}
    surface = {
        (name, helps[name]): [
            (*action.option_strings, action.dest, action.type or str, action.choices, action.help)
            for action in subparser._actions if action.dest != "help"
        ]
        for name, subparser in sub.choices.items()
    }
    assert surface == _PARSER_SURFACE
    assert list(surface) == list(_PARSER_SURFACE)


def test_config_file_output_paths(tmp_path, capsys):
    dist, bounds = tmp_path / "d.csv", tmp_path / "b.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "beta = 0.7\nnu1 = 1\nnu2 = 2\ndelta = 0\nzeta = 0\ntheta = 0.2\n"
        f"dist-out = {dist}\nbounds_out = {bounds}\n"
    )
    code, _, _ = run(capsys, "cumulants", "--config", str(cfg))
    assert code == 0
    assert dist.read_text().splitlines()[1] == "w,q_m,prob"
    assert bounds.read_text().splitlines()[1].startswith("bound_name,")


def test_outputs_byte_reproducible(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "beta = 0.7\nnu1 = 1\nnu2 = 2\ndelta = 0\nzeta = 0\ntheta = 0.2\n"
        "axis = delta\nstart = 0\nstop = 0.4\nsteps = 9\n"
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
    a, b = out1.read_bytes(), out2.read_bytes()
    assert a.replace(b"a.csv", b"") == b.replace(b"b.csv", b"")
    capsys.readouterr()


def test_sample_reproducible_and_calibrated(tmp_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    args = [
        "sample", "--beta", "0.7", "--nu1", "1", "--nu2", "2", "--delta", "0.1",
        "--zeta", "0.1", "--theta", "0.2", "--samples", "200000", "--seed", "42",
    ]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes().replace(b"s1.csv", b"") == out2.read_bytes().replace(b"s2.csv", b"")
    for line in out1.read_text().splitlines():
        if line.startswith(("w,", "q_m,")):
            cells = line.split(",")
            assert abs(float(cells[4])) < 5.0  # z of the mean
            assert abs(float(cells[8])) < 5.0  # z of the variance


def test_sample_negative_seed_is_config_error(capsys):
    code, out, err = run(capsys, "sample", *BASE, "--theta", "0.2", "--seed", "-3")
    assert (code, out, err) == (2, "", "config error: expected non-negative integer\n")


def test_verify_bounds_negative_seed_is_config_error(capsys):
    # numpy's SeedSequence message, kept by the package's own seeding
    code, out, err = run(capsys, "verify-bounds", "--samples", "10", "--seed", "-1")
    assert (code, out, err) == (2, "", "config error: expected non-negative integer\n")


def test_sample_z_scores_of_an_undrawn_rare_outcome_are_finite(capsys):
    # p ~ 2e-9 for the one outcome with work, so 1e6 draws never hit it: the
    # empirical mean and variance are 0, and each z is its row's difference
    # over the standard error the exact cumulants give, not over the draws'
    code, out, _ = run(
        capsys, "sample", "--beta", "40", "--nu1", "1", "--nu2", "2", "--delta", "0",
        "--zeta", "0", "--theta", "1e-9", "--samples", "1000000", "--seed", "3",
    )
    assert code == 0
    rows = {line.split(",")[0]: [float(c) for c in line.split(",")[1:]]
            for line in out.splitlines()[2:]}
    assert set(rows) == {"w", "q_m"}
    for exact_mean, mean, mean_err, z_mean, exact_var, var, var_err, z_var in rows.values():
        assert mean == var == 0.0
        assert mean_err > 0.0 and var_err > 0.0
        assert z_mean == (mean - exact_mean) / mean_err
        assert z_var == (var - exact_var) / var_err
        assert -0.1 < z_mean < 0.0 and -0.1 < z_var < 0.0


def test_classify_emits_full_grid(capsys):
    code, out, _ = run(
        capsys, "classify", "--axis", "delta", "--start", "0", "--stop", "0.4",
        "--steps", "3", "--axis2", "theta", "--start2", "0.1", "--stop2", "0.9",
        "--steps2", "4", "--beta", "0.5", "--nu1", "1", "--nu2", "2",
        "--delta", "0", "--zeta", "0", "--theta", "0.2",
    )
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith(("#", "delta"))]
    assert len(rows) == 12
    assert all(r.split(",")[-1] in
               {"Engine", "Accelerator", "Heater", "EnginePrime", "Undetermined"}
               for r in rows)


def test_classify_evaluates_only_the_means_it_prints(capsys):
    # kappa_4 of W overflows at gaps near 1e80, where every mean is finite:
    # classify prints its rows, and sweep, which prints kappa_4, fails
    point = ["--beta", "1e-80", "--nu1", "1e80", "--nu2", "2e80", "--delta", "0.1",
             "--zeta", "0.1", "--theta", "0.2", "--axis", "delta", "--start", "0",
             "--stop", "0.5", "--steps", "2"]
    code, out, err = run(capsys, "classify", *point, "--axis2", "theta", "--start2", "0",
                         "--stop2", "1", "--steps2", "2")
    assert (code, err) == (0, "")
    rows = out.splitlines()[2:]
    assert len(rows) == 4 and all(math.isfinite(float(c)) for r in rows for c in r.split(",")[:5])
    assert run(capsys, "sweep", *point) == (2, "", "config error: cumulants must be finite\n")


# sha256 of whole outputs, captured before rows were written a block at a
# time: a classify grid showing every regime label (beta through 0), a
# 600-point sweep and an lz-compare table, each more than one block long.
# The lz-compare digest was taken again when the unmonitored cycle became a
# Bloch-vector propagation: only w_um and eta_um cells changed, each W
# within 2 eps of its trace bound of the 60-digit propagation.  The sweep
# digest was taken again when eta became 1 - (nu1 / nu2)(1 + m): only
# efficiency cells changed (396 of 600), each within 2.5 eps of the exact
# pair quotient.  The classify and sweep digests were taken again when a
# grid came to take t from the C library's tanh and to sum its moments in
# outcome order, with no BLAS kernel: only number cells changed (classify
# 474 w_mean, 228 qm_mean and 460 qt_mean cells of 1681 rows; sweep 314 to
# 595 cells of each cumulant column, 531 qt_mean and 570 w_rf cells of 600
# rows), each mean and cumulant within 0.52 eps E^k of the exact value at
# the new t (E = 2 (nu1 + nu2)), and no label
PINNED_TABLES = {
    "classify": (
        "classify --beta 0.7 --nu1 1 --nu2 2 --delta 0.1 --zeta 0.1 --theta 0.3 "
        "--axis beta --start -2 --stop 2 --steps 41 --axis2 delta --start2 0 --stop2 1 --steps2 41",
        "2598ff1f49a46711cbc8bc4c242fc4f0072c6120c14a8221f4d0a0bfd09f9b24",
    ),
    "sweep": (
        "sweep --beta 0.7 --nu1 1 --nu2 2 --delta 0.1 --zeta 0.1 --theta 0.3 "
        "--axis delta --start 0 --stop 1 --steps 600",
        "d4b9f68424f96aec1e6d6077f3f0b138891f110bfc678247163b22feca355768",
    ),
    "lz-compare": (
        "lz-compare --beta 0.5 --nu1 0.4 --nu2 0.9 --alpha-m 1 --phi 0.3 --chi -1 "
        "--axis delta --start 0 --stop 1 --steps 301",
        "8a7f530c27be37beaf888a5a4a6ad8117d68fc524cd540bd568b035c80f06271",
    ),
}


@pytest.mark.parametrize("command", PINNED_TABLES)
def test_tables_are_pinned(command, capsys):
    argv, digest = PINNED_TABLES[command]
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if command == "classify":
        labels = {row.rsplit(",", 1)[1] for row in out.splitlines()[2:]}
        assert labels == {"Engine", "Accelerator", "Heater", "EnginePrime", "Undetermined"}


def test_invalid_point_in_the_last_block_leaves_no_output(tmp_path, capsys):
    # only the last point, theta = 0.5001 at cs-alpha = 0.5 on the minus
    # branch, has a flip probability above 1: of a 17 x 17 classify grid
    # and of a 700-point sweep
    base = ["--beta", "0.7", "--nu1", "1", "--nu2", "2", "--delta", "0.1", "--zeta", "0.1",
            "--axis", "theta", "--start", "0", "--stop", "0.5001"]
    grids = {
        "classify": ["--steps", "17", "--axis2", "cs-alpha", "--start2", "0.1",
                     "--stop2", "0.5", "--steps2", "17"],
        "sweep": ["--steps", "700", "--cs-alpha", "0.5"],
    }
    message = (
        "physics error: minus branch: theta 0.5001 exceeds 2 p_branch = 0.5, "
        "the flip probability would exceed 1\n"
    )
    for command, grid in grids.items():
        argv = [command, *base, *grid]
        assert run(capsys, *argv) == (3, "", message)
        out = tmp_path / f"{command}.csv"
        assert run(capsys, *argv, "--out", str(out)) == (3, "", message)
        assert not out.exists()


def test_grid_memory_does_not_grow_with_the_text(tmp_path, capsys):
    # rows go out one block at a time: what is held is each point's printed
    # numbers and codes, about 25 bytes a point for classify and 95 for
    # sweep, not the 4 MB or 11 MB of text; lz-compare holds its delta
    # column and evaluates it one block at a time
    gaps = ["--beta", "0.7", "--nu1", "1", "--nu2", "2"]
    base = [*gaps, "--delta", "0", "--zeta", "0", "--theta", "0.2",
            "--axis", "delta", "--start", "0", "--stop", "0.5"]
    grids = {
        "classify": [*base, "--steps", "201", "--axis2", "theta", "--start2", "0",
                     "--stop2", "1", "--steps2", "201"],
        "sweep": [*base, "--steps", str(201 * 201)],
        "lz-compare": [*gaps, "--alpha-m", "1", "--axis", "delta", "--start", "0",
                       "--stop", "1", "--steps", str(201 * 201)],
    }
    for command, grid in grids.items():
        out = tmp_path / f"{command}.csv"
        tracemalloc.start()
        try:
            code = main([command, *grid, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(out.read_text().splitlines()) == 2 + 201 * 201
        assert peak < out.stat().st_size / 2, command


def test_lz_compare_table(capsys):
    code, out, _ = run(
        capsys, "lz-compare", "--beta", "0.5", "--nu1", "0.4", "--nu2", "0.4",
        "--alpha-m", str(math.pi / 4), "--phi", "0", "--chi", "0",
        "--axis", "delta", "--start", "0", "--stop", "1", "--steps", "21",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "delta,w_mon,eta_mon,regime_mon,w_um,eta_um,regime_um"
    w_mon = [float(l.split(",")[1]) for l in lines[2:]]
    w_um = [float(l.split(",")[4]) for l in lines[2:]]
    assert max(w_mon) <= 1e-12
    assert max(w_um) > 0.0


def test_lz_compare_prints_no_negative_zero(capsys):
    # at beta = 0 the monitored work at delta = 0.75 and 1 comes out as -0.0
    code, out, _ = run(
        capsys, "lz-compare", "--beta", "0", "--nu1", "0.4", "--nu2", "0.9",
        "--alpha-m", "1.0472", "--axis", "delta", "--start", "0", "--stop", "1", "--steps", "5",
    )
    assert code == 0
    rows = [l.split(",") for l in out.splitlines()[2:]]
    assert [r[1] for r in rows[3:]] == ["0", "0"]
    assert "-0" not in [c for r in rows for c in r]


def test_lz_compare_eta_um_is_nan_on_residue_heat(capsys):
    # at alpha-m = pi/2 and delta = 1/2 the unmonitored heat is zero up to
    # rounding (cos alpha-m and 1 - 2 delta vanish), so W / Q_M is noise
    for phase in ("0.3", "0"):
        code, out, _ = run(
            capsys, "lz-compare", "--beta", "1", "--nu1", "0.7", "--nu2", "0.9",
            "--alpha-m", repr(math.pi / 2), "--phi", phase, "--chi", phase,
            "--axis", "delta", "--start", "0", "--stop", "1", "--steps", "5",
        )
        assert code == 0
        eta_um = [l.split(",")[5] for l in out.splitlines()[2:]]
        assert eta_um[2] == "nan"
        assert "nan" not in eta_um[:2] + eta_um[3:]


def test_lz_compare_rejects_delta_beyond_one(capsys):
    code, out, err = run(
        capsys, "lz-compare", "--beta", "1", "--nu1", "0.7", "--nu2", "0.9", "--alpha-m", "1",
        "--axis", "delta", "--start", "0", "--stop", "1.25", "--steps", "5",
    )
    assert (code, out, err) == (2, "", "config error: delta and zeta must lie in [0, 1]\n")


def test_dist_dump(tmp_path, capsys):
    dump = tmp_path / "dist.csv"
    code, _, _ = run(
        capsys, "cumulants", *BASE, "--theta", "0.2", "--dist-out", str(dump)
    )
    assert code == 0
    lines = dump.read_text().splitlines()
    assert lines[1] == "w,q_m,prob"
    probs = [float(l.split(",")[2]) for l in lines[2:]]
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_csv_round_trip(tmp_path, capsys):
    # the dump reads back as the point's distribution, bit for bit
    dump = tmp_path / "dist.csv"
    argv = ("--beta 0.7 --nu1 1 --nu2 2 --delta 0.1 --zeta 0.2 --theta 0.3 "
            f"--out {os.devnull} --dist-out {dump}").split()
    assert run(capsys, "cumulants", *argv) == (0, "", "")
    lines = dump.read_text().splitlines()
    assert lines[1] == "w,q_m,prob"
    rows = [line.split(",") for line in lines[2:]]
    dist = enumerate_paths(CycleParams(0.7, 1.0, 2.0, 0.1, 0.2), 0.3)
    assert len(rows) == dist.w.size
    for (w_text, q_text, p_text), w, q, p in zip(rows, dist.w, dist.q_m, dist.prob):
        assert float(w_text) == w
        assert float(q_text) == q
        assert float(p_text) == p  # 17 significant digits round-trip


def test_comparison_csv_header(capsys):
    code, out, err = run(
        capsys, "lz-compare", "--beta", "0.5", "--nu1", "0.4", "--nu2", "0.4",
        "--alpha-m", repr(math.pi / 4), "--axis", "delta", "--start", "0", "--stop", "0.5",
        "--steps", "2",
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[1] == "delta,w_mon,eta_mon,regime_mon,w_um,eta_um,regime_um"
    assert len(lines) == 4
    table = monitored_vs_unmonitored(
        LZParams.build(0.5, 0.4, 0.4, 0.0, 0.0, math.pi / 4, 0.0), [0.0, 0.5]
    )
    for i, line in enumerate(lines[2:]):
        cells = line.split(",")
        assert {cells[3], cells[6]} <= {str(r) for r in Regime}
        assert [cells[3], cells[6]] == [str(Regime(table.regime_mon[i])),
                                        str(Regime(table.regime_um[i]))]
        numbers = [float(cells[j]) for j in (0, 1, 2, 4, 5)]
        want = [table.delta[i], table.w_mon[i], table.eta_mon[i], table.w_um[i], table.eta_um[i]]
        assert np.array_equal(numbers, want, equal_nan=True)


# Every layout the table writer prints, by the command and output that
# print it; a grid table's axes come first, as axis columns.
TABLE_LAYOUTS = {
    "cumulants": cli._CUMULANTS,
    "cumulants --dist-out": cli._DISTRIBUTION,
    "cumulants --bounds-out": cli._BOUNDS,
    "sweep": [("delta", "%s", "delta", ()), *arraycli._SWEEP],
    "classify": [("delta", "%s", "delta", ()), ("theta", "%s", "theta", ()), *arraycli._CLASSIFY],
    "verify-bounds": arraycli._TALLY,
    "sample": cli._SAMPLE,
    "lz-compare": arraycli._COMPARISON,
}


def _table(columns, blocks) -> list[list[str]]:
    buf = io.StringIO()
    cli._write_table(buf, "# comment\n", columns, blocks)
    lines = buf.getvalue().splitlines()
    assert lines[:2] == ["# comment", ",".join(header for header, *_ in columns)]
    return [line.split(",") for line in lines[2:]]


@pytest.mark.parametrize("layout", TABLE_LAYOUTS)
def test_every_table_prints_negative_zero_as_0_and_codes_as_labels(layout):
    columns = TABLE_LAYOUTS[layout]
    # two rows: every number -0.0 and then 1.5, every code 0 and then its
    # last, every other field as it is
    block = {}
    for _, conversion, field, labels in columns:
        if conversion == cli._NUMBER:
            block[field] = np.array([-0.0, 1.5])
        elif labels:
            block[field] = np.array([0, len(labels) - 1], dtype=np.int8)
        else:
            block[field] = ["x", "y"] if conversion == "%s" else [3, 4]
    rows = _table(columns, [block])
    assert len(rows) == 2
    for j, (_, conversion, field, labels) in enumerate(columns):
        if conversion == cli._NUMBER:
            assert [row[j] for row in rows] == ["0", "1.5"]
        elif labels:
            assert [row[j] for row in rows] == [labels[0], labels[-1]]
        else:
            assert [row[j] for row in rows] == (["x", "y"] if conversion == "%s" else ["3", "4"])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=3 * arraycli._BLOCK_POINTS))
def test_every_number_cell_parses_back_to_its_float(values):
    # a block of any length is formatted whole
    rows = _table(cli._number_columns("x"), [{"x": np.array(values)}])
    assert len(rows) == len(values)
    for (text,), value in zip(rows, values):
        assert float(text) == value and text != "-0"


def test_grid_tables_print_no_negative_zero(capsys):
    # at beta < 0, delta = zeta = theta = 1/2 the efficiency W / Q_M is
    # -0.0 / Q_M, a negative zero
    code, out, _ = run(
        capsys, "sweep", "--beta", "-1.3", "--nu1", "1", "--nu2", "2", "--delta", "0.5",
        "--zeta", "0.5", "--theta", "0.5", "--axis", "delta", "--start", "0", "--stop", "1",
        "--steps", "37",
    )
    assert code == 0
    header, *rows = (line.split(",") for line in out.splitlines()[1:])
    assert "0" in [row[header.index("efficiency")] for row in rows]
    assert "-0" not in [cell for row in rows for cell in row]
    # an axis that stops at -0.0 ends on it
    base = ["--beta", "0.7", "--nu1", "1", "--nu2", "2", "--delta", "0.1", "--zeta", "0.1",
            "--theta", "0.3", "--axis", "beta", "--start", "-1", "--stop", "-0.0", "--steps", "3"]
    for grid in ([], ["--axis2", "theta", "--start2", "0", "--stop2", "0.5", "--steps2", "2"]):
        code, out, _ = run(capsys, "classify" if grid else "sweep", *base, *grid)
        assert code == 0
        beta = [line.split(",")[0] for line in out.splitlines()[2:]]
        assert beta[-1] == "0" and "-0" not in beta


@pytest.mark.parametrize("target", ["missing", "directory"])
@pytest.mark.parametrize("flag", ["--out", "--dist-out", "--bounds-out"])
def test_unwritable_output_path_is_config_error(flag, target, tmp_path, capsys):
    path = str(tmp_path / "no-such-dir" / "x.csv" if target == "missing" else tmp_path)
    code, out, err = run(capsys, "cumulants", *BASE, "--theta", "0.2", flag, path)
    assert code == 2
    # every path is opened before any text is written
    assert out == ""
    assert err.startswith(f"config error: cannot write {path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--dist-out", "--bounds-out"])
def test_unwritable_dump_path_leaves_the_out_file_as_it_was(flag, tmp_path, capsys):
    keep = tmp_path / "keep.csv"
    keep.write_text("old\n")
    missing = str(tmp_path / "no-such-dir" / "x.csv")
    code, out, err = run(
        capsys, "cumulants", *BASE, "--theta", "0.3", "--out", str(keep), flag, missing
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: cannot write {missing}: ")
    assert keep.read_text() == "old\n"


def test_device_outputs_are_not_truncated(capsys):
    # truncating a device such as /dev/null fails (EINVAL)
    argv = ["--out", os.devnull, "--dist-out", os.devnull, "--bounds-out", os.devnull]
    code, out, err = run(capsys, "cumulants", *BASE, "--theta", "0.3", *argv)
    assert (code, out, err) == (0, "", "")


@pytest.mark.parametrize("flags", [("--out", "--dist-out"), ("--out", "--bounds-out"),
                                   ("--dist-out", "--bounds-out")],
                         ids=["out-dist", "out-bounds", "dist-bounds"])
def test_two_outputs_on_one_file_are_config_error(flags, tmp_path, monkeypatch, capsys):
    # each output would be written over the other's text at offset 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.csv").write_text("old\n")
    argv = [flags[0], "x.csv", flags[1], "./x.csv"]
    code, out, err = run(capsys, "cumulants", *BASE, "--theta", "0.3", *argv)
    assert (code, out, err) == (2, "", "config error: x.csv and ./x.csv are the same file\n")
    assert (tmp_path / "x.csv").read_text() == "old\n"


def test_bound_report_dump(tmp_path, capsys):
    dump = tmp_path / "bounds.csv"
    code, _, _ = run(
        capsys, "cumulants", "--beta", "0.5", "--nu1", "1", "--nu2", "2",
        "--delta", "0.1", "--zeta", "0.1", "--theta", "0.3",
        "--bounds-out", str(dump),
    )
    assert code == 0
    lines = dump.read_text().splitlines()
    assert lines[1] == "bound_name,left,right,applicable,satisfied,margin"
    rows = [l.split(",") for l in lines[2:]]
    names = {r[0] for r in rows}
    assert "eta_le_otto" in names and "ratio_le_one" in names
    for r in rows:
        assert r[3] in ("true", "false") and r[4] in ("true", "false")
        if r[3] == "true":
            assert (float(r[1]) <= float(r[2]) + 1e-10) == (r[4] == "true")


# Both dumps of `cumulants` at one point of each mode, captured before
# --bounds-out took its 0-d columns from the run's own resolution.  The
# efficiency cells were taken again when eta became 1 - (nu1 / nu2)(1 + m):
# each is within 1.1 ulps of the exact pair quotient (tests/references.py).
# The asymmetric and cs dist dumps were taken again when a point came to be
# evaluated in floats: t = tanh(0.7) from the C library's tanh differs from
# numpy's there (at beta nu1 = 0.5 they agree); with numpy's t the float
# route gives the old dumps bit for bit.  Their bounds dumps were taken
# again when the bounds came to read the same t: only the forward <Q_T> and
# pair <W> cells changed, each now within 0.03 eps E of its exact value at
# that t (0.1 eps E at numpy's t before)
DUMP_POINTS = {
    "symmetric": "--beta 0.5 --nu1 1 --nu2 2 --delta 0.1 --zeta 0.1 --theta 0.3",
    "asymmetric": "--beta 0.7 --nu1 1 --nu2 2.5 --delta 0.1 --zeta 0.2 --theta 0.3",
    "cs": "--beta 0.7 --nu1 1 --nu2 3 --delta 0.1 --zeta 0.1 --theta 0.2 --cs-alpha 0.3 "
          "--branch plus",
}
PINNED_DUMPS = {
    ("symmetric", "bounds"): """\
# command=cumulants beta=0.5 bounds-out=bounds.csv delta=0.10000000000000001 dist-out=dist.csv nu1=1 nu2=2 theta=0.29999999999999999 zeta=0.10000000000000001
bound_name,left,right,applicable,satisfied,margin
qt_nonpositive,-0.34381516500144726,0,true,true,0.34381516500144726
equal_gap_work_nonpositive,0.19963461193632415,0,false,false,-0.19963461193632415
eta_le_otto,0.22499999999999998,0.5,true,true,0.27500000000000002
eta_sq_le_ratio,0.050624999999999989,0.52964061514741456,true,true,0.47901561514741459
ratio_le_one,0.52964061514741456,1,true,true,0.47035938485258544
otto_sq_le_ratio,0.25,0.52964061514741456,true,true,0.27964061514741456
""",
    ("symmetric", "dist"): """\
# command=cumulants beta=0.5 bounds-out=bounds.csv delta=0.10000000000000001 dist-out=dist.csv nu1=1 nu2=2 theta=0.29999999999999999 zeta=0.10000000000000001
w,q_m,prob
-6,-4,0.0021931757358900146
-4,-4,0.027
-2,-4,0.06535276539290881
-2,0,0.09211338090738061
0,0,0.57399999999999995
2,0,0.033886619092619384
2,4,0.1776472346070912
4,4,0.027000000000000003
6,4,0.00080682426410998544
""",
    ("asymmetric", "bounds"): """\
# command=cumulants beta=0.69999999999999996 bounds-out=bounds.csv delta=0.10000000000000001 dist-out=dist.csv nu1=1 nu2=2.5 theta=0.29999999999999999 zeta=0.20000000000000001
bound_name,left,right,applicable,satisfied,margin
qt_nonpositive,-0.48832916391066822,0,true,true,0.48832916391066822
equal_gap_work_nonpositive,0.29251400412470707,0,false,false,-0.29251400412470707
eta_le_otto,0.23047619047619039,0.59999999999999998,true,true,0.36952380952380959
eta_sq_le_ratio,0.053119274376417197,0.68928395854726843,true,true,0.63616468417085126
ratio_le_one,0.68928395854726843,1,true,true,0.31071604145273157
""",
    ("asymmetric", "dist"): """\
# command=cumulants beta=0.69999999999999996 bounds-out=bounds.csv delta=0.10000000000000001 dist-out=dist.csv nu1=1 nu2=2.5 theta=0.29999999999999999 zeta=0.20000000000000001
w,q_m,prob
-7,-5,0.0048131033313514914
-5,-5,0.02993448334324255
-3,-5,0.042728280071346332
-2,0,0.14599746771766189
0,0,0.51800000000000002
2,0,0.036002532282338115
3,5,0.17327171992865367
5,5,0.048065516656757457
7,5,0.0011868966686485094
""",
    ("cs", "bounds"): """\
# command=cumulants beta=0.69999999999999996 bounds-out=bounds.csv branch=plus cs-alpha=0.29999999999999999 delta=0.10000000000000001 dist-out=dist.csv nu1=1 nu2=3 theta=0.20000000000000001 zeta=0.10000000000000001
bound_name,left,right,applicable,satisfied,margin
cs_qt_nonpositive,-0.3236703581602357,0,true,true,0.3236703581602357
cs_eta_le_otto,0.18648674477248939,0.66666666666666674,true,true,0.48017992189417735
cs_eta_branch_order,0.18648674477248939,0.35833333333333339,true,true,0.17184658856084406
""",
    ("cs", "dist"): """\
# command=cumulants beta=0.69999999999999996 bounds-out=bounds.csv branch=plus cs-alpha=0.29999999999999999 delta=0.10000000000000001 dist-out=dist.csv nu1=1 nu2=3 theta=0.20000000000000001 zeta=0.10000000000000001
w,q_m,prob
-8,-6,0.0011001950620233159
-6,-6,0.012343498416556319
-4,-6,0.021975685725118259
-2,0,0.12458958882412507
0,0,0.7075370144269314
2,0,0.03072341434276233
4,6,0.089115800023888581
6,6,0.012343498416556317
8,6,0.00027130476203849707
""",

}


@pytest.mark.parametrize("mode", DUMP_POINTS)
def test_dumps_are_pinned(mode, tmp_path, monkeypatch, capsys):
    # relative paths, so the header holds no temporary directory
    monkeypatch.chdir(tmp_path)
    argv = DUMP_POINTS[mode].split() + ["--bounds-out", "bounds.csv", "--dist-out", "dist.csv"]
    assert run(capsys, "cumulants", *argv)[0] == 0
    for kind in ("bounds", "dist"):
        assert (tmp_path / f"{kind}.csv").read_text() == PINNED_DUMPS[mode, kind]


# At the grid's first point, theta = delta = zeta = 0, every mean flow is
# exactly 0, so its regime is Undetermined.
ZERO_GRID = ["classify", "--beta", "0.5", "--nu1", "1", "--nu2", "2", "--delta", "0",
             "--zeta", "0", "--theta", "0", "--axis", "theta", "--start", "0", "--stop", "0.5",
             "--steps", "2", "--axis2", "delta", "--start2", "0", "--stop2", "0.5",
             "--steps2", "2"]
LZ_POINT = ["--beta", "0.5", "--nu1", "0.4", "--nu2", "0.9", "--alpha-m", "1",
            "--axis", "delta", "--start", "0", "--stop", "1", "--steps", "3"]


def test_regime_tolerance_is_not_a_setting(tmp_path, monkeypatch, capsys):
    # regimes have one fixed zero tolerance: a config file cannot hold it
    # and the environment does not change it
    cfg = tmp_path / "tol.cfg"
    cfg.write_text("tol = 100\n")
    code, out, err = run(capsys, *ZERO_GRID, "--config", str(cfg))
    assert (code, out, err) == (2, "", f"config error: {cfg}:1: unknown key 'tol'\n")
    plain = run(capsys, *ZERO_GRID)
    lz = run(capsys, "lz-compare", *LZ_POINT)
    assert plain[1].splitlines()[2] == "0,0,0,0,0,Undetermined"
    # at delta = 0 both Landau-Zener cycles are engines, <W> = 0.0699
    assert lz[1].splitlines()[2].split(",")[3::3] == ["Engine", "Engine"]
    monkeypatch.setenv("OTTO_TOL", "100")
    assert run(capsys, *ZERO_GRID) == plain
    assert run(capsys, "lz-compare", *LZ_POINT) == lz


@pytest.mark.parametrize("slot", range(4))
def test_nan_pauli_weight_is_config_error(slot, capsys):
    weights = ["0.1", "0.1", "0.1", "0.7"]
    weights[slot] = "nan"
    pauli = [x for k, w in zip(("--p0", "--p1", "--p2", "--p3"), weights) for x in (k, w)]
    code, out, err = run(capsys, "cumulants", *BASE, *pauli)
    assert (code, out) == (2, "")
    assert err == "config error: Pauli weights must be nonnegative and sum to 1\n"


@pytest.mark.parametrize(
    "base, axes, mode",
    [
        ({"delta": 0.1, "zeta": 0.1}, (), "symmetric"),
        ({"delta": 0.1, "zeta": 0.2}, (), "asymmetric"),
        ({"delta": 0.1, "zeta": 0.1}, ("delta",), "symmetric"),
        ({"delta": 0.1, "zeta": 0.1}, ("delta", "zeta"), "asymmetric"),
        ({"delta": 0.1, "zeta": 0.2}, ("zeta",), "asymmetric"),
        ({"delta": 0.1, "zeta": 0.1}, ("cs-alpha",), "cs"),
        ({"delta": 0.1, "zeta": 0.2, "cs_alpha": 0.3}, ("theta",), "cs"),
    ],
)
def test_run_resolves_columns_and_mode(base, axes, mode):
    cfg = {"beta": 0.5, "nu1": 1.0, "nu2": 2.0, "theta": 0.2, **base}
    grid = [(axis, np.linspace(0.0, 0.4, 3 + i)) for i, axis in enumerate(axes)]
    columns, branch = _run(cfg, grid)
    assert branch == "minus"
    # the columns say the mode: a seventh is the control's alpha, and
    # outside cs zeta = delta throughout is the symmetric cycle
    assert len(columns) == (7 if mode == "cs" else 6)
    assert all(c.shape == tuple(3 + i for i in range(len(axes))) for c in columns)
    delta, zeta = columns[3], columns[4]
    # a swept delta or zeta carries the other along only on a symmetric base
    if mode != "cs":
        assert (delta == zeta).all() == (mode == "symmetric")


def test_invalid_channel_is_reported_before_invalid_cycle(capsys):
    # a single point reports what the same point in a grid reports
    bad = ["--beta", "0.5", "--nu1", "1", "--nu2", "2", "--delta", "1.5", "--zeta", "0",
           "--p0", "0.5", "--p1", "0.6", "--p2", "0", "--p3", "0"]
    message = "config error: Pauli weights must be nonnegative and sum to 1\n"
    assert run(capsys, "cumulants", *bad) == (2, "", message)
    assert run(capsys, "sweep", *bad, "--axis", "beta", "--start", "0", "--stop", "1",
               "--steps", "2") == (2, "", message)


def test_config_file_value_outside_choices_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "beta = 0.7\nnu1 = 1\nnu2 = 2\ndelta = 0\nzeta = 0\ntheta = 0.2\n"
        "axis = foo\nstart = 0\nstop = 0.4\nsteps = 3\n"
    )
    code, out, err = run(capsys, "sweep", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert "axis" in err and "foo" in err
    # choices belong to the running subcommand: lz-compare only sweeps
    # delta, and cumulants takes no axis at all
    cfg.write_text("axis = theta\n")
    code, _, err = run(capsys, "lz-compare", "--config", str(cfg))
    assert code == 2 and "axis = theta" in err
    code, _, _ = run(capsys, "cumulants", *BASE, "--theta", "0.2", "--config", str(cfg))
    assert code == 0
    # verify-bounds takes no cycle flag, yet a shared file may hold cycle keys
    cfg.write_text("beta = 0.7\ndelta = 0.1\n")
    code, out, _ = run(capsys, "verify-bounds", "--samples", "10", "--config", str(cfg))
    assert code == 0 and "beta=0.69999999999999996" in out.splitlines()[0].split()


def test_explicit_zero_samples_is_not_the_default(capsys):
    code, out, err = run(
        capsys, "sample", *BASE, "--theta", "0.2", "--samples", "0", "--seed", "1"
    )
    assert (code, out) == (2, "")
    assert "at least one draw" in err
    # beyond the most draws the sampler counts
    code, out, err = run(
        capsys, "sample", *BASE, "--theta", "0.2", "--samples", str(2**63), "--seed", "1"
    )
    assert (code, out, err) == (2, "", "config error: need at most 2**63 - 1 draws\n")
    for samples in ("0", "-3"):
        code, out, err = run(capsys, "verify-bounds", "--samples", samples)
        assert (code, out) == (2, "")
        assert "--samples" in err


def test_sweep_labels_inapplicable_bounds_na(tmp_path, capsys):
    dump = tmp_path / "bounds.csv"
    point = [
        "--beta", "-0.7", "--nu1", "1", "--nu2", "2.3", "--delta", "0.1",
        "--zeta", "0.1",
    ]
    code, out, _ = run(
        capsys, "sweep", *point, "--theta", "0.2", "--axis", "theta",
        "--start", "0.1", "--stop", "0.3", "--steps", "2",
    )
    assert code == 0
    lines = out.splitlines()
    header, last = lines[1].split(","), lines[-1].split(",")
    label = last[header.index("equal_gap_work_nonpositive")]
    run(capsys, "cumulants", *point, "--theta", "0.3", "--bounds-out", str(dump))
    report = next(l for l in dump.read_text().splitlines()
                  if l.startswith("equal_gap_work_nonpositive,"))
    assert report.split(",")[3] == "false"
    assert label == "n/a"


def test_sweep_where_every_point_is_symmetric_checks_the_symmetric_bound(capsys):
    # an unequal base, but the axis puts delta = zeta = 0.1 at every point:
    # every point is the symmetric cycle, with its bound
    base = ["--beta", "0.7", "--nu1", "1", "--nu2", "2.5", "--theta", "0.3", "--delta", "0.3"]
    axis = ["--axis", "delta", "--start", "0.1", "--stop", "0.1", "--steps", "3"]
    code, out, err = run(capsys, "sweep", *base, "--zeta", "0.1", *axis)
    assert (code, err) == (0, "")
    header = out.splitlines()[1].split(",")
    assert header[-1] == "otto_sq_le_ratio"
    # the same rows as the symmetric base's sweep
    code, symmetric, _ = run(capsys, "sweep", *base[:-1], "0.1", "--zeta", "0.1", *axis)
    assert code == 0 and out.splitlines()[1:] == symmetric.splitlines()[1:]


def test_sweep_keeps_its_columns_when_a_block_is_symmetric(capsys):
    # 257 points in blocks of 256: the last block is the one point with
    # delta = zeta, and its row keeps the columns of the run
    code, out, err = run(
        capsys, "sweep", "--beta", "0.7", "--nu1", "1", "--nu2", "2.5", "--theta", "0.3",
        "--delta", "0.3", "--zeta", "0.5", "--axis", "delta", "--start", "0", "--stop", "0.5",
        "--steps", "257",
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()[1:]
    assert len(lines) == 258 and lines[-1].startswith("0.5,")
    assert "otto_sq_le_ratio" not in lines[0]
    assert {line.count(",") for line in lines} == {lines[0].count(",")}


def test_cs_alpha_sweep_is_cs_with_or_without_a_base_value(capsys):
    sweep = [
        "sweep", "--beta", "1.3", "--nu1", "0.7", "--nu2", "3", "--delta", "0.1",
        "--zeta", "0.2", "--theta", "0.3", "--axis", "cs-alpha", "--start", "0",
        "--stop", "1", "--steps", "3",
    ]
    code, swept, _ = run(capsys, *sweep)
    assert code == 0
    code, based, _ = run(capsys, *sweep, "--cs-alpha", "0.5")
    assert code == 0
    assert swept.splitlines()[1:] == based.splitlines()[1:]
    header = swept.splitlines()[1].split(",")
    assert any(name.startswith("cs_") for name in header)


# (nu1, nu2, whether finite differences of ln(chi) find no usable step
# there): the series route must give finite rows on those pairs too
@pytest.mark.parametrize(
    "nu1, nu2, unusable",
    [("10", "20", False), ("50", "120", False), ("0.001", "0.002", True)],
)
def test_unusable_derivative_route_leaves_nan_rows(nu1, nu2, unusable, capsys):
    code, out, err = run(
        capsys, "cumulants", "--beta", "0.7", "--nu1", nu1, "--nu2", nu2,
        "--delta", "0.1", "--zeta", "0.1", "--theta", "0.2",
    )
    assert code == 0
    assert err == ""
    rows = {l.split(",")[0]: l.split(",")[1:] for l in out.splitlines()[2:]}
    assert list(rows) == [
        "enumeration", "closed_form", "closed_form_delta", "cf_derivative",
        "cf_derivative_delta",
    ]
    fd = [float(c) for c in rows["cf_derivative"] + rows["cf_derivative_delta"]]
    exact = [float(c) for c in rows["enumeration"]]
    assert all(math.isfinite(v) for v in exact + fd)
    w_scale, q_scale = 2.0 * (float(nu1) + float(nu2)), 2.0 * float(nu2)
    for k in range(4):
        assert abs(fd[k] - exact[k]) <= 1e-13 * w_scale ** (k + 1)
        assert abs(fd[4 + k] - exact[4 + k]) <= 1e-13 * q_scale ** (k + 1)


@pytest.mark.parametrize(
    "point",
    [
        ("40", "1", "3", "0", "0"),
        ("-52.51936446075948", "0.8772885040320562", "1854.5650753270318", "1", "0.8574958478957697"),
    ],
)
def test_derivative_rows_of_a_certain_heat(point, capsys):
    # theta = 1 with t = +-1 and delta in {0, 1}: Q_M takes one value, so
    # both routes give it zero variance
    beta, nu1, nu2, delta, zeta = point
    code, out, err = run(
        capsys, "cumulants", "--beta", beta, "--nu1", nu1, "--nu2", nu2,
        "--delta", delta, "--zeta", zeta, "--theta", "1",
    )
    assert (code, err) == (0, "")
    rows = {l.split(",")[0]: l.split(",")[1:] for l in out.splitlines()[2:]}
    assert float(rows["enumeration"][5]) == float(rows["cf_derivative"][5]) == 0.0


@pytest.mark.parametrize(
    "point",
    [("40", "1", "3", "0", "0", "1"), ("0", "1", "2", "0.5", "0.5", "0.3472983747254472")],
)
def test_derivative_rows_print_no_negative_zero(point, capsys):
    # vanishing series coefficients come out as -0.0 before normalising
    flags = ("--beta", "--nu1", "--nu2", "--delta", "--zeta", "--theta")
    code, out, _ = run(capsys, "cumulants", *(x for pair in zip(flags, point) for x in pair))
    assert code == 0
    rows = {l.split(",")[0]: l.split(",")[1:] for l in out.splitlines()[2:]}
    assert "0" in rows["cf_derivative"]
    assert "-0" not in rows["cf_derivative"] + rows["cf_derivative_delta"]
    if point[0] == "40":
        assert "-0" not in [c for cells in rows.values() for c in cells]


def test_closed_form_and_bound_rows_print_no_negative_zero(tmp_path, capsys):
    # at beta = 0 the closed-form bath heat is -2 g nu1 t with t = 0: -0.0
    dump = tmp_path / "bounds.csv"
    code, out, _ = run(
        capsys, "cumulants", "--beta", "0", "--nu1", "1", "--nu2", "2", "--delta", "0.5",
        "--zeta", "0.5", "--theta", "0.35", "--bounds-out", str(dump),
    )
    assert code == 0
    rows = {l.split(",")[0]: l.split(",")[1:] for l in out.splitlines()[2:]}
    assert rows["closed_form"][-1] == "0"
    bounds = {l.split(",")[0]: l.split(",")[1:] for l in dump.read_text().splitlines()[2:]}
    assert bounds["qt_nonpositive"][0] == "0"
    cells = [c for table in (rows, bounds) for row in table.values() for c in row]
    assert "-0" not in cells


def fresh_python(*args, cwd=None, stdout=subprocess.PIPE, **env):
    """Run ``python *args`` in a fresh interpreter that imports this
    checkout's package, its output captured or written to ``stdout``; one
    that runs over a minute is killed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, cwd=cwd, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path, **env))


def test_an_array_command_run_as_a_module_reports_its_config_error():
    # the array commands raise the errors of the package's cli module,
    # which python -m runs under another name
    proc = fresh_python("-m", "unital_otto.cli", "sweep", *POINT, "--axis", "delta",
                        "--start", "0", "--stop", "1", "--steps", "1")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "config error: steps must be >= 2\n"


def test_a_closed_pipe_ends_a_run_quietly():
    # a reader that has gone, as `| head -1` leaves: the run exits 1 with
    # nothing on stderr, the exit's flush included.  The read end is closed
    # before the run starts, so that its first write fails with EPIPE;
    # fresh_python waits for the run, or kills it.  stdout is buffered, as
    # on a pipe by default (CPython reads an empty value as unset), so that
    # a short table reaches the pipe only when flushed
    sweep = ["sweep", *POINT, "--axis", "delta", "--start", "0", "--stop", "0.5",
             "--steps", "20000"]
    for argv in (sweep, ["cumulants", *POINT]):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = fresh_python("-m", "unital_otto.cli", *argv, stdout=write, PYTHONUNBUFFERED="")
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, ""), argv[0]


def test_overflowing_cumulants_print_only_the_error():
    # a fresh interpreter, whose default filters print each RuntimeWarning
    proc = fresh_python(
        "-m", "unital_otto.cli", "cumulants", "--beta", "0.7", "--nu1", "1e80",
        "--nu2", "2e80", "--delta", "0.1", "--zeta", "0.1", "--theta", "0.2",
        PYTHONWARNINGS="default",
    )
    assert proc.returncode == 2
    assert proc.stderr == "config error: cumulants must be finite\n"


@pytest.mark.parametrize("strokes", [("0", "0", "1"), ("0.1", "0.1", "0.2")],
                         ids=["certain", "spread"])
def test_sample_at_huge_gaps_prints_no_traceback(strokes):
    # the exact cumulants come first and are centred: where they overflow
    # the run is the config error cumulants gives, and a certain outcome,
    # whose centred moments are 0, is a table; before, the draws' raw
    # moments overflowed in both runs, and the variance raised OverflowError
    delta, zeta, theta = strokes
    proc = fresh_python(
        "-m", "unital_otto.cli", "sample", "--beta", "0.7", "--nu1", "1e200",
        "--nu2", "3e200", "--delta", delta, "--zeta", zeta, "--theta", theta,
        "--samples", "1000", PYTHONWARNINGS="default",
    )
    if delta == "0":
        # beta nu1 = 7e199: W = 2 (nu2 - nu1) and Q_M = 2 nu2 with certainty
        assert (proc.returncode, proc.stderr) == (0, "")
        rows = [line.split(",") for line in proc.stdout.splitlines()[2:]]
        assert rows == [["w", "3.9999999999999999e+200", "3.9999999999999999e+200",
                         *["0"] * 6],
                        ["q_m", "5.9999999999999998e+200", "5.9999999999999998e+200",
                         *["0"] * 6]]
    else:
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "config error: cumulants must be finite\n"


# beta nu1 = 7e199 and theta = 1: W = 2 (nu2 - nu1) and Q_M = 2 nu2 with
# certainty, so every cumulant is finite, though the outcomes of probability
# 0 sit 4e200 away, where a centred square overflows
HUGE_CERTAIN = ["--beta", "0.7", "--nu1", "1e200", "--nu2", "3e200", "--delta", "0",
                "--zeta", "0", "--theta", "1"]


def test_a_certain_outcome_at_huge_gaps_sweeps():
    proc = fresh_python(
        "-m", "unital_otto.cli", "sweep", *HUGE_CERTAIN,
        "--axis", "theta", "--start", "1", "--stop", "1", "--steps", "2",
        PYTHONWARNINGS="default",
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    # adiabatic strokes: the efficiency is the Otto efficiency, bitwise
    row = ("1,3.9999999999999999e+200,0,0,0,5.9999999999999998e+200,0,0,0,"
           f"-1.9999999999999999e+200,0,{1.0 - 1e200 / 3e200:.17g},Engine,ok,n/a,ok,n/a,n/a,n/a")
    assert proc.stdout.splitlines()[2:] == [row, row]


@pytest.mark.parametrize("nu1", ["1e10", "1e20", "1e40", "1e76"])
def test_a_certain_outcome_prints_no_residue_as_a_cumulant(nu1, capsys):
    # beta nu1 >= 7e9 makes t = 1: with theta = 1 and adiabatic strokes W
    # and Q_M are certain, and every cumulant beyond the mean is 0 on each
    # route, not what rounding leaves of the closed forms or of the
    # series' cancelling coefficients (closed forms stop at kappa_2)
    code, out, err = run(capsys, "cumulants", "--beta", "0.7", "--nu1", nu1,
                         "--nu2", repr(3 * float(nu1)), "--delta", "0", "--zeta", "0",
                         "--theta", "1")
    assert (code, err) == (0, "")
    rows = {l.split(",")[0]: l.split(",")[1:] for l in out.splitlines()[2:]}
    higher = [1, 2, 3, 5, 6, 7]  # w_k2..w_k4 and qm_k2..qm_k4
    assert [rows["enumeration"][k] for k in higher] == ["0"] * 6
    assert [rows["cf_derivative"][k] for k in higher] == ["0"] * 6
    assert [rows["closed_form"][k] for k in higher] == ["0", "nan", "nan"] * 2


def test_a_failing_derivative_route_prints_nan_cells():
    # the characteristic function's Taylor coefficients overflow (f^2 ~ 6e401),
    # so that diagnostic route has no cumulants; the enumeration is the answer
    proc = fresh_python("-m", "unital_otto.cli", "cumulants", *HUGE_CERTAIN,
                        PYTHONWARNINGS="default")
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = {line.split(",", 1)[0]: line for line in proc.stdout.splitlines()[2:]}
    assert rows["enumeration"] == ("enumeration,3.9999999999999999e+200,0,0,0,"
                                   "5.9999999999999998e+200,0,0,0,-1.9999999999999999e+200")
    for route in ("cf_derivative", "cf_derivative_delta"):
        assert rows[route] == ",".join([route, *["nan"] * 9])


POINT = ["--beta", "0.7", "--nu1", "1", "--nu2", "2", "--delta", "0.1", "--zeta", "0.1",
         "--theta", "0.2"]


def test_a_run_freezes_the_import_time_heap():
    # everything alive once the package is imported is frozen by main, so
    # the interpreter's exit collections skip it
    proc = fresh_python("-c", f"""
import gc, os
import unital_otto.cli
imported = len(gc.get_objects())
assert unital_otto.cli.main({["cumulants", *POINT, "--out", os.devnull]!r}) == 0
print(imported, gc.get_freeze_count())
""")
    assert proc.returncode == 0, proc.stderr
    imported, frozen = map(int, proc.stdout.split())
    assert frozen >= imported > 10000


def test_an_array_run_freezes_numpy_too():
    # numpy comes in with an array command, after main has started: the
    # freeze after the run covers it, at least the live heap that importing
    # the array commands leaves
    heap = fresh_python("-c", "import gc, unital_otto.arraycli; gc.collect(); "
                              "print(len(gc.get_objects()))")
    axis = ["--axis", "delta", "--start", "0", "--stop", "0.5", "--steps", "3"]
    proc = fresh_python("-c", f"""
import gc, os, sys
import unital_otto.cli
print("numpy" in sys.modules)
assert unital_otto.cli.main({["sweep", *POINT, *axis, "--out", os.devnull]!r}) == 0
print(gc.get_freeze_count())
""")
    assert proc.returncode == 0, proc.stderr
    imported, frozen = proc.stdout.split()
    assert imported == "False"
    assert int(frozen) >= int(heap.stdout)


# the runs that load numpy: the commands that evaluate arrays, and the
# bound reports of one point
ARRAY_RUNS = {"sweep", "classify", "verify-bounds", "lz-compare", "cumulants --bounds-out"}


@pytest.mark.parametrize("module, importers", [("numpy.random", set()),
                                               ("unital_otto.pcg64", {"verify-bounds"}),
                                               ("numpy", ARRAY_RUNS)],
                         ids=["numpy.random", "unital_otto.pcg64", "numpy"])
def test_no_command_imports_numpy_random(module, importers):
    # numpy.random (its legacy mtrand, four bit generators and, through
    # secrets, OpenSSL's hashes) costs a run about 18 ms and 6 MB: sample
    # draws on the standard library's stream, and verify-bounds computes
    # its PCG64 words itself, in the one module that no other command
    # imports.  A one-point run (cumulants, sample) evaluates its point in
    # floats and imports no numpy at all
    axis = ["--axis", "delta", "--start", "0", "--stop", "0.5", "--steps", "3"]
    runs = {
        "cumulants": ["cumulants", *POINT],
        "cumulants --dist-out": ["cumulants", *POINT, "--dist-out", os.devnull],
        "cumulants --bounds-out": ["cumulants", *POINT, "--bounds-out", os.devnull],
        "sweep": ["sweep", *POINT, *axis],
        "classify": ["classify", *POINT, *axis, "--axis2", "theta", "--start2", "0",
                     "--stop2", "1", "--steps2", "3"],
        "verify-bounds": ["verify-bounds", "--samples", "10", "--seed", "1"],
        "sample": ["sample", *POINT, "--samples", "1000", "--seed", "1"],
        "lz-compare": ["lz-compare", *POINT[:6], "--alpha-m", "1", *axis],
    }
    assert {argv[0] for argv in runs.values()} == _COMMANDS.keys()
    for name, argv in runs.items():
        proc = fresh_python("-c", f"""
import os, sys
from unital_otto.cli import main
assert main({[*argv, "--out", os.devnull]!r}) == 0
print({module!r} in sys.modules)
""")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{name in importers}\n", name


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_lz_compare_peaks_with_a_cumulants_point(tmp_path):
    # lz-compare calls neither LAPACK nor BLAS: their first calls, eigvalsh
    # on the Gibbs state and zgemm in the propagation, took its peak about
    # 1.3 MB above a one-point run's.  A one-point run imports no numpy, so
    # the point is one that does and calls neither: its bound reports import
    # numpy.  Both run from bytecode compiled once into a private prefix:
    # compiling arraycli and landauzener would otherwise count against
    # lz-compare
    def peak_mb(argv, **env):
        proc = fresh_python("-c", f"""
import os
from unital_otto.cli import main
assert main({[*argv, "--out", os.devnull]!r}) == 0
print(next(l.split()[1] for l in open("/proc/self/status") if l.startswith("VmHWM:")))
""", PYTHONPYCACHEPREFIX=str(tmp_path / "pycache"), **env)
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout) / 1024

    lz = ["lz-compare", *POINT[:6], "--alpha-m", "1", "--phi", "0.3", "--chi", "-1",
          "--axis", "delta", "--start", "0", "--stop", "1", "--steps", "2501"]
    commands = {"lz-compare": lz, "cumulants": ["cumulants", *POINT, "--bounds-out", os.devnull]}
    for argv in commands.values():
        # CPython reads an empty value as unset, so this run writes the
        # bytecode of all it imports, numpy and the standard library too
        peak_mb(argv, PYTHONDONTWRITEBYTECODE="")
    runs = {command: min(peak_mb(argv) for _ in range(3)) for command, argv in commands.items()}
    assert runs["lz-compare"] - runs["cumulants"] <= 0.5, runs


def test_table_bytes_do_not_depend_on_the_cpu(tmp_path):
    # the same bytes under the default kernels, under the OpenBLAS kernel of
    # AVX2-only CPUs and with every SIMD target of numpy's off: a grid takes
    # t from the C library's tanh and sums its moments in outcome order, so
    # neither numpy's SIMD tanh nor a BLAS kernel reaches a table
    from numpy._core._multiarray_umath import __cpu_dispatch__

    cycle = ["--beta", "0.7", "--nu1", "1", "--nu2", "2.5", "--delta", "0.1"]
    runs = {
        "classify": ["classify", *cycle, "--zeta", "0.1", "--theta", "0.3", "--axis", "beta",
                     "--start", "-2", "--stop", "2", "--steps", "41", "--axis2", "delta",
                     "--start2", "0", "--stop2", "1", "--steps2", "41"],
        "sweep": ["sweep", *cycle, "--zeta", "0.2", "--theta", "0.3", "--axis", "beta",
                  "--start", "-3", "--stop", "3", "--steps", "601"],
        "verify-bounds": ["verify-bounds", "--samples", "15000", "--seed", "1"],
        "cumulants": ["cumulants", *cycle, "--zeta", "0.2", "--theta", "0.3",
                      "--bounds-out", "bounds.csv"],
    }
    settings = {"default": {}, "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
                "no-simd": {"NPY_DISABLE_CPU_FEATURES": " ".join(__cpu_dispatch__)}}
    outputs = {}
    for setting, env in settings.items():
        # relative paths, so that the headers are the same
        (tmp_path / setting).mkdir()
        proc = fresh_python("-c", f"""
from unital_otto.cli import main
for name, argv in {runs!r}.items():
    assert main([*argv, "--out", name + ".csv"]) == 0
""", cwd=tmp_path / setting, **env)
        assert proc.returncode == 0, proc.stderr
        outputs[setting] = {path.name: path.read_bytes() for path in (tmp_path / setting).iterdir()}
    assert len(outputs["default"]) == 5
    assert outputs["haswell"] == outputs["default"]
    assert outputs["no-simd"] == outputs["default"]


def test_a_second_run_in_one_process_freezes_nothing(capsys):
    # a long-lived caller's later garbage stays collectable
    assert run(capsys, "cumulants", *POINT)[0] == 0
    frozen = gc.get_freeze_count()
    assert frozen > 0
    junk = [[i] for i in range(1000)]
    assert run(capsys, "cumulants", *POINT)[0] == 0
    assert gc.get_freeze_count() == frozen
    del junk


def test_a_second_run_does_not_walk_the_frozen_heap(capsys, monkeypatch):
    # gc.get_freeze_count walks the permanent generation on every call
    assert run(capsys, "cumulants", *POINT)[0] == 0

    def walk():
        raise AssertionError("gc.get_freeze_count called again")

    monkeypatch.setattr(gc, "get_freeze_count", walk)
    assert run(capsys, "cumulants", *POINT)[0] == 0


@pytest.mark.parametrize("text, message", [
    (b"beta = abc\n", "could not convert string to float: 'abc'"),
    (b"beta = \xff\n", "cannot read config file {}: 'utf-8' codec can't decode byte 0xff "
                         "in position 7: invalid start byte"),
], ids=["value", "encoding"])
def test_a_config_file_its_flags_reject_is_a_config_error(text, message, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(text)
    code, out, err = run(capsys, "cumulants", *POINT[2:], "--config", str(cfg))
    assert (code, out, err) == (2, "", f"config error: {message.format(cfg)}\n")


def test_a_program_fault_is_not_a_config_error(capsys, monkeypatch):
    # exit 2 is for input the program rejects; an error of the program
    # itself propagates
    def broken(params, delta):
        raise ValueError("a slip inside the program")

    monkeypatch.setattr(landauzener, "_propagate", broken)
    with pytest.raises(ValueError, match="^a slip inside the program$"):
        main(["lz-compare", *LZ_POINT])
    assert "config error" not in capsys.readouterr().err


def test_every_input_check_raises_input_error():
    # a bare ValueError would read as a fault of the program
    src = Path(cli.__file__).parent
    raised = [
        (path.name, node.lineno)
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "ValueError"
    ]
    assert raised == []


FILE_RUNS = {
    "cumulants": ["cumulants", *POINT, "--out", "a.csv", "--dist-out", "b.csv",
                  "--bounds-out", "c.csv"],
    "classify": ["classify", *POINT, "--axis", "delta", "--start", "0", "--stop", "0.5",
                 "--steps", "21", "--axis2", "theta", "--start2", "0", "--stop2", "1",
                 "--steps2", "21", "--out", "a.csv"],
    "lz-compare": ["lz-compare", "--beta", "0.5", "--nu1", "0.4", "--nu2", "0.9",
                   "--alpha-m", "1", "--phi", "0.3", "--chi", "-1", "--axis", "delta",
                   "--start", "0", "--stop", "1", "--steps", "301", "--out", "a.csv"],
}


@pytest.mark.parametrize("command", FILE_RUNS)
def test_files_of_a_fresh_run_are_whole_at_exit(command, tmp_path, monkeypatch, capsys):
    # every output file is closed by main itself, not by a finalizer that
    # the frozen heap would skip: a fresh interpreter leaves the same bytes
    # as an in-process run
    argv = FILE_RUNS[command]
    (tmp_path / "fresh").mkdir()
    proc = fresh_python("-m", "unital_otto.cli", *argv, cwd=tmp_path / "fresh")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (0, "", "")
    names = sorted(p.name for p in (tmp_path / "fresh").iterdir())
    assert names == sorted(a for a in argv if a.endswith(".csv"))
    for name in names:
        fresh = (tmp_path / "fresh" / name).read_bytes()
        assert fresh.startswith(b"# command=") and fresh == (tmp_path / name).read_bytes()


def test_sweep_prints_no_ratio_of_a_cancelled_denominator(capsys):
    code, out, _ = run(
        capsys, "sweep", "--beta", "1.3", "--nu1", "0.7", "--nu2", "3", "--delta", "0.3",
        "--zeta", "0.05", "--theta", "0.3", "--axis", "delta", "--start", "0",
        "--stop", "1", "--steps", "41", "--cs-alpha", "0.3", "--branch", "minus",
    )
    assert code == 0
    header, *rows = out.splitlines()[1:]
    column = header.split(",").index("efficiency")
    eta = {row.split(",")[0]: row.split(",")[column] for row in rows}
    # delta + zeta = 1: forward and backward heat cancel to rounding residue
    assert eta["0.95000000000000007"] == "nan"
    assert all(math.isfinite(float(v)) for k, v in eta.items() if k != "0.95000000000000007")

    # at beta = 0 the mean work cancels over the outcomes
    code, out, _ = run(
        capsys, "sweep", "--beta", "0", "--nu1", "0.7", "--nu2", "3", "--delta", "0.3",
        "--zeta", "0.05", "--theta", "0.3", "--axis", "delta", "--start", "0",
        "--stop", "1", "--steps", "11",
    )
    assert code == 0
    header, *rows = out.splitlines()[1:]
    column = header.split(",").index("w_rf")
    assert [row.split(",")[column] for row in rows] == ["inf"] * 11


def test_sweep_prints_a_row_where_the_squared_mean_work_underflows(capsys):
    # gaps of 1e-170: <W>^2 underflows to 0, and w_rf is still a row's cell
    code, out, err = run(
        capsys, "sweep", "--beta", "0.7", "--nu1", "1e-170", "--nu2", "2e-170", "--delta", "0.1",
        "--zeta", "0.1", "--theta", "0.2", "--axis", "beta", "--start", "1e160",
        "--stop", "2e160", "--steps", "2",
    )
    assert code == 0 and err == ""
    header, *rows = out.splitlines()[1:]
    column = header.split(",").index("w_rf")
    assert len(rows) == 2
    for row in rows:
        cells = [float(c) for c in row.split(",")[:column + 1]]
        assert cells[1] != 0.0 and cells[1] ** 2 == 0.0
        assert cells[column] == cells[2] / cells[1] / cells[1]


README =(Path(__file__).resolve().parents[1] / "README.md").read_text()


def readme_commands():
    """The ``unital-otto`` invocations of README's command-line block."""
    block = README.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(l)[1:] for l in lines if l.strip().startswith("unital-otto")]


def test_readme_python_blocks_run_in_order():
    # each block builds on the names the blocks before it defined
    blocks = [b.split("```", 1)[0] for b in README.split("```python\n")[1:]]
    assert len(blocks) == 4
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert {"reports", "engine_checks", "eta", "regimes", "nu2_min", "escapes"} <= set(namespace)
    assert namespace["escapes"] == {2: 0, 3: 21, 4: 28}


def test_readme_lists_every_command():
    assert {argv[0] for argv in readme_commands()} == set(_COMMANDS)


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_runs(argv, tmp_path, capsys):
    argv = list(argv)
    out = tmp_path / "out.csv"
    if "--out" in argv:
        argv[argv.index("--out") + 1] = str(out)
    else:
        argv += ["--out", str(out)]
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    assert out.read_text().startswith(f"# command={argv[0]} ")


@pytest.mark.parametrize("axes", [("theta", "alpha-m"), ("alpha-m", "theta")])
def test_theta_and_alpha_m_grid_is_config_error(axes, capsys):
    # both axes set the flip probability, so one of them would change nothing
    code, out, err = run(
        capsys, "classify", "--beta", "0.5", "--nu1", "1", "--nu2", "2", "--delta", "0.1",
        "--zeta", "0.1", "--axis", axes[0], "--start", "0.1", "--stop", "0.3", "--steps", "2",
        "--axis2", axes[1], "--start2", "0.5", "--stop2", "1", "--steps2", "2",
    )
    assert (code, out) == (2, "")
    assert err.startswith("config error: ") and "theta" in err and "alpha-m" in err


PAULI_BASE = ["--beta", "0.5", "--nu1", "1", "--nu2", "2", "--delta", "0.1", "--zeta", "0.1",
              "--p0", "0.5", "--p1", "0.2", "--p2", "0.1", "--p3", "0.2"]


@pytest.mark.parametrize("command, axes", [
    ("sweep", ["--axis", "alpha-m", "--start", "0.5", "--stop", "1", "--steps", "3"]),
    ("classify", ["--axis", "alpha-m", "--start", "0.5", "--stop", "1", "--steps", "3",
                  "--axis2", "delta", "--start2", "0", "--stop2", "0.2", "--steps2", "2"]),
    ("classify", ["--axis", "delta", "--start", "0", "--stop", "0.2", "--steps", "2",
                  "--axis2", "alpha-m", "--start2", "0.5", "--stop2", "1", "--steps2", "3"]),
], ids=["sweep", "classify-first-axis", "classify-second-axis"])
def test_swept_alpha_m_on_pauli_weights_is_config_error(command, axes, capsys):
    # the weights would fix the flip probability and the angle change nothing
    code, out, err = run(capsys, command, *PAULI_BASE, *axes)
    assert (code, out) == (2, "")
    assert err.startswith("config error: ") and "alpha-m" in err and "Pauli" in err


@pytest.mark.parametrize("command, flag", [
    *[("verify-bounds", flag) for flag in ("--beta", "--nu1", "--nu2", "--delta", "--zeta")],
    ("lz-compare", "--delta"),
    ("lz-compare", "--zeta"),
    # the monitored cycle sees only theta = sin^2(alpha_m)/2, never chi
    *[(command, "--chi") for command in ("cumulants", "sweep", "classify", "sample")],
])
def test_flags_a_subcommand_would_ignore_are_rejected(command, flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, flag, "0.1"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} 0.1" in capsys.readouterr().err



@pytest.mark.parametrize("value", ["-1e3", "-1E+3", "-.5e1", "-2.5e-3"])
def test_negative_numbers_in_exponent_form_are_values(value, capsys):
    # argparse's own pattern of a negative number has no exponent, so
    # --beta -1e3 used to exit 2 with "expected one argument"
    point = ["--nu1", "1", "--nu2", "2", "--delta", "0.1", "--zeta", "0.1", "--theta", "0.2"]
    axis = ["--axis", "beta", "--stop", "1", "--steps", "3"]
    for spaced, joined in (
        (["cumulants", "--beta", value, *point], ["cumulants", f"--beta={value}", *point]),
        (["sweep", "--beta", "1", *point, "--start", value, *axis],
         ["sweep", "--beta", "1", *point, f"--start={value}", *axis]),
    ):
        got = run(capsys, *spaced)
        assert got[0] == 0 and got == run(capsys, *joined)
    parser = build_parser()
    for command in _COMMANDS.keys() - {"verify-bounds"}:
        assert parser.parse_args([command, "--beta", value]).beta == float(value)
    # an unknown option is still one
    with pytest.raises(SystemExit) as exit_info:
        main(["cumulants", "--bogus", value, "--beta", value, *point])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: --bogus {value}" in capsys.readouterr().err
