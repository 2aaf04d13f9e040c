"""Command-line interface: outputs, config handling, exit codes."""

import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from unital_otto.cli import _COMMANDS, _merge_config, _run, build_parser, main


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
        merged = _merge_config(args, parser)
        assert merged[action.dest] == kind(text), (command, key)
        assert type(merged[action.dest]) is kind, (command, key)
        seen += 1
    assert seen > 40


def test_config_file_output_paths(tmp_path, capsys):
    dist, bounds = tmp_path / "d.csv", tmp_path / "b.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "beta = 0.7\nnu1 = 1\nnu2 = 2\ndelta = 0\nzeta = 0\ntheta = 0.2\n"
        f"dist-out = {dist}\nbounds_out = {bounds}\ntol = 1e-9\n"
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


def test_tolerance_env_var_controls_regime_zero(monkeypatch, capsys):
    # a huge zero-tolerance makes every flow "zero" and the map Undetermined
    args = [
        "classify", "--axis", "delta", "--start", "0", "--stop", "0.2",
        "--steps", "2", "--axis2", "theta", "--start2", "0.3", "--stop2", "0.6",
        "--steps2", "2", "--beta", "0.5", "--nu1", "1", "--nu2", "2",
        "--delta", "0", "--zeta", "0", "--theta", "0.2",
    ]
    code, out, _ = run(capsys, *args)
    assert "Engine" in out
    monkeypatch.setenv("OTTO_TOL", "100")
    code, out, _ = run(capsys, *args)
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith(("#", "delta"))]
    assert all(r.endswith("Undetermined") for r in rows)


def test_otto_tol_is_recorded_in_the_header(monkeypatch, tmp_path, capsys):
    args = [
        "classify", "--axis", "delta", "--start", "0", "--stop", "0.2",
        "--steps", "2", "--axis2", "theta", "--start2", "0.3", "--stop2", "0.6",
        "--steps2", "2", "--beta", "0.5", "--nu1", "1", "--nu2", "2",
        "--delta", "0", "--zeta", "0", "--theta", "0.2",
    ]
    _, plain, _ = run(capsys, *args)
    assert " tol=" not in plain.splitlines()[0]
    monkeypatch.setenv("OTTO_TOL", "100")
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert "tol=100" in out.splitlines()[0].split()
    # the header's configuration reproduces the file without the variable
    cfg = tmp_path / "tol.cfg"
    cfg.write_text("tol = 100\n")
    monkeypatch.delenv("OTTO_TOL")
    assert run(capsys, *args, "--config", str(cfg))[1] == out
    # a config file's tol wins over OTTO_TOL; a bad value is a config error
    cfg.write_text("tol = 1e-12\n")
    monkeypatch.setenv("OTTO_TOL", "100")
    _, out, _ = run(capsys, *args, "--config", str(cfg))
    assert out.splitlines()[1:] == plain.splitlines()[1:]
    assert "tol=9.9999999999999998e-13" in out.splitlines()[0]
    monkeypatch.setenv("OTTO_TOL", "abc")
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, "")
    assert err.startswith("config error: ")


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
    columns, branch, got = _run(cfg, grid)
    assert (got, branch) == (mode, "minus")
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


def test_overflowing_cumulants_print_only_the_error():
    # a fresh interpreter, whose default filters print each RuntimeWarning
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "unital_otto.cli", "cumulants", "--beta", "0.7",
         "--nu1", "1e80", "--nu2", "2e80", "--delta", "0.1", "--zeta", "0.1", "--theta", "0.2"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path, PYTHONWARNINGS="default"),
    )
    assert proc.returncode == 2
    assert proc.stderr == "config error: cumulants must be finite\n"


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


def readme_commands():
    """The ``unital-otto`` invocations of README's command-line block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(l)[1:] for l in lines if l.strip().startswith("unital-otto")]


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


LZ_POINT = ["--beta", "0.5", "--nu1", "0.4", "--nu2", "0.9", "--alpha-m", "1",
            "--axis", "delta", "--start", "0", "--stop", "1", "--steps", "3"]


def test_lz_compare_regimes_use_the_tolerance(monkeypatch, capsys):
    # at delta = 0 both cycles are engines with <W> = 0.0699, below a
    # tolerance of 0.5 and far above the default one
    _, plain, _ = run(capsys, "lz-compare", *LZ_POINT)
    assert plain.splitlines()[2].split(",")[3::3] == ["Engine", "Engine"]
    monkeypatch.setenv("OTTO_TOL", "0.5")
    code, out, _ = run(capsys, "lz-compare", *LZ_POINT)
    assert code == 0
    assert "tol=0.5" in out.splitlines()[0].split()
    rows, plain_rows = out.splitlines()[2:], plain.splitlines()[2:]
    for row, plain_row in zip(rows, plain_rows):
        cells, plain_cells = row.split(","), plain_row.split(",")
        assert cells[3::3] == ["Undetermined", "Undetermined"]
        # the numbers do not depend on the tolerance
        del cells[3::3], plain_cells[3::3]
        assert cells == plain_cells


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
])
def test_flags_a_subcommand_would_ignore_are_rejected(command, flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, flag, "0.1"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} 0.1" in capsys.readouterr().err

