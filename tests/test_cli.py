"""Command-line interface: outputs, config handling, exit codes."""

import math
import shlex
from pathlib import Path

import pytest

from unital_otto import DerivativeStepError, cumulants
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


# (nu1, nu2, whether the derivative route is unusable there)
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
    rows = {l.split(",")[0]: l.split(",")[1:] for l in out.splitlines()[2:]}
    assert list(rows) == [
        "enumeration", "closed_form", "closed_form_delta", "cf_derivative",
        "cf_derivative_delta",
    ]
    fd = [float(c) for c in rows["cf_derivative"] + rows["cf_derivative_delta"]]
    exact = [float(c) for c in rows["enumeration"]]
    assert all(math.isfinite(v) for v in exact)
    if unusable:
        assert err.startswith("note: cf_derivative route unusable")
        assert len(err.splitlines()) == 1
        assert all(math.isnan(v) for v in fd)
    else:
        assert err == ""
        scale = 2.0 * (float(nu1) + float(nu2))
        for k, (got, ref) in enumerate(zip(fd[:4], exact[:4]), 1):
            assert abs(got - ref) <= 1e-7 * scale**k


def test_derivative_step_error_leaves_nan_rows_on_cs_point(capsys, monkeypatch):
    def unusable(*args, **kwargs):
        raise DerivativeStepError("no usable step")

    monkeypatch.setattr(cumulants, "cf_derivative_check", unusable)
    code, out, err = run(
        capsys, "cumulants", *BASE, "--theta", "0.2", "--cs-alpha", "0.3",
        "--branch", "minus",
    )
    assert code == 0
    assert err == "note: cf_derivative route unusable, rows left nan: no usable step\n"
    rows = {l.split(",")[0]: l.split(",")[1:] for l in out.splitlines()[2:]}
    for route in ("cf_derivative", "cf_derivative_delta"):
        assert all(math.isnan(float(c)) for c in rows[route])
    assert all(math.isfinite(float(c)) for c in rows["enumeration"])


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
