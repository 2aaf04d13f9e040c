"""The output checkers accept real CLI output and catch altered cells."""

import pytest

import oracle
import workloads
from unital_otto.cli import main

GRID = dict(beta=0.9, nu1=1.0, nu2=2.3, start=0.0, stop=0.5, steps=11, start2=0.0, stop2=1.0, steps2=11)
LZ = dict(beta=0.5, nu1=0.4, nu2=0.9, alpha_m=1.0472, phi=0.1, chi=0.1, start=0.0, stop=1.0, steps=51)


def cli_output(capsys, argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.fixture
def grid_text(capsys):
    return cli_output(capsys, workloads._classify(GRID, 121).argv)


@pytest.fixture
def lz_text(capsys):
    argv = ["lz-compare"] + workloads._flags(
        **{k: LZ[k] for k in ("beta", "nu1", "nu2", "alpha_m", "phi", "chi")}
    ) + ["--axis", "delta", "--start", "0", "--stop", "1", "--steps", "51"]
    return cli_output(capsys, argv)


def replace_cell(text, row, col, new):
    lines = text.splitlines(keepends=True)
    cells = lines[row].rstrip("\n").split(",")
    cells[col] = new(cells[col])
    lines[row] = ",".join(cells) + "\n"
    return "".join(lines)


def test_classify_output_passes(grid_text):
    assert not oracle.check_classify(grid_text, GRID)


def test_perturbed_cell_is_caught(grid_text):
    row = 2 + 5 * 11 + 4  # delta = 0.25, theta = 0.4
    bad = replace_cell(grid_text, row, 2, lambda c: repr(float(c) * (1 + 1e-6)))
    assert oracle.check_classify(bad, GRID).count == 1


def test_flipped_regime_label_is_caught(grid_text):
    row = 2 + 1 * 11 + 6  # delta = 0.05, theta = 0.6: an engine at this base point
    assert grid_text.splitlines()[row].endswith(",Engine")
    bad = replace_cell(grid_text, row, 5, lambda c: "Heater")
    assert oracle.check_classify(bad, GRID).count == 1


def test_lz_output_passes_and_catches_flips(lz_text):
    assert not oracle.check_lz_compare(lz_text, LZ)
    bad = replace_cell(lz_text, 12, 4, lambda c: repr(float(c) + 1e-7))
    assert oracle.check_lz_compare(bad, LZ).count == 1
    label = lz_text.splitlines()[12].split(",")[6]
    flipped = replace_cell(lz_text, 12, 6, lambda c: "Heater" if label != "Heater" else "Engine")
    assert oracle.check_lz_compare(flipped, LZ).count == 1


def test_cumulants_checks_enumeration_and_closed_form(capsys):
    spec = dict(beta=0.7, nu1=1.0, nu2=2.0, delta=0.1, zeta=0.3, theta=0.2)
    text = cli_output(capsys, workloads._query(spec).argv)
    assert not oracle.check_cumulants(text, spec)
    for col in (1, 4, 9):  # w_k1, w_k4, qt_mean of the enumeration row
        assert oracle.check_cumulants(replace_cell(text, 2, col, lambda c: repr(float(c) * 1.001)), spec)
    assert oracle.check_cumulants(replace_cell(text, 3, 2, lambda c: repr(float(c) + 1e-6)), spec)
    # the finite-difference rows are a diagnostic and are not checked
    assert not oracle.check_cumulants(replace_cell(text, 5, 1, lambda c: "0.5"), spec)


def test_campaign_tallies_must_add_up(capsys):
    spec = dict(seed=5, samples=300)
    text = cli_output(capsys, ["verify-bounds", "--samples", "300", "--seed", "5"])
    assert not oracle.check_verify_bounds(text, spec)
    assert oracle.check_verify_bounds(replace_cell(text, 2, 1, lambda c: str(int(c) + 1)), spec)
    assert oracle.check_verify_bounds(replace_cell(text, 2, 2, lambda c: str(int(c) + 1)), spec)


def test_sample_z_limit(capsys):
    spec = dict(beta=0.7, nu1=1.0, nu2=2.0, delta=0.1, zeta=0.1, theta=0.2)
    argv = ["sample"] + workloads._flags(**spec) + ["--samples", "20000", "--seed", "3"]
    text = cli_output(capsys, argv)
    assert not oracle.check_sample(text, spec)
    assert oracle.check_sample(replace_cell(text, 2, 4, lambda c: "7.5"), spec)
