"""Command-line interface: parsing, serialization, commands, exit codes."""

import argparse
import json
import os
import subprocess
import sys
from math import cos, pi, sqrt
from pathlib import Path

import numpy as np
import pytest

import corrspace
from corrspace import noise_tomo
from corrspace import qmath as qm
from corrspace.cli import (
    _parse_argv,
    build_parser,
    dumps15,
    format_float,
    main,
    parse_angle,
    parse_bits,
    render_csv,
)
from record_golden import commands, golden_files, golden_name, run

TOL = 1e-12


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# Argument and number formatting helpers
# ---------------------------------------------------------------------------

def test_parse_angle_forms():
    assert parse_angle("pi/3") == pytest.approx(pi / 3, abs=0)
    assert parse_angle("-2pi/3") == pytest.approx(-2 * pi / 3, abs=0)
    assert parse_angle("2*pi") == pytest.approx(2 * pi, abs=0)
    assert parse_angle("-pi") == pytest.approx(-pi, abs=0)
    assert parse_angle("PI/2") == pytest.approx(pi / 2, abs=0)
    assert parse_angle("0.5") == 0.5
    assert parse_angle(" 1.25 ") == 1.25
    with pytest.raises(argparse.ArgumentTypeError):
        parse_angle("pi/0")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_angle("threeish")
    for text in ("nan", "inf", "-inf", "1e999", "1" + "0" * 400 + "pi"):
        with pytest.raises(argparse.ArgumentTypeError, match="is not finite"):
            parse_angle(text)


def test_parse_bits():
    assert parse_bits("0,1,0") == (0, 1, 0)
    assert parse_bits("1") == (1,)
    with pytest.raises(argparse.ArgumentTypeError, match=r"^invalid outcomes '0,2': outcome must be 0 or 1, got 2$"):
        parse_bits("0,2")
    with pytest.raises(argparse.ArgumentTypeError, match=r"^invalid outcomes 'zero': invalid literal"):
        parse_bits("zero")


def test_format_float():
    assert format_float(0.375) == "0.375"
    assert format_float(-0.0) == "0"
    assert format_float(1 / 3) == "0.333333333333333"
    assert format_float(2) == "2"
    with pytest.raises(ValueError):
        format_float(float("inf"))


def test_dumps15_layout():
    payload = {"a": 1, "b": [1.5, 2], "c": {"d": True, "e": None}}
    want = (
        '{\n'
        '  "a": 1,\n'
        '  "b": [1.5, 2],\n'
        '  "c": {\n'
        '    "d": true,\n'
        '    "e": null\n'
        '  }\n'
        '}\n'
    )
    assert dumps15(payload) == want
    assert dumps15({"z": complex(1, -2)}) == '{\n  "z": [1, -2]\n}\n'
    assert dumps15({"m": np.array([1.0, 0.5])}) == '{\n  "m": [1, 0.5]\n}\n'
    assert dumps15({"empty": {}}) == '{\n  "empty": {}\n}\n'
    with pytest.raises(TypeError):
        dumps15({1: "non-string key"})


def test_render_csv():
    text = render_csv(("x", "y"), [(0, 0.5), (1, 1 / 3)])
    assert text == "x,y\n0,0.5\n1,0.333333333333333\n"


class Real(float):
    pass


class Count(int):
    pass


class Text(str):
    pass


# (value, its JSON rendering under key "v", its CSV cell), recorded with the
# isinstance-only renderer that the exact-type fast path replaced
SCALARS = (
    (0.1, "0.1", "0.1"),
    (1 / 3, "0.333333333333333", "0.333333333333333"),
    (-0.0, "0", "0"),
    (1e300, "1e+300", "1e+300"),
    (5e-324, "4.94065645841247e-324", "4.94065645841247e-324"),
    (np.float64(2 / 3), "0.666666666666667", "0.666666666666667"),
    (np.float32(0.1), "0.100000001490116", "0.100000001490116"),
    (7, "7", "7"),
    (-12, "-12", "-12"),
    (2**70, "1180591620717411303424", "1180591620717411303424"),
    (np.int64(-5), "-5", "-5"),
    (True, "true", "True"),
    (False, "false", "False"),
    (None, "null", "None"),
    (complex(0.5, -0.0), "[0.5, 0]", None),
    (np.complex128(1 / 3 + 2j), "[0.333333333333333, 2]", None),
    ('say "hé" \\ ok\n', r'"say \"h\u00e9\" \\ ok\n"', None),
    ({}, "{}", None),
    ([], "[]", None),
    (((0.0, 0.5), (pi, 1.0)), "[[0, 0.5], [3.14159265358979, 1]]", None),
    (np.array([[1.0, -0.0], [0.25, 3]]), "[[1, 0], [0.25, 3]]", None),
    (Real(1 / 3), "0.333333333333333", "0.333333333333333"),
    (Count(3), "3", "3"),
    (Text("é"), r'"\u00e9"', "é"),
)


@pytest.mark.parametrize("value, text, cell", SCALARS)
def test_scalar_rendering(value, text, cell):
    assert dumps15({"v": value}) == '{\n  "v": ' + text + "\n}\n"
    if cell is not None:
        assert render_csv(("v",), [(value,)]) == "v\n" + cell + "\n"


def test_nested_rendering():
    payload = {"a": [1, [2.5, {"b": None}], (True, "x")], "c": {"d": {}}}
    assert dumps15({"v": payload}) == (
        '{\n  "v": {\n    "a": [1, [2.5, {\n      "b": null\n    }], [true, "x"]],\n'
        '    "c": {\n      "d": {}\n    }\n  }\n}\n'
    )
    rows = [(0.1, -0.0, np.float64(1 / 3)), (7, np.int64(3), "s"),
            (True, None, np.float32(0.1))]
    assert render_csv(("a", "b", "c"), rows) == (
        "a,b,c\n0.1,0,0.333333333333333\n7,3,s\nTrue,None,0.100000001490116\n"
    )


def test_numpy_bools_render_as_json_bools():
    # a numpy comparison in a payload prints like the Python bool
    assert dumps15({"t": np.True_, "f": np.bool_(False)}) == (
        '{\n  "t": true,\n  "f": false\n}\n'
    )
    assert dumps15({"v": [np.float64(1.0) > 0]}) == '{\n  "v": [true]\n}\n'


@pytest.mark.parametrize("payload, error", (
    ({"v": float("nan")}, ValueError),
    ({"v": np.inf}, ValueError),
    ({"v": [np.float64("-inf")]}, ValueError),
    ({1: 2}, TypeError),
    ({"v": {None: 2}}, TypeError),
    ({"v": object()}, TypeError),
))
def test_unrenderable_payloads_raise(payload, error):
    with pytest.raises(error):
        dumps15(payload)


def test_csv_rejects_non_finite_floats():
    with pytest.raises(ValueError):
        render_csv(("v",), [(float("nan"),)])


# ---------------------------------------------------------------------------
# state commands
# ---------------------------------------------------------------------------

def test_state_build_lambda34(capsys):
    data = run_json(capsys, "state", "build", "--state", "lambda34")
    assert data["schema"] == "corrspace/1"
    assert data["labels"] == ["3", "4"]
    amps = np.array([complex(r, i) for r, i in data["amplitudes"]])
    assert abs(amps[0] - cos(pi / 6) / sqrt(2)) < TOL


def test_state_analyze_values(capsys):
    data = run_json(capsys, "state", "analyze", "--state", "psi6")
    assert abs(data["correlations"]["Q_XZ_24"] - sqrt(3) / 4) < TOL
    assert abs(data["correlations"]["Q_ZX_34"] - 0.375) < TOL
    assert abs(data["entropies"]["4"] - 0.9375) < TOL
    data = run_json(capsys, "state", "analyze", "--state", "psi4")
    assert abs(data["correlations"]["Q_XX_13"] - 0.375) < TOL
    assert abs(data["entropies"]["2"] - 0.5625) < TOL


# ---------------------------------------------------------------------------
# protocol commands
# ---------------------------------------------------------------------------

def test_protocol_rotate_postselect_zeros(capsys):
    data = run_json(
        capsys,
        "protocol", "rotate", "--alpha", "0", "--beta", "0", "--gamma", "0",
        "--postselect-zeros",
    )
    tr = data["transcript"]
    assert data["mode"] == "postselect" and data["seed"] is None
    assert tr["success"] is True
    assert abs(tr["total_probability"] - 0.421875) < TOL
    amps = np.array([complex(r, i) for r, i in tr["physical_out"]["amplitudes"]])
    plus = np.array([1, 1]) / sqrt(2)
    assert abs(abs(np.vdot(plus, amps)) - 1) < 1e-9


def test_protocol_rotate_negative_angle_syntax(capsys):
    data = run_json(
        capsys,
        "protocol", "rotate", "--alpha", "pi", "--beta", "pi", "--gamma=-pi/2",
        "--postselect-zeros",
    )
    amps = np.array(
        [complex(r, i) for r, i in data["transcript"]["physical_out"]["amplitudes"]]
    )
    right = np.array([1, 1j]) / sqrt(2)
    assert abs(abs(np.vdot(right, amps)) - 1) < 1e-9


def test_protocol_rotate_seeded_is_reproducible(capsys):
    argv = ("protocol", "rotate", "--alpha", "0.3", "--beta", "0.7",
            "--gamma=-0.2", "--seed", "11")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["seed"] == 11


def test_protocol_rotate_generates_and_records_seed(capsys):
    data = run_json(
        capsys, "protocol", "rotate", "--alpha", "0", "--beta", "0", "--gamma", "0"
    )
    assert data["mode"] == "sampled"
    assert isinstance(data["seed"], int) and 0 <= data["seed"] < 2**63


def test_protocol_mode_flags_are_mutually_exclusive(capsys):
    code, _, err = run_cli(
        capsys,
        "protocol", "rotate", "--alpha", "0", "--beta", "0", "--gamma", "0",
        "--outcomes", "0,0,0", "--seed", "5",
    )
    assert code == 2
    assert "mutually exclusive" in err


def test_protocol_compensate_enumerate(capsys):
    data = run_json(
        capsys, "protocol", "compensate", "--alpha", "pi/2", "--enumerate"
    )
    assert abs(data["analytic"]["p_success_single"] - 0.375) < TOL
    assert abs(data["total_success_probability"] - 0.5552884615384615) < TOL
    probs = [b["probability"] for b in data["branches"]]
    assert abs(sum(probs) - 1.0) < 1e-11
    wins = sum(b["probability"] for b in data["branches"] if b["success"])
    assert abs(wins - data["total_success_probability"]) < TOL


def test_protocol_compensate_enumerate_excludes_seed(capsys):
    code, _, err = run_cli(
        capsys,
        "protocol", "compensate", "--alpha", "pi/2", "--enumerate", "--seed", "3",
    )
    assert code == 2


def test_tomo_reconstruct_seed_needs_mc_runs(capsys):
    counts = golden_files()[golden_name("tomo simulate --state lambda34 --shots 2000 --seed 17")]
    code, out, err = run_cli(capsys, "tomo", "reconstruct", "--counts", str(counts), "--seed", "3")
    assert code == 2 and out == ""
    assert "--seed needs --mc-runs" in err


def test_witness_fidelity_seed_needs_shots(capsys):
    code, out, err = run_cli(capsys, "witness", "fidelity", "--shots", "0", "--seed", "3")
    assert code == 2 and out == ""
    assert "--seed needs --shots" in err


@pytest.mark.parametrize("mode", (["--postselect-zeros"], ["--outcomes", "0,0,0"]))
def test_protocol_compensate_enumerate_excludes_postselection(capsys, mode):
    code, out, err = run_cli(
        capsys, "protocol", "compensate", "--alpha", "pi/2", "--enumerate", *mode
    )
    assert code == 2 and out == ""
    assert "--enumerate excludes" in err


def test_protocol_compensate_two_qubit(capsys):
    data = run_json(
        capsys,
        "protocol", "compensate", "--alpha", "pi/2", "--resource", "2",
        "--postselect-zeros",
    )
    tr = data["transcript"]
    assert tr["success"] is True
    assert abs(tr["total_probability"] - 0.375) < TOL
    assert abs(data["analytic"]["p_success_total"] - 0.375) < TOL


def test_protocol_cz_entangled_output(capsys):
    data = run_json(
        capsys, "protocol", "cz", "--alpha", "pi/3", "--postselect-zeros"
    )
    tr = data["transcript"]
    assert tr["success"] is True
    assert tr["physical_out"]["labels"] == ["1p", "3p"]
    amps = np.array([complex(r, i) for r, i in tr["physical_out"]["amplitudes"]])
    want = np.array([sqrt(3) / 2, 0, 0, -0.5j])
    assert abs(abs(np.vdot(want, amps)) - 1) < 1e-9


def test_protocol_deutsch_postselected(capsys):
    data = run_json(
        capsys,
        "protocol", "deutsch", "--function", "constant", "--postselect-zeros",
    )
    assert (data["query_bit"], data["ancilla_bit"]) == (0, 1)
    assert data["success"] is True


def test_failed_invariant_check_maps_to_exit_1(capsys, monkeypatch):
    real_collapse = qm.collapse

    def leaky(states, axis, kets, **kwargs):
        probs, rest = real_collapse(states, axis, kets, **kwargs)
        return probs * (1 + 1e-9), rest

    monkeypatch.setattr(qm, "collapse", leaky)
    code, out, err = run_cli(capsys, "protocol", "compensate", "--alpha", "pi/2", "--enumerate")
    assert (code, out, err) == (1, "", "error: branch probabilities do not sum to 1\n")


def test_protocol_deutsch_abort_maps_to_exit_1(capsys):
    code, _, err = run_cli(
        capsys,
        "protocol", "deutsch", "--function", "balanced", "--outcomes", "0,1,0,0",
    )
    assert code == 1
    assert "abort" in err.lower()


# ---------------------------------------------------------------------------
# tomo commands
# ---------------------------------------------------------------------------

def test_tomo_simulate_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "tomo", "simulate", "--state", "lambda34", "--shots", "50",
        "--seed", "7", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "setting,cell,count"
    assert len(lines) == 1 + 9 * 4  # 9 settings x 4 cells
    assert out.endswith("\n")


def test_tomo_round_trip(capsys, tmp_path):
    counts_file = tmp_path / "counts.json"
    code, _, err = run_cli(
        capsys,
        "tomo", "simulate", "--state", "lambda34", "--shots", "2000",
        "--seed", "17", "--out", str(counts_file),
    )
    assert code == 0, err
    data = run_json(
        capsys,
        "tomo", "reconstruct", "--counts", str(counts_file),
        "--target", "lambda34",
    )
    assert data["result"]["fidelity_to_target"] >= 0.97
    assert data["result"]["informationally_complete"] is True
    assert data["result"]["likelihood_gap_bound"] >= -1e-9 * 9 * 2000
    assert "rho" not in data["result"]
    full = run_json(
        capsys,
        "tomo", "reconstruct", "--counts", str(counts_file),
        "--target", "lambda34", "--full-matrix",
    )
    assert len(full["result"]["rho"]) == 4


def test_tomo_reconstruct_mc_requires_target(capsys, tmp_path):
    counts_file = tmp_path / "counts.json"
    run_cli(
        capsys,
        "tomo", "simulate", "--state", "lambda34", "--shots", "100",
        "--seed", "1", "--out", str(counts_file),
    )
    code, _, err = run_cli(
        capsys,
        "tomo", "reconstruct", "--counts", str(counts_file), "--mc-runs", "3",
    )
    assert code == 2
    assert "--target" in err


def test_tomo_reconstruct_mc_without_target_is_refused_before_any_work(
    capsys, monkeypatch, tmp_path
):
    def no_fit(*args, **kwargs):
        raise AssertionError("the fit ran before the usage check")

    monkeypatch.setattr(noise_tomo, "ml_reconstruct", no_fit)
    code, out, err = run_cli(
        capsys,
        "tomo", "reconstruct", "--counts", str(tmp_path / "missing.json"), "--mc-runs", "3",
    )
    assert (code, out) == (2, "")
    assert "--mc-runs requires --target" in err


@pytest.mark.parametrize(
    "flag, value, message",
    (
        ("--max-iters", "0", "--max-iters"),
        ("--max-iters", "-5", "--max-iters"),
        ("--tol", "-1", "--tol"),
        ("--tol", "nan", "--tol"),
        ("--mc-runs", "1", "--mc-runs"),
        ("--mc-runs", "-2", "--mc-runs"),
    ),
)
def test_tomo_reconstruct_rejects_bad_fit_options(capsys, tmp_path, flag, value, message):
    counts_file = tmp_path / "counts.json"
    run_cli(
        capsys,
        "tomo", "simulate", "--state", "lambda34", "--shots", "100",
        "--seed", "1", "--out", str(counts_file),
    )
    code, out, err = run_cli(
        capsys,
        "tomo", "reconstruct", "--counts", str(counts_file), "--target", "lambda34",
        flag, value,
    )
    assert code == 2
    assert out == ""
    assert message in err and "Traceback" not in err


def test_tomo_reconstruct_missing_file_maps_to_exit_1(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "tomo", "reconstruct", "--counts", str(tmp_path / "nope.json"),
    )
    assert code == 1


def _edit_counts(data, edit):
    if edit == "labels":
        data["labels"] = ["a", "a"]
    elif edit.startswith("no "):
        del data[edit[3:]]
    else:
        field, value = edit.split("=")
        value = json.loads(value)
        if field == "counts":
            data["counts"][0][0] = value
        else:
            data[field] = value


@pytest.mark.parametrize(
    "edit, message",
    (
        ("counts=4.7", "counts must be integers, got 4.7"),
        ("counts=-0.5", "counts must be integers, got -0.5"),
        ("counts=true", "counts must be integers, got True"),
        ("shots=10.9", "shots must be a nonnegative integer, got 10.9"),
        ("shots=true", "shots must be a nonnegative integer, got True"),
        ("labels", "duplicate qubit labels"),
        ('labels="ab"', "labels must be a list of strings, got 'ab'"),
        ("labels=[1, 2]", "labels must be strings, got 1"),
        ('settings="ZX"', "settings must be a list of strings, got 'ZX'"),
        ('settings=[["Z"]]', "settings must be strings, got ['Z']"),
        ("no shots", "missing counts fields ['shots']"),
        ("no labels", "missing counts fields ['labels']"),
        ("no settings", "missing counts fields ['settings']"),
        ("no counts", "missing counts fields ['counts']"),
    ),
)
def test_tomo_reconstruct_rejects_a_bad_counts_file(capsys, tmp_path, edit, message):
    data = json.loads(run_cli(
        capsys, "tomo", "simulate", "--state", "lambda34", "--shots", "10", "--seed", "1",
    )[1])["counts"]
    _edit_counts(data, edit)
    counts_file = tmp_path / "counts.json"
    counts_file.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(
        capsys, "tomo", "reconstruct", "--counts", str(counts_file), "--target", "lambda34",
    )
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_tomo_reconstruct_with_error_bar(capsys, tmp_path):
    counts_file = tmp_path / "counts.json"
    run_cli(
        capsys,
        "tomo", "simulate", "--state", "lambda34", "--shots", "2000",
        "--seed", "19", "--out", str(counts_file),
    )
    argv = (
        "tomo", "reconstruct", "--counts", str(counts_file),
        "--target", "lambda34", "--mc-runs", "3", "--seed", "23",
    )
    data = run_json(capsys, *argv)
    mc = data["monte_carlo"]
    assert mc["runs"] == 3
    assert 0.9 <= mc["fidelity_mean"] <= 1.0
    assert mc["fidelity_sigma"] >= 0.0
    assert data["seed"] == 23


# ---------------------------------------------------------------------------
# witness and curve commands
# ---------------------------------------------------------------------------

def test_witness_exact_corrected_recovers_input_fidelity(capsys):
    data = run_json(
        capsys, "witness", "fidelity", "--corrected", "--fidelity", "0.9"
    )
    assert data["mode"] == "exact"
    assert abs(data["fidelity_estimate"] - 0.9) < TOL
    assert data["report"]["corrected"] is True
    assert data["report"]["residual_maxabs"] < TOL


def test_witness_exact_literal_value(capsys):
    data = run_json(capsys, "witness", "fidelity")
    assert abs(data["fidelity_estimate"] - 853 / 512) < TOL
    assert abs(data["report"]["residual_maxabs"] - 9 * sqrt(3) / 64) < TOL


@pytest.mark.parametrize("line, floor, n", [
    ("witness fidelity --fidelity 0.005", "0.015625", 6),
    ("witness fidelity --fidelity nan", "0.015625", 6),
    ("witness fidelity --fidelity inf", "0.015625", 6),
    ("witness fidelity --fidelity 2", "0.015625", 6),
    ("tomo simulate --state psi4 --fidelity 0.0625", "0.0625", 4),
    ("tomo simulate --state lambda34 --fidelity=-inf", "0.25", 2),
    ("tomo simulate --state psi6 --fidelity 1.0000001 --format csv", "0.015625", 6),
    ("curve fig2 --resource 2 --grid 3 --fidelity nan", "0.25", 2),
    ("curve fig2 --resource 2 --grid 3 --fidelity inf", "0.25", 2),
    ("curve fig2 --resource 2 --grid 3 --fidelity 2", "0.25", 2),
    ("curve fig2 --resource 2 --grid 3 --fidelity 0.2", "0.25", 2),
    ("curve fig2 --resource 2 --grid 3 --fidelity 0.25", "0.25", 2),
    ("curve fig2 --resource 4 --grid 3 --fidelity 0.0625 --format json", "0.0625", 4),
])
def test_bad_fidelity_is_a_usage_error(capsys, line, floor, n):
    # the state's 1/2^n floor, a value above 1 and a non-finite value are
    # refused at the boundary, before the library sees them
    code, out, err = run_cli(capsys, *line.split())
    value = line.split("--fidelity")[1].split()[0].lstrip("=")
    assert (code, out) == (2, "")
    assert err == (f"usage error: --fidelity must lie in ({floor}, 1] for the {n}-qubit state, "
                   f"got {float(value)!r}\n")


def test_fidelity_range_ends_are_accepted(capsys):
    for line in ("curve fig2 --resource 2 --grid 3 --fidelity 0.2500001",
                 "curve fig2 --resource 2 --grid 3 --fidelity 1",
                 "witness fidelity --fidelity 0.0156251"):
        code, _, err = run_cli(capsys, *line.split())
        assert (code, err) == (0, ""), line


def test_witness_fidelity_reads_only_the_projector_rows_it_uses(capsys, monkeypatch):
    # the pinned bytes come from the 72 head and 72 tail projector rows of
    # the 36 settings: no setting ket matrix and no full 216-row block
    def no_kets(setting):
        raise AssertionError("setting_kets called on the witness path")

    born, shapes = noise_tomo._projector_probs, []

    def rows_in_use(rho, head, tail):
        if len(head) == 216 or len(tail) == 216:
            raise AssertionError("full projector block on the witness path")
        shapes.append((len(head), len(tail)))
        return born(rho, head, tail)

    monkeypatch.setattr(noise_tomo, "setting_kets", no_kets)
    monkeypatch.setattr(noise_tomo, "_projector_probs", rows_in_use)
    files = golden_files()
    witness = [c for c in commands() if c.startswith("witness fidelity ")]
    for command in witness:
        assert run(command) == files[golden_name(command)].read_bytes(), command
    assert set(shapes) == {(72, 72)} and len(shapes) == len(witness) == 16


def test_curve_fig2_json_endpoints(capsys):
    data = run_json(
        capsys,
        "curve", "fig2", "--resource", "2", "--grid", "5", "--format", "json",
    )
    points = data["points"]
    assert len(points) == 5
    assert abs(points[0][0] - 0.0) < TOL and abs(points[0][1] - 0.75) < TOL
    assert abs(points[-1][0] - pi) < TOL and abs(points[-1][1] - 0.25) < TOL


def test_curve_fig2_csv_default(capsys):
    code, out, _ = run_cli(capsys, "curve", "fig2", "--resource", "2", "--grid", "3")
    assert code == 0
    assert out.splitlines()[0] == "alpha,p_success"
    assert len(out.splitlines()) == 4


def test_curve_fig2_grid_too_small(capsys):
    code, _, err = run_cli(
        capsys, "curve", "fig2", "--resource", "2", "--grid", "1"
    )
    assert code == 2


# ---------------------------------------------------------------------------
# Output plumbing and usage errors
# ---------------------------------------------------------------------------

def test_out_file_matches_stdout(capsys, tmp_path):
    argv = ("state", "build", "--state", "lambda34")
    _, stdout_text, _ = run_cli(capsys, *argv)
    out_file = tmp_path / "state.json"
    code, piped, _ = run_cli(capsys, *argv, "--out", str(out_file))
    assert code == 0 and piped == ""
    assert out_file.read_text(encoding="ascii") == stdout_text


def test_out_rewrite_is_cut_to_the_new_length(capsys, tmp_path):
    short = ("curve", "fig2", "--resource", "2", "--grid", "3")
    _, stdout_text, _ = run_cli(capsys, *short)
    out_file = tmp_path / "out"
    for argv in (("state", "analyze", "--state", "psi4"), short):
        code, piped, err = run_cli(capsys, *argv, "--out", str(out_file))
        assert code == 0 and piped == "", err
    assert out_file.read_bytes() == stdout_text.encode("ascii")


def test_out_to_a_character_device_is_written_not_cut(capsys):
    code, piped, err = run_cli(capsys, "state", "build", "--state", "psi4",
                               "--out", os.devnull)
    assert (code, piped, err) == (0, "", "")


@pytest.mark.parametrize("mask", (0o022, 0o077))
def test_out_creates_files_with_the_mode_of_open_w(capsys, tmp_path, mask):
    reference = tmp_path / "reference"
    created = tmp_path / "created"
    old = os.umask(mask)
    try:
        with open(reference, "w"):
            pass
        code, _, err = run_cli(capsys, "curve", "fig2", "--resource", "2",
                               "--out", str(created))
    finally:
        os.umask(old)
    assert code == 0, err
    assert created.stat().st_mode == reference.stat().st_mode


@pytest.mark.parametrize("where", ("missing directory", "directory"))
def test_unwritable_out_maps_to_exit_1(capsys, tmp_path, where):
    path = tmp_path / "nope" / "out" if where == "missing directory" else tmp_path
    code, out, err = run_cli(capsys, "curve", "fig2", "--resource", "2",
                             "--out", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_over_large_grid_maps_to_exit_1(capsys):
    # numpy refuses the 7 PiB alpha grid at once with a MemoryError
    code, out, err = run_cli(capsys, "curve", "fig2", "--resource", "2",
                             "--grid", "1000000000000000")
    assert code == 1 and out == ""
    assert err.startswith("error: Unable to allocate") and "Traceback" not in err


@pytest.mark.parametrize("enumerate_flag", [(), ("--enumerate",)])
def test_alpha_above_the_compensation_bound_maps_to_exit_1(capsys, enumerate_flag):
    code, out, err = run_cli(capsys, "protocol", "compensate", "--alpha", "1e13",
                             *enumerate_flag, *(() if enumerate_flag else ("--seed", "3")))
    assert code == 1 and out == "" and "Traceback" not in err
    assert err == "error: alpha must satisfy |alpha| <= 1e+09, got 10000000000000.0\n"


def test_out_rewrite_never_truncates_to_zero(capsys, tmp_path, monkeypatch):
    # O_TRUNC on a file that holds data makes ext4 flush it on close, so a
    # rewrite would wait for the disk on every call
    real_open, flags = os.open, []

    def recording_open(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    out_file = tmp_path / "out"
    for _ in range(2):
        code, _, err = run_cli(capsys, "curve", "fig2", "--resource", "2",
                               "--out", str(out_file))
        assert code == 0, err
    assert len(flags) == 2
    assert not any(flag & os.O_TRUNC for flag in flags)


def test_degenerate_theta_maps_to_exit_1(capsys):
    code, _, err = run_cli(
        capsys, "state", "build", "--state", "psi4", "--theta", "0"
    )
    assert code == 1


def test_bad_angle_maps_to_exit_2(capsys):
    code, _, _ = run_cli(
        capsys,
        "protocol", "rotate", "--alpha", "sideways", "--beta", "0", "--gamma", "0",
    )
    assert code == 2


@pytest.mark.parametrize("argv", (
    ["witness", "fidelity", "--theta", "nan"],
    ["witness", "fidelity", "--theta", "inf"],
    ["state", "analyze", "--state", "psi4", "--theta", "nan"],
))
def test_non_finite_angle_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"argument --theta: angle '{argv[-1]}' is not finite" in err
    assert "Warning" not in err


@pytest.mark.parametrize("flag, argv, low", (
    ("--shots", ["witness", "fidelity", "--shots", "-5"], 0),
    ("--shots", ["tomo", "simulate", "--state", "psi4", "--shots", "0"], 1),
    ("--shots", ["tomo", "simulate", "--state", "psi4", "--shots", "-3"], 1),
    ("--seed", ["protocol", "rotate", "--alpha", "0", "--beta", "0", "--gamma", "0",
                "--seed", "-2"], 0),
    ("--seed", ["protocol", "compensate", "--alpha", "pi/2", "--seed", "-1"], 0),
    ("--seed", ["protocol", "cz", "--alpha", "pi/3", "--seed", "-1"], 0),
    ("--seed", ["protocol", "deutsch", "--function", "balanced", "--seed", "-1"], 0),
    ("--seed", ["tomo", "simulate", "--state", "psi4", "--seed", "-3"], 0),
    ("--seed", ["tomo", "reconstruct", "--counts", str(golden_files()[golden_name(
        "tomo simulate --state lambda34 --shots 2000 --seed 17")]), "--target", "lambda34",
                "--mc-runs", "3", "--seed", "-1"], 0),
    ("--seed", ["witness", "fidelity", "--shots", "10", "--seed", "-1"], 0),
))
def test_out_of_range_shots_is_a_usage_error(capsys, flag, argv, low):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"argument {flag}: must be an integer >= {low}, got {argv[-1]}" in err


def test_unknown_command_maps_to_exit_2(capsys):
    code, _, _ = run_cli(capsys, "weather", "forecast")
    assert code == 2


# Edge command lines for the parse paths of main(), with their exit codes:
# unknown, abbreviated, repeated and missing options, leftovers, `--`,
# negative angles, help, and lines that name no command.
EDGE_LINES = (
    ("curve fig2 --resource 2 --grid 3 --bogus", 2),
    ("curve fig2 --res 4 --grid 3", 0),
    ("curve fig2 -h", 0),
    ("curve fig2", 2),
    ("curve fig2 --resource 2 --grid 3 extra", 2),
    ("curve fig2 --resource 2 --grid 3 -- x", 2),
    ("curve fig2 --resource 2 --grid 3 --", 2),
    ("protocol rotate --alpha 0 --beta 0 --gamma -pi/2 --postselect-zeros", 2),
    ("protocol rotate --alpha 0 --beta 0 --gamma 0 --theta=-pi/2 --postselect-zeros", 1),
    ("protocol rotate --alpha 0.3 --beta 0.7 --gamma=-pi/2 --postselect-zeros", 0),
    ("curve fig2 --resource 2 --resource 4 --grid 3", 0),
    ("curve fig2 --resource 2 --grid 3 --theta", 2),
    ("curve fig3", 2),
    ("curve", 2),
    ("curve fig2 --resource 2 --grid 3 -hx", 2),
    ("protocol compensate --alpha pi/2 --enum --he", 0),
    ("protocol compensate --alpha -1.5 --resource 2 --enumerate", 0),
    ("protocol deutsch --function balanced --seed 6 extra more", 2),
    ("curve -- fig2 --resource 2", 2),
    ("", 2),
)


# Runs each argv of a JSON list on stdin in its own fork of one process that
# has imported corrspace.cli and called nothing, so each starts from the state
# a fresh `python -m corrspace.cli` starts from without importing numpy and
# corrspace again.  Fork i writes its stdout and stderr to i.out and i.err in
# the directory argv[1]; the exit codes come back as a JSON list on stdout.
_FORKED_CLI = """
import json, os, sys
from corrspace.cli import main

codes = []
for i, argv in enumerate(json.load(sys.stdin)):
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            for fd, stream in ((1, "out"), (2, "err")):
                path = os.path.join(sys.argv[1], f"{i}.{stream}")
                os.dup2(os.open(path, os.O_WRONLY | os.O_CREAT, 0o600), fd)
            code = main(argv)
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
json.dump(codes, sys.stdout)
"""


def _forked_cli_runs(lines, env, out_dir):
    """(exit code, stdout, stderr) of each command line, as a fresh process
    gives them, from forks of one helper process."""
    helper = subprocess.run(
        [sys.executable, "-c", _FORKED_CLI, str(out_dir)],
        input=json.dumps([line.split() for line in lines]),
        capture_output=True, text=True, env=env, check=True,
    )
    return [
        (code, (out_dir / f"{i}.out").read_text(), (out_dir / f"{i}.err").read_text())
        for i, code in enumerate(json.loads(helper.stdout))
    ]


def test_parser_carries_nothing_between_calls(capsys, monkeypatch, tmp_path):
    # main() parses with one parser per process; each call must print what a
    # fresh process prints, whatever the calls before it parsed
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps at the terminal width
    env = {**os.environ, "PYTHONPATH": str(Path(corrspace.__file__).parents[1])}
    pinned = "protocol compensate --alpha pi/2 --resource 4 --enumerate --theta pi/6"
    calls = (
        (pinned, 0),
        ("curve fig2 --resource 3", 2),
        ("--help", 0),
        ("curve fig2 --resource 4 --fidelity 0.9", 0),
        ("curve fig2 --resource 4", 0),  # default fidelity, not the 0.9 above
        (pinned, 0),
        # the second call's basis is B(-0), not the shared B(0) of the first
        ("protocol compensate --alpha 0 --resource 2 --postselect-zeros", 0),
        ("protocol compensate --alpha -0 --resource 2 --postselect-zeros", 0),
    )
    lines = (*calls, *EDGE_LINES)
    # these lines run through the real entry point, the rest in forks
    entry = (pinned, "--help", "")
    fresh = {}
    for args in entry:
        run = subprocess.run(
            [sys.executable, "-m", "corrspace.cli", *args.split()],
            capture_output=True, text=True, env=env, check=False,
        )
        fresh[args] = (run.returncode, run.stdout, run.stderr)
    forked = [args for args, _ in lines if args not in entry]
    fresh.update(zip(forked, _forked_cli_runs(forked, env, tmp_path)))
    for args, code in lines:
        assert run_cli(capsys, *args.split()) == fresh[args], args
        assert fresh[args][0] == code, args


def test_command_parser_gives_the_full_parse_of_every_golden_command():
    parser = build_parser()[0]
    for command in commands():
        argv = command.split()
        assert vars(_parse_argv(argv)) == vars(parser.parse_args(argv)), command


def _parse_outcome(capsys, parse, argv):
    """(exit code or None, stdout, stderr, vars or None) of one parse call."""
    try:
        args = parse(argv)
    except SystemExit as exc:
        code, args = exc.code, None
    else:
        code = None
    out, err = capsys.readouterr()
    return code, out, err, None if args is None else vars(args)


@pytest.mark.parametrize("line", [line for line, _ in EDGE_LINES])
def test_command_parser_gives_the_full_parse_of_every_edge_line(capsys, monkeypatch, line):
    # the same exit, messages and namespace as the whole parser, line by line
    monkeypatch.setenv("COLUMNS", "80")
    argv = line.split()
    full = _parse_outcome(capsys, build_parser()[0].parse_args, argv)
    assert _parse_outcome(capsys, _parse_argv, argv) == full


def test_main_reads_sys_argv_by_default(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["corrspace", "curve", "fig2", "--resource", "2",
                                      "--grid", "3", "--bogus"])
    assert main() == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("corrspace: error: unrecognized arguments: --bogus\n")
    monkeypatch.setattr(sys, "argv", ["corrspace", "curve", "fig2", "--resource", "2",
                                      "--grid", "3"])
    assert main() == 0
    out = capsys.readouterr().out
    assert out.startswith("alpha,p_success\n")
    assert run_cli(capsys, "curve", "fig2", "--resource", "2", "--grid", "3") == (0, out, "")


def test_cli_import_loads_neither_secrets_nor_hashlib():
    # Fresh seeds come from random.SystemRandom: secrets pulls in hashlib and
    # OpenSSL, which on Python 3.11 with numpy 2.4 (x86-64 Linux) raised an
    # interpreter's peak RSS from 26.9 to 30.5 MB and took 6 ms to import.
    # Only what corrspace adds counts: what `import numpy, random` loads
    # (numpy.random imports secrets; numpy 2.4 loads it on first use only)
    # is in the baseline.
    env = {**os.environ, "PYTHONPATH": str(Path(corrspace.__file__).parents[1])}
    probe = (
        "import sys, random, numpy; names = {'secrets', 'hashlib'}; "
        "before = names & set(sys.modules); import corrspace.cli; "
        "print(sorted(names & set(sys.modules) - before))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True,
    )
    assert loaded.stdout == "[]\n"


@pytest.mark.parametrize("mode", (
    ["--enumerate"], ["--seed", "3"], ["--postselect-zeros"], ["--outcomes", "0,0,0"],
))
@pytest.mark.parametrize("alpha", ("0", "pi/2"))
def test_compensate_degenerate_theta_maps_to_exit_1(capsys, alpha, mode):
    code, out, err = run_cli(
        capsys, "protocol", "compensate", "--alpha", alpha, "--theta", "0", *mode
    )
    assert code == 1 and out == ""
    assert err == "error: degenerate wire angle: sin(theta) and cos(theta) must be nonzero\n"


@pytest.mark.parametrize("theta", ("5e-9", "3e-8"))
@pytest.mark.parametrize("mode", ([], ["--enumerate"]))
def test_compensate_near_zero_theta_maps_to_exit_1(capsys, theta, mode):
    code, out, err = run_cli(
        capsys, "protocol", "compensate", "--alpha", "0", "--theta", theta, *mode
    )
    assert code == 1 and out == ""
    assert err.startswith("error: degenerate wire angle: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, n_steps", (
    (["rotate", "--alpha", "0", "--beta", "0", "--gamma", "0", "--outcomes", "0,0"], 3),
    (["compensate", "--alpha", "0.3", "--resource", "2", "--outcomes", "0,0"], 1),
    (["compensate", "--alpha", "0.3", "--resource", "4", "--outcomes", "0"], 3),
    (["compensate", "--alpha", "0.3", "--outcomes", "0,0,0,0"], 3),
    (["cz", "--alpha", "0", "--outcomes", "0,0,0"], 4),
    (["deutsch", "--function", "constant", "--outcomes", "0,0,0,0,0"], 4),
))
def test_wrong_outcome_count_is_a_usage_error(capsys, argv, n_steps):
    code, out, err = run_cli(capsys, "protocol", *argv)
    assert code == 2 and out == ""
    got = len(argv[-1].split(","))
    assert err == f"usage error: --outcomes needs {n_steps} bits for this program, got {got}\n"
