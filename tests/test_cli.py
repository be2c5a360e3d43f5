"""Command-line interface: parsing, serialization, commands, exit codes."""

import argparse
import hashlib
import json
from math import cos, pi, sqrt

import numpy as np
import pytest

from corrspace.cli import (
    dumps15,
    format_float,
    main,
    parse_angle,
    parse_bits,
    render_csv,
)

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


def test_parse_bits():
    assert parse_bits("0,1,0") == (0, 1, 0)
    assert parse_bits("1") == (1,)
    with pytest.raises(argparse.ArgumentTypeError):
        parse_bits("0,2")
    with pytest.raises(argparse.ArgumentTypeError):
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
    assert isinstance(data["seed"], int)


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


def test_protocol_deutsch_abort_maps_to_exit_1(capsys):
    code, _, err = run_cli(
        capsys,
        "protocol", "deutsch", "--function", "balanced", "--outcomes", "0,1,0,0",
    )
    assert code == 1
    assert "abort" in err.lower()


# Stdout SHA-256 of the protocol and fig2 commands over both wire angles
# (seeded, post-selected, explicit outcomes and enumerated branches),
# recorded on the per-protocol measurement loops that the program
# interpreter replaced.  Any change in which qubit is measured in which
# basis, in the order of the rng draws or in the branch order changes
# these bytes.
PROTOCOL_DIGESTS = (
    ("protocol rotate --alpha 0.3 --beta 0.7 --gamma=-0.2 --seed 11 --theta pi/6",
     "0db72b4b406514541e6de54b6e2bc82f183ccad2df50d6c422c7fdb35eddf19c"),
    ("protocol rotate --alpha 0.3 --beta 0.7 --gamma=-0.2 --postselect-zeros --theta pi/6",
     "5d64ce53f63e33cc90bf24d70be56773f0045af27029154cde2965d39c3776b8"),
    ("protocol compensate --alpha pi/2 --resource 4 --enumerate --theta pi/6",
     "97b3560737b24a4b9a34b8321740054d9583cfe5492f27d734021e39a77a6010"),
    ("protocol compensate --alpha pi/2 --resource 4 --seed 7 --theta pi/6",
     "5603bbbf08c8f11a80154e42d285f7b19201eb2207307c5043f3a0f48ecdd9a9"),
    ("protocol compensate --alpha pi/2 --resource 4 --postselect-zeros --theta pi/6",
     "a4b612a6c72661f1fb1042b1488902376531f481eb76ce534d38e701db6e287f"),
    ("protocol compensate --alpha pi/2 --resource 4 --outcomes 1,1,0 --theta pi/6",
     "fdb0ef13b0fd2c31602d83d864b7213180aaf4619c84a5acb5c6cda9b96e7361"),
    ("protocol compensate --alpha pi/2 --resource 2 --enumerate --theta pi/6",
     "396be5fae8cbf2d92c1c6d7f38908c7414feea1490423d4e755594ffa2094e2f"),
    ("protocol compensate --alpha pi/2 --resource 2 --seed 7 --theta pi/6",
     "76cae3456b34ed6c4644b6eb62df9e250bed0e0499752aea9b3c85cb04929f22"),
    ("protocol compensate --alpha pi/2 --resource 2 --postselect-zeros --theta pi/6",
     "c0f047df10f2d3ca7b6db06c92d91a2e51640d543a895f452b7c48ceaa6f2f74"),
    ("protocol cz --alpha pi/3 --seed 11 --theta pi/6",
     "f7c59ae2c7ddfafcd19f4f37f529968efbe28342391868bca19a3b8954e2743e"),
    ("protocol cz --alpha pi/3 --outcomes 1,0,0,1 --theta pi/6",
     "c167f9909e4f375f303012b570627a1c3f96650cdcfa849fb327d1c9e9b508c4"),
    ("protocol deutsch --function constant --seed 6 --theta pi/6",
     "8405434a47dfcdd908aa4bbe78b8530223c9a5dc946375d3486704fb69dd629b"),
    ("protocol deutsch --function balanced --seed 6 --theta pi/6",
     "a2483c9c3359783831b0f22d846a907fccec8a3d81243abea5eb41ad010f5680"),
    ("curve fig2 --resource 2 --fidelity 0.73 --theta pi/6",
     "20584298fd0a2d4a090392cfd8ef45f33602284d684a73d7c7be49dff5ab8347"),
    ("curve fig2 --resource 4 --fidelity 0.73 --theta pi/6",
     "79ae86ad47f8ce29169a0a60c745bd427876a0456646746dbdab8680a7cc428b"),
    ("protocol rotate --alpha 0.3 --beta 0.7 --gamma=-0.2 --seed 11 --theta 0.3",
     "0f9947cbcc65b31ec6fbbedcd84c8c8bc745396018f3a4f010ccce6d75e27d85"),
    ("protocol rotate --alpha 0.3 --beta 0.7 --gamma=-0.2 --postselect-zeros --theta 0.3",
     "83069162095ad0050a8007a5012abd3b2cc5d72464225930b21c5a61371a4330"),
    ("protocol compensate --alpha pi/2 --resource 4 --enumerate --theta 0.3",
     "e875b07f0e52a4b233da791d8e7478eac9342e386ae59cdab0faba1ee068acba"),
    ("protocol compensate --alpha pi/2 --resource 4 --seed 7 --theta 0.3",
     "36afd799d83a4cc7d7a8bdfa12fdf8b9eab0117d4c7e7b22689279f07965d321"),
    ("protocol compensate --alpha pi/2 --resource 4 --postselect-zeros --theta 0.3",
     "6893599e9a777e4553024be647eb7b24282378caa36ff3a8a48f0336037d7416"),
    ("protocol compensate --alpha pi/2 --resource 4 --outcomes 1,1,0 --theta 0.3",
     "03fcaf32600369729924ea62a6b94f670fcba2104311ff36ace6c6c87011a05b"),
    ("protocol compensate --alpha pi/2 --resource 2 --enumerate --theta 0.3",
     "34c0aeb781914bafe176cc9f97031a9761d80a10e79323f9e70752c560630575"),
    ("protocol compensate --alpha pi/2 --resource 2 --seed 7 --theta 0.3",
     "d84039d915c8366a5bb4e83e0df34b2a6f552340310c9d0cff901fae0c85624b"),
    ("protocol compensate --alpha pi/2 --resource 2 --postselect-zeros --theta 0.3",
     "af3ee557bc9dde2534f6a44ee1b4426ef8ed20f0c3d49a6a29ffd7bbcde364b3"),
    ("protocol cz --alpha pi/3 --seed 11 --theta 0.3",
     "be8b8581ec028dae3427fd52125d6fb0804527e30fa96e7c3f30f5e5631db06d"),
    ("protocol cz --alpha pi/3 --outcomes 1,0,0,1 --theta 0.3",
     "b5ed7dd22935186e6f9670735e8d15df06b8e94a4570d0cbe3e9d58ef28caa90"),
    ("protocol deutsch --function constant --seed 6 --theta 0.3",
     "5655ed33e8b10a1fe325d5ada69afdb08019eed47d5c74fb26061cc016fb6602"),
    ("protocol deutsch --function balanced --seed 43 --theta 0.3",
     "84911815dc8da50b5f242e8e91cf52974bda34bd1470c13ba62e955f4504d652"),
    ("curve fig2 --resource 2 --fidelity 0.73 --theta 0.3",
     "65a91a612324cf5497927538bc2ec9f9d94a3a0589c3da28d8ba7d6d49543f3b"),
    ("curve fig2 --resource 4 --fidelity 0.73 --theta 0.3",
     "336d52c16469e0304d3051d90f2a08300b502a64fccd85783a8a567b49a30d1b"),
)


@pytest.mark.parametrize("args,digest", PROTOCOL_DIGESTS)
def test_protocol_stdout_bytes_are_pinned(capsys, args, digest):
    code, out, err = run_cli(capsys, *args.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_tomo_reconstruct_missing_file_maps_to_exit_1(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "tomo", "reconstruct", "--counts", str(tmp_path / "nope.json"),
    )
    assert code == 1


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


def test_witness_bad_fidelity_maps_to_exit_1(capsys):
    code, _, err = run_cli(
        capsys, "witness", "fidelity", "--fidelity", "0.005"
    )
    assert code == 1


# Stdout SHA-256 of `witness fidelity` over a fixed grid (theta, fidelity,
# exact or seeded 2000-shot counts, literal or corrected), recorded on the
# dense-Kronecker implementation.  Any change in rounding anywhere on the
# witness path (term matrices, expectations, cells, parity sums, counts)
# changes these bytes.
WITNESS_DIGESTS = (
    ("--theta pi/6 --fidelity 1",
     "6692f2d038a4e897d5c86b374fcd1f024ebfd19369afe57d6f58a879ce4d6dcd"),
    ("--theta pi/6 --fidelity 1 --corrected",
     "8506ee5f4a1112bced90c2b12adcabefffaa11d3ef1eebff3fc98a64dc1c8000"),
    ("--theta pi/6 --fidelity 1 --shots 2000 --seed 5",
     "629ec63aa60ab7be68d32fe06bb5d77b659e2ce063bdcbfcccad9a469b0866a9"),
    ("--theta pi/6 --fidelity 1 --shots 2000 --seed 5 --corrected",
     "772c9bf21bcad0ebf3066bb128d10dc6dc65fed90d60c671a026f0066dd99b2c"),
    ("--theta pi/6 --fidelity 0.73",
     "c322b6b7919d9ba01fd1a14b029c1e9014809df36ff5f757a51d5eab70f3be4a"),
    ("--theta pi/6 --fidelity 0.73 --corrected",
     "fbba5b65e2c3ac22088bd3c388c3f942d2a073d056e69cd20f62702840e897c8"),
    ("--theta pi/6 --fidelity 0.73 --shots 2000 --seed 5",
     "341a93f47dd315e6162c5cff591d84c4bcf051c94acb7c5d7fe362d559efdb21"),
    ("--theta pi/6 --fidelity 0.73 --shots 2000 --seed 5 --corrected",
     "e29b735cf2f21283d576fe28ce3dcac39b337d974d964f5f84cb76c10db3f102"),
    ("--theta 0.3 --fidelity 1",
     "83c6fcf5c2b1e6a25a492839ee2501d6596dee5f5e58daec85bff0750a6312b4"),
    ("--theta 0.3 --fidelity 1 --corrected",
     "4df5af74c236a23e74261012b21ce4108d1b24e6906b8a5023d74351baa89d44"),
    ("--theta 0.3 --fidelity 1 --shots 2000 --seed 5",
     "c6df7787248e6b231ff33c8702f051f550451ddae6c9cff18905366f998eeffb"),
    ("--theta 0.3 --fidelity 1 --shots 2000 --seed 5 --corrected",
     "60f331572b3abfc090dc559987cf076589de3a9f78b14dc704fc89f0d433f9f8"),
    ("--theta 0.3 --fidelity 0.73",
     "5e595db4743702fcf048d0f7aaabd5b612cea14d76a057f9f2b14ba3a7ff6399"),
    ("--theta 0.3 --fidelity 0.73 --corrected",
     "9cc6d307fce98117425b785d1934d5cd852c7af23b1125174600afa89a5e5009"),
    ("--theta 0.3 --fidelity 0.73 --shots 2000 --seed 5",
     "7254e2ba980296fb50db61ec6cb050e21385d4059b3e9be65dfbda72e0a050d2"),
    ("--theta 0.3 --fidelity 0.73 --shots 2000 --seed 5 --corrected",
     "9b290f82e5ae44b1ba071474d922dfda1e94c56a0ee70888eb4aaf2beab7d31c"),
)


@pytest.mark.parametrize("args,digest", WITNESS_DIGESTS)
def test_witness_fidelity_stdout_bytes_are_pinned(capsys, args, digest):
    code, out, err = run_cli(capsys, "witness", "fidelity", *args.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_unknown_command_maps_to_exit_2(capsys):
    code, _, _ = run_cli(capsys, "weather", "forecast")
    assert code == 2


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
