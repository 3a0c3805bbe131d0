"""Command line surface: outputs, exit codes, config overrides."""

import argparse
import json
import math

import numpy as np
import pytest

import qrd.lab
from qrd.channels import depolarizing_channel, identity_channel
from qrd.lab import main
from qrd.serialize import dump_channel, dump_matrix
from qrd.verify import rand_channel, rand_density, run_suite


@pytest.fixture
def state_files(tmp_path):
    rng = np.random.default_rng(99)
    rho = tmp_path / "rho.json"
    sigma = tmp_path / "sigma.json"
    dump_matrix(rand_density(rng, 3), rho)
    dump_matrix(rand_density(rng, 3), sigma)
    return str(rho), str(sigma)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_json_output(capsys, state_files):
    rho, sigma = state_files
    code, out, _ = run_cli(
        capsys, "eval", "--kind", "daz", "--alpha", "1.5", "--z", "1.0",
        "--rho", rho, "--sigma", sigma,
    )
    assert code == 0
    record = json.loads(out)
    assert isinstance(record["value"], float)
    assert record["metadata"]["kind"] == "daz"
    assert record["metadata"]["alpha"] == 1.5


def test_eval_family_spec(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--kind", "dmax", "--family", "pure:c=1,eps=1e-6"
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(math.log(2.0), abs=1e-5)


def test_eval_infinite_value_encoding(capsys, tmp_path):
    rng = np.random.default_rng(5)
    rho_p = tmp_path / "r.json"
    sigma_p = tmp_path / "s.json"
    dump_matrix(rand_density(rng, 3), rho_p)
    dump_matrix(rand_density(rng, 3, rank=2), sigma_p)
    code, out, _ = run_cli(
        capsys, "eval", "--kind", "daz", "--alpha", "2", "--z", "1",
        "--rho", str(rho_p), "--sigma", str(sigma_p),
    )
    assert code == 0
    assert json.loads(out)["value"] == "inf"


def test_eval_requires_pair(capsys):
    code, _, err = run_cli(capsys, "eval", "--kind", "dmax")
    assert code == 3
    assert "rho" in err


def test_eval_family_with_a_non_numeric_parameter_exits_three(capsys):
    code, out, err = run_cli(capsys, "eval", "--kind", "dmax", "--family", "pure:c=abc,eps=1")
    assert code == 3 and out == ""
    assert "'c=abc'" in err


def test_eval_seed_required_for_measured(capsys, state_files):
    rho, sigma = state_files
    code, _, err = run_cli(
        capsys, "eval", "--kind", "measured", "--alpha", "2",
        "--rho", rho, "--sigma", sigma,
    )
    assert code == 3
    assert "seed" in err


def test_malformed_state_exits_two(capsys, tmp_path, state_files):
    _, sigma = state_files
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "re": [[1.0, 0.0], [0.0, -0.5]]}')
    code, _, err = run_cli(
        capsys, "eval", "--kind", "dmax", "--rho", str(bad), "--sigma", sigma
    )
    assert code == 2
    assert "positive semidefinite" in err


def test_sweep_csv_with_out_of_domain_cells(capsys, state_files):
    rho, sigma = state_files
    code, out, _ = run_cli(
        capsys, "sweep", "--alpha-grid", "0.5:2:4",
        "--z-mode", "alpha-minus-1-over-kappa", "--kappa", "1",
        "--rho", rho, "--sigma", sigma,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "alpha,z,value"
    assert lines[1].endswith(",")  # z < 0: no value
    assert lines[2].endswith(",")  # the (1, 0) corner
    assert not lines[4].endswith(",")


def test_sweep_with_kappa_zero_exits_three(capsys, state_files):
    rho, sigma = state_files
    code, out, err = run_cli(
        capsys, "sweep", "--alpha-grid", "1.5", "--z-mode", "alpha-minus-1-over-kappa",
        "--kappa", "0", "--rho", rho, "--sigma", sigma,
    )
    assert (code, out) == (3, "")
    assert "--kappa" in err


def test_sweep_rejects_bad_grid(capsys, state_files):
    rho, sigma = state_files
    code, _, _ = run_cli(
        capsys, "sweep", "--alpha-grid", "1:2", "--z", "1",
        "--rho", rho, "--sigma", sigma,
    )
    assert code == 3


@pytest.mark.parametrize("grid", ["a:b:3", "0.5:2:x", "0.5:2:2.5", "1.5,abc"])
def test_sweep_malformed_grid_exits_three(capsys, state_files, grid):
    rho, sigma = state_files
    code, out, err = run_cli(
        capsys, "sweep", "--alpha-grid", grid, "--z", "1", "--rho", rho, "--sigma", sigma,
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and repr(grid) in err


def test_channel_dmax_kind(capsys, tmp_path):
    rng = np.random.default_rng(3)
    p1 = tmp_path / "n1.json"
    p2 = tmp_path / "n2.json"
    dump_channel(rand_channel(rng, 2, 2, kraus_n=2), p1)
    dump_channel(rand_channel(rng, 2, 2, kraus_n=4), p2)
    code, out, _ = run_cli(
        capsys, "channel", "--n1", str(p1), "--n2", str(p2), "--kind", "dmax"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["records"] == []
    assert payload["domination_ok"] is True


@pytest.mark.parametrize(
    "kraus",
    [
        '{"re": [["a", 0], [0, 1]]}',
        '{"re": [[1, 0], [0, 1]], "im": [["x", 0], [0, 0]]}',
        '{"re": [[1, 0], [0]]}',
    ],
)
def test_malformed_kraus_exits_two(capsys, tmp_path, kraus):
    bad = tmp_path / "bad.json"
    bad.write_text(f'{{"d_in": 2, "d_out": 2, "kraus": [{kraus}]}}')
    code, _, err = run_cli(
        capsys, "channel", "--n1", str(bad), "--n2", str(bad), "--kind", "petz",
        "--alpha-grid", "1.5", "--seed", "1",
    )
    assert code == 2
    assert "error:" in err


def test_channel_seed_required(capsys, tmp_path):
    rng = np.random.default_rng(3)
    p1 = tmp_path / "n1.json"
    dump_channel(rand_channel(rng, 2, 2), p1)
    code, _, err = run_cli(
        capsys, "channel", "--n1", str(p1), "--n2", str(p1), "--kind", "petz",
        "--alpha-grid", "1.5",
    )
    assert code == 3
    assert "seed" in err


@pytest.mark.parametrize(
    "argv, config",
    [
        (("channel", "--kind", "petz", "--seed", "-1"), None),
        (("verify", "--suite", "alt", "--trials", "1", "--seed", "-1"), None),
        (("eval", "--kind", "measured", "--alpha", "0.3", "--seed", "-2"), None),
        (("verify", "--suite", "alt", "--trials", "1", "--seed", "1"), {"seed": -1}),
    ],
)
def test_negative_seed_exits_three(capsys, tmp_path, state_files, argv, config):
    """A negative seed, from a flag or a config file, is a parameter domain violation."""
    rho, sigma = state_files
    n1, n2 = tmp_path / "id.json", tmp_path / "dep.json"
    dump_channel(identity_channel(2), n1)
    dump_channel(depolarizing_channel(0.2), n2)
    extra = {"channel": ("--n1", str(n1), "--n2", str(n2)), "eval": ("--rho", rho, "--sigma", sigma)}
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        extra["verify"] = ("--config", str(cfg))
    code, out, err = run_cli(capsys, *argv, *extra.get(argv[0], ()))
    assert (code, out) == (3, "")
    assert "seed must be non-negative" in err


def test_channel_whitelist_exit_four(capsys, tmp_path):
    rng = np.random.default_rng(3)
    p1 = tmp_path / "n1.json"
    dump_channel(rand_channel(rng, 2, 2), p1)
    code, _, err = run_cli(
        capsys, "channel", "--n1", str(p1), "--n2", str(p1), "--kind", "sandwiched",
        "--alpha-grid", "0.4", "--seed", "1",
    )
    assert code == 4
    assert "whitelist" in err


def test_verify_subcommand_summary(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "families", "--trials", "1", "--seed", "8"
    )
    assert code == 0
    assert "families:" in out
    assert "all" in out and "passed" in out


def test_verify_failure_reporting(capsys, monkeypatch):
    import qrd.verify

    class FakeRecord:
        suite, case, digest, ok, detail = "alt", "fake", "d", False, "broken"

    monkeypatch.setattr(qrd.verify, "run_suite", lambda *a: [FakeRecord()])
    code, out, _ = run_cli(capsys, "verify", "--suite", "alt", "--seed", "0")
    assert code == 1
    last = out.strip().split("\n")[-1]
    assert json.loads(last)["failures"][0]["detail"] == "broken"


def test_config_overrides_flags(capsys, tmp_path, state_files):
    rho, sigma = state_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 2.0}))
    code, out, _ = run_cli(
        capsys, "eval", "--kind", "dhat", "--alpha", "1.5",
        "--rho", rho, "--sigma", sigma, "--config", str(cfg),
    )
    assert code == 0
    assert json.loads(out)["metadata"]["alpha"] == 2.0


@pytest.mark.parametrize(
    "argv,config",
    [
        (("eval", "--kind", "dhat", "--alpha", "1.5"), {"alpha": "abc"}),
        (("eval", "--kind", "dhat", "--alpha", "1.5"), {"alpha": True}),
        (("eval", "--kind", "dhat", "--alpha", "1.5"), {"family": 3}),
        (("verify", "--suite", "alt", "--seed", "1"), {"trials": "3"}),
        (("verify", "--suite", "alt", "--seed", "1"), {"trials": 2.0}),
        (("verify", "--suite", "alt", "--seed", "1"), {"seed": False}),
        # a value outside the matching flag's choices
        (("eval", "--kind", "dhat", "--alpha", "1.5"), {"kind": "bogus"}),
        (("sweep", "--alpha-grid", "1.5", "--z", "1"), {"z_mode": "nonsense"}),
        (("channel", "--n1", "n1.json", "--n2", "n2.json", "--kind", "petz"), {"kind": "test"}),
        (("verify", "--suite", "alt", "--seed", "1"), {"suite": "bogus"}),
    ],
)
def test_config_rejects_values_of_the_wrong_type(capsys, tmp_path, state_files, argv, config):
    rho, sigma = state_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    pair = ("--rho", rho, "--sigma", sigma) if argv[0] == "eval" else ()
    code, out, err = run_cli(capsys, *argv, *pair, "--config", str(cfg))
    assert (code, out) == (2, "")
    [(key, value)] = config.items()
    assert f"config key {key!r}" in err and repr(value) in err


def test_config_takes_an_integer_for_a_float_field(capsys, tmp_path, state_files):
    rho, sigma = state_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 2, "kind": "dhat", "z": None}))
    code, out, _ = run_cli(
        capsys, "eval", "--kind", "dmax", "--rho", rho, "--sigma", sigma, "--config", str(cfg),
    )
    assert code == 0
    assert json.loads(out)["metadata"]["kind"] == "dhat"


def test_config_suite_names_one_suite(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "families"}))
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "alt", "--trials", "1", "--seed", "8", "--config", str(cfg),
    )
    assert code == 0
    assert out.splitlines()[0].startswith("families: ")


def test_eval_digest_is_pinned_and_shared_with_verify(capsys):
    # gen_kappa(1, 2, 1e-6): the pair of the families suite's fixed case kappa-unit
    code, out, _ = run_cli(
        capsys, "eval", "--kind", "dmax", "--family", "kappa:kappa=1,lam=2,eps=1e-6"
    )
    assert code == 0
    digest = json.loads(out)["metadata"]["digest"]
    assert digest == "e1e2ac363346"
    [record] = [r for r in run_suite("families", 1, 0) if r.case == "fixed/kappa-unit"]
    assert record.digest == digest


def test_config_rejects_unknown_keys(capsys, tmp_path, state_files):
    rho, sigma = state_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"wibble": 1}))
    code, _, err = run_cli(
        capsys, "eval", "--kind", "dmax", "--rho", rho, "--sigma", sigma,
        "--config", str(cfg),
    )
    assert code == 2
    assert "wibble" in err


def test_out_flag_writes_file(tmp_path, capsys, state_files):
    rho, sigma = state_files
    target = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys, "eval", "--kind", "umegaki", "--rho", rho, "--sigma", sigma,
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert "value" in json.loads(target.read_text())


def test_seeded_outputs_are_byte_identical(capsys, state_files):
    rho, sigma = state_files
    args = (
        "eval", "--kind", "measured", "--alpha", "2", "--seed", "7",
        "--restarts", "2", "--rho", rho, "--sigma", sigma,
    )
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_config_accepts_every_flag_of_every_command(capsys, tmp_path, monkeypatch):
    """A config may set each flag that a command declares, and the command sees its values."""
    seen = {}

    def record(args):
        seen.update(vars(args))
        return 0

    for name in ("cmd_eval", "cmd_sweep", "cmd_channel", "cmd_verify"):
        monkeypatch.setattr(qrd.lab, name, record)
    [commands] = [
        a.choices for a in qrd.lab.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    cases = []
    for command, parser in commands.items():
        flags = [a for a in parser._actions if a.dest not in ("help", "config")]
        config = {
            a.dest: next(iter(a.choices)) if a.choices else {float: 0.5, int: 3, None: "x.json"}[a.type]
            for a in flags
        }
        argv = [command]
        for a in flags:
            if a.required:
                argv += [a.option_strings[0], str(config[a.dest])]
        cases.append((argv, config))
    cases.append((["verify", "--suite", "families"], {"trials": 5, "seed": 3, "suite": "alt"}))
    for argv, config in cases:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        seen.clear()
        code, _, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert (code, err) == (0, ""), argv
        assert {key: seen[key] for key in config} == config, argv


@pytest.fixture
def channel_files(tmp_path):
    n1, n2 = tmp_path / "id.json", tmp_path / "dep.json"
    dump_channel(identity_channel(2), n1)
    dump_channel(depolarizing_channel(0.2), n2)
    return n1, n2


def test_config_sets_channel_files(capsys, tmp_path, channel_files):
    n1, n2 = channel_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n2": str(n2)}))
    _, direct, _ = run_cli(capsys, "channel", "--n1", str(n1), "--n2", str(n2), "--kind", "dmax")
    code, out, _ = run_cli(
        capsys, "channel", "--n1", str(n1), "--n2", "missing.json", "--kind", "dmax",
        "--config", str(cfg),
    )
    assert (code, out) == (0, direct)


def test_channel_curve_over_an_alpha_grid(capsys, channel_files):
    n1, n2 = channel_files
    argv = (
        "channel", "--n1", str(n1), "--n2", str(n2), "--kind", "sandwiched",
        "--alpha-grid", "1.5,2", "--seed", "1", "--restarts", "4",
    )
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(first)
    assert [r["alpha"] for r in payload["records"]] == [1.5, 2.0]
    assert all("converged" in r for r in payload["records"])
    assert payload["domination_ok"] is True
    assert run_cli(capsys, *argv)[1] == first


def test_config_suite_list_runs_every_suite_named(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": ["alt", "families"]}))
    code, out, err = run_cli(
        capsys, "verify", "--suite", "alt", "--trials", "1", "--seed", "1", "--config", str(cfg),
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0].startswith("alt: ") and lines[1].startswith("families: ")
    assert lines[-1].startswith("all ")


@pytest.mark.parametrize(
    "config,bad",
    [
        ({"suite": ["alt", "bogus"]}, "'bogus'"),
        ({"suite": ["alt", 3]}, "3"),
        ({"suite": []}, "[]"),
        ({"trials": [1, 2]}, "[1, 2]"),  # --trials is not repeatable
    ],
)
def test_config_rejects_a_bad_list(capsys, tmp_path, config, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(
        capsys, "verify", "--suite", "alt", "--trials", "1", "--seed", "1", "--config", str(cfg),
    )
    assert (code, out) == (2, "")
    [key] = config
    assert f"config key {key!r}" in err and bad in err


def test_sweep_z_mode_alpha_half(capsys, state_files):
    from qrd.divergences import DivergenceParams, d_alpha_z
    from qrd.serialize import load_state

    rho, sigma = state_files
    code, out, _ = run_cli(
        capsys, "sweep", "--alpha-grid", "1.5,3", "--z-mode", "alpha-half",
        "--rho", rho, "--sigma", sigma,
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [(float(a), float(z)) for a, z, _ in rows] == [(1.5, 0.75), (3.0, 1.5)]
    pair = load_state(rho), load_state(sigma)
    for a, z, value in rows:
        want = d_alpha_z(*pair, DivergenceParams(float(a), float(z))).d_value
        assert float(value) == want


def test_sweep_fixed_mode_needs_z(capsys, state_files):
    rho, sigma = state_files
    code, out, err = run_cli(
        capsys, "sweep", "--alpha-grid", "1.5", "--rho", rho, "--sigma", sigma,
    )
    assert (code, out) == (3, "")
    assert "--z is required for z-mode fixed" in err


def test_channel_curve_above_dmax_exits_one(capsys, monkeypatch, channel_files):
    import qrd.channels

    def above_dmax(n1, n2, kind, **_):
        dm = qrd.channels.channel_dmax(n1, n2)
        return qrd.channels.ChannelDivergenceResult(dm + 1.0, np.zeros(4), 1, True, math.inf)

    monkeypatch.setattr(qrd.channels, "channel_divergence", above_dmax)
    n1, n2 = channel_files
    code, out, err = run_cli(
        capsys, "channel", "--n1", str(n1), "--n2", str(n2), "--kind", "sandwiched",
        "--alpha-grid", "1.5", "--seed", "1",
    )
    assert code == 1
    assert json.loads(out)["domination_ok"] is False
    assert "domination bound broken at alpha in [1.5]" in err
    assert "max-relative entropy" in err
