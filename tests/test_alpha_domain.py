"""A non-finite order alpha is a parameter domain error: BadAlphaError, exit code 3."""

import json
import math

import numpy as np
import pytest

from qrd.channels import (
    channel_divergence,
    classical_channel_divergence_grid,
    depolarizing_channel,
    identity_channel,
    kind_whitelisted,
)
from qrd.classical import classical_q, classical_renyi, power_sign
from qrd.divergences import DivergenceParams, alt_chain, d_alpha_z, d_hat_alpha
from qrd.errors import BadAlphaError
from qrd.lab import main
from qrd.measured import measured_renyi_lower
from qrd.measured import test_measured as measured_by_test
from qrd.opcore import pinch_exp
from qrd.serialize import dump_channel
from qrd.zlimits import zero_z_divergence, zero_z_oracle

RHO = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
SIGMA = np.diag([0.4, 0.6])
T1 = np.array([[0.8, 0.3], [0.2, 0.7]])
T2 = np.array([[0.55, 0.45], [0.45, 0.55]])
ID, DEP = identity_channel(2), depolarizing_channel(0.2)

ENTRY_POINTS = {
    "d_alpha_z": lambda a: d_alpha_z(RHO, SIGMA, DivergenceParams(a, 1.0)),
    "d_hat_alpha": lambda a: d_hat_alpha(RHO, SIGMA, a),
    "alt_chain": lambda a: alt_chain(RHO, SIGMA, a, 0.5, 1.0),
    "zero_z_divergence": lambda a: zero_z_divergence(RHO, SIGMA, a),
    "zero_z_oracle": lambda a: zero_z_oracle(RHO, SIGMA, a),
    "pinch_exp": lambda a: pinch_exp(RHO, SIGMA, a),
    "classical_renyi": lambda a: classical_renyi([0.7, 0.3], [0.4, 0.6], a),
    "classical_q": lambda a: classical_q([0.7, 0.3], [0.4, 0.6], a),
    "power_sign": power_sign,
    "measured_renyi_lower": lambda a: measured_renyi_lower(RHO, SIGMA, a),
    "test_measured": lambda a: measured_by_test(RHO, SIGMA, a),
    "kind_whitelisted": lambda a: kind_whitelisted("sandwiched", a),
    "channel sandwiched": lambda a: channel_divergence(ID, DEP, "sandwiched", alpha=a, restarts=1),
    "channel petz": lambda a: channel_divergence(ID, DEP, "petz", alpha=a, restarts=1),
    "classical channel grid": lambda a: classical_channel_divergence_grid(T1, T2, a),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_infinite_alpha_raises_bad_alpha(name):
    with pytest.raises(BadAlphaError, match="inf"):
        ENTRY_POINTS[name](math.inf)


@pytest.fixture
def channel_files(tmp_path):
    n1, n2 = tmp_path / "id.json", tmp_path / "dep.json"
    dump_channel(ID, n1)
    dump_channel(DEP, n2)
    return ["--n1", str(n1), "--n2", str(n2), "--seed", "1"]


PAIR = ["--family", "pure:c=1,eps=1e-6"]


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--kind", "daz", "--alpha", "inf", "--z", "1", *PAIR],
        ["eval", "--kind", "dhat", "--alpha", "inf", *PAIR],
        ["eval", "--kind", "dinf", "--alpha", "inf", *PAIR],
        ["eval", "--kind", "dzero", "--alpha", "inf", *PAIR],
        ["eval", "--kind", "measured", "--alpha", "inf", "--seed", "1", *PAIR],
        ["eval", "--kind", "test", "--alpha", "inf", "--seed", "1", *PAIR],
        ["sweep", "--alpha-grid", "1.5,inf", "--z-mode", "alpha", *PAIR],
        ["channel", "--kind", "sandwiched", "--alpha-grid", "inf"],
        ["channel", "--kind", "petz", "--alpha-grid", "1.5,nan"],
        ["channel", "--kind", "umegaki", "--alpha-grid", "1:inf:2"],
    ],
)
def test_cli_non_finite_alpha_exits_three(capsys, channel_files, argv):
    if argv[0] == "channel":
        argv = [*argv, *channel_files]
    code = main(argv)
    out = capsys.readouterr()
    assert (code, out.out) == (3, ""), out.err
    assert out.err.startswith("error: ") and ("inf" in out.err or "nan" in out.err)


def test_cli_finite_grid_still_runs(capsys, channel_files):
    code = main(["channel", "--kind", "umegaki", "--alpha-grid", "1:2:2", *channel_files])
    record = json.loads(capsys.readouterr().out)
    assert code == 0 and [r["alpha"] for r in record["records"]] == [1.0, 2.0]
