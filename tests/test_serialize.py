"""File formats: matrices, channels, values, and their failure modes."""

import json
import math

import numpy as np
import pytest

from qrd.errors import MalformedInputError
from qrd.serialize import (
    channel_from_json,
    channel_to_json,
    csv_cell,
    dump_channel,
    dump_matrix,
    load_channel,
    load_config,
    load_state,
    matrix_from_json,
    matrix_to_json,
    state_from_json,
    value_to_json,
)
from qrd.verify import rand_channel, rand_density


def test_matrix_round_trip(rng, tmp_path):
    op = rand_density(rng, 3)
    path = tmp_path / "m.json"
    dump_matrix(op, path)
    back = load_state(path)
    np.testing.assert_allclose(back.entries, op.entries, atol=0.0)


def test_real_matrix_omits_imaginary_block():
    op = rand_density(np.random.default_rng(0), 2)
    real_op = matrix_from_json(matrix_to_json(op), "here")
    obj = matrix_to_json(real_op)
    assert "im" in obj  # complex random state keeps it
    diag = matrix_to_json(matrix_from_json(
        {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]]}, "here"
    ))
    assert "im" not in diag


def test_matrix_rejects_ragged():
    with pytest.raises(MalformedInputError):
        matrix_from_json({"dim": 2, "re": [[1.0], [0.0, 1.0]]}, "here")


def test_matrix_rejects_non_finite():
    with pytest.raises(MalformedInputError):
        matrix_from_json({"dim": 2, "re": [[1.0, 0.0], [0.0, math.inf]]}, "here")


def test_matrix_rejects_missing_dim():
    with pytest.raises(MalformedInputError):
        matrix_from_json({"re": [[1.0]]}, "here")


def test_state_rejects_negative_and_traceless():
    with pytest.raises(MalformedInputError):
        state_from_json({"dim": 2, "re": [[1.0, 0.0], [0.0, -0.5]]}, "here")
    with pytest.raises(MalformedInputError):
        state_from_json({"dim": 2, "re": [[0.0, 0.0], [0.0, 0.0]]}, "here")


def test_state_tolerates_tiny_negative_dust():
    op = state_from_json({"dim": 2, "re": [[1.0, 0.0], [0.0, -1e-12]]}, "here")
    assert op.dim == 2


def test_channel_kraus_round_trip(rng, tmp_path):
    ch = rand_channel(rng, 2, 3, kraus_n=2)
    path = tmp_path / "ch.json"
    dump_channel(ch, path)
    back = load_channel(path)
    rho = rand_density(rng, 2)
    np.testing.assert_allclose(
        back.apply(rho).entries, ch.apply(rho).entries, atol=1e-12
    )


def test_channel_choi_form(rng):
    ch = rand_channel(rng, 2, 2, kraus_n=2)
    obj = {
        "d_in": 2,
        "d_out": 2,
        "choi": matrix_to_json(ch.choi),
    }
    back = channel_from_json(obj, "here")
    rho = rand_density(rng, 2)
    np.testing.assert_allclose(
        back.apply(rho).entries, ch.apply(rho).entries, atol=1e-8
    )


def test_channel_choi_of_the_wrong_dimension_is_malformed(rng):
    obj = {"d_in": 2, "d_out": 2, "choi": matrix_to_json(rand_channel(rng, 2, 3).choi)}
    with pytest.raises(MalformedInputError, match="Choi dim 6"):
        channel_from_json(obj, "here")


def test_channel_json_shape_errors(rng):
    ch = rand_channel(rng, 2, 2)
    obj = channel_to_json(ch)
    obj["kraus"][0]["re"] = [[1.0]]
    with pytest.raises(MalformedInputError):
        channel_from_json(obj, "here")
    with pytest.raises(MalformedInputError):
        channel_from_json({"d_in": 2, "d_out": 2}, "here")


def test_value_conventions():
    assert value_to_json(1.5) == 1.5
    assert value_to_json(math.inf) == "inf"
    assert value_to_json(-math.inf) == "-inf"
    with pytest.raises(MalformedInputError):
        value_to_json(math.nan)


def test_csv_cell_conventions():
    assert csv_cell(None) == ""
    assert csv_cell(math.inf) == ""
    assert csv_cell(0.5) == "0.5"
    with pytest.raises(MalformedInputError):
        csv_cell(math.nan)


def test_load_config_requires_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(MalformedInputError):
        load_config(path)
    path.write_text("not json")
    with pytest.raises(MalformedInputError):
        load_config(path)


def test_load_state_missing_file(tmp_path):
    with pytest.raises(MalformedInputError):
        load_state(tmp_path / "nope.json")


def test_dump_is_deterministic(rng, tmp_path):
    op = rand_density(rng, 2)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    dump_matrix(op, a)
    dump_matrix(op, b)
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["dim"] == 2
