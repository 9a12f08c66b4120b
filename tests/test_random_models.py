"""The stage-batched random team generator against its per-stage reference."""

import json

import numpy as np
import pytest

from teamlqg.model import to_json_dict
from teamlqg.random_models import random_team

import reference

DRAWS = 200
OPTIONS = [
    {},
    {"n": 64},
    {"n": 1024},
    {"coupling": 0.0},
    {"time_varying": False},
    {"homogeneous": True},
    {"zero_mean": True},
    {"d_max": 1},
    {"d_max": 5},
    {"coupling": 0.0, "time_varying": False, "T": 1},
]


@pytest.mark.parametrize("options", OPTIONS, ids=json.dumps)
def test_draws_are_byte_equal_to_the_per_stage_generator(options):
    """Same generator stream, same model, to the last byte of its JSON;
    the generators are left in the same state for the next draw."""
    batched = np.random.default_rng(len(json.dumps(options)))
    per_stage = np.random.default_rng(len(json.dumps(options)))
    for _ in range(DRAWS):
        new = json.dumps(to_json_dict(random_team(batched, **options)))
        old = json.dumps(to_json_dict(reference.random_team(per_stage, **options)))
        assert new == old
    assert batched.bit_generator.state == per_stage.bit_generator.state


def test_options_cover_the_draw_shapes():
    """The option sets above reach every horizon and dimension branch."""
    rng = np.random.default_rng(0)
    seen = {opts.get("d_max", 3): set() for opts in OPTIONS}
    for opts in OPTIONS:
        for _ in range(40):
            d = random_team(rng, **opts).dims
            seen[opts.get("d_max", 3)].add(d.d_x)
    assert seen[1] == {1}
    assert seen[3] == {1, 2, 3}
    assert seen[5] == {1, 2, 3, 4, 5}
