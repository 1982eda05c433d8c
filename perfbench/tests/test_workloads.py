import json
import math

import pytest

from perfbench import workloads


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name):
    assert json.dumps(workloads.generate(name, 7)) == json.dumps(workloads.generate(name, 7))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_different_seed_gives_different_inputs(name):
    assert json.dumps(workloads.generate(name, 7)) != json.dumps(workloads.generate(name, 8))


def test_grid_sweep_inputs_cover_the_stated_ranges():
    specs = workloads.generate("grid-sweep", 3)
    cells = []
    for spec in specs:
        check = spec["check"]
        theta = [v * check["scale"] for v in check["grid_theta"][:2]]
        phid = [v * check["scale"] for v in check["grid_phid"][:2]]
        cells.append(check["grid_theta"][2] * check["grid_phid"][2])
        assert check["steps"] in (1024, 2048, 4096)
        assert theta[0] == 0.0 or math.isclose(theta[1], math.pi)
        assert max(abs(v) for v in phid) >= math.pi / 2
    assert min(cells) < 10 and 120 <= max(cells) <= 160


def test_velocity_check_inputs_follow_the_step_rule():
    for spec in workloads.generate("velocity-check", 3):
        assert 9 <= len(spec["path"]) <= 33
        assert 1 <= len(spec["charges"]) <= 3
        assert len(spec["profiles"]) in (2, 3)
        for speeds, dt in zip(spec["profiles"], spec["dts"]):
            a_max = sum(
                abs(lam) / (2 * math.pi * spec["units"]["eps0"] * spec["units"]["c"] ** 2
                            * workloads.path_distance([x, y], spec["path"]))
                for x, y, lam in spec["charges"]
            )
            assert abs(spec["units"]["Gamma"]) * a_max * max(speeds) * dt < 0.01
        assert abs(spec["units"]["Gamma"] * spec["pulse"]["B0"]) * spec["dt_sab"] < 0.01


def test_scenario_mix_has_about_five_percent_rejections_of_every_kind():
    specs = workloads.generate("scenario-mix", 3)
    rejected = [s["check"]["rejection"] for s in specs if s["check"]["mode"] == "reject"]
    assert 0.04 < len(rejected) / len(specs) < 0.06
    assert set(rejected) == set(workloads.REJECTIONS)
    assert all(specs[s["pair"]]["pair"] == i for i, s in enumerate(specs) if "pair" in s)


@pytest.mark.parametrize("seed", [1, 2, 10])
def test_velocity_check_has_the_same_rounding_defect_scenarios_for_every_seed(seed):
    specs = workloads.generate("velocity-check", seed)
    shown = [
        i for i, s in enumerate(specs)
        if s["pulse"]["shape"] == "rectangular" and s["t"] > s["pulse"]["t_off"]
        and workloads.last_stage_past_t_off(s["pulse"], s["dt_sab"])
    ]
    past = [i for i, s in enumerate(specs) if s["pulse"]["shape"] == "rectangular" and s["t"] > s["pulse"]["t_off"]]
    assert len(shown) == 4 and len(past) == 12

