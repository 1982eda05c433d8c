import copy

import pytest

from perfbench import oracles, workloads


@pytest.fixture(scope="module")
def api():
    import spinphase
    import spinphase.cli  # noqa: F401

    return spinphase


def first_spec(workload, predicate, seed=1):
    specs = workloads.generate(workload, seed)
    index = next(i for i, s in enumerate(specs) if predicate(s))
    return specs, index


def run_spec(api, tmp_path, specs, index):
    (op,) = workloads.materialize([specs[index]], tmp_path)
    op.prepare()
    return op.run(api)


def rewrite_cell(output, row, column, delta):
    """The CSV output with one cell moved by delta, re-serialized at 17 digits."""
    status, data, stdout = output
    lines = data.decode().split("\n")
    cells = lines[row + 1].split(",")
    cells[column] = format(float(cells[column]) + delta, ".17g")
    lines[row + 1] = ",".join(cells)
    return status, "\n".join(lines).encode(), stdout


def test_grid_sweep_oracle_rejects_a_perturbed_row(api, tmp_path):
    specs, index = first_spec("grid-sweep", lambda s: s["check"]["scale"] == 1.0)
    output = run_spec(api, tmp_path, specs, index)
    assert oracles.check_op(specs, index, {index: output}) == []
    gamma_geo = oracles.INTERFERENCE_COLUMNS.index("gamma_geo")
    bad = rewrite_cell(output, 1, gamma_geo, 1e-9)
    assert oracles.check_op(specs, index, {index: bad})


def test_chi_scan_oracle_rejects_a_perturbed_probability(api, tmp_path):
    specs, index = first_spec("scenario-mix", lambda s: s["kind"] == "cli" and s["check"]["mode"] == "chi-scan"
                              and s["format"] == "csv")
    output = run_spec(api, tmp_path, specs, index)
    assert oracles.check_op(specs, index, {index: output}) == []
    assert oracles.check_op(specs, index, {index: rewrite_cell(output, 3, 1, 1e-10)})


def test_series_pair_oracle_rejects_a_perturbed_bloch_vector(api, tmp_path):
    specs, index = first_spec("scenario-mix", lambda s: s["kind"] == "cli" and s["check"]["mode"] == "sab-classical"
                              and s["format"] == "csv")
    partner = specs[index]["pair"]
    outputs = {i: run_spec(api, tmp_path, specs, i) for i in (index, partner)}
    assert oracles.check_op(specs, index, outputs) == []
    outputs[partner] = rewrite_cell(outputs[partner], 2, 2, 1e-7)
    assert any("Bloch" in p for p in oracles.check_op(specs, index, outputs))


def test_rejection_oracle_requires_the_promised_exit_status(api, tmp_path):
    specs, index = first_spec("scenario-mix", lambda s: s["kind"] == "cli" and s["check"]["mode"] == "reject"
                              and s["check"]["rejection"] == "unknown-key")
    status, data, stdout = run_spec(api, tmp_path, specs, index)
    assert status == 2
    assert oracles.check_op(specs, index, {index: (status, data, stdout)}) == []
    assert oracles.check_op(specs, index, {index: (1, data, stdout)})


def test_velocity_oracle_rejects_a_perturbed_final_state(api):
    specs, index = first_spec("velocity-check", lambda s: s["closed"] and len(s["path"]) < 14)
    result = workloads.VelocityOp(specs[index]).run(api)
    assert not any("profile" in p for p in oracles.check_op(specs, index, {index: result}))
    bad = copy.deepcopy(result)
    bad["finals"][-1] = (bad["finals"][-1][0] + 1e-5, *bad["finals"][-1][1:])
    assert any("profile" in p for p in oracles.check_op(specs, index, {index: bad}))


@pytest.mark.parametrize("shape", ["rectangular", "smooth-bump"])
def test_analytic_pulse_integral_matches_the_program(api, shape):
    data = {"shape": shape, "B0": 1.3, "t_on": 0.2, "t_off": 1.4, "ramp": 0.3}
    pulse = api.fields.pulse_from_dict(data)
    for t0, t1 in [(0.0, 0.35), (0.3, 1.25), (0.0, 2.0), (1.2, 1.39)]:
        assert oracles.pulse_integral(data, t0, t1) == pytest.approx(api.pulse_integral_B(pulse, t0, t1), abs=1e-12)
