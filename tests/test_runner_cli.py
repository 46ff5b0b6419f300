"""The experiments command-line interface."""

import json

import pytest

from repro.experiments import common
from repro.experiments.runner import main
from repro.experiments.units import units_for


@pytest.fixture(autouse=True)
def fresh_caches():
    common.clear_caches()
    yield
    common.clear_caches()


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig04" in out and "fig14" in out


def test_run_command_prints_table(capsys, tmp_path):
    out_file = tmp_path / "tables.txt"
    json_file = tmp_path / "data.json"
    code = main([
        "run", "fig04",
        "--scale", "0.02",
        "--seed", "3",
        "--out", str(out_file),
        "--json", str(json_file),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "Fig. 4" in printed
    assert "rost" in printed
    assert "Fig. 4" in out_file.read_text()
    data = json.loads(json_file.read_text())
    assert "fig04" in data and "series" in data["fig04"]


def test_run_unknown_experiment_raises():
    with pytest.raises(KeyError):
        main(["run", "fig99", "--scale", "0.02"])


def test_check_invariants_is_scoped_to_its_invocation():
    """``--check-invariants`` applies to its own ``main()`` call only: a
    later unchecked invocation in the same process runs unchecked."""
    argv = ["run", "fig05", "--scale", "0.02", "--seed", "3", "--jobs", "1"]
    assert main([*argv, "--check-invariants"]) == 0
    common.clear_caches()
    assert main(argv) == 0
    # churn_key folds the checking flag in right before the obs fingerprint.
    assert {key[-2] for key in common._churn_cache} == {False}
    unit = units_for("fig05", 0.02, 3)[0]
    assert unit.store_doc()["checked"] is False
