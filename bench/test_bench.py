"""Self-test of the benchmark: every workload, including those that
BENCHMARK.json does not list, runs at toy size, traced and untraced,
reports every metric that BENCHMARK.json names with its unit, and no op
fails its check."""

import json
from pathlib import Path

import pytest

import run
from weakindex import catalog, classifier
from weakindex.productivity import trim
from workloads import WORKLOADS, Op

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_at_toy_size(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0",
            "--trace", str(trace), "--size", "toy"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_input_with_memo_entries_fails_its_op():
    stale = trim(catalog.get("inf_b_left"))
    classifier.borel_rank(stale)
    assert stale._memo
    op = Op("classify", lambda: stale, classifier.classify, lambda _, r: "unexpected")
    p = run.run_pass([op])
    assert p.failed == 1 and p.verdicts[0].startswith("FAILED classify: StaleInput")
