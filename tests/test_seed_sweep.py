"""Every bundled scenario at scenario seeds 1-10, every property checked.

The goldens pin seed 1 only; a change to timing or to the consensus rule
can break a property at another seed and still reproduce every golden.
Too slow for tier-1 (about a minute), so it runs behind its own
marker: `pytest -m seeds`.

A known defect goes in `KNOWN` as a strict xfail, so its fix shows as an
unexpected pass. None is known: pre-gst-chaos at seed 8, where a node that
missed a block before GST never finalized again, passes since engines
fetch the blocks they miss."""

from importlib import resources

import pytest

from flowpipe.scenario import load_scenario, run_scenario

BUNDLED = [
    "happy-path",
    "byzantine-executor",
    "equivocating-leader",
    "pre-gst-chaos",
    "withheld-collection",
    "network-partition",
]

KNOWN: dict[tuple[str, int], str] = {}


def cases():
    for name in BUNDLED:
        for seed in range(1, 11):
            marks = ()
            if (name, seed) in KNOWN:
                marks = pytest.mark.xfail(strict=True, reason=KNOWN[(name, seed)])
            yield pytest.param(name, seed, id=f"{name}-{seed}", marks=marks)


@pytest.mark.seeds
@pytest.mark.parametrize("name, seed", cases())
def test_every_property_holds(name, seed):
    doc = load_scenario(str(resources.files("flowpipe") / "scenarios" / f"{name}.json"))
    report = run_scenario(doc, seed=seed).report
    failed = [p for p in report["properties"] if not p["passed"]]
    assert not failed, failed
