"""Checked-in CLI outputs that every rerun must reproduce byte for byte.

Each `<name>.config.json` under tests/data has a `<name>.golden.*` file next
to it, written by `cli.run` on that config.  A change that moves any bit of
a root, a gradient or a formatted number fails here.
"""

from pathlib import Path

import pytest

from steerctl import cli

DATA = Path(__file__).parent / "data"

GOLDEN = [
    ("landscape_dp", ".csv"),
    ("optimize_ad", ".json"),
    ("robustness_ad", ".json"),
]


@pytest.mark.parametrize("name, suffix", GOLDEN, ids=[name for name, _ in GOLDEN])
def test_cli_output_matches_its_golden_bytes(tmp_path, monkeypatch, name, suffix):
    # The golden optimize output is the serial run's; results must not
    # depend on the worker count, but pin it so the test checks one thing.
    monkeypatch.delenv("STEERCTL_THREADS", raising=False)
    out = tmp_path / name
    assert cli.run(str(DATA / f"{name}.config.json"), out=str(out)) == 0
    golden = (DATA / f"{name}.golden{suffix}").read_bytes()
    assert out.with_suffix(suffix).read_bytes() == golden
