"""Checked-in CLI outputs that every rerun must reproduce byte for byte.

Each `<name>.config.json` under tests/data has a `<name>.golden.*` file next
to it, written by `cli.run` on that config.  A change that moves any bit of
a root, a gradient or a formatted number fails here.
"""

import json
from pathlib import Path

import pytest

from steerctl import cli

DATA = Path(__file__).parent / "data"

#: The landscape and robustness goldens make no BLAS call whose bits depend on
#: the kernel; scipy's L-BFGS-B does, so the optimize golden is exact only on
#: the kernel that wrote it.
ANY_KERNEL = pytest.mark.blas_kernel_independent

GOLDEN = [
    pytest.param("landscape_dp", ".csv", marks=ANY_KERNEL, id="landscape_dp"),
    pytest.param("optimize_ad", ".json", id="optimize_ad"),
    pytest.param("robustness_ad", ".json", marks=ANY_KERNEL, id="robustness_ad"),
]


@pytest.mark.parametrize("name, suffix", GOLDEN)
def test_cli_output_matches_its_golden_bytes(tmp_path, monkeypatch, name, suffix):
    # The golden optimize output is the serial run's; results must not
    # depend on the worker count, but pin it so the test checks one thing.
    monkeypatch.delenv("STEERCTL_THREADS", raising=False)
    out = tmp_path / name
    assert cli.run(str(DATA / f"{name}.config.json"), out=str(out)) == 0
    golden = (DATA / f"{name}.golden{suffix}").read_bytes()
    assert out.with_suffix(suffix).read_bytes() == golden


@pytest.mark.blas_kernel_independent
def test_optimize_golden_holds_on_any_blas_kernel(tmp_path):
    # scipy's L-BFGS-B calls BLAS itself, so the final iterate's last bits
    # depend on the kernel OpenBLAS picks for the host; under the Haswell
    # kernel the amplitudes move by up to 2.7e-13.  Every value reported
    # for the starts, the best pulse's included, stays exact.
    out = tmp_path / "optimize_ad"
    assert cli.run(str(DATA / "optimize_ad.config.json"), out=str(out)) == 0
    got = json.loads(out.with_suffix(".json").read_text())
    golden = json.loads((DATA / "optimize_ad.golden.json").read_text())
    amplitudes = got["best_pulse"].pop("amplitudes")
    expected = golden["best_pulse"].pop("amplitudes")
    assert got == golden
    assert len(amplitudes) == len(expected)
    assert max(abs(a - b) for a, b in zip(amplitudes, expected)) <= 1e-10
