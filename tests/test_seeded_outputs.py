"""The seeded simulate artifacts of the four bundled scenarios, pinned by sha256.

Each bundled scenario runs through swsense.cli.main at seed 0, once traced
and once with --no-trace. The digests of samples_stage*.csv, trace.csv and
both metrics.json files were taken with Python 3.11.7 and numpy 2.4.6; a
float formatted differently by another version changes them. A change that
moves any digest must say in CHANGES.md why the outputs changed.
"""

import hashlib
from importlib import resources

import pytest

from swsense.cli import main

DIGESTS = {
    "cascade_6_12.json": {
        "metrics.json": "ba92120976ba82af5e3d300dd445c508532c2ba5512377c8f869534c824fcf44",
        "samples_stage0.csv": "53246c3579873b089ca82769d8f3f450055fa5df21b950a87d40661ddef3e5b0",
        "samples_stage1.csv": "55d7b330a6aa573efb376a2cca6d732cbd2dc558c159c2e176dcbe5714f254d2",
        "trace.csv": "fac2633f89096520153809f276195fd6e5fc4f83be2cd1b1b09c5148673fbcef",
        "no-trace/metrics.json": "60dceabc7f7e72a3f787d05d492d9c97fe1fd3595b7f142ca44ecd3008b9e5b7",
    },
    "limit_cycle_coupler.json": {
        "metrics.json": "66f16bbbb0386fbd40e2a762e58b266d1beffef4727cf122a0453d723906fc54",
        "samples_stage0.csv": "113a1cb15fef9727f37ede11c3265b4172a595a121d45a436d9989b18f0d708b",
        "trace.csv": "a0570258749cb1ed09aa365da8ca9c1f2dc104de2a70de291ec3b957d4ea0d13",
        "no-trace/metrics.json": "5feb0ce625fc13c064e29632c8b1286c50b0023c64d0be7dd630eeb50276e0cb",
    },
    "limit_cycle_tap.json": {
        "metrics.json": "ef79fc32105dd234ee6d376df917a53cfde1fbc7cc08dc979fe8d2efc7d13ed0",
        "samples_stage0.csv": "a2e0602aaf20efca1143362c2a55fd4b582e1e92aaab2d9db1a55a042856aa21",
        "trace.csv": "9d0c2688d2f36efca1f4386e8375d5d58016e440e8f2604b1f62cccc8c2e494f",
        "no-trace/metrics.json": "16d760f612d372101e9851b1b53ab5715f7659965f14be67ecea490bc078d27a",
    },
    "pulse_response.json": {
        "metrics.json": "6ecb3f6b940581558aefb8f8e3a8215df329644799ae9bba7ee3b9fc2b17e8c6",
        "samples_stage0.csv": "7623148354775f95dc652c97511af5f4dc70defcd87513b2690a87aae247f86c",
        "trace.csv": "f335b5f38835386893e8cc4ce52893fdacfd13497a777a0c0fce4d111961fcc8",
        "no-trace/metrics.json": "f34823dbb6e0d76a616e40e1af81e7ba43f98d36429d3256c0779f67b40a0560",
    },
}


def _digests(folder):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(folder.iterdir())}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_seed_0_artifacts_are_pinned(tmp_path, capsys, name):
    scenario = str(resources.files("swsense").joinpath(f"data/scenarios/{name}"))
    traced, untraced = tmp_path / "traced", tmp_path / "no-trace"
    traced.mkdir()
    untraced.mkdir()
    assert main(["--out", str(traced), "--seed", "0", "simulate", scenario]) == 0
    assert main(["--out", str(untraced), "--seed", "0", "simulate", scenario, "--no-trace"]) == 0
    capsys.readouterr()
    got = _digests(traced)
    got["no-trace/metrics.json"] = _digests(untraced)["metrics.json"]
    assert got == DIGESTS[name]
