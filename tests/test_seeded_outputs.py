"""The seeded simulate artifacts of the four bundled scenarios, pinned by sha256.

Each bundled scenario runs through swsense.cli.main at seeds 0 and 7, once
traced and once with --no-trace. The digests of every file the two runs
write (samples_stage*.csv of each, trace.csv and both metrics.json files)
were taken with Python 3.11.7 and numpy 2.4.6; a float formatted
differently by another version changes them. A change that moves any
digest must say in CHANGES.md why the outputs changed.
"""

import hashlib
from importlib import resources

import pytest

from swsense.cli import main

DIGESTS = {
    0: {
        "cascade_6_12.json": {
            "metrics.json": "ba92120976ba82af5e3d300dd445c508532c2ba5512377c8f869534c824fcf44",
            "no-trace/metrics.json": "60dceabc7f7e72a3f787d05d492d9c97fe1fd3595b7f142ca44ecd3008b9e5b7",
            "no-trace/samples_stage0.csv": "53246c3579873b089ca82769d8f3f450055fa5df21b950a87d40661ddef3e5b0",
            "no-trace/samples_stage1.csv": "55d7b330a6aa573efb376a2cca6d732cbd2dc558c159c2e176dcbe5714f254d2",
            "samples_stage0.csv": "53246c3579873b089ca82769d8f3f450055fa5df21b950a87d40661ddef3e5b0",
            "samples_stage1.csv": "55d7b330a6aa573efb376a2cca6d732cbd2dc558c159c2e176dcbe5714f254d2",
            "trace.csv": "fac2633f89096520153809f276195fd6e5fc4f83be2cd1b1b09c5148673fbcef",
        },
        "limit_cycle_coupler.json": {
            "metrics.json": "66f16bbbb0386fbd40e2a762e58b266d1beffef4727cf122a0453d723906fc54",
            "no-trace/metrics.json": "5feb0ce625fc13c064e29632c8b1286c50b0023c64d0be7dd630eeb50276e0cb",
            "no-trace/samples_stage0.csv": "113a1cb15fef9727f37ede11c3265b4172a595a121d45a436d9989b18f0d708b",
            "samples_stage0.csv": "113a1cb15fef9727f37ede11c3265b4172a595a121d45a436d9989b18f0d708b",
            "trace.csv": "a0570258749cb1ed09aa365da8ca9c1f2dc104de2a70de291ec3b957d4ea0d13",
        },
        "limit_cycle_tap.json": {
            "metrics.json": "ef79fc32105dd234ee6d376df917a53cfde1fbc7cc08dc979fe8d2efc7d13ed0",
            "no-trace/metrics.json": "16d760f612d372101e9851b1b53ab5715f7659965f14be67ecea490bc078d27a",
            "no-trace/samples_stage0.csv": "a2e0602aaf20efca1143362c2a55fd4b582e1e92aaab2d9db1a55a042856aa21",
            "samples_stage0.csv": "a2e0602aaf20efca1143362c2a55fd4b582e1e92aaab2d9db1a55a042856aa21",
            "trace.csv": "9d0c2688d2f36efca1f4386e8375d5d58016e440e8f2604b1f62cccc8c2e494f",
        },
        "pulse_response.json": {
            "metrics.json": "6ecb3f6b940581558aefb8f8e3a8215df329644799ae9bba7ee3b9fc2b17e8c6",
            "no-trace/metrics.json": "f34823dbb6e0d76a616e40e1af81e7ba43f98d36429d3256c0779f67b40a0560",
            "no-trace/samples_stage0.csv": "7623148354775f95dc652c97511af5f4dc70defcd87513b2690a87aae247f86c",
            "samples_stage0.csv": "7623148354775f95dc652c97511af5f4dc70defcd87513b2690a87aae247f86c",
            "trace.csv": "f335b5f38835386893e8cc4ce52893fdacfd13497a777a0c0fce4d111961fcc8",
        },
    },
    7: {
        "cascade_6_12.json": {
            "metrics.json": "d963e7c50ec9f81810f4b7c1d6b331a65fbf14afa89ee02f48039da4e09d952a",
            "no-trace/metrics.json": "9cfb891c704c50fb0d892d86fff7c1d157a40294a852aa79f909b03f8192761d",
            "no-trace/samples_stage0.csv": "be52c97a3279dbbc7718fc66a59f9228e46150d0b766c202bb459d5feb0122c7",
            "no-trace/samples_stage1.csv": "bbe5aaeea0a4143af4a97505cfafc3c801276eeb9513199d74e559fea47ab256",
            "samples_stage0.csv": "be52c97a3279dbbc7718fc66a59f9228e46150d0b766c202bb459d5feb0122c7",
            "samples_stage1.csv": "bbe5aaeea0a4143af4a97505cfafc3c801276eeb9513199d74e559fea47ab256",
            "trace.csv": "10b3a2a8cfb86308ddc495afb14c8488896d88bd879840645b3505d50441c684",
        },
        "limit_cycle_coupler.json": {
            "metrics.json": "66f16bbbb0386fbd40e2a762e58b266d1beffef4727cf122a0453d723906fc54",
            "no-trace/metrics.json": "5feb0ce625fc13c064e29632c8b1286c50b0023c64d0be7dd630eeb50276e0cb",
            "no-trace/samples_stage0.csv": "8775e8725791808d86ddfcb0cd68ac07af6a9f1279f3d8a605d04aa8d40d16f6",
            "samples_stage0.csv": "8775e8725791808d86ddfcb0cd68ac07af6a9f1279f3d8a605d04aa8d40d16f6",
            "trace.csv": "58eac6c87fd1d12438098d4766659941e7b50060678f6417a65bb6a718820b07",
        },
        "limit_cycle_tap.json": {
            "metrics.json": "ef79fc32105dd234ee6d376df917a53cfde1fbc7cc08dc979fe8d2efc7d13ed0",
            "no-trace/metrics.json": "16d760f612d372101e9851b1b53ab5715f7659965f14be67ecea490bc078d27a",
            "no-trace/samples_stage0.csv": "780b2b1fc56bff981c86d382984433d3444ff4039e92a0574d6b3d97c3a93a02",
            "samples_stage0.csv": "780b2b1fc56bff981c86d382984433d3444ff4039e92a0574d6b3d97c3a93a02",
            "trace.csv": "61be8de98eca33a9b1a3af98f023f8652fb1f4bffd4f02726e7c5d0f16c9773d",
        },
        "pulse_response.json": {
            "metrics.json": "4f14891ef041ec333b57a567d03d40864c6f2084c9ddf92262190327f17055ff",
            "no-trace/metrics.json": "cc45a9b57f4a19f2acc7ad19b85ae50a88010cfb74393eb97480b075a385793d",
            "no-trace/samples_stage0.csv": "748cf7e903778b0535a0d88cceef75b3c284c2a4934cd8b1f56742710f2c137f",
            "samples_stage0.csv": "748cf7e903778b0535a0d88cceef75b3c284c2a4934cd8b1f56742710f2c137f",
            "trace.csv": "f335b5f38835386893e8cc4ce52893fdacfd13497a777a0c0fce4d111961fcc8",
        },
    },
}


def _digests(folder, prefix=""):
    return {prefix + p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(folder.iterdir())}


def assert_pinned(tmp_path, capsys, name, seed):
    scenario = str(resources.files("swsense").joinpath(f"data/scenarios/{name}"))
    traced, untraced = tmp_path / "traced", tmp_path / "no-trace"
    traced.mkdir()
    untraced.mkdir()
    assert main(["--out", str(traced), "--seed", str(seed), "simulate", scenario]) == 0
    assert main(["--out", str(untraced), "--seed", str(seed), "simulate", scenario, "--no-trace"]) == 0
    capsys.readouterr()
    assert {**_digests(traced), **_digests(untraced, "no-trace/")} == DIGESTS[seed][name]


@pytest.mark.parametrize("name", sorted(DIGESTS[0]))
def test_seed_0_artifacts_are_pinned(tmp_path, capsys, name):
    assert_pinned(tmp_path, capsys, name, 0)


@pytest.mark.parametrize("name", sorted(DIGESTS[7]))
def test_seed_7_artifacts_are_pinned(tmp_path, capsys, name):
    assert_pinned(tmp_path, capsys, name, 7)
