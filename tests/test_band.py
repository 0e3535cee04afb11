"""The chain's band has one owner: ChainConfig.check_band.

Every entry point that takes a frequency refuses one outside the chain's
band alike: above the stub band first, naming the largest frequency, then
outside a coupler's band, naming the first offender in C order. The AST
guard keeps OutOfBandError made in two places only, so a second band check
with its own order or wording cannot grow back.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from swsense.controller import ControllerConfig, settle_cw
from swsense.core import Tone
from swsense.coupling import DirectionalCouplerParams
from swsense.engine import Scenario, StageSpec, run
from swsense.errors import CalibrationRangeError, OutOfBandError
from swsense.estimator import CalibrationGrid, build_calibration, estimate_power
from swsense.readout import ChainConfig, TapCodes, chain_codes_cw, chain_readout_lines

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "swsense"

CHAINS = {"tap": ChainConfig(), "coupler": ChainConfig(coupling_kind="coupler")}
STUB_20 = "20.000 GHz above the stub band (tap l1 resolves up to 16.000 GHz)"


def coupler_msg(f_ghz: str) -> str:
    return f"{f_ghz} GHz outside coupler band [1.000, 14.000] GHz"


@pytest.fixture(scope="module")
def small_cals():
    """Per chain kind, a 5-7 GHz table, in band for both chains."""
    grid = CalibrationGrid(5e9, 7e9, 1e9, -5.0, 5.0, 5.0)
    return {kind: build_calibration(cfg, grid) for kind, cfg in CHAINS.items()}


ENTRY_POINTS = {
    "chain_readout_lines": lambda cfg, cal, f: chain_readout_lines([(f, 1e-3)], cfg, 0.0),
    "chain_codes_cw": lambda cfg, cal, f: chain_codes_cw(f, 0.0, 0.0, cfg),
    "settle_cw": lambda cfg, cal, f: settle_cw(f, 0.0, cfg, ControllerConfig.for_chain(cfg)),
    "estimate_power": lambda cfg, cal, f: estimate_power(TapCodes(0.0, 2965, 2788, 2857, 0.0), f, cal),
    "build_calibration": lambda cfg, cal, f: build_calibration(cfg, CalibrationGrid(f, f, 1e9, 0.0, 0.0, 1.0)),
    "run": lambda cfg, cal, f: run(
        Scenario(duration_s=1e-6, sources=(Tone(freq_hz=f, power_dbm=0.0),), stages=(StageSpec(chain=cfg),)),
        collect_trace=False,
    ),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@pytest.mark.parametrize(
    "kind, f_hz, message",
    [
        ("tap", 20e9, STUB_20),
        ("tap", 15e9, None),
        ("tap", 0.5e9, None),
        ("coupler", 20e9, STUB_20),
        ("coupler", 15e9, coupler_msg("15.000")),
        ("coupler", 0.5e9, coupler_msg("0.500")),
    ],
)
def test_every_entry_point_refuses_alike(small_cals, entry, kind, f_hz, message):
    call = ENTRY_POINTS[entry]
    cfg, cal = CHAINS[kind], small_cals[kind]
    if message is None:
        call(cfg, cal, f_hz)
        return
    if entry == "build_calibration":
        with pytest.raises(CalibrationRangeError) as info:
            call(cfg, cal, f_hz)
        assert isinstance(info.value.__cause__, OutOfBandError)
        assert str(info.value) == str(info.value.__cause__) == message
        return
    with pytest.raises(OutOfBandError) as info:
        call(cfg, cal, f_hz)
    assert str(info.value) == (f"stage 0: source line {message}" if entry == "run" else message)


@pytest.mark.parametrize(
    "kind, freqs, message",
    [
        # Above the stub band, the largest frequency is named, wherever it sits.
        ("tap", [[17e9, 20e9], [8e9, 0.5e9]], STUB_20),
        ("coupler", [[0.5e9, 15e9], [20e9, 17e9]], STUB_20),
        # Outside the coupler band only, the first offender in C order.
        ("coupler", [[8e9, 15e9], [0.5e9, 14.5e9]], coupler_msg("15.000")),
        ("coupler", [[8e9, 9e9], [0.5e9, 14.5e9]], coupler_msg("0.500")),
    ],
)
def test_arrays_name_their_offender_by_the_one_rule(kind, freqs, message):
    cfg, f = CHAINS[kind], np.array(freqs)
    ctrl = ControllerConfig.for_chain(cfg)
    for call in (lambda f: chain_codes_cw(f, 0.0, 0.0, cfg), lambda f: settle_cw(f, 0.0, cfg, ctrl), cfg.check_band):
        with pytest.raises(OutOfBandError) as info:
            call(f)
        assert str(info.value) == message


def test_run_checks_the_stub_band_before_the_coupler_band():
    # The 0.5 GHz source comes first, but the 20 GHz line is named.
    sources = (Tone(freq_hz=0.5e9, power_dbm=0.0), Tone(freq_hz=20e9, power_dbm=0.0))
    sc = Scenario(duration_s=1e-6, sources=sources, stages=(StageSpec(chain=CHAINS["coupler"]),))
    with pytest.raises(OutOfBandError, match=r"^stage 0: source line 20\.000 GHz above the stub band"):
        run(sc)


EMPTY_BAND = "coupler f_min_hz=17000000000.0 lies above the stub band edge, 16.000 GHz (tap l1's f_max): the chain's band is empty"


def test_a_coupler_above_the_stub_band_is_refused():
    # Its band would run from 17 GHz down to 16 GHz; a coupler that starts
    # on the stub band's edge leaves one frequency, and is kept.
    with pytest.raises(ValueError, match=f"^{re.escape(EMPTY_BAND)}$"):
        ChainConfig(coupling_kind="coupler", coupler=DirectionalCouplerParams(f_min_hz=17e9, f_max_hz=18e9))
    edge = ChainConfig(coupling_kind="coupler", coupler=DirectionalCouplerParams(f_min_hz=16e9, f_max_hz=18e9))
    assert edge.band_hz == (16e9, 16e9)


# ---------------- one place makes an OutOfBandError ----------------


def band_error_sites(source: str) -> list[str]:
    """The qualified name of the function around each OutOfBandError(...) call in source."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
                if name == "OutOfBandError":
                    found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return sorted(found)


def test_scan_finds_every_construction():
    source = (
        "from . import errors\nfrom .errors import OutOfBandError\n"
        "E = OutOfBandError('x')\n"
        "class C:\n    def m(self):\n        raise errors.OutOfBandError('y')\n"
        "def f():\n    def g():\n        raise OutOfBandError('z')\n    return OutOfBandError\n"
    )
    assert band_error_sites(source) == ["<module>", "C.m", "f.g"]


def test_only_the_band_owners_make_an_out_of_band_error():
    sites = {path.stem: band_error_sites(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {stem: found for stem, found in sites.items() if found} == {
        "coupling": ["coupler_db_at"],
        "readout": ["ChainConfig.check_band"],
    }
