"""Golden trace digests: pinned sha256 of every artifact of a few short runs.

Rerun equality (criterion 9) cannot notice a change that alters every run
the same way, such as a different random generator or a refactor of the
cycle engine that reorders draws.  These digests can.  They cover a DTP
run that migrates under robot stress, DTP and fixed runs that enter and
leave the network-impairment fault window, and a custom run with
exogenous stress load, an additive fault and a coarse clock.  When a
change alters the traces on purpose, re-pin the digests once and say why.
"""

import hashlib
from dataclasses import replace

import pytest

from dtpsim.harness import CONTROLLER_POLICY, load_config
from dtpsim.simulation import (
    FaultInjection,
    StressProfile,
    run_simulation,
    write_cycles_csv,
    write_decisions_jsonl,
    write_summary_json,
    write_windows_csv,
)

CONFIG = load_config()

# name -> (scenario, policy, seed, horizon, spec changes)
RUNS = {
    "robot-stress-dtp": ("robot-stress", "DTP", 1, 8, {}),
    "impairment-dtp": ("network-impairment", "DTP", 2, 8, {"fault_window": (3, 6)}),
    "impairment-so": ("network-impairment", "SO", 3, 8, {"fault_window": (3, 6)}),
    "edge-stress-dtp": ("edge-stress", "DTP", 4, 6, {}),
    "baseline-loc": ("baseline", "LOC", 5, 4, {}),
    "conservative-dtp": ("robot-stress", "DTP", 7, 4, {"estimator": "conservative"}),
    "mixed-hyb": (
        "baseline",
        "HYB",
        6,
        4,
        {
            "stresses": (StressProfile("E", 1, 2, slowdown=1.5, exogenous_load=0.2),),
            "faults": (
                FaultInjection((("R1", "E"),), 3.0, 1.0, 0.3, 2, 3, additive=True),
            ),
            "clock_resolution_us": 10,
        },
    ),
}

GOLDEN = {
    "robot-stress-dtp": {
        "cycles.csv": "a2d3d69fa8a01fefb44d9b5fef004749a6e124458dc8049c7b22cd9645a9dfac",
        "decisions.jsonl": "4606361a377ca175e47e12e3e978c5611af6cae9f591f49f89be1c378435bb93",
        "summary.json": "8aba70a1216241c46686ae45809b4db8d49a82d896444af706ec42b6c34a59f4",
        "windows.csv": "df243e239c107d634cb49422f2e64abf0d63398a300bcd25b498f67949bbefe5",
    },
    "impairment-dtp": {
        "cycles.csv": "356e8e1e0e3f46f94a8a4c280623725d7ce08ec706f69c324b141169e42d51e9",
        "decisions.jsonl": "230d6a78be9b1b1a4c1923795c665410ead8edfaa137ebc8c8d1c2dc32c985aa",
        "summary.json": "595f83869267ae9f55c35317dc287699aadaa63b089ecc556593e5c76b77f05b",
        "windows.csv": "09d6587cb6cc5db855ce03b359a80f6ee938266dc49db9df2239bb3bb7da53aa",
    },
    "impairment-so": {
        "cycles.csv": "e936723a0b57b1099e94ad27f5f9075507549b68361c4a82f9e8451f9ac1cdd3",
        "decisions.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "summary.json": "d70e2cacf56823431b8bc835149b54d3dee1bfb04dcfc5e6396f37ff9d81edb8",
        "windows.csv": "d527ad6721801af75c96f2633ba713c4fd9b8161b3b21956ce4e5c70a5bdf657",
    },
    "edge-stress-dtp": {
        "cycles.csv": "d2106fc10969e46849d4d06b55ef3b18a1f67bbd12483b1d0ef6fb53d4f30701",
        "decisions.jsonl": "f3d5e47bcff296b7674e811e6ef14a1f293bcbbd1ac05b233cea98a616b4c2a5",
        "summary.json": "61f6251278c8f3de7c61869cd43fdd2424852df09579135aa6ea80f61429d2d3",
        "windows.csv": "9e11d46aaf02947b71b915d8a6185ec467dfbd6c6f1f69e297e31ee5bfbec344",
    },
    "baseline-loc": {
        "cycles.csv": "d1671cce437c3223a035713dda5db3e79272752983639d7fd074987a2aea1f26",
        "decisions.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "summary.json": "bf56c568f2b0b3f98a0e0a163678b290c61b6e57610e98f5d5332955fb614386",
        "windows.csv": "6aabe5cb47fa567d537d6dfe3cd6d5f52bb1d205b4b9790a1f7bd9b69ec5e685",
    },
    "conservative-dtp": {
        "cycles.csv": "742bacc40d75e4121e69dc9a66c7875886097658ac8c46d263d3eb03bc9c5bc1",
        "decisions.jsonl": "6a5e79efb01b60247d548c6125e8ce85fb2ffddd7051957a4426cd4e5efa54e2",
        "summary.json": "cd94ca96bf9256b5fa4517843bcb1a9f504b34752f23916f22815408dee97692",
        "windows.csv": "1625d5d481f50b0c548e991d55661de172b84e7e2426917e7312cfeb88e2bd8c",
    },
    "mixed-hyb": {
        "cycles.csv": "cda79a3ac1e28fd8c9574c619f338fe5bea3d2d03e8fc44f6cb4f8ce7002d922",
        "decisions.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "summary.json": "2553032838a07dae012dbdc43bdfcb39b9aa2f75934462899b98145192a00682",
        "windows.csv": "7164ff67a50fdc03a6d43a5e790ee53a1bf6c35a965a5c697debede2f3eb066f",
    },
}


def run_digests(name, tmp_path):
    scenario, policy, seed, horizon, changes = RUNS[name]
    spec = CONFIG.scenarios[scenario]
    sim = replace(
        spec.sim,
        seed=seed,
        horizon=horizon,
        clock_resolution_us=changes.get("clock_resolution_us", spec.sim.clock_resolution_us),
    )
    faults = changes.get("faults", spec.faults)
    if "fault_window" in changes:
        start, end = changes["fault_window"]
        faults = tuple(replace(f, start_window=start, end_window=end) for f in faults)
    stresses = changes.get("stresses", spec.stresses)
    controller = CONFIG.controller_config(spec.controller_overrides)
    if policy == CONTROLLER_POLICY:
        estimator = replace(CONFIG.estimator, mode=changes.get("estimator", "auto"))
        trace = run_simulation(
            CONFIG.dag, CONFIG.fabric, sim, controller,
            stresses=stresses, faults=faults, estimator=estimator,
        )
    else:
        trace = run_simulation(
            CONFIG.dag, CONFIG.fabric, sim, CONFIG.candidates.by_name(policy),
            window_size=controller.window_size, stresses=stresses, faults=faults,
            weights=CONFIG.weights, targets=CONFIG.targets,
        )
    write_cycles_csv(trace, CONFIG.fabric, tmp_path / "cycles.csv")
    write_windows_csv(trace, tmp_path / "windows.csv")
    write_summary_json(trace, tmp_path / "summary.json")
    write_decisions_jsonl(trace, tmp_path / "decisions.jsonl")
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    }


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", sorted(RUNS))
def test_traces_match_golden_digests(name, tmp_path):
    assert run_digests(name, tmp_path) == GOLDEN[name]
