"""Golden trace digests: pinned sha256 of every artifact of a few short runs.

Rerun equality (criterion 9) cannot notice a change that alters every run
the same way, such as a different random generator or a refactor of the
cycle engine that reorders draws.  These digests can.  They cover a DTP
run that migrates under robot stress, DTP and fixed runs that enter and
leave the network-impairment fault window, and a custom run with
exogenous stress load and an additive fault.  When a change alters the
traces on purpose, re-pin the digests once and say why:
``PYTHONPATH=src python tests/test_golden_digests.py`` prints the ``GOLDEN``
mapping the code computes, to replace the one below.
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
    "mixed-hyb": (
        "baseline",
        "HYB",
        6,
        4,
        {
            "stresses": (StressProfile("E", 1, 2, slowdown=1.5, exogenous_load=0.2),),
            "faults": (
                FaultInjection(
                    (("R1", "E"),), 3.0, sigma=1.0, loss_probability=0.3,
                    start_window=2, end_window=3, additive=True,
                ),
            ),
        },
    ),
}

GOLDEN = {
    "robot-stress-dtp": {
        "cycles.csv": "a2d3d69fa8a01fefb44d9b5fef004749a6e124458dc8049c7b22cd9645a9dfac",
        "decisions.jsonl": "4606361a377ca175e47e12e3e978c5611af6cae9f591f49f89be1c378435bb93",
        "summary.json": "a16c1eb67d4999b8a7b4915c38bfa5a42012280374a7f680190f9de9f88898c9",
        "windows.csv": "a1bcac5127a2b2079d83d4af3b82093a964288536ac8bf397f8d3890ac569353",
    },
    "impairment-dtp": {
        "cycles.csv": "356e8e1e0e3f46f94a8a4c280623725d7ce08ec706f69c324b141169e42d51e9",
        "decisions.jsonl": "230d6a78be9b1b1a4c1923795c665410ead8edfaa137ebc8c8d1c2dc32c985aa",
        "summary.json": "a249982c416dbe01cbe759c0d2c6e9c0d10e17e6280a800f667874ea4f927630",
        "windows.csv": "09d6587cb6cc5db855ce03b359a80f6ee938266dc49db9df2239bb3bb7da53aa",
    },
    "impairment-so": {
        "cycles.csv": "e936723a0b57b1099e94ad27f5f9075507549b68361c4a82f9e8451f9ac1cdd3",
        "decisions.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "summary.json": "b196a0826640f0bf34d8f51205458d3d431b28f821e24d68df08e8b4fc24523f",
        "windows.csv": "4fc7d6cf31304f5efa4f88d9e854700cd7cbcc46dec11920f5e116edefa66d4f",
    },
    "edge-stress-dtp": {
        "cycles.csv": "d2106fc10969e46849d4d06b55ef3b18a1f67bbd12483b1d0ef6fb53d4f30701",
        "decisions.jsonl": "17a9bef4e71aaf1837fa9cd1f0a105241a738b16a479191bf9126c6c4590206f",
        "summary.json": "5819a18ff481e257abeff2021b979882c00b6ae86b7d339e7e0124eceba55f59",
        "windows.csv": "9e11d46aaf02947b71b915d8a6185ec467dfbd6c6f1f69e297e31ee5bfbec344",
    },
    "baseline-loc": {
        "cycles.csv": "d1671cce437c3223a035713dda5db3e79272752983639d7fd074987a2aea1f26",
        "decisions.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "summary.json": "03b73dc9b2db771f3022ee3fd06862e5783a85ca79e5b1403c2c7a7be0958669",
        "windows.csv": "facb1f422844e5ee7434d8ea2c21f068fc5cb4d11625cade8222b2d74de38cb4",
    },
    "mixed-hyb": {
        "cycles.csv": "d30af2400ff2f71ba8b5c242e28372e8d761b51d87454625f279bdcefa45e8c8",
        "decisions.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "summary.json": "8a8fbff9df42a5bd14209dfb0a06323699e199e919eb1656b6ea5a8682fff4d9",
        "windows.csv": "6745c071392d92f8ee8b63a2602281e67e4b0c4caf7b5bd44c6fdab90d5314f6",
    },
}


def run_digests(name, tmp_path):
    scenario, policy, seed, horizon, changes = RUNS[name]
    spec = CONFIG.scenarios[scenario]
    sim = replace(spec.sim, seed=seed, horizon=horizon)
    faults = changes.get("faults", spec.faults)
    if "fault_window" in changes:
        start, end = changes["fault_window"]
        faults = tuple(replace(f, start_window=start, end_window=end) for f in faults)
    stresses = changes.get("stresses", spec.stresses)
    trace = run_simulation(
        CONFIG.dag, CONFIG.fabric, sim, CONFIG.controller_config(spec.controller_overrides),
        fixed=None if policy == CONTROLLER_POLICY else policy,
        stresses=stresses, faults=faults,
        estimator=CONFIG.estimator,
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


if __name__ == "__main__":
    import tempfile
    import warnings
    from pathlib import Path

    warnings.simplefilter("ignore", UserWarning)
    print("GOLDEN = {")
    for name in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            digests = run_digests(name, Path(tmp))
        print(f'    "{name}": {{')
        for artifact, digest in digests.items():
            print(f'        "{artifact}": "{digest}",')
        print("    },")
    print("}")
