"""Ablation benches for the reproduction's main design choices.

* pulse-efficient RZZ vs CX-CX RZZ — duration and single-shot AR;
* shared vs per-qubit mixer parameterisation — parameter count vs AR
  after a fixed optimizer budget;
* M3 solver choice — direct LU vs matrix-free GMRES.
"""

import numpy as np
import pytest
from conftest import run_once

from repro.backends import FakeToronto
from repro.core import (
    ExecutionPipeline,
    GateLevelModel,
    HybridGatePulseModel,
    train_model,
)
from repro.mitigation import M3Mitigator
from repro.noise import ReadoutError
from repro.problems import MaxCutProblem, three_regular_6
from repro.vqa import ExpectedCutCost
from repro.vqa.optimizers import COBYLA


@pytest.fixture(scope="module")
def backend():
    return FakeToronto()


@pytest.fixture(scope="module")
def problem():
    return MaxCutProblem(three_regular_6())


def test_pulse_efficient_rzz_ablation(benchmark, backend, problem):
    """Scaled-CR RZZ vs the CX-CX decomposition at fixed parameters."""
    model = GateLevelModel(problem)
    circuit = model.build_circuit([0.7, 0.35])

    def compare():
        out = {}
        for pulse_efficient in (False, True):
            pipeline = ExecutionPipeline(
                backend=backend,
                cost=ExpectedCutCost(problem),
                shots=1024,
                pulse_efficient=pulse_efficient,
            )
            value, info = pipeline.evaluate(circuit, seed=21)
            key = "pulse_efficient" if pulse_efficient else "cx_cx"
            out[key] = {"ar": value / 9.0, "duration": info["duration"]}
        return out

    result = run_once(benchmark, compare)
    print()
    for key, row in result.items():
        print(
            f"  {key:>15}: AR {row['ar']:.3f}, "
            f"duration {row['duration']} dt"
        )
    assert (
        result["pulse_efficient"]["duration"] < result["cx_cx"]["duration"]
    ), "scaled CR must be shorter than two CX gates"


def test_mixer_parameterisation_ablation(benchmark, backend, problem):
    """Shared (1+3 params) vs per-qubit (1+3n) mixer blocks."""

    def compare():
        pipeline = ExecutionPipeline(
            backend=backend, cost=ExpectedCutCost(problem), shots=512
        )
        out = {}
        for shared in (True, False):
            model = HybridGatePulseModel(
                problem, backend.device, share_mixer_params=shared
            )
            train = train_model(
                model, pipeline, COBYLA(maxiter=10), seed=31
            )
            key = "shared" if shared else "per_qubit"
            out[key] = {
                "params": model.num_parameters,
                "ar": train.best_value / 9.0,
            }
        return out

    result = run_once(benchmark, compare)
    print()
    for key, row in result.items():
        print(f"  {key:>9}: {row['params']} params, AR {row['ar']:.3f}")
    assert result["shared"]["params"] < result["per_qubit"]["params"]


def test_m3_direct_vs_iterative(benchmark):
    """Matrix-free GMRES matches the dense LU solve."""
    readout = ReadoutError.asymmetric(6, p01=0.05, p10=0.02)
    rng = np.random.default_rng(2)
    keys = {format(int(i), "06b") for i in rng.integers(0, 64, 30)}
    counts = {k: int(rng.integers(10, 500)) for k in keys}
    mitigator = M3Mitigator(readout)

    direct = mitigator.apply(counts, method="direct")
    iterative = benchmark(mitigator.apply, counts)
    for key in direct:
        assert direct[key] == pytest.approx(iterative[key], abs=1e-6)


def test_dd_ablation(benchmark, backend, problem):
    """Dynamical decoupling on idle windows: duration overhead is zero."""
    from repro.transpiler import DynamicalDecoupling, circuit_duration, transpile

    model = GateLevelModel(problem)
    circuit = model.build_circuit([0.7, 0.35])
    routed = transpile(
        circuit,
        backend.coupling,
        initial_layout=[0, 1, 4, 7, 10, 12],
        seed=3,
    )
    durations = backend.target.duration_provider()
    dd = DynamicalDecoupling(durations, min_window=640)

    decoupled = run_once(benchmark, dd, routed)
    base_duration = circuit_duration(routed, durations)
    dd_duration = circuit_duration(decoupled, durations)
    extra_x = decoupled.count_ops().get("x", 0) - routed.count_ops().get(
        "x", 0
    )
    print(
        f"\n  inserted {extra_x} DD pulses; duration {base_duration} -> "
        f"{dd_duration} dt"
    )
    assert extra_x >= 0 and extra_x % 2 == 0
    assert dd_duration <= base_duration + 1  # fills idle windows only
