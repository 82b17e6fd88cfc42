"""ChaosPlan determinism and FaultInjector behavior per fault kind."""

from __future__ import annotations

import pytest

from repro import (
    AnalyticBackend,
    ChaosKind,
    ChaosPlan,
    Dims,
    FaultInjector,
    Kernel,
    Precision,
    TransferType,
    make_model,
)
from repro.errors import (
    ConfigError,
    DeviceLostError,
    TransferError,
    TransientKernelError,
)

MODEL = make_model("lumi")
DIMS = Dims(256, 256, 256)


def make_injector(plan: ChaosPlan) -> FaultInjector:
    return FaultInjector(AnalyticBackend(MODEL), plan)


# -- plan ------------------------------------------------------------


def test_plan_validation():
    with pytest.raises(ConfigError):
        ChaosPlan(rates={ChaosKind.KERNEL: -0.1})
    with pytest.raises(ConfigError):
        ChaosPlan(rates={ChaosKind.KERNEL: 1.0})
    with pytest.raises(ConfigError):
        ChaosPlan(hang_s=0.0)
    with pytest.raises(ConfigError):
        ChaosPlan(ecc_slowdown=0.9)
    with pytest.raises(ConfigError):
        ChaosPlan(rates={"kernel": 0.1})


def test_plan_is_deterministic():
    a = ChaosPlan.uniform(0.3, seed=42)
    b = ChaosPlan.uniform(0.3, seed=42)
    key = ("gpu", "once", "gemm", (64, 64, 64), "single", 8)
    for kind in ChaosKind:
        for attempt in range(4):
            assert a.fires(kind, key, attempt) == b.fires(kind, key, attempt)


def test_plan_seed_changes_draws():
    key = ("gpu", "once", "gemm", (64, 64, 64), "single", 8)
    draws = {
        seed: tuple(
            ChaosPlan.uniform(0.5, seed=seed).fires(ChaosKind.KERNEL, key, a)
            for a in range(32)
        )
        for seed in range(4)
    }
    assert len(set(draws.values())) > 1


def test_plan_rate_monotonicity():
    """rate 0 never fires; rate ~1 nearly always fires."""
    key = ("cpu", None, "gemm", (8, 8, 8), "double", 1)
    assert not ChaosPlan().enabled
    assert not ChaosPlan().fires(ChaosKind.KERNEL, key, 0)
    hot = ChaosPlan(rates={ChaosKind.KERNEL: 0.999})
    fired = sum(hot.fires(ChaosKind.KERNEL, key, a) for a in range(100))
    assert fired > 90


def test_attempts_draw_independently():
    plan = ChaosPlan.uniform(0.5, seed=3)
    key = ("gpu", "always", "gemv", (100, 100), "single", 8)
    draws = [plan.fires(ChaosKind.TRANSFER, key, a) for a in range(64)]
    assert any(draws) and not all(draws)


# -- injector --------------------------------------------------------


def test_injector_no_faults_is_transparent():
    clean = AnalyticBackend(MODEL)
    inj = make_injector(ChaosPlan())
    assert inj.cpu_sample(
        Kernel.GEMM, DIMS, Precision.SINGLE, 8
    ) == clean.cpu_sample(Kernel.GEMM, DIMS, Precision.SINGLE, 8)
    assert inj.gpu_sample(
        Kernel.GEMM, DIMS, Precision.SINGLE, 8, TransferType.ONCE
    ) == clean.gpu_sample(
        Kernel.GEMM, DIMS, Precision.SINGLE, 8, TransferType.ONCE
    )
    assert inj.gpu_transfers == clean.gpu_transfers
    assert inj.system_name == clean.system_name


def test_injector_raises_kernel_and_transfer_faults():
    inj = make_injector(
        ChaosPlan(rates={ChaosKind.KERNEL: 0.999, ChaosKind.TRANSFER: 0.999})
    )
    with pytest.raises((TransientKernelError, TransferError)):
        inj.gpu_sample(Kernel.GEMM, DIMS, Precision.SINGLE, 8, TransferType.ONCE)
    with pytest.raises(TransientKernelError):
        inj.cpu_sample(Kernel.GEMM, DIMS, Precision.SINGLE, 8)
    assert sum(inj.stats.values()) == 2


def test_injector_hang_inflates_seconds():
    clean = AnalyticBackend(MODEL).cpu_sample(
        Kernel.GEMM, DIMS, Precision.SINGLE, 8
    )
    inj = make_injector(ChaosPlan(rates={ChaosKind.HANG: 0.999}, hang_s=7.5))
    hung = inj.cpu_sample(Kernel.GEMM, DIMS, Precision.SINGLE, 8)
    assert hung.seconds == pytest.approx(clean.seconds + 7.5)
    # gflops is recomputed from the inflated time
    assert hung.gflops < clean.gflops


def test_injector_ecc_slowdown():
    clean = AnalyticBackend(MODEL).gpu_sample(
        Kernel.GEMM, DIMS, Precision.DOUBLE, 8, TransferType.ONCE
    )
    inj = make_injector(
        ChaosPlan(rates={ChaosKind.ECC: 0.999}, ecc_slowdown=2.0)
    )
    slow = inj.gpu_sample(
        Kernel.GEMM, DIMS, Precision.DOUBLE, 8, TransferType.ONCE
    )
    assert slow.seconds == pytest.approx(clean.seconds * 2.0)


def test_injector_device_loss_is_sticky():
    inj = make_injector(ChaosPlan(rates={ChaosKind.DEVICE_LOST: 0.999}))
    with pytest.raises(DeviceLostError):
        inj.gpu_sample(Kernel.GEMM, DIMS, Precision.SINGLE, 1, TransferType.ONCE)
    assert inj.device_lost
    assert inj.gpu_transfers == ()
    # every later GPU sample fails, even for cells the plan would spare
    with pytest.raises(DeviceLostError):
        inj.gpu_sample(
            Kernel.GEMV, Dims(8, 8), Precision.DOUBLE, 1, TransferType.ALWAYS
        )
    # the CPU is unaffected
    inj.cpu_sample(Kernel.GEMM, DIMS, Precision.SINGLE, 1)
    inj.reset()
    assert not inj.device_lost and not inj.stats


def test_injector_retry_attempts_redraw():
    """A cell that faults on attempt 0 can succeed on a later attempt."""
    plan = ChaosPlan.uniform(0.5, seed=11)
    inj = make_injector(plan)
    outcomes = []
    for _ in range(8):
        try:
            inj.cpu_sample(Kernel.GEMM, DIMS, Precision.SINGLE, 8)
            outcomes.append("ok")
        except TransientKernelError:
            outcomes.append("fault")
    assert "ok" in outcomes and "fault" in outcomes
