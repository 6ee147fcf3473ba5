"""Conformance across runners: the service gives the same answer as a
direct ``MesaController.execute`` whether its one task function runs
in-process (``workers=0``) or on the supervised worker pool."""

import asyncio

import pytest

from repro.accel import mesa_config
from repro.core import MesaController
from repro.service import ControllerPool, MesaService, OffloadRequest
from repro.workloads import (
    GeneratorParams,
    build_kernel,
    generate_kernel,
    kernel_names,
)

ITERATIONS = 64


def direct_results(kernels, passes=2):
    """``(status, accelerated, cache_hit, total_cycles)`` from one direct
    controller with the service's cache settings, every kernel once per
    pass."""
    controller = MesaController(mesa_config("M-128"), None,
                                ControllerPool().options)
    results = []
    for _ in range(passes):
        for kernel in kernels:
            result = controller.execute(kernel.program, kernel.state_factory,
                                        parallelizable=kernel.parallelizable)
            results.append(("completed", result.accelerated,
                            result.config_cache_hit, result.total_cycles))
    return results


def service_results(kernels, workers, passes=2):
    """The service's answers, plus its ``baseline_hits`` count after each
    pass."""
    async def scenario():
        service = MesaService(workers=workers)
        await service.start()
        responses, baseline_hits = [], []
        for _ in range(passes):
            for kernel in kernels:
                responses.append(await service.offload(OffloadRequest(
                    program=kernel.program,
                    state_factory=kernel.state_factory,
                    parallelizable=kernel.parallelizable,
                    label=kernel.name)))
            baseline_hits.append(service.stats().baseline_hits)
        await service.close()
        return responses, baseline_hits

    responses, baseline_hits = asyncio.run(scenario())
    return ([(r.status, r.accelerated, r.cache_hit, r.total_cycles)
             for r in responses], baseline_hits)


@pytest.mark.parametrize("workers", [0, 2])
def test_named_kernels_cold_then_warm_match_direct(workers):
    kernels = [build_kernel(name, iterations=ITERATIONS)
               for name in kernel_names()]
    expected = direct_results(kernels)
    assert sum(hit for _, _, hit, _ in expected) > len(kernels) // 2
    results, baseline_hits = service_results(kernels, workers)
    assert results == expected
    # Pass 1 computes every baseline; pass 2 reuses every one.
    assert baseline_hits == [0, len(kernels)]


@pytest.mark.parametrize("workers", [0, 2])
def test_generated_region_matches_direct(workers):
    kernels = [generate_kernel(GeneratorParams(iterations=ITERATIONS,
                                               seed=5))]
    expected = direct_results(kernels)
    assert [hit for _, _, hit, _ in expected] == [False, True]
    assert service_results(kernels, workers) == (expected, [0, 1])


def test_unpicklable_state_factory_fails_without_restart():
    kernel = build_kernel("nn", iterations=ITERATIONS)

    async def scenario():
        service = MesaService(workers=1)
        await service.start()
        response = await service.offload(OffloadRequest(
            program=kernel.program,
            state_factory=lambda: kernel.state_factory(),
            label="nn"))
        stats = service.stats()
        await service.close()
        return response, stats

    response, stats = asyncio.run(scenario())
    assert response.status == "failed"
    assert "pickle" in response.reason
    assert stats.worker_restarts == 0 and stats.worker_crashes == 0
