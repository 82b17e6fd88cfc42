"""Bit-exact pins of the analytic model's closed forms.

``tests/data/model-pins.json`` records what the model returns on a grid
of cells placed on both sides of every branch of the closed forms: the
oneMKL square-GEMM cliff (628/629 and 1399/1400), the NVPL GEMV window
(194/195 and 2047/2048), the rocBLAS ``k >= 2560`` step, the
implicit-scaling ``max_dim < 512`` cut, each system's CPU LLC-fit edge
and a ``k / min(m, n)`` aspect of exactly 1.  Every system is pinned,
plus DAWN with the ``onemkl-gpu-implicit`` library, over both
precisions, iterations {1, 8, 128} and beta {0, 1}.  Times are stored
as ``float.hex`` strings, flop and byte counts as exact integers.

The pins were written by the scalar closed forms that once stood beside
an operation-for-operation array twin of each.  Those scalar bodies are
gone: the array form is the only implementation, the scalar API prices
a length-1 array, and these pins stand in for the deleted reference.
Every pin must come back bit for bit, from one array call per column
and from the scalar API alike.

Regenerate only in a change that means to move the model, and say so
in its CHANGES.md entry::

    PYTHONPATH=src python tests/test_model_pins.py
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from repro.core.flops import (
    d2h_bytes,
    d2h_bytes_batch,
    flops_for,
    flops_for_batch,
    h2d_bytes,
    h2d_bytes_batch,
    kernel_bytes,
    kernel_bytes_batch,
)
from repro.systems.catalog import make_model, system_names
from repro.types import ALL_PRECISIONS, Dims, Precision, TransferType

PINS = Path(__file__).parent / "data" / "model-pins.json"

#: (system, GPU library override) of every pinned model.
MODELS = tuple((name, None) for name in system_names()) + (
    ("dawn", "onemkl-gpu-implicit"),
)
ITERATIONS = (1, 8, 128)
BETAS = (0.0, 1.0)

#: Dims on both sides of every quirk and shape branch, for every model.
COMMON_DIMS = (
    Dims(1, 1, 1), Dims(7, 9, 11), Dims(1, 1), Dims(33, 47),
    # oneMKL square-GEMM cliff: starts at min_dim 629, recovers by 1400
    Dims(628, 628, 628), Dims(629, 629, 629),
    Dims(1399, 1399, 1399), Dims(1400, 1400, 1400),
    Dims(1024, 1024, 628), Dims(1024, 1024, 629),
    # rocBLAS SGEMM steps up at k >= 2560
    Dims(256, 256, 2559), Dims(256, 256, 2560),
    # CPU shape efficiency narrows only when k / min(m, n) > 1
    Dims(64, 128, 64), Dims(64, 128, 65), Dims(128, 64, 63),
    # implicit scaling: a flat 1.05 below max_dim 512, CRC jitter above
    Dims(511, 511, 511), Dims(512, 512, 512), Dims(511, 511), Dims(512, 64),
    # NVPL GEMV window: min(m, n) in [195, 2048)
    Dims(194, 194), Dims(195, 195), Dims(2047, 2047), Dims(2048, 2048),
    Dims(195, 4096), Dims(4096, 194),
)


def _llc_edge(llc_bytes, make, precision, beta):
    """The last square size whose CPU working set fits the LLC, and the
    first that does not."""
    lo, hi = 1, 1 << 16
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if kernel_bytes(make(mid), precision, beta) <= llc_bytes:
            lo = mid
        else:
            hi = mid
    return make(lo), make(hi)


def model_dims(model):
    """Every pinned dims of one model: the common set plus its LLC edges."""
    llc = model.spec.cpu.llc_bytes
    edges = []
    for precision in ALL_PRECISIONS:
        for beta in BETAS:
            edges += _llc_edge(llc, lambda s: Dims(s, s, s), precision, beta)
        # the CPU GEMV model ignores beta
        edges += _llc_edge(llc, lambda s: Dims(s, s), precision, 0.0)
    return tuple(dict.fromkeys(COMMON_DIMS + tuple(edges)))


def _build(system, gpu_library):
    return make_model(system, gpu_library=gpu_library)


def _grid(model):
    """(dims, precision, beta) of every pinned cell of one model."""
    for dims in model_dims(model):
        for precision in ALL_PRECISIONS:
            for beta in BETAS:
                yield dims, precision, beta


def _hex(x) -> str:
    return float(x).hex()


def _key(dims, precision, beta, iterations=None):
    cell = [dims.m, dims.n, dims.k, precision.value, beta]
    return cell if iterations is None else cell + [iterations]


def generate() -> dict:
    """Price the grid through the scalar API."""
    counts = {}
    models = []
    for system, gpu_library in MODELS:
        model = _build(system, gpu_library)
        rows = []
        for dims, precision, beta in _grid(model):
            counts[(dims, precision, beta)] = _key(dims, precision, beta) + [
                flops_for(dims, beta),
                h2d_bytes(dims, precision),
                d2h_bytes(dims, precision),
                kernel_bytes(dims, precision, beta),
            ]
            kernel = _hex(model.gpu.kernel_time(dims, precision, beta=beta))
            for iterations in ITERATIONS:
                rows.append(_key(dims, precision, beta, iterations) + [
                    _hex(model.cpu_time(dims, precision, iterations, beta=beta)),
                    *(
                        _hex(model.gpu_time(
                            dims, precision, iterations, transfer, beta=beta))
                        for transfer in TransferType
                    ),
                    kernel,
                ])
        models.append({"system": system, "gpu_library": gpu_library, "cells": rows})
    return {
        "counts_columns": ["m", "n", "k", "precision", "beta",
                           "flops", "h2d_bytes", "d2h_bytes", "kernel_bytes"],
        "cells_columns": ["m", "n", "k", "precision", "beta", "iterations",
                          "cpu_time", *(f"gpu_time:{t.value}" for t in TransferType),
                          "kernel_time"],
        "counts": list(counts.values()),
        "models": models,
    }


def _write(pins: dict, path: Path) -> None:
    """One row per line, so a re-pin reads as a diff of cells."""

    def rows(items, indent):
        pad = " " * indent
        return ",\n".join(pad + json.dumps(item) for item in items)

    models = ",\n".join(
        "    {\n"
        f'      "system": {json.dumps(m["system"])},\n'
        f'      "gpu_library": {json.dumps(m["gpu_library"])},\n'
        '      "cells": [\n' + rows(m["cells"], 8) + "\n      ]\n    }"
        for m in pins["models"]
    )
    path.write_text(
        "{\n"
        f'  "counts_columns": {json.dumps(pins["counts_columns"])},\n'
        f'  "cells_columns": {json.dumps(pins["cells_columns"])},\n'
        '  "counts": [\n' + rows(pins["counts"], 4) + "\n  ],\n"
        '  "models": [\n' + models + "\n  ]\n}\n"
    )


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


def _parse(row):
    m, n, k, precision, beta = row[:5]
    return Dims(m, n, k), Precision(precision), beta


def _columns(rows, width):
    """Group rows by (kernel, precision, beta[, iterations]): one
    same-kernel array column each, as the sweeps price them."""
    groups = defaultdict(list)
    for row in rows:
        dims, precision, beta = _parse(row)
        groups[(dims.kernel, precision, beta) + tuple(row[5:width])].append(row)
    for (kernel, precision, beta, *rest), group in groups.items():
        dims_list = [_parse(row)[0] for row in group]
        m, n, k = (np.array([getattr(d, a) for d in dims_list], dtype=np.int64)
                   for a in "mnk")
        yield kernel, precision, beta, rest, dims_list, (m, n, k), group


def _model_of(entry):
    return _build(entry["system"], entry["gpu_library"])


def test_pins_cover_the_grid(pins):
    """The pinned cells are exactly the grid above, so a pin file that
    lost a branch's cells cannot pass."""
    assert len(pins["models"]) == len(MODELS)
    counts = {}
    for entry, (system, gpu_library) in zip(pins["models"], MODELS):
        assert (entry["system"], entry["gpu_library"]) == (system, gpu_library)
        keys = []
        for dims, precision, beta in _grid(_build(system, gpu_library)):
            counts.setdefault((dims, precision, beta), _key(dims, precision, beta))
            keys += [_key(dims, precision, beta, it) for it in ITERATIONS]
        assert [row[:6] for row in entry["cells"]] == keys
    assert [row[:5] for row in pins["counts"]] == list(counts.values())


def test_flop_and_byte_pins_through_the_scalar_api(pins):
    for row in pins["counts"]:
        dims, precision, beta = _parse(row)
        got = [
            flops_for(dims, beta),
            h2d_bytes(dims, precision),
            d2h_bytes(dims, precision),
            kernel_bytes(dims, precision, beta),
        ]
        assert all(type(x) is int for x in got), row[:5]
        assert got == row[5:], row[:5]


def test_flop_and_byte_pins_as_array_columns(pins):
    for kernel, precision, beta, _, _, (m, n, k), rows in _columns(pins["counts"], 5):
        got = np.stack([
            flops_for_batch(kernel, m, n, k, beta),
            h2d_bytes_batch(kernel, m, n, k, precision),
            d2h_bytes_batch(kernel, m, n, k, precision),
            kernel_bytes_batch(kernel, m, n, k, precision, beta),
        ], axis=1)
        assert got.tolist() == [row[5:] for row in rows]


@pytest.mark.parametrize("index", range(len(MODELS)), ids=[
    system if lib is None else f"{system}+{lib}" for system, lib in MODELS
])
def test_model_pins_as_array_columns(pins, index):
    entry = pins["models"][index]
    model = _model_of(entry)
    for kernel, precision, beta, (iterations,), dims_list, (m, n, k), rows in _columns(
        entry["cells"], 6
    ):
        got = [model.cpu_time_batch(dims_list, precision, iterations, beta=beta)]
        got += [
            model.gpu_time_batch(dims_list, precision, iterations, transfer, beta=beta)
            for transfer in TransferType
        ]
        got.append(model.gpu.kernel_time_batch(kernel, m, n, k, precision, beta=beta))
        for i, row in enumerate(rows):
            assert [_hex(column[i]) for column in got] == row[6:], row[:6]


@pytest.mark.parametrize("index", range(len(MODELS)), ids=[
    system if lib is None else f"{system}+{lib}" for system, lib in MODELS
])
def test_model_pins_through_the_scalar_api(pins, index):
    entry = pins["models"][index]
    model = _model_of(entry)
    for row in entry["cells"]:
        dims, precision, beta = _parse(row)
        iterations = row[5]
        got = [model.cpu_time(dims, precision, iterations, beta=beta)]
        got += [
            model.gpu_time(dims, precision, iterations, transfer, beta=beta)
            for transfer in TransferType
        ]
        got.append(model.gpu.kernel_time(dims, precision, beta=beta))
        assert all(type(x) is float for x in got), row[:6]
        assert [x.hex() for x in got] == row[6:], row[:6]


if __name__ == "__main__":
    _write(generate(), PINS)
    print(f"wrote {PINS}")
