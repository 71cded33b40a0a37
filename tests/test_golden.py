"""Byte-for-byte goldens of the exact verbs' artifacts.

Each digest is the SHA-256 of a file that an exact verb writes from the
sojourn class table, so a change to any value, row order or the 17-digit
formatting shows here.
"""

import hashlib

import numpy as np
import pytest

from covmoments.cli import main

# 2=1,4=1/2,...,14=1/7
CONSTANTS = ",".join(f"{2 * j}=1/{j}" for j in range(1, 8))
SPARSE = ["moments", "--sparse", "--lam", "3", "--y", "1/2", "--k", "1..7"]
SPARSE_JSON = "3b5a25bcf00b7959c6c80410d40d2759f9225bf6d884b4da0c86ba87b1ce57b6"

GOLDEN = {
    "sparse": (SPARSE, {
        "moments.csv": "89410bc77a18d243913c052db0d30471ec1d5e8e4d993a3dc2ab086bebfabd70",
        "moments.json": SPARSE_JSON,
    }),
    "sparse-sandwich": ([*SPARSE, "--sandwich"], {
        "moments.csv": "0eef618a9256328d9ac8cc9da7bf83e7a932281e25a49dc9983d36379539aa2a",
        "moments.json": SPARSE_JSON,
    }),
    "constant": (["moments", "--constant", CONSTANTS, "--y", "2", "--k", "1..7"], {
        "moments.csv": "e86f43b192df88ca49dfa1633aaec923de3b5109e952b1ac21a0401745d9cc34",
        "moments.json": "497d458b71ef6f36febed23b585b0be58625298edf6ce6c29ce2c78ca2049b7b",
    }),
    "hypergraph-k9": (["hypergraph", "--k", "9"], {
        "counts.csv": "60646cfe44346d061ef4880544d72de46d8e2fbd5fa96c8c1cc4f864832a230e",
    }),
    "count-k12": (["count", "--k", "12"], {
        "counts.csv": "64150853a808f5580f65b0dd0463021f81f8c8482be9181e71005cfba1534698",
    }),
    "count-k9-pair-only": (["count", "--k", "9", "--pair-only"], {
        "counts.csv": "ceb3b4d8b0cf2d85bbad5f8171799d584d8a671cb9520473454f1d6eecaf86cf",
    }),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_exact_artifacts_are_byte_identical(tmp_path, capsys, name):
    argv, digests = GOLDEN[name]
    assert main(["--out", str(tmp_path), *argv]) == 0
    written = {
        file: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest() for file in digests
    }
    assert written == digests


def midpoint_samples(f, grid):
    xs = (np.arange(grid) + 0.5) / grid
    return f(xs[:, None], xs[None, :])


# the quadrature verbs read CSV grids; each is written at 17 significant
# digits, so the file reads back as the exact float array
GRID_INPUTS = {
    "sigma8.csv": (lambda x, u: 0.5 + x * u**2, 8),
    "sigma9.csv": (lambda x, u: 0.5 + x * u**2, 9),
    "g2.csv": (lambda x, u: 0.5 + x * u**2, 8),
    "g4.csv": (lambda x, u: 1 + x + u, 8),
    "g6.csv": (lambda x, u: np.cos(x - u), 8),
}
PROFILE_CONSTANTS = "2=1,4=1/2,6=1/3,8=1/4"

QUADRATURE_GOLDEN = {
    # an even and an odd grid, so a value or key that depends on the grid's
    # parity shows in one of the two
    "profile-grid8": (["moments", "--profile-csv", "{dir}/sigma8.csv", "--constant", PROFILE_CONSTANTS,
                       "--y", "1/2", "--k", "1..4", "--grid", "8"], {
        "moments.csv": "0f53bd52465fee6f3fa30d4be70a4401ddf717c5949c5fe2714ecbc453d92a83",
        "moments.json": "5462127ab63a32ab96dd58bf64cc70acb5d8dbabbbd2d301e787b459d54fadae",
    }),
    "profile-grid9": (["moments", "--profile-csv", "{dir}/sigma9.csv", "--constant", PROFILE_CONSTANTS,
                       "--y", "2", "--k", "1..4", "--grid", "9"], {
        "moments.csv": "aafa00cd4e24209f4b853823bd92b717698299f84b4b8cab061b797bcb2e68fa",
        "moments.json": "421cf1d4b25e3157a4410741f36a168329380ea5fcf57e07a0d5e1d662e0f0dd",
    }),
    "g-breakdown": (["moments", "--g", "2={dir}/g2.csv", "--g", "4={dir}/g4.csv", "--g", "6={dir}/g6.csv",
                     "--y", "3/4", "--k", "1..3", "--grid", "8", "--breakdown"], {
        "moments.csv": "2676d2dc4f6a5261ae6ed24ccb07236182c345036b7cbbd6afadc6a49cb304e7",
        "moments.json": "fbfb76c4b1b47dc16ff20926bc7203f075f44faedb80d794797cc8a68ba2d5a7",
    }),
}


@pytest.mark.parametrize("name", QUADRATURE_GOLDEN)
def test_quadrature_artifacts_are_byte_identical(tmp_path, capsys, name):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    for file, (f, grid) in GRID_INPUTS.items():
        np.savetxt(inputs / file, midpoint_samples(f, grid), fmt="%.17g", delimiter=",")
    argv, digests = QUADRATURE_GOLDEN[name]
    out = tmp_path / "out"
    assert main(["--out", str(out), *(a.format(dir=inputs) for a in argv)]) == 0
    written = {
        file: hashlib.sha256((out / file).read_bytes()).hexdigest() for file in digests
    }
    assert written == digests
