"""Byte-for-byte goldens of the exact verbs' artifacts.

Each digest is the SHA-256 of a file that an exact verb writes from the
sojourn class table, so a change to any value, row order or the 17-digit
formatting shows here.
"""

import hashlib

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
