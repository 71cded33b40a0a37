"""Byte-for-byte goldens of the exact verbs' artifacts, the quadrature
verbs' artifacts and the seeded sampling streams.

Each artifact digest is the SHA-256 of a file that a verb writes, so a
change to any value, row order or the 17-digit formatting shows here.
"""

import hashlib

import numpy as np
import pytest

from covmoments.cli import main
from covmoments.ensembles import EnsembleConfig, sample_matrix

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


# SHA-256 of sample_matrix(cfg, r).tobytes() for r = 0, 1 at seed 1729 and
# p x n = 6 x 10: the seeded Philox streams, the order in which draws become
# entries, and the sign of every zero (a Bernoulli zero times a negative
# profile entry is -0.0).  These draws call no transcendental ufunc, so the
# digests do not depend on the vector math library numpy picks for the CPU.
STREAM_P, STREAM_N = 6, 10
# i/p - j/n at the entry indices, negative where i/p < j/n
SIGNED_PROFILE = (
    np.arange(1, STREAM_P + 1)[:, None] / STREAM_P - np.arange(1, STREAM_N + 1)[None, :] / STREAM_N
)

STREAM_GOLDEN = {
    "sparse_bernoulli": (dict(family="sparse_bernoulli", lam=3.0), (
        "b9e83448fe82ce47516b5c336013c0e6b0f1f740f1d2664d5e5164368f902225",
        "8c6c081df2caea572aa08f894d0683f7a9a87e17d222ec981c7d550298a1b741",
    )),
    "iid_standardized": (dict(family="iid_standardized"), (
        "b807f5676096869be87e8e40648afe85cd6f16d1b3ac1506ea5aa97c82cc5e91",
        "5dcde5054da4862efc2c6809123f323fa726c561fedcabcb060d14dc714bd1f6",
    )),
    "iid_truncated": (dict(family="iid_standardized", t_n=0.4), (
        "77592b8573cc290d57f65e3c68e2b027a8a1697fb2c63c2860c31ddc07164f42",
        "0183f1bb1eda59847e1e96451995842f94dc8e70a644766268fc48a6b78462f6",
    )),
    "triangular_iid": (dict(family="triangular_iid", c_seq={2: 8.0, 4: 32.0}), (
        "f8db08c74ba033b59446a4dc54f36dff0fee1f72c289b3dd8087ac5265704479",
        "5d5188a440e36dfe68c30d56fd397b87c9973ff3bef6432e15940e3cd6f8c763",
    )),
    "fig1_quadratic": (dict(family="variance_profile", lam=3.0, profile="fig1_quadratic"), (
        "968626081774b730c7d2000328cfbda7dd90b9f766319c8ddd363010947e4eaf",
        "51f81b0068513738eccf2d24b7e04aa0fa72cc93757d20399593c4aafc2820d3",
    )),
    "profile_signed": (dict(family="variance_profile", lam=3.0, profile=SIGNED_PROFILE), (
        "a7e57d49bca76da262e9673dda6a75c3c404211775b692db01fb6a176de2bcb2",
        "a20f0ecf572602987d92fb9aadaf2c97f2cc0d78ae956caeb5559d7785bc383a",
    )),
    "dt_triangular": (dict(family="dt_triangular"), (
        "de147c0cd5eb97e57e5c7a9910f48f67fe1af388782773dddf616372fa40bf65",
        "7459a41479d4d24892b5efaa7812cb3dd2c4e101b32c5bd14716ed7be327cc20",
    )),
}


@pytest.mark.parametrize("name", STREAM_GOLDEN)
def test_sampling_streams_are_byte_identical(name):
    fields, digests = STREAM_GOLDEN[name]
    cfg = EnsembleConfig(p=STREAM_P, n=STREAM_N, seed=1729, **fields)
    drawn = tuple(hashlib.sha256(sample_matrix(cfg, r).tobytes()).hexdigest() for r in (0, 1))
    assert drawn == digests
