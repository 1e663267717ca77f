import hashlib

import numpy as np
import pytest

from ehglue.config import RunConfig
from ehglue.lattice import BackgroundField, omega_partial
from ehglue.suites import shared_background
from ehglue.sym2 import POINT_BLOCK


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    """The session's far-table cache: the fixtures below and the suites run
    by the acceptance criteria share it, and no test writes the user's."""
    return str(tmp_path_factory.mktemp("eh-glue-cache"))


@pytest.fixture(scope="session")
def background8(cache_dir):
    return shared_background(RunConfig(cutoff=8, cache_dir=cache_dir))


@pytest.fixture(scope="session")
def background32(cache_dir):
    return shared_background(RunConfig(cutoff=32, cache_dir=cache_dir))


@pytest.fixture
def background_calls(monkeypatch):
    """Records every BackgroundField.jets call as (sha256 of the points,
    order, exclude_origin)."""
    calls = []
    jets = BackgroundField.jets

    def recording(self, x, order=2, exclude_origin=False):
        digest = hashlib.sha256(
            np.ascontiguousarray(x, dtype=float).tobytes()).hexdigest()
        calls.append((digest, order, exclude_origin))
        return jets(self, x, order, exclude_origin)

    monkeypatch.setattr(BackgroundField, "jets", recording)
    return calls


@pytest.fixture(scope="session")
def omega32():
    return omega_partial(32)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def sample_offorigin(rng, n, r_lo, r_hi):
    d = rng.normal(size=(n, 4))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    r = np.exp(rng.uniform(np.log(r_lo), np.log(r_hi), size=(n, 1)))
    return d * r


@pytest.fixture
def points(rng):
    return sample_offorigin(rng, 40, 0.3, 5.0)


# point_blocks seams: three full blocks and a partial one, on a 2-D batch
# (35 × 23); the flat slices straddle a block edge, span two edges with
# blocks of their own that start mid-block, and take the partial block
SEAM_POINTS = 3 * POINT_BLOCK + 37
SEAM_SLICES = (slice(POINT_BLOCK - 3, POINT_BLOCK + 4),
               slice(POINT_BLOCK // 2, POINT_BLOCK // 2 + 2 * POINT_BLOCK + 1),
               slice(3 * POINT_BLOCK - 5, SEAM_POINTS))


def seam_points(seed):
    pts = sample_offorigin(np.random.default_rng(seed), SEAM_POINTS, 0.3, 5.0)
    return pts.reshape(35, 23, 4)


def assert_seams_keep_bits(whole, run):
    """Each array of ``whole``, the results on the 2-D seam batch, against
    ``run(sl)``, the same results on the flat seam slice sl, bit for bit."""
    for sl in SEAM_SLICES:
        got = run(sl)
        assert len(got) == len(whole)
        for part, want in zip(got, whole):
            want = want.reshape(SEAM_POINTS, *want.shape[2:])
            assert part.tobytes() == want[sl].tobytes(), sl
