import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "numeric",
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# Source of ``peak_rss()`` and ``rss()``, the high-water and the current RSS
# in bytes of the process's own address space (Linux's VmHWM and VmRSS), for
# code a test runs in a fresh interpreter.  The ru_maxrss of a process
# spawned from the test process starts at the test process's peak, which
# would hide what the code adds.
PEAK_RSS_SOURCE = (
    "def _status(field):\n"
    "    with open('/proc/self/status') as fh:\n"
    "        return 1024 * int(fh.read().split(field + ':')[1].split()[0])\n"
    "def peak_rss():\n"
    "    return _status('VmHWM')\n"
    "def rss():\n"
    "    return _status('VmRSS')\n"
)


def random_hermitian(rng, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def full_matrix(op) -> np.ndarray:
    """The whole matrix of a grid operator: the upper triangle of what it
    holds, mirrored into the lower one.  A Schrodinger operator holds only
    that triangle; an exactly hermitian matrix comes back unchanged.  A
    split operator holds an (N, M, M) stack of its channel blocks'
    triangles, and block c is placed on the rows and columns c::N."""
    held = op.matrix
    if held.ndim == 2:
        return np.triu(held) + np.triu(held, 1).conj().T
    mat = np.zeros((op.dim, op.dim), dtype=held.dtype)
    for c, block in enumerate(held):
        mat[c::op.N, c::op.N] = np.triu(block) + np.triu(block, 1).conj().T
    return mat


def _kron_reference(v, grid) -> np.ndarray:
    """The Schrodinger matrix as the kron product of the symmetrized kinetic
    circulant with the identity, plus the symmetrized potential blocks."""
    blocks = []
    for x in grid.nodes:
        b = np.asarray(v.eval(float(x)))
        blocks.append(0.5 * (b + b.conj().T))
    blocks = np.stack(blocks)
    row = np.fft.ifft(grid.momenta_fft_order**2).real
    k = row[(np.arange(grid.M)[:, None] - np.arange(grid.M)[None, :]) % grid.M]
    real = bool(np.max(np.abs(blocks.imag)) == 0.0)
    mat = np.kron(0.5 * (k + k.T), np.eye(v.N)).astype(float if real else complex)
    for j in range(grid.M):
        sl = slice(j * v.N, (j + 1) * v.N)
        mat[sl, sl] += blocks[j].real if real else blocks[j]
    return mat


@pytest.fixture
def kron_reference():
    return _kron_reference
