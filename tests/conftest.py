import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ssf_lab import quantization as qz
from ssf_lab.quadrature import adaptive_gauss_batch

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


def sized_grid(M: int, h: float, R: float = 6.0) -> qz.Grid1D:
    """The grid of M points at h: the one whose tau_max, just below the top
    energy M points cover, derives that M."""
    grid = qz.Grid1D(R=R, h=h, tau_max=(np.pi * h * M / (4.0 * R)) ** 2 * (1.0 - 1e-9))
    assert grid.M == M
    return grid


def cutoff_integral(chi) -> float:
    """The phase-space integral of a product cutoff, int g dx int k dxi."""
    (xa, xb), (qa, qb) = chi.x_support, chi.xi_support
    ig, ik = adaptive_gauss_batch(lambda owner, x: np.where(owner == 0, chi.g(x), chi.k(x)),
                                  [xa, qa], [xb, qb], atol=1e-13)
    return float(ig * ik)


def random_hermitian(rng, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def full_matrix(op) -> np.ndarray:
    """The whole matrix of a grid operator: the upper triangle of what it
    holds, mirrored into the lower one.  A Schrodinger operator holds only
    that triangle; an exactly hermitian matrix comes back unchanged.  A
    split operator's is the sum over its summands of E B E^T, B the whole
    matrix of a part's block and E its basis in grid order
    (``embedded``): a channel block placed on the rows and columns c::N,
    a parity block spread over the reflected nodes."""
    parts = getattr(op, "parts", None)
    if parts is None:
        held = op.matrix
        return np.triu(held) + np.triu(held, 1).conj().T
    mat = 0.0
    for block, placements in parts:
        b = full_matrix(block)
        for channels, embed in placements:
            e = embedded(op, channels, embed, np.eye(block.dim))
            mat = mat + e @ b @ e.T
    return mat


def embedded(op, channels, embed, vecs: np.ndarray) -> np.ndarray:
    """A block's columns ``vecs`` in the grid order of the split operator
    ``op``: mapped by the summand's ``embed`` (as solved for None) onto the
    rows of its ``channels``, a (dim, k) array that is 0 on the others."""
    u = vecs if embed is None else embed(vecs)
    out = np.zeros((op.grid.M, op.N, u.shape[1]), dtype=u.dtype)
    out[:, list(channels)] = u.reshape(op.grid.M, len(channels), -1)
    return out.reshape(op.dim, -1)


def unblocked_operator(v, grid) -> qz.GridOperator:
    """``v``'s Schrodinger operator as one ``GridOperator`` of the whole
    (dim, dim) matrix, the way ``build_schrodinger`` makes one it does not
    split: the unblocked reference of a split operator."""
    samples = qz.potential_samples(v, grid)
    return qz.GridOperator(grid=grid, N=v.N, label=f"unblocked({v.name})",
                           assemble=lambda: qz._assemble_schrodinger(grid, samples))


def _kron_reference(v, grid) -> np.ndarray:
    """The Schrodinger matrix as the kron product of the symmetrized kinetic
    circulant with the identity, plus the symmetrized potential blocks."""
    b = v.on(grid.nodes)
    blocks = 0.5 * (b + np.conj(np.swapaxes(b, 1, 2)))
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


def plane_waves(v, grid, flat: np.ndarray) -> np.ndarray:
    """The eigenvectors of a constant potential's operator as the columns of
    a (dim, k) array: column j is the plane wave exp(i x p_m / h) / sqrt(M)
    tensored with channel vector k of the potential's constant sample, for
    flat[j] = m N + k.  The channels are ordered as ``build_schrodinger``
    orders their values: as they stand for a diagonal sample, ascending
    otherwise."""
    b = v.on(grid.nodes)[0]
    b0 = 0.5 * (b + b.conj().T)
    if np.any(b0 - np.diag(np.diag(b0))):
        channel_vecs = np.linalg.eigh(b0)[1]
    else:
        channel_vecs = np.eye(v.N)
    m_idx, k_idx = np.divmod(flat, v.N)
    phases = np.exp(1j * np.outer(grid.nodes, grid.momenta[m_idx] / grid.h)) / np.sqrt(grid.M)
    return (phases[:, None, :] * channel_vecs[None, :, k_idx]).reshape(grid.M * v.N, flat.size)


def merged_split_pairs(op, window=(-np.inf, np.inf)):
    """The eigenpairs of a split operator in ``window``: each block solved
    once, its pairs placed in grid order once for each of its summands
    (``embedded``), and all merged by one stable sort on the values, as a
    (dim, k) array of columns."""
    vals, vectors = [], []
    for block, placements in op.parts:
        lam, vecs = block.eigenpairs(window=window)
        for channels, embed in placements:
            vals.append(lam)
            vectors.append(embedded(op, channels, embed, vecs))
    vals = np.concatenate(vals)
    order = np.argsort(vals, kind="stable")
    return vals[order], np.concatenate(vectors, axis=1)[:, order]


def cutoff_matrix(a) -> np.ndarray:
    """The M x M matrix of a cutoff, filled from its rows a block at a time."""
    m = a.grid.M
    mat = np.empty((m, m), a.dtype)
    for lo, block in a.blocks():
        mat[lo:lo + len(block)] = block
    return mat


class MatrixCutoff:
    """A cutoff made from a dense (M, M) array, with the interface of one
    from ``weyl_quantize``: ``grid``, ``label``, ``dtype``, its rows as
    slices of the array in blocks of the library's size (``blocks``), and
    its wrapped-diagonal sums binned from them (``lag_sums``).  It stands
    for cutoffs the library does not make: the identity, zero, a
    multiplication operator, a general symbol or a linear combination."""

    label = "matrix cutoff"

    def __init__(self, grid, matrix):
        self.grid = grid
        self.matrix = np.asarray(matrix)
        assert self.matrix.shape == (grid.M, grid.M)
        self.dtype = self.matrix.dtype

    def blocks(self):
        m = self.grid.M
        step = max(1, qz._WEYL_BLOCK // m)
        return ((lo, self.matrix[lo:lo + step]) for lo in range(0, m, step))

    def lag_sums(self) -> np.ndarray:
        """s[l] = sum_i A[i, (i - l) mod M]."""
        m = self.grid.M
        idx = np.arange(m)
        lag = ((idx[:, None] - idx) % m).ravel()
        return (np.bincount(lag, self.matrix.real.ravel(), m)
                + 1j * np.bincount(lag, self.matrix.imag.ravel(), m))
