"""Independent numpy-only reference values for checking entbound outputs.

Nothing here imports entbound.  The routes are chosen to differ from the
package where that costs no accuracy: pair marginals are contracted with
one einsum (or taken straight from the state vector for noise families),
cut purities come from Gram matrices instead of SVDs, and the closed forms
are the paper's.  Qubit 1 is the most significant bit of a basis index.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SY, _SY)
# Eigenvalues below this (on unit-trace 4x4 matrices) are solver dust:
# they are zeroed before square roots, as any stable route must do.
_DUST = 64 * np.finfo(float).eps


# ---------------------------------------------------------------- states

def w_amplitudes(n: int) -> np.ndarray:
    a = np.zeros(2**n, dtype=complex)
    a[[1 << q for q in range(n)]] = 1 / math.sqrt(n)
    return a


def dicke_amplitudes(n: int, k: int) -> np.ndarray:
    idx = [i for i in range(2**n) if bin(i).count("1") == k]
    a = np.zeros(2**n, dtype=complex)
    a[idx] = 1 / math.sqrt(len(idx))
    return a


def ghz_amplitudes(n: int) -> np.ndarray:
    a = np.zeros(2**n, dtype=complex)
    a[0] = a[-1] = 1 / math.sqrt(2)
    return a


def _four_qubit(indices) -> np.ndarray:
    a = np.zeros(16, dtype=complex)
    a[list(indices)] = 0.5
    return a


def family_amplitudes(family: str, n: int) -> np.ndarray:
    """Core pure state of a CLI noise family (dicke uses n // 2)."""
    if family == "w-noise":
        return w_amplitudes(n)
    if family == "dicke-noise":
        return dicke_amplitudes(n, n // 2)
    if family == "ghz-noise":
        return ghz_amplitudes(n)
    if family == "ex3":
        return _four_qubit((3, 5, 6, 10))
    if family == "ex4":
        return _four_qubit((0, 3, 12, 15))
    raise KeyError(family)


# ---------------------------------------------------------------- marginals

def pairs(n: int):
    return list(itertools.combinations(range(1, n + 1), 2))


def pure_pair_marginal(amps: np.ndarray, n: int, i: int, j: int) -> np.ndarray:
    rest = [q for q in range(n) if q not in (i - 1, j - 1)]
    m = amps.reshape((2,) * n).transpose([i - 1, j - 1] + rest).reshape(4, -1)
    return m @ m.conj().T


def dense_pair_marginal(rho: np.ndarray, n: int, i: int, j: int) -> np.ndarray:
    rest = [q for q in range(n) if q not in (i - 1, j - 1)]
    order = [i - 1, j - 1] + rest
    t = rho.reshape((2,) * (2 * n)).transpose(order + [n + q for q in order])
    return np.einsum("arbr->ab", t.reshape(4, 2 ** (n - 2), 4, 2 ** (n - 2)))


def noisy_marginal(sigma: np.ndarray, x: float) -> np.ndarray:
    """Pair marginal of (1-x) I/2^N + x |psi><psi| given psi's marginal sigma."""
    return (1 - x) / 4 * np.eye(4) + x * sigma


# ---------------------------------------------------------------- concurrence

def wootters(rho: np.ndarray) -> float:
    """max{0, l1 - l2 - l3 - l4}, l the square roots of spec(S rho~ S), S = sqrt(rho)."""
    rho = (rho + rho.conj().T) / 2
    w, v = np.linalg.eigh(rho)
    w = np.where(w < _DUST, 0.0, w)
    s = (v * np.sqrt(w)) @ v.conj().T
    r = s @ (_YY @ rho.conj() @ _YY) @ s
    mu = np.linalg.eigvalsh((r + r.conj().T) / 2)[::-1]
    lam = np.sqrt(np.where(mu < _DUST, 0.0, mu))
    return float(min(max(lam[0] - lam[1:].sum(), 0.0), 1.0))


def pair_table_dense(rho: np.ndarray, n: int) -> dict:
    return {(i, j): wootters(dense_pair_marginal(rho, n, i, j)) for i, j in pairs(n)}


def coefficient(theorem: str, n: int) -> float:
    return {"t1": 7 / 8, "t2": n / 2.0 ** (n - 2), "t3": (n - 2) / 2.0 ** (n - 3)}[theorem]


def theorems_for(n: int) -> list[str]:
    out = ["t1"] if n == 4 else []
    if n >= 5:
        out.append("t2")
    if n >= 6 and n % 2 == 0:
        out.append("t3")
    return out


def k_threshold(n: int, k: int, d: int = 2) -> float:
    """Paper's k-nonseparability threshold for block size a = 1."""
    m = (n - 1) // 2 if n % 2 else n // 2 - 1
    tail = 2 * sum(math.comb(n, i) / d**i for i in range(1, m + 1))
    if n % 2 == 0:
        tail += math.comb(n, n // 2) / d ** (n // 2)
    rad = 2**n - 2**k + (2**k - 2) / d - tail
    return 2.0 ** (1 - n / 2) * math.sqrt(max(rad, 0.0))


def ghz_noise_concurrence(n: int, p: float) -> float:
    half = 2 ** (n - 1)
    if p < 1 / (half + 1):
        return 0.0
    return math.sqrt((half - 1) / 2 ** (n - 2)) * ((half + 1) * p - 1) / half


class FamilyReference:
    """Reference bounds along one white-noise family, from pure marginals."""

    def __init__(self, family: str, n: int):
        self.family, self.n = family, n
        amps = family_amplitudes(family, n)
        self.sigmas = {p: pure_pair_marginal(amps, n, *p) for p in pairs(n)}

    def table(self, x: float) -> dict:
        return {p: wootters(noisy_marginal(s, x)) for p, s in self.sigmas.items()}

    def bound(self, source: str, x: float) -> float:
        """Certified lower bound on C at parameter x from source."""
        x = min(max(x, 0.0), 1.0)
        if source == "ghz-exact":
            return ghz_noise_concurrence(self.n, x)
        c2 = coefficient(source, self.n) * sum(v * v for v in self.table(x).values())
        return math.sqrt(c2)


def crosses(ref: FamilyReference, source: str, k: int | None) -> bool:
    threshold = 0.0 if k is None else k_threshold(ref.n, k)
    return ref.bound(source, 1.0) > threshold


# ---------------------------------------------------------------- pure states

def haar_amplitudes(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return a / np.linalg.norm(a)


def product_amplitudes(rng: np.random.Generator, n: int) -> np.ndarray:
    a = np.ones(1, dtype=complex)
    for _ in range(n):
        a = np.kron(a, haar_amplitudes(rng, 1))
    return a / np.linalg.norm(a)


def cut_squares(amps: np.ndarray, n: int) -> dict[int, float]:
    """C^2 = 2 (1 - Tr rho_S^2) for every proper nonempty mask S.

    Bit (n - q) of a mask selects qubit q.  Purities come from the Gram
    matrix on the smaller side; complementary masks share the value.
    """
    full = 2**n - 1
    t = amps.reshape((2,) * n)
    out = {}
    for bits in range(1, full):
        if bits > full ^ bits:
            continue
        sub = [q for q in range(n) if bits >> (n - 1 - q) & 1]
        rest = [q for q in range(n) if q not in sub]
        m = t.transpose(sub + rest).reshape(2 ** len(sub), -1)
        g = m @ m.conj().T if len(sub) <= len(rest) else m.conj().T @ m
        out[bits] = out[full ^ bits] = 2 * (1 - float(np.vdot(g, g).real))
    return out


def pure_concurrence_squared(cuts: dict[int, float], n: int) -> float:
    return 2.0 ** (1 - n) * sum(cuts.values())


def ghz_pure_concurrence(n: int) -> float:
    return 2.0 ** (1 - n / 2) * math.sqrt(2 ** (n - 1) - 1)


def w_pure_concurrence(n: int) -> float:
    rad = sum(math.comb(n, s) * 2 * s * (n - s) / n**2 for s in range(1, n))
    return 2.0 ** (1 - n / 2) * math.sqrt(rad)


# ---------------------------------------------------------------- mixed states

def random_mixed(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    d = 2**n
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def clamp_psd(rho: np.ndarray) -> np.ndarray:
    """Repair a near-PSD matrix: negative eigenvalues to zero, unit trace."""
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2)
    out = (v * np.clip(w, 0.0, None)) @ v.conj().T
    return out / np.trace(out).real
