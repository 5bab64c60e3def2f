"""The scheme on a linear model against its Fourier symbol, to rounding.

For f(u) = a u with constant positive semi-definite A every stencil is a
convolution, so a Fourier mode e^{i theta . j} is an eigenvector. With
theta_k = 2 pi m_k / N_k, shifts u[i + 1] = e^{i theta} u[i] give

- hyperbolic_div:  H = sum_k (i a_k sin theta_k + alpha_k (1 - cos theta_k)) / h_k,
- diffusion_div:   D = sum_k 2 A_kk (cos theta_k - 1) / h_k^2
                       - 2 A_01 sin theta_0 sin theta_1 / (h_0 h_1),

and a step of length dt multiplies the mode by G(z), z = dt (D - H), where
G = 1 + z for Euler and 1 + z + z^2 / 2 for SSP-RK2. alpha_k and the bounds
are the solver's own, from ModelTable.bounds (|a_k| and |A_ij| here).

Tolerances come from a rounding bound, not from observed errors. With
u = eps / 2 and gamma(m) = m u / (1 - m u), a computation of depth m whose
absolute-valued counterpart is S errs by at most gamma(m) S. One stage
computes each cell with fewer than M_STAGE = 64 roundings (35 in 2-d: the
entries a u and A u, six per flux axis, four per diagonal B term, four for
the mixed one, the sums into the two parts, the difference, the product
with dt and the sum with u). Its absolute-valued counterpart is at most
(1 + dt W) max|v|, where W = sum_k 2 (|a_k| + alpha_k) / h_k
+ sum_k 4 |A_kk| / h_k^2 + 2 |A_01| / (h_0 h_1) sums the stencils' absolute
weights; a two-stage step is at most (1 + dt W)^2 max|v| with under
2 M_STAGE roundings. Since |G| <= 1 the exact step contracts the l2 norm,
so n local errors add at most n sqrt(N) times one in max norm, and
max|v| <= ||u_0||_2. The reference's two FFTs and n-fold power err by less
than one more such term per step. Hence, for n steps on N cells,

    max |step^n(u_0) - ifft(G^n fft(u_0))| <= 2 n sqrt(N) gamma(2 M_STAGE) (1 + dt W)^2 ||u_0||_2,

and a one-shot operator, with the same argument for one application, is
within 2 gamma(M_STAGE) W ||u_0||_2 of its symbol.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import anisolab.solver as solver_mod
from anisolab.model import model_table, polynomial_model
from anisolab.solver import (
    CellField,
    PeriodicGrid,
    SchemeConfig,
    diffusion_div,
    hyperbolic_div,
    init_field,
    step,
)

UNIT_ROUNDOFF = np.finfo(float).eps / 2
M_STAGE = 64


def gamma(m):
    return m * UNIT_ROUNDOFF / (1.0 - m * UNIT_ROUNDOFF)


class Linear:
    """f = a u and constant A on a grid, with the solver's bounds and the symbols."""

    def __init__(self, a, A, periods, cells):
        d = len(a)
        self.grid = PeriodicGrid.make(list(periods), list(cells))
        self.model = polynomial_model(
            "linear", [(0.0, ak) for ak in a],
            {(i, j): (A[i][j],) for i in range(d) for j in range(i, d)}, d, 1.0)
        self.alphas, self.lams = model_table(self.model).bounds(-1.0, 1.0)
        hs = self.hs = self.grid.spacings
        thetas = np.meshgrid(*(2.0 * np.pi * np.fft.fftfreq(n) for n in cells), indexing="ij")
        self.H = sum((1j * a[k] * np.sin(t) + self.alphas[k] * (1.0 - np.cos(t))) / hs[k]
                     for k, t in enumerate(thetas))
        self.D = sum(2.0 * A[k][k] * (np.cos(t) - 1.0) / hs[k] ** 2 for k, t in enumerate(thetas))
        self.W = sum(2.0 * (abs(a[k]) + self.alphas[k]) / hs[k] + 4.0 * abs(A[k][k]) / hs[k] ** 2
                     for k in range(d))
        if d == 2:
            self.D = self.D - 2.0 * A[0][1] * np.sin(thetas[0]) * np.sin(thetas[1]) / (hs[0] * hs[1])
            self.W += 2.0 * abs(A[0][1]) / (hs[0] * hs[1])

    def cfl_dt(self, cfl):
        return solver_mod._cfl_dt(self.alphas, self.lams, self.hs, cfl)

    def amplification(self, dt, integrator):
        z = dt * (self.D - self.H)
        return 1.0 + z if integrator == "euler" else 1.0 + z + 0.5 * z * z


def apply(symbol, u0):
    """The convolution with Fourier multiplier ``symbol`` applied to u0."""
    return np.fft.ifftn(symbol * np.fft.fftn(u0)).real


@st.composite
def linear_cases(draw):
    """A linear model (a_k and A_01 of either sign, A PSD) on a grid with h_0 != h_1."""
    d = draw(st.sampled_from([1, 2]))
    a = [draw(st.floats(-1.0, 1.0)) for _ in range(d)]
    diag = [draw(st.floats(1e-3, 0.05)) for _ in range(d)]
    A = [[diag[0]]]
    if d == 2:
        off = draw(st.floats(-0.95, 0.95)) * math.sqrt(diag[0] * diag[1])
        A = [[diag[0], off], [off, diag[1]]]
    cells = [draw(st.integers(4, 64 if d == 1 else 16)) for _ in range(d)]
    periods = [draw(st.floats(0.5, 2.0)) for _ in range(d)]
    case = Linear(a, A, periods, cells)
    if d == 2 and case.hs[0] == case.hs[1]:
        case = Linear(a, A, [periods[0], 1.5 * periods[1]], cells)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    u0 = np.random.default_rng(seed).uniform(-0.5, 0.5, tuple(cells))
    return case, u0


# The two cases measured when the oracle was written: 1-d N = 64 over 200
# steps and 2-d 16 x 12 over 100, both at cfl 0.4.
TABLE = [
    (Linear([0.7], [[0.013]], [1.0], [64]), 200),
    (Linear([0.5, -0.3], [[0.02, 0.007], [0.007, 0.015]], [1.0, 1.0], [16, 12]), 100),
]


def _check_steps(case, u0, cfl, n):
    dt = case.cfl_dt(cfl)
    tol = (2 * n * math.sqrt(u0.size) * gamma(2 * M_STAGE) * (1.0 + dt * case.W) ** 2
           * float(np.sqrt(np.vdot(u0, u0))))
    for integrator in solver_mod.INTEGRATORS:
        state, config = CellField(u0, 0.0), SchemeConfig(t_end=1.0, integrator=integrator)
        for _ in range(n):
            state = step(state, case.model, case.grid, config, dt=dt)
        G = case.amplification(dt, integrator)
        Gn = np.ones_like(G)
        for _ in range(n):
            Gn *= G
        err = float(np.abs(state.values - apply(Gn, u0)).max())
        assert err <= tol, (integrator, err, tol)


@pytest.mark.parametrize("case,n", TABLE)
def test_steps_of_the_measured_cases_match_their_symbol(case, n):
    u0 = np.random.default_rng(1).uniform(-0.5, 0.5, tuple(case.grid.cells))
    _check_steps(case, u0, 0.4, n)


@settings(max_examples=40, deadline=None)
@given(linear_cases(), st.floats(0.1, 1.0), st.integers(1, 30))
def test_steps_match_their_symbol(case_u0, cfl, n):
    _check_steps(*case_u0, cfl, n)


@settings(max_examples=60, deadline=None)
@given(linear_cases())
@example((TABLE[1][0], np.random.default_rng(1).uniform(-0.5, 0.5, (16, 12))))
def test_one_shot_operators_match_their_symbols(case_u0):
    case, u0 = case_u0
    tol = 2 * gamma(M_STAGE) * case.W * float(np.sqrt(np.vdot(u0, u0)))
    fld = init_field(case.grid, u0)
    for got, symbol in ((hyperbolic_div(case.model, fld, case.grid), case.H),
                        (diffusion_div(case.model, fld, case.grid), case.D)):
        assert float(np.abs(got - apply(symbol, u0)).max()) <= tol


@settings(max_examples=100, deadline=None)
@given(linear_cases(), st.floats(0.0, 1.0, exclude_min=True))
def test_amplification_is_at_most_one_at_the_cfl_step(case_u0, cfl):
    # In exact arithmetic |G| <= 1 for cfl <= 1: 1 + z is a convex combination of
    # 1 and the per-axis LLF and diffusion factors, each of modulus at most 1,
    # and SSP-RK2's G = (1 + (1 + z)^2) / 2. |z| <= 4 cfl, so evaluating G costs
    # a few roundings on values below 25.
    case, _ = case_u0
    dt = case.cfl_dt(cfl)
    for integrator in solver_mod.INTEGRATORS:
        assert float(np.abs(case.amplification(dt, integrator)).max()) <= 1.0 + gamma(64) * 25.0
