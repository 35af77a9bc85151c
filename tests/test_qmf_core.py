import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import exact
import zerophase
from prqmf import poly
from prqmf.analysis import verify_pr
from prqmf.bank import design_bank
from prqmf.prototype import BandEdges, DesignSpec, WindowSpec, design_h0
from prqmf.qmf_core import (
    DegeneratePassband,
    SingularSystem,
    basic_mate,
    build_system,
    is_half_band,
    normalize_passband,
    solve,
    unfold,
)


def odd_product_coeffs(h0, h1):
    """Brute-force oracle: odd-power coefficients of H0(z) H1(-z)."""
    p = np.convolve(h0, poly.alternate(h1))
    return p[1::2]


class TestBuildSystem:
    def test_n1(self):
        sys_ = build_system([0.3, 0.5, 0.3])
        assert np.allclose(sys_[0], [[0.5]])
        assert np.array_equal(sys_[1], [1.0])

    def test_n2_toy(self, toy_h0):
        sys_ = build_system(toy_h0)
        assert np.allclose(sys_[0], [[2.0, -1.0], [4.0, -3.0]])
        assert np.array_equal(sys_[1], [0.0, 1.0])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 160), st.data())
    def test_matches_definition(self, n, data):
        half = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n + 1, max_size=n + 1))
        h0 = np.array(half + half[-2::-1])
        before = h0.copy()
        mat = build_system(h0)[0]
        # Row i is odd power 2i+1: weight a[2i+1-j] (-1)^j, column j >= n folded onto 2n-2-j.
        ref = np.zeros((n, n))
        for i in range(n):
            for j in range(2 * n - 1):
                if 2 * i + 1 - j >= 0:
                    ref[i, min(j, 2 * n - 2 - j)] += h0[2 * i + 1 - j] * (-1) ** j
        assert np.array_equal(mat, ref)
        assert np.array_equal(h0, before)
        assert not np.shares_memory(mat, h0)


class TestSolve:
    def test_scalar_inverse(self):
        x = solve((np.array([[0.5]]), np.array([1.0])))
        assert x[0] == pytest.approx(2.0)

    def test_toy_solution(self, toy_h0):
        b = solve(build_system(toy_h0))
        assert np.allclose(b, [-0.5, -1.0], atol=1e-12)

    def test_degenerate_prototype_is_singular(self):
        with pytest.raises(SingularSystem):
            solve(build_system([1.0, 0.0, 1.0]))

    def test_singular_leaves_no_partial_result(self):
        sys_ = (np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 0.0]))
        with pytest.raises(SingularSystem):
            solve(sys_)

    def test_nan_solution_is_singular(self):
        # LU returns NaN taps without a LinAlgError; only the finiteness test catches them
        with pytest.raises(SingularSystem, match="LU solution is not finite"):
            solve((np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(2)))

    def test_overflowing_solution_is_singular(self):
        # LU overflows x[0] to inf without a LinAlgError
        a = np.array([[1e-300, 1e-300], [1e-300, 2e-300]])
        with pytest.raises(SingularSystem, match="LU solution is not finite"):
            solve((a, np.array([1e10, 1e10])))

    def test_two_column_rhs_matches_column_solves(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
        b = rng.standard_normal((5, 2))
        x = solve((a, b))
        assert x.shape == (5, 2)
        # the same LU; the triangular solves may round differently per rhs count
        for j in range(2):
            np.testing.assert_allclose(x[:, j], solve((a, b[:, j])), rtol=1e-12, atol=1e-15)

    def test_exact_zero_pivot_is_singular(self):
        # an exactly singular matrix: LU meets a zero pivot and `solve` raises for
        # every rhs, even a column in its range that least squares would solve exactly
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        for b in (np.array([1.0, 0.0]), np.array([[1.0, 0.0], [0.0, 1e-20]])):
            with pytest.raises(SingularSystem, match="LU met an exact zero pivot"):
                solve((a, b))


class TestNormalizePassband:
    def test_scalar(self):
        assert np.array_equal(normalize_passband([2.0]), [1.0])

    def test_toy_mate_is_degenerate(self, toy_h1):
        # A(pi) = -0.5 + 1 - 0.5 = 0: not a usable high-pass
        with pytest.raises(DegeneratePassband):
            normalize_passband(toy_h1)

    def test_idempotent(self):
        h = normalize_passband([0.1, -0.7, 0.1])
        assert np.allclose(normalize_passband(h), h, atol=1e-12)

    def test_positive_sign_convention(self):
        h = normalize_passband([-0.1, -0.8, -0.1])
        assert zerophase.amplitude(h, math.pi) == pytest.approx(1.0)


specs = st.builds(
    DesignSpec,
    n=st.integers(1, 14),
    edges=st.builds(BandEdges.symmetric, st.floats(0.03 * math.pi, 0.25 * math.pi)),
    window=st.sampled_from(
        [WindowSpec("rectangular"), WindowSpec("hamming"), WindowSpec("kaiser", 5.0)]
    ),
)


class TestSystemProperties:
    @settings(max_examples=40, deadline=None)
    @given(specs)
    def test_pre_normalization_pr_exactness(self, spec):
        # oracle: convolve and inspect; independent of the solver path
        h0 = design_h0(spec)
        h1 = unfold(solve(build_system(h0)))
        odd = odd_product_coeffs(h0, h1)
        assert odd.size == 2 * spec.n - 1
        target = np.zeros(odd.size)
        target[spec.n - 1] = 1.0  # central term of P, forced to 1 by the rhs
        assert np.allclose(odd, target, atol=1e-10)

    @pytest.mark.parametrize("lam", [2.0, -3.0, 0.5])
    def test_uniqueness_up_to_scale(self, lam):
        h0 = design_h0(DesignSpec(n=6))
        sys_ = build_system(h0)
        base = solve(sys_)
        scaled = solve((sys_[0], sys_[1] * lam))
        assert np.allclose(scaled, lam * base, rtol=1e-10)

    @pytest.mark.parametrize("gamma", [0.25, 3.0, 17.5])
    def test_scale_invariance_after_normalization(self, gamma):
        h0 = design_h0(DesignSpec(n=8, window=WindowSpec("hamming")))
        ref = normalize_passband(basic_mate(h0))
        scaled = normalize_passband(basic_mate(gamma * h0))
        assert np.allclose(scaled, ref, rtol=1e-10, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(specs)
    def test_length_law(self, spec):
        h0 = design_h0(spec)
        assert basic_mate(h0).size == 2 * spec.n - 1


class TestDesignPair:
    """The unrefined pair: design_bank with m = 0."""

    def test_n10_rectangular(self):
        bank = design_bank(DesignSpec(n=10, m=0))
        assert bank.delay == 19
        assert bank.max_spurious <= 1e-9
        assert bank.h0.size == 21
        assert bank.h1.size == 19

    def test_n1_injected_closed_form(self):
        from prqmf.analysis import transfer

        h0 = np.array([0.25, 0.5, 0.25])
        h1 = basic_mate(h0)
        assert np.allclose(h1, [1.0], atol=1e-14)
        t = transfer(h0, h1)
        assert np.allclose(t, [0.0, 0.5, 0.0], atol=1e-15)

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            design_bank(DesignSpec(n=0, m=0))


@pytest.mark.parametrize("m", [0, 2])
@pytest.mark.parametrize("window", ["rectangular", "hamming", "gaussian", "kaiser"])
@pytest.mark.parametrize("n", [64, 128])
def test_long_design_certifies(n, window, m):
    """Designs in the n range (32..128) where the mate build and solve dominate."""
    bank = design_bank(DesignSpec(n=n, window=WindowSpec(window), m=m))
    assert bank.max_spurious <= 1e-9
    assert bank.delay == 2 * n - 1 + 2 * m
    assert bank.h0.size == 2 * n + 1
    assert bank.h1.size == 2 * n + 4 * m - 1


# Numerically rank-deficient mate systems (H0(z) and H0(-z) nearly share
# zeros): LU still yields a mate that passes the PR certificate.
RANK_DEFICIENT = [
    (13, "hamming", 0.7265625),
    (8, "hamming", 0.8979661016949153),
    (8, "gaussian", 0.8979661016949153),
    (8, "kaiser", 0.8979661016949153),
]


@pytest.mark.parametrize("n,window,delta", RANK_DEFICIENT)
class TestRankDeficientSystem:
    def spec(self, n, window, delta, m=0):
        return DesignSpec(n=n, edges=BandEdges.symmetric(delta), window=WindowSpec(window), m=m)

    def test_basic_mate_certifies(self, n, window, delta):
        h0 = design_h0(self.spec(n, window, delta))
        assert verify_pr(h0, basic_mate(h0)).max_spurious <= 1e-9

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_design_bank_certifies(self, n, window, delta, m):
        bank = design_bank(self.spec(n, window, delta, m))
        assert bank.max_spurious <= 1e-9
        assert bank.h1.size == 2 * n + 4 * m - 1


def half_band(n, wp, ws, kind, param, m):
    return DesignSpec(n=n, edges=BandEdges(wp, ws), window=WindowSpec(kind, param), m=m)


# Half-band prototypes (centre pi/2) whose mate system LU met an exact zero
# pivot with OpenBLAS's LAPACK: rank-deficient (sigma_min/sigma_max <= 1.1e-17)
# but consistent, and the pure delay is a PR mate. basic_mate returns that delay
# without building the system; the least-squares solution certifies as well.
EXACT_ZERO_PIVOT = [
    half_band(81, 0.6840623201228501, 2.457530333466943, "gaussian", 3.0, 0),
    half_band(71, 0.9083684706164117, 2.233224182973381, "gaussian", 2.5, 1),
    half_band(89, 0.6495016239526158, 2.4920910296371774, "kaiser", 8.0, 1),
    half_band(105, 0.16702323510164718, 2.974569418488146, "rectangular", None, 2),
    half_band(32, 1.065626644824535, 2.075966008765258, "rectangular", None, 0),
    half_band(47, 1.3707134414378153, 1.7708792121519779, "rectangular", None, 2),
    half_band(59, 0.29656357113253384, 2.845029082457259, "rectangular", None, 1),
    half_band(125, 1.3420503833297301, 1.799542270260063, "rectangular", None, 1),
    half_band(66, 0.26677403947209855, 2.874818614117695, "hamming", None, 1),
    half_band(103, 0.3821979026492077, 2.7593947509405856, "rectangular", None, 2),
    half_band(71, 0.6399124037288154, 2.5016802498609776, "rectangular", None, 1),
    half_band(99, 0.8099385640354019, 2.3316540895543914, "gaussian", 2.0, 1),
    half_band(32, 1.0645404799034397, 2.0770521736863534, "hamming", None, 2),
    half_band(58, 0.6348118332484807, 2.506780820341312, "rectangular", None, 2),
    half_band(117, 1.3822888293276074, 1.7593038242621857, "rectangular", None, 2),
    half_band(64, 1.171640626733021, 1.969952026856772, "kaiser", 6.0, 1),
    half_band(53, 0.15772114369748436, 2.9838715098923085, "kaiser", 8.0, 1),
]


@pytest.mark.parametrize("spec", EXACT_ZERO_PIVOT, ids=lambda s: f"n{s.n}-{s.window.kind}-m{s.m}")
class TestExactZeroPivot:
    def test_mate_is_the_delay(self, spec):
        h0 = design_h0(spec)
        assert is_half_band(h0)
        assert np.array_equal(basic_mate(h0), np.eye(2 * spec.n - 1)[spec.n - 1])

    def test_design_bank_certifies(self, spec):
        bank = design_bank(spec)
        assert bank.max_spurious <= 1e-9
        assert bank.delay == 2 * spec.n - 1 + 2 * spec.m
        assert bank.h1.size == 2 * spec.n + 4 * spec.m - 1


@pytest.mark.parametrize(
    "spec",
    [s for s in EXACT_ZERO_PIVOT if s.n == 32 or (s.n, s.window.kind) == (47, "rectangular")],
    ids=lambda s: f"n{s.n}-{s.window.kind}-m{s.m}",
)
def test_exact_mate_next_to_lu_and_lstsq(spec):
    """The exact mate system of these float prototypes has full rank, so an exact zero
    pivot is a floating-point event. Its one exact mate is the pure delay (||h1||_1 = 1 to
    within 1e-6 when recorded), which basic_mate returns; lstsq's minimum-norm mate is
    another PR mate with ||h1||_1 of 1.93-1.98 and ||h1||_2 of 0.83-0.85. `solve` returns
    LU's bits, or raises SingularSystem where LU meets the zero pivot."""
    h0 = design_h0(spec)
    x, rank = exact.solve(*exact.mate_system(exact.rational(h0)))
    assert rank == spec.n
    system = build_system(h0)
    mates = {"exact": np.array(x, dtype=float), "lstsq": np.linalg.lstsq(*system, rcond=None)[0]}
    try:
        mates["lu"] = np.linalg.solve(*system)
    except np.linalg.LinAlgError:  # the exact zero pivot
        with pytest.raises(SingularSystem, match="LU met an exact zero pivot"):
            solve(system)
    else:
        assert np.array_equal(solve(system), mates["lu"])
    h1 = {name: normalize_passband(unfold(b)) for name, b in mates.items()}
    for mate in h1.values():
        assert verify_pr(h0, mate).max_spurious <= 1e-9
    assert np.abs(h1["exact"]).sum() == pytest.approx(1.0, abs=1e-3)
    assert abs(h1["exact"][spec.n - 1]) == pytest.approx(1.0, abs=1e-3)
    assert np.abs(h1["lstsq"]).sum() > 1.5 and np.linalg.norm(h1["lstsq"]) < 0.9


# Off pi/2: (centre/pi, half-width/pi), away from the half-band path.
OFF_HALF_BAND = [(0.55, 0.1), (0.5625, 0.05), (0.6, 0.15), (0.45, 0.2)]


@pytest.mark.parametrize("window", [WindowSpec("hamming"), WindowSpec("kaiser", 8.0)])
@pytest.mark.parametrize("n", [10, 64])
@pytest.mark.parametrize("centre,delta", OFF_HALF_BAND)
def test_mate_off_half_band_is_the_solved_mate(centre, delta, n, window):
    """Off the half-band path basic_mate is the unfolded solve, unnormalized, and the solve
    is `np.linalg.solve`, bit for bit."""
    edges = BandEdges((centre - delta) * math.pi, (centre + delta) * math.pi)
    h0 = design_h0(DesignSpec(n=n, edges=edges, window=window))
    assert not is_half_band(h0)
    system = build_system(h0)
    x = solve(system)
    assert x.tobytes() == np.linalg.solve(*system).tobytes()
    assert basic_mate(h0).tobytes() == unfold(x).tobytes()


HALF_BAND_WINDOWS = [WindowSpec("rectangular"), WindowSpec("hamming")] + [
    WindowSpec(kind, param)
    for kind, params in (("gaussian", (2.0, 2.5, 3.0)), ("kaiser", (4.0, 6.0, 8.0)))
    for param in params
]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 128),
    delta=st.floats(0.01, 1.55),
    window=st.sampled_from(HALF_BAND_WINDOWS),
    m=st.integers(0, 2),
)
def test_half_band_mate_always_solves(n, delta, window, m):
    """Half-band prototypes (centre pi/2), whose mate system LU can meet at an exact
    zero pivot: the mate is the pure delay and the bank certifies."""
    bank = design_bank(DesignSpec(n=n, edges=BandEdges.symmetric(delta), window=window, m=m))
    assert bank.max_spurious <= 1e-9


class TestSolveMate:
    """`solve` where LU meets an exact zero pivot, as on the mate systems above when
    solved directly: SingularSystem, whether or not the system is consistent."""

    def test_inconsistent_system_names_zero_pivot(self):
        # [[1, 2], [2, 4]] x = [1, 0] has no solution
        with pytest.raises(SingularSystem, match="^LU met an exact zero pivot: the system is singular$"):
            solve((np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 0.0])))

    def test_zero_matrix_is_singular(self):
        with pytest.raises(SingularSystem, match="LU met an exact zero pivot"):
            solve(build_system([1.0, 0.0, 1.0]))

    def test_consistent_singular_system_is_singular(self):
        # x1 + 2 x2 = 1 twice: solvable, but LU meets a zero pivot and `solve` takes
        # no least-squares solution
        with pytest.raises(SingularSystem, match="LU met an exact zero pivot"):
            solve((np.array([[1.0, 2.0], [1.0, 2.0]]), np.array([1.0, 1.0])))


@pytest.mark.parametrize(
    "spec",
    [
        DesignSpec(n=90, edges=BandEdges(1.2911757502729673, 2.24311598501555), window=WindowSpec("kaiser", 6.0), m=0),
        DesignSpec(n=119, edges=BandEdges(0.529826140854516, 3.0044655944340013), window=WindowSpec("hamming"), m=2),
    ],
    ids=lambda s: f"n{s.n}-{s.window.kind}-m{s.m}",
)
def test_rank_deficient_long_mate_is_lapack_lu(spec):
    """Non-half-band specs 3812 and 3695 of bench `design_long` seed 1, whose mate systems
    are numerically rank-deficient (sigma_min/sigma_max 5.4e-16 and 8.1e-15): `solve` is
    `np.linalg.solve`, bit for bit, and the banks certify."""
    h0 = design_h0(spec)
    assert not is_half_band(h0)
    system = build_system(h0)
    assert solve(system).tobytes() == np.linalg.solve(*system).tobytes()
    assert design_bank(spec).max_spurious <= 1e-9


def test_large_residual_mate_is_judged_by_its_certificate():
    """At n = 225, LU's mate leaves a residual of 1.0e-5 against max|b| = 1, with a
    normwise backward error of 1.6e-16: `solve` returns it and the design does not
    raise. The certificate, which measures the same spurious transfer, fails the bank."""
    spec = DesignSpec(n=225, edges=BandEdges(0.12028807051126415, 0.45874393543730324), window=WindowSpec("hamming"))
    mat, rhs = build_system(design_h0(spec))
    assert np.abs(mat @ solve((mat, rhs)) - rhs).max() > 1e-9
    bank = design_bank(spec)
    assert bank.max_spurious == verify_pr(bank.h0, bank.h1).max_spurious
    assert bank.max_spurious > 1e-9
