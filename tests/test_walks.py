from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ohmwalk import _walk_np, _walk_py
from ohmwalk.circulant import CirculantGraph, complete_graph, complete_minus_opposite, cycle_graph
from ohmwalk.spectral import spectral_resistance
from ohmwalk.walks import (
    WalkConfig,
    _solve_exact,
    commute_time_closed,
    fpt_closed,
    kernel_backend,
    markov_fpt,
    mfpt_closed,
    simulate_fpt,
)

# Trial 0's first draw under this seed is 2**64 - 1, which the degree-48
# graph at n = 51 rejects (2**64 mod 48 != 0), so it runs the redraw path.
REJECTING_SEED = 2295574122455614247

# (n, l, trials, seed, max_steps, trial_offset) on complete_minus_opposite(n)
# with source 0, and the (total, total_sq, truncated) that _walk_py gave for
# them before the numpy kernel existed: they pin the RNG contract itself,
# not only the agreement of two kernels.
KNOWN_ANSWERS = [
    ((9, 4, 3000, 0, 8100, 0), (27214, 408464, 0)),
    ((7, 3, 16500, 2**64 - 1, 4900, 12345), (121611, 1483047, 0)),
    ((5, 2, 2000, 31337, 2500, 12345), (11821, 110991, 0)),
    ((11, 5, 1000, 42, 10, 0), (7060, 59240, 384)),
    ((51, 25, 400, 2**63, 260100, 16380), (20662, 2044038, 0)),
    ((51, 1, 300, REJECTING_SEED, 260100, 0), (13679, 1152701, 0)),
]


def _kernel_args(n, l, trials, seed, max_steps, offset=0):
    offs = complete_minus_opposite(n).neighbor_offsets()
    return (n, offs, 0, l, trials, seed, max_steps, offset)


# Inputs of the kernel parity property: odd n, source 0, any target.
parity_cases = given(
    data=st.data(),
    n=st.integers(2, 12).map(lambda k: 2 * k + 1),
    seed=st.integers(0, 2**64 - 1),
    offset=st.integers(0, 2**40),
    trials=st.integers(1, 300),
    max_steps=st.integers(1, 2000),
)


@pytest.fixture
def handoffs(monkeypatch):
    """(steps at handoff, steps at the end, truncated) of every trial that
    reaches `_walk_py._finish`, the scalar loop that runs the kernel's tail."""
    seen = []
    finish = _walk_py._finish

    def spy(state, pos, steps, *walk):
        end = finish(state, pos, steps, *walk)
        seen.append((steps, *end))
        return end

    monkeypatch.setattr(_walk_py, "_finish", spy)
    return seen


class TestClosedForms:
    def test_fpt_values(self):
        assert fpt_closed(5, 2) == 6
        assert fpt_closed(7, 1) == Fraction(76, 13)
        assert fpt_closed(7, 3) == Fraction(96, 13)

    def test_cycle_fpt_is_l_times_n_minus_l(self):
        for l in range(1, 5):
            assert fpt_closed(5, l) == l * (5 - l)

    def test_commute_values(self):
        assert commute_time_closed(5, 1) == 8
        assert commute_time_closed(7, 1) == Fraction(152, 13)

    def test_commute_is_both_directions(self):
        for n, l in ((7, 2), (9, 4), (11, 5)):
            assert commute_time_closed(n, l) == fpt_closed(n, l) + fpt_closed(n, n - l)

    def test_mfpt_variants(self):
        assert mfpt_closed(7) == Fraction(72, 13)
        assert mfpt_closed(7, "paper") == Fraction(108, 13)
        assert mfpt_closed(5) == 4

    def test_mfpt_variant_ratio(self):
        for n in (7, 9, 15, 33):
            assert mfpt_closed(n, "paper") == mfpt_closed(n) * Fraction(n - 1, n - 3)

    def test_mfpt_is_average_over_targets(self):
        for n in (5, 7, 9, 11):
            assert mfpt_closed(n) == sum(fpt_closed(n, l) for l in range(1, n)) / n

    def test_mfpt_bad_variant(self):
        with pytest.raises(ValueError):
            mfpt_closed(7, "verbatim")


class TestMarkovOracle:
    def test_cycle_hitting_times(self):
        assert markov_fpt(cycle_graph(5), 0) == [0, 4, 6, 6, 4]

    def test_family_values(self):
        h = markov_fpt(complete_minus_opposite(7), 0)
        assert h[1] == Fraction(76, 13)
        assert h[2] == Fraction(80, 13)
        assert h[3] == Fraction(96, 13)

    def test_complete_graph_is_uniform(self):
        h = markov_fpt(complete_graph(7), 0)
        assert h[1:] == [6] * 6

    @pytest.mark.parametrize("n", range(5, 26, 2))
    def test_exact_match_with_closed_form(self, n):
        h = markov_fpt(complete_minus_opposite(n), 0)
        assert isinstance(h[1], Fraction)
        for l in range(1, n):
            assert h[l] == fpt_closed(n, l)

    def test_float_mode_beyond_exact_limit(self):
        n = 101
        h = markov_fpt(complete_minus_opposite(n), 0)
        assert isinstance(h, np.ndarray)
        for l in range(1, n):
            assert h[l] == pytest.approx(float(fpt_closed(n, l)), rel=1e-8)

    def test_target_shift_by_transitivity(self):
        g = complete_minus_opposite(9)
        h0 = markov_fpt(g, 0)
        h3 = markov_fpt(g, 3)
        assert h3[(3 + 1) % 9] == h0[1]

    def test_commute_resistance_law(self):
        # h_{0l} + h_{l0} == 2|E| R(l) on assorted circulants
        for g in (CirculantGraph(8, (1, 3)), CirculantGraph(10, (1, 2)), cycle_graph(9)):
            h0 = markov_fpt(g, 0)
            for l in range(1, g.n):
                hl = markov_fpt(g, l)
                round_trip = float(h0[l] + hl[0])
                expected = 2 * g.edge_count * spectral_resistance(g, l)
                assert round_trip == pytest.approx(expected, abs=1e-8)

    def test_average_matches_mfpt_corrected(self):
        for n in (5, 7, 11):
            h = markov_fpt(complete_minus_opposite(n), 0)
            assert sum(h) / n == mfpt_closed(n)

    def test_cap_enforced(self, monkeypatch):
        def no_matrix(self):
            raise AssertionError("refusal must come before any matrix is built")

        monkeypatch.setattr(CirculantGraph, "laplacian_dense", no_matrix)
        with pytest.raises(ValueError, match="solve cap 2048"):
            markov_fpt(complete_minus_opposite(2049), 0)

    def test_bad_target(self):
        with pytest.raises(ValueError):
            markov_fpt(cycle_graph(5), 5)


def _old_solve_fpt_exact(g, target, deg):
    # the neighbour-loop Fraction elimination markov_fpt used before it
    # shared the pinned Laplacian with the float route: the reference
    n = g.n
    aug = [[Fraction(0)] * (n + 1) for _ in range(n)]
    for i in range(n):
        if i == target:
            aug[i][i] = Fraction(1)
            continue
        aug[i][i] = Fraction(deg)
        for w in g.neighbors(i):
            aug[i][w] -= 1
        aug[i][n] = Fraction(deg)
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(col + 1, n):
            if aug[r][col] != 0:
                factor = aug[r][col] / aug[col][col]
                for c in range(col, n + 1):
                    aug[r][c] -= factor * aug[col][c]
    sol = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = aug[i][n] - sum(aug[i][j] * sol[j] for j in range(i + 1, n))
        sol[i] = acc / aug[i][i]
    return sol


def _old_solve_fpt_float(g, target):
    # the float route as it was before the shared system: the reference
    n = g.n
    mat = g.laplacian_dense().astype(float)
    rhs = np.full(n, float(g.degree))
    mat[target, :] = 0.0
    mat[target, target] = 1.0
    rhs[target] = 0.0
    return np.linalg.solve(mat, rhs)


EXACT_ROUTE_GRAPHS = [complete_minus_opposite(n) for n in (*range(5, 26, 2), 41, 59)] + [
    complete_graph(7),
    CirculantGraph(8, (1, 3)),
    CirculantGraph(10, (1, 2)),
    CirculantGraph(12, (1, 4, 6)),  # a jump of n/2
]


class TestSharedSystem:
    @pytest.mark.parametrize("g", EXACT_ROUTE_GRAPHS, ids=lambda g: f"n{g.n}-deg{g.degree}")
    def test_exact_route_equals_fraction_elimination(self, g):
        for target in (0, g.n // 2, g.n - 1):
            h = markov_fpt(g, target)
            assert isinstance(h, list)
            assert all(type(x) is Fraction for x in h)
            assert h == _old_solve_fpt_exact(g, target, g.degree)

    @pytest.mark.parametrize("n", [61, 101, 2047])
    def test_float_route_is_bit_identical(self, n):
        g = complete_minus_opposite(n)
        for target in (0, n // 2):
            h = markov_fpt(g, target)
            assert isinstance(h, np.ndarray)
            assert np.array_equal(h, _old_solve_fpt_float(g, target))

    def test_zero_pivot_raises(self):
        # a singular system cannot come back as a wrong answer
        with pytest.raises(ZeroDivisionError):
            _solve_exact([[1, 1], [1, 1]], [1, 1])


class TestWalkConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WalkConfig(trials=0)
        with pytest.raises(ValueError):
            WalkConfig(trials=10, seed=-1)
        with pytest.raises(ValueError):
            WalkConfig(trials=10, seed=2**64)
        with pytest.raises(ValueError):
            WalkConfig(trials=10, max_steps=0)


class TestSimulate:
    def test_deterministic_given_seed(self):
        g = complete_minus_opposite(7)
        cfg = WalkConfig(trials=5000, seed=99)
        first = simulate_fpt(g, 0, 1, cfg)
        second = simulate_fpt(g, 0, 1, cfg)
        assert first == second

    def test_chunked_runs_reproduce_one_shot(self):
        g = complete_minus_opposite(9)
        kern = _walk_py
        offs = g.neighbor_offsets()
        whole = kern.run_trials(9, offs, 0, 2, 3000, 7, 8100)
        parts = [
            kern.run_trials(9, offs, 0, 2, 1000, 7, 8100, start)
            for start in (0, 1000, 2000)
        ]
        combined = tuple(sum(vals) for vals in zip(*parts))
        assert combined == whole

    def test_kernel_parity(self):
        cases = [
            (9, 4, 4000, seed, 8100) for seed in (0, 1, 2**63, 2**64 - 1)
        ] + [
            (11, 5, 500, 3, 10),  # truncating max_steps
            (51, 25, 300, 8, 260100),  # degree 48: a rejection threshold
        ]
        for case in cases:
            args = _kernel_args(*case)
            assert _walk_np.run_trials(*args) == _walk_py.run_trials(*args)

    def test_kernel_parity_with_offset(self):
        offs = cycle_graph(5).neighbor_offsets()
        args = (5, offs, 0, 2, 2000, 31337, 2500, 12345)
        assert _walk_py.run_trials(*args) == _walk_np.run_trials(*args)
        # one call with more trials than pool slots, truncating some trials
        args = _kernel_args(7, 3, _walk_np.BLOCK + 300, 5, 12, 777)
        assert _walk_py.run_trials(*args) == _walk_np.run_trials(*args)

    def test_walks_that_take_no_step(self):
        offs = cycle_graph(5).neighbor_offsets()
        for source, target, max_steps in ((2, 2, 50), (0, 2, 0)):
            args = (5, offs, source, target, 100, 9, max_steps)
            assert _walk_np.run_trials(*args) == _walk_py.run_trials(*args)

    def test_rejecting_seed_rejects_first_draw(self):
        gamma, mask = _walk_py._GAMMA, (1 << 64) - 1
        state = _walk_py._mix((REJECTING_SEED + gamma) & mask)
        assert _walk_py._mix((state + gamma) & mask) == mask
        assert (1 << 64) % complete_minus_opposite(51).degree != 0

    @pytest.mark.parametrize("case, sums", KNOWN_ANSWERS)
    def test_known_answers(self, case, sums):
        args = _kernel_args(*case)
        assert _walk_py.run_trials(*args) == sums
        assert _walk_np.run_trials(*args) == sums

    @parity_cases
    @settings(max_examples=40, deadline=None)
    def test_kernel_parity_property(self, data, n, seed, offset, trials, max_steps):
        l = data.draw(st.integers(1, n - 1))
        args = _kernel_args(n, l, trials, seed, max_steps, offset)
        assert _walk_np.run_trials(*args) == _walk_py.run_trials(*args)

    # pools this small refill their slots over many generations, truncate
    # freshly refilled trials and start mid-call at any trial offset
    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    @parity_cases
    @settings(max_examples=10, deadline=None)
    def test_kernel_parity_property_small_pools(self, block, data, n, seed, offset, trials, max_steps):
        l = data.draw(st.integers(1, n - 1))
        args = _kernel_args(n, l, trials, seed, max_steps, offset)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_walk_np, "BLOCK", block)
            assert _walk_np.run_trials(*args) == _walk_py.run_trials(*args)

    def test_few_trials_are_handed_off_at_step_zero(self, handoffs):
        args = _kernel_args(9, 4, _walk_np.TAIL, 3, 8100)
        expected = _walk_py.run_trials(*args)
        handoffs.clear()
        assert _walk_np.run_trials(*args) == expected
        assert [handed for handed, _, _ in handoffs] == [0] * _walk_np.TAIL

    def test_tail_is_handed_off_mid_walk(self, handoffs):
        args = _kernel_args(51, 25, 2000, 8, 260100)
        expected = _walk_py.run_trials(*args)
        handoffs.clear()
        assert _walk_np.run_trials(*args) == expected
        assert 0 < len(handoffs) <= _walk_np.TAIL
        assert all(0 < handed < end for handed, end, _ in handoffs)

    def test_truncation_inside_the_tail(self, handoffs):
        args = _kernel_args(51, 25, 2000, 8, 300)
        expected = _walk_py.run_trials(*args)
        handoffs.clear()
        assert _walk_np.run_trials(*args) == expected
        assert expected[2] > 0
        assert any(handed < 300 and cut for handed, _, cut in handoffs)

    # KNOWN_ANSWERS[3] is left out: its live trials all end at max_steps = 10
    # in one iteration, so none is handed off
    @pytest.mark.parametrize("case, sums", KNOWN_ANSWERS[:3] + KNOWN_ANSWERS[4:])
    def test_fault_in_the_tail_is_seen(self, monkeypatch, handoffs, case, sums):
        # the tail runs in _walk_py, so a fault planted there, and not in
        # the numpy mix, must still change the numpy kernel's sums
        mix = _walk_py._mix
        monkeypatch.setattr(_walk_py, "_mix", lambda z: mix(z) | 1)
        assert _walk_np.run_trials(*_kernel_args(*case)) != sums
        assert handoffs

    @pytest.mark.parametrize("trials, sums", [(4, (42565, 582646765, 0)), (64, (638986, 9485495076, 0))])
    def test_few_long_walks(self, trials, sums):
        # cycle_graph(201) to the antipode takes 100 * 101 steps on average
        args = (201, cycle_graph(201).neighbor_offsets(), 0, 100, trials, 0, 100 * 201**2)
        assert _walk_np.run_trials(*args) == _walk_py.run_trials(*args) == sums

    def test_square_sum_is_exact_near_the_step_limit(self):
        steps = np.arange(2**31 - _walk_np.BLOCK, 2**31, dtype=np.int64)
        expected = sum(s * s for s in steps.tolist())
        assert int(steps @ steps) != expected  # an int64 dot wraps
        assert _walk_np._square_sum(steps) == expected
        assert _walk_np._square_sum(steps[:0]) == 0

    def test_estimates_within_stderr_band(self):
        cases = [(5, 2, 6.0), (7, 1, 76 / 13)]
        for n, l, exact in cases:
            est = simulate_fpt(
                complete_minus_opposite(n), 0, l, WalkConfig(trials=100000, seed=42)
            )
            assert est.valid
            assert abs(est.mean - exact) <= 3 * est.stderr

    def test_truncation_flagging(self):
        g = complete_minus_opposite(7)
        est = simulate_fpt(g, 0, 3, WalkConfig(trials=200, seed=5, max_steps=1))
        assert est.truncated > 0
        assert not est.valid

    def test_source_equals_target_rejected(self):
        with pytest.raises(ValueError):
            simulate_fpt(cycle_graph(5), 2, 2, WalkConfig(trials=10, seed=0))

    def test_different_seeds_differ(self):
        g = complete_minus_opposite(7)
        a = simulate_fpt(g, 0, 1, WalkConfig(trials=2000, seed=1))
        b = simulate_fpt(g, 0, 1, WalkConfig(trials=2000, seed=2))
        assert a.mean != b.mean

    @given(split=st.integers(1, 4999))
    @settings(max_examples=10, deadline=None)
    def test_any_split_point_reproduces(self, split):
        offs = complete_minus_opposite(7).neighbor_offsets()
        whole = _walk_py.run_trials(7, offs, 0, 1, 5000, 3, 4900)
        a = _walk_py.run_trials(7, offs, 0, 1, split, 3, 4900)
        b = _walk_py.run_trials(7, offs, 0, 1, 5000 - split, 3, 4900, split)
        assert tuple(x + y for x, y in zip(a, b)) == whole


def test_backend_reported():
    assert kernel_backend() == "numpy"
