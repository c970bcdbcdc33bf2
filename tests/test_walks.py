import math
from fractions import Fraction

import numpy as np
import pytest
from helpers import as_pair, mutant
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ohmwalk import _walk_np, _walk_py, checks, walks
from ohmwalk.circulant import CirculantGraph, complete_graph, complete_minus_opposite, cycle_graph
from ohmwalk.exact import SequenceContext, half_index_pair, sequence_pair
from ohmwalk.resistance import (
    resistance_report,
    total_effective_resistance,
    two_point_resistance,
    two_point_resistance_radical,
)
from ohmwalk.spectral import series_identities, spectral_resistance
from ohmwalk.walks import (
    WalkConfig,
    fpt_closed,
    kernel_backend,
    markov_fpt,
    mfpt_closed,
    mfpt_degree,
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


def _full_gcd_fpt(n, l):
    """(numerator, denominator) of |E| * R(l) through two_point_resistance and
    the constructor, each with its full-size gcd."""
    r = two_point_resistance(n, l)
    x = Fraction(n * (n - 3) // 2 * r.numerator, r.denominator)
    return x.numerator, x.denominator


# (n, distances): both ends of the range, and distances whose s = gcd(l, n),
# and so the reduction bound 8*w_s**2, is large
LARGE_GCD_CASES = [(1001, (1, 500)), (2001, (1, 1000)), (729, (81, 243)), (2025, (405, 675)),
                   (2187, (243, 729)), (10001, (73, 137, 4964))]


class TestClosedForms:
    def test_fpt_values(self):
        assert fpt_closed(5, 2) == 6
        assert fpt_closed(7, 1) == Fraction(76, 13)
        assert fpt_closed(7, 3) == Fraction(96, 13)

    def test_fpt_equals_the_constructor(self):
        # reduced by |E| * resistance_gcd_bound, as the full-size gcds reduce it
        for n in range(5, 402, 2):
            for l in range(1, n):
                assert as_pair(fpt_closed(n, l)) == _full_gcd_fpt(n, l), (n, l)

    @pytest.mark.parametrize("n, ls", LARGE_GCD_CASES)
    def test_fpt_equals_the_constructor_at_large_n(self, n, ls):
        for l in ls:
            assert as_pair(fpt_closed(n, l)) == as_pair(fpt_closed(n, n - l)) == _full_gcd_fpt(n, l), l

    def test_cycle_fpt_is_l_times_n_minus_l(self):
        for l in range(1, 5):
            assert fpt_closed(5, l) == l * (5 - l)

    def test_commute_values(self):
        # the commute time is 2|E|R(l) = 2 * fpt_closed
        assert 2 * fpt_closed(5, 1) == 8
        assert 2 * fpt_closed(7, 1) == Fraction(152, 13)

    def test_commute_is_both_directions(self):
        for n, l in ((7, 2), (9, 4), (11, 5)):
            assert 2 * fpt_closed(n, l) == fpt_closed(n, l) + fpt_closed(n, n - l)
            assert 2 * fpt_closed(n, l) == n * (n - 3) * two_point_resistance(n, l)

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
        with pytest.raises(ValueError):
            mfpt_degree(7, "verbatim")

    def test_mfpt_degree(self):
        for n in (5, 7, 101):
            assert mfpt_degree(n, "corrected") == complete_minus_opposite(n).degree == n - 3
            assert mfpt_degree(n, "paper") == n - 1


def _in_family(g):
    return g.n % 2 == 1 and g.n >= 5 and g == complete_minus_opposite(g.n)


def _fpt_by_fraction_elimination(g, target):
    # first-step analysis by Fraction elimination over the neighbour lists,
    # with no closed form: the reference, on any circulant
    n, deg = g.n, g.degree
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


@st.composite
def connected_circulants(draw, max_n=60):
    """Circulants on 3..max_n vertices, odd and even, half of the even ones
    with the jump n/2 (one neighbour, not two)."""
    n = draw(st.integers(3, max_n))
    jumps = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=4))
    if n % 2 == 0 and draw(st.booleans()):
        jumps.add(n // 2)
    assume(math.gcd(n, *jumps) == 1)
    return CirculantGraph(n, jumps)


FAMILY_GRAPHS = [complete_minus_opposite(n) for n in (*range(5, 26, 2), 41, 59)]


class TestMarkovOracle:
    def test_cycle_hitting_times(self):
        # the 5-cycle is the family at n = 5
        assert markov_fpt(cycle_graph(5), 0) == [0, 4, 6, 6, 4]

    def test_family_values(self):
        h = markov_fpt(complete_minus_opposite(7), 0)
        assert h[1] == Fraction(76, 13)
        assert h[2] == Fraction(80, 13)
        assert h[3] == Fraction(96, 13)

    def test_complete_graph_is_uniform(self):
        # outside the family: markov_fpt refuses K_7, while the exact
        # reference and |E| R(l) from the spectrum both give n - 1
        g = complete_graph(7)
        with pytest.raises(ValueError, match="complete_minus_opposite"):
            markov_fpt(g, 0)
        assert _fpt_by_fraction_elimination(g, 0)[1:] == [6] * 6
        assert list(g.edge_count * spectral_resistance(g)[1:]) == pytest.approx([6] * 6, rel=1e-13)

    @pytest.mark.parametrize("n", range(5, 26, 2))
    def test_exact_match_with_closed_form(self, n):
        h = markov_fpt(complete_minus_opposite(n), 0)
        assert isinstance(h[1], Fraction)
        for l in range(1, n):
            assert h[l] == fpt_closed(n, l)

    @pytest.mark.parametrize("ns", [range(5, 402, 2), [1001], [2001]], ids=["odd-to-401", "1001", "2001"])
    def test_equals_fpt_closed_at_every_l(self, ns):
        # exact at every n, also above the 60 vertices where it used to be a float solve
        for n in ns:
            h = markov_fpt(complete_minus_opposite(n), 0)
            assert all(type(x) is Fraction for x in h)
            assert h[0] == 0 and all(h[l] == fpt_closed(n, l) for l in range(1, n)), n

    @pytest.mark.parametrize("n, ls", [(n, ls) for n, ls in LARGE_GCD_CASES if n != 10001])
    def test_reduced_as_the_constructor_reduces_at_large_n(self, n, ls):
        # each value reduced by the bound of fpt_closed, the target's as 0/1; at odd
        # n <= 401 test_equals_fpt_closed_at_every_l and test_fpt_equals_the_constructor hold it;
        # markov_fpt takes seconds at 10001, which test_fpt_equals_the_constructor_at_large_n covers
        h = markov_fpt(complete_minus_opposite(n), 0)
        assert as_pair(h[0]) == (0, 1)
        for l in ls:
            assert as_pair(h[l]) == as_pair(h[n - l]) == _full_gcd_fpt(n, l), l

    @pytest.mark.parametrize("n", [13, 61, 101, 401, 1001])
    def test_a_faulted_candidate_term_raises(self, n):
        # |E| R(5) off by 1/w_n, a low-order error that floats at a tolerance miss
        faulty = mutant(markov_fpt, "    total = sum(h)", "    h[5] += 1\n    total = sum(h)")
        with pytest.raises(ArithmeticError, match="it is not returned"):
            faulty(complete_minus_opposite(n), 0)

    @pytest.mark.parametrize("n", [13, 61, 101])
    def test_a_faulted_neighbour_offset_raises(self, n):
        # the offset 1 read as (n - 1)/2, which is not a neighbour
        faulty = mutant(markov_fpt, ".difference(g.neighbor_offsets())",
                         ".difference([*g.neighbor_offsets()[1:], j])")
        with pytest.raises(ArithmeticError, match="it is not returned"):
            faulty(complete_minus_opposite(n), 0)

    @pytest.mark.parametrize("n", [13, 61, 101])
    def test_a_constant_shift_of_the_table_raises(self, n, monkeypatch):
        # h + c meets every equation off the target: only the pin h(target) == 0 refuses it
        xs, w = walks.resistance_numerators(n)
        monkeypatch.setattr(walks, "resistance_numerators", lambda n: ([x + 1 for x in xs], w))
        with pytest.raises(ArithmeticError, match="it is not returned"):
            markov_fpt(complete_minus_opposite(n), 0)

    def test_target_shift_by_transitivity(self):
        g = complete_minus_opposite(9)
        h0 = markov_fpt(g, 0)
        h3 = markov_fpt(g, 3)
        assert h3[(3 + 1) % 9] == h0[1]

    def test_commute_resistance_law(self):
        # h_{0l} + h_{l0} == 2|E| R(l) on assorted circulants, by the exact reference
        for g in (CirculantGraph(8, (1, 3)), CirculantGraph(10, (1, 2)), cycle_graph(9)):
            h0 = _fpt_by_fraction_elimination(g, 0)
            r = spectral_resistance(g)
            for l in range(1, g.n):
                hl = _fpt_by_fraction_elimination(g, l)
                round_trip = float(h0[l] + hl[0])
                expected = 2 * g.edge_count * r[l]
                assert round_trip == pytest.approx(expected, abs=1e-8)

    def test_average_matches_mfpt_corrected(self):
        for n in (5, 7, 11):
            h = markov_fpt(complete_minus_opposite(n), 0)
            assert sum(h) / n == mfpt_closed(n)

    def test_certified_above_2048_vertices(self):
        # the certificate is O(n) big-int work at every n, so the row is exact past 2048 vertices
        assert checks.check_markov(2049, 1e-9) == (0.0, True, "exact")

    @settings(max_examples=60, deadline=None)
    @given(g=connected_circulants(max_n=60))
    @example(g=cycle_graph(6))  # the jumps of the family's formula at an even n
    @example(g=cycle_graph(3))
    @example(g=complete_graph(7))
    @example(g=CirculantGraph(9, (1, 2, 4)))  # the family's jumps and one more
    def test_other_graphs_are_refused(self, g):
        if _in_family(g):
            assert markov_fpt(g, 0)[1] == fpt_closed(g.n, 1)
        else:
            with pytest.raises(ValueError, match="complete_minus_opposite"):
                markov_fpt(g, 0)

    def test_bad_target(self):
        with pytest.raises(ValueError):
            markov_fpt(cycle_graph(5), 5)

    @pytest.mark.parametrize("n", [5, 21, 59])
    def test_verify_row_reads_half_the_distances(self, n, monkeypatch):
        # markov_fpt gives h[n - l] the same value as h[l]
        calls = []
        monkeypatch.setattr(checks, "fpt_closed", lambda n, l: calls.append(l) or fpt_closed(n, l))
        row = checks.check_markov(n, 1e-9)
        assert row.passed and row.detail == "exact"
        assert calls == list(range(1, (n - 1) // 2 + 1))

    @pytest.mark.parametrize("g", FAMILY_GRAPHS, ids=lambda g: f"n{g.n}-deg{g.degree}")
    def test_exact_route_equals_fraction_elimination(self, g):
        for target in (0, g.n // 2, g.n - 1):
            h = markov_fpt(g, target)
            assert isinstance(h, list)
            assert all(type(x) is Fraction for x in h)
            assert h == _fpt_by_fraction_elimination(g, target)

    def test_equals_the_unfolded_solve_at_every_target(self):
        # the certificate reads the equations at distances 1..(n-1)/2 from the
        # target and mirrors: against the whole system, by elimination
        for n in range(5, 26, 2):
            g = complete_minus_opposite(n)
            for target in range(n):
                h = markov_fpt(g, target)
                assert all(type(x) is Fraction for x in h)
                assert h == _fpt_by_fraction_elimination(g, target), (n, target)

    @pytest.mark.parametrize("n", range(5, 60, 2))
    def test_family_at_three_targets(self, n):
        # by vertex-transitivity h[v] is the closed form at distance v - target
        closed = [Fraction(0)] + [fpt_closed(n, l) for l in range(1, n)]
        g = complete_minus_opposite(n)
        for target in (0, n // 2, n - 1):
            assert markov_fpt(g, target) == [closed[(v - target) % n] for v in range(n)]


# Above the sizes where Fraction elimination is quick, first-step analysis
# is also checked modulo a prime P, by an elimination that uses neither the
# closed form nor the certificate.  Residues stay below 2^31, so products
# stay below 2^62.
P = 2**31 - 1


def _solve_mod_p(a, b):
    """x with a x == b (mod P), by Gauss-Jordan elimination in int64.  No
    pivot search: a pivot that is 0 mod P raises, it is never skipped."""
    m = np.concatenate([a % P, (b % P)[:, None]], axis=1)
    for k in range(len(m)):
        pivot = int(m[k, k])
        if pivot == 0:
            raise ZeroDivisionError(f"pivot {k} is 0 mod {P}")
        m[k] = m[k] * pow(pivot, -1, P) % P
        factors = m[:, k].copy()
        factors[k] = 0
        m = (m - factors[:, None] * m[k] % P) % P
    return [int(x) for x in m[:, -1]]


def _first_step_mod_p(g):
    """Hitting times to vertex 0, mod P, from the Laplacian system of
    first-step analysis, (deg*I - A) h = deg*1 with the row of vertex 0
    pinned to h = 0: the system whose solution `markov_fpt` certifies."""
    mat = g.laplacian_dense()
    mat[0] = 0
    mat[0, 0] = 1
    rhs = np.full(g.n, g.degree)
    rhs[0] = 0
    return _solve_mod_p(mat, rhs)


def _mod_p(x):
    return x.numerator * pow(x.denominator, -1, P) % P


class TestFirstStepModP:
    @pytest.mark.parametrize("n", [61, 101, 201, 401])
    def test_matches_closed_form_beyond_the_exact_route(self, n):
        h = _first_step_mod_p(complete_minus_opposite(n))
        assert h[0] == 0
        assert h[1:] == [_mod_p(fpt_closed(n, l)) for l in range(1, n)]

    def test_a_shifted_numerator_is_caught(self):
        # R(l) off by 1/w_n^2, a low-order error that floats at tol miss
        n, l = 101, 37
        g = complete_minus_opposite(n)
        _, w = half_index_pair(SequenceContext(n))
        h = _first_step_mod_p(g)
        assert h[l] == _mod_p(fpt_closed(n, l))
        assert h[l] != _mod_p(fpt_closed(n, l) + Fraction(g.edge_count, w * w))

    def test_zero_pivot_raises(self):
        with pytest.raises(ZeroDivisionError):
            _solve_mod_p(np.array([[1, 1], [1, 1]]), np.array([1, 1]))
        with pytest.raises(ZeroDivisionError):
            _solve_mod_p(np.array([[P, 0], [0, 1]]), np.array([1, 1]))


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


class TestNumpyIntegers:
    """A numpy integer is stored as the Python int it equals, so the big-integer
    routes cannot overflow int64 and the estimate holds no numpy scalar."""

    # with a numpy n, n // 3 is a numpy distance too
    ROUTES = {
        "total_effective_resistance": total_effective_resistance,
        "two_point_resistance": lambda n: two_point_resistance(n, n // 3),
        "two_point_resistance_far_l": lambda n: two_point_resistance(n, n - 2),
        "fpt_closed": lambda n: fpt_closed(n, n // 3),
        "mfpt_closed": mfpt_closed,
        "mfpt_closed_paper": lambda n: mfpt_closed(n, "paper"),
        "sequence_pair": lambda n: sequence_pair(SequenceContext(n), 40),
        "two_point_resistance_radical": lambda n: two_point_resistance_radical(n, n // 3),
        "resistance_report": lambda n: resistance_report(n, n // 3),
        "markov_fpt": lambda n: markov_fpt(complete_minus_opposite(n), n // 3),
        "series_identities": lambda n: series_identities(n, 50),
    }

    @pytest.mark.parametrize("name", sorted(ROUTES))
    @pytest.mark.parametrize("n", [101, 2001])
    @pytest.mark.parametrize("kind", [np.int64, np.int32])
    def test_routes_equal_their_int_inputs(self, name, n, kind):
        fn = self.ROUTES[name]
        with np.errstate(all="raise"):  # an int64 overflow would raise, not warn
            assert fn(kind(n)) == fn(n)

    def test_simulate_fpt_equals_its_int_inputs(self):
        cfg = WalkConfig(trials=500, seed=2**63 + 5, max_steps=30)
        plain = simulate_fpt(complete_minus_opposite(9), 0, 4, cfg, trial_offset=2**62)
        cfg = WalkConfig(trials=np.int64(500), seed=np.uint64(2**63 + 5), max_steps=np.int32(30))
        est = simulate_fpt(complete_minus_opposite(np.int64(9)), np.int32(0), np.int64(4), cfg, np.int64(2**62))
        assert est == plain and plain.truncated > 0
        assert [type(x) for x in (cfg.trials, cfg.seed, cfg.max_steps)] == [int] * 3
        assert [type(x) for x in (est.mean, est.stderr, est.trials, est.truncated)] == [float, float, int, int]

    @pytest.mark.parametrize("entry", [
        SequenceContext,
        total_effective_resistance,
        lambda n: two_point_resistance(n, 1),
        lambda n: fpt_closed(n, 1),
        mfpt_closed,
        lambda n: WalkConfig(trials=n),
        lambda n: CirculantGraph(n, (1,)),
    ])
    def test_a_float_is_refused(self, entry):
        with pytest.raises(TypeError):
            entry(7.0)

    @pytest.mark.parametrize("l", [37.0, 37.5])
    @pytest.mark.parametrize("route", [
        two_point_resistance,
        fpt_closed,
        two_point_resistance_radical,
        resistance_report,
        lambda n, l: markov_fpt(complete_minus_opposite(n), l),
    ])
    def test_a_float_distance_is_refused(self, route, l):
        # refused before any work, with operator.index's one message
        with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
            route(101, l)


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

    def test_square_sum_paths_meet_at_the_dot_limit(self):
        top = 100_000_007
        below = (2**63 - 1) // top**2  # the most steps of at most top that one int64 dot sums
        for size in (below, below + 1):
            steps = np.full(size, top, dtype=np.int64)
            expected = size * top * top
            assert _walk_np._square_sum(steps, top) == expected  # one dot below, 16-bit halves above
            assert _walk_np._square_sum(steps) == expected  # 16-bit halves: top taken as 2^31 - 1
            assert (int(steps @ steps) == expected) == (size == below)  # one past, the dot wraps

    # every family degree 2..38: 2, 4, 8, 16 and 32 reduce draws by a mask,
    # the others by a division; max_steps = 2n truncates some trials
    @pytest.mark.parametrize("block", [_walk_np.BLOCK, 1, 7])
    @pytest.mark.parametrize("n", range(5, 43, 2))
    def test_kernel_parity_at_every_family_degree(self, monkeypatch, n, block):
        monkeypatch.setattr(_walk_np, "BLOCK", block)
        args = _kernel_args(n, (n - 1) // 2, 40 if block == 1 else 200, n, 2 * n)
        assert _walk_np.run_trials(*args) == _walk_py.run_trials(*args)

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
