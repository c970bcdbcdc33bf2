import math

import numpy as np
import pytest

from ohmwalk.circulant import (
    CirculantGraph,
    complete_graph,
    complete_minus_opposite,
    cycle_graph,
)
from ohmwalk.exact import SequenceContext, pisa
from ohmwalk.spectral import (
    _folded_rows,
    chebyshev_normalized,
    cos_odd_power_sum,
    cos_odd_power_sum_direct,
    eigenvalues_circulant,
    eigenvalues_minus_opposite,
    folded_alternating,
    reciprocal_sum,
    series_identities,
    sin_power_sum,
    sin_power_sum_direct,
    spectral_resistance,
)


def _per_jump_eigenvalues(g):
    # eigenvalues_circulant as it was before its jumps went in blocks, one
    # pass per jump: the reference
    n = g.n
    angles = np.pi * np.arange(n // 2 + 1)
    half = np.zeros(n // 2 + 1)
    for j in g.jumps:
        half += (2.0 if 2 * j == n else 4.0) * np.sin(angles * j / n) ** 2
    return np.concatenate([half, half[1 : (n + 1) // 2][::-1]]).tolist()


class TestEigenvalues:
    def test_blocks_equal_the_per_jump_passes(self):
        # the family and K_n past one block of 64 jumps, cycles, a half turn,
        # and odd jumps only
        graphs = [
            *(complete_minus_opposite(n) for n in range(5, 402, 2)),
            *(complete_graph(n) for n in range(3, 402)),
            *(cycle_graph(n) for n in range(3, 100)),
            CirculantGraph(12, (1, 4, 6)),
            CirculantGraph(300, tuple(range(1, 151, 2))),
        ]
        for g in graphs:
            blocked = eigenvalues_circulant(g).tolist()
            assert list(map(float.hex, blocked)) == list(map(float.hex, _per_jump_eigenvalues(g))), g.n

    def test_cycle_spectrum(self):
        vals = eigenvalues_circulant(cycle_graph(5))
        expected = [0.0] + [4 * math.sin(k * math.pi / 5) ** 2 for k in (1, 2, 2, 1)]
        assert vals == pytest.approx(expected, abs=1e-12)

    def test_family_mode_one(self):
        vals = eigenvalues_circulant(complete_minus_opposite(7))
        direct = 4 * math.sin(math.pi / 7) ** 2 + 4 * math.sin(2 * math.pi / 7) ** 2
        assert vals[1] == pytest.approx(direct, abs=1e-12)
        assert vals[1] == pytest.approx(7 - 4 * math.sin(3 * math.pi / 7) ** 2, abs=1e-12)

    def test_zero_mode_and_mirror_are_exact(self):
        spec = eigenvalues_circulant(CirculantGraph(12, (1, 3, 4)))
        assert spec[0] == 0.0
        for k in range(1, 12):
            assert spec[k] == spec[12 - k]

    def test_trace_equals_n_times_degree(self):
        for g in (cycle_graph(9), complete_minus_opposite(11), CirculantGraph(8, (1, 2))):
            assert sum(eigenvalues_circulant(g)) == pytest.approx(
                g.n * g.degree, rel=1e-12
            )

    def test_half_turn_jump_weighting(self):
        # a jump of n/2 reaches one vertex; the spectrum must still match
        # the dense Laplacian (complete K_6 has lambda = 6 on all modes)
        for g in (complete_graph(6), CirculantGraph(8, (1, 4)), CirculantGraph(10, (2, 5))):
            formula = np.sort(eigenvalues_circulant(g))
            numeric = np.sort(np.linalg.eigvalsh(g.laplacian_dense().astype(float)))
            assert np.max(np.abs(formula - numeric)) < 1e-9
        k6 = eigenvalues_circulant(complete_graph(6))
        assert k6[1:] == pytest.approx([6.0] * 5, abs=1e-12)

    @pytest.mark.parametrize("n", [5, 7, 9, 25, 101])
    def test_matches_dense_eigensolver(self, n):
        g = complete_minus_opposite(n)
        formula = np.sort(eigenvalues_circulant(g))
        numeric = np.sort(np.linalg.eigvalsh(g.laplacian_dense().astype(float)))
        assert np.max(np.abs(formula - numeric)) < 1e-9

    @pytest.mark.parametrize("n", [5, 7, 9, 11, 25])
    def test_split_form_multiset(self, n):
        split = sorted(eigenvalues_minus_opposite(n))
        direct = sorted(eigenvalues_circulant(complete_minus_opposite(n)))
        assert split == pytest.approx(direct, abs=1e-9)

    def test_split_form_equals_the_per_mode_loop(self):
        # the split closed forms one mode at a time, each written to m and n - m
        for n in range(5, 402, 2):
            loop = [0.0] * n
            for m in range(1, (n - 1) // 2 + 1):
                x = math.sin(math.pi * (m // 2) / n) if m % 2 == 0 else math.cos(math.pi * m / (2 * n))
                loop[m] = loop[n - m] = n - 4.0 * x**2
            assert list(map(float.hex, eigenvalues_minus_opposite(n).tolist())) == list(map(float.hex, loop)), n

    @pytest.mark.parametrize("n", [5, 7, 9, 11])
    def test_half_range_sine_identity(self, n):
        for k in range(1, n):
            total = 4 * sum(
                math.sin(k * m * math.pi / n) ** 2 for m in range(1, (n - 1) // 2 + 1)
            )
            assert abs(total - n) < 1e-10

    def test_complete_graph_matches_the_direct_sine_sum(self):
        # the reference for `verify`'s sin_identity row, which reads lambda_k
        # of K_n: 4 * sum_{m<=(n-1)/2} sin^2(k*m*pi/n), summed term by term
        for n in range(3, 202, 2):
            values = eigenvalues_circulant(complete_graph(n))
            for k in range(1, n):
                direct = 4.0 * sum(math.sin(k * m * math.pi / n) ** 2 for m in range(1, (n - 1) // 2 + 1))
                assert abs(values[k] - direct) <= 1e-13 * n, (n, k)


def _per_mode_reciprocal_sum(values):
    # the reciprocal sum as it was while spectra were tuples of floats: one
    # Python division per mode, added by a generator
    return sum(1.0 / lam for lam in values.tolist()[1:])


class TestReciprocalSum:
    @pytest.mark.parametrize("spectrum", [
        eigenvalues_minus_opposite,
        lambda n: eigenvalues_circulant(complete_minus_opposite(n)),
    ])
    def test_equals_the_per_mode_division_bit_for_bit(self, spectrum):
        for n in range(5, 402, 2):
            values = spectrum(n)
            assert float.hex(reciprocal_sum(values)) == float.hex(_per_mode_reciprocal_sum(values)), n

    @pytest.mark.parametrize("n", [30001, 100001])
    def test_large_n_split_form_bit_for_bit(self, n):
        values = eigenvalues_minus_opposite(n)
        assert float.hex(reciprocal_sum(values)) == float.hex(_per_mode_reciprocal_sum(values))

    def test_spectra_are_float64_arrays_over_every_mode(self):
        for n, values in ((9, eigenvalues_minus_opposite(9)), (12, eigenvalues_circulant(CirculantGraph(12, (1, 6))))):
            assert isinstance(values, np.ndarray) and values.dtype == np.float64 and values.shape == (n,)
        assert type(reciprocal_sum(eigenvalues_minus_opposite(9))) is float


class TestSpectralResistance:
    def test_cycle_values(self):
        r = spectral_resistance(cycle_graph(5))
        assert r[1] == pytest.approx(0.8, abs=1e-12)
        assert r[2] == pytest.approx(1.2, abs=1e-12)

    def test_family_against_pseudoinverse(self):
        g = complete_minus_opposite(7)
        pinv = np.linalg.pinv(g.laplacian_dense().astype(float))
        r = spectral_resistance(g)
        for l in range(1, 7):
            oracle = pinv[0, 0] + pinv[l, l] - 2 * pinv[0, l]
            assert r[l] == pytest.approx(oracle, rel=1e-10)
        assert r[1] == pytest.approx(38 / 91, rel=1e-12)

    def test_symmetry_is_bitwise(self):
        r = spectral_resistance(CirculantGraph(11, (1, 3)))
        for l in range(1, 11):
            assert r[l] == r[11 - l]

    @pytest.mark.parametrize("n", range(5, 26, 2))
    def test_foster_theorem(self, n):
        # sum of resistances over the edges of any connected graph = n - 1
        for g in (cycle_graph(n), CirculantGraph(n, (1, 2)), complete_minus_opposite(n)):
            r = spectral_resistance(g)
            total = sum(r[(w - v) % n] for v in range(n) for w in g.neighbors(v) if v < w)
            assert total == pytest.approx(n - 1, rel=1e-8)


class TestPowerSums:
    def test_sin_examples(self):
        assert sin_power_sum(5, 1) == pytest.approx(2.5, abs=1e-12)
        assert sin_power_sum(5, 5) == pytest.approx(1250 / 1024, abs=1e-12)
        assert sin_power_sum(7, 3) == pytest.approx(7 * 20 / 64, abs=1e-12)

    def test_sin_correction_term_is_active(self):
        # without the fold the k=5, n=5 sum would be 5*C(10,5)/4^5 = 1.23046875
        plain = 5 * math.comb(10, 5) / 4**5
        assert sin_power_sum(5, 5) != pytest.approx(plain, rel=1e-6)
        assert sin_power_sum(5, 5) == pytest.approx(sin_power_sum_direct(5, 5), rel=1e-12)

    def test_cos_examples(self):
        assert cos_odd_power_sum(5, 1) == pytest.approx(1.25, abs=1e-12)
        assert cos_odd_power_sum(7, 2) == pytest.approx(1.3125, abs=1e-12)
        assert cos_odd_power_sum(5, 5) == pytest.approx(
            cos_odd_power_sum_direct(5, 5), rel=1e-12
        )

    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_congruence_boundary(self, n):
        for k in (n, n + 1, 2 * n, 2 * n + 3):
            assert sin_power_sum(n, k) == pytest.approx(
                sin_power_sum_direct(n, k), rel=1e-9
            )
            assert cos_odd_power_sum(n, k) == pytest.approx(
                cos_odd_power_sum_direct(n, k), rel=1e-9
            )

    def test_folded_single_term(self):
        assert folded_alternating(5, 5) == -math.comb(10, 0)
        assert folded_alternating(4, 5) == 0

    def test_exponent_validated(self):
        with pytest.raises(ValueError):
            sin_power_sum(5, 0)
        with pytest.raises(ValueError):
            cos_odd_power_sum(6, 1)

    def test_period_below_one_raises(self):
        # the folded loop never ends for n <= 0; it must refuse them instead
        for n, k in ((0, 1), (-3, 2)):
            with pytest.raises(ValueError):
                sin_power_sum(n, k)
        with pytest.raises(ValueError):
            folded_alternating(3, 0)

    def test_period_one_is_the_empty_sum(self):
        for k in (1, 2, 7):
            assert sin_power_sum(1, k) == 0.0 == sin_power_sum_direct(1, k)


class TestChebyshev:
    def test_small_orders(self):
        assert chebyshev_normalized(1, 3) == 7  # x^2 - 2
        assert chebyshev_normalized(2, 1) == -1  # x^4 - 4x^2 + 2
        assert chebyshev_normalized(0, 17.0) == 2

    def test_value_two_is_fixed(self):
        for l in range(8):
            assert chebyshev_normalized(l, 2) == 2

    def test_trig_oracle_inside_interval(self):
        for l in range(6):
            for x in np.linspace(-2, 2, 21):
                expected = 2 * math.cos(2 * l * math.acos(x / 2))
                assert chebyshev_normalized(l, float(x)) == pytest.approx(
                    expected, abs=1e-10
                )

    def test_hyperbolic_oracle_outside_interval(self):
        for l in range(1, 6):
            for x in (2.5, 3.0, 4.0):
                expected = 2 * math.cosh(2 * l * math.acosh(x / 2))
                assert chebyshev_normalized(l, x) == pytest.approx(expected, rel=1e-10)

    def test_evaluates_conjugate_power_sums(self):
        # C_{2l}(n-2) = P_{2l}, exactly, when evaluated on ints
        for n in (5, 7, 11):
            ctx = SequenceContext(n)
            for l in range(9):
                assert chebyshev_normalized(l, n - 2) == pisa(ctx, 2 * l)


def _reference_series_sums(n, checkpoints):
    """The four truncated series of `series_identities` by a factorial table
    and one binomial per fold, as the walk's direct reference: the sums
    (central, alternating, even, odd) at each truncation in `checkpoints`,
    with the same envelope cut-off."""
    top = max(checkpoints)
    fact = [1] * (2 * top + 1)
    for i in range(1, len(fact)):
        fact[i] = fact[i - 1] * i

    def comb(a, b):
        return fact[a] // (fact[b] * fact[a - b])

    t_central = t_alt = t_even = t_odd = 0.0
    npow = 1
    dead = 0
    sums = {}
    for big_j in range(top + 1):
        central = comb(2 * big_j, big_j)
        s_even = 0
        s_odd = 0
        p = 1
        while big_j - p * n >= 0:
            c = comb(2 * big_j, big_j - p * n)
            if p % 2 == 0:
                s_even += c
            else:
                s_odd += c
            p += 1
        t_central += central / npow
        t_alt += (s_even - s_odd) / npow
        t_even += s_even / npow
        t_odd += s_odd / npow
        sums[big_j] = (t_central, t_alt, t_even, t_odd)
        if big_j > 2 * n and (central * (big_j + 2 * n)) / (npow * n) == 0.0:
            dead += 1
            if dead >= 3:
                break
        npow *= n
    last = sums[max(sums)]  # past the cut-off the sums do not change
    return {t: sums.get(t, last) for t in checkpoints}


class TestSeriesIdentities:
    def test_central_binomial_value(self):
        report = series_identities(5, 500)
        assert report.central_binomial.closed == pytest.approx(math.sqrt(5), abs=1e-12)
        assert report.central_binomial.rel_dev < 1e-8

    def test_all_identities_small_n(self):
        for n in (5, 7):
            report = series_identities(n, 100 * n)
            assert all(i.rel_dev <= 1e-8 for i in report), report

    def test_alternating_closed_form_sign(self):
        report = series_identities(5, 500)
        assert report.alternating_folded.closed < 0
        assert report.alternating_folded.closed == pytest.approx(
            report.even_folded.closed - report.odd_folded.closed, rel=1e-12
        )

    def test_too_small_truncation_is_flagged(self):
        report = series_identities(5, 10)
        assert report.central_binomial.rel_dev > 1e-8
        assert any(i.rel_dev > 1e-8 for i in report)

    def test_report_is_four_named_identities_in_field_order(self):
        report = series_identities(7, 700)
        assert [i.name for i in report] == list(report._fields) == [
            "central_binomial", "alternating_folded", "even_folded", "odd_folded"]
        assert report.even_folded == report[2]
        assert all(i.rel_dev == abs(i.truncated - i.closed) / abs(i.closed) for i in report)

    def test_report_measures_and_does_not_judge(self):
        report = series_identities(5, 10)
        assert not hasattr(report, "all_ok") and not hasattr(report, "tol")
        assert not hasattr(report.central_binomial, "ok")
        with pytest.raises(TypeError):
            series_identities(5, 10, tol=1e-8)

    @pytest.mark.parametrize("n", [5, 7, 9, 11, 13, 10001, 100001])
    def test_walk_matches_factorial_table_reference(self, n):
        checkpoints = (1, n - 1, n, 2 * n, 100 * n)
        if n > 1000:  # only rows J < n, where nothing folds yet
            checkpoints = (1, 2, 200, 1000)
        expected = _reference_series_sums(n, checkpoints)
        for truncation in checkpoints:
            report = series_identities(n, truncation)
            got = tuple(i.truncated for i in report)
            assert got == expected[truncation], (n, truncation)

    @pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
    def test_walk_folded_sums_match_folded_alternating(self, n):
        rows = list(_folded_rows(n, 4 * n + 1))
        assert len(rows) == 4 * n + 1
        for big_j, (central, s_even, s_odd) in enumerate(rows):
            assert central == math.comb(2 * big_j, big_j)
            assert folded_alternating(big_j, n) == s_even - s_odd, (n, big_j)

    def test_domain_validated(self):
        with pytest.raises(ValueError):
            series_identities(6, 100)


class TestAllResistances:
    @pytest.mark.parametrize(
        "g", [complete_minus_opposite(31), CirculantGraph(20, (1, 4, 10)), cycle_graph(17)]
    )
    def test_matches_per_mode_and_per_distance_loops(self, g):
        # the plain loops over modes k and distances l, as references
        n = g.n
        lam = [
            sum((2 if 2 * j == n else 4) * math.sin(math.pi * k * j / n) ** 2 for j in g.jumps)
            for k in range(n)
        ]
        assert eigenvalues_circulant(g) == pytest.approx(lam, rel=1e-14, abs=0)
        r = spectral_resistance(g)
        for l in range(1, n):
            loop = sum(4 * math.sin(math.pi * k * l / n) ** 2 / lam[k] for k in range(1, n)) / n
            assert r[l] == pytest.approx(loop, rel=1e-13, abs=0)

    @pytest.mark.parametrize("jumps", [(1, 3, 4), (1, 4, 6)])
    def test_against_pseudoinverse(self, jumps):
        # (1, 4, 6) has the half-turn jump 6 = n/2, which reaches one vertex
        g = CirculantGraph(12, jumps)
        pinv = np.linalg.pinv(g.laplacian_dense().astype(float))
        oracle = [pinv[0, 0] + pinv[l, l] - 2 * pinv[0, l] for l in range(12)]
        assert np.max(np.abs(spectral_resistance(g) - oracle)) < 1e-12

    def test_zero_distance_and_mirror_are_exact(self):
        # a plain FFT misses both by rounding once n reaches the thousands
        for g in (CirculantGraph(12, (1, 4, 6)), CirculantGraph(1000, (1, 7, 500)),
                  complete_minus_opposite(1001), cycle_graph(10001)):
            r = spectral_resistance(g)
            assert r.shape == (g.n,) and r[0] == 0.0
            assert np.array_equal(r[1:], r[:0:-1])

    def test_sparse_cycle_keeps_small_eigenvalues_accurate(self):
        # the smallest eigenvalues of a long cycle are ~4e-7; taking them
        # from an FFT of the Laplacian's first row puts R off by ~5e-6 here
        n = 10001
        l = np.arange(n)
        r = spectral_resistance(cycle_graph(n))
        assert np.max(np.abs(r - l * (n - l) / n)) < 1e-11

    def test_star_import_exports_it(self):
        # the README quick start names spectral_resistance after `from ohmwalk import *`
        ns = {}
        exec("from ohmwalk import *", ns)
        assert ns["spectral_resistance"] is spectral_resistance
