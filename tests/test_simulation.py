import itertools

import numpy as np
import pytest

from dse_link import (
    ContingencyCounts,
    EstimationError,
    InvalidCounts,
    RematchSample,
    ScenarioConfig,
    TrueLinkageState,
    draw_rematch,
    dse,
    generate_population,
    ht_nu,
    inject_linkage_errors,
    naive_corrected,
    naive_variance_estimate,
    run_scenario,
)
from dse_link.simulation import CHUNK, _draw_counts, _estimate_counts


def make_config(**overrides):
    defaults = dict(
        p1plus=0.9, pplus1=0.8, fnr=0.02, fpr=0.05, f=0.2, seed=12345, iterations=100
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestGeneratePopulation:
    def test_full_coverage(self):
        config = make_config(p1plus=1.0, pplus1=1.0, N=250)
        rng = np.random.default_rng(0)
        for _ in range(5):
            state = generate_population(config, rng)
            assert state.counts_true == ContingencyCounts(250, 250, 250)

    def test_empty_population(self):
        state = generate_population(make_config(N=0), np.random.default_rng(0))
        assert state.counts_true == ContingencyCounts(0, 0, 0)
        assert state.source1_codes.size == 0

    def test_fresh_state_has_no_errors(self):
        state = generate_population(make_config(), np.random.default_rng(1))
        assert state.pi == 0 and state.eta == 0
        assert state.counts_star == state.counts_true
        assert not state.source1_codes.any()


class TestInjectLinkageErrors:
    def test_no_errors(self):
        rng = np.random.default_rng(2)
        state = generate_population(make_config(), rng)
        injected = inject_linkage_errors(state, 0.0, 0.0, rng)
        assert injected.pi == 0 and injected.eta == 0
        assert injected.counts_star == state.counts_true

    def test_all_matches_broken(self):
        rng = np.random.default_rng(3)
        state = generate_population(make_config(), rng)
        injected = inject_linkage_errors(state, 1.0, 0.0, rng)
        assert injected.pi == state.counts_true.n11
        assert injected.counts_star.n11 == 0

    def test_margins_preserved_and_flags_consistent(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            state = generate_population(make_config(), rng)
            injected = inject_linkage_errors(state, 0.3, 0.2, rng)
            true, star = injected.counts_true, injected.counts_star
            assert star.n1plus == true.n1plus
            assert star.nplus1 == true.nplus1
            assert star.n11 == true.n11 - injected.pi + injected.eta
            codes = injected.source1_codes
            assert int((codes == 1).sum()) == injected.pi
            assert int((codes == -1).sum()) == injected.eta
            # false negatives only among matched records, false positives
            # only among source-1-only records (matched laid out first)
            assert not (codes[: true.n11] == -1).any()
            assert not (codes[true.n11 :] == 1).any()

    def test_expected_counts_oracle(self):
        # binomial-moment oracle: empirical means within 3 standard errors
        config = make_config(N=1000, p1plus=0.9, pplus1=0.8, fnr=0.02, fpr=0.05)
        reps = 100_000
        rng = np.random.default_rng(777)
        sums = np.zeros(5)  # n11, n10, n01, pi, eta
        for _ in range(reps):
            state = generate_population(config, rng)
            state = inject_linkage_errors(state, config.fnr, config.fpr, rng)
            counts = state.counts_true
            sums += (counts.n11, counts.n10, counts.n01, state.pi, state.eta)
        means = sums / reps
        N, p1, p2 = config.N, config.p1plus, config.pplus1
        expectations = np.array(
            [
                N * p1 * p2,
                N * p1 * (1 - p2),
                N * (1 - p1) * p2,
                config.fnr * p1 * p2 * N,
                config.fpr * p1 * (1 - p2) * N,
            ]
        )
        # per-rep variances: binomial for the cells, thinned binomial for pi/eta
        cell_var = np.array(
            [
                N * p1 * p2 * (1 - p1 * p2),
                N * p1 * (1 - p2) * (1 - p1 * (1 - p2)),
                N * (1 - p1) * p2 * (1 - (1 - p1) * p2),
                N * config.fnr * p1 * p2 * (1 - config.fnr * p1 * p2),
                N * config.fpr * p1 * (1 - p2) * (1 - config.fpr * p1 * (1 - p2)),
            ]
        )
        standard_errors = np.sqrt(cell_var / reps)
        assert (np.abs(means - expectations) <= 3 * standard_errors).all(), (
            means,
            expectations,
        )


class TestDrawRematch:
    def test_census_recovers_truth_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            state = generate_population(make_config(), rng)
            state = inject_linkage_errors(state, 0.05, 0.08, rng)
            sample = draw_rematch(state, 1.0, rng)
            estimate = ht_nu(sample)
            assert estimate.nu_hat == state.pi - state.eta
            assert estimate.sigma2_eps == 0.0
            corrected = naive_corrected(state.counts_star, estimate.nu_hat)
            assert corrected.n_hat == dse(state.counts_true).n_hat

    def test_no_errors_gives_zero_codes(self):
        rng = np.random.default_rng(7)
        state = generate_population(make_config(), rng)
        state = inject_linkage_errors(state, 0.0, 0.0, rng)
        sample = draw_rematch(state, 0.2, rng)
        assert not sample.outcomes.any()
        estimate = ht_nu(sample)
        assert estimate.nu_hat == 0.0
        assert estimate.sigma2_eps == 0.0

    @pytest.mark.parametrize(
        "n1plus,f,expected",
        [(900, 0.1, 90), (895, 0.1, 90), (894, 0.1, 89), (5, 0.5, 3), (900, 0.001, 2)],
    )
    def test_sample_size_rounding_half_up_min_two(self, n1plus, f, expected):
        counts = ContingencyCounts(n1plus, n1plus, n1plus)
        state = TrueLinkageState(counts, np.zeros(n1plus, np.int8))
        sample = draw_rematch(state, f, np.random.default_rng(8))
        assert sample.n_r == expected

    def test_sample_indices_are_distinct(self):
        rng = np.random.default_rng(9)
        state = generate_population(make_config(), rng)
        state = inject_linkage_errors(state, 0.5, 0.5, rng)
        sample = draw_rematch(state, 1.0, rng)
        # census: every code appears exactly as in the frame
        assert sorted(sample.outcomes) == sorted(state.source1_codes)


class TestTrueLinkageState:
    def test_rejects_margin_changes(self):
        with pytest.raises(ValueError):
            TrueLinkageState(
                ContingencyCounts(10, 10, 5),
                np.zeros(10, np.int8),
                pi=0,
                eta=0,
                counts_star=ContingencyCounts(11, 10, 5),
            )

    def test_rejects_inconsistent_star_count(self):
        with pytest.raises(ValueError):
            TrueLinkageState(
                ContingencyCounts(10, 10, 5),
                np.zeros(10, np.int8),
                pi=1,
                eta=0,
                counts_star=ContingencyCounts(10, 10, 5),
            )

    def test_rejects_wrong_flag_length(self):
        with pytest.raises(ValueError):
            TrueLinkageState(ContingencyCounts(10, 10, 5), np.zeros(9, np.int8))


class TestRunScenario:
    def test_deterministic_given_seed(self):
        config = make_config(iterations=300)
        assert run_scenario(config) == run_scenario(config)

    def test_two_chunks_deterministic_and_thread_invariant(self):
        config = make_config(iterations=CHUNK + 1)
        reference = run_scenario(config, threads=1)
        assert run_scenario(config, threads=1) == reference
        assert run_scenario(config, threads=4) == reference
        assert reference.iterations_completed + reference.exclusions == CHUNK + 1

    def test_identical_across_thread_counts(self):
        config = make_config(iterations=300)
        reference = run_scenario(config, threads=1)
        for threads in (2, 3, 4):
            assert run_scenario(config, threads=threads) == reference

    def test_different_seeds_differ(self):
        a = run_scenario(make_config(seed=1, iterations=200))
        b = run_scenario(make_config(seed=2, iterations=200))
        assert a.corrected.mean != b.corrected.mean

    def test_no_error_degeneracy(self):
        # with perfect linkage the corrected estimator IS the plain one
        summary = run_scenario(make_config(fnr=0.0, fpr=0.0, iterations=500))
        assert summary.exclusions == 0
        assert summary.corrected == summary.dse
        assert summary.uncorrected == summary.dse

    def test_single_iteration_has_no_erse(self):
        summary = run_scenario(make_config(iterations=1))
        assert summary.iterations_completed == 1
        assert summary.dse.erse_pct is None
        assert summary.corrected.erse_pct is None
        assert summary.corrected.erb_pct is not None
        assert summary.arse_pct is not None

    def test_exclusions_counted_when_estimators_degenerate(self):
        # fnr = 1 destroys every link; dse on the observed table fails
        # whenever no false positive rescues it
        summary = run_scenario(
            make_config(fnr=1.0, fpr=0.0, f=0.5, iterations=50, N=50)
        )
        assert summary.exclusions == 50
        assert summary.iterations_completed == 0
        assert summary.corrected.mean is None
        assert summary.arse_pct is None

    @pytest.mark.parametrize("N", [0, 1])
    def test_frames_below_two_records_excluded(self, N):
        # the capped rematch draw of n_r = n1plus in {0, 1} must stay defined
        summary = run_scenario(make_config(N=N, iterations=20))
        assert summary.exclusions == 20
        assert summary.corrected.mean is None

    def test_mean_estimates_near_truth(self):
        summary = run_scenario(make_config(iterations=2000, seed=99))
        assert summary.dse.mean == pytest.approx(1000, rel=0.01)
        assert summary.corrected.mean == pytest.approx(1000, rel=0.01)
        # uncorrected is biased upward by the net broken links
        assert summary.uncorrected.mean > summary.dse.mean


class TestScenarioConfig:
    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            make_config(p1plus=0.0)
        with pytest.raises(ValueError):
            make_config(pplus1=1.2)
        with pytest.raises(ValueError):
            make_config(f=0.0)
        with pytest.raises(ValueError):
            make_config(fnr=-0.1)

    @pytest.mark.parametrize("name", ["fnr", "fpr"])
    @pytest.mark.parametrize("value", [-0.1, 1.5, float("nan")])
    def test_rejects_error_rates_as_error_rates_do(self, name, value):
        with pytest.raises(ValueError, match=rf"{name} must lie in \[0, 1\]"):
            make_config(**{name: value})

    @pytest.mark.parametrize("name", ["p1plus", "pplus1", "f", "N", "iterations"])
    def test_rejects_nan(self, name):
        with pytest.raises(ValueError):
            make_config(**{name: float("nan")})

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            make_config(iterations=0)
        with pytest.raises(ValueError):
            make_config(seed=-1)
        with pytest.raises(ValueError):
            make_config(seed=2**64)

    def test_rejects_population_beyond_sampler_limit(self):
        make_config(N=10**9 - 1)
        with pytest.raises(ValueError, match="N must lie in"):
            make_config(N=10**9)

    @pytest.mark.parametrize(
        "name, value",
        [("N", 1000.5), ("iterations", 2.5), ("seed", 1.5),
         ("N", True), ("iterations", True), ("seed", True)],
    )
    def test_rejects_non_integer_counts(self, name, value):
        with pytest.raises(InvalidCounts, match=f"{name} must be an integer"):
            make_config(**{name: value})

    @pytest.mark.parametrize("name", ["N", "iterations", "seed"])
    def test_numpy_integer_count_stored_as_int(self, name):
        value = getattr(make_config(**{name: np.int64(1000)}), name)
        assert type(value) is int and value == 1000


def count_tuples(max_list_size):
    """Every (n1plus, nplus1, n11, pi, eta, n_r, plus, minus) the engine can
    produce with both list sizes <= max_list_size. Frames of fewer than 2
    records get the engine's capped sample size n_r = n1plus."""
    sizes = range(max_list_size + 1)
    for n1plus, nplus1 in itertools.product(sizes, sizes):
        sample_sizes = range(2, n1plus + 1) if n1plus >= 2 else (n1plus,)
        for n11 in range(min(n1plus, nplus1) + 1):
            for pi, eta in itertools.product(range(n11 + 1), range(n1plus - n11 + 1)):
                zeros = n1plus - pi - eta
                for n_r in sample_sizes:
                    for plus in range(max(0, n_r - n1plus + pi), min(pi, n_r) + 1):
                        for minus in range(
                            max(0, n_r - plus - zeros), min(eta, n_r - plus) + 1
                        ):
                            yield n1plus, nplus1, n11, pi, eta, n_r, plus, minus


def scalar_estimates(n1plus, nplus1, n11, pi, eta, n_r, plus, minus):
    """The scalar path's values for one count tuple, or None where it
    raises EstimationError."""
    counts_true = ContingencyCounts(n1plus, nplus1, n11)
    try:
        # spurious links can push n11 past nplus1 (InvalidCounts)
        counts_star = ContingencyCounts(n1plus, nplus1, n11 - pi + eta)
        if n1plus < 2:
            state = TrueLinkageState(
                counts_true, np.zeros(n1plus, np.int8), pi, eta, counts_star
            )
            draw_rematch(state, 1.0, np.random.default_rng(0))
        codes = [1] * plus + [-1] * minus + [0] * (n_r - plus - minus)
        nu = ht_nu(RematchSample(codes, n1plus=n1plus))
        corrected = naive_corrected(counts_star, nu.nu_hat).n_hat
        return dict(
            dse=dse(counts_true).n_hat,
            uncorrected=dse(counts_star).n_hat,
            nu_hat=nu.nu_hat,
            sigma2_eps=nu.sigma2_eps,
            corrected=corrected,
            variance=naive_variance_estimate(corrected, counts_star, nu),
        )
    except EstimationError:
        return None


class TestCountEngine:
    def test_estimates_bit_identical_to_scalar_path(self):
        tuples = list(count_tuples(6))
        columns = np.array(tuples, dtype=np.int64).T
        names = ("n1plus", "nplus1", "n11", "pi", "eta", "n_r", "plus", "minus")
        ok, estimates = _estimate_counts(**dict(zip(names, columns)))
        excluded = 0
        for i, counts in enumerate(tuples):
            expected = scalar_estimates(*counts)
            assert ok[i] == (expected is not None), counts
            if expected is None:
                excluded += 1
                continue
            for name, value in expected.items():
                assert estimates[name][i] == value, (counts, name)
        # both outcomes are well represented
        assert 0 < excluded < len(tuples)

    def test_count_moments_match_record_level_oracle(self):
        # one grid row; the record-level stages are the reference
        config = make_config(p1plus=0.9, pplus1=0.8, fnr=0.05, fpr=0.08, f=0.1)
        counts = _draw_counts(config, np.random.default_rng(31), 100_000)
        engine = np.column_stack(
            [
                counts["n11"],
                counts["n1plus"] - counts["n11"],
                counts["nplus1"] - counts["n11"],
                counts["pi"],
                counts["eta"],
                counts["plus"],
                counts["minus"],
            ]
        ).astype(float)
        rng = np.random.default_rng(32)
        records = []
        for _ in range(10_000):
            state = generate_population(config, rng)
            state = inject_linkage_errors(state, config.fnr, config.fpr, rng)
            outcomes = draw_rematch(state, config.f, rng).outcomes
            true = state.counts_true
            records.append(
                (
                    true.n11,
                    true.n10,
                    true.n01,
                    state.pi,
                    state.eta,
                    np.count_nonzero(outcomes == 1),
                    np.count_nonzero(outcomes == -1),
                )
            )
        records = np.array(records, dtype=float)
        standard_errors = np.sqrt(
            engine.var(axis=0, ddof=1) / len(engine)
            + records.var(axis=0, ddof=1) / len(records)
        )
        z = np.abs(engine.mean(axis=0) - records.mean(axis=0)) / standard_errors
        assert (z <= 4).all(), z
