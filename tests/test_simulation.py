import collections
import dataclasses
import gc
import itertools
import math
import statistics
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from dse_link import (
    ContingencyCounts,
    EstimationError,
    InvalidCounts,
    RematchSample,
    SampleTooSmall,
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
from dse_link import simulation
from dse_link.cli import bundled_scenario_path, load_scenario_file
from dse_link.simulation import CHUNK, _draw_counts, _estimate_counts, _shared_draws


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
            sums += (
                counts.n11,
                counts.n1plus - counts.n11,
                counts.nplus1 - counts.n11,
                state.pi,
                state.eta,
            )
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
    def test_counts_star_derived_from_errors(self):
        counts, codes = ContingencyCounts(10, 8, 5), np.zeros(10, np.int8)
        assert TrueLinkageState(counts, codes, pi=1, eta=3).counts_star == (
            ContingencyCounts(10, 8, 7)
        )
        with pytest.raises(TypeError):
            TrueLinkageState(counts, codes, counts_star=counts)
        # spurious links push n11* = 5 + 4 past nplus1 = 8
        with pytest.raises(
            InvalidCounts, match=r"^n11=9 exceeds a margin \(n1plus=10, nplus1=8\)$"
        ):
            TrueLinkageState(counts, codes, pi=0, eta=4)

    @pytest.mark.parametrize(
        "errors, message",
        [
            (dict(pi=6), r"pi=6 outside \[0, n11=5\]"),
            (dict(pi=-1), r"pi=-1 outside \[0, n11=5\]"),
            (dict(eta=6), r"eta=6 outside \[0, n10=5\]"),
            (dict(eta=-1), r"eta=-1 outside \[0, n10=5\]"),
        ],
    )
    def test_rejects_error_totals_outside_their_cells(self, errors, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrueLinkageState(ContingencyCounts(10, 10, 5), np.zeros(10, np.int8), **errors)

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

    @pytest.mark.parametrize("R", [1, 2, 37, CHUNK + 1, 2 * CHUNK + 37])
    @pytest.mark.parametrize(
        "row",
        [
            dict(p1plus=0.9, pplus1=0.8, fnr=0.05, fpr=0.08, f=0.1),
            dict(p1plus=0.9, pplus1=0.8, fnr=1.0, fpr=0.0, f=0.1),  # all excluded
            dict(p1plus=0.99, pplus1=0.8, fnr=0.05, fpr=0.08, f=0.1),  # some excluded
        ],
    )
    def test_summary_matches_aggregation_oracle(self, row, R):
        # the summary rebuilt from each chunk's masked estimates with the
        # statistics module: sd with divisor R - 1, and ARSE as the mean of
        # the per-iteration RSE, not the root of the mean variance
        config = make_config(iterations=R, **row)
        kept = {name: [] for name in ("dse", "uncorrected", "corrected", "variance")}
        streams = np.random.SeedSequence(config.seed).spawn(-(-R // CHUNK))
        for k, stream in enumerate(streams):
            size = min(R - k * CHUNK, CHUNK)
            counts = _draw_counts(config, np.random.default_rng(stream), size)
            ok, estimates = _estimate_counts(**counts)
            for name, values in kept.items():
                values.extend(estimates[name][ok].tolist())
        N, variances = config.N, kept.pop("variance")
        expected = []
        for values in kept.values():
            mean = statistics.fmean(values) if values else None
            expected += [
                mean,
                None if mean is None else 100 * abs(mean - N) / N,
                100 * statistics.stdev(values) / N if len(values) >= 2 else None,
            ]
        if variances:
            expected += [
                100 * statistics.fmean(map(math.sqrt, variances)) / N,
                100 * math.sqrt(statistics.fmean(variances)) / N,
            ]
        else:
            expected += [None, None]
        expected += [len(variances), R - len(variances)]

        summary = run_scenario(config)
        actual = [
            *dataclasses.astuple(summary.dse),
            *dataclasses.astuple(summary.uncorrected),
            *dataclasses.astuple(summary.corrected),
            summary.arse_pct,
            summary.arse_root_mean_var_pct,
            summary.iterations_completed,
            summary.exclusions,
        ]
        # abs as well as rel: ERB cancels near N
        assert actual == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("na, nb", [(0, 7), (7, 0), (1, 2), (40, 3), (1000, 37)])
    def test_merged_moments_match_concatenation(self, na, nb):
        # unequal sizes and means: equal ones zero the M3 merge's cross
        # terms, and M3 reaches a reported figure only through M4
        def moments(rows):
            # (n, mean, M2, M3, M4) per row, from exact sums
            n = rows.shape[1]
            means = [math.fsum(row) / n if n else 0.0 for row in rows.tolist()]
            sums = [
                [math.fsum((x - mean) ** k for x in row) for row, mean in zip(rows.tolist(), means)]
                for k in (2, 3, 4)
            ]
            return n, *map(np.array, (means, *sums))

        rng = np.random.default_rng(48)
        scales = np.array([[1.0], [10.0], [30.0], [3.0]])  # one per row
        a = 1000 + scales * rng.exponential(size=(4, na))
        b = 1020 + scales * rng.gamma(2.0, size=(4, nb))
        merged = simulation._merge(moments(a), moments(b))
        expected = moments(np.concatenate([a, b], axis=1))
        assert merged[0] == expected[0]
        for actual, wanted in zip(merged[1:], expected[1:]):
            assert actual == pytest.approx(wanted, rel=1e-9, abs=1e-9)

    def test_moments_mask_before_the_square_root(self):
        # the first iteration is excluded (n11* = 6 > nplus1 = 5), and its
        # linearized variance is negative: corrected = 50/6 < n1plus, and
        # sigma2 = 0 as its sample holds no errors
        counts = {
            name: np.array(values)
            for name, values in dict(
                n1plus=[10, 100, 120], nplus1=[5, 80, 90], n11=[5, 70, 75],
                pi=[0, 2, 4], eta=[1, 1, 3], n_r=[3, 20, 24], plus=[0, 1, 2], minus=[0, 0, 1],
            ).items()
        }
        ok, estimates = _estimate_counts(**counts)
        assert ok.tolist() == [False, True, True]
        assert estimates["sigma2_eps"][0] == 0 and estimates["variance"][0] < 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            n, *moments = simulation._moments(*_estimate_counts(**counts))
        assert n == 2
        columns = [estimates[name][ok] for name in ("dse", "uncorrected", "corrected")]
        columns.append(np.sqrt(estimates["variance"][ok]))  # masked first
        for i, x in enumerate(columns):
            d = x - x.mean()
            expected = [x.mean(), *((d**k).sum() for k in (2, 3, 4))]
            assert [m[i] for m in moments] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def grid_configs(seed, iterations=500):
    return load_scenario_file(bundled_scenario_path(), iterations, seed, 1000)


# Row orders of the bundled grid. Sorted by f, rows that share capture
# cells and error draws are no longer adjacent.
ROW_ORDERS = {
    "file": list,
    "reversed": lambda configs: configs[::-1],
    "sorted_by_f": lambda configs: sorted(configs, key=lambda config: config.f),
}


class TestHeldDraws:
    """Rows of one ``_shared_draws`` block that share a seed reuse each
    other's capture and error draws; every summary must equal the row's
    bare run, which shares nothing."""

    def test_grid_rows_equal_cold_runs_in_any_order(self):
        # bytes per iteration held after a row: in file order or reversed,
        # one capture stage (24) and one link stage of each kind (8 + 8);
        # sorted by f, the f = 0.1 rows leave every stage to the f = 0.2 rows
        bounds = {"file": 40, "reversed": 40, "sorted_by_f": 128}
        configs = grid_configs(seed=41)
        cold = {config: run_scenario(config) for config in configs}
        for order, reorder in ROW_ORDERS.items():
            rows, held = reorder(configs), []
            with _shared_draws(rows):
                stages, _ = simulation._block.get()
                for config in rows:
                    assert run_scenario(config) == cold[config], config
                    held.append(sum(a.nbytes for draws, _ in stages.values() for a in draws))
            assert max(held) <= bounds[order] * configs[0].iterations, order
            assert held[-1] == 0, order

    def test_unrelated_scenarios_interleaved(self):
        configs = grid_configs(seed=42)
        sequence = []
        for config in configs:
            sequence += [
                dataclasses.replace(config, seed=43),
                config,
                dataclasses.replace(config, N=999),
                config,
            ]
        # two chunks, before and after rows of one chunk
        for config in configs[:3]:
            sequence += [dataclasses.replace(config, iterations=CHUNK + 1), config]
        sequence.append(dataclasses.replace(configs[2], iterations=CHUNK + 1))
        cold = {config: run_scenario(config) for config in set(sequence)}
        with _shared_draws(sequence):
            for config in sequence:
                assert run_scenario(config) == cold[config], config

    @pytest.mark.parametrize("order", ROW_ORDERS)
    def test_grid_draws_each_distinct_stage_once(self, monkeypatch, order):
        calls = {"multinomial": 0, "binomial": 0, "hypergeometric": 0}
        default_rng = np.random.default_rng

        class CountingGenerator:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                method = getattr(self.rng, name)
                if name not in calls:
                    return method

                def counted(*args, **kwargs):
                    calls[name] += 1
                    return method(*args, **kwargs)

                return counted

        monkeypatch.setattr(
            simulation.np.random, "default_rng", lambda seed: CountingGenerator(default_rng(seed))
        )
        rows = ROW_ORDERS[order](grid_configs(seed=44))
        with _shared_draws(rows):
            for config in rows:
                run_scenario(config)
        # 2 capture levels, each with 3 capture draws, 2 distinct fnr
        # (missed-link draws) and 3 error mixes (spurious-link draws); 2
        # rematch tally draws per row
        assert calls == {"multinomial": 0, "binomial": 2 * (3 + 2 + 3), "hypergeometric": 24}

    @pytest.mark.parametrize("order", ROW_ORDERS)
    def test_block_counts_hits_misses_and_stage_times(self, order):
        # the distinct stages of test_grid_draws_each_distinct_stage_once
        # miss, and the other 24 of the 36 stage reads hit
        rows = ROW_ORDERS[order](grid_configs(seed=48, iterations=10_000))
        start = time.perf_counter_ns()
        with _shared_draws(rows) as counter:
            for config in rows:
                run_scenario(config)
        wall = time.perf_counter_ns() - start
        assert (counter["misses"], counter["hits"]) == (12, 24)
        stages = ("capture", "missed", "spurious", "rematch", "estimate", "aggregation")
        assert all(counter[name] > 0 for name in stages)
        assert sum(counter[name] for name in stages) <= wall

    def test_rows_sharing_one_rate_equal_cold_runs_in_every_order(self):
        # each row shares fnr or fpr, never both, with some other row
        configs = [
            make_config(fnr=fnr, fpr=fpr, seed=46, iterations=200)
            for fnr, fpr in [(0.05, 0.02), (0.05, 0.08), (0.02, 0.08), (0.02, 0.02)]
        ]
        cold = {config: run_scenario(config) for config in configs}
        for order in itertools.permutations(configs):
            with _shared_draws(order):
                for config in order:
                    assert run_scenario(config) == cold[config], (order, config)

    def test_block_holds_read_only_draws_until_it_closes(self):
        run_scenario(make_config(iterations=10))
        assert simulation._block.get() is None
        iterations = CHUNK + 1
        # sorted by f, the six f = 0.1 rows draw every stage and the six
        # f = 0.2 rows read each once more
        rows = ROW_ORDERS["sorted_by_f"](grid_configs(seed=47, iterations=iterations))
        with _shared_draws(rows):
            for config in rows[:6]:
                run_scenario(config)
            held, _ = simulation._block.get()
            arrays = [array for draws, _ in held.values() for array in draws]
            assert not any(array.flags.writeable for array in arrays)
            # per chunk, 2 capture keys of 3 int64 arrays, and 4 missed-link
            # and 6 spurious-link keys of one int64 array each
            assert sum(array.nbytes for array in arrays) == (2 * 24 + 4 * 8 + 6 * 8) * iterations
            assert len(held) == 2 * (2 + 4 + 6)
            for config in rows[6:]:
                run_scenario(config)
            assert not held
        assert simulation._block.get() is None

    def test_cold_run_traced_peak_per_iteration(self):
        # a run keeps only one chunk's arrays at a time, about 22 bytes per
        # iteration over 8 chunks; holding the completed estimates would
        # add 32, and holding the run's stages 40. Nothing stays after a
        # bare run returns or a block closes. gc.collect() empties the
        # interpreter's free lists, which tracemalloc counts as allocated.
        config = make_config(iterations=8 * CHUNK)
        run_scenario(make_config(iterations=1))  # numpy imports its samplers lazily
        tracemalloc.start()
        try:
            run_scenario(config)
            gc.collect()
            after_run, peak = tracemalloc.get_traced_memory()
            with _shared_draws([config]):
                run_scenario(config)
            gc.collect()
            after_block = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert peak / config.iterations <= 40
        assert after_run < 64 * 1024 and after_block < 64 * 1024

    def test_concurrent_threads_match_serial(self):
        # rows long enough for the threads to switch inside them
        configs = grid_configs(seed=45, iterations=5000)
        serial = [run_scenario(config) for config in configs]
        results = {}
        barrier = threading.Barrier(2)

        def run(name, order):
            barrier.wait()
            results[name] = {config: run_scenario(config) for config in order}

        threads = [
            threading.Thread(target=run, args=("forward", configs)),
            threading.Thread(target=run, args=("reverse", configs[::-1])),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for name in ("forward", "reverse"):
            assert [results[name][config] for config in configs] == serial, name


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


COUNT_NAMES = ("n1plus", "nplus1", "n11", "pi", "eta", "n_r", "plus", "minus")


def exact_count_law(config):
    """Probability of each (n1plus, nplus1, n11, pi, eta, n_r, plus, minus)
    under ``config``, enumerated with math.comb: multinomial capture cells,
    binomial missed and spurious links, and the rematch tallies as two
    chained hypergeometric draws from a sample of draw_rematch's size."""
    N, f = config.N, config.f
    p1, p2 = config.p1plus, config.pplus1
    cell_probs = (p1 * p2, p1 * (1 - p2), (1 - p1) * p2, (1 - p1) * (1 - p2))

    def binomial(n, k, p):
        return math.comb(n, k) * p**k * (1 - p) ** (n - k)

    law = {}
    for n11, n10, n01 in itertools.product(range(N + 1), repeat=3):
        n00 = N - n11 - n10 - n01
        if n00 < 0:
            continue
        cells = (
            math.comb(N, n11) * math.comb(N - n11, n10) * math.comb(N - n11 - n10, n01)
            * math.prod(p**n for p, n in zip(cell_probs, (n11, n10, n01, n00)))
        )
        n1plus = n11 + n10
        n_r = min(max(2, math.floor(f * n1plus + 0.5)), n1plus)
        for pi, eta in itertools.product(range(n11 + 1), range(n10 + 1)):
            errors = cells * binomial(n11, pi, config.fnr) * binomial(n10, eta, config.fpr)
            zeros = n1plus - pi - eta
            for plus in range(max(0, n_r - n1plus + pi), min(pi, n_r) + 1):
                p_plus = (
                    math.comb(pi, plus) * math.comb(n1plus - pi, n_r - plus)
                    / math.comb(n1plus, n_r)
                )
                for minus in range(max(0, n_r - plus - zeros), min(eta, n_r - plus) + 1):
                    p_minus = (
                        math.comb(eta, minus) * math.comb(zeros, n_r - plus - minus)
                        / math.comb(n1plus - pi, n_r - plus)
                    )
                    state = (n1plus, n11 + n01, n11, pi, eta, n_r, plus, minus)
                    law[state] = errors * p_plus * p_minus
    return law


def scalar_estimates(n1plus, nplus1, n11, pi, eta, n_r, plus, minus):
    """The scalar path's values for one count tuple, or None where it
    raises EstimationError."""
    counts_true = ContingencyCounts(n1plus, nplus1, n11)
    try:
        # spurious links can push n11 past nplus1 (InvalidCounts)
        counts_star = ContingencyCounts(n1plus, nplus1, n11 - pi + eta)
        if n1plus < 2:
            state = TrueLinkageState(counts_true, np.zeros(n1plus, np.int8), pi, eta)
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


def assert_fits_law(seen, expected, totals=1):
    """Chi-square goodness of fit of the observed outcome counts ``seen`` to
    the ``expected`` ones, both keyed by outcome, over ``totals`` groups
    whose sizes the sampling fixed: no outcome outside the law, and a
    Wilson-Hilferty z of at most 6 on cells - totals degrees of freedom.
    The outcomes expected fewer than 5 times are pooled into one cell, which
    joins the smallest cell if it is still expected fewer than 5 times."""
    assert [state for state in seen if state not in expected] == []
    cells = [(seen.get(state, 0), e) for state, e in expected.items() if e >= 5]
    rare = [(seen.get(state, 0), e) for state, e in expected.items() if e < 5]
    if rare:
        pooled = [sum(o for o, _ in rare), sum(e for _, e in rare)]
        if pooled[1] < 5:
            o, e = cells.pop(min(range(len(cells)), key=lambda i: cells[i][1]))
            pooled = [pooled[0] + o, pooled[1] + e]
        cells.append(pooled)
    chi2 = sum((o - e) ** 2 / e for o, e in cells)
    df = len(cells) - totals
    # Wilson-Hilferty: (chi2 / df) ** (1/3) is about normal
    z = ((chi2 / df) ** (1 / 3) - (1 - 2 / (9 * df))) / math.sqrt(2 / (9 * df))
    assert z <= 6, (chi2, df, z)


class TestCountEngine:
    def test_estimates_bit_identical_to_scalar_path(self):
        tuples = list(count_tuples(6))
        columns = np.array(tuples, dtype=np.int64).T
        ok, estimates = _estimate_counts(**dict(zip(COUNT_NAMES, columns)))
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

    def test_count_draws_follow_exact_law_at_small_n(self):
        # every stage non-trivial: all four capture cells, both kinds of
        # linkage error, and rematch samples of half the frame
        config = make_config(p1plus=0.7, pplus1=0.6, fnr=0.3, fpr=0.3, f=0.5, N=12)
        law = exact_count_law(config)
        assert math.fsum(law.values()) == pytest.approx(1.0, abs=1e-12)
        draws = 400_000
        counts = _draw_counts(config, np.random.default_rng(33), draws)

        def code(values):
            # one integer per state, on scalars and arrays alike
            key = 0
            for value in values:
                key = key * (config.N + 1) + value
            return key

        states, observed = np.unique(code(counts[name] for name in COUNT_NAMES), return_counts=True)
        seen = dict(zip(states.tolist(), observed.tolist()))
        assert_fits_law(seen, {code(state): draws * p for state, p in law.items()})

    def test_tally_draws_follow_exact_law_on_ratio_of_uniforms_branch(self):
        # numpy draws a hypergeometric by ratio of uniforms only when
        # 10 <= sample <= good + bad - 10, which N = 12 never reaches; here
        # n_r is about 18 of a frame of about 36. Given the group (n1plus,
        # pi, eta, n_r), (plus, minus) is multivariate hypergeometric. The
        # groups of at least 1000 draws are checked together; fixing their
        # totals takes a degree of freedom each.
        config = make_config(p1plus=0.9, pplus1=0.8, fnr=0.3, fpr=0.3, f=0.5, N=40)
        draws = 400_000
        counts = _draw_counts(config, np.random.default_rng(35), draws)
        n_r = counts["n_r"]
        assert np.mean((n_r >= 10) & (n_r <= counts["n1plus"] - 10)) > 0.9
        names = ("n1plus", "pi", "eta", "n_r", "plus", "minus")
        seen = collections.Counter(zip(*(counts[name].tolist() for name in names)))
        sizes = collections.Counter()
        for state, count in seen.items():
            sizes[state[:4]] += count
        sizes = {group: size for group, size in sizes.items() if size >= 1000}
        assert sum(sizes.values()) > draws / 2
        expected = {}
        for (n1plus, pi, eta, n_r), size in sizes.items():
            for plus in range(min(pi, n_r) + 1):
                for minus in range(min(eta, n_r - plus) + 1):
                    expected[n1plus, pi, eta, n_r, plus, minus] = (
                        size * math.comb(pi, plus) * math.comb(eta, minus)
                        * math.comb(n1plus - pi - eta, n_r - plus - minus)
                        / math.comb(n1plus, n_r)
                    )
        seen = {state: n for state, n in seen.items() if state[:4] in sizes}
        assert_fits_law(seen, expected, totals=len(sizes))

    @pytest.mark.parametrize(
        "rates",
        [
            # every spurious link drawn: many iterations end in InvalidCounts
            dict(p1plus=0.6, pplus1=0.5, fnr=0.3, fpr=1.0, f=0.5),
            # no missed links and a census rematch; small frames end in
            # SampleTooSmall
            dict(p1plus=0.3, pplus1=0.6, fnr=0.0, fpr=0.4, f=0.95),
        ],
        ids=["fpr-1", "fnr-0-f-near-1"],
    )
    def test_record_level_stages_follow_exact_law_at_small_n(self, rates):
        config = make_config(N=6, **rates)

        def outcome(n1plus, nplus1, n11, pi, eta, *rematch):
            # the record-level stages raise in this order
            if n11 - pi + eta > nplus1:
                return "InvalidCounts"
            if n1plus < 2:
                return "SampleTooSmall"
            return (n1plus, nplus1, n11, pi, eta) + rematch

        expected = collections.defaultdict(float)
        for state, p in exact_count_law(config).items():
            expected[outcome(*state)] += p
        rng = np.random.default_rng(34)
        draws = 12_000
        seen = collections.Counter()
        for _ in range(draws):
            state = generate_population(config, rng)
            try:
                state = inject_linkage_errors(state, config.fnr, config.fpr, rng)
                codes = draw_rematch(state, config.f, rng).outcomes
            except (InvalidCounts, SampleTooSmall) as exc:
                seen[type(exc).__name__] += 1
                continue
            true = state.counts_true
            rematch = (len(codes), np.count_nonzero(codes == 1), np.count_nonzero(codes == -1))
            seen[(true.n1plus, true.nplus1, true.n11, state.pi, state.eta) + rematch] += 1
        assert_fits_law(seen, {state: draws * p for state, p in expected.items()})

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
                    true.n1plus - true.n11,
                    true.nplus1 - true.n11,
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
