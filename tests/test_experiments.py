import numpy as np
import pytest

import starfdr as sf


class TestBuiltinConfig:
    def test_common_settings(self):
        cfg = sf.builtin_config("1")
        assert cfg.n_nodes == 5
        assert cfg.alpha == 0.2

    def test_null_proportions(self):
        cfg = sf.builtin_config("1")
        assert [cfg.r0(i) for i in range(1, 6)] == pytest.approx([0.5, 0.6, 0.7, 0.8, 0.9])

    def test_size_rule(self):
        cfg = sf.builtin_config("3")
        assert cfg.sizes(1000).tolist() == [1000, 800, 600, 400, 200]

    def test_cauchy_configs(self):
        assert set(sf.builtin_config("2b").kinds) == {sf.CAUCHY}
        kinds = sf.builtin_config("2c").kinds
        assert kinds[0] == sf.CAUCHY and kinds[1] == sf.GAUSSIAN and kinds[4] == sf.CAUCHY

    def test_epsilon_rules(self):
        cfg1 = sf.builtin_config("1")
        _, sizes, _, eps, _ = cfg1.instantiate(1000)
        m = int(sizes.sum())
        assert eps == pytest.approx(0.2 / np.sqrt(m))
        cfg2a = sf.builtin_config("2a")
        _, sizes, _, eps, _ = cfg2a.instantiate(1.5)
        assert eps == pytest.approx(1.5 * 0.2 / np.sqrt(int(sizes.sum())))
        cfg2b = sf.builtin_config("2b")
        _, sizes, _, eps, _ = cfg2b.instantiate(4.0)
        assert eps == pytest.approx(2.5 * 0.2 / np.sqrt(int(sizes.sum())))

    def test_mu_rules(self):
        net, _, _, _, _ = sf.builtin_config("1").instantiate(500)
        assert [nd.alt.mu for nd in net.nodes] == pytest.approx([1.25 * i for i in range(1, 6)])
        net, _, _, _, _ = sf.builtin_config("2a").instantiate(1.5)
        assert [nd.alt.mu for nd in net.nodes] == pytest.approx([1.5 * i for i in range(1, 6)])

    def test_rho_sweep(self):
        _, _, dep, _, _ = sf.builtin_config("3").instantiate(0.6)
        assert dep == sf.DependenceSpec(0.6)
        _, _, dep, _, _ = sf.builtin_config("3").instantiate(0.0)
        assert dep == sf.DependenceSpec()

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            sf.builtin_config("9")


class TestSweepSettings:
    """Every setting is read: node i (1-based) has base mu = mu_flat +
    mu_slope * i, with the swept value in mu_flat's place in a mu sweep and
    in mu_slope's in an eta sweep, and a sweep name outside n, eta, mu and
    rho is refused."""

    @staticmethod
    def _mus(sweep, value, **kw):
        cfg = sf.ExperimentConfig("t", sweep=sweep, sweep_values=(value,), **kw)
        return [nd.alt.mu for nd in cfg.instantiate(value)[0].nodes]

    def test_slope_and_flat_add(self):
        assert self._mus("n", 400, mu_slope=1.0, mu_flat=3.0) == [4.0, 5.0, 6.0, 7.0, 8.0]

    def test_eta_sweep_keeps_flat(self):
        assert self._mus("eta", 1.5, mu_flat=2.0) == [3.5, 5.0, 6.5, 8.0, 9.5]

    def test_mu_sweep_keeps_slope(self):
        assert self._mus("mu", 2.0, mu_slope=0.5) == [2.5, 3.0, 3.5, 4.0, 4.5]

    def test_unknown_sweep_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep 'rh0': sweep one of n, eta, mu, rho"):
            sf.ExperimentConfig("t", sweep="rh0", sweep_values=(0.0, 0.9))


def _tiny_config(**kw):
    base = dict(
        id="t",
        sweep="n",
        sweep_values=(400,),
        mu_slope=1.25,
        trials=3,
        seed=1,
    )
    base.update(kw)
    return sf.ExperimentConfig(**base)


class TestRunExperiment:
    def test_deterministic_csv(self, tmp_path):
        cfg = _tiny_config(trials=1)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        sf.run_experiment(cfg, out_csv=p1)
        sf.run_experiment(cfg, out_csv=p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_golden(self, tmp_path):
        path = tmp_path / "out.csv"
        sf.run_experiment(_tiny_config(trials=1, methods=("no_comm",)), out_csv=path)
        header = path.read_text().splitlines()[0]
        assert header == "sweep,method,fdr,fdr_se,power,power_se,bits_up,bits_down,rounds,trials"

    def test_row_shape(self):
        rows = sf.run_experiment(_tiny_config())
        methods = {r.method for r in rows}
        assert methods == set(sf.METHODS)
        for r in rows:
            assert 0.0 <= r.fdr <= 1.0 and 0.0 <= r.power <= 1.0
            if r.method != "optimal":
                assert r.trials == 3

    def test_optimal_rows_sample_free(self):
        rows = sf.run_experiment(_tiny_config(methods=("optimal",)))
        (row,) = rows
        net, _, _, _, _ = _tiny_config().instantiate(400)
        _, fdr, power = sf.optimal_region(net, 0.2)
        assert row.fdr == pytest.approx(fdr) and row.power == pytest.approx(power)

    def test_all_null_no_comm_fdr_controlled(self):
        # single-node uniform config: adapted BH keeps mean FDP near alpha.
        # (with several nodes only the per-realization max bound holds, so
        # the global-null control statement is a one-node property)
        cfg = _tiny_config(mu_slope=0.0, mu_flat=0.0, jitter=0.0, trials=200,
                           n_nodes=1, kinds=(sf.GAUSSIAN,), methods=("no_comm",))
        rows = sf.run_experiment(cfg)
        assert rows[0].fdr <= 0.25

    def test_standard_errors(self):
        rows = sf.run_experiment(_tiny_config(trials=10, methods=("no_comm",)))
        (row,) = rows
        assert row.fdr_se >= 0.0
        # se = sample std / sqrt(trials): re-derive for one method
        cfg = _tiny_config(trials=10, methods=("no_comm",))
        fdps = []
        for t in range(10):
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0, t]))
            net, sizes, dep, eps, jitter = cfg.instantiate(400)
            s = sf.sample_trial(net, sizes, dep, mean_jitter=jitter, seed=rng)
            fdps.append(sf.run_no_comm(s, 0.2, cfg.estimator).metrics.fdp)
        assert row.fdr == pytest.approx(np.mean(fdps))
        assert row.fdr_se == pytest.approx(np.std(fdps, ddof=1) / np.sqrt(10))

    def test_failures_counted_not_silent(self, caplog):
        # an estimator that always fails leaves prop_match rejecting nothing
        # but the harness never crashes and keeps the trial count honest
        cfg = _tiny_config(trials=2, methods=("no_comm",), estimator="storey")
        rows = sf.run_experiment(cfg)
        assert rows[0].trials == 2


class TestWriteCsv:
    def test_no_partial_file_on_failure(self, tmp_path):
        path = tmp_path / "out.csv"

        class Bad:
            def as_record(self):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            sf.write_csv([Bad()], path)
        assert not path.exists()

    def test_round_trip(self, tmp_path):
        rows = sf.run_experiment(_tiny_config(trials=1))
        path = tmp_path / "out.csv"
        sf.write_csv(rows, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(rows) + 1
        assert all(len(l.split(",")) == len(sf.CSV_HEADER) for l in lines)


def test_config_validation():
    with pytest.raises(ValueError):
        _tiny_config(trials=0)
    with pytest.raises(ValueError):
        _tiny_config(sweep_values=())
    with pytest.raises(ValueError):
        _tiny_config(kinds=(sf.GAUSSIAN,))


@pytest.mark.parametrize("n, node", [(1, 4), (2, 5)])
def test_sweep_value_leaving_a_node_empty_rejected(n, node):
    # sizes(2) is [2, 2, 1, 1, 0]: node 5 would get q = 0
    with pytest.raises(ValueError, match=f"sweep value n={n} leaves node {node} "):
        _tiny_config(sweep_values=(400, n))
    with pytest.raises(ValueError, match=f"n={n} leaves node {node} "):
        _tiny_config(sweep="mu", sweep_values=(2.0,), n=n)


def test_smallest_full_sweep_value_runs():
    rows = sf.run_experiment(_tiny_config(sweep_values=(3,), trials=2))
    # the sample-free optimal row counts no trials
    assert [r.trials for r in rows] == [0 if m == "optimal" else 2 for m in sf.METHODS]
