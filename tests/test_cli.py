"""Tests for config ingestion and the command-line runner."""

import csv
import json

import numpy as np
import pytest

from loschmidt.cli import cmd_two_sided, main, write_csv
from loschmidt.config import parse_document
from loschmidt.exceptions import ConfigError


def base_config(**overrides):
    doc = {
        "model": {"model": "tfim", "n": 4, "J": 1.0, "g": 0.5},
        "states": {"psi": "up"},
        "algorithm": {"tau": 0.05, "h": 0.05, "t_max": 0.5},
        "seed": 11,
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_rows(path):
    with open(path) as handle:
        return list(csv.DictReader(handle))


class TestConfigParsing:
    def test_unknown_top_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_document(base_config(extra=1))

    def test_unknown_algorithm_key_rejected(self):
        doc = base_config()
        doc["algorithm"]["taus"] = 0.1
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_document(doc)

    def test_merge_half_layers_key_rejected(self):
        # compiled plans have a single execution path; the old switch is gone
        doc = base_config()
        doc["algorithm"]["merge_half_layers"] = True
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_document(doc)

    def test_output_block_rejected(self):
        # nothing read output.dir or output.prefix; --out names the directory
        with pytest.raises(ConfigError, match=r"unknown keys \['output'\]"):
            parse_document(base_config(output={"dir": "x", "prefix": "run"}))

    def test_missing_required_key(self):
        doc = base_config()
        del doc["algorithm"]["tau"]
        with pytest.raises(ConfigError, match="missing keys"):
            parse_document(doc)

    def test_negative_tau_rejected(self):
        doc = base_config()
        doc["algorithm"]["tau"] = -0.1
        with pytest.raises(ConfigError):
            parse_document(doc)

    def test_term_list_model(self):
        doc = base_config()
        sx = [[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]
        doc["model"] = {
            "model": "terms",
            "n": 2,
            "terms": [{"support": [0], "matrix": sx, "group": "x"}],
        }
        parsed = parse_document(doc)
        assert parsed.experiment.spec.n_sites == 2
        assert parsed.experiment.spec.terms[0].group == "x"

    def test_per_site_state_list(self):
        doc = base_config()
        doc["states"]["psi"] = ["up", "down", "x+", [[0.6, 0.0], [0.0, 0.8]]]
        parsed = parse_document(doc)
        assert abs(parsed.experiment.psi.norm() - 1.0) < 1e-12

    def test_noisy_backend_requires_noise_block(self):
        doc = base_config()
        doc["algorithm"]["backend"] = "noisy"
        with pytest.raises(ConfigError, match="noise"):
            parse_document(doc)


class TestCliCommands:
    def test_phase_exit_zero_and_header(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["phase", "--config", cfg, "--out", str(out)]) == 0
        header = (out / "phase.csv").read_text().splitlines()[0]
        assert header == "t,r,p_plus,p_minus,dphi_dt,phi,re_g,im_g"

    def test_amplitude_t_max_zero(self, tmp_path):
        doc = base_config()
        doc["algorithm"]["t_max"] = 0.0
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["amplitude", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "amplitude.csv")
        assert len(rows) == 1
        assert float(rows[0]["r"]) == 1.0

    def test_amplitude_matches_oracle_magnitudes(self, tmp_path):
        from loschmidt.model import amplitude_series, tfim
        from loschmidt.statevector import product_state

        doc = base_config(model={"model": "tfim", "n": 6, "J": 1.0, "g": 0.5})
        doc["algorithm"].update({"tau": 0.05, "h": 0.05, "t_max": 1.0})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["amplitude", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "amplitude.csv")
        t = np.array([float(r["t"]) for r in rows])
        r_meas = np.array([float(r["r"]) for r in rows])
        spec = tfim(6, 1.0, 0.5)
        psi = product_state(["up"] * 6)
        r_or = np.abs(amplitude_series(spec, psi, psi, t))
        assert np.max(np.abs(r_meas - r_or)) < 2e-3  # Trotter tolerance

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, base_config(bogus=True))
        assert main(["phase", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["phase", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        # gamma so large that the mitigation factor underflows
        doc = base_config()
        doc["algorithm"].update({"tau": 0.5, "h": 0.5, "t_max": 2.0})
        doc["noise"] = {"gamma": 0.5, "n_trajectories": 2}
        cfg = write_config(tmp_path, doc)
        assert main(["noise", "--config", cfg, "--out", str(tmp_path)]) == 3

    def test_rerun_byte_identical(self, tmp_path):
        doc = base_config()
        doc["algorithm"]["shots"] = 200
        cfg = write_config(tmp_path, doc)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["phase", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["phase", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "phase.csv").read_bytes() == (out2 / "phase.csv").read_bytes()

    def test_thread_count_does_not_change_output(self, tmp_path):
        doc = base_config()
        doc["algorithm"].update({"tau": 0.1, "h": 0.1, "t_max": 0.5, "order": 1})
        doc["noise"] = {"gamma": 0.01, "n_trajectories": 40, "shots": 500}
        cfg = write_config(tmp_path, doc)
        outputs = []
        for threads in (1, 2, 8):
            out = tmp_path / f"t{threads}"
            assert main(["noise", "--config", cfg, "--out", str(out),
                         "--threads", str(threads)]) == 0
            outputs.append((out / "phase.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_resolved_config_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out1 = tmp_path / "a"
        assert main(["phase", "--config", cfg, "--out", str(out1)]) == 0
        resolved = out1 / "resolved_config.json"
        out2 = tmp_path / "b"
        assert main(["phase", "--config", str(resolved), "--out", str(out2)]) == 0
        assert (out1 / "phase.csv").read_bytes() == (out2 / "phase.csv").read_bytes()

    def test_seed_flag_overrides(self, tmp_path):
        doc = base_config()
        doc["algorithm"]["shots"] = 100
        cfg = write_config(tmp_path, doc)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["phase", "--config", cfg, "--out", str(out1), "--seed", "1"])
        main(["phase", "--config", cfg, "--out", str(out2), "--seed", "2"])
        assert (out1 / "phase.csv").read_bytes() != (out2 / "phase.csv").read_bytes()

    def test_runinfo_carries_version(self, tmp_path):
        import loschmidt

        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        main(["phase", "--config", cfg, "--out", str(out)])
        info = json.loads((out / "runinfo.json").read_text())
        assert info["version"] == loschmidt.__version__


class TestTwoSided:
    def test_identity_operator_matches_phase(self, tmp_path):
        doc = base_config()
        doc["states"]["operator_a"] = {
            "sites": [0],
            "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        }
        doc["states"]["t_prime"] = 0.0
        cfg = write_config(tmp_path, doc)
        out1, out2 = tmp_path / "two", tmp_path / "ph"
        assert main(["two-sided", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["phase", "--config", cfg, "--out", str(out2)]) == 0
        two = read_rows(out1 / "two_sided.csv")
        ph = read_rows(out2 / "phase.csv")
        for a, b in zip(two, ph):
            assert abs(float(a["re_g"]) - float(b["re_g"])) < 1e-12
            assert abs(float(a["im_g"]) - float(b["im_g"])) < 1e-12

    def test_diagonal_operator_equal_time(self, tmp_path):
        # t' = 0, sweep starts at the equal-time expectation <psi|A|psi> = 1
        doc = base_config()
        doc["states"]["operator_a"] = {"sites": [0], "name": "z"}
        doc["states"]["t_prime"] = 0.0
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["two-sided", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "two_sided.csv")
        g0 = complex(float(rows[0]["re_g"]), float(rows[0]["im_g"]))
        assert abs(g0 - 1.0) < 1e-9

    def test_sigma_x_insertion_matches_oracle(self, tmp_path):
        from loschmidt.model import SIGMA_X, amplitude_series, oracle_evolve, tfim
        from loschmidt.statevector import apply_matrix, product_state

        doc = base_config()
        doc["algorithm"].update({"tau": 0.01, "h": 0.01, "t_max": 1.0})
        doc["states"]["operator_a"] = {"sites": [0], "name": "x"}
        doc["states"]["t_prime"] = 0.5
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["two-sided", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "two_sided.csv")
        s = np.array([float(r["t"]) for r in rows])
        g_rec = np.array([float(r["re_g"]) + 1j * float(r["im_g"]) for r in rows])
        spec = tfim(4, 1.0, 0.5)
        psi = product_state(["up"] * 4)
        bra = apply_matrix(oracle_evolve(spec, psi, 0.5), SIGMA_X.conj().T, (0,))
        g_or = amplitude_series(spec, bra, psi, s + 0.5)
        assert np.max(np.abs(g_rec - g_or)) < 2e-3

    def test_parsed_config_not_mutated(self, tmp_path):
        doc = base_config()
        doc["states"]["operator_a"] = {"sites": [0], "name": "x"}
        doc["states"]["t_prime"] = 0.1
        run_doc = parse_document(doc)
        exp = run_doc.experiment
        before = (exp.bra_state, exp.prefix_steps, exp.anchor)
        assert cmd_two_sided(run_doc, tmp_path) == 0
        assert run_doc.experiment is exp
        assert (exp.bra_state, exp.prefix_steps, exp.anchor) == before == (None, 0, None)
        # the snapshot still records the anchor the run used
        resolved = json.loads((tmp_path / "resolved_config.json").read_text())
        info = json.loads((tmp_path / "runinfo.json").read_text())
        assert resolved["algorithm"]["anchor"] == info["anchor"]

    def test_incommensurate_t_prime(self, tmp_path):
        doc = base_config()
        doc["states"]["operator_a"] = {"sites": [0], "name": "x"}
        doc["states"]["t_prime"] = 0.513
        cfg = write_config(tmp_path, doc)
        assert main(["two-sided", "--config", cfg, "--out", str(tmp_path)]) == 2


class TestScalingLdosCost:
    def test_scaling_single_point(self, tmp_path):
        doc = base_config()
        doc["sweep"] = {"kind": "h", "n_values": [4], "values": [0.1], "t_max": 0.5}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["scaling", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "scaling_points.csv")
        assert len(rows) == 1

    def test_scaling_tau_sweep_normalizes_by_order_power(self, tmp_path):
        doc = base_config()
        doc["algorithm"]["h"] = 0.01
        doc["sweep"] = {"kind": "tau", "n_values": [4], "values": [0.1, 0.2],
                        "t_max": 1.0}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["scaling", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "scaling_points.csv")
        for row in rows:
            expected = float(row["max_abs_dphi"]) / (4 * float(row["tau"]) ** 2)
            assert abs(float(row["normalized"]) - expected) < 1e-15
        fits = read_rows(out / "scaling_summary.csv")
        exponents = [float(r["value"]) for r in fits if r["metric"] == "exponent"]
        assert len(exponents) == 1 and np.isfinite(exponents[0])

    def test_scaling_empty_sweep_rejected(self, tmp_path):
        doc = base_config()
        doc["sweep"] = {"kind": "h", "n_values": [], "values": [0.1]}
        cfg = write_config(tmp_path, doc)
        assert main(["scaling", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_ldos_normalization(self, tmp_path):
        doc = base_config(model={"model": "tfim", "n": 6, "J": 1.0, "g": 0.5})
        doc["algorithm"].update({"tau": 0.3, "h": 0.01, "t_max": 9.9,
                                 "backend": "exact_oracle"})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["ldos", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "ldos.csv")
        info = json.loads((out / "runinfo.json").read_text())
        weight = info["eta"] * sum(float(r["d"]) for r in rows)
        assert abs(weight - 1.0) < 0.02
        assert (out / "ldos_reference.csv").exists()

    def test_ldos_from_noisy_mitigated_run(self, tmp_path):
        # the full composite: trajectories + shots + mitigation feeding the
        # Fourier transform still resolves the ground energy to one bin
        from loschmidt.model import dense_matrix, tfim

        doc = base_config(model={"model": "tfim", "n": 6, "J": 1.0, "g": 0.5})
        doc["algorithm"] = {"tau": 0.3, "h": 0.3, "t_max": 9.9, "order": 1}
        doc["noise"] = {"gamma": 1e-3, "n_trajectories": 300, "shots": 1000000}
        doc["seed"] = 11
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["ldos", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "ldos.csv")
        info = json.loads((out / "runinfo.json").read_text())
        d = np.array([float(r["d"]) for r in rows])
        energies = np.array([float(r["E"]) for r in rows])
        e0 = float(np.linalg.eigvalsh(dense_matrix(tfim(6, 1.0, 0.5)))[0])
        visible = energies[d > 0.1]
        assert len(visible) > 0
        assert abs(visible.min() - e0) <= info["eta"]
        assert abs(info["eta"] * d.sum() - 1.0) < 0.02

    def test_cost_table(self, tmp_path):
        doc = base_config()
        doc["cost"] = {"n": [8, 16], "t": 4.0, "epsilon": 0.01, "p": 2, "d": 1}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["cost", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "cost.csv")
        assert len(rows) == 6
        by_key = {(r["method"], int(r["N"])): float(r["depth"]) for r in rows}
        ratio_8 = by_key[("hadamard", 8)] / by_key[("this_work", 8)]
        ratio_16 = by_key[("hadamard", 16)] / by_key[("this_work", 16)]
        assert abs(ratio_16 / ratio_8 - 4.0) < 1e-9  # 2^(1+1/d), d = 1

    def test_baseline_commands(self, tmp_path):
        doc = base_config()
        doc["algorithm"].update({"tau": 0.02, "h": 0.02, "t_max": 1.0})
        doc["baseline"] = {"flip_sites": [0, 1]}
        cfg = write_config(tmp_path, doc)
        out_h, out_s = tmp_path / "h", tmp_path / "s"
        assert main(["baseline", "--config", cfg, "--out", str(out_h),
                     "--method", "hadamard"]) == 0
        assert main(["baseline", "--config", cfg, "--out", str(out_s),
                     "--method", "sequential"]) == 0
        rows = read_rows(out_h / "baseline_hadamard.csv")
        for row in rows:
            assert abs(float(row["estimate"]) - float(row["oracle"])) < 5e-3
        info = json.loads((out_s / "runinfo.json").read_text())
        diff = (info["phase"] - info["oracle_phase"] + np.pi) % (2 * np.pi) - np.pi
        assert abs(diff) < 5e-3


def _fmt_per_value(value) -> str:
    """The per-value formatter ``write_csv`` used before rows were rendered
    through one %-format string; the byte reference for the faster path."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


class TestWriteCsv:
    def test_bytes_match_per_value_formatting(self, tmp_path):
        rng = np.random.default_rng(23)
        floats = rng.normal(size=2000) * 10.0 ** rng.integers(-300, 300, 2000)
        floats = np.concatenate(
            [floats, [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, 1e16, 1e17, 0.1]]
        )
        n = len(floats)
        columns = [
            floats,
            list(floats),
            rng.random(n) < 0.5,
            [np.bool_(b) for b in rng.random(n) < 0.5],
            rng.integers(-(2**62), 2**62, n),
            [np.int32(i) for i in range(n)],
            [f"label{i}" for i in range(n)],
            [1] * (n // 2) + [2.5] * (n - n // 2),  # mixed ints and floats
        ]
        header = [f"c{i}" for i in range(len(columns))]
        write_csv(tmp_path / "out.csv", header, columns)
        expected = ",".join(header) + "\n" + "".join(
            ",".join(_fmt_per_value(v) for v in row) + "\n" for row in zip(*columns)
        )
        assert (tmp_path / "out.csv").read_bytes() == expected.encode("utf-8")

    def test_header_only_without_rows(self, tmp_path):
        write_csv(tmp_path / "out.csv", ["a", "b"], [[], np.array([])])
        assert (tmp_path / "out.csv").read_bytes() == b"a,b\n"
