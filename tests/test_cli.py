"""Command-line surface: subcommands, exit codes, reproducibility."""

import io
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sarmanov
from sarmanov import cli
from sarmanov.bernoulli import ExchangeableSumSpec
from sarmanov.cli import CSV_BLOCK_ROWS, main
from sarmanov.kernels import CATALOG_IDS, DEFAULT_PARAMS
from sarmanov.sampling import SampleBatch

EDGE_VALUES = [0.0, 1.0, 5e-324, 1e-300, 0.1, 1 - 2 ** -53,
               1e-4, math.nextafter(1e-4, 0), 0.001, math.nextafter(0.1, 0)]


def src_env():
    """Environment for a child interpreter that imports sarmanov from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + ([env["PYTHONPATH"]] if "PYTHONPATH" in env else [])
    )
    return env


def write_config(path, **overrides):
    cfg = {
        "schema": "sarmanov-config/1",
        "d": 2,
        "margins": [{"kernel": {"id": "fgm"}}, {"kernel": {"id": "fgm"}}],
        "a": 1.0,
        "n": 500,
        "seed": 42,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture()
def fgm_config(tmp_path):
    return write_config(tmp_path / "fgm.json")


class TestCatalog:
    def test_csv_values(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "id,params,kappa,Lambda,lambda,sign_constant"
        assert len(lines) == 21
        table = {ln.split(",")[0]: ln for ln in lines[1:]}
        assert "0.166666666667" in table["fgm"]
        assert "lai_xie" in table and "0.0333333333333" in table["lai_xie"]
        sin_asym_lam = float(table["sin_asym"].split(",")[4])
        assert sin_asym_lam == pytest.approx(-2.2585010314, abs=1e-8)
        assert table["legendre2"].endswith("false")

    def test_json_format(self, capsys):
        assert main(["catalog", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 20
        byid = {r["id"]: r for r in rows}
        assert byid["checkerboard"]["kappa"] == 0.25


def dust_edge(d, j):
    """Weights whose negative mass is just below -PMF_CLAMP, where a pairwise
    float sum of their 2^d-entry table reads exactly -PMF_CLAMP."""
    w = [0.0] * (d + 1)
    w[0] = w[d] = 0.5000000000005
    w[j] = -1.0000000000000002e-12
    return w


class TestValidate:
    def test_admissible_endpoint(self, fgm_config, capsys):
        assert main(["validate", "--config", str(fgm_config)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] and payload["a_interval"] == [-1.0, 1.0]
        assert payload["pis"] == [0.5, 0.5]

    def test_inadmissible_reports_interval(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.json", a=1.01)
        assert main(["validate", "--config", str(cfg)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert not payload["valid"]
        assert payload["theta_interval"] == [-1.0, 1.0]
        assert payload["violations"]

    @pytest.mark.parametrize("kernels", [("fgm", "fgm"), ("norm_lee", "lee_exponential")])
    @pytest.mark.parametrize("theta", [0.1, -0.3, 0.7, 1 / 3])
    def test_theta_in_is_theta_out(self, tmp_path, capsys, kernels, theta):
        cfg = {"schema": "sarmanov-config/1", "d": 2, "theta": theta,
               "margins": [{"kernel": {"id": k}} for k in kernels]}
        path = tmp_path / "theta.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["theta"] == theta

    def test_a_in_is_a_out_over_catalog_pairs(self, tmp_path, capsys):
        # the copula keeps theta = a / (Lambda1 Lambda2); Lambda1 Lambda2 theta
        # read -0.23399999999999999 for fgm x lee_power(k=2) at a = -0.234
        rng = np.random.default_rng(23)
        kernel = lambda i: {"kernel": {"id": i, "params": DEFAULT_PARAMS.get(i, {})}}  # noqa: E731
        path = tmp_path / "a.json"
        cases = [("fgm", "lee_power", -0.234)] + [
            (k1, k2, round(float(rng.uniform(-1, 1)), int(rng.integers(1, 5))))
            for k1 in CATALOG_IDS for k2 in CATALOG_IDS]
        for k1, k2, a in cases:
            path.write_text(json.dumps({"schema": "sarmanov-config/1", "d": 2, "a": a,
                                        "margins": [kernel(k1), kernel(k2)]}))
            assert main(["validate", "--config", str(path)]) in (0, 1)
            assert json.loads(capsys.readouterr().out)["a"] == a, (k1, k2, a)

    def test_malformed_json_is_usage_error(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["validate", "--config", str(bad)]) == 2

    def test_unknown_field_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "extra.json")
        obj = json.loads(cfg.read_text())
        obj["surprise"] = 1
        cfg.write_text(json.dumps(obj))
        assert main(["validate", "--config", str(cfg)]) == 2

    def test_missing_file_is_usage_error(self):
        assert main(["validate", "--config", "/nonexistent.json"]) == 2

    def test_usage_error_exit_code(self):
        assert main(["validate"]) == 2

    def test_powered_validate(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "pw.json", a=0.25, r=2)
        assert main(["validate", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sufficient_only"]
        assert payload["sufficient_interval"] == [-0.25, 0.5]

    def test_powered_inadmissible(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "pw.json", a=0.9, r=3)
        assert main(["validate", "--config", str(cfg)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert not payload["valid"] and payload["sufficient_only"]

    def test_large_theta_is_inadmissible_not_malformed(self, tmp_path, capsys):
        # the pmf entries are ~1e5 each; their sum is 1 only to ~3e-11
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({
            "schema": "sarmanov-config/1", "d": 2, "theta": 1e6,
            "margins": [{"kernel": {"id": "norm_lee"}}, {"kernel": {"id": "lee_exponential"}}],
        }))
        assert main(["validate", "--config", str(cfg)]) == 1
        assert not json.loads(capsys.readouterr().out)["valid"]

    def test_csv_pmf_export(self, fgm_config, capsys):
        assert main(["validate", "--config", str(fgm_config), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "state,probability"
        table = dict(ln.split(",") for ln in lines[1:])
        assert float(table["00"]) == 0.5 and float(table["11"]) == 0.5
        assert float(table["10"]) == 0.0

    def test_csv_pmf_export_holds_less_than_its_file(self, tmp_path):
        # the rows are written CSV_BLOCK_ROWS states at a time, never all at once
        cfg = self.law_config(tmp_path / "d18.json", 18, {"variant": "named", "name": "independent"})
        out = tmp_path / "d18.csv"
        tracemalloc.start()
        try:
            assert main(["validate", "--config", str(cfg), "--format", "csv", "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.read_bytes().count(b"\n") == 1 + (1 << 18)
        assert peak < out.stat().st_size

    def test_d3_named_config(self, tmp_path, capsys):
        cfg = tmp_path / "tri.json"
        cfg.write_text(json.dumps({
            "schema": "sarmanov-config/1", "d": 3,
            "margins": [{"kernel": {"id": "fgm"}}] * 3,
            "bernoulli": {"variant": "named", "name": "epd"},
            "n": 100, "seed": 1,
        }))
        assert main(["validate", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "exchangeable_sum"

    @staticmethod
    def law_config(path, d, bernoulli):
        path.write_text(json.dumps({
            "schema": "sarmanov-config/1", "d": d,
            "margins": [{"kernel": {"id": "fgm"}}] * d, "bernoulli": bernoulli,
        }))
        return path

    def test_json_carries_kind_pis_and_pmf(self, tmp_path, capsys):
        pmf = {"000": 0.2, "100": 0.1, "010": 0.15, "110": 0.05,
               "001": 0.05, "101": 0.15, "011": 0.1, "111": 0.2}
        for d, law, kind, table in (
            (3, {"variant": "full_pmf", "pmf": pmf}, "full_pmf", pmf),
            (8, {"variant": "named", "name": "epd"}, "exchangeable_sum",
             {"0" * 8: 0.5, "1" * 8: 0.5}),
        ):
            cfg = self.law_config(tmp_path / f"law{d}.json", d, law)
            assert main(["validate", "--config", str(cfg)]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["kind"] == kind and payload["pis"] == [0.5] * d
            assert [bits[::-1] for bits, _ in payload["pmf"]] == [
                format(s, f"0{d}b") for s in range(1 << d)]
            assert {bits: p for bits, p in payload["pmf"] if p} == table

    @pytest.mark.parametrize("w, code", [
        ([0.5, -1.5e-12, 0.0, 0.5 + 1.5e-12], 1),  # w_1 / 3 is dust, w_1 is not
        ([0.5 - 6e-13, -4e-13, 0.0, 0.5 + 1e-12], 0),  # dust
        (dust_edge(8, 1), 1),
        (dust_edge(10, 1), 1),
        (dust_edge(10, 9), 1),
    ])
    def test_exported_pmf_keeps_its_verdict(self, tmp_path, capsys, w, code):
        d = len(w) - 1
        law = self.law_config(tmp_path / "w.json", d, {"variant": "exchangeable_sum", "w": w})
        assert main(["validate", "--config", str(law), "--format", "csv"]) == code
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        pmf = {bits: float(p) for bits, p in (r.split(",") for r in rows)}
        table = self.law_config(tmp_path / "pmf.json", d, {"variant": "full_pmf", "pmf": pmf})
        assert main(["validate", "--config", str(table)]) == code

    def test_json_beyond_d8_builds_no_pmf(self, tmp_path, capsys, monkeypatch):
        def no_table(self):
            raise AssertionError("validate built a pmf it does not print")

        monkeypatch.setattr(ExchangeableSumSpec, "_pmf_table", no_table)
        cfg = self.law_config(tmp_path / "epd9.json", 9, {"variant": "named", "name": "epd"})
        assert main(["validate", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "exchangeable_sum" and payload["pis"] == [0.5] * 9
        assert "pmf" not in payload


class TestBounds:
    def test_fgm(self, fgm_config, capsys):
        assert main(["bounds", "--config", str(fgm_config)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["a_interval"] == [-1.0, 1.0]
        assert payload["rho_interval"][0] == pytest.approx(-1 / 3)
        assert payload["rho_interval"][1] == pytest.approx(1 / 3)
        assert payload["rho_global"] == [-0.75, 0.75]

    def test_hki(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "hki.json",
            margins=[{"kernel": {"id": "hki", "params": {"p": 2}}}] * 2,
            a=0.5,
        )
        assert main(["bounds", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["a_interval"] == [-0.25, 0.5]
        assert payload["rho_interval"][0] == pytest.approx(-0.1875)
        assert payload["rho_interval"][1] == pytest.approx(0.375)

    def test_checkerboard(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cb.json",
            margins=[{"kernel": {"id": "checkerboard"}}] * 2,
            theta=1.0, a=None,
        )
        obj = json.loads(cfg.read_text())
        del obj["a"]
        cfg.write_text(json.dumps(obj))
        assert main(["bounds", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rho_interval"] == [-0.75, 0.75]


class TestSample:
    def test_csv_and_sidecar(self, fgm_config, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert main(["sample", "--config", str(fgm_config), "--out", str(out),
                     "--n", "100"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "u1,u2"
        assert len(lines) == 101
        vals = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        assert vals.min() >= 0.0 and vals.max() <= 1.0
        meta = json.loads((tmp_path / "rows.csv.meta.json").read_text())
        assert meta["n"] == 100 and meta["seed"] == 42 and meta["d"] == 2
        assert len(meta["config_hash"]) == 16

    def test_sidecar_records_sampler_and_versions(self, fgm_config, tmp_path):
        # sample bytes depend on the sampler version and on numpy's generator
        out = tmp_path / "rows.csv"
        assert main(["sample", "--config", str(fgm_config), "--out", str(out), "--n", "10"]) == 0
        meta = json.loads((tmp_path / "rows.csv.meta.json").read_text())
        assert meta["sampler"] == 7
        assert meta["sarmanov_version"] == sarmanov.__version__
        assert meta["numpy_version"] == np.__version__

    @pytest.mark.parametrize("margins, r, routes", [
        (["fgm", "sin"], 1, [["analytic", "analytic"], ["numeric", "numeric"]]),
        ([{"id": "hki", "params": {"p": 2}}, "checkerboard"], 1,
         [["analytic", "numeric"], ["analytic", "analytic"]]),
        # the base's margins: fgm transformed at r = 2 is hki(p = 2), not fgm
        (["fgm", "sin"], 2, [["analytic", "numeric"], ["numeric", "numeric"]]),
    ], ids=["fgm-sin", "hki-checkerboard", "powered-fgm-sin"])
    def test_sidecar_records_quantile_routes(self, tmp_path, margins, r, routes):
        cfg = write_config(tmp_path / "cfg.json", a=0.1, n=20, r=r, margins=[
            {"kernel": {"id": m} if isinstance(m, str) else m} for m in margins])
        out = tmp_path / "rows.csv"
        assert main(["sample", "--config", str(cfg), "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "rows.csv.meta.json").read_text())
        assert meta["quantile_routes"] == routes

    def test_reproducible_and_thread_env_inert(self, fgm_config, tmp_path, monkeypatch):
        # SARMANOV_THREADS is no longer read: any value, malformed or not,
        # leaves the run and its bytes unchanged.
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sample", "--config", str(fgm_config), "--out", str(out1)]) == 0
        monkeypatch.setenv("SARMANOV_THREADS", "many")
        assert main(["sample", "--config", str(fgm_config), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_d3_has_three_columns(self, tmp_path, capsys):
        cfg = tmp_path / "tri.json"
        cfg.write_text(json.dumps({
            "schema": "sarmanov-config/1", "d": 3,
            "margins": [{"kernel": {"id": "fgm"}}] * 3,
            "bernoulli": {"variant": "named", "name": "end"},
            "n": 50, "seed": 3,
        }))
        assert main(["sample", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "u1,u2,u3"

    def test_powered_routing(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "pw.json", a=0.25, r=2, n=50)
        assert main(["sample", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "u1,u2"
        assert len(out.strip().splitlines()) == 51

    def test_inadmissible_sampling_exit_one(self, tmp_path):
        cfg = write_config(tmp_path / "bad.json", a=1.2)
        assert main(["sample", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    @pytest.mark.parametrize("n", [1, CSV_BLOCK_ROWS + 1])
    @pytest.mark.parametrize("d", [2, 10])
    def test_writer_keeps_old_bytes(self, fgm_config, tmp_path, capsys, monkeypatch,
                                    d, n, to_file):
        rng = np.random.default_rng(1000 * d + n)
        flat = rng.random(n * d)
        k = min(len(EDGE_VALUES), flat.size)
        flat[:k] = EDGE_VALUES[:k]
        flat[-k:] = EDGE_VALUES[:k]  # also in the last block
        rows = flat.reshape(n, d)
        monkeypatch.setattr(cli, "sample", lambda model, n_, seed: SampleBatch(rows=rows, seed=seed))
        # the per-value f-string writer that block formatting replaced
        header = ",".join(f"u{m + 1}" for m in range(d))
        body = "\n".join(",".join(f"{x:.17g}" for x in row) for row in rows)
        expected = header + "\n" + body + "\n"
        argv = ["sample", "--config", str(fgm_config)]
        out = tmp_path / "rows.csv"
        assert main(argv + (["--out", str(out)] if to_file else [])) == 0
        written = out.read_bytes().decode() if to_file else capsys.readouterr().out
        assert written == expected

    def test_sample_imports_no_scipy(self, fgm_config, tmp_path):
        argv = ["sample", "--config", str(fgm_config), "--out", str(tmp_path / "rows.csv")]
        code = (
            "import sys\n"
            "import sarmanov, sarmanov.cli\n"
            f"assert sarmanov.cli.main({argv!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=src_env())
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"


def percent_rows(rows) -> bytes:
    """The rows as "%.17g" values joined by "," and "\n", one value at a time."""
    return "".join(",".join("%.17g" % x for x in row) + "\n" for row in rows.tolist()).encode()


def written(rows) -> bytes:
    out = io.BytesIO()
    cli._write_rows(out, np.asarray(rows, dtype=float))
    return out.getvalue()


def float_of_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def bits_of(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


class TestCsvKernel:
    """The vectorised writer puts out the bytes of "%.17g" % x for every value."""

    @given(values=st.lists(st.one_of(
        st.integers(0, bits_of(1.0)).map(float_of_bits),  # any double in [0, 1]
        st.integers(bits_of(1e-4), bits_of(1.0)).map(float_of_bits),  # the digit route
        st.floats(),  # negative, > 1, subnormal, infinite, NaN
    ), min_size=1, max_size=200), d=st.integers(1, 7))
    @settings(max_examples=300, deadline=None)
    def test_equals_percent_format(self, values, d):
        rows = np.array(values + [0.5] * (-len(values) % d)).reshape(-1, d)
        assert written(rows) == percent_rows(rows)

    @pytest.mark.parametrize("power", [1e-4, 1e-3, 1e-2, 0.1, 1.0])
    def test_ulps_around_powers_of_ten(self, power):
        rows = np.array([[float_of_bits(bits_of(power) + k)] for k in range(-3000, 3001)])
        assert written(rows) == percent_rows(rows)

    def test_trailing_zeros_short_decimals_and_ties(self):
        # 0.001 and 0.01 end in 16 zeros at 17 digits; k / 2^18 with k odd
        # in [2^17, 2^18) ends in an exact half at the 18th digit
        values = [0.001, 0.01, 0.1, 0.5, 0.25, 0.125, 0.0625, 0.2, 0.3, 0.7]
        values += [k / 10 ** j for j in range(1, 8) for k in range(1, 10 ** min(j, 3), 7)]
        values += [k / 2 ** 18 for k in range(2 ** 17 + 1, 2 ** 18, 14)]
        rows = np.array(values + [0.5] * (-len(values) % 2)).reshape(-1, 2)
        assert written(rows) == percent_rows(rows)

    def test_d200_blocks_stay_small(self):
        rows = np.random.default_rng(200).random((100, 200))
        rows[::9, ::13] = np.resize(EDGE_VALUES, rows[::9, ::13].shape)
        values = []  # per write

        class Blocks(io.BytesIO):
            def write(self, b):
                values.append(b.count(b",") + b.count(b"\n"))
                return super().write(b)

        out = Blocks()
        cli._write_rows(out, rows)
        assert out.getvalue() == percent_rows(rows)
        assert sum(values) == rows.size and max(values) <= CSV_BLOCK_ROWS
        assert all(v % 200 == 0 for v in values)  # whole rows per block


class TestMeasure:
    def test_report_structure(self, fgm_config, capsys):
        assert main(["measure", "--config", str(fgm_config), "--n", "20000"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analytic"]["rho_s"] == pytest.approx(1 / 3)
        assert abs(payload["z"]["rho_s"]) < 5
        assert payload["n"] == 20000

    def test_copula_id_is_the_sidecar_config_hash(self, fgm_config, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert main(["sample", "--config", str(fgm_config), "--n", "1000", "--out", str(out)]) == 0
        assert main(["measure", "--config", str(fgm_config), "--n", "1000"]) == 0
        report = json.loads(capsys.readouterr().out)
        meta = json.loads((tmp_path / "rows.csv.meta.json").read_text())
        assert report["copula_id"] == meta["config_hash"]

    def test_csv_comparison_table(self, fgm_config, capsys):
        assert main(["measure", "--config", str(fgm_config), "--n", "5000",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "measure,analytic,empirical,se,z"
        rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
        assert float(rows["rho_s"][1]) == pytest.approx(1 / 3)
        assert rows["lambda_l"][1] == "0" and rows["lambda_l"][2] == ""

    def test_zero_analytic_values_print_unsigned(self, tmp_path, capsys):
        # legendre2 has kernel area 0, so rho_s = 12 theta kappa1 * 0 with theta < 0
        cfg = write_config(tmp_path / "nz.json", a=-0.778, margins=[
            {"kernel": {"id": "fgm_damped"}}, {"kernel": {"id": "legendre2"}}])
        assert main(["measure", "--config", str(cfg), "--n", "1000"]) == 0
        analytic = json.loads(capsys.readouterr().out)["analytic"]
        assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in analytic.values())
        assert main(["measure", "--config", str(cfg), "--n", "1000", "--format", "csv"]) == 0
        rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:]]
        assert {row[1] for row in rows} == {"0"}

    def test_explicit_pair_margins(self, tmp_path, capsys):
        u = np.linspace(0, 1, 2001)
        cfg = tmp_path / "pair.json"
        cfg.write_text(json.dumps({
            "schema": "sarmanov-config/1", "d": 2,
            "margins": [
                {"pair": {"pi": 0.5, "u": u.tolist(), "F0": (u ** 2).tolist(),
                          "F1": (2 * u - u ** 2).tolist()}},
                {"kernel": {"id": "fgm"}},
            ],
            "theta": 0.5, "n": 5000, "seed": 11,
        }))
        assert main(["measure", "--config", str(cfg), "--n", "5000"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analytic"]["rho_s"] == pytest.approx(1 / 6, abs=1e-3)

    def test_exchangeable_beyond_pmf_cap(self, tmp_path, capsys):
        # d = 25 needs no 2^d table: the orthant coefficients sum the
        # exchangeable law over j, the comonotone one over d + 1 states
        d = 25
        for name in ("epd", "comonotone"):
            cfg = tmp_path / f"{name}25.json"
            cfg.write_text(json.dumps({
                "schema": "sarmanov-config/1", "d": d, "margins": [{"kernel": {"id": "fgm"}}] * d,
                "bernoulli": {"variant": "named", "name": name}, "n": 2000, "seed": 3,
            }))
            assert main(["measure", "--config", str(cfg)]) == 0, name
            analytic = json.loads(capsys.readouterr().out)["analytic"]
            assert math.isfinite(analytic["rho_minus"]) and math.isfinite(analytic["rho_plus"])

    def test_measure_imports_no_scipy(self, tmp_path):
        cfg = write_config(tmp_path / "fgm_hki.json", a=0.5, n=20000, margins=[
            {"kernel": {"id": "fgm"}}, {"kernel": {"id": "hki", "params": {"p": 2}}}])
        argv = ["measure", "--config", str(cfg), "--out", str(tmp_path / "report")]
        code = (
            "import sys\n"
            "import sarmanov.cli\n"
            f"assert sarmanov.cli.main({argv!r} + ['--format', 'json']) == 0\n"
            f"assert sarmanov.cli.main({argv!r} + ['--format', 'csv']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=src_env())
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"
        assert (tmp_path / "report").read_text().startswith("measure,analytic,empirical,se,z\n")


class TestCertify:
    def test_pass_report(self, fgm_config, capsys):
        assert main(["certify", "--config", str(fgm_config), "--grid", "30"]) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        assert header.startswith("#") and "passed=true" in header
        assert out.splitlines()[1] == "cell,increment"

    def test_violation_exit_one_with_cell(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.json", a=1.2)
        assert main(["certify", "--config", str(cfg), "--grid", "30"]) == 1
        out = capsys.readouterr().out
        assert "passed=false" in out.splitlines()[0]
        worst_cell, worst_val = out.splitlines()[2].split(",")
        assert float(worst_val) < -1e-9
        assert "|" in worst_cell

    def test_validate_certify_agreement(self, tmp_path, capsys):
        for a, expect in ((1.0, 0), (1.2, 1), (-1.0, 0), (-1.3, 1)):
            cfg = write_config(tmp_path / "x.json", a=a)
            v = main(["validate", "--config", str(cfg)])
            c = main(["certify", "--config", str(cfg), "--grid", "40"])
            capsys.readouterr()
            assert v == expect and c == expect, a

    def test_trivariate_certification(self, tmp_path, capsys):
        cfg = tmp_path / "tri.json"
        cfg.write_text(json.dumps({
            "schema": "sarmanov-config/1", "d": 3,
            "margins": [{"kernel": {"id": "checkerboard"}}] * 3,
            "bernoulli": {"variant": "named", "name": "epd"},
        }))
        assert main(["certify", "--config", str(cfg), "--grid", "12"]) == 0

    def test_agreement_d3_negative_weight_fails_both(self, tmp_path, capsys):
        # sum-law weight w_1 = -0.06 keeps mean pi = 1/2 but breaks
        # nonnegativity; block densities of checkerboard margins make the
        # violation grid-resolvable
        cfg = tmp_path / "neg.json"
        cfg.write_text(json.dumps({
            "schema": "sarmanov-config/1", "d": 3,
            "margins": [{"kernel": {"id": "checkerboard"}}] * 3,
            "bernoulli": {"variant": "exchangeable_sum",
                          "w": [0.44, -0.06, 0.3, 0.32]},
        }))
        assert main(["validate", "--config", str(cfg)]) == 1
        assert main(["certify", "--config", str(cfg), "--grid", "20"]) == 1
        capsys.readouterr()

    def test_powered_certification(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "pw.json", a=0.5, r=2)
        assert main(["certify", "--config", str(cfg), "--grid", "40"]) == 0
        capsys.readouterr()

    def test_agreement_d4_epd_passes_both(self, tmp_path, capsys):
        cfg = tmp_path / "quad.json"
        cfg.write_text(json.dumps({
            "schema": "sarmanov-config/1", "d": 4,
            "margins": [{"kernel": {"id": "checkerboard"}}] * 4,
            "bernoulli": {"variant": "named", "name": "epd"},
        }))
        assert main(["validate", "--config", str(cfg)]) == 0
        assert main(["certify", "--config", str(cfg), "--grid", "12"]) == 0
        capsys.readouterr()


class TestPoweredGate:
    """A powered config builds for any a; its base law's pmf is the verdict,
    and certify checks the powered cdf itself."""

    KEYS = ["valid", "kind", "r", "a", "sufficient_interval", "sufficient_only", "note", "pis"]

    def test_gap_refused_by_sampler_passed_by_oracle(self, tmp_path, capsys):
        # fgm x fgm at r = 2: the base law admits [-1/4, 1/2], the powered
        # copula is valid on [-1/2, 1/2]
        cfg = write_config(tmp_path / "gap.json", a=-0.4, r=2)
        assert main(["validate", "--config", str(cfg)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == self.KEYS
        assert not payload["valid"] and payload["r"] == 2 and len(payload["pis"]) == 2
        assert main(["sample", "--config", str(cfg)]) == 1
        assert main(["measure", "--config", str(cfg), "--n", "1000"]) == 1
        assert "law fails nonnegativity" in capsys.readouterr().err
        assert main(["certify", "--config", str(cfg)]) == 0
        capsys.readouterr()

    def test_oracle_fails_past_the_copula_range(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "past.json", a=-0.55, r=2)
        assert main(["certify", "--config", str(cfg)]) == 1
        capsys.readouterr()

    def test_large_a_is_inadmissible_not_malformed(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "big.json", a=1e5, r=3, margins=[
            {"kernel": {"id": "sin"}}, {"kernel": {"id": "sin"}}])
        assert main(["validate", "--config", str(cfg)]) == 1
        assert not json.loads(capsys.readouterr().out)["valid"]

    @pytest.mark.parametrize("a", [0.25, -0.4, 0.9])
    def test_csv_pmf_export_is_usage_error(self, tmp_path, capsys, a):
        cfg = write_config(tmp_path / "pw.json", a=a, r=2)
        assert main(["validate", "--config", str(cfg), "--format", "csv"]) == 2
        assert "unpowered" in capsys.readouterr().err


class TestConfigRules:
    def test_explicit_pair_with_a_rejected(self, tmp_path):
        u = np.linspace(0, 1, 101)
        cfg = tmp_path / "pair_a.json"
        cfg.write_text(json.dumps({
            "schema": "sarmanov-config/1", "d": 2,
            "margins": [
                {"pair": {"pi": 0.5, "u": u.tolist(), "F0": (u ** 2).tolist(),
                          "F1": (2 * u - u ** 2).tolist()}},
                {"kernel": {"id": "fgm"}},
            ],
            "a": 0.5,
        }))
        assert main(["sample", "--config", str(cfg)]) == 2

    def test_explicit_pair_missing_zero_at_an_end_is_a_usage_error(self, tmp_path, capsys):
        # both tables are within 1e-9 of 0 at u = 0 and calibrated at pi = 0.9,
        # but the induced kernel's g(0) = 1.8e-9 is beyond ANCHOR_TOL
        u = np.linspace(0, 1, 257)
        F0, F1 = u ** 2, (u - 0.1 * u ** 2) / 0.9
        F0[0], F1[0] = -1e-9, 1e-9
        cfg = tmp_path / "edge.json"
        cfg.write_text(json.dumps({"schema": "sarmanov-config/1", "d": 2, "theta": 0.1, "margins": [
            {"pair": {"pi": 0.9, "u": u.tolist(), "F0": F0.tolist(), "F1": F1.tolist()}},
            {"kernel": {"id": "fgm"}},
        ]}))
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "g(0)=1.8e-09" in capsys.readouterr().err

    def test_margin_pi_mismatch_shows_the_numbers_that_differ(self, tmp_path, capsys):
        cfg = tmp_path / "w.json"
        cfg.write_text(json.dumps({
            "schema": "sarmanov-config/1", "d": 3, "margins": [{"kernel": {"id": "fgm"}}] * 3,
            "bernoulli": {"variant": "exchangeable_sum",
                          "w": [0.25 - 3e-9, 0.25, 0.25, 0.25 + 3e-9]},
        }))
        assert main(["validate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        margins, bern = (json.loads(part[part.index("["):part.index("]") + 1])
                         for part in err.split(" disagree with "))
        assert margins == [0.5] * 3 and bern[0] != 0.5

    def test_named_coupling_needs_half_margins(self, tmp_path):
        cfg = tmp_path / "epd_bad.json"
        cfg.write_text(json.dumps({
            "schema": "sarmanov-config/1", "d": 3,
            "margins": [{"kernel": {"id": "hki", "params": {"p": 2}}}] * 3,
            "bernoulli": {"variant": "named", "name": "epd"},
        }))
        assert main(["validate", "--config", str(cfg)]) == 2

    def test_both_a_and_theta_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "ab.json", theta=0.5)
        assert main(["validate", "--config", str(cfg)]) == 2

    def test_wrong_margin_count_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "m.json",
                           margins=[{"kernel": {"id": "fgm"}}])
        assert main(["validate", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("command", ["validate", "sample"])
    @pytest.mark.parametrize("overrides", [
        {"a": "x"},
        {"a": "0.5"},
        {"a": float("nan")},
        {"a": float("inf")},
        {"seed": True},
        {"n": True},
        {"margins": [{"kernel": {"id": "hki", "params": {"p": "2"}}}, {"kernel": {"id": "fgm"}}]},
        {"a": None, "theta": 0.5, "margins": [
            {"pair": {"pi": 0.5, "u": [0, 0.5, 1], "F0": [0, 0.25, 1], "F1": [0, "0.75", 1]}},
            {"kernel": {"id": "fgm"}}]},
        {"d": 3, "a": None, "margins": [{"kernel": {"id": "fgm"}}] * 3,
         "bernoulli": {"variant": "full_pmf", "pmf": {"000": "0.5", "111": 0.5}}},
        {"d": 3, "a": None, "margins": [{"kernel": {"id": "fgm"}}] * 3,
         "bernoulli": {"variant": "exchangeable_sum", "w": [0.5, float("nan"), 0, 0.5]}},
        {"a": None, "theta": 0.5, "margins": [
            {"pair": {"pi": 0.5, "u": [0, 0.5, 1], "F0": [0, 0.25], "F1": [0, 0.75, 1]}},
            {"kernel": {"id": "fgm"}}]},
        {"a": None, "theta": 0.5, "margins": [
            {"pair": {"pi": 0.5, "u": [], "F0": [], "F1": []}},
            {"kernel": {"id": "fgm"}}]},
        {"a": None, "theta": 0.5, "margins": [
            {"pair": {"pi": 0.5, "u": [0, 0.5, 0.5, 1], "F0": [0, 0.25, 0.25, 1],
                      "F1": [0, 0.75, 0.75, 1]}},
            {"kernel": {"id": "fgm"}}]},
    ], ids=["a_str", "a_numeric_str", "a_nan", "a_inf", "seed_bool", "n_bool", "param_str",
            "pair_str", "pmf_str", "w_nan", "pair_lengths", "pair_empty", "pair_u_repeated"])
    def test_malformed_number_is_usage_error(self, tmp_path, capsys, command, overrides):
        # json.dumps writes NaN and Infinity literals, which json.loads accepts
        cfg = {"schema": "sarmanov-config/1", "d": 2,
               "margins": [{"kernel": {"id": "fgm"}}] * 2, "a": 0.5, "n": 50, "seed": 1}
        cfg.update(overrides)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({k: v for k, v in cfg.items() if v is not None}))
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["validate", "sample"])
    @pytest.mark.parametrize("bernoulli", [
        {"variant": "full_pmf", "pmf": {"000": 0.7}},
        {"variant": "exchangeable_sum", "w": [0.7, 0.1, 0.1, 0.3]},
        {"variant": "exchangeable_sum", "w": [0.7, 0.1, 0.1, 0.1]},
    ], ids=["pmf_sum", "w_sum", "w_pis_disagree"])
    def test_inconsistent_law_is_usage_error(self, tmp_path, capsys, command, bernoulli):
        cfg = tmp_path / "law.json"
        cfg.write_text(json.dumps({"schema": "sarmanov-config/1", "d": 3,
                                   "margins": [{"kernel": {"id": "fgm"}}] * 3,
                                   "bernoulli": bernoulli}))
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["validate", "sample"])
    def test_margin_within_rounding_of_one_is_usage_error(self, tmp_path, capsys, command):
        w = np.array([0, 0, 0, 0, 2.220446049250313e-16, 0.5])
        cfg = tmp_path / "law.json"
        cfg.write_text(json.dumps({"schema": "sarmanov-config/1", "d": 5,
                                   "margins": [{"kernel": {"id": "fgm"}}] * 5,
                                   "bernoulli": {"variant": "exchangeable_sum",
                                                 "w": (w / w.sum()).tolist()}}))
        assert main([command, "--config", str(cfg)]) == 2
        assert "2^-52" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "bounds", "sample", "measure"])
    @pytest.mark.parametrize("kernel", [
        {"id": "lai_xie", "params": {"a": 300, "b": 300}},
        {"id": "bkb", "params": {"p": 0.5, "q": 400.5}},
        {"id": "bkb", "params": {"p": 1e-300, "q": 2}},
    ], ids=["lai_xie", "bkb_q400.5", "bkb_p1e-300"])
    def test_constants_beyond_float_range_are_usage_errors(self, tmp_path, capsys, command, kernel):
        cfg = write_config(tmp_path / "k.json", a=0.1,
                           margins=[{"kernel": kernel}, {"kernel": {"id": "fgm"}}])
        assert main([command, "--config", str(cfg)]) == 2
        assert "beyond the float range" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "bounds"])
    def test_kernel_margin_outside_the_floor_is_usage_error(self, tmp_path, capsys, command):
        # hki at p = 1e300 has lam = -1e-300, so pi = 1 / (1 + 1e-300) rounds to 1
        cfg = write_config(tmp_path / "k.json", a=0.1, margins=[
            {"kernel": {"id": "hki", "params": {"p": 1e300}}}, {"kernel": {"id": "fgm"}}])
        assert main([command, "--config", str(cfg)]) == 2
        assert "2^-52" in capsys.readouterr().err

    @pytest.mark.parametrize("d", [21, 40])
    def test_full_pmf_cap_is_checked_before_any_table(self, tmp_path, capsys, d):
        import tracemalloc

        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({"schema": "sarmanov-config/1", "d": d,
                                   "margins": [{"kernel": {"id": "fgm"}}] * d,
                                   "bernoulli": {"variant": "full_pmf", "pmf": {"0" * d: 1.0}}}))
        tracemalloc.start()
        try:
            code = main(["validate", "--config", str(cfg)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "d <= 20" in capsys.readouterr().err
        assert peak < 1 << 20  # a 2^d table takes 2^(d + 3) bytes

    @pytest.mark.parametrize("command", ["sample", "measure"])
    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--n", "-3"], ["--n", "0"]],
                             ids=["seed_negative", "n_negative", "n_zero"])
    def test_override_flags_keep_config_bounds(self, fgm_config, capsys, command, flags):
        assert main([command, "--config", str(fgm_config)] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flags[0]} must be an integer >= ")

    @pytest.mark.parametrize("where", ["missing_directory", "a_directory"])
    @pytest.mark.parametrize("command", ["catalog", "validate", "bounds", "sample", "measure",
                                         "certify"])
    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, command, where):
        out = tmp_path / "no" / "such" / "x" if where == "missing_directory" else tmp_path
        cfg = write_config(tmp_path / "c.json", n=1000)  # measure takes n >= 1000
        config = [] if command == "catalog" else ["--config", str(cfg)]
        assert main([command, *config, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")

    def test_unwritable_sidecar_is_usage_error(self, fgm_config, tmp_path, capsys, monkeypatch):
        draws = []
        monkeypatch.setattr(cli, "sample", lambda *args: draws.append(args))
        out = tmp_path / "rows.csv"
        (tmp_path / "rows.csv.meta.json").mkdir()
        assert main(["sample", "--config", str(fgm_config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}.meta.json: ")
        assert draws == [] and not out.exists()  # the CSV opened first is removed again

    @pytest.mark.parametrize("command", ["sample", "measure"])
    def test_unwritable_out_is_refused_before_the_draw(self, fgm_config, tmp_path, capsys,
                                                       monkeypatch, command):
        draws = []
        monkeypatch.setattr(cli, "sample", lambda *args: draws.append(args))
        out = tmp_path / "no" / "x.csv"
        assert main([command, "--config", str(fgm_config), "--n", "1000", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
        assert draws == []

    @pytest.mark.parametrize("command", ["sample", "measure"])
    def test_refused_draw_leaves_no_files(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "gap.json", a=-0.4, r=2, n=1000)  # the base law is refused
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert "law fails nonnegativity" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gap.json"]

    @pytest.mark.parametrize("grid", ["0", "-1", "-3"])
    def test_certify_grid_below_one_is_usage_error(self, fgm_config, capsys, grid):
        assert main(["certify", "--config", str(fgm_config), "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --grid must be an integer >= 1")

    def test_certify_lattice_cap_is_checked_before_any_array(self, tmp_path, capsys):
        import tracemalloc

        # d = 6 at the default grid 20 is 85.8M lattice points
        cfg = tmp_path / "d6.json"
        cfg.write_text(json.dumps({"schema": "sarmanov-config/1", "d": 6,
                                   "margins": [{"kernel": {"id": "fgm"}}] * 6,
                                   "bernoulli": {"variant": "named", "name": "independent"}}))
        tracemalloc.start()
        try:
            code = main(["certify", "--config", str(cfg)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "lattice" in capsys.readouterr().err
        assert peak < 1 << 20

    def test_measure_bit_exact_reproducible(self, fgm_config, tmp_path):
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert main(["measure", "--config", str(fgm_config), "--n", "5000",
                     "--out", str(out1)]) == 0
        assert main(["measure", "--config", str(fgm_config), "--n", "5000",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestSubprocessEntry:
    def test_kernel_constants_load_no_scipy_solver(self, tmp_path):
        # slope polish, areas and the sin_asym root are computed in the package
        cfg = write_config(tmp_path / "sin2.json", a=0.1, r=2, n=2000,
                           margins=[{"kernel": {"id": "sin"}}] * 2)
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import sarmanov.cli\n"
            "from sarmanov.copula import farlie_to_sarmanov, transform_kernel\n"
            "from sarmanov.kernels import CATALOG_IDS, DEFAULT_PARAMS, catalog_lookup\n"
            "for name in CATALOG_IDS:\n"
            "    k = catalog_lookup(name, DEFAULT_PARAMS.get(name, {}))\n"
            "    transform_kernel(k, 2), transform_kernel(k, 3)\n"
            "farlie_to_sarmanov(lambda u: 1 - np.asarray(u, float), alpha=0.6)\n"
            "for command in ('validate', 'sample'):\n"
            f"    out = {str(tmp_path)!r} + '/' + command\n"
            f"    assert sarmanov.cli.main([command, '--config', {str(cfg)!r}, '--out', out]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] in\n"
            "             (['scipy', 'optimize'], ['scipy', 'integrate'])))\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=src_env())
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"

    def test_no_scipy_module_loads(self, tmp_path):
        # the normal functions and beta are the package's own: with scipy
        # unimportable, every subcommand runs on norm_lee and on non-integer
        # bkb and lai_xie, with the exit codes they had when scipy supplied them
        k = lambda i, **p: {"kernel": {"id": i, **({"params": p} if p else {})}}  # noqa: E731
        configs = [write_config(tmp_path / f"{name}.json", n=2000, **cfg) for name, cfg in [
            ("norm_lee", {"theta": 0.3, "a": None, "margins": [k("norm_lee"), k("lee_exponential")]}),
            ("bkb", {"a": 0.5, "margins": [k("bkb", p=1.5, q=2), k("fgm")]}),
            ("lai_xie", {"a": 0.5, "margins": [k("lai_xie", a=2.5, b=3.5), k("fgm")]})]]
        commands = [["validate"], ["validate", "--format", "csv"], ["bounds"], ["sample"],
                    ["measure"], ["certify"]]
        runs = [["catalog"]] + [c + ["--config", str(cfg), "--out", str(tmp_path / f"out{i}")]
                                for cfg in configs for i, c in enumerate(commands)]
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import sarmanov.cli\n"
            "from contextlib import redirect_stdout\n"
            "import io\n"
            f"codes = []\n"
            f"for argv in {runs!r}:\n"
            "    with redirect_stdout(io.StringIO()):\n"
            "        codes.append(sarmanov.cli.main(argv))\n"
            "print(codes)\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=src_env())
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == str([0] * len(runs))

    def test_module_invocation(self, tmp_path):
        res = subprocess.run(
            [sys.executable, "-m", "sarmanov", "catalog"],
            capture_output=True, text=True, env=src_env(),
        )
        assert res.returncode == 0
        assert res.stdout.startswith("id,params")
