"""Neighborhood overlap, the shared-code semantics probe, and run reports."""

import json
import re

import numpy as np
import pytest

from codepress.codes import CodeTable
from codepress.composer import ComposerKind, init_codebook
from codepress.metrics import ProbeReport, code_semantics_probe, nn_overlap
from codepress.reporting import (
    MISSING,
    RunReport,
    accounting_for,
    kd_config,
    load_reports,
    save_reports,
    text_table,
)
from codepress.sweeps import _failed


class TestNNOverlap:
    def test_identical_matrices_score_one(self):
        matrix = np.random.default_rng(0).normal(size=(50, 8))
        assert nn_overlap(matrix, matrix, k=5) == 1.0

    def test_orthogonal_rotation_preserves_neighborhoods(self):
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(60, 10))
        q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
        assert nn_overlap(matrix, matrix @ q, k=7) == pytest.approx(1.0)

    def test_positive_scaling_preserves_neighborhoods(self):
        rng = np.random.default_rng(2)
        matrix = rng.normal(size=(40, 6))
        assert nn_overlap(matrix, 3.5 * matrix, k=4) == 1.0

    def test_unrelated_matrices_score_near_chance(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(1000, 16))
        b = rng.normal(size=(1000, 16))
        score = nn_overlap(a, b, k=10)
        assert abs(score - 10 / 999) < 0.01

    def test_k_bounds(self):
        matrix = np.zeros((10, 3))
        with pytest.raises(ValueError, match="k must"):
            nn_overlap(matrix, matrix, k=0)
        with pytest.raises(ValueError, match="k must"):
            nn_overlap(matrix, matrix, k=10)

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="same symbols"):
            nn_overlap(np.zeros((5, 2)), np.zeros((6, 2)), k=2)

    def test_zero_rows_are_tolerated(self):
        matrix = np.random.default_rng(4).normal(size=(8, 3))
        matrix[2] = 0.0
        score = nn_overlap(matrix, matrix, k=2)
        assert 0.0 <= score <= 1.0


def colliding_table(codes):
    codes = np.asarray(codes)
    return CodeTable(
        symbols=[f"s{i}" for i in range(len(codes))],
        codes=codes,
        alphabet_size=int(codes.max()) + 1,
    )


class TestSemanticsProbe:
    def test_tight_groups_beat_global_pairs(self):
        rng = np.random.default_rng(5)
        # two collision groups whose members are near-duplicates
        base = rng.normal(size=(2, 6))
        matrix = np.concatenate(
            [base[i] + 0.01 * rng.normal(size=(4, 6)) for i in (0, 1)]
            + [rng.normal(size=(20, 6))]
        )
        codes = np.array([[0, 0]] * 4 + [[1, 1]] * 4 + [[j, 3] for j in range(20)])
        # make the 20 fillers unique: vary both digits
        codes[8:, 0] = np.arange(20) % 4
        codes[8:, 1] = 2 + np.arange(20) // 4
        report = code_semantics_probe(colliding_table(codes), matrix, rng)
        assert report.available
        assert report.intra_pairs == 12  # two groups of four
        assert report.intra_mean > 0.99
        assert report.excess_in_se_units > 3.0

    def test_no_collisions_reports_unavailable(self):
        codes = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        report = code_semantics_probe(
            colliding_table(codes), np.random.default_rng(6).normal(size=(4, 3)),
            np.random.default_rng(0),
        )
        assert report.available is False
        assert report.intra_pairs == 0

    def test_random_codes_show_no_excess(self):
        rng = np.random.default_rng(7)
        matrix = rng.normal(size=(200, 8))
        codes = rng.integers(0, 3, (200, 2))  # 9 possible codes -> collisions
        report = code_semantics_probe(colliding_table(codes), matrix, rng)
        assert report.available
        assert abs(report.excess_in_se_units) < 5.0

    def test_intra_pair_sampling_cap(self):
        rng = np.random.default_rng(8)
        codes = np.zeros((80, 2), dtype=np.int64)  # one group: 3160 pairs
        matrix = rng.normal(size=(80, 4))
        report = code_semantics_probe(
            colliding_table(codes), matrix, rng, max_intra_pairs=100
        )
        assert report.intra_pairs == 100

    def test_matrix_table_alignment_checked(self):
        with pytest.raises(ValueError, match="align"):
            code_semantics_probe(
                colliding_table(np.zeros((4, 2), dtype=np.int64)),
                np.zeros((5, 3)), np.random.default_rng(0),
            )

    def test_excess_property(self):
        report = ProbeReport(
            available=True, intra_mean=0.8, intra_pairs=10,
            global_mean=0.2, global_se=0.1, global_pairs=100,
        )
        assert report.excess_in_se_units == pytest.approx(6.0)


KD_CONFIG = {
    "family": "kd",
    "vocab_size": 10_000,
    "embed_dim": 200,
    "alphabet_size": 32,
    "code_length": 32,
    "digit_dim": 200,
    "extra_params": 0,
}


class TestAccountingEcho:
    def test_kd_figures_recomputed_from_echo(self):
        params, bits, ratio = accounting_for(KD_CONFIG)
        assert params == 32 * 32 * 200
        assert bits == 10_000 * 32 * 5 + 32 * 32 * 32 * 200
        assert ratio == (32 * 10_000 * 200) / bits

    def test_family_required(self):
        with pytest.raises(ValueError, match="family"):
            accounting_for({"vocab_size": 10, "embed_dim": 4})

    def test_missing_echo_key_is_named(self):
        failed_row = {"family": "kd", "axis": "alphabet_size", "value": "1", "error": "boom"}
        with pytest.raises(ValueError, match="'vocab_size'"):
            accounting_for(failed_row)
        with pytest.raises(ValueError, match="'rank'"):
            accounting_for({"family": "lowrank", "vocab_size": 10, "embed_dim": 4})

    def test_kd_config_reads_the_artifacts(self):
        rng = np.random.default_rng(3)
        table = CodeTable([f"s{i}" for i in range(12)], rng.integers(0, 4, (12, 3)), 4)
        book = init_codebook(4, 3, 5, 7, ComposerKind.HIDDEN, rng, hidden_width=6)
        config = kd_config(table, book, embed_dim=7)
        assert config == {
            "family": "kd", "vocab_size": 12, "embed_dim": 7, "alphabet_size": 4,
            "code_length": 3, "digit_dim": 5, "extra_params": book.extra_param_count(),
            "composer": "linear-hidden",
        }
        params = accounting_for(config)[0]
        assert params == sum(t.data.size for t in book.parameters().values())

    def test_all_families_have_formulas(self):
        base = {"vocab_size": 1000, "embed_dim": 64}
        full = accounting_for({**base, "family": "full"})
        assert full == (64_000, 32 * 64_000, 1.0)
        lowrank = accounting_for({**base, "family": "lowrank", "rank": 8})
        assert lowrank[0] == 8 * (1000 + 64)
        assert lowrank[1] == 32 * 8 * 1064
        pq = accounting_for({**base, "family": "pq", "subspaces": 4, "n_centroids": 16})
        assert pq[0] == 16 * 64  # centroid entries
        assert pq[1] == 1000 * 4 * 4 + 32 * 16 * 64
        scalar = accounting_for({**base, "family": "scalar", "bits_per_value": 8})
        assert scalar[1] == 1000 * 64 * 8 + 64


class TestReports:
    def test_report_storage_is_that_of_the_echo(self):
        report = RunReport("kd", KD_CONFIG, metrics={"val_mse": 0.5})
        assert (report.params_count, report.bits, report.compression_ratio) == \
            accounting_for(KD_CONFIG)
        assert report.bits == accounting_for(KD_CONFIG)[1]

    @staticmethod
    def saved_with_second_record(tmp_path, corrupt):
        """Two kd reports saved, the second record changed by ``corrupt``."""
        path = tmp_path / "reports.jsonl"
        save_reports(path, [RunReport("kd", KD_CONFIG)] * 2)
        good, bad = path.read_text().splitlines()
        record = json.loads(bad)
        corrupt(record)
        path.write_text(good + "\n" + json.dumps(record) + "\n")
        return path

    def test_verify_catches_corrupted_bits(self, tmp_path):
        path = self.saved_with_second_record(
            tmp_path, lambda record: record.update(bits=record["bits"] + 1))
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: 'bits'") + ".*implies"):
            load_reports(path)

    def test_verify_catches_corrupted_config(self, tmp_path):
        path = self.saved_with_second_record(
            tmp_path, lambda record: record["config"].update(alphabet_size=64))
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: ") + ".*implies"):
            load_reports(path)

    def test_jsonl_round_trip_is_exact(self, tmp_path):
        reports = [
            RunReport(
                "kd", KD_CONFIG,
                metrics={"val_mse": 0.1234567890123456789, "nn": 1 / 3,
                         "reconstruction_mse": 2.0**-37},
                wall_time_s=1.5,
            ),
            RunReport(
                "scalar(8bit)",
                {"family": "scalar", "vocab_size": 100, "embed_dim": 8,
                 "bits_per_value": 8},
                metrics={"nn_overlap": 0.25},
            ),
        ]
        path = tmp_path / "reports.jsonl"
        save_reports(path, reports)
        loaded = load_reports(path)
        assert loaded == reports
        assert loaded[0].metrics["val_mse"] == reports[0].metrics["val_mse"]
        assert loaded[0].metrics["reconstruction_mse"] == 2.0**-37
        assert loaded[1].metrics["nn_overlap"] == 0.25

    def test_jsonl_is_line_delimited(self, tmp_path):
        path = tmp_path / "reports.jsonl"
        save_reports(path, [RunReport("kd", KD_CONFIG)] * 3)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 3
        import json

        assert all(isinstance(json.loads(line), dict) for line in lines)

    def test_failed_row_round_trips(self, tmp_path):
        failed = _failed("kd[alphabet_size=1]", ValueError("boom"), axis="alphabet_size",
                         value="1")
        path = tmp_path / "reports.jsonl"
        save_reports(path, [RunReport("kd", KD_CONFIG), failed])
        loaded = load_reports(path)
        assert loaded == [RunReport("kd", KD_CONFIG), failed]
        assert (loaded[1].params_count, loaded[1].bits, loaded[1].compression_ratio) == \
            (0, 0, 0.0)
        # a failed run stores nothing, so a record of one that claims bits is rejected
        good, bad = path.read_text().splitlines()
        record = json.loads(bad)
        record["bits"] = 8
        path.write_text(good + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: 'bits'")):
            load_reports(path)


class TestTextTable:
    def test_comma_grouped_bits_and_dash_for_missing(self):
        full = RunReport(
            "full",
            {"family": "full", "vocab_size": 10_000, "embed_dim": 200},
        )
        kd = RunReport("kd", KD_CONFIG, metrics={"reconstruction_mse": 0.125,
                                                 "val_mse": 0.25})
        table = text_table([full, kd])
        assert "64,000,000" in table
        full_row = table.split("\n")[2].split()
        assert full_row[4:] == [MISSING] * 2  # full run has no reconstruction mse
        assert "1.00x" in table
        assert "0.1250" in table

    def test_header_and_alignment(self):
        report = RunReport("kd", KD_CONFIG)
        table = text_table([report])
        lines = table.split("\n")
        assert lines[0].startswith("method")
        assert set(lines[1]) <= {"-", " "}
        assert lines[2].startswith("kd")

    def test_metric_columns_sorted_union(self):
        a = RunReport("kd", KD_CONFIG, metrics={"zeta": 1.0})
        b = RunReport("kd", KD_CONFIG, metrics={"alpha": 2.0})
        header = text_table([a, b]).split("\n")[0]
        assert header.index("alpha") < header.index("zeta")

    def test_empty_reports_rejected(self):
        with pytest.raises(ValueError, match="no reports"):
            text_table([])

    def test_failed_row_shows_dashes_for_storage(self, tmp_path):
        failed = _failed("kd[code_length=1]", ValueError("boom"), axis="code_length", value="1")
        table = text_table([RunReport("kd", KD_CONFIG), failed])
        cells = table.split("\n")[3].split()
        assert cells[:2] == ["kd[code_length=1]", "FAILED"]
        assert cells[2:5] == [MISSING] * 3
        # the stored record keeps the placeholder zeros
        path = tmp_path / "reports.jsonl"
        save_reports(path, [failed])
        record = json.loads(path.read_text())
        assert (record["params_count"], record["bits"], record["compression_ratio"]) == (0, 0, 0.0)
