"""Malformed ``codes.txt``, ``codebook.bin``, text embedding and report files:
every one is rejected with a ValueError that names the file (and the line, for a
text body line), so the CLI reports it instead of printing a traceback."""

import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codepress.codes import CodeTable, load_code_table, save_code_table
from codepress.composer import ComposerKind, init_codebook, load_codebook, save_codebook
from codepress.datasets import load_embeddings, make_vocab, save_embeddings
from codepress.reporting import RunReport, load_reports, save_reports


def write(tmp_path, name, content):
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return path


def names(path, line=None):
    where = f"{path}:{line}:" if line is not None else f"{path}:"
    return "^" + re.escape(where)


class TestCodeTableErrors:
    def test_header_without_n(self, tmp_path):
        path = write(tmp_path, "codes.txt", "#kd K=4 D=2\na 1-2\n")
        with pytest.raises(ValueError, match=names(path) + ".*N="):
            load_code_table(path)

    def test_header_token_without_equals(self, tmp_path):
        path = write(tmp_path, "codes.txt", "#kd K=4 D D=2 N=1\na 1-2\n")
        with pytest.raises(ValueError, match=names(path) + ".*KEY=VALUE"):
            load_code_table(path)

    def test_non_integer_header_value(self, tmp_path):
        path = write(tmp_path, "codes.txt", "#kd K=four D=2 N=1\na 1-2\n")
        with pytest.raises(ValueError, match=names(path) + ".*integers"):
            load_code_table(path)

    def test_non_integer_digit_names_line(self, tmp_path):
        path = write(tmp_path, "codes.txt", "#kd K=4 D=2 N=2\na 1-2\nb 1-x\n")
        with pytest.raises(ValueError, match=names(path, 3) + ".*non-integer"):
            load_code_table(path)

    def test_out_of_range_digit_names_line(self, tmp_path):
        path = write(tmp_path, "codes.txt", "#kd K=4 D=2 N=1\na 1-4\n")
        with pytest.raises(ValueError, match=names(path, 2) + r".*\[0, 4\)"):
            load_code_table(path)

    def test_not_utf8(self, tmp_path):
        path = write(tmp_path, "codes.txt", b"#kd K=4 D=2 N=1\n\xff 1-2\n")
        with pytest.raises(ValueError, match=names(path) + ".*UTF-8"):
            load_code_table(path)

    def test_empty_table_loads(self, tmp_path):
        path = write(tmp_path, "codes.txt", "#kd K=4 D=2 N=0\n")
        assert load_code_table(path).codes.shape == (0, 2)


def small_book(kind, seed):
    return init_codebook(4, 3, 5, 6, kind, np.random.default_rng(seed), hidden_width=7)


class TestCodebookErrors:
    def test_shorter_than_header(self, tmp_path):
        path = write(tmp_path, "codebook.bin", b"KDCB" + b"\x01\x00\x00\x00" + b"\x00" * 10)
        with pytest.raises(ValueError, match=names(path) + ".*truncated header"):
            load_codebook(path)

    def test_unknown_composer_code(self, tmp_path):
        path = tmp_path / "codebook.bin"
        save_codebook(small_book(ComposerKind.LINEAR, 0), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 24, 9)  # the composer code field
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=names(path) + ".*unknown composer code 9"):
            load_codebook(path)

    def test_huge_shape_is_truncation_not_allocation(self, tmp_path):
        path = tmp_path / "codebook.bin"
        save_codebook(small_book(ComposerKind.LINEAR, 0), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 12, 2**32 - 1)  # code length D
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=names(path) + ".*truncated payload"):
            load_codebook(path)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "codebook.bin"
        save_codebook(small_book(ComposerKind.LINEAR, 0), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 36, float("nan"))
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=names(path) + ".*non-finite"):
            load_codebook(path)


def packed_codebook(tmp_path, kind_code, dprime, out_dim, hidden, flags, n_values):
    """A K=2, D=1 codebook.bin with the given header fields over ``n_values``
    zeros, so that only the header can be at fault."""
    header = struct.pack("<4sIIIIIIII", b"KDCB", 1, 2, 1, dprime, out_dim, kind_code, hidden, flags)
    return write(tmp_path, "codebook.bin", header + bytes(4 * n_values))


# (composer code, d', d, hidden width, flags, payload values, error); composer
# codes are 1 linear-sum, 2 linear-hidden, 3 lstm; the (1, 2, d') table holds 2 d'
# values.  Each payload has the size the header implies, so only the header's
# contradiction can be rejected.
CONTRADICTORY_HEADERS = {
    "embed-width-without-projection": (1, 3, 4, 0, 0, 6, "unprojected embedding width 4"),
    "zero-embed-width": (1, 3, 0, 0, 0, 6, "empty code shape"),
    "unknown-flag-bits": (1, 3, 3, 0, 4, 6, "unknown flag bits 0x4"),
    "tied-gate-on-linear-sum": (1, 3, 3, 0, 2, 6, "tied output gate on a linear-sum"),
    "hidden-width-on-lstm": (3, 3, 3, 5, 0, 6 + 4 * (9 + 3), "hidden width 5 on a lstm"),
    "zero-hidden-width": (2, 3, 3, 0, 0, 6 + 3, "hidden width 0 on a linear-hidden"),
    "projection-on-linear-hidden": (2, 3, 3, 2, 1, 6 + 9 + 6 + 2 + 6 + 3, "projection on linear"),
}


@pytest.mark.parametrize("case", CONTRADICTORY_HEADERS)
def test_codebook_header_contradicting_its_layout(tmp_path, case):
    *fields, error = CONTRADICTORY_HEADERS[case]
    path = packed_codebook(tmp_path, *fields)
    with pytest.raises(ValueError, match=names(path) + ".*" + re.escape(error)):
        load_codebook(path)


class TestEmbeddingFileErrors:
    def test_non_finite_value_names_line(self, tmp_path):
        for bad in ("nan", "inf", "-Infinity", "1e999"):
            path = write(tmp_path, "emb.txt", f"a 1 2\nb {bad} 3\n")
            with pytest.raises(ValueError, match=names(path, 2) + ".*non-finite"):
                load_embeddings(path)

    def test_duplicate_token_names_both_lines(self, tmp_path):
        path = write(tmp_path, "emb.txt", "a 1 2\nb 3 4\n\na 5 6\n")
        with pytest.raises(ValueError, match=names(path, 4) + ".*duplicate token 'a'.*line 1"):
            load_embeddings(path)

    def test_not_utf8_names_line(self, tmp_path):
        path = write(tmp_path, "emb.txt", b"a 1 2\nb 3 4\n\xff 5 6\n")
        with pytest.raises(ValueError, match=names(path, 3) + ".*UTF-8"):
            load_embeddings(path)


class TestReportFileErrors:
    def test_non_json_line_names_line(self, tmp_path):
        path = write(tmp_path, "reports.jsonl", "\n{not json\n")
        with pytest.raises(ValueError, match=names(path, 2)):
            load_reports(path)

    def test_missing_field_names_line(self, tmp_path):
        path = write(tmp_path, "reports.jsonl", '{"method": "full", "config": {}}\n')
        with pytest.raises(ValueError, match=names(path, 1) + ".*params_count"):
            load_reports(path)

    def test_unknown_field_names_line(self, tmp_path):
        path = tmp_path / "reports.jsonl"
        save_reports(path, [report(0)])
        path.write_text(path.read_text().replace('"bits"', '"bitz"'))
        with pytest.raises(ValueError, match=names(path, 1) + ".*bitz"):
            load_reports(path)

    def test_not_utf8_names_line(self, tmp_path):
        path = tmp_path / "reports.jsonl"
        save_reports(path, [report(0)])
        path.write_bytes(path.read_bytes() + b"\xff\n")
        with pytest.raises(ValueError, match=names(path, 2) + ".*utf-8"):
            load_reports(path)

    @pytest.mark.parametrize("field, value", [
        ("method", 3),
        ("config", [1, 2]),
        ("metrics", "val_loss"),
        ("params_count", "four"),
        ("params_count", 4.0),
        ("bits", True),
        ("compression_ratio", "1.5"),
        ("compression_ratio", None),
        # no longer report fields: a record carrying them at top level is rejected
        ("reconstruction_mse", "0.1"),
        ("nn_overlap", [0.5]),
        ("wall_time_s", False),
    ])
    def test_wrong_json_type_names_line(self, tmp_path, field, value):
        path = tmp_path / "reports.jsonl"
        save_reports(path, [report(0), report(1)])
        good, bad = path.read_text().splitlines()
        record = json.loads(bad)
        record[field] = value
        path.write_text(good + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ValueError, match=names(path, 2) + f".*'{field}'"):
            load_reports(path)

    def test_old_format_record_names_line(self, tmp_path):
        # reports once kept the reconstruction error and the neighborhood
        # overlap at top level; such a record is rejected, not half read
        path = tmp_path / "reports.jsonl"
        save_reports(path, [report(0)])
        good = path.read_text().strip()
        for field in ("reconstruction_mse", "nn_overlap"):
            record = json.loads(good)
            record[field] = 0.5
            path.write_text(good + "\n" + json.dumps(record) + "\n")
            with pytest.raises(ValueError, match=names(path, 2) + f".*'{field}'"):
                load_reports(path)

    def test_missing_storage_figure_names_line(self, tmp_path):
        path = tmp_path / "reports.jsonl"
        save_reports(path, [report(0), report(1)])
        good, bad = path.read_text().splitlines()
        record = json.loads(bad)
        del record["bits"]
        path.write_text(good + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ValueError, match=names(path, 2) + ".*'bits' is missing"):
            load_reports(path)

    @pytest.mark.parametrize("value", [0, 10.0, True, "12", None])
    def test_bad_echo_size_names_line_and_key(self, tmp_path, value):
        path = tmp_path / "reports.jsonl"
        save_reports(path, [report(0), report(1)])
        good, bad = path.read_text().splitlines()
        record = json.loads(bad)
        record["config"]["vocab_size"] = value
        path.write_text(good + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ValueError, match=names(path, 2) + ".*'vocab_size'"):
            load_reports(path)

    def test_echo_whose_ratio_overflows_names_line(self, tmp_path):
        # two rank-1 factors of a 10^400 x 10^400 table: the ratio is 5e399
        path = tmp_path / "reports.jsonl"
        save_reports(path, [report(0)])
        record = json.loads(path.read_text())
        record["config"].update(vocab_size=10**400, embed_dim=10**400)
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match=names(path, 1) + ".*too large"):
            load_reports(path)

    def test_numbers_and_nulls_load(self, tmp_path):
        path = tmp_path / "reports.jsonl"
        save_reports(path, [report(0)])
        record = json.loads(path.read_text())
        record.update(compression_ratio=2, wall_time_s=1.25)
        record["metrics"].update(reconstruction_mse=0, nn_overlap=None)
        path.write_text(json.dumps(record) + "\n")
        (loaded,) = load_reports(path)
        assert loaded.compression_ratio == 2 and loaded.wall_time_s == 1.25
        assert loaded.metrics["reconstruction_mse"] == 0 and loaded.metrics["nn_overlap"] is None


def report(seed: int) -> RunReport:
    # a 4 x 4 table as two rank-1 factors stores half the bits of the dense one
    return RunReport(method=f"lowrank[{seed}]",
                     config={"family": "lowrank", "vocab_size": 4, "embed_dim": 4, "rank": 1,
                             "seed": seed},
                     metrics={"val_loss": 0.25}, wall_time_s=None)


# -- fuzz: truncated, bit-flipped and header-mangled files ------------------------


def loads_or_names_file(loader, path):
    try:
        loader(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}:"), str(exc)


@st.composite
def mangled(draw, raw: bytes, header_len: int):
    how = draw(st.sampled_from(["truncate", "flip", "header"]))
    if how == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if how == "flip":
        data = bytearray(raw)
        for pos in draw(st.lists(st.integers(0, len(raw) - 1), min_size=1, max_size=4)):
            data[pos] ^= 1 << draw(st.integers(0, 7))
        return bytes(data)
    header = draw(st.binary(max_size=header_len + 8))
    return header + raw[header_len:]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 50), data=st.data())
def test_fuzzed_code_tables_load_or_name_the_file(tmp_path_factory, seed, data):
    rng = np.random.default_rng(seed)
    n, k, d = int(rng.integers(1, 6)), int(rng.integers(2, 12)), int(rng.integers(1, 4))
    table = CodeTable([f"s{i}" for i in range(n)], rng.integers(0, k, (n, d)), k)
    path = tmp_path_factory.mktemp("fuzz") / "codes.txt"
    save_code_table(table, path)
    raw = path.read_bytes()
    path.write_bytes(data.draw(mangled(raw, raw.index(b"\n") + 1)))
    loads_or_names_file(load_code_table, path)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(list(ComposerKind)), seed=st.integers(0, 50), data=st.data())
def test_fuzzed_codebooks_load_or_name_the_file(tmp_path_factory, kind, seed, data):
    path = tmp_path_factory.mktemp("fuzz") / "codebook.bin"
    save_codebook(small_book(kind, seed), path)
    raw = path.read_bytes()
    path.write_bytes(data.draw(mangled(raw, 36)))
    loads_or_names_file(load_codebook, path)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 50), data=st.data())
def test_fuzzed_embedding_files_load_or_name_the_file(tmp_path_factory, seed, data):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 6)), int(rng.integers(1, 4))
    path = tmp_path_factory.mktemp("fuzz") / "emb.txt"
    save_embeddings(path, make_vocab(n), rng.normal(size=(n, d)))
    raw = path.read_bytes()
    path.write_bytes(data.draw(mangled(raw, raw.index(b"\n") + 1)))
    loads_or_names_file(load_embeddings, path)


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 4), data=st.data())
def test_fuzzed_report_files_load_or_name_the_file(tmp_path_factory, rows, data):
    path = tmp_path_factory.mktemp("fuzz") / "reports.jsonl"
    save_reports(path, [report(i) for i in range(rows)])
    raw = path.read_bytes()
    path.write_bytes(data.draw(mangled(raw, raw.index(b"\n") + 1)))
    loads_or_names_file(load_reports, path)
