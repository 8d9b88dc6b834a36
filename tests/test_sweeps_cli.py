"""Config files, sweep/ablation drivers, and the command-line entry points."""

import hashlib
import json
from dataclasses import fields
from operator import attrgetter

import numpy as np
import pytest

from codepress.baselines import (
    evaluate_full,
    evaluate_low_rank,
    evaluate_pq,
    evaluate_scalar,
    random_codes,
)
from codepress.cli import main
from codepress.codes import CodeConfig, CodeTable, load_code_table, save_code_table
from codepress.composer import DEFAULT_HIDDEN_WIDTH, load_codebook
from codepress.configfile import (
    DEFAULTS,
    build_code_config,
    build_guidance_config,
    build_train_config,
    describe_defaults,
    parse_config,
)
from codepress.datasets import clustered_embeddings, load_embeddings, make_vocab, save_embeddings
from codepress.guidance import GuidanceConfig
from codepress.reporting import load_reports
from codepress.sweeps import (
    ABLATION_ORDER,
    ablation_variants,
    derived_seed,
    load_targets,
    run_ablation,
    run_one,
    sweep,
)
from codepress.tasks import ReconstructionTask
from codepress.training import TempSchedule, TrainConfig, fit


def config(**values) -> dict:
    """Parsed-config dict: the documented defaults with ``values`` set."""
    return {**{k: spec.default for k, spec in DEFAULTS.items()}, **values}


# sha256 of describe_defaults(): the key table --help-config prints
DEFAULTS_TABLE_SHA256 = "eeb712f6ed59fab94a6ebfb2518f2443ec92eaf4062a99aeab5649957fa99904"
# the table before optimizer, schedule_kind and mask_per_symbol were removed, and their lines in it
FORMER_DEFAULTS_TABLE_SHA256 = "dad86d183f17027cc807f9b697026f92804976b870ccc60a53fd78197260733e"
REMOVED_DEFAULTS_LINES = (
    (18, "optimizer                       adam  adam | sgd"),
    (22, "schedule_kind            exponential  constant | exponential"),
    (35, "mask_per_symbol                False  odg: one mask scalar per symbol instead of "
         "per coordinate"),
)

# config key -> (the config it builds: "code" or "train", attribute, a non-default value)
DATACLASS_KEYS = {
    "vocab_size": ("code", "vocab_size", 30),
    "alphabet_size": ("code", "alphabet_size", 5),
    "code_length": ("code", "code_length", 3),
    "digit_dim": ("code", "code_embed_dim", 6),
    "allow_lossy": ("code", "allow_lossy", False),
    "epochs": ("train", "epochs", 7),
    "batch_size": ("train", "batch_size", 9),
    "learning_rate": ("train", "learning_rate", 0.05),
    "grad_clip": ("train", "grad_clip", 2.5),
    "seed": ("train", "seed", 11),
    "use_straight_through": ("train", "use_straight_through", False),
    "entropy_weight": ("train", "entropy_weight", 0.3),
    "entropy_ramp_fraction": ("train", "entropy_ramp_fraction", 0.4),
    "tau_init": ("train", "schedule.tau_init", 0.9),
    "tau_min": ("train", "schedule.tau_min", 0.3),
    "tau_horizon": ("train", "schedule.horizon", 17),
    "guidance_mode": ("train", "guidance.mode", "odg"),
    "keep_prob": ("train", "guidance.keep_prob", 0.6),
    "match_weight": ("train", "guidance.match_weight", 0.5),
    "embed_weight": ("train", "guidance.embed_weight", 2.0),
    "logit_weight": ("train", "guidance.logit_weight", 3.0),
    "autoencoder": ("train", "guidance.autoencoder", False),
    "guidance_ramp_fraction": ("train", "guidance.ramp_fraction", 0.5),
    "encoder_hidden": ("train", "guidance.encoder_hidden", 12),
}


def temperatures(schedule: TempSchedule) -> list[float]:
    """The temperature at step 0, at the horizon and at ten times the horizon,
    an AUTO_HORIZON taken as the trainer resolves it for a 100-step fit."""
    horizon = schedule.horizon or 50
    return [schedule.temperature(step) for step in (0, horizon, 10 * horizon)]


def built_configs(settings: dict) -> dict:
    return {"code": build_code_config(settings), "train": build_train_config(settings)}


class TestConfigFile:
    def test_empty_file_yields_documented_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing but comments\n\n")
        settings = parse_config(path)
        assert settings == {k: spec.default for k, spec in DEFAULTS.items()}

    def test_values_parse_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "alphabet_size = 8   # digits per position\n"
            "learning_rate=0.05\n"
            "use_straight_through = false\n"
            "composer = lstm\n"
        )
        settings = parse_config(path)
        assert settings["alphabet_size"] == 8
        assert settings["learning_rate"] == 0.05
        assert settings["use_straight_through"] is False
        assert settings["composer"] == "lstm"

    def test_unknown_key_names_the_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("epochs = 5\nalphabetsize = 8\n")
        with pytest.raises(ValueError, match=r"bad\.cfg:2: unknown key"):
            parse_config(path)

    def test_missing_equals_sign(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("epochs 5\n")
        with pytest.raises(ValueError, match="expected 'key = value'"):
            parse_config(path)

    def test_bad_boolean(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("allow_lossy = maybe\n")
        with pytest.raises(ValueError, match="boolean"):
            parse_config(path)

    @pytest.mark.parametrize(
        "key", [key for key, spec in DEFAULTS.items() if isinstance(spec.default, float)])
    def test_non_finite_number_names_the_line(self, tmp_path, key):
        path = tmp_path / "bad.cfg"
        for bad in ("nan", "inf", "-Infinity", "1e999"):
            path.write_text(f"epochs = 2\n{key} = {bad}\n")
            with pytest.raises(ValueError, match=rf"bad\.cfg:2: {key}: expected a finite"):
                parse_config(path)

    def test_describe_defaults_covers_every_key(self):
        text = describe_defaults()
        for key in DEFAULTS:
            assert key in text

    def test_builders_reflect_file_values(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "vocab_size = 30\nalphabet_size = 5\ncode_length = 2\ndigit_dim = 6\n"
            "epochs = 7\nbatch_size = 9\n"
            "tau_init = 0.8\ntau_min = 0.8\nguidance_mode = odg\nkeep_prob = 0.6\n"
        )
        settings = parse_config(path)
        code = build_code_config(settings)
        assert (code.vocab_size, code.alphabet_size, code.code_length) == (30, 5, 2)
        assert code.code_embed_dim == 6
        train = build_train_config(settings)
        assert train.epochs == 7 and train.batch_size == 9
        assert train.schedule == TempSchedule(tau_init=0.8, tau_min=0.8)
        assert temperatures(train.schedule) == [0.8] * 3
        guide = build_guidance_config(settings)
        assert guide.mode == "odg" and guide.keep_prob == 0.6

    def test_describe_defaults_is_unchanged(self):
        digest = hashlib.sha256(describe_defaults().encode()).hexdigest()
        assert digest == DEFAULTS_TABLE_SHA256
        # the three removed keys' lines, put back where they stood, give the
        # former table: no other line moved or changed
        lines = describe_defaults().split("\n")
        for lineno, line in REMOVED_DEFAULTS_LINES:
            lines.insert(lineno - 1, line)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == FORMER_DEFAULTS_TABLE_SHA256

    def test_every_dataclass_key_sets_its_field(self):
        settings = config(**{key: value for key, (_, _, value) in DATACLASS_KEYS.items()})
        built, defaults = built_configs(settings), built_configs(config())
        for key, (which, attr, value) in DATACLASS_KEYS.items():
            assert attrgetter(attr)(defaults[which]) != value, key
            assert attrgetter(attr)(built[which]) == value, key
        assert build_guidance_config(settings) == built["train"].guidance
        # every field of the four config classes is set by one key
        reached = {attr for which, attr, _ in DATACLASS_KEYS.values() if which == "train"}
        for prefix, cls in (("", TrainConfig), ("schedule.", TempSchedule),
                            ("guidance.", GuidanceConfig)):
            assert {prefix + f.name for f in fields(cls)} - {"schedule", "guidance"} <= reached
        assert {f.name for f in fields(CodeConfig)} == {
            attr for which, attr, _ in DATACLASS_KEYS.values() if which == "code"}

    def test_defaults_build_the_library_defaults(self):
        # a config that sets nothing trains exactly as the library defaults do
        settings = config()
        assert build_train_config(settings) == TrainConfig()
        assert build_train_config(settings).schedule == TempSchedule()
        assert build_guidance_config(settings) == GuidanceConfig()
        assert settings["hidden_width"] == DEFAULT_HIDDEN_WIDTH


def sweep_settings(n=40, dim=6, seed=0, epochs=2):
    return config(
        vocab_size=n, embed_dim=dim, synthetic_clusters=4, data_seed=seed,
        alphabet_size=4, code_length=3, digit_dim=dim,
        epochs=epochs, batch_size=16, learning_rate=0.02, seed=seed,
    )


class TestSweeps:
    def test_derived_seeds_are_stable_and_distinct(self):
        assert derived_seed(0, 0) == derived_seed(0, 0)
        seeds = {derived_seed(0, i) for i in range(20)}
        assert len(seeds) == 20
        assert derived_seed(1, 0) != derived_seed(0, 0)

    def test_single_value_sweep_equals_direct_run(self):
        settings = sweep_settings()
        [report] = sweep("alphabet_size", [4], settings)
        direct, _ = run_one(settings, seed=derived_seed(0, 0), alphabet_size=4)
        assert report.method == "kd[alphabet_size=4]"
        assert report.bits == direct.bits
        assert report.metrics == direct.metrics

    def test_failed_value_is_preserved_not_raised(self):
        reports = sweep("alphabet_size", [4, 0], sweep_settings())
        assert len(reports) == 2
        assert not reports[0].method.endswith("FAILED")
        assert reports[1].method == "kd[alphabet_size=0] FAILED"
        assert "error" in reports[1].config
        assert reports[1].bits == 0

    def test_longer_codes_reconstruct_better(self):
        reports = sweep("code_length", [1, 4], sweep_settings(n=60, dim=8, epochs=25))
        errs = [r.metrics["reconstruction_mse"] for r in reports]
        assert errs[1] < errs[0]

    def test_axis_validation(self):
        with pytest.raises(ValueError, match="axis"):
            sweep("vocab_size", [10], sweep_settings())

    def test_run_one_echo_supports_accounting(self):
        report, result = run_one(sweep_settings(), seed=123)
        assert report.config["family"] == "kd"
        assert report.config["seed"] == 123
        assert report.config["extra_params"] == result.book.extra_param_count()
        # the best validation loss is the restored checkpoint's val_mse
        assert report.metrics["val_mse"] == result.best_val

    def test_sweep_reports_carry_wall_time(self):
        [report] = sweep("alphabet_size", [4], sweep_settings())
        assert report.wall_time_s > 0


def rung_configs(settings: dict) -> dict[str, TrainConfig]:
    return {tag: build_train_config({**settings, **overrides})
            for tag, overrides in ablation_variants(settings)}


class TestAblation:
    def test_ladder_tags_in_order(self):
        variants = ablation_variants(config())
        assert tuple(tag for tag, _ in variants) == ABLATION_ORDER

    def test_ladder_wirings(self):
        variants = rung_configs(config())
        cr = variants["cr"]
        assert not cr.use_straight_through
        assert temperatures(cr.schedule) == [cr.schedule.tau_init] * 3
        assert cr.entropy_weight == 0.0
        assert cr.guidance.mode == "none"
        ste = variants["cr_ste"]
        assert ste.use_straight_through
        assert temperatures(ste.schedule) == [ste.schedule.tau_init] * 3
        sched = variants["cr_ste_sched"]
        assert sched.schedule.tau_min < sched.schedule.tau_init
        assert sched.entropy_weight == 0.0
        ent = variants["cr_ste_sched_ent"]
        assert ent.entropy_weight > 0.0
        pdg_off = variants["pdg_no_autoencoder"]
        assert pdg_off.guidance.mode == "pdg" and not pdg_off.guidance.autoencoder
        pdg_on = variants["pdg_full"]
        assert pdg_on.guidance.mode == "pdg" and pdg_on.guidance.autoencoder

    def test_schedule_rung_keeps_a_decaying_schedule_and_replaces_a_constant_one(self):
        decaying = config(tau_init=2.0, tau_min=0.5, tau_horizon=7)
        assert rung_configs(decaying)["cr_ste_sched"].schedule == TempSchedule(
            tau_init=2.0, tau_min=0.5, horizon=7)
        assert rung_configs(decaying)["cr"].schedule == TempSchedule(
            tau_init=2.0, tau_min=2.0, horizon=7)
        constant = config(tau_init=0.5, tau_min=0.5)
        assert rung_configs(constant)["cr_ste_sched"].schedule == TempSchedule()

    def test_all_variants_share_the_base_seed(self):
        variants = rung_configs(config(seed=31))
        assert all(cfg.seed == 31 for cfg in variants.values())

    def test_run_ablation_produces_six_rows(self):
        reports = run_ablation(sweep_settings(n=30, dim=4, epochs=1))
        assert [r.method for r in reports] == list(ABLATION_ORDER)
        assert all(r.bits > 0 for r in reports)


@pytest.fixture()
def workdir(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "vocab_size = 40\nembed_dim = 6\nsynthetic_clusters = 4\n"
        "alphabet_size = 4\ncode_length = 3\ndigit_dim = 6\n"
        "epochs = 2\nbatch_size = 16\nlearning_rate = 0.02\n"
    )
    return tmp_path


class TestCli:
    def test_fit_codes_is_byte_reproducible(self, workdir, capsys):
        outs = []
        for name in ("a", "b"):
            out = workdir / name
            assert main(["fit-codes", str(workdir / "run.cfg"), "--out-dir", str(out)]) == 0
            outs.append(out)
        capsys.readouterr()
        for artifact in ("codes.txt", "codebook.bin", "metrics.jsonl"):
            first = (outs[0] / artifact).read_bytes()
            second = (outs[1] / artifact).read_bytes()
            assert first == second, artifact
            assert len(first) > 0

    def test_fit_codes_artifacts_load_back(self, workdir, capsys):
        out = workdir / "run"
        assert main(["fit-codes", str(workdir / "run.cfg"), "--out-dir", str(out)]) == 0
        assert "fit-codes: vocab=40 K=4 D=3" in capsys.readouterr().out
        table = load_code_table(out / "codes.txt")
        book = load_codebook(out / "codebook.bin")
        assert table.vocab_size == 40
        assert book.alphabet_size == 4 and book.code_length == 3
        lines = (out / "metrics.jsonl").read_text().strip().split("\n")
        assert len(lines) == 2  # one record per epoch

    # vocab 50 is one step per epoch, and the abort comes in its validation;
    # vocab 300 is three, and the second step aborts
    @pytest.mark.parametrize("vocab", [50, 300])
    def test_fit_codes_reports_an_aborted_fit(self, tmp_path, capsys, vocab):
        cfg = tmp_path / "run.cfg"
        outs = {}
        for epochs in (2, 0):
            cfg.write_text(f"learning_rate = 1e300\nvocab_size = {vocab}\nepochs = {epochs}\n")
            outs[epochs] = tmp_path / f"epochs{epochs}"
            with np.errstate(over="ignore", invalid="ignore"):
                code = main(["fit-codes", str(cfg), "--out-dir", str(outs[epochs])])
            assert code == (1 if epochs else 0)
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "fit-codes: aborted in epoch 1 on a non-finite value; kept the checkpoint of epoch 0"]
        lines = (outs[2] / "metrics.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [(r["step"], r["val_metric"], r["aborted"]) for r in records] == [(1, None, True)]
        # the artefacts hold the kept checkpoint: the initial parameters
        for artifact in ("codes.txt", "codebook.bin"):
            assert (outs[2] / artifact).read_bytes() == (outs[0] / artifact).read_bytes()

    def test_a_validation_loss_that_overflows_aborts_its_epoch(self, tmp_path, capsys):
        # with no projection the first step completes and validation overflows
        # in plain numpy to inf: that epoch aborts, not the next one
        cfg = tmp_path / "run.cfg"
        cfg.write_text("learning_rate = 1e300\nvocab_size = 50\nepochs = 3\ndigit_dim = 32\n")
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["fit-codes", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "fit-codes: aborted in epoch 1 on a non-finite value; kept the checkpoint of epoch 0"]

        def no_constant(token):
            raise ValueError(f"{token} is not JSON")

        lines = (tmp_path / "out" / "metrics.jsonl").read_text().splitlines()
        records = [json.loads(line, parse_constant=no_constant) for line in lines]
        assert [(r["step"], r["val_metric"], r["aborted"]) for r in records] == [(1, None, True)]

    def test_eval_against_saved_artifacts(self, workdir, capsys):
        out = workdir / "run"
        main(["fit-codes", str(workdir / "run.cfg"), "--out-dir", str(out)])
        # synthetic targets regenerate deterministically from the config
        symbols, targets = load_targets(parse_config(workdir / "run.cfg"))
        emb = workdir / "emb.txt"
        save_embeddings(emb, symbols, targets)
        capsys.readouterr()
        report_path = workdir / "report.jsonl"
        code = main([
            "eval", "--codes", str(out / "codes.txt"),
            "--codebook", str(out / "codebook.bin"),
            "--embeddings", str(emb), "--k", "3",
            "--out", str(report_path),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "kd(linear-sum)" in printed
        [report] = load_reports(report_path)
        assert report.metrics["nn_overlap"] is not None
        assert report.config["family"] == "kd"

    def fitted_with_embeddings(self, workdir, symbols_of):
        """fit-codes on the workdir config, and its targets saved under the
        symbols ``symbols_of(code table symbols)``."""
        out = workdir / "run"
        main(["fit-codes", str(workdir / "run.cfg"), "--out-dir", str(out)])
        symbols, targets = load_targets(parse_config(workdir / "run.cfg"))
        emb = workdir / "emb.txt"
        save_embeddings(emb, symbols_of(symbols), targets)
        return out, emb

    def test_eval_rejects_embeddings_in_another_order(self, workdir, capsys):
        # the same rows with the first two swapped: counts agree, rows do not
        def swapped(symbols):
            return [symbols[1], symbols[0], *symbols[2:]]

        out, emb = self.fitted_with_embeddings(workdir, swapped)
        capsys.readouterr()
        code = main(["eval", "--codes", str(out / "codes.txt"),
                     "--codebook", str(out / "codebook.bin"), "--embeddings", str(emb)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {emb}: row 1 is 'tok01'")

    def test_eval_rejects_a_codebook_of_another_alphabet(self, workdir, capsys):
        out, emb = self.fitted_with_embeddings(workdir, lambda symbols: symbols)
        wide = workdir / "k8.cfg"
        wide.write_text((workdir / "run.cfg").read_text().replace(
            "alphabet_size = 4", "alphabet_size = 8"))
        assert main(["fit-codes", str(wide), "--out-dir", str(workdir / "k8")]) == 0
        capsys.readouterr()
        codes, book = out / "codes.txt", workdir / "k8" / "codebook.bin"
        code = main(["eval", "--codes", str(codes), "--codebook", str(book),
                     "--embeddings", str(emb)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {codes} has K=4 D=3, but {book} has K=8 D=3\n")

    def test_report_records_keep_every_measurement_once_in_metrics(self, workdir, capsys):
        out, emb = self.fitted_with_embeddings(workdir, lambda symbols: symbols)
        scored = {"nn_overlap", "reconstruction_mse", "val_mse"}
        runs = {
            "eval": (["eval", "--codes", str(out / "codes.txt"), "--codebook",
                      str(out / "codebook.bin"), "--embeddings", str(emb), "--k", "5"], scored),
            "baseline": (["baseline", "random", "--embeddings", str(emb), "--alphabet", "4",
                          "--length", "3", "--epochs", "1", "--k", "5"], scored),
            "sweep": (["sweep", str(workdir / "run.cfg"), "--axis", "alphabet_size",
                       "--values", "4"], {"reconstruction_mse", "val_mse"}),
        }
        capsys.readouterr()
        for name, (argv, keys) in runs.items():
            path = workdir / f"{name}.jsonl"
            assert main([*argv, "--out", str(path)]) == 0, name
            [record] = [json.loads(line) for line in path.read_text().splitlines()]
            assert set(record) == {"method", "config", "params_count", "bits",
                                   "compression_ratio", "metrics", "wall_time_s"}, name
            assert set(record["metrics"]) == keys, name
            header = capsys.readouterr().out.splitlines()[0].split()
            assert header == ["method", "params", "bits", "ratio", *sorted(keys)], name

    def test_probe_codes_rejects_embeddings_of_other_tokens(self, workdir, capsys):
        # as many rows as the code table has symbols, under other tokens
        out, emb = self.fitted_with_embeddings(
            workdir, lambda symbols: make_vocab(len(symbols), "w"))
        capsys.readouterr()
        code = main(["probe-codes", "--codes", str(out / "codes.txt"), "--embeddings", str(emb)])
        assert code == 1
        assert f"error: {emb}: row 1 is 'w00'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "baseline"])
    def test_a_negative_k_is_rejected_before_any_work(self, workdir, capsys, command):
        out, emb = self.fitted_with_embeddings(workdir, lambda symbols: symbols)
        capsys.readouterr()
        report_path = workdir / "report.jsonl"
        argv = {
            "eval": ["eval", "--codes", str(out / "codes.txt"),
                     "--codebook", str(out / "codebook.bin")],
            "baseline": ["baseline", "random", "--alphabet", "4", "--length", "3",
                         "--epochs", "1"],
        }[command]
        assert main([*argv, "--embeddings", str(emb), "--k", "-3",
                     "--out", str(report_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: --k must be >= 0 (0 skips the neighborhood overlap), got -3"]
        assert captured.out == ""
        assert not report_path.exists()

    @pytest.mark.parametrize("command", ["eval", "baseline"])
    def test_a_k_of_the_row_count_is_rejected_before_any_work(self, workdir, capsys,
                                                               monkeypatch, command):
        out, emb = self.fitted_with_embeddings(workdir, lambda symbols: symbols)
        capsys.readouterr()

        def no_work(*args, **kwargs):
            raise AssertionError("a fit or a composition started")

        monkeypatch.setattr("codepress.cli.fit", no_work)
        monkeypatch.setattr("codepress.cli.compose_digits", no_work)
        report_path = workdir / "report.jsonl"
        argv = {
            "eval": ["eval", "--codes", str(out / "codes.txt"),
                     "--codebook", str(out / "codebook.bin")],
            "baseline": ["baseline", "random", "--alphabet", "4", "--length", "3",
                         "--epochs", "1"],
        }[command]
        # the workdir config's 40 rows leave at most 39 neighbors
        assert main([*argv, "--embeddings", str(emb), "--k", "40",
                     "--out", str(report_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: k must lie in [1, 39], got 40"]
        assert captured.out == ""
        assert not report_path.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--centroids", "1"], "n_centroids must be >= 2, got 1"),
        (["--subspaces", "0"], "subspaces must be >= 1, got 0"),
        (["--subspaces", "-1"], "subspaces must be >= 1, got -1"),
    ], ids=["centroids=1", "subspaces=0", "subspaces=-1"])
    def test_pq_rejects_its_arguments_before_any_work(self, workdir, capsys, monkeypatch,
                                                      flags, message):
        targets, _ = clustered_embeddings(50, 8, 5, np.random.default_rng(0))
        emb = workdir / "emb.txt"
        save_embeddings(emb, make_vocab(50), targets)

        def no_work(*args, **kwargs):
            raise AssertionError("a k-means started")

        monkeypatch.setattr("codepress.baselines.lloyd_kmeans", no_work)
        report_path = workdir / "report.jsonl"
        assert main(["baseline", "pq", "--embeddings", str(emb), *flags,
                     "--out", str(report_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {message}"]
        assert captured.out == ""
        assert not report_path.exists()

    def test_baseline_subcommands(self, workdir, capsys):
        rng = np.random.default_rng(0)
        targets, _ = clustered_embeddings(30, 6, 3, rng)
        emb = workdir / "emb.txt"
        save_embeddings(emb, make_vocab(30), targets)
        for argv, expect in [
            (["baseline", "full", "--embeddings", str(emb)], "full"),
            (["baseline", "lowrank", "--embeddings", str(emb), "--rank", "2"],
             "lowrank(r=2)"),
            (["baseline", "pq", "--embeddings", str(emb), "--subspaces", "2",
              "--centroids", "4"], "pq(2x4)"),
            (["baseline", "scalar", "--embeddings", str(emb), "--bits", "8"],
             "scalar(8bit)"),
            (["baseline", "random", "--embeddings", str(emb), "--alphabet", "4",
              "--length", "2", "--epochs", "1"], "random-codes"),
        ]:
            assert main(argv) == 0, argv
            assert expect in capsys.readouterr().out

    def test_baseline_scores_every_method_through_the_reconstruction_task(self, workdir,
                                                                          capsys):
        targets, _ = clustered_embeddings(30, 6, 3, np.random.default_rng(0))
        emb = workdir / "emb.txt"
        save_embeddings(emb, make_vocab(30), targets)
        symbols, targets = load_embeddings(emb)  # the rows as the command reads them
        task = ReconstructionTask(targets)
        code_cfg = CodeConfig(30, 4, 2, 6, allow_lossy=True)
        train_cfg = TrainConfig(epochs=1, seed=0)
        code_args = ["--alphabet", "4", "--length", "2", "--epochs", "1"]
        methods = {
            "full": ([], evaluate_full(targets).reconstruction),
            "lowrank": (["--rank", "2"], evaluate_low_rank(targets, 2).reconstruction),
            "pq": (["--subspaces", "2", "--centroids", "4"],
                   evaluate_pq(targets, 2, 4, np.random.default_rng(0)).reconstruction),
            "scalar": (["--bits", "4"], evaluate_scalar(targets, 4).reconstruction),
            "random": (code_args, fit(task, code_cfg, "linear-sum", train_cfg,
                                      frozen_table=random_codes(30, 4, 2, 0, symbols=symbols),
                                      symbols=symbols).embedding_matrix()),
            "pretrained": (code_args, fit(task, code_cfg, "linear-sum", train_cfg,
                                          symbols=symbols).embedding_matrix()),
        }
        reports = {}
        for method, (args, rows) in methods.items():
            out = workdir / f"{method}.jsonl"
            argv = ["baseline", method, "--embeddings", str(emb), "--k", "5", "--out", str(out)]
            assert main(argv + args) == 0, method
            [report] = load_reports(out)
            expected = task.evaluate(lambda ids: rows[ids])
            overlap = report.metrics.pop("nn_overlap")
            assert report.metrics == expected, method
            assert overlap is not None, method
            reports[method] = report
        capsys.readouterr()
        assert reports["full"].metrics["reconstruction_mse"] == 0.0
        # the mean over symbols of the squared row error: d times the per-entry mean
        per_entry = ((evaluate_low_rank(targets, 2).reconstruction - targets) ** 2).mean()
        lowrank = reports["lowrank"].metrics["reconstruction_mse"]
        assert lowrank == pytest.approx(6 * per_entry, rel=1e-12)

    def test_sweep_command_writes_reports(self, workdir, capsys):
        report_path = workdir / "sweep.jsonl"
        code = main([
            "sweep", str(workdir / "run.cfg"),
            "--axis", "alphabet_size", "--values", "2,4",
            "--out", str(report_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "kd[alphabet_size=2]" in out
        assert len(load_reports(report_path)) == 2

    def test_sweep_with_a_failed_value_exits_nonzero(self, workdir, capsys):
        report_path = workdir / "sweep.jsonl"
        code = main([
            "sweep", str(workdir / "run.cfg"),
            "--axis", "alphabet_size", "--values", "4,1",
            "--out", str(report_path),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "kd[alphabet_size=1] FAILED" in captured.out
        assert "alphabet_size failed for 1" in captured.err
        reports = load_reports(report_path)
        assert [r.method for r in reports] == ["kd[alphabet_size=4]", "kd[alphabet_size=1] FAILED"]

    def test_sweep_keeps_every_config_key(self, workdir, capsys):
        # a tied lstm validated on a held-out quarter, with lossy codes refused:
        # each row is fit-codes of that config at the row's derived seed
        cfg = workdir / "run.cfg"
        cfg.write_text(cfg.read_text() + (
            "composer = lstm\ntie_output_gate = true\n"
            "val_fraction = 0.25\nallow_lossy = false\nseed = 7\n"
        ))
        report_path = workdir / "sweep.jsonl"
        code = main(["sweep", str(cfg), "--axis", "alphabet_size", "--values", "4,3",
                     "--out", str(report_path)])
        assert code == 1  # 3**3 = 27 codes cannot address 40 symbols
        capsys.readouterr()
        row, failed = load_reports(report_path)
        direct, result = run_one(parse_config(cfg), seed=derived_seed(7, 0), alphabet_size=4)
        assert result.book.tie_output_gate
        assert result.task.val_ids.size == 10
        assert (row.params_count, row.config, row.metrics) == (
            direct.params_count, direct.config, direct.metrics)
        assert failed.method == "kd[alphabet_size=3] FAILED"

    def test_probe_codes_groups_output(self, workdir, capsys):
        out = workdir / "run"
        main(["fit-codes", str(workdir / "run.cfg"), "--out-dir", str(out)])
        capsys.readouterr()
        assert main(["probe-codes", "--codes", str(out / "codes.txt")]) == 0
        printed = capsys.readouterr().out
        assert ":" in printed  # "<code>: symbols" lines

    @pytest.mark.parametrize("argv, groups, more", [
        (["--collisions-only", "--max-groups", "1"], ["0-0: a b"], "... (1 more groups)"),
        (["--collisions-only", "--max-groups", "2"], ["0-0: a b", "1-1: e f"], None),
        (["--max-groups", "4"], ["0-0: a b", "0-1: c", "1-0: d", "1-1: e f"], None),
        (["--max-groups", "3"], ["0-0: a b", "0-1: c", "1-0: d"], "... (1 more groups)"),
    ], ids=["collisions-cut", "collisions-all-shown", "all-shown", "cut"])
    def test_probe_codes_counts_only_the_groups_it_leaves_out(self, tmp_path, capsys,
                                                              argv, groups, more):
        table = CodeTable(symbols=list("abcdef"), alphabet_size=2,
                          codes=np.array([[0, 0], [0, 0], [0, 1], [1, 0], [1, 1], [1, 1]]))
        save_code_table(table, tmp_path / "codes.txt")
        assert main(["probe-codes", "--codes", str(tmp_path / "codes.txt"), *argv]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == groups + ([more] if more else [])

    def test_probe_codes_rejects_a_negative_max_groups_before_reading(self, tmp_path, capsys):
        table = CodeTable(symbols=list("abcdef"), alphabet_size=2,
                          codes=np.array([[0, 0], [0, 0], [0, 1], [1, 0], [1, 1], [1, 1]]))
        save_code_table(table, tmp_path / "codes.txt")
        # the same error for a code table that does not exist: none is read
        for codes in ("codes.txt", "missing.txt"):
            assert main(["probe-codes", "--codes", str(tmp_path / codes),
                         "--max-groups", "-2"]) == 1
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [
                "error: --max-groups must be >= 0 (0 lists every group), got -2"]
            assert captured.out == ""

    def test_probe_codes_reports_random_pairs_of_zero_spread(self, tmp_path, capsys):
        # every row alike: each random pair has cosine 1 and the global se is 0
        table = CodeTable(symbols=list("abcdef"), alphabet_size=2,
                          codes=np.array([[0, 0], [0, 0], [0, 1], [1, 0], [1, 1], [1, 1]]))
        save_code_table(table, tmp_path / "codes.txt")
        save_embeddings(tmp_path / "emb.txt", list("abcdef"), np.ones((6, 3)))
        assert main(["probe-codes", "--codes", str(tmp_path / "codes.txt"),
                     "--collisions-only", "--embeddings", str(tmp_path / "emb.txt")]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "0-0: a b", "1-1: e f",
            "intra-code cosine 1.0000 over 2 pairs; global 1.0000 over 50000 random pairs, "
            "which have zero spread"]

    def test_help_config_lists_keys(self, capsys):
        assert main(["fit-codes", "--help-config"]) == 0
        printed = capsys.readouterr().out
        for key in ("alphabet_size", "tau_init", "guidance_mode"):
            assert key in printed

    def test_errors_exit_nonzero_with_message(self, workdir, capsys):
        assert main(["fit-codes", str(workdir / "missing.cfg")]) == 1
        assert "error:" in capsys.readouterr().err
        bad = workdir / "bad.cfg"
        bad.write_text("alphabet_size = -3\n")
        assert main(["fit-codes", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("setting, message", [
        ("guidance_mode = pdg\nencoder_hidden = 0", "encoder_hidden must be >= 1"),
        ("grad_clip = -1", "grad_clip must be >= 0"),
        ("embed_dim = 0", "targets must be a non-empty (vocab, dim) matrix, got shape (50, 0)"),
    ], ids=["pdg-without-encoder-units", "negative-grad-clip", "zero-width-targets"])
    def test_fit_codes_rejects_a_setting_it_cannot_train(self, workdir, capsys,
                                                         setting, message):
        cfg = workdir / "bad.cfg"
        cfg.write_text(f"vocab_size = 50\nepochs = 1\n{setting}\n")
        out = workdir / "out"
        assert main(["fit-codes", str(cfg), "--out-dir", str(out)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["schedule_kind = constant", "mask_per_symbol = false",
                                         "optimizer = sgd", "optimizer = adam"])
    def test_fit_codes_rejects_a_removed_key(self, workdir, capsys, setting):
        # a constant temperature is tau_min = tau_init; the odg mask is always per
        # coordinate; every fit steps with Adam
        cfg = workdir / "old.cfg"
        cfg.write_text(f"vocab_size = 50\nepochs = 1\n{setting}\n")
        out = workdir / "out"
        assert main(["fit-codes", str(cfg), "--out-dir", str(out)]) == 1
        key = setting.split(" = ")[0]
        assert capsys.readouterr().err.splitlines() == [f"error: {cfg}:3: unknown key {key!r}"]
        assert not out.exists()
