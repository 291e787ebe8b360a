"""Command-line surface: every subcommand and its failure modes."""

import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import corruption_cases

import sparsecast
from sparsecast.cli import main
from sparsecast.data import CleanSeries, FormatError, SequenceStore, load_csv, write_csv
from sparsecast.model import Forecaster, ModelConfig
from sparsecast.synthetic import build_regime_store
from sparsecast.train import load_checkpoint, save_checkpoint


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def model_doc(**kw):
    doc = dict(num_layers=1, num_heads=2, num_experts=2, top_k=1, d_model=8,
               d_ff=16, d_expert=8, head_horizons=[1, 4], max_context=128)
    doc.update(kw)
    return doc


def write_train_config(path, steps=2, context=24, batch=2):
    doc = {
        "model": model_doc(),
        "train": {"steps": steps, "batch": batch, "context": context, "lr": 1e-3,
                  "warmup_steps": 1, "seed": 0},
    }
    path.write_text(json.dumps(doc))
    return path


def noisy_csv(path, rows=400, channels=2, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(rows)
    values = np.stack([np.sin(2 * np.pi * t / 12 + c) + 0.05 * rng.normal(size=rows) + 2
                       for c in range(channels)], axis=1)
    write_csv(path, values, [f"ch{c}" for c in range(channels)])
    return path


def test_params_prints_counts(tmp_path, capsys):
    config = tmp_path / "base.json"
    config.write_text(json.dumps({"model": dict(num_layers=12, num_heads=12,
                                                num_experts=8, top_k=2, d_model=384,
                                                d_ff=1536, d_expert=192)}))
    code, out, _ = run(capsys, "params", "--config", str(config))
    assert code == 0
    assert "total:" in out and "activated:" in out
    total = int(out.split("total:")[1].splitlines()[0].strip().replace(",", ""))
    activated = int(out.split("activated:")[1].splitlines()[0].strip().replace(",", ""))
    assert activated < total


def test_clean_pack_roundtrip(tmp_path, capsys):
    raw = noisy_csv(tmp_path / "raw.csv")
    code, out, err = run(capsys, "clean", str(raw), str(tmp_path / "cleaned"),
                         "--window", "32", "--min-len", "64", "--domain", "demo")
    assert code == 0 and "kept" in out
    manifest = json.loads((tmp_path / "cleaned" / "manifest.json").read_text())
    assert len(manifest["segments"]) == 2  # one segment per clean channel

    code, out, _ = run(capsys, "pack", str(tmp_path / "cleaned"), str(tmp_path / "store"))
    assert code == 0
    store = SequenceStore.open(tmp_path / "store")
    assert len(store) == 2
    assert store.domains() == ["demo"]


def test_clean_all_nan_warns_and_writes_empty_manifest(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("a\n" + "nan\n" * 50)
    code, _, err = run(capsys, "clean", str(path), str(tmp_path / "out"),
                       "--window", "8", "--min-len", "8")
    assert code == 0
    assert "warning" in err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["segments"] == []


@pytest.mark.parametrize("flag,value", [("--window", "0"), ("--window", "-5"),
                                        ("--min-len", "0"), ("--threshold", "nan")])
def test_clean_bad_option_is_a_typed_error(tmp_path, capsys, flag, value):
    raw = noisy_csv(tmp_path / "raw.csv", rows=40, channels=1)
    code, _, err = run(capsys, "clean", str(raw), str(tmp_path / "out"), flag, value)
    assert code == 1 and err.startswith("error:"), err
    assert not (tmp_path / "out").exists()


def test_train_forecast_eval_pipeline(tmp_path, capsys):
    raw = noisy_csv(tmp_path / "raw.csv", rows=600)
    run(capsys, "clean", str(raw), str(tmp_path / "cleaned"), "--window", "32",
        "--min-len", "64")
    run(capsys, "pack", str(tmp_path / "cleaned"), str(tmp_path / "store"))
    config = write_train_config(tmp_path / "train.json")
    ckpt = tmp_path / "model.ckpt"
    log = tmp_path / "metrics.ndjson"
    code, out, err = run(capsys, "train", "--config", str(config), "--store",
                         str(tmp_path / "store"), "--out", str(ckpt), "--log", str(log))
    assert code == 0, err
    assert ckpt.exists()
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(records) == 2
    model, _, step = load_checkpoint(ckpt)
    assert step == 2

    context = tmp_path / "context.csv"
    noisy_csv(context, rows=48, channels=2, seed=1)
    fc = tmp_path / "forecast.csv"
    code, out, err = run(capsys, "forecast", "--ckpt", str(ckpt), "--input",
                         str(context), "--horizon", "96", "--out", str(fc))
    assert code == 0, err
    lines = fc.read_text().splitlines()
    assert lines[0] == "ch0,ch1"
    assert len(lines) == 1 + 96
    assert all(len(line.split(",")) == 2 for line in lines[1:])

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dataset": str(raw), "horizons": [4], "contexts": [16],
                                "splits": [360, 120, 120], "stride": 24}))
    report_path = tmp_path / "report.json"
    code, out, err = run(capsys, "eval", "--ckpt", str(ckpt), "--spec", str(spec),
                         "--out", str(report_path))
    assert code == 0, err
    report = json.loads(report_path.read_text())
    assert len(report["rows"]) == 1
    assert report["metadata"]["standardized"] is True


def test_forecast_to_stdout(tmp_path, capsys):
    config = write_train_config(tmp_path / "t.json")
    raw = noisy_csv(tmp_path / "raw.csv", rows=500)
    run(capsys, "clean", str(raw), str(tmp_path / "c"), "--window", "32", "--min-len", "64")
    run(capsys, "pack", str(tmp_path / "c"), str(tmp_path / "s"))
    ckpt = tmp_path / "m.ckpt"
    run(capsys, "train", "--config", str(config), "--store", str(tmp_path / "s"),
        "--out", str(ckpt))
    ctx = noisy_csv(tmp_path / "ctx.csv", rows=32, channels=1, seed=2)
    code, out, _ = run(capsys, "forecast", "--ckpt", str(ckpt), "--input", str(ctx),
                       "--horizon", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8  # header + 7 values


def test_forecast_to_stdout_quotes_its_header(tmp_path, capsys):
    # Column names with a comma or a quote are quoted as write_csv quotes
    # them, so the printed forecast reads back with its own columns.
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, Forecaster.init(ModelConfig(**model_doc()), seed=0))
    columns = ["load, kW", 'temp "C"']
    ctx = tmp_path / "ctx.csv"
    write_csv(ctx, np.random.default_rng(0).normal(size=(32, 2)), columns)
    code, out, err = run(capsys, "forecast", "--ckpt", str(ckpt), "--input", str(ctx),
                         "--horizon", "4")
    assert code == 0, err
    printed = tmp_path / "printed.csv"
    printed.write_text(out)
    loaded = load_csv(printed)
    assert loaded.columns == columns
    assert loaded.values.shape == (4, 2)


def test_bench_subcommand(tmp_path, capsys):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({
        "moe": model_doc(),
        "dense": "auto",
        "train": {"steps": 2, "batch": 2, "context": 24, "lr": 1e-3,
                  "warmup_steps": 1, "seed": 0},
        "seeds": [0, 1],
        "task": {"per_regime": 2, "length": 256},
    }))
    out_path = tmp_path / "bench.json"
    code, out, err = run(capsys, "bench", "--pair", str(pair), "--out", str(out_path),
                         "--workdir", str(tmp_path / "work"))
    assert code == 0, err
    report = json.loads(out_path.read_text())
    assert len(report["runs"]) == 2
    assert report["parity_gap"] < 0.02


def test_missing_file_is_reported(tmp_path, capsys):
    code, _, err = run(capsys, "params", "--config", str(tmp_path / "nope.json"))
    assert code == 1
    assert "error:" in err


def test_unknown_flag_exits_nonzero(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"model": model_doc()}))
    with pytest.raises(SystemExit) as exc:
        main(["params", "--config", str(config), "--bogus"])
    assert exc.value.code == 2
    assert "bogus" in capsys.readouterr().err


def test_bad_checkpoint_reported(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"JUNKJUNKJUNK")
    ctx = noisy_csv(tmp_path / "ctx.csv", rows=20, channels=1)
    code, _, err = run(capsys, "forecast", "--ckpt", str(bad), "--input", str(ctx),
                       "--horizon", "4")
    assert code == 1
    assert "error:" in err


# --- bad config files: a typed error on stderr, exit 1, no traceback ----------------

SRC = str(Path(sparsecast.__file__).resolve().parent.parent)


def run_process(*argv):
    """Run the CLI in its own interpreter, so an uncaught exception shows as a traceback."""
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-m", "sparsecast.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stderr


def assert_clean_failure(code, err, mentions):
    assert code == 1, err
    assert any(line.startswith("error:") and mentions in line for line in err.splitlines()), err
    assert "Traceback" not in err


BAD_MODEL_DOCS = {
    "unknown_key": ({"model": model_doc(bogus=1)}, "ModelConfig"),
    "string_number": ({"model": {"num_layers": "2"}}, "ModelConfig"),
    "float_int": ({"model": {"num_layers": 2.5}}, "num_layers must be int, got 2.5"),
    "string_bool": ({"model": {"use_moe": "no"}}, "use_moe must be bool, got 'no'"),
    "float_horizon": ({"model": model_doc(head_horizons=[1, 4.5])},
                      "head_horizons must hold ints, got 4.5"),
    "json_array": ([1, 2], "JSON object"),
    # Was a ZeroDivisionError traceback: divisibility was checked first.
    "zero_heads": ({"model": {"num_heads": 0}}, "num_heads must be positive"),
}


@pytest.mark.parametrize("case", sorted(BAD_MODEL_DOCS))
def test_params_bad_config_is_a_typed_error(tmp_path, case):
    doc, mentions = BAD_MODEL_DOCS[case]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert_clean_failure(*run_process("params", "--config", str(config)), mentions)


BAD_TRAIN_DOCS = {
    **BAD_MODEL_DOCS,
    "unknown_train_key": ({"model": model_doc(), "train": {"bogus": 1}}, "TrainConfig"),
    "string_train_number": ({"model": model_doc(), "train": {"steps": "2"}}, "TrainConfig"),
    # Without the type check, this string fails only after a whole training step.
    "string_checkpoint_interval": ({"model": model_doc(), "train": {"checkpoint_interval": "1"}},
                                   "checkpoint_interval must be int | None, got '1'"),
    # A NaN delta was a NumericError traceback at the first step; a NaN
    # alpha trained to exit 0 with no balance loss.
    "nan_delta": ({"model": model_doc(), "train": {"delta": float("nan")}}, "delta must be > 0"),
    "nan_alpha": ({"model": model_doc(), "train": {"alpha": float("nan")}}, "alpha must be"),
    "inf_alpha": ({"model": model_doc(), "train": {"alpha": float("inf")}}, "alpha must be"),
    # An infinite lr or weight decay filled every parameter with NaN in the first step.
    "inf_lr": ({"model": model_doc(), "train": {"lr": float("inf")}},
               "weight_decay and warmup_steps must be finite"),
    "inf_weight_decay": ({"model": model_doc(), "train": {"weight_decay": float("inf")}},
                         "weight_decay and warmup_steps must be finite"),
    # A train section that is no JSON object was a TypeError traceback.
    "int_train": ({"model": model_doc(), "train": 5}, "TrainConfig"),
    "list_train": ({"model": model_doc(), "train": [1, 2]}, "TrainConfig"),
}


@pytest.mark.parametrize("case", sorted(BAD_TRAIN_DOCS))
def test_train_bad_config_is_a_typed_error(tmp_path, case):
    doc, mentions = BAD_TRAIN_DOCS[case]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    # The store does not exist: a config error must be reported before it is opened.
    code, err = run_process("train", "--config", str(config), "--store",
                            str(tmp_path / "store"), "--out", str(tmp_path / "m.ckpt"))
    assert_clean_failure(code, err, mentions)


@pytest.mark.parametrize("command", ["params", "train"])
def test_config_that_is_not_utf8_is_an_error_naming_the_file(tmp_path, capsys, command):
    # The decode error was raised outside the JSON handler and named no file.
    config = write_train_config(tmp_path / "config.json")
    config.write_bytes(b"\x80" + config.read_bytes())
    argv = {"params": ["params", "--config", str(config)],
            "train": ["train", "--config", str(config), "--store", str(tmp_path / "no-store"),
                      "--out", str(tmp_path / "m.ckpt")]}[command]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith(f"error: {config}: not UTF-8 text"), err


def test_config_corruption_sweep_ends_in_exit_0_or_a_typed_error(tmp_path, capsys):
    # Every byte of a train config XORed three ways and every cut, through
    # params and train; main raising here is the traceback a user would see.
    # The store does not exist, so train stops once its config has parsed.
    config = write_train_config(tmp_path / "config.json")
    bad = tmp_path / "bad.json"
    commands = (["params", "--config", str(bad)],
                ["train", "--config", str(bad), "--store", str(tmp_path / "no-store"),
                 "--out", str(tmp_path / "m.ckpt")])
    for label, raw in corruption_cases(config):
        bad.write_bytes(raw)
        for argv in commands:
            code = main(argv)
            err = capsys.readouterr().err
            assert code == 0 or (code == 1 and err.startswith("error:")), (label, argv[0], err)


def test_forecast_that_overflows_is_a_typed_error(tmp_path):
    # Unstandardized values near 1e30 overflow float32 in the point
    # embedding; the NumericError was a traceback.
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, Forecaster.init(ModelConfig(**model_doc()), seed=0))
    huge = tmp_path / "huge.csv"
    write_csv(huge, np.full((32, 1), 1e30), ["ch0"])
    assert_clean_failure(*run_process("forecast", "--ckpt", str(ckpt), "--input", str(huge),
                                      "--horizon", "4", "--no-standardize"), "non-finite")


def test_forecast_of_values_too_large_to_standardize_is_a_typed_error(tmp_path):
    # A column alternating +-1e300 has an infinite std: forecast warned
    # "overflow encountered in square" and wrote nan rows with exit 0.
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, Forecaster.init(ModelConfig(**model_doc()), seed=0))
    huge = tmp_path / "huge.csv"
    write_csv(huge, np.stack((np.ones(32), np.resize([1e300, -1e300], 32)), axis=1),
              ["ch0", "ch1"])
    assert_clean_failure(*run_process("forecast", "--ckpt", str(ckpt), "--input", str(huge),
                                      "--horizon", "4"), "channel 1")


def bad_eval_docs(dataset):
    spec = {"dataset": dataset, "horizons": [4], "contexts": [16], "splits": [360, 120, 120]}
    return {
        "unknown_key": ({**spec, "bogus": 1}, "EvalSpec"),
        "missing_dataset": ({k: v for k, v in spec.items() if k != "dataset"}, "EvalSpec"),
        "string_stride": ({**spec, "stride": "2"}, "EvalSpec"),
        "string_bool": ({**spec, "standardize": "yes"}, "standardize must be bool"),
        "json_array": ([spec], "JSON object"),
        # Exited 0 with NaN averages after two "Mean of empty slice" warnings.
        "no_pairs": ({**spec, "horizons": [], "contexts": []}, "at least one pair"),
        # An IndexError traceback once the CSV had loaded.
        "zero_context": ({**spec, "contexts": [0]}, "all >= 1"),
        # Loaded as given: the test windows' targets fell inside the rows the
        # standardizer was fitted on.
        "negative_split": ({**spec, "splits": [500, -20, 120]}, "split sizes must be >= 0"),
        "unknown_fine_tune_key": ({**spec, "mode": "fine_tune", "fine_tune": {"bogus": 1}},
                                  "TrainConfig"),
    }


@pytest.mark.parametrize("case", sorted(bad_eval_docs("")))
def test_eval_bad_spec_is_a_typed_error(tmp_path, case):
    raw = noisy_csv(tmp_path / "raw.csv", rows=600)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, Forecaster.init(ModelConfig(**model_doc()), seed=0))
    doc, mentions = bad_eval_docs(str(raw))[case]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    assert_clean_failure(*run_process("eval", "--ckpt", str(ckpt), "--spec", str(spec)),
                         mentions)


# Badly typed values that only the run itself reads: each was a TypeError traceback.
BAD_RUN_DOCS = {
    "string_domain_weight": ("train", {"domain_weights": {"tonal": "x", "sawtooth": 1, "ar1": 1}},
                             "domain_weights['tonal'] must be a finite non-negative number"),
    "string_seed": ("bench", {"seeds": ["a"]}, "seeds must be a non-empty list"),
    "int_seeds": ("bench", {"seeds": 3}, "seeds must be a non-empty list"),
}


@pytest.mark.parametrize("case", sorted(BAD_RUN_DOCS))
def test_badly_typed_run_input_is_a_typed_error(tmp_path, case):
    command, extra, mentions = BAD_RUN_DOCS[case]
    train = {"steps": 1, "batch": 2, "context": 24}
    doc = tmp_path / "doc.json"
    if command == "train":
        store = tmp_path / "store"
        build_regime_store(store, np.random.default_rng(0), per_regime=1, length=64)
        doc.write_text(json.dumps({"model": model_doc(), "train": train, **extra}))
        argv = ("train", "--config", str(doc), "--store", str(store),
                "--out", str(tmp_path / "m.ckpt"))
    else:
        doc.write_text(json.dumps({"moe": model_doc(), "train": train, **extra}))
        argv = ("bench", "--pair", str(doc), "--workdir", str(tmp_path / "work"))
    assert_clean_failure(*run_process(*argv), mentions)


def store_index(magic=b"SPCSTIDX", version=2, names=b'["d"]', count=2, lengths=(64, 64),
                domain_ids=(0, 0), tail=b""):
    """The bytes of a version-2 <name>.idx, field by field."""
    return (struct.pack("<8sIIQ", magic, version, len(names), count) + names
            + struct.pack(f"<{len(lengths)}Q", *lengths)
            + struct.pack(f"<{len(domain_ids)}I", *domain_ids) + tail)


# Faulty store indexes, each of two 64-point sequences in domain "d", and a
# store of version 1, whose JSON metafile v2 no longer reads.
BAD_INDEXES = {
    "bad_magic": (store_index(magic=b"SPCSTIDY"), "not a store index of version 2"),
    "bad_version": (store_index(version=3), "not a store index of version 2"),
    "names_not_json": (store_index(names=b'["d"'), "unreadable domain names"),
    "int_domain": (store_index(names=b"[5]"), "domain names must be a list of distinct str"),
    "count_past_the_end": (store_index(count=3), "its header and 3 sequences take"),
    "trailing_bytes": (store_index(tail=b"\0"), "holds 54 bytes, but its header and 2 "
                                                "sequences take 53"),
    "domain_id_out_of_range": (store_index(domain_ids=(0, 1)), "domain id 1 out of range"),
    "version_1": (None, "version-1 store (*.meta.json): re-run `sparsecast pack`"),
}


@pytest.mark.parametrize("case", sorted(BAD_INDEXES))
def test_bad_store_metafile_is_a_typed_error(tmp_path, case):
    index, mentions = BAD_INDEXES[case]
    rng = np.random.default_rng(0)
    good = SequenceStore.write([CleanSeries(values=rng.normal(size=64), domain="d")
                                for _ in range(2)], tmp_path / "good")
    assert (good.directory / "store.idx").read_bytes() == store_index()
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "store.bin").write_bytes((good.directory / "store.bin").read_bytes())
    if index is None:
        (bad / "store.meta.json").write_text(json.dumps({"version": 1, "sequences": [
            {"file": "store.bin", "offset_points": 64 * i, "length_points": 64, "domain": "d"}
            for i in range(2)]}))
    else:
        (bad / "store.idx").write_bytes(index)
    with pytest.raises(FormatError, match=re.escape(mentions)):
        SequenceStore.open(bad)
    config = write_train_config(tmp_path / "config.json")
    assert_clean_failure(*run_process("train", "--config", str(config), "--store", str(bad),
                                      "--out", str(tmp_path / "m.ckpt")), mentions)


def test_pack_rejects_a_non_finite_segment(tmp_path, capsys):
    clean = tmp_path / "clean"
    clean.mkdir()
    write_csv(clean / "seg.csv", np.array([1.0, float("nan"), 2.0]), ["x"])
    (clean / "manifest.json").write_text(json.dumps(
        {"segments": [{"file": "seg.csv", "domain": "d"}]}))
    code, _, err = run(capsys, "pack", str(clean), str(tmp_path / "store"))
    assert code == 1 and err.startswith("error: sequence 0 holds NaN or Inf"), err
    assert not (tmp_path / "store").exists()


def test_pack_failure_leaves_no_directory_it_made(tmp_path):
    # A store path whose parents are missing: pack makes them, the second
    # segment is not finite, and the command fails with nothing new on disk.
    clean = tmp_path / "clean"
    clean.mkdir()
    write_csv(clean / "ok.csv", np.arange(8.0), ["x"])
    write_csv(clean / "bad.csv", np.array([1.0, float("nan"), 2.0]), ["x"])
    (clean / "manifest.json").write_text(json.dumps(
        {"segments": [{"file": "ok.csv", "domain": "d"}, {"file": "bad.csv", "domain": "d"}]}))
    before = sorted(tmp_path.rglob("*"))
    store = tmp_path / "made" / "deeper" / "store"
    assert_clean_failure(*run_process("pack", str(clean), str(store)), "sequence 1 holds NaN")
    assert sorted(tmp_path.rglob("*")) == before


# Faulty pack manifests: a KeyError or TypeError traceback, or (the outside
# case) a segment packed from a file outside the clean directory.
BAD_MANIFESTS = {
    "missing_domain": ({"segments": [{"file": "seg.csv"}]}, "segment 0"),
    "int_domain": ({"segments": [{"file": "seg.csv", "domain": 5}]}, "segment 0"),
    "dict_segments": ({"segments": {"file": "seg.csv", "domain": "d"}},
                      "segments must be a list, got a JSON dict"),
    "string_segments": ({"segments": ["seg.csv"]}, "segment 0"),
    "int_file": ({"segments": [{"file": 5, "domain": "d"}]}, "segment 0"),
    "outside_file": ({"segments": [{"file": "seg.csv", "domain": "d"},
                                   {"file": "../outside/evil.csv", "domain": "d"}]},
                     "segment 1"),
}


@pytest.mark.parametrize("case", sorted(BAD_MANIFESTS))
def test_pack_bad_manifest_is_a_typed_error(tmp_path, case):
    doc, mentions = BAD_MANIFESTS[case]
    for directory in ("clean", "outside"):
        (tmp_path / directory).mkdir()
    write_csv(tmp_path / "clean" / "seg.csv", np.arange(8.0), ["x"])
    write_csv(tmp_path / "outside" / "evil.csv", np.arange(8.0), ["x"])
    (tmp_path / "clean" / "manifest.json").write_text(json.dumps(doc))
    assert_clean_failure(*run_process("pack", str(tmp_path / "clean"), str(tmp_path / "store")),
                         mentions)
    assert not (tmp_path / "store").exists()


# Badly shaped bench pair files: each ended in a KeyError, AttributeError or TypeError.
BAD_PAIR_DOCS = {
    "missing_moe": ({}, "missing key 'moe'"),
    "list_task": ({"moe": model_doc(), "task": [1]}, "task must be a JSON object, got [1]"),
    "string_task_length": ({"moe": model_doc(), "task": {"length": "x"}},
                           "task.length must be a positive int, got 'x'"),
}


@pytest.mark.parametrize("case", sorted(BAD_PAIR_DOCS))
def test_bench_bad_pair_is_a_typed_error(tmp_path, case):
    extra, mentions = BAD_PAIR_DOCS[case]
    doc = tmp_path / "pair.json"
    doc.write_text(json.dumps({"train": {"steps": 1, "batch": 2, "context": 24}, **extra}))
    assert_clean_failure(*run_process("bench", "--pair", str(doc), "--workdir",
                                      str(tmp_path / "work")), mentions)
