"""Tests of the benchmark itself: generated inputs, output checks, contract."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import spans  # noqa: E402
import synth  # noqa: E402
import workloads  # noqa: E402
from varred import gauge, reduction  # noqa: E402
from varred.fileformats import parse_system  # noqa: E402


def test_same_seed_gives_the_same_files():
    assert synth.generate_texts(11, 4) == synth.generate_texts(11, 4)
    assert synth.generate_texts(11, 4) != synth.generate_texts(12, 4)


def test_generated_systems_are_block_lower_triangular_and_monogenous():
    d1 = synth.D1
    for seed in (0, 1):
        for text in synth.generate_texts(seed, workloads.SYNTH_BATCH):
            sf = parse_system(text)
            n = sf.matrix.rows
            assert sf.blocks == [synth.D1, synth.D2]
            assert all(sf.matrix.data[i][j].is_zero for i in range(d1) for j in range(d1, n))
            diag = [sf.matrix.data[i][j] for i in range(n) for j in range(n)
                    if (i < d1) == (j < d1) and not sf.matrix.data[i][j].is_zero]
            assert diag, "diagonal blocks are empty"
            # one coefficient function times a constant matrix
            assert all((f / diag[0]).is_constant for f in diag)
            assert any(not sf.matrix.data[i][j].is_zero
                       for i in range(d1, n) for j in range(d1))


def test_tampered_reference_report_counts_as_a_failure(tmp_path):
    wl = workloads.HenonHeiles(1)
    wl.setup(tmp_path, 0)
    result = wl.run_pass()
    assert wl.check(result) == []
    ref = tmp_path / "ref"
    shutil.copytree(workloads.REFERENCE / "hh", ref)
    path = ref / "report_order_1.txt"
    path.write_text(path.read_text(encoding="utf-8").replace("abelian: yes", "abelian: no"),
                    encoding="utf-8")
    assert len(wl.check(result, ref_dir=ref)) == 1


def test_tampered_synth_hash_counts_as_a_failure(tmp_path):
    wl = workloads.SynthChains()
    wl.prepare(tmp_path, workloads.SYNTH_DEFAULT_SEED)
    wl.setup(tmp_path, workloads.SYNTH_DEFAULT_SEED)
    result = wl.run_pass()
    ref = tmp_path / "ref"
    shutil.copytree(workloads.REFERENCE / "synth", ref)
    assert wl.check(result, ref_dir=ref) == []
    name = "seed%d.sha256" % workloads.SYNTH_DEFAULT_SEED
    hashes = (ref / name).read_text(encoding="utf-8").split()
    hashes[3] = "0" * 64
    (ref / name).write_text("\n".join(hashes) + "\n", encoding="utf-8")
    assert len(wl.check(result, ref_dir=ref)) == 1


def test_tracer_records_nested_spans_and_restores_the_program(tmp_path):
    wl = workloads.HenonHeiles(1)
    wl.setup(tmp_path, 0)
    original = reduction.apply_gauge
    tracer = spans.Tracer()
    layers.plan(tracer)
    tracer.install()
    try:
        assert reduction.apply_gauge is not original
        with tracer.root(layers.PASS_ROOT):
            wl.run_pass()
    finally:
        tracer.uninstall()
    assert reduction.apply_gauge is original is gauge.apply_gauge
    names = {rec[0]: rec[2] for rec in tracer.spans}
    parents = {rec[0]: rec[1] for rec in tracer.spans}
    applied = [sid for sid, name in names.items() if name == "gauge.apply_gauge"]
    assert applied
    sid = applied[0]
    while parents[sid] is not None:
        sid = parents[sid]
    assert names[sid] == layers.PASS_ROOT
    root = tracer.spans[sid]
    assert abs(sum(tracer.self_times().values()) - (root[4] - root[3])) < 1e-6
    metrics = layers.metrics(tracer, 1, 1.0, 1.0)
    assert metrics["gauge.apply_gauge.calls"] == len(applied)


def test_benchmark_json_lists_the_per_layer_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == [u for u, _ in layers.PER_LAYER.values()]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hh-o2",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, stdout=subprocess.PIPE, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""
