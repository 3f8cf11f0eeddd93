"""End-to-end CLI checks, driven in-process through main(argv)."""
import json

import pytest

from wfmini.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USER, main
from wfmini.kernels import catalog_names
from wfmini.trace import RunTrace


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def tiny_workflow(tmp_path):
    return write_json(tmp_path / "wf.json", {
        "execution_model": "serial",
        "tasks": [
            {"name": "a", "category": "work", "num_ranks": 1,
             "program": [{"kernel": "writeNonMPI", "params": {"data_size": 512}}]},
            {"name": "b", "category": "work", "num_ranks": 1,
             "program": [{"kernel": "RNG", "params": {"data_size": 64}}]},
        ],
        "edges": [["a", "b"]],
    })


@pytest.fixture
def resources(tmp_path):
    return write_json(tmp_path / "pool.json",
                      {"num_nodes": 1, "cpus_per_node": 2, "gpus_per_node": 0})


def test_kernels_list(capsys):
    assert main(["kernels", "list"]) == EXIT_OK
    listed = capsys.readouterr().out.split()
    assert listed == sorted(catalog_names()) or listed == list(catalog_names())
    assert "matMulSimple2D" in listed and "fft" in listed


def test_kernels_bench(capsys):
    rc = main(["kernels", "bench", "--name", "RNG",
               "--param", "data_size=1000", "--trials", "3"])
    assert rc == EXIT_OK
    assert "RNG" in capsys.readouterr().out


def test_kernels_bench_cleans_up_scratch(isolated_scratch):
    argv = ["kernels", "bench", "--name", "writeNonMPI",
            "--param", "data_size=1000", "--trials", "3"]
    assert main(argv) == EXIT_OK
    assert main(argv) == EXIT_OK
    assert list(isolated_scratch.glob("*.dat")) == []


def test_kernels_bench_needs_name():
    assert main(["kernels", "bench"]) == EXIT_USER


def test_kernels_bench_needs_a_trial(capsys):
    assert main(["kernels", "bench", "--name", "RNG", "--trials", "0"]) == EXIT_USER
    assert "--trials must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("repeat", ["0", "-1"])
def test_run_needs_a_repeat(tmp_path, tiny_workflow, resources, capsys, repeat):
    out = tmp_path / "out"
    rc = main(["run", "--workflow", tiny_workflow, "--resources", resources,
               "--out", str(out), "--repeat", repeat])
    assert rc == EXIT_USER
    assert "--repeat must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_run_workflow(tmp_path, tiny_workflow, resources):
    out = tmp_path / "out"
    rc = main(["run", "--workflow", tiny_workflow, "--resources", resources,
               "--seed", "7", "--out", str(out), "--repeat", "2"])
    assert rc == EXIT_OK
    for i in (0, 1):
        run_dir = out / f"run-{i}"
        assert (run_dir / "trace.jsonl").exists()
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["write_bytes"] == 512
        config = json.loads((run_dir / "config.json").read_text())
        assert config["seed"] == 7
    # byte totals are identical across repeats
    s0 = json.loads((out / "run-0" / "summary.json").read_text())
    s1 = json.loads((out / "run-1" / "summary.json").read_text())
    assert s0["read_bytes"] == s1["read_bytes"]
    assert s0["write_bytes"] == s1["write_bytes"]


@pytest.mark.parametrize("keep", [True, False])
def test_run_keep_scratch(tmp_path, tiny_workflow, resources, keep):
    scratch = tmp_path / "scratch-dir"
    argv = ["run", "--workflow", tiny_workflow, "--resources", resources,
            "--out", str(tmp_path / "out"), "--scratch", str(scratch)]
    assert main(argv + ["--keep-scratch"] * keep) == EXIT_OK
    written = sorted(scratch.glob("*.dat"))
    if keep:
        assert [p.name for p in written] == ["a-r0.dat"]
        assert written[0].stat().st_size == 512
    else:
        assert written == []


def test_run_workflow_requires_resources(tmp_path, tiny_workflow):
    rc = main(["run", "--workflow", tiny_workflow, "--out", str(tmp_path / "o")])
    assert rc == EXIT_USER


def test_run_exemplar_uses_fitting_pool(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--exemplar", "ip:serial_cpu:V1",
               "--desk-scale", "0.002", "--rank-scale", "0.002",
               "--out", str(out)])
    assert rc == EXIT_OK
    trace = (out / "run-0" / "trace.jsonl").read_text().splitlines()
    assert json.loads(trace[0])["kind"] == "run"


def test_validate_pass_and_fail(tmp_path, capsys):
    def summary_file(name, makespan, read, write):
        return write_json(tmp_path / name, {
            "makespan": makespan, "cpu_util_pct": 0.0, "gpu_util_pct": 0.0,
            "read_bytes": read, "write_bytes": write, "per_task": {}})

    o1 = summary_file("o1.json", 100.0, 1000, 500)
    o2 = summary_file("o2.json", 200.0, 2000, 1000)
    m1 = summary_file("m1.json", 25.0, 250, 125)
    m2 = summary_file("m2.json", 50.0, 500, 250)
    report = tmp_path / "ratios.json"
    rc = main(["validate", "--original", o1, o2, "--mini", m1, m2,
               "--out", str(report)])
    assert rc == EXIT_OK
    doc = json.loads(report.read_text())
    assert doc["r_time"] == pytest.approx(0.25)
    assert "pass" in capsys.readouterr().out

    drifted = summary_file("m2-bad.json", 100.0, 500, 250)  # r_time 0.5 vs 0.25
    rc = main(["validate", "--original", o1, o2, "--mini", m1, drifted,
               "--out", str(report)])
    assert rc == EXIT_RUNTIME


def test_repro_over_run_dirs(tmp_path, tiny_workflow, resources, capsys):
    out = tmp_path / "runs"
    assert main(["run", "--workflow", tiny_workflow, "--resources", resources,
                 "--out", str(out), "--repeat", "3"]) == EXIT_OK
    report = tmp_path / "variation.json"
    rc = main(["repro", "--runs", str(out), "--out", str(report)])
    assert rc == EXIT_OK
    doc = json.loads(report.read_text())
    assert doc["samples"] == 3
    assert doc["per_metric"]["write_bytes"]["std"] == 0.0


def test_report_csv_and_svg(tmp_path, tiny_workflow, resources):
    out = tmp_path / "runs"
    main(["run", "--workflow", tiny_workflow, "--resources", resources,
          "--out", str(out)])
    run_dir = str(out / "run-0")
    csv_dir = tmp_path / "csv"
    assert main(["report", "--trace", run_dir, "--out", str(csv_dir)]) == EXIT_OK
    assert (csv_dir / "utilization-timeline.csv").exists()
    assert (csv_dir / "io-timeline.csv").exists()
    svg_dir = tmp_path / "svg"
    assert main(["report", "--trace", run_dir, "--format", "svg",
                 "--out", str(svg_dir)]) == EXIT_OK
    assert "<svg" in (svg_dir / "utilization-timeline.svg").read_text()


@pytest.mark.parametrize("header", [
    {"kind": "run", "schema": 2, "pool": {"num_nodes": 1, "cpus_per_node": 1}, "tasks": []},
    {"kind": "run", "schema": 2, "run_id": "r", "tasks": []},
    {"kind": "run", "schema": 2, "run_id": "r", "pool": {"cpus_per_node": 1}, "tasks": []},
], ids=["no-run-id", "no-pool", "no-num-nodes"])
def test_report_on_a_bad_trace_header_names_the_file(tmp_path, capsys, header):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(ValueError, match=str(path)):
        RunTrace.read_jsonl(path)
    assert main(["report", "--trace", str(path), "--out", str(tmp_path / "out")]) == EXIT_USER
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_exemplar_export(tmp_path):
    out = tmp_path / "ip.json"
    rc = main(["exemplar", "--id", "ip:serial_cpu:V1", "--out", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert len(doc["tasks"]) == 6
    assert doc["execution_model"] == "serial"


def test_calibrate_command(tmp_path, tiny_workflow):
    profile = write_json(tmp_path / "profile.json", {
        "workflow": {"makespan_s": 0.4, "read_bytes": 0, "write_bytes": 4096},
        "categories": {"work": {"makespan_s": 0.4, "read_bytes": 0,
                                "write_bytes": 4096}},
    })
    mapping = tmp_path / "mapping.json"
    rc = main(["calibrate", "--workflow", tiny_workflow, "--profile", profile,
               "--ratio", "0.5", "--tolerance", "0.05", "--max-iters", "5",
               "--out", str(mapping)])
    assert rc == EXIT_OK
    doc = json.loads(mapping.read_text())
    assert doc["ratio"] == 0.5
    tuned_write = doc["spec"]["tasks"][0]["program"][0]["params"]["data_size"]
    assert abs(tuned_write - 2048) <= 0.05 * 2048


def test_bad_json_is_user_error(tmp_path, resources):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    rc = main(["run", "--workflow", str(bad), "--resources", resources,
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_USER


def test_unknown_exemplar_is_user_error(tmp_path):
    rc = main(["run", "--exemplar", "nope:nope:V1", "--out", str(tmp_path / "o")])
    assert rc == EXIT_USER


def test_missing_spec_source_errors():
    with pytest.raises(SystemExit):
        main(["run"])
