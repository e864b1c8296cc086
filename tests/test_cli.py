"""End-to-end runs of the command-line driver."""

import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lamlab import (GOLDEN_MEAN, Box, build_model, builtin_harmonic_stencil,
                    builtin_n_well, chaotic_momentum_orbit, generic_parameter,
                    psi_epsilon, psi_epsilon_grid, quasi_newton_continue,
                    residual_field, sample_config, step_hull_from_simplex,
                    vague_distance)
import lamlab
from lamlab import (cli, continuation, errors, measure, twistmap,
                    verification)
from lamlab.cli import MAX_WINDOW_SITES, _Reprs, _SolutionTable, main
from lamlab.continuation import (LABEL_TOL, _order, _ordering_matrix,
                                 continue_lamination)
from test_continuation import flag_member_off_birkhoff

# the top-level spec keys each command takes, as the README documents
# them; stated apart from the code that reads them. "momentum" names the
# momentum orbits of the orbit command
SPEC_KEYS = {
    "continue": {"model", "omega", "eps", "p", "s", "window_radius",
                 "k_max", "M1", "M2"},
    "lamination": {"model", "omega", "eps", "p", "window_radius",
                   "n_samples", "k_max"},
    "measure": {"model", "omega", "eps", "p", "window_radius", "n",
                "injectivity"},
    "cantorus": {"model", "omega", "eps", "p", "wells", "window_radius",
                 "n_samples", "s0"},
    "momentum": {"model", "eps", "window_radius", "labels"},
    "verify": {"model", "checks"},
    "sweep": {"model", "omega", "eps_values", "p", "window_radius"},
}

BASE = {
    "model": {},
    "omega": "golden",
    "eps": "eps1/2",
    "p": [0.3, 0.7],
    "window_radius": 8,
}


def write_spec(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def read_dir(d):
    return {f.name: f.read_bytes() for f in d.iterdir() if f.is_file()}


def test_continue_writes_artifacts(tmp_path):
    spec = dict(BASE, M1=4, M2=7)
    out = tmp_path / "run"
    rc = main(["continue", "--spec", write_spec(tmp_path, "s.json", spec),
               "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    summary = json.loads((out / "summary.json").read_text())
    assert manifest["command"] == "continue"
    assert manifest["parameters"]["p"] == [0.3, 0.7]
    assert manifest["constants"]["eps1"] == pytest.approx(0.001073511824875158)
    assert manifest["parameters"]["eps"] == manifest["constants"]["eps1"] / 2.0
    assert summary["ordered"] is True
    assert summary["final_residual"] <= 1e-12
    assert summary["truncation"]["holds"] is True
    header = (out / "solution.csv").read_text().splitlines()[0]
    assert header == "i,x0,x,residual"


def test_k_max_beyond_the_window_changes_no_summary(tmp_path):
    # the scanned window has 9 sites, so no shift beyond 8 overlaps it
    for k_max in (16, 200000):
        spec = write_spec(tmp_path, f"{k_max}.json", dict(BASE, k_max=k_max))
        assert main(["continue", "--spec", spec,
                     "--out", str(tmp_path / str(k_max))]) == 0
    assert (tmp_path / "16" / "summary.json").read_bytes() == \
        (tmp_path / "200000" / "summary.json").read_bytes()


def test_reruns_are_byte_identical(tmp_path):
    spec = write_spec(tmp_path, "s.json", BASE)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["continue", "--spec", spec, "--out", str(a)]) == 0
    assert main(["continue", "--spec", spec, "--out", str(b)]) == 0
    assert read_dir(a) == read_dir(b)


def pin_cpus(monkeypatch, n):
    """Make this process see ``n`` usable CPUs, so that the worker count
    a test asks for is not cut to the host's."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def test_threading_does_not_change_bytes(tmp_path, monkeypatch):
    pin_cpus(monkeypatch, 3)
    spec = write_spec(tmp_path, "s.json",
                      dict(BASE, window_radius=6, n_samples=4))
    runs = {"default": []}
    for threads in ("1", "2", "3"):
        runs[threads] = ["--threads", threads]
    for name, extra in runs.items():
        assert main(["lamination", "--spec", spec,
                     "--out", str(tmp_path / name), *extra]) == 0
    want = read_dir(tmp_path / "1")
    for name in runs:
        assert read_dir(tmp_path / name) == want, name
    assert {"manifest.json", "ordering_matrix.csv", "summary.json",
            "member_000.csv", "member_003.csv"} <= set(want)


def test_more_workers_than_members_change_no_bytes(tmp_path, monkeypatch):
    pin_cpus(monkeypatch, 4)
    spec = write_spec(tmp_path, "s.json",
                      dict(BASE, window_radius=6, n_samples=2))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["lamination", "--spec", spec, "--out", str(a),
                 "--threads", "1"]) == 0
    assert main(["lamination", "--spec", spec, "--out", str(b),
                 "--threads", "4"]) == 0
    assert read_dir(a) == read_dir(b)
    assert {"member_000.csv", "member_001.csv"} <= set(read_dir(a))


def test_one_worker_forks_nothing(tmp_path, monkeypatch):
    def refuse():
        raise AssertionError("forked with one worker")

    monkeypatch.setattr(cli.os, "fork", refuse)
    spec = write_spec(tmp_path, "s.json",
                      dict(BASE, window_radius=6, n_samples=3))
    assert main(["lamination", "--spec", spec, "--out", str(tmp_path / "o"),
                 "--threads", "1"]) == 0


# members 0-1 fall to this process and members 2-3 to the forked child
@pytest.mark.parametrize("blocked", ["member_003.csv", "member_001.csv"])
def test_failing_worker_exits_1_and_leaves_no_child(tmp_path, capsys,
                                                    monkeypatch, blocked):
    pin_cpus(monkeypatch, 2)
    out = tmp_path / "o"
    (out / blocked).mkdir(parents=True)
    spec = write_spec(tmp_path, "s.json",
                      dict(BASE, window_radius=6, n_samples=4))
    err = exits_with_one_line(capsys, ["lamination", "--spec", spec,
                                       "--out", str(out), "--threads", "2"], 1)
    assert blocked in err
    assert not (out / "summary.json").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_that_dies_silently_is_reported():
    def work(part):
        if 1 in part:
            os._exit(3)

    with pytest.raises(OSError, match="exited with status 3"):
        cli._in_workers(2, 2, work)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# without --threads the worker count is the usable CPUs
@pytest.mark.parametrize("setting", [{"argv": ["--threads", "5000"]}, {}])
def test_workers_are_capped_at_the_usable_cpus(tmp_path, monkeypatch,
                                               setting):
    # records the worker count instead of forking: nothing is started
    pin_cpus(monkeypatch, 2)
    asked = []

    def record(n, workers, work):
        asked.append(workers)
        work(range(n))

    monkeypatch.setattr(cli, "_in_workers", record)
    spec = write_spec(tmp_path, "s.json",
                      dict(BASE, window_radius=6, n_samples=3))
    assert main(["lamination", "--spec", spec, "--out", str(tmp_path / "o"),
                 *setting.get("argv", [])]) == 0
    assert asked == [2]


def test_zero_threads_exit_1_before_any_run_directory(tmp_path, capsys):
    out = tmp_path / "o"
    spec = write_spec(tmp_path, "s.json", BASE)
    for argv in (["continue", "--spec", spec, "--out", str(out)], ["verify"]):
        err = exits_with_one_line(capsys, [*argv, "--threads", "0"], 1)
        assert err == "error: threads must be at least 1\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", "0"])
def test_threads_variable_is_not_read(tmp_path, monkeypatch, value):
    spec = write_spec(tmp_path, "s.json", BASE)

    def run(name):
        out = tmp_path / name
        assert main(["continue", "--spec", spec, "--out", str(out / "c")]) == 0
        assert main(["verify", "--out", str(out / "v")]) == 0
        return read_dir(out / "c"), read_dir(out / "v")

    plain = run("plain")
    monkeypatch.setenv("LAMLAB_THREADS", value)
    assert run("set") == plain
    assert "verify.json" in plain[1]


def test_schema_problems_exit_1(tmp_path):
    out = str(tmp_path / "o")
    bad_key = write_spec(tmp_path, "a.json", dict(BASE, bogus=1))
    assert main(["continue", "--spec", bad_key, "--out", out]) == 1
    missing = {k: v for k, v in BASE.items() if k != "p"}
    assert main(["continue", "--spec", write_spec(tmp_path, "b.json", missing),
                 "--out", out]) == 1
    garbage = tmp_path / "c.json"
    garbage.write_text("{not json")
    assert main(["continue", "--spec", str(garbage), "--out", out]) == 1
    assert main(["continue", "--spec", str(tmp_path / "absent.json"),
                 "--out", out]) == 1
    assert main(["continue", "--spec", write_spec(tmp_path, "d.json", BASE)]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["continue", "--spec", write_spec(tmp_path, "e.json", BASE),
                 "--out", out, "--threads", "0"]) == 1


@pytest.mark.parametrize("body,message", [
    (dict(BASE, model={"potential": {"kind": "bogus"}}),
     "unknown potential kind 'bogus'"),
    (dict(BASE, model={"potential": {"kind": "table", "samples": [0.0] * 7}}),
     "table potential needs at least 8 samples"),
    (dict(BASE, model={"stencil": {"kind": "cubic"}}),
     "model.stencil must be harmonic (with a dimension d)"),
    (dict(BASE, omega="silver"), "unknown omega name 'silver'"),
    (dict(BASE, eps=-1e-3), "eps must be nonnegative"),
    (None, "this command needs --spec <file>"),
    ([BASE], "spec must be a JSON object"),
], ids=["kind", "samples", "stencil", "omega", "eps", "no-spec", "array"])
def test_one_line_refusals(tmp_path, capsys, body, message):
    out = tmp_path / "o"
    spec = [] if body is None else [
        "--spec", write_spec(tmp_path, "s.json", body)]
    err = exits_with_one_line(
        capsys, ["continue", *spec, "--out", str(out)], 1)
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command,seed", [("verify", "-3"), ("orbit", "-1")])
def test_negative_seeds_exit_1_before_anything(tmp_path, capsys, command,
                                               seed):
    out = tmp_path / "o"
    capsys.readouterr()
    assert main([command, "--spec", write_spec(tmp_path, "s.json", MOMENTUM
                                               if command == "orbit" else {}),
                 "--out", str(out), "--seed", seed]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be an integer of at least 0\n"
    assert captured.out == ""
    assert not out.exists()


def test_refused_and_no_convergence_exits(tmp_path):
    out = str(tmp_path / "o")
    hot = write_spec(tmp_path, "hot.json", dict(BASE, eps=0.5))
    assert main(["continue", "--spec", hot, "--out", out]) == 2
    ok = write_spec(tmp_path, "ok.json", dict(BASE, window_radius=6))
    assert main(["continue", "--spec", ok, "--out", out,
                 "--tol", "1e-30"]) == 3


def test_eps_expressions(tmp_path):
    spec = write_spec(tmp_path, "s.json", dict(BASE, eps="eps0"))
    out = tmp_path / "o"
    assert main(["continue", "--spec", spec, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["eps"] == manifest["constants"]["eps0"]
    bad = write_spec(tmp_path, "b.json", dict(BASE, eps="eps2"))
    assert main(["continue", "--spec", bad, "--out", str(out)]) == 1
    zero = write_spec(tmp_path, "z.json", dict(BASE, eps="eps1/0"))
    assert main(["continue", "--spec", zero, "--out", str(out)]) == 1


def test_verify_passes_and_prints(tmp_path, capsys):
    out = tmp_path / "v"
    assert main(["verify", "--out", str(out)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 9
    assert all("PASS" in l for l in lines)
    report = json.loads((out / "verify.json").read_text())
    assert all(row["passed"] for row in report["checks"])


def test_verify_records_a_check_that_raises(tmp_path, capsys, monkeypatch):
    def boom(model, **kwargs):
        raise ValueError("not a lamlab error")

    checks = list(verification.CHECKS)
    checks[3] = (checks[3][0], boom)
    monkeypatch.setattr(verification, "CHECKS", checks)
    out = tmp_path / "v"
    assert main(["verify", "--out", str(out)]) == 2
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 9
    assert [l.split()[1] for l in lines] == ["FAIL" if k == 3 else "PASS"
                                             for k in range(9)]
    report = json.loads((out / "verify.json").read_text())["checks"]
    assert [row["name"] for row in report] == [n for n, _ in checks]
    assert [row["passed"] for row in report] == [k != 3 for k in range(9)]
    assert report[3]["detail"] == "ValueError: not a lamlab error"


@pytest.mark.parametrize("seed", ["15", "22"])
def test_verify_samples_near_rational_omega(seed, capsys):
    # these seeds draw an omega within 1e-9 of a rational in hull-axioms
    # or in a sampled lamination; sampling such an omega is well defined
    assert main(["verify", "--seed", seed]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 9
    assert all("PASS" in l for l in lines)


def test_verify_needs_no_out(capsys):
    assert main(["verify"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_flags_broken_model(tmp_path, capsys):
    # a tolerance no sound model meets stands in for a broken model
    spec = write_spec(tmp_path, "tamper.json", {
        "model": {}, "checks": {"stencil-sign-condition": -1.0}})
    out = tmp_path / "v"
    assert main(["verify", "--spec", spec, "--out", str(out)]) == 2
    report = json.loads((out / "verify.json").read_text())
    failed = [row["name"] for row in report["checks"] if not row["passed"]]
    assert failed == ["stencil-sign-condition"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"] == {
        "checks": {"stencil-sign-condition": -1.0}}
    capsys.readouterr()


@pytest.mark.parametrize("command", ["continue", "measure", "sweep",
                                     "verify"])
def test_flipped_stencils_are_refused(tmp_path, capsys, command):
    # every stencil is checked when it is built, so the CLI has no way
    # to run an antiferromagnetic one
    body = dict(SMALL[command][0], model={"stencil": {
        "kind": "harmonic", "d": 1, "flip_sign": True}})
    out = tmp_path / "o"
    err = exits_with_one_line(capsys, [
        command, "--spec", write_spec(tmp_path, "s.json", body),
        "--out", str(out)], 1)
    assert err == "error: unknown model.stencil keys: ['flip_sign']\n"
    assert not out.exists()


def test_verify_tampered_tolerance(tmp_path, capsys):
    spec = write_spec(tmp_path, "tamper.json",
                      {"checks": {"gradient-consistency": 1e-18}})
    assert main(["verify", "--spec", spec]) == 2
    outtext = capsys.readouterr().out
    assert "gradient-consistency" in outtext and "FAIL" in outtext


def test_momentum_coin_flip(tmp_path):
    # without labels, orbit draws one coin flip per site from --seed
    spec = write_spec(tmp_path, "m.json", {
        "model": {},
        "eps": 5e-4,
        "window_radius": 8,
    })
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["orbit", "--spec", spec, "--out", str(a), "--seed", "5"]) == 0
    summary = json.loads((a / "summary.json").read_text())
    assert summary["points"] == 16
    assert summary["map_residual"] <= 1e-8
    rows = (a / "orbit.csv").read_text().splitlines()
    assert rows[0] == "i,x,y"
    assert len(rows) == 17
    manifest = json.loads((a / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["parameters"]["labels"] == \
        np.random.default_rng(5).integers(0, 2, 19).astype(float).tolist()
    assert main(["orbit", "--spec", spec, "--out", str(b), "--seed", "5"]) == 0
    assert read_dir(a) == read_dir(b)


MOMENTUM = {"model": {}, "eps": 5e-4, "window_radius": 8}


@pytest.mark.parametrize("mspec", [{}, {"K": 4.0, "k": 0.25}])
def test_momentum_continues_with_the_manifest_model(tmp_path, mspec):
    # eps0 is resolved against the model the orbit is continued with, so
    # the coupling the manifest records is never refused
    spec = write_spec(tmp_path, "m.json",
                      dict(MOMENTUM, model=mspec, eps="eps0"))
    out = tmp_path / "o"
    assert main(["orbit", "--spec", spec, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    labels = np.asarray(manifest["parameters"]["labels"])
    constants = manifest["constants"]
    assert manifest["parameters"]["eps"] == constants["eps0"]
    # without model.K the envelope is sized for the label spread
    K = mspec.get("K", float(np.max(np.abs(np.diff(labels)))) + 2.0)
    model = build_model(builtin_n_well(2), builtin_harmonic_stencil(1), K=K,
                        k=mspec.get("k", 0.5))
    assert constants == model.constants.as_dict()
    orbit = chaotic_momentum_orbit(model, constants["eps0"], labels,
                                   Box.centered(8, 1))
    rows = (out / "orbit.csv").read_text().splitlines()[1:]
    assert rows == [f"{i},{x!r},{y!r}"
                    for i, (x, y) in enumerate(orbit.points.tolist())]


@pytest.mark.parametrize("labels", [
    None, [0.0, 0.25, 0.5, 1.5, 1.0, 0.75, 0.0, -0.5, -0.25, 0.0, 0.5, 1.0,
           1.25, 1.5, 1.0, 0.5, 0.0, 0.25, 0.5]], ids=["drawn", "given"])
def test_orbit_writes_the_momentum_orbit_of_its_labels(tmp_path, labels):
    # the bytes of the library's orbit, with labels drawn from --seed
    # when the spec gives none
    body = MOMENTUM if labels is None else dict(MOMENTUM, labels=labels)
    out = tmp_path / "o"
    assert main(["orbit", "--spec", write_spec(tmp_path, "m.json", body),
                 "--out", str(out), "--seed", "7"]) == 0
    if labels is None:
        labels = np.random.default_rng(7).integers(0, 2, 19).astype(float)
    labels = np.asarray(labels)
    model = build_model(builtin_n_well(2), builtin_harmonic_stencil(1),
                        K=float(np.max(np.abs(np.diff(labels)))) + 2.0)
    orbit = chaotic_momentum_orbit(model, 5e-4, labels, Box.centered(8, 1))
    assert (out / "orbit.csv").read_text() == "".join(
        ["i,x,y\n"] + [f"{i},{x!r},{y!r}\n"
                       for i, (x, y) in enumerate(orbit.points.tolist())])
    assert (out / "summary.json").read_text() == json.dumps({
        "eps": 5e-4, "points": 16,
        "map_residual": orbit.map_residual(model.potential)},
        sort_keys=True, indent=2) + "\n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["command"], manifest["seed"]) == ("orbit", 7)
    assert manifest["parameters"]["labels"] == labels.tolist()


def test_cantorus_cli(tmp_path):
    spec = write_spec(tmp_path, "c.json", {
        "model": {"potential": {"kind": "n_well", "N": 1}},
        "omega": "golden",
        "eps": "eps1/2",
        "window_radius": 8,
        "n_samples": 8,
    })
    out = tmp_path / "o"
    assert main(["cantorus", "--spec", spec, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["invariance_error"] <= 1e-8
    assert len((out / "cantorus.csv").read_text().splitlines()) == 9


def test_cantorus_on_the_criticals(tmp_path):
    # half the plateaus sit at the maximum 0.5 of the one-well background
    spec = write_spec(tmp_path, "c.json", {
        "model": {"potential": {"kind": "n_well", "N": 1}},
        "omega": "golden", "eps": "eps1/2", "wells": "criticals",
        "n_samples": 20,
    })
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["cantorus", "--spec", spec, "--out", str(a)]) == 0
    summary = json.loads((a / "summary.json").read_text())
    assert summary["invariance_error"] <= 1e-8
    delta0 = json.loads((a / "manifest.json").read_text())[
        "constants"]["delta0"]
    x0 = np.array([float(row.split(",")[1]) for row in
                   (a / "cantorus.csv").read_text().splitlines()[1:]])
    assert x0.size == 20
    assert np.any(np.abs(x0 - 0.5) <= delta0)
    assert main(["cantorus", "--spec", spec, "--out", str(b)]) == 0
    assert read_dir(a) == read_dir(b)


def test_momentum_labels_of_the_wrong_length_exit_1(tmp_path, capsys):
    # the default window radius 32 pads to 67 sites
    body = {k: v for k, v in MOMENTUM.items() if k != "window_radius"}
    spec = write_spec(tmp_path, "m.json", dict(body, labels=[0.0] * 66))
    out = tmp_path / "o"
    err = exits_with_one_line(
        capsys, ["orbit", "--spec", spec, "--out", str(out)], 1)
    assert err == "error: labels must be a list of 67 values\n"
    assert not out.exists()


CANTORUS = {
    "model": {"potential": {"kind": "n_well", "N": 1}},
    "omega": "golden",
    "eps": "eps1/2",
    "window_radius": 8,
    "n_samples": 8,
}


def exits_with_one_line(capsys, argv, code):
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("change", [
    {"p": 1.0},
    {"p": [0.5, 0.5]},
    {"p": ["1"]},
    {"p": [float("nan")]},
    {"s0": [1]},
    {"s0": float("inf")},
    {"s0": True},
    {"n_samples": 8.5},
    {"n_samples": [8]},
    {"omega": None},
])
def test_cantorus_input_types_exit_1(tmp_path, capsys, change):
    spec = write_spec(tmp_path, "c.json", dict(CANTORUS, **change))
    exits_with_one_line(
        capsys, ["cantorus", "--spec", spec, "--out", str(tmp_path / "o")], 1)


@pytest.mark.parametrize("command,change", [
    ("continue", {"p": [float("nan"), 1.0]}),
    ("continue", {"p": [0.3, float("inf")]}),
    ("continue", {"omega": float("nan")}),
    ("continue", {"omega": [float("-inf")]}),
    ("continue", {"eps": float("nan")}),
    ("continue", {"eps": float("inf")}),
    ("continue", {"s": float("nan")}),
    ("continue", {"omega": None}),
    ("continue", {"model": {"K": float("nan")}}),
    ("continue", {"model": {"k": [0.5]}}),
    ("continue", {"model": {"potential": {
        "kind": "table", "samples": [float("nan")] * 8}}}),
    ("continue", {"window_radius": 8.0}),
    ("continue", {"k_max": [2]}),
    ("lamination", {"n_samples": 2, "eps": float("nan")}),
    ("lamination", {"n_samples": 2, "k_max": 1.5}),
    ("sweep", {"eps_values": [float("nan")]}),
    ("measure", {"n": 4, "injectivity": {"spacing": 0}}),
    ("measure", {"n": 4, "injectivity": {"spacing": float("nan")}}),
    ("cantorus", {"eps": float("nan")}),
    ("cantorus", {"omega": [float("inf")]}),
    # JSON true and false are not integers, wherever one is expected
    ("continue", {"window_radius": False}),
    ("continue", {"window_radius": True}),
    ("continue", {"k_max": True}),
    ("continue", {"M1": True, "M2": 7}),
    ("continue", {"M1": 2, "M2": True}),
    ("continue", {"model": {"potential": {"kind": "n_well", "N": True}},
                  "p": [1.0]}),
    ("continue", {"model": {"stencil": {"kind": "harmonic", "d": True}}}),
    ("lamination", {"n_samples": True}),
    ("measure", {"n": True}),
    ("cantorus", {"n_samples": True}),
    ("cantorus", {"window_radius": True}),
    # injectivity is absent, null, or an object with an optional spacing
    ("measure", {"n": 4, "injectivity": True}),
    ("measure", {"n": 4, "injectivity": float("nan")}),
    ("measure", {"n": 4, "injectivity": [[0.5, 0.5]]}),
    ("measure", {"n": 4, "injectivity": 0}),
    ("measure", {"n": 4, "injectivity": {"spacing": 0.5, "points": []}}),
    # unknown or mistyped keys inside the model
    ("continue", {"model": {"stencil": {"kind": "harmonic", "d": 1,
                                        "bogus": 3}}}),
    ("continue", {"model": {"potential": {"kind": "n_well", "N": 2,
                                          "bogus": 3}}}),
    ("continue", {"model": {"potential": {
        "kind": "table", "N": 2,
        "samples": [0.3, 0.1, -0.2, -0.1, 0.05, 0.2, 0.4, 0.5]}},
        "p": [1.0]}),
    ("continue", {"model": {"stencil": {"kind": "harmonic",
                                        "flip_sign": 1}}}),
    ("cantorus", {"model": {"stencil": {"kind": "harmonic", "d": 1,
                                        "bogus": 3}}}),
    ("cantorus", {"model": {"K": True}}),
    # orbit, which refuses the omega and p of BASE
    ("orbit", {"labels": 5}),
    ("orbit", {"labels": [True] + [0.0] * 18}),
    ("orbit", {"labels": [float("nan")] + [0.0] * 18}),
    ("orbit", {"window_radius": True}),
    ("orbit", {"eps": float("nan")}),
    ("orbit", {"model": {"k": True}}),
])
def test_non_finite_and_mistyped_numbers_exit_1(tmp_path, capsys, command,
                                                change):
    body = dict(BASE, **change)
    if command == "sweep":
        del body["eps"]
    if command == "orbit":
        del body["omega"], body["p"]
    spec = write_spec(tmp_path, "s.json", body)
    err = exits_with_one_line(
        capsys, [command, "--spec", spec, "--out", str(tmp_path / "o")], 1)
    # the value is refused, not the key
    assert "spec keys" not in err


@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
def test_bad_tolerances_exit_1(tmp_path, capsys, tol):
    spec = write_spec(tmp_path, "s.json", BASE)
    exits_with_one_line(capsys, ["continue", "--spec", spec, "--out",
                                 str(tmp_path / "o"), "--tol", tol], 1)


@pytest.mark.parametrize("key", ["window_radius", "eps", "s"])
def test_huge_integers_exit_1(tmp_path, capsys, key):
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps(dict(BASE, **{key: 8})).replace(
        f'"{key}": 8', f'"{key}": 1' + "0" * 400))
    exits_with_one_line(
        capsys, ["continue", "--spec", str(spec), "--out", str(tmp_path / "o")],
        1)
    assert not (tmp_path / "o").exists()


HUGE = "1" + "0" * 400  # a JSON integer past the float range
TABLE_OF_HUGE = {"kind": "table", "samples": ["HUGE"] + [0.0] * 15}


@pytest.mark.parametrize("command,body,what", [
    ("continue", dict(BASE, eps="HUGE"), "eps"),
    ("sweep", dict({k: v for k, v in BASE.items() if k != "eps"},
                   eps_values=["eps1/2", "HUGE"]), "eps"),
    ("continue", dict(BASE, model={"K": "HUGE"}), "model.K"),
    ("continue", dict(BASE, model={"k": "HUGE"}), "model.k"),
    ("continue", dict(BASE, s="HUGE"), "s"),
    ("cantorus", dict(CANTORUS, s0="HUGE"), "s0"),
    ("continue", dict(BASE, p=[0.3, "HUGE"]), "every entry of p"),
    ("orbit", dict(MOMENTUM, labels=["HUGE"] + [0.0] * 18), "every label"),
    ("continue", dict(BASE, omega=["HUGE"]),
     "every omega entry (a number or a known name)"),
    ("continue", dict(BASE, model={"potential": TABLE_OF_HUGE}),
     "every table sample"),
    ("measure", dict(BASE, n=4, injectivity={"spacing": "HUGE"}),
     "injectivity spacing"),
    ("verify", {"checks": {"hull-axioms": "HUGE"}},
     "the tolerance of hull-axioms"),
], ids=["eps", "eps_values", "K", "k", "s", "s0", "p", "labels", "omega",
        "samples", "spacing", "checks"])
def test_huge_integers_name_their_key(tmp_path, capsys, command, body, what):
    # each "HUGE" string of the body becomes the integer HUGE
    body = {k: v for k, v in body.items() if v is not None}
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps(body).replace('"HUGE"', HUGE))
    out = tmp_path / "o"
    err = exits_with_one_line(
        capsys, [command, "--spec", str(spec), "--out", str(out)], 1)
    assert err == f"error: {what} must be a finite number\n"
    assert not out.exists()


def test_cantorus_failures_keep_their_exit_codes(tmp_path, capsys):
    out = str(tmp_path / "o")
    spec = write_spec(tmp_path, "c.json", CANTORUS)
    exits_with_one_line(capsys, ["cantorus", "--spec", spec, "--out", out,
                                 "--tol", "1e-30"], 3)
    hot = write_spec(tmp_path, "h.json", dict(CANTORUS, eps=0.5))
    exits_with_one_line(capsys, ["cantorus", "--spec", hot, "--out", out], 2)


def test_measure_cli(tmp_path):
    spec = write_spec(tmp_path, "m.json", {
        "model": {},
        "omega": "golden",
        "eps": "eps1/2",
        "p": [0.3, 0.7],
        "n": 30,
        "window_radius": 30,
    })
    out = tmp_path / "o"
    assert main(["measure", "--spec", spec, "--out", str(out)]) == 0
    measure = json.loads((out / "measure.json").read_text())
    masses = {round(a, 3): m for a, m in measure["atoms"]}
    assert abs(masses[0.0] - 0.3) <= 0.2
    assert abs(masses[0.5] - 0.7) <= 0.2
    lines = (out / "density.csv").read_text().splitlines()
    assert lines[0] == "n,p1,p2"
    assert len(lines) == 4


def test_measure_without_n_or_window_radius_uses_the_default_ball(tmp_path):
    body = {k: v for k, v in BASE.items() if k != "window_radius"}
    out = tmp_path / "o"
    assert main(["measure", "--spec", write_spec(tmp_path, "m.json", body),
                 "--out", str(out)]) == 0
    parameters = json.loads((out / "manifest.json").read_text())["parameters"]
    assert parameters["n"] == 377 and parameters["window_radius"] == 377


def test_lamination_member_off_birkhoff_exits_2(tmp_path, capsys,
                                                monkeypatch):
    flag_member_off_birkhoff(monkeypatch, 2, ((1,), 0, (0,), (1,)))
    spec = write_spec(tmp_path, "s.json",
                      dict(BASE, window_radius=6, n_samples=4))
    out = tmp_path / "o"
    err = exits_with_one_line(
        capsys, ["lamination", "--spec", spec, "--out", str(out)], 2)
    assert err == "error: lamination member 2 crosses its translate\n"
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("inj,points", [
    (None, None), ({}, 5), ({"spacing": 0.5}, 3),
])
def test_measure_injectivity_forms(tmp_path, inj, points):
    body = dict(BASE, n=4, injectivity=inj)
    out = tmp_path / "o"
    assert main(["measure", "--spec", write_spec(tmp_path, "m.json", body),
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    if points is None:
        assert "injectivity" not in summary
        assert not (out / "injectivity.csv").exists()
    else:
        # an empty object runs the default 0.25 grid
        assert len(summary["injectivity"]["grid"]) == points
        rows = (out / "injectivity.csv").read_text().splitlines()
        assert len(rows) == 1 + points * (points - 1) // 2


def per_pair_injectivity(grid, measures):
    # reference: the one-call-per-pair loop the column-wise table replaced
    pair_rows = []
    min_margin = np.inf
    for a in range(len(grid)):
        for b in range(a + 1, len(grid)):
            dist = vague_distance(measures[a], measures[b])
            l1 = 0.0
            for u, v in zip(grid[a], grid[b]):
                l1 += abs(u - v)
            min_margin = min(min_margin, dist - l1)
            pair_rows.append([str(a), str(b), repr(l1), repr(float(dist))])
    lines = ["a,b,l1,vague_distance", *map(",".join, pair_rows)]
    return ("\n".join(lines) + "\n").encode(), float(min_margin)


@pytest.mark.parametrize("wells,spacing", [(2, 0.25), (3, 0.25), (3, 0.3)])
def test_injectivity_table_matches_per_pair_loop(tmp_path, monkeypatch,
                                                 wells, spacing):
    check_injectivity_table(tmp_path, monkeypatch, wells, spacing)


# blocks of 1, 5 and 7 pairs cut the grid's rows a unevenly
@pytest.mark.parametrize("wells,spacing", [(2, 0.25), (3, 0.25), (3, 0.3)])
@pytest.mark.parametrize("block", [1, 5, 7])
def test_injectivity_table_in_blocks_matches_per_pair_loop(
        tmp_path, monkeypatch, block, wells, spacing):
    monkeypatch.setattr(cli, "_BLOCK", block)
    check_injectivity_table(tmp_path, monkeypatch, wells, spacing)


def check_injectivity_table(tmp_path, monkeypatch, wells, spacing):
    measures = []

    def recording(*args, **kwargs):
        for mu in psi_epsilon_grid(*args, **kwargs):
            measures.append(mu)
            yield mu

    monkeypatch.setattr(cli, "psi_epsilon_grid", recording)
    body = dict(BASE, model={"potential": {"kind": "n_well", "N": wells}},
                p=[1.0 / wells] * wells, n=4,
                injectivity={"spacing": spacing})
    out = tmp_path / "o"
    assert main(["measure", "--spec", write_spec(tmp_path, "m.json", body),
                 "--out", str(out)]) == 0
    grid = json.loads((out / "summary.json").read_text())["injectivity"]
    # the first call is the spec's own p
    csv, margin = per_pair_injectivity(grid["grid"], measures[1:])
    assert (out / "injectivity.csv").read_bytes() == csv
    assert grid["min_margin"] == margin


def measure_peak_bytes(tmp_path, spacing):
    body = dict(BASE, model={"potential": {"kind": "n_well", "N": 3}},
                p=[1.0 / 3] * 3, n=8, injectivity={"spacing": spacing})
    spec = write_spec(tmp_path, f"m{spacing}.json", body)
    tracemalloc.start()
    try:
        assert main(["measure", "--spec", spec,
                     "--out", str(tmp_path / f"o{spacing}")]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_measure_peak_memory_does_not_grow_with_pairs(tmp_path):
    # 231 grid points (26,565 pairs) against 861 (370,230 pairs): both
    # tables fill many blocks and are written a block at a time, so only
    # the grid's own measures may add to the peak. Both runs span whole
    # blocks, so the bound holds whether or not this interpreter has
    # warmed its caches on earlier tests.
    small = measure_peak_bytes(tmp_path, 0.05)
    large = measure_peak_bytes(tmp_path, 0.025)
    assert large <= 2 * small


def test_one_point_injectivity_grid_writes_strict_json(tmp_path):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    body = dict(BASE, model={"potential": {"kind": "n_well", "N": 1}},
                p=[1.0], n=4, injectivity={"spacing": 0.5})
    out = tmp_path / "o"
    assert main(["measure", "--spec", write_spec(tmp_path, "m.json", body),
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=refuse)
    assert summary["injectivity"] == {"grid": [[1.0]], "min_margin": None}
    assert (out / "injectivity.csv").read_text() == "a,b,l1,vague_distance\n"


@pytest.mark.parametrize("change", [
    {"M1": 2.5, "M2": 7},
    {"M1": 4},
    {"M1": -1, "M2": 7},
    {"M1": 4, "M2": 4},
])
def test_bad_truncation_balls_exit_before_the_manifest(tmp_path, capsys,
                                                        change):
    out = tmp_path / "o"
    spec = write_spec(tmp_path, "s.json", dict(BASE, **change))
    exits_with_one_line(capsys, ["continue", "--spec", spec, "--out",
                                 str(out)], 1)
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command,change", [
    ("continue", {"omega": 0.5}),
    ("lamination", {"omega": 0.5, "n_samples": 2}),
    ("measure", {"omega": 0.5, "n": 4}),
    ("cantorus", {"omega": 0.5}),
    ("sweep", {"omega": 0.5}),
    # the solution covers the window and its collar of one site
    ("measure", {"n": 10}),
    # no default n in three dimensions
    ("measure", {"model": {"stencil": {"kind": "harmonic", "d": 3}},
                 "omega": ["golden", "sqrt2-1", "sqrt3-1"],
                 "window_radius": 2}),
    # a key no command takes any more
    ("cantorus", {"mode": "momentum"}),
    # neither n nor window_radius in three dimensions
    ("measure", {"model": {"stencil": {"kind": "harmonic", "d": 3}},
                 "omega": ["golden", "sqrt2-1", "sqrt3-1"],
                 "window_radius": None}),
    # each component is irrational, but their difference is 0
    ("continue", {"model": {"stencil": {"kind": "harmonic", "d": 2}},
                  "omega": ["golden", "golden"]}),
    ("orbit", {"omega": None, "p": None,
               "model": {"stencil": {"kind": "harmonic", "d": 2}}}),
])
def test_refused_before_the_manifest(tmp_path, capsys, command, change):
    body = {k: v for k, v in dict(BASE, **change).items() if v is not None}
    if command == "sweep":
        body["eps_values"] = [body.pop("eps")]
    out = tmp_path / "o"
    spec = write_spec(tmp_path, "s.json", body)
    err = exits_with_one_line(
        capsys, [command, "--spec", spec, "--out", str(out)], 1)
    # not even the run directory is made
    assert not out.exists()
    assert "np.float64" not in err
    if "mode" in change:
        assert err == "error: unknown cantorus spec keys: ['mode']\n"
    if command == "orbit":
        assert err == "error: orbit needs a one-dimensional stencil\n"
    if change.get("omega") == 0.5:
        assert err == "error: rotation component 0.5 is within 1e-09 of 1/2\n"
    if body["model"].get("stencil", {}).get("d") == 3:
        assert err == "error: no default ball radius in this dimension; pass n\n"
    if change.get("omega") == ["golden", "golden"]:
        omega = [float(GOLDEN_MEAN)] * 2
        assert err == (f"error: rotation vector {omega} has k . omega within "
                       "1e-09 of an integer for k = (1, -1)\n")


def test_window_too_large_to_allocate_exits_1(tmp_path, capsys):
    # 2**40 fits in int64, but its sites alone ask for 16 TiB at once
    out = tmp_path / "o"
    spec = write_spec(tmp_path, "s.json", dict(BASE, window_radius=2**40))
    exits_with_one_line(capsys, ["continue", "--spec", spec, "--out",
                                 str(out)], 1)
    assert not out.exists()
    lam = write_spec(tmp_path, "l.json",
                     dict(BASE, window_radius=2**40, n_samples=2))
    exits_with_one_line(capsys, ["lamination", "--spec", lam, "--out",
                                 str(tmp_path / "l")], 1)
    assert not (tmp_path / "l").exists()


@pytest.mark.parametrize("d", [1, 2])
def test_window_site_cap_is_exact(d):
    # the largest radius whose padded window fits under the cap, and one
    # more; neither window is allocated
    sten = builtin_harmonic_stencil(d)
    side = int(MAX_WINDOW_SITES ** (1 / d))
    while (side + 1) ** d <= MAX_WINDOW_SITES:
        side += 1
    radius = (side - 1) // 2 - sten.range
    window = cli._parse_window({"window_radius": radius}, sten)
    assert math.prod(window.padded(sten.range).shape) <= MAX_WINDOW_SITES
    with pytest.raises(errors.SchemaError, match="at most 67108864"):
        cli._parse_window({"window_radius": radius + 1}, sten)


def test_momentum_window_above_the_cap_exits_1(tmp_path, capsys):
    out = tmp_path / "o"
    spec = write_spec(tmp_path, "m.json", {
        "model": {}, "eps": 0.001, "window_radius": 2**40})
    exits_with_one_line(capsys, ["orbit", "--spec", spec, "--out",
                                 str(out)], 1)
    assert not out.exists()


def test_out_that_is_a_file_exits_1(tmp_path, capsys):
    out = tmp_path / "o"
    out.write_text("kept")
    spec = write_spec(tmp_path, "s.json", BASE)
    exits_with_one_line(capsys, ["continue", "--spec", spec, "--out",
                                 str(out)], 1)
    assert out.read_text() == "kept"


def test_largest_covered_density_radius_runs(tmp_path):
    out = tmp_path / "o"
    spec = write_spec(tmp_path, "s.json", dict(BASE, n=9))
    assert main(["measure", "--spec", spec, "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())[
        "parameters"]["n"] == 9


@pytest.mark.parametrize("n", [True, 2.5, 0])
def test_bad_density_radius_without_window_names_n(tmp_path, capsys, n):
    body = {k: v for k, v in BASE.items() if k != "window_radius"}
    out = tmp_path / "o"
    err = exits_with_one_line(capsys, [
        "measure", "--spec", write_spec(tmp_path, "s.json", dict(body, n=n)),
        "--out", str(out)], 1)
    assert err == "error: n must be an integer of at least 1\n"
    assert not out.exists()


def test_unit_density_radius_without_window_runs_on_the_smallest(tmp_path):
    body = {k: v for k, v in BASE.items() if k != "window_radius"}
    out = tmp_path / "o"
    assert main(["measure", "--spec",
                 write_spec(tmp_path, "s.json", dict(body, n=1)),
                 "--out", str(out)]) == 0
    params = json.loads((out / "manifest.json").read_text())["parameters"]
    assert (params["n"], params["window_radius"]) == (1, 2)


def test_default_density_radius_fits_the_window(tmp_path):
    # 377 in one dimension, cut to window_radius + r
    out = tmp_path / "o"
    spec = write_spec(tmp_path, "s.json", BASE)
    assert main(["measure", "--spec", spec, "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())[
        "parameters"]["n"] == 9
    window = Box.centered(BASE["window_radius"], 1)
    model = build_model(builtin_n_well(2), builtin_harmonic_stencil(1),
                        omega=[GOLDEN_MEAN])
    mu = psi_epsilon(model, model.constants.eps1 / 2, BASE["p"],
                     [GOLDEN_MEAN], window)
    assert mu.density_table[-1][0] == 9
    assert json.loads((out / "measure.json").read_text())["atoms"] == \
        mu.as_pairs()


# the exit code of every error main catches, as errors.py and the README
# list them
EXIT_CODES = {
    errors.SchemaError: 1, errors.ModelInvalid: 1,
    errors.ContinuationRefused: 2, errors.ContractionEscape: 2,
    errors.NotBirkhoff: 2, errors.LaminationBroken: 2,
    errors.CheckInconclusive: 2, errors.UnclassifiableSite: 2,
    errors.NoConvergence: 3,
    ValueError: 1, OverflowError: 1, OSError: 1, FileNotFoundError: 1,
}


def test_every_package_error_has_an_exit_code():
    assert set(errors.LamlabError.__subclasses__()) <= set(EXIT_CODES)


@pytest.mark.parametrize("exc,code", list(EXIT_CODES.items()),
                         ids=lambda v: getattr(v, "__name__", str(v)))
def test_main_maps_each_error_to_its_exit_code(tmp_path, capsys, monkeypatch,
                                               exc, code):
    def raising(*args):
        raise exc("boom")

    monkeypatch.setitem(cli._COMMANDS, "continue", raising)
    spec = write_spec(tmp_path, "s.json", BASE)
    exits_with_one_line(
        capsys, ["continue", "--spec", spec, "--out", str(tmp_path / "o")],
        code)


SMALL = {
    "continue": (BASE, {"omega", "eps", "p", "s", "window_radius", "k_max",
                        "M1", "M2"}),
    "lamination": (dict(BASE, window_radius=4, n_samples=2),
                   {"omega", "eps", "p", "window_radius", "n_samples",
                    "k_max"}),
    "measure": (dict(BASE, n=4),
                {"omega", "eps", "p", "n", "window_radius", "injectivity"}),
    "cantorus": (dict(BASE, p=[0.5, 0.5], n_samples=2),
                 {"omega", "eps", "p", "wells", "window_radius", "n_samples",
                  "s0"}),
    "momentum": (MOMENTUM, {"eps", "window_radius", "labels"}),
    "sweep": ({"model": {}, "omega": "golden", "eps_values": ["eps1/2"],
               "p": [0.3, 0.7], "window_radius": 4},
              {"omega", "eps_values", "p", "s", "window_radius"}),
    "verify": ({"model": {}}, {"checks"}),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_manifest_parameter_keys(tmp_path, capsys, name):
    body, keys = SMALL[name]
    command = "orbit" if name == "momentum" else name
    out = tmp_path / "o"
    spec = write_spec(tmp_path, "s.json", body)
    assert main([command, "--spec", spec, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"command", "parameters", "constants", "seed",
                             "tol"}
    params = manifest["parameters"]
    assert set(params) == keys
    if "omega" in keys:
        assert params["omega"] == [GOLDEN_MEAN]
    if "window_radius" in keys:
        assert params["window_radius"] == body["window_radius"]
    capsys.readouterr()


# a value of the right type for every key some command takes
KEY_VALUES = {
    "model": {}, "omega": "golden", "eps": "eps1/2",
    "p": [0.5, 0.5], "s": 0.3, "window_radius": 4, "k_max": 2, "M1": 1,
    "M2": 3, "n_samples": 2, "n": 3, "injectivity": {"spacing": 0.5},
    "wells": "minima", "s0": 0.5, "labels": [0.0] * 19,
    "checks": {}, "eps_values": ["eps1/2"],
}
# keys that no command takes any more, with values they used to take:
# the run seed is --seed alone, and momentum orbits are the orbit command
REMOVED_KEYS = {"seed": 1, "mode": "momentum", "coin_flip": {"seed": 1}}
ANY_KEY_VALUES = KEY_VALUES | REMOVED_KEYS


def test_key_values_cover_every_spec_key():
    assert set(KEY_VALUES) == set().union(*SPEC_KEYS.values())


@pytest.mark.parametrize("name,key", [
    (name, key) for name in sorted(SMALL)
    for key in sorted(ANY_KEY_VALUES)
    if key not in SPEC_KEYS[name]])
def test_keys_a_command_does_not_take_are_refused(tmp_path, capsys, name,
                                                  key):
    # the valid base spec of one command, with a key only others take
    body = dict(SMALL[name][0], **{key: ANY_KEY_VALUES[key]})
    command = "orbit" if name == "momentum" else name
    out = tmp_path / "o"
    err = exits_with_one_line(capsys, [
        command, "--spec", write_spec(tmp_path, "s.json", body),
        "--out", str(out)], 1)
    assert err == f"error: unknown {command} spec keys: {[key]}\n"
    assert not out.exists()


@pytest.mark.parametrize("command,body,extra,message", [
    # a key that sweep does not read
    ("sweep", dict(SMALL["sweep"][0], k_max="banana"), [],
     "unknown sweep spec keys: ['k_max']"),
    # a momentum-orbit spec as cantorus took it
    ("orbit", dict(MOMENTUM, mode="momentum"), [],
     "unknown orbit spec keys: ['mode']"),
    # --seed is the only seed; a negative one is refused
    ("continue", BASE, ["--seed", "-1"],
     "seed must be an integer of at least 0"),
    # a divisor is one or more ASCII digits, not all zero
    ("continue", dict(BASE, eps="eps1/"), [],
     "cannot parse eps divisor in 'eps1/'"),
    ("continue", dict(BASE, eps="eps1/\u00b2"), [],
     "cannot parse eps divisor in 'eps1/\u00b2'"),
    ("continue", dict(BASE, eps="eps1/00"), [],
     "cannot parse eps divisor in 'eps1/00'"),
    ("continue", dict(BASE, bogus=1), [],
     "unknown continue spec keys: ['bogus']"),
    ("continue", dict(BASE, eps_values=["eps1/2"]), [],
     "unknown continue spec keys: ['eps_values']"),
    ("continue", {k: v for k, v in BASE.items() if k != "omega"}, [],
     "missing continue spec key 'omega'"),
    ("sweep", {k: v for k, v in SMALL["sweep"][0].items()
               if k != "eps_values"}, [],
     "missing sweep spec key 'eps_values'"),
    ("cantorus", {k: v for k, v in SMALL["cantorus"][0].items()
                  if k != "eps"}, [],
     "missing cantorus spec key 'eps'"),
    # a divisor past the largest float, and one past int's digit limit
    *[pytest.param("continue", dict(BASE, eps="eps1/" + "9" * digits), [],
                   f"cannot parse eps divisor in 'eps1/{'9' * digits}'",
                   id=f"eps-divisor-of-{digits}-digits")
      for digits in (400, 5000)],
    # required keys say that they are missing, not that they are mistyped
    *[(command, {k: v for k, v in SMALL[command][0].items() if k != key},
       [], f"missing {command} spec key '{key}'")
      for command, key in [
          ("continue", "window_radius"), ("lamination", "window_radius"),
          ("sweep", "window_radius"), ("lamination", "n_samples"),
          ("continue", "p"), ("lamination", "p"), ("measure", "p"),
          ("sweep", "p")]],
])
def test_inputs_that_used_to_run_unread_exit_1(tmp_path, capsys, command,
                                               body, extra, message):
    out = tmp_path / "o"
    err = exits_with_one_line(capsys, [
        command, "--spec", write_spec(tmp_path, "s.json", body),
        "--out", str(out), *extra], 1)
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["continue", "lamination"])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("radius,k_max,least", [(2, None, 4), (3, None, 4),
                                                (3, 1, 4), (2, 0, 3)])
def test_windows_too_small_for_the_birkhoff_scan_exit_1(
        tmp_path, capsys, command, d, radius, k_max, least):
    # the scan reads the interior at 3r, which must keep a site, and a
    # second one when k_max > 0
    body = dict(SMALL[command][0], window_radius=radius,
                model={"stencil": {"kind": "harmonic", "d": d}},
                omega=["golden", "sqrt2-1"][:d])
    if k_max is not None:
        body["k_max"] = k_max
    out = tmp_path / "o"
    err = exits_with_one_line(capsys, [
        command, "--spec", write_spec(tmp_path, "s.json", body),
        "--out", str(out)], 1)
    assert err == (f"error: window_radius {radius} is too small for the "
                   f"Birkhoff scan: with k_max {2 if k_max is None else k_max}"
                   f" it must be at least {least}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["continue", "lamination"])
@pytest.mark.parametrize("radius,k_max", [(3, 0), (4, 2)])
def test_least_windows_for_the_birkhoff_scan_run(tmp_path, command, radius,
                                                 k_max):
    body = dict(SMALL[command][0], window_radius=radius, k_max=k_max)
    out = tmp_path / "o"
    assert main([command, "--spec", write_spec(tmp_path, "s.json", body),
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["ordered"] is True


def test_overflowing_table_potential_exits_1(tmp_path, capsys):
    # the alternating table's Nyquist mode alone is 8e308; no NumPy
    # warning gets through before the one line
    table = {"kind": "table", "samples": [1e308, -1e308] * 4}
    out = tmp_path / "o"
    err = exits_with_one_line(capsys, [
        "continue", "--spec",
        write_spec(tmp_path, "s.json", dict(BASE, model={"potential": table},
                                            p=[1.0])),
        "--out", str(out)], 1)
    assert err == ("error: table potential overflows: its Fourier series or "
                   "its second derivative exceeds the float range\n")
    assert not out.exists()


@pytest.mark.parametrize("p,message", [
    ([-0.5, 1.5], "simplex entries must be nonnegative, got -0.5"),
    ([0, 0], "simplex entries sum to 0.0, expected 1"),
])
def test_error_lines_print_plain_floats(tmp_path, capsys, p, message):
    out = tmp_path / "o"
    err = exits_with_one_line(capsys, [
        "continue", "--spec", write_spec(tmp_path, "s.json", dict(BASE, p=p)),
        "--out", str(out)], 1)
    assert err == f"error: {message}\n"
    assert not out.exists()


def test_verify_refuses_unread_keys_before_the_suite(tmp_path, capsys):
    spec = write_spec(tmp_path, "v.json", {"model": {}, "omega": "golden"})
    capsys.readouterr()
    assert main(["verify", "--spec", spec]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: unknown verify spec keys: ['omega']\n"
    assert captured.out == ""


def test_huge_density_radius_without_window_names_n(tmp_path, capsys):
    # refused by arithmetic on the window's shape, before any allocation
    body = {k: v for k, v in BASE.items() if k != "window_radius"}
    out = tmp_path / "o"
    err = exits_with_one_line(capsys, [
        "measure", "--spec",
        write_spec(tmp_path, "s.json", dict(body, n=100000000)),
        "--out", str(out)], 1)
    assert err == ("error: n 100000000 needs 200000003 sites with its "
                   "collar; at most 67108864 are allowed\n")
    assert not out.exists()


THREE_WELLS = dict(BASE, model={"potential": {"kind": "n_well", "N": 3}},
                   p=[0.3, 0.3, 0.4])


@pytest.mark.parametrize("command,body,line", [
    ("continue", dict(BASE, window_radius=10**30),
     f"window_radius {10**30} needs {2 * 10**30 + 3} sites with its collar"),
    ("continue", dict(BASE, M1=0, M2=10**23),
     f"M2 {10**23} needs {2 * 10**23 + 7} sites in its truncation box"),
    ("lamination", dict(BASE, n_samples=10**12),
     f"n_samples {10**12} needs {19 * 10**12} sites over its members"),
    ("cantorus", dict(CANTORUS, n_samples=10**14),
     f"n_samples {10**14} needs {10**14 + 19} sites in its stretched window"),
    # C(10**6 + 2, 2) grid points, each a measure over 19 sites
    ("measure", dict(THREE_WELLS, n=8, injectivity={"spacing": 1e-6}),
     "injectivity spacing 1e-06 needs 9500028500019 sites over its grid"),
    # C(153, 2) = 11628 grid points over 7 sites, but 67599378 pairs
    ("measure", dict(THREE_WELLS, window_radius=2, n=2,
                     injectivity={"spacing": 1 / 151}),
     f"injectivity spacing {1 / 151} needs 67599378 pair rows"),
], ids=["window_radius", "M2", "lamination-n_samples", "cantorus-n_samples",
        "measure-grid-sites", "measure-pair-rows"])
def test_sizes_above_the_cap_are_refused_before_the_run_directory(
        tmp_path, capsys, command, body, line):
    out = tmp_path / "o"
    err = exits_with_one_line(capsys, [
        command, "--spec", write_spec(tmp_path, "s.json", body),
        "--out", str(out)], 1)
    assert err == f"error: {line}; at most {MAX_WINDOW_SITES} are allowed\n"
    assert not out.exists()


@pytest.mark.parametrize("command,body,key,at_cap,passed", [
    # the padded window has 19 sites, and the stretched one n_samples more
    ("cantorus", dict(CANTORUS, wells="bogus"), "n_samples",
     MAX_WINDOW_SITES - 19, "wells must be 'minima' or 'criticals'"),
    # a side of 2 (M2 + 3) + 1 sites
    ("continue", dict(BASE, M1=0, bogus=1), "M2",
     (MAX_WINDOW_SITES - 1) // 2 - 3, "unknown continue spec keys: ['bogus']"),
    ("lamination", dict(BASE, k_max=-1), "n_samples", MAX_WINDOW_SITES // 19,
     "k_max must be an integer of at least 0"),
], ids=["cantorus-n_samples", "M2", "lamination-n_samples"])
def test_size_caps_are_exact(tmp_path, capsys, command, body, key, at_cap,
                             passed):
    # at the cap the spec gets past the size check to a later fault, one
    # more is refused; no run starts either way
    for value, want in [(at_cap, passed), (at_cap + 1, f"{key} {at_cap + 1}")]:
        out = tmp_path / str(value)
        err = exits_with_one_line(capsys, [
            command, "--spec",
            write_spec(tmp_path, "s.json", dict(body, **{key: value})),
            "--out", str(out)], 1)
        assert err.startswith(f"error: {want}")
        assert not out.exists()


@pytest.mark.parametrize("wells,steps", [(2, 11584), (3, 150)])
def test_injectivity_pair_cap_is_exact(tmp_path, capsys, wells, steps):
    # the grid of spacing 1/steps has C(steps + wells - 1, wells - 1)
    # points and at most MAX_WINDOW_SITES pairs, the next finer grid has
    # more; the first run stops at a stray key
    def pairs(steps):
        points = math.comb(steps + wells - 1, wells - 1)
        return points * (points - 1) // 2

    assert pairs(steps) <= MAX_WINDOW_SITES < pairs(steps + 1)
    model = {"potential": {"kind": "n_well", "N": wells}}
    body = dict(BASE, model=model, p=[1.0 / wells] * wells, window_radius=2,
                n=2, bogus=1)
    for s, want in [(steps, "unknown measure spec keys: ['bogus']"),
                    (steps + 1, f"injectivity spacing {1 / (steps + 1)} "
                                f"needs {pairs(steps + 1)} pair rows")]:
        err = exits_with_one_line(capsys, [
            "measure", "--spec",
            write_spec(tmp_path, "s.json",
                       dict(body, injectivity={"spacing": 1 / s})),
            "--out", str(tmp_path / "o")], 1)
        assert err.startswith(f"error: {want}")
    assert not (tmp_path / "o").exists()


def ndindex_grid(wells, spacing):
    """The injectivity grid as ``cmd_measure`` built it by walking every
    index tuple of ``np.ndindex`` and dropping those that do not fit."""
    steps = int(round(1.0 / spacing))
    grid = []
    for combo in np.ndindex(*([steps + 1] * (wells - 1))):
        weights = [c * spacing for c in combo]
        tail = 1.0 - sum(weights)
        if tail < -1e-12:
            continue
        grid.append(weights + [max(tail, 0.0)])
    return grid


@pytest.mark.parametrize("spacing", [1.0, 0.5, 0.3, 0.25, 0.04])
@pytest.mark.parametrize("wells", [2, 3, 4, 5])
def test_injectivity_grid_matches_the_ndindex_walk(wells, spacing):
    grid = cli._simplex_grid(wells, spacing)
    want = ndindex_grid(wells, spacing)
    assert grid == want
    # the same floats, not just equal ones
    assert np.asarray(grid).tobytes() == np.asarray(want).tobytes()


def test_injectivity_grid_of_thirty_wells_at_spacing_one():
    # the walk would visit 2**29 tuples to keep these 30
    grid = cli._simplex_grid(30, 1.0)
    assert grid == np.eye(30)[::-1].tolist()


@pytest.mark.parametrize("key,value,line", [
    ("d", 10, "stencil dimension d 10 needs 7**10 sites in its smallest "
              "window; at most 67108864 are allowed, so d is at most 9"),
    ("d", 10**400, f"stencil dimension d {10**400} needs 7**{10**400} sites "
                   "in its smallest window; at most 67108864 are allowed, "
                   "so d is at most 9"),
    ("N", 2**25 + 1, "n_well N 33554433 needs 67108866 critical points; at "
                     "most 67108864 are allowed"),
    ("N", 10**400, f"n_well N {10**400} needs {2 * 10**400} critical "
                   "points; at most 67108864 are allowed"),
], ids=["d-10", "d-huge", "N-over-cap", "N-huge"])
def test_model_sizes_are_refused_before_the_model_is_built(
        tmp_path, capsys, monkeypatch, key, value, line):
    def unbuilt(*args):
        raise AssertionError("the model was built")

    monkeypatch.setattr(cli, "builtin_harmonic_stencil" if key == "d"
                        else "builtin_n_well", unbuilt)
    model = ({"stencil": {"kind": "harmonic", "d": value}} if key == "d"
             else {"potential": {"kind": "n_well", "N": value}})
    out = tmp_path / "o"
    err = exits_with_one_line(capsys, [
        "continue", "--spec",
        write_spec(tmp_path, "s.json", dict(BASE, model=model)),
        "--out", str(out)], 1)
    assert err == f"error: {line}\n"
    assert not out.exists()


def test_largest_model_sizes_are_accepted(tmp_path, capsys, monkeypatch):
    # d = 9 is built and stops at omega; N = 2**25 reaches the model build,
    # which is replaced so that nothing is allocated
    def built(N):
        raise errors.SchemaError(f"built {N} wells")

    for model, want in [
            ({"stencil": {"kind": "harmonic", "d": 9}},
             "omega has 1 components, model is 9-dimensional"),
            ({"potential": {"kind": "n_well", "N": 2**25}},
             "built 33554432 wells")]:
        if "potential" in model:
            monkeypatch.setattr(cli, "builtin_n_well", built)
        out = tmp_path / "o"
        err = exits_with_one_line(capsys, [
            "continue", "--spec",
            write_spec(tmp_path, "s.json", dict(BASE, model=model)),
            "--out", str(out)], 1)
        assert err == f"error: {want}\n"
        assert not out.exists()


@pytest.mark.parametrize("count", [
    0, 7, 10**999, 10**1000 - 1, 10**1000, 10**1000 + 1, 10**2000,
    3 * 10**2500 + 10**1000 + 17, 2**14000 - 1])
def test_decimal_matches_str(count):
    assert cli._decimal(count) == str(count)


def test_cap_line_names_a_count_of_any_length(tmp_path, capsys):
    # (2 (R + 1) + 1)**2 = 4 10**4400 + 12 10**2200 + 9 has 4401 digits,
    # past the 4300 that str() of an int gives
    radius = 10**2200
    count = "4" + "0" * 2198 + "12" + "0" * 2199 + "9"
    body = dict(BASE, model={"stencil": {"kind": "harmonic", "d": 2}},
                omega=["sqrt2-1", "sqrt3-1"], window_radius=radius)
    out = tmp_path / "o"
    err = exits_with_one_line(capsys, [
        "continue", "--spec", write_spec(tmp_path, "s.json", body),
        "--out", str(out)], 1)
    assert err == (f"error: window_radius {radius} needs {count} sites with "
                   "its collar; at most 67108864 are allowed\n")
    assert not out.exists()


def count_continuations(monkeypatch):
    """Patch quasi_newton_continue at every module binding of the package
    with a wrapper that counts its calls; returns the list of windows."""
    windows = []
    original = continuation.quasi_newton_continue

    def counted(model, eps, x0, B, *args, **kwargs):
        windows.append(B)
        return original(model, eps, x0, B, *args, **kwargs)

    for mod in (lamlab, cli, continuation, measure, twistmap, verification):
        if getattr(mod, "quasi_newton_continue", None) is original:
            monkeypatch.setattr(mod, "quasi_newton_continue", counted)
    return windows


@pytest.mark.parametrize("command,body,calls", [
    ("lamination", dict(BASE, n_samples=5), lambda summary: 5),
    ("cantorus", dict(CANTORUS, n_samples=6), lambda summary: 7),
    ("measure", dict(THREE_WELLS, n=8, injectivity={"spacing": 0.25}),
     lambda summary: len(summary["injectivity"]["grid"]) + 1),
], ids=["lamination", "cantorus", "measure"])
def test_one_continuation_per_member(tmp_path, monkeypatch, command, body,
                                     calls):
    # the benchmark's trace gate reads one quasi_newton_continue call per
    # member, over the spec's window, at every binding it wraps
    windows = count_continuations(monkeypatch)
    out = tmp_path / "o"
    assert main([command, "--spec", write_spec(tmp_path, "s.json", body),
                 "--out", str(out), "--threads", "1"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(windows) == calls(summary)
    if command != "cantorus":
        assert set(windows) == {Box.centered(body["window_radius"], 1)}


# a table potential with the two wells of the default n_well potential
TABLE = {"kind": "table",
         "samples": [-math.cos(math.pi * k / 4) for k in range(16)]}
STRAY = {"bogus": 1, "N": 2, "samples": TABLE["samples"]}
NESTED = [(name, path, obj, stray) for name in sorted(SMALL)
          for path, obj, stray in [
              ("model", {}, "bogus"),
              ("model.potential", {"kind": "n_well", "N": 2}, "bogus"),
              ("model.potential", TABLE, "bogus"),
              # the kind decides which of N and samples is read
              ("model.potential", {"kind": "n_well", "N": 2}, "samples"),
              ("model.potential", TABLE, "N"),
              ("model.stencil", {"kind": "harmonic", "d": 1}, "bogus")]] + [
    ("measure", "injectivity", {"spacing": 0.5}, "bogus"),
    ("verify", "checks", {"hull-axioms": 1}, "bogus"),
]


@pytest.mark.parametrize("name,path,obj,stray", NESTED, ids=[
    f"{name}-{path}-{obj.get('kind', '')}-{stray}"
    for name, path, obj, stray in NESTED])
def test_nested_keys_an_object_does_not_take_are_refused(tmp_path, capsys,
                                                         name, path, obj,
                                                         stray):
    # the valid base spec of one command, with a stray key in one object
    body = json.loads(json.dumps(SMALL[name][0]))
    *parents, last = path.split(".")
    target = body
    for part in parents:
        target = target[part]
    target[last] = dict(obj, **{stray: STRAY[stray]})
    command = "orbit" if name == "momentum" else name
    spec = write_spec(tmp_path, "s.json", body)
    out = tmp_path / "o"
    # verify runs without --out: refused before any check line is printed
    argv = [command, "--spec", spec] + (
        [] if name == "verify" else ["--out", str(out)])
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: unknown {path} keys: {[stray]}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("name,change,message", [
    ("continue", {"model": {"potential": {}}},
     "missing model.potential key 'kind'"),
    ("continue", {"model": {"stencil": {}}},
     "missing model.stencil key 'kind'"),
    ("continue", {"model": None}, "model must be an object"),
    ("momentum", {"model": []}, "model must be an object"),
    ("verify", {"checks": None}, "checks must be an object"),
    ("measure", {"injectivity": True}, "injectivity must be an object"),
])
def test_malformed_nested_objects_exit_1(tmp_path, capsys, name, change,
                                         message):
    command = "orbit" if name == "momentum" else name
    out = tmp_path / "o"
    err = exits_with_one_line(capsys, [
        command, "--spec",
        write_spec(tmp_path, "s.json", dict(SMALL[name][0], **change)),
        "--out", str(out)], 1)
    assert err == f"error: {message}\n"
    assert not out.exists()
    assert not out.exists()


def test_verify_echoes_tolerances_as_given(tmp_path, capsys):
    out = tmp_path / "o"
    spec = write_spec(tmp_path, "v.json", {"checks": {"hull-axioms": 1}})
    assert main(["verify", "--spec", spec, "--out", str(out)]) == 0
    checks = json.loads((out / "manifest.json").read_text())[
        "parameters"]["checks"]
    # an integer stays an integer: 1, not 1.0
    assert checks == {"hull-axioms": 1}
    assert type(checks["hull-axioms"]) is int
    capsys.readouterr()


@pytest.mark.parametrize("diff,order", [
    ([0.0, LABEL_TOL, -LABEL_TOL], "0"),
    ([0.0, 2 * LABEL_TOL], "1"),
    ([-2 * LABEL_TOL, LABEL_TOL], "-1"),
    ([-2 * LABEL_TOL, 2 * LABEL_TOL], "x"),
])
def test_ordering_matrix_classes_use_label_tol(diff, order):
    assert _order(np.asarray(diff)) == order


def s_chain(rng):
    """Arrays in s-order whose links to their s-successor are exact steps,
    an exact tie ("0"), ties within LABEL_TOL, two dips within LABEL_TOL
    at one site, and a crossing."""
    up = np.ones(12)
    dip, cross = up.copy(), up.copy()
    dip[3], cross[5] = -0.6 * LABEL_TOL, -1.0
    tie = np.full(12, 0.6 * LABEL_TOL)
    chain = [rng.uniform(-1.0, 1.0, 12)]
    for step in [up, up, 0.0 * up, dip, dip, up, tie, tie, up, cross, up]:
        chain.append(chain[-1] + step)
    return chain


@pytest.mark.parametrize("seed", range(4))
def test_mirrored_ordering_matrix_equals_all_pairs(seed):
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1.0, 1.0, 12)
    xs = []
    for _ in range(9):
        # shifts above, below and within LABEL_TOL give every class, and
        # ties and crossings between members
        x = base + rng.choice([-1.0, 0.0, 0.5 * LABEL_TOL, 1.0])
        flip = rng.random(12) < 0.2
        x[flip] += rng.choice([-1.0, 1.0]) * rng.uniform(0, 3 * LABEL_TOL)
        xs.append(x)
    xs.append(xs[0].copy())
    by_s = rng.permutation(len(xs))
    want = [[_order(b - a) for b in xs] for a in xs]
    assert _ordering_matrix(xs, by_s) == want
    assert {c for row in want for c in row} == {"0", "1", "-1", "x"}

    # the same chain under an s-order that is not the index order
    chain = s_chain(rng)
    by_s = rng.permutation(len(chain))
    xs = [None] * len(chain)
    for k, j in enumerate(by_s):
        xs[j] = chain[k]
    assert not np.array_equal(by_s, np.arange(len(xs)))
    want = [[_order(b - a) for b in xs] for a in xs]
    assert _ordering_matrix(xs, by_s) == want
    links = [_order(b - a) for a, b in zip(chain, chain[1:])]
    assert links == ["1", "1", "0", "1", "1", "1", "0", "0", "1", "x", "1"]
    # across both dips the site 3 falls by more than LABEL_TOL, and across
    # both tolerance ties every site rises by more than it
    assert _order(chain[5] - chain[3]) == "x"
    assert _order(chain[8] - chain[6]) == "1"


@pytest.mark.parametrize("checks", [
    {"gradient-consistency": [1e-3]},
    {"gradient-consistency": True},
    {"gradient-consistency": float("nan")},
    {"no-such-check": 1e-3},
])
def test_verify_rejects_bad_overrides(tmp_path, capsys, checks):
    spec = write_spec(tmp_path, "v.json", {"checks": checks})
    exits_with_one_line(capsys, ["verify", "--spec", spec], 1)


FUZZ_BASES = {
    "continue": dict(BASE, window_radius=4, M1=1, M2=3),
    "lamination": dict(BASE, window_radius=4, n_samples=2),
    "measure": dict(BASE, window_radius=4, n=3, injectivity={"spacing": 0.5}),
    "cantorus": dict(BASE, window_radius=4, n_samples=2),
    "orbit": dict(MOMENTUM, window_radius=4),
    "verify": {"model": {}, "checks": {}},
    "sweep": {"model": {}, "omega": "golden", "eps_values": ["eps1/2"],
              "p": [0.3, 0.7], "window_radius": 4},
}
FUZZ_VALUES = [float("nan"), float("inf"), float("-inf"), 10**400, [],
               [0.5, 0.5], {}, {"spacing": 0.5}, None, True, -1, 0, 2.5]
FUZZ_KEYS = {cmd: sorted(SPEC_KEYS["momentum" if cmd == "orbit" else cmd]) + [
    "model.potential", "model.stencil", "model.K", "model.k",
    "model.potential.N", "model.stencil.d", "model.stencil.flip_sign"]
    for cmd in FUZZ_BASES}


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(FUZZ_BASES)).flatmap(
    lambda cmd: st.tuples(st.just(cmd), st.sampled_from(FUZZ_KEYS[cmd]),
                          st.sampled_from(FUZZ_VALUES))))
def test_fuzzed_specs_exit_cleanly(tmp_path, capsys, case):
    command, key, value = case
    body = json.loads(json.dumps(FUZZ_BASES[command]))
    *path, last = key.split(".")
    target = body
    for part in path:
        kind = {"potential": "n_well", "stencil": "harmonic"}.get(part)
        target = target.setdefault(part, {} if kind is None else
                                   {"kind": kind})
    target[last] = value
    spec = write_spec(tmp_path, "f.json", body)
    capsys.readouterr()
    rc = main([command, "--spec", spec, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc in (0, 1, 2, 3)
    if err:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        # silent exits: success, or verify reporting a failed self-check
        # on standard output
        assert rc == 0 or (rc == 2 and command == "verify")


def test_sweep_cli(tmp_path, monkeypatch):
    pin_cpus(monkeypatch, 2)
    spec = write_spec(tmp_path, "s.json", {
        "model": {},
        "omega": "golden",
        "eps_values": ["eps1/8", "eps1/4", "eps1/2"],
        "p": [0.5, 0.5],
        "window_radius": 6,
    })
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--spec", spec, "--out", str(a),
                 "--threads", "1"]) == 0
    assert main(["sweep", "--spec", spec, "--out", str(b),
                 "--threads", "2"]) == 0
    assert read_dir(a) == read_dir(b)
    lines = (a / "sweep.csv").read_text().splitlines()
    assert lines[0] == "eps,iterations,residual,rate,displacement"
    assert len(lines) == 4
    # displacement grows with the coupling
    disp = [float(l.split(",")[4]) for l in lines[1:]]
    assert disp[0] < disp[1] < disp[2]


def dict_keyed_rows(model, eps, window, labels, result):
    # reference: residuals looked up by site tuple, one row at a time
    Bp = result.solution.domain
    resid = residual_field(model, eps, result.solution, window)
    interior = window.interior(model.stencil.range)
    resmap = {tuple(site): repr(float(v)) for site, v in
              zip(interior.sites(), resid.ravel())}
    rows = []
    for site, x0, x in zip(Bp.sites(), labels.values.ravel(),
                           result.solution.values.ravel()):
        key = tuple(site.tolist())
        rows.append([str(c) for c in key] + [repr(float(x0)), repr(float(x)),
                                             resmap.get(key, "")])
    return rows


@pytest.mark.parametrize("d", [1, 2])
def test_solution_rows_match_dict_keyed_rows(d, model1, model2):
    model = model1 if d == 1 else model2
    omega = ([GOLDEN_MEAN] if d == 1
             else [np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.0])
    window = Box.centered(7 if d == 1 else 4, d)
    Bp = window.padded(model.stencil.range)
    phi = step_hull_from_simplex([0.3, 0.7], model.potential.minima)
    labels = sample_config(phi, omega, generic_parameter(phi, omega, Bp, 0.5),
                           Bp)
    eps = model.constants.eps1 / 2
    result = quasi_newton_continue(model, eps, labels, window)
    want = dict_keyed_rows(model, eps, window, labels, result)
    got = [list(row) for row in
           _SolutionTable(model, eps, window).rows(labels, result)]
    assert got == want
    collar = [row for row in got if row[-1] == ""]
    assert len(collar) == Bp.size - window.interior(model.stencil.range).size
    assert len(collar) > 0 and len(collar) < len(got)


# every kind of float64 a column can hold: repeats from a small pool,
# both zeros, subnormals, the extremes and non-finite values
FLOATS = st.floats(width=64) | st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
    1.7976931348623157e308, -1e-310, 1e-300, 1e300, 0.1])


@st.composite
def float_arrays(draw):
    pool = draw(st.lists(FLOATS, min_size=1, max_size=8))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1),
                          min_size=rows * cols, max_size=rows * cols))
    a = np.array([pool[i] for i in picks], dtype=float).reshape(rows, cols)
    return draw(st.sampled_from([a, a.T, a.ravel()]))


@settings(max_examples=300, deadline=None)
@given(st.lists(float_arrays(), min_size=1, max_size=5))
def test_reprs_equal_repr_fresh_and_chained(arrays):
    chained = _Reprs()
    for a in arrays:
        want = list(map(repr, a.ravel().tolist()))
        assert _Reprs()(a) == want
        assert chained(a) == want


def test_reprs_keep_both_zeros_apart():
    text = _Reprs()
    assert text(np.array([0.0, 0.0])) == ["0.0", "0.0"]
    assert text(np.array([-0.0, 0.0, -0.0])) == ["-0.0", "0.0", "-0.0"]


def test_reprs_reuse_unchanged_cells_only():
    text = _Reprs()
    a = np.array([0.0, 1.5, np.nan, -0.0, 2.0])
    assert text(a) == list(map(repr, a.tolist()))
    # the caller's array changes in place: -0.0 and 0.0 trade places
    # and the NaN becomes a number; the texts follow the new bits
    a[[0, 2, 3]] = [-0.0, 1.5, 0.0]
    assert text(a) == ["-0.0", "1.5", "1.5", "0.0", "2.0"]
    assert text(a.reshape(1, 5)) == ["-0.0", "1.5", "1.5", "0.0", "2.0"]
    assert text(np.array([2.0, np.inf])) == ["2.0", "inf"]


def whole_text_csv(path, header, rows):
    # reference: the writer that joined the whole file before writing it
    lines = [",".join(header), *map(",".join, rows)]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("n_rows", [0, 1, 2, 3, 4, 7])
def test_csv_blocks_match_whole_text_writer(tmp_path, monkeypatch, n_rows):
    monkeypatch.setattr(cli, "_BLOCK", 3)
    rows = [[str(i), repr(i / 3.0), ""] for i in range(n_rows)]
    cli._write_csv(tmp_path / "blocks.csv", ["i", "x", "residual"],
                   (row for row in rows))
    whole_text_csv(tmp_path / "whole.csv", ["i", "x", "residual"], rows)
    assert ((tmp_path / "blocks.csv").read_bytes()
            == (tmp_path / "whole.csv").read_bytes())


@pytest.mark.parametrize("d", [1, 2])
def test_lamination_members_match_dict_keyed_rows(tmp_path, d):
    body = dict(BASE, n_samples=6, window_radius=12 if d == 1 else 4)
    if d == 2:
        body.update(model={"stencil": {"kind": "harmonic", "d": 2}},
                    omega=["sqrt2-1", "sqrt3-1"])
    out = tmp_path / "lam"
    assert main(["lamination", "--spec", write_spec(tmp_path, "l.json", body),
                 "--out", str(out)]) == 0
    model, omega, eps, window, _ = cli._setup(cli._Spec(body, "lamination"))
    lam = continue_lamination(model, eps, body["p"], omega, window, 6,
                              tol=1e-12, k_max=2)
    header = cli._site_header(d) + ["x0", "x", "residual"]
    xs = [member.solution.values for member in lam.members]
    # neighbouring members share bits at some sites, so the texts of the
    # previous member are taken over
    assert any(np.any(a == b) for a, b in zip(xs, xs[1:]))
    for j, member in enumerate(lam.members):
        rows = dict_keyed_rows(model, eps, window, lam.labels(j), member)
        want = "\n".join(map(",".join, [header] + rows)) + "\n"
        assert (out / f"member_{j:03d}.csv").read_text() == want
