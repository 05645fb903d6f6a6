"""Config parsing, the run/compare/check subcommands, and exit codes."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hetmix
from hetmix.cli import (
    ConfigError,
    cmd_check,
    cmd_compare,
    cmd_run,
    main,
    parse_config,
)
from hetmix.mixing import metropolis_hastings
from hetmix.objectives import make_random_quadratics, make_two_class_ring
from hetmix.simulator import RunConfig, run_dsgd, run_hadsgd
from hetmix.topology import build_random_connected, build_ring

_BASE = """\
# tiny but complete experiment description
name = tiny
out = {out}
algorithm = dsgd
topology = ring
n = 6
objective = random
d = 4
noise_var = 0.01
steps = 25
lr_relative = 0.2
window = 3
reps = 2
seed = 11
"""


def _write(tmp_path, text, fname="exp.cfg"):
    path = tmp_path / fname
    path.write_text(text)
    return str(path)


_ROOT = Path(__file__).resolve().parent.parent


def _reference(conf, out, **changes):
    """configs/<conf> with out and the given keys replaced."""
    text = (_ROOT / "configs" / conf).read_text()
    for key, value in dict(out=out, **changes).items():
        text, count = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        assert count == 1, key
    return text


def _reference_adaptive(out, **changes):
    """configs/random16_adaptive.conf with out and the given keys replaced."""
    return _reference("random16_adaptive.conf", out, **changes)


# --- parsing -----------------------------------------------------------

def test_parse_types_comments_and_order():
    text = _BASE.format(out="/tmp/x") + "period = 7\nkeep_fraction = 0.85\n"
    cfg = parse_config(text)
    want = {"name": "tiny", "out": "/tmp/x", "algorithm": "dsgd", "topology": "ring",
            "n": 6, "objective": "random", "d": 4, "noise_var": 0.01, "steps": 25,
            "lr_relative": 0.2, "window": 3, "reps": 2, "seed": 11,
            "period": 7, "keep_fraction": 0.85}
    # every pair of the file, in its order, with its schema type
    assert list(cfg.items()) == list(want.items())
    assert [type(v) for v in cfg.values()] == [type(v) for v in want.values()]


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        ("frobnicate = 3", "frobnicate"),
        ("rows = many", "not int"),
        ("n = 6", "duplicate"),
        ("lr = 0.1", "exactly one"),
        ("algorithm = sgd", "algorithm"),
        ("topology = mesh", "topology"),
        ("objective = linear", "objective"),
        ("weights = best", "weights"),
        ("weights = spectral", "weights"),
        ("algorithm = hadsgd_momentum", "algorithm"),
        ("momentum = 1.5", "momentum"),
        ("keep_fraction = 0", "keep_fraction"),
        ("seed = -1", "seed must be"),
        ("noise_var = nan", "'noise_var' is not finite"),
        ("lr = nan", "'lr' is not finite"),
        ("lr = inf", "'lr' is not finite"),
        ("lr_relative = nan", "'lr_relative' is not finite"),
    ],
)
def test_parse_rejects_bad_lines(mutation, fragment):
    text = _BASE.format(out="/tmp/x")
    if fragment != "duplicate":
        # the mutation replaces the key's line, so a repeat is not what fails
        key = mutation.split("=")[0].strip()
        text = "".join(ln for ln in text.splitlines(keepends=True)
                       if not ln.startswith(key + " "))
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text + mutation + "\n")


def test_parse_rejects_missing_required_and_structural_gaps():
    with pytest.raises(ConfigError, match="seed"):
        parse_config("\n".join(ln for ln in _BASE.format(out="/tmp/x").splitlines()
                               if not ln.startswith("seed")))
    with pytest.raises(ConfigError, match="lr"):
        parse_config("\n".join(ln for ln in _BASE.format(out="/tmp/x").splitlines()
                               if not ln.startswith("lr_relative")))
    torus = _BASE.format(out="/tmp/x").replace("topology = ring", "topology = torus")
    with pytest.raises(ConfigError, match="rows"):
        parse_config(torus)
    with pytest.raises(ConfigError, match=re.escape(
            "algorithm must be one of ('dsgd', 'hadsgd'), got 'decoupled'")):
        parse_config(_BASE.format(out="/tmp/x").replace(
            "algorithm = dsgd", "algorithm = decoupled"))
    with pytest.raises(ConfigError, match="16"):
        parse_config(_BASE.format(out="/tmp/x").replace(
            "objective = random", "objective = two_class"))


@st.composite
def _mutated_reference(draw):
    """configs/random16_adaptive.conf with one line replaced: by any text,
    by nothing, or by its key with any text, a float, an int or an edge
    value as its value."""
    lines = (_ROOT / "configs" / "random16_adaptive.conf").read_text().splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    key = lines[i].partition("=")[0].strip()
    edge = ["nan", "-inf", "inf", "1e999", "0", "-1", "0.5", "false"]
    lines[i] = draw(st.one_of(
        st.text(),
        st.just(""),
        st.one_of(st.text(), st.floats().map(repr), st.integers().map(str),
                  st.sampled_from(edge)).map(lambda v: f"{key} = {v}"),
    ))
    return "\n".join(lines)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(st.text(), _mutated_reference()))
def test_parse_accepts_or_raises_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, dict)
    assert all(math.isfinite(v) for v in cfg.values() if isinstance(v, float))


# --- run ---------------------------------------------------------------

def test_run_writes_deterministic_csvs(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code = cmd_run(_write(tmp_path, _BASE.format(out=out_a)))
    assert code == 0
    assert cmd_run(_write(tmp_path, _BASE.format(out=out_b), "exp2.cfg")) == 0
    for rep in range(2):
        fa = (out_a / f"tiny_rep{rep}.csv").read_bytes()
        fb = (out_b / f"tiny_rep{rep}.csv").read_bytes()
        assert fa == fb
        assert fa.decode().splitlines()[0].startswith("step,dist_to_opt")
        assert len(fa.decode().splitlines()) == 26
    # repetitions see different noise, so their series differ
    assert (out_a / "tiny_rep0.csv").read_bytes() != (out_a / "tiny_rep1.csv").read_bytes()
    printed = capsys.readouterr().out
    assert "tiny rep 0" in printed and "dist_to_opt_w=" in printed


def test_run_reports_config_errors(tmp_path, capsys):
    code = cmd_run(_write(tmp_path, _BASE.format(out=tmp_path) + "junk = 1\n"))
    assert code == 2
    assert "junk" in capsys.readouterr().out
    assert cmd_run(str(tmp_path / "missing.cfg")) == 2


def test_run_rejects_the_deleted_alternate_key(tmp_path, capsys):
    # every refresh alternates with Metropolis-Hastings; no key turns that off
    text = _BASE.format(out=tmp_path / "a") + "alternate = false\n"
    assert cmd_run(_write(tmp_path, text)) == 2
    lineno = len(text.splitlines())
    assert capsys.readouterr().out == f"config error: line {lineno}: unknown key 'alternate'\n"
    assert not (tmp_path / "a").exists()


def test_run_rejects_the_deleted_decoupled_algorithm(tmp_path, capsys):
    # run_dsgd(w_grads=) still mixes gradients with a second matrix; no config picks it
    text = _set_keys(_BASE.format(out=tmp_path / "a"),
                     {"algorithm": "decoupled", "objective": "two_class", "n": "16"})
    assert cmd_run(_write(tmp_path, text)) == 2
    assert capsys.readouterr().out == (
        "config error: algorithm must be one of ('dsgd', 'hadsgd'), got 'decoupled'\n")
    assert not (tmp_path / "a").exists()


def _set_keys(text, changes):
    """text with each key's line set to its new value, appended where absent."""
    for key, value in changes.items():
        text, count = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        if not count:
            text += f"{key} = {value}\n"
    return text


def _bad_inputs(tmp_path):
    (tmp_path / "disconnected.txt").write_text("n=4\n0 1\n2 3\n")
    (tmp_path / "non_integer.txt").write_text("n=3\n0 1\n1 x\n")
    (tmp_path / "plain_file").write_text("")
    # a directory where the CSV of repetition 0 goes makes its open() fail
    (tmp_path / "csv_dir" / "tiny_rep0.csv").mkdir(parents=True)


@pytest.mark.parametrize(
    "changes, complaint",
    [
        ({"n": "2"}, "a ring needs n >= 3"),
        ({"topology": "torus", "rows": "2", "cols": "3"}, "a torus needs rows, cols >= 3"),
        ({"topology": "file", "edge_file": "{tmp}/absent.txt"}, "No such file"),
        ({"topology": "file", "edge_file": "{tmp}/disconnected.txt"}, "graph is not connected"),
        ({"topology": "file", "edge_file": "{tmp}/non_integer.txt"}, "non-integer endpoint"),
        ({"objective": "replicated", "replicate_period": "4"}, "period 4 must divide n=6"),
        ({"d": "10", "m": "1"}, "need n*m >= d"),
        ({"out": "{tmp}/plain_file/out"}, "cannot create out directory"),
        ({"out": "{tmp}/csv_dir"}, "cannot write {tmp}/csv_dir/tiny_rep0.csv"),
    ],
)
def test_run_reports_values_a_builder_rejects(tmp_path, capsys, changes, complaint):
    _bad_inputs(tmp_path)
    changes = {key: value.format(tmp=tmp_path) for key, value in changes.items()}
    complaint = complaint.format(tmp=tmp_path)
    text = _set_keys(_BASE.format(out=tmp_path / "o"), changes)
    assert cmd_run(_write(tmp_path, text)) == 2
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 1 and printed[0].startswith("config error: ")
    assert complaint in printed[0]


def test_run_lets_a_simulator_error_through(tmp_path, monkeypatch):
    # only what the builders raise is a config error; a bug keeps its traceback
    def broken(*args, **kwargs):
        raise ValueError("simulator bug")

    monkeypatch.setattr("hetmix.cli._simulate", broken)
    with pytest.raises(ValueError, match="simulator bug"):
        cmd_run(_write(tmp_path, _BASE.format(out=tmp_path / "b")))


@pytest.mark.parametrize("line", ["noise_var = nan", "lr_relative = inf"])
def test_run_rejects_non_finite_floats(tmp_path, capsys, line):
    key = line.split(" =")[0]
    text = re.sub(rf"(?m)^{key} = .*$", line, _BASE.format(out=tmp_path / "f"))
    assert cmd_run(_write(tmp_path, text)) == 2
    assert f"{key!r} is not finite" in capsys.readouterr().out


def test_run_reports_divergence(tmp_path, capsys):
    # growth is roughly 50x per step, so 300 steps overflow the limit
    text = _BASE.format(out=tmp_path / "d").replace(
        "lr_relative = 0.2", "lr_relative = 50"
    ).replace("steps = 25", "steps = 300")
    with pytest.warns(RuntimeWarning):
        code = cmd_run(_write(tmp_path, text))
    assert code == 3
    assert "diverged at step" in capsys.readouterr().out


def test_run_writes_the_repetitions_before_a_divergent_one(tmp_path, capsys):
    # at lr = 0.15 repetition 0 settles near its optimum and repetition 1 blows up
    text = _set_keys(_BASE.format(out=tmp_path / "d"), {"seed": "25", "steps": "600"})
    text = text.replace("lr_relative = 0.2", "lr = 0.15")
    with pytest.warns(RuntimeWarning, match="expect divergence"):
        code = cmd_run(_write(tmp_path, text))
    assert code == 3
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and printed[0].startswith("tiny rep 0: dist_to_opt_w=")
    assert "diverged at step 395" in printed[1]
    assert not (tmp_path / "d" / "tiny_rep1.csv").exists()
    problem = make_random_quadratics(6, 4, 4, 25, 0.1)
    with pytest.warns(RuntimeWarning, match="expect divergence"):
        alone = run_dsgd(problem, build_ring(6), metropolis_hastings(build_ring(6)),
                         RunConfig(steps=600, lr=0.15, window=3, noise_seed=10_025))
    alone.write_csv(tmp_path / "alone.csv")
    assert (tmp_path / "d" / "tiny_rep0.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


@st.composite
def _batched_configs(draw):
    # two_class fixes a ring of 16 nodes
    objective, algorithm = draw(st.sampled_from(
        [("random", "dsgd"), ("two_class", "dsgd"), ("random", "hadsgd")]))
    steps = draw(st.integers(1, 3 * 64).filter(lambda s: s % 64))
    if objective == "two_class":
        keys = {"topology": "ring", "n": 16}
    else:
        keys = {"topology": draw(st.sampled_from(["ring", "random"])),
                "n": draw(st.integers(3, 8))}
    keys.update(objective=objective, algorithm=algorithm, steps=steps, d=draw(st.integers(1, 5)),
                noise_var=draw(st.sampled_from([0.0, 0.01, 0.3])),
                reps=draw(st.integers(1, 3)), seed=draw(st.integers(0, 1000)),
                window=draw(st.integers(1, 7)), period=draw(st.integers(5, 60)))
    return keys


def _alone(keys, rep):
    """The MetricsLog of one repetition of a _batched_configs config, run by itself."""
    seed, n, d = keys["seed"], keys["n"], keys["d"]
    data_seed, noise_std = seed + rep, math.sqrt(keys["noise_var"])
    if keys["objective"] == "two_class":
        problem = make_two_class_ring(d, data_seed, noise_std)
    else:
        problem = make_random_quadratics(n, d, d, data_seed, noise_std)
    graph = build_ring(n) if keys["topology"] == "ring" else build_random_connected(
        n, 0.5, data_seed)
    cfg = RunConfig(steps=keys["steps"], lr=0.2 / problem.smoothness, period=keys["period"],
                    sketch_dim=8, window=keys["window"], sketch_seed=seed + 20_000 + rep,
                    noise_seed=seed + 10_000 + rep)
    if keys["algorithm"] == "hadsgd":
        return run_hadsgd(problem, graph, cfg)
    return run_dsgd(problem, graph, metropolis_hastings(graph), cfg)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_batched_configs())
def test_run_writes_each_repetition_as_it_runs_alone(tmp_path_factory, keys):
    tmp = tmp_path_factory.mktemp("batch")
    text = "".join(f"{key} = {value}\n" for key, value in keys.items())
    text += f"name = prop\nout = {tmp / 'o'}\nlr_relative = 0.2\nsketch_dim = 8\n"
    assert cmd_run(_write(tmp, text)) == 0
    for rep in range(keys["reps"]):
        _alone(keys, rep).write_csv(tmp / "alone.csv")
        assert (tmp / "o" / f"prop_rep{rep}.csv").read_bytes() == (
            tmp / "alone.csv").read_bytes(), rep


def test_run_adaptive_on_ring_of_32(tmp_path, capsys):
    # long rings used to defeat the projection at the first refresh
    text = _reference_adaptive(tmp_path / "r", topology="ring", n=32, steps=400, reps=1)
    assert cmd_run(_write(tmp_path, text)) == 0
    assert "adaptive rep 0: dist_to_opt_w=" in capsys.readouterr().out


def test_run_matches_golden_adaptive_csv(tmp_path):
    """The reference adaptive config at 1 rep and 400 steps, against the CSV
    the interior-point solver wrote with its certified stop at the default
    tol; solver changes must stay within rtol 1e-6 of it."""
    text = _reference_adaptive(tmp_path / "g", steps=400, reps=1)
    assert cmd_run(_write(tmp_path, text)) == 0
    got = (tmp_path / "g" / "adaptive_rep0.csv").read_text().splitlines()
    want = (_ROOT / "tests" / "data" / "adaptive16_rep0.csv").read_text().splitlines()
    assert got[0] == want[0] and len(got) == len(want) == 401
    np.testing.assert_allclose(
        np.loadtxt(got[1:], delimiter=","), np.loadtxt(want[1:], delimiter=","),
        rtol=1e-6, atol=0.0,
    )


def test_run_matches_golden_baseline_csvs(tmp_path):
    """The reference baseline config at 3 reps and 400 steps, against the
    CSVs written before the step loop moved onto the cached Hessians; the
    simulator's arithmetic may move them only by rounding, within rtol 1e-9."""
    text = _reference("random16_baseline.conf", tmp_path / "b", steps=400, reps=3)
    assert cmd_run(_write(tmp_path, text)) == 0
    for rep in range(3):
        got = (tmp_path / "b" / f"baseline_rep{rep}.csv").read_text().splitlines()
        want = (_ROOT / "tests" / "data" / f"baseline16_rep{rep}.csv").read_text().splitlines()
        assert got[0] == want[0] and len(got) == len(want) == 401
        np.testing.assert_allclose(
            np.loadtxt(got[1:], delimiter=","), np.loadtxt(want[1:], delimiter=","),
            rtol=1e-9, atol=0.0,
        )


def test_run_with_edge_file_topology(tmp_path):
    edges = tmp_path / "ring6.txt"
    edges.write_text("n=6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
    text = _BASE.format(out=tmp_path / "e").replace(
        "topology = ring\nn = 6", f"topology = file\nedge_file = {edges}"
    )
    assert cmd_run(_write(tmp_path, text)) == 0
    assert (tmp_path / "e" / "tiny_rep0.csv").exists()


def test_run_with_hadsgd(tmp_path):
    text = (_BASE.format(out=tmp_path / "h")
            .replace("algorithm = dsgd", "algorithm = hadsgd")
            + "period = 10\nsketch_dim = 4\n")
    assert cmd_run(_write(tmp_path, text, "h.cfg")) == 0


# --- compare -----------------------------------------------------------

def test_compare_prints_metrics_side_by_side(tmp_path, capsys):
    a = _write(tmp_path, _BASE.format(out=tmp_path / "ca"))
    b_text = (_BASE.format(out=tmp_path / "cb")
              .replace("name = tiny", "name = other")
              .replace("window = 3", "window = 5"))
    b = _write(tmp_path, b_text, "other.cfg")
    assert cmd_compare(a, b) == 0
    out = capsys.readouterr().out
    assert "dist_to_opt_w" in out and "consensus_w" in out and "gme_w" in out
    assert "tiny" in out and "other" in out
    for line in out.splitlines():
        if line.startswith("dist_to_opt_w"):
            assert ("<" in line) or (">" in line) or ("=" in line)


def test_compare_notes_configs_that_set_different_instances(tmp_path, capsys):
    def notes(conf_a, conf_b, **changes):
        texts = (_reference(conf_a, tmp_path / "a", steps=200, reps=1),
                 _reference(conf_b, tmp_path / "b", steps=200, reps=1, **changes))
        paths = [_write(tmp_path, text, f"{i}.cfg") for i, text in enumerate(texts)]
        assert cmd_compare(*paths) == 0
        return [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("note:")]

    assert notes("random16_baseline.conf", "random16_baseline.conf", keep_fraction=0.9) == [
        "note: configs differ on 'keep_fraction' (0.5 vs 0.9)"]
    # the reference pair runs the same instances
    assert notes("random16_adaptive.conf", "random16_baseline.conf") == []


def test_compare_propagates_parse_failures(tmp_path):
    good = _write(tmp_path, _BASE.format(out=tmp_path / "x"))
    bad = _write(tmp_path, "name = broken\n", "bad.cfg")
    assert cmd_compare(good, bad) == 2


def test_compare_reports_a_bad_edge_file(tmp_path, capsys):
    _bad_inputs(tmp_path)
    good = _write(tmp_path, _BASE.format(out=tmp_path / "g"))
    text = _set_keys(_BASE.format(out=tmp_path / "b"),
                     {"topology": "file", "edge_file": tmp_path / "disconnected.txt"})
    assert cmd_compare(good, _write(tmp_path, text, "bad.cfg")) == 2
    printed = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("note:")]
    assert printed == ["config error: graph is not connected"]


# --- check -------------------------------------------------------------

def test_check_passes_every_check(capsys, monkeypatch):
    # a planted table stands in for the real checks, which test_acceptance.py runs
    import hetmix.checks as checks

    planted = {name: (lambda name=name: checks.CheckResult(name, True, f"{name} held"))
               for name in ("spectral_norm_bound", "update_identity")}
    monkeypatch.setattr(checks, "CHECKS", planted)
    assert cmd_check() == 0
    assert capsys.readouterr().out.splitlines() == [
        "PASS spectral_norm_bound: spectral_norm_bound held",
        "PASS update_identity: update_identity held",
        "all 2 checks passed",
    ]


def test_check_catches_injected_corruption(capsys, monkeypatch):
    # a planted failing check stands in for a property that breaks
    import hetmix.checks as checks

    def failing():
        return checks.CheckResult("spectral_norm_bound", False, "planted failure")

    monkeypatch.setattr(checks, "CHECKS", {"spectral_norm_bound": failing})
    assert main(["check"]) == 1
    out = capsys.readouterr().out
    assert "FAIL spectral_norm_bound" in out


@pytest.mark.parametrize("suite", ["fast", "all"])
def test_check_takes_no_suite(suite):
    with pytest.raises(SystemExit) as exc:
        main(["check", suite])
    assert exc.value.code == 2


def test_import_leaves_scipy_optimize_unloaded(tmp_path):
    """Neither the import, a refresh solve, a run nor the oracle check loads
    any scipy module: scipy is no runtime dependency, scipy.optimize doubles
    the peak memory of an adaptive run, and every import adds to the set-up
    time of a run."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hetmix.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    cfg = _write(tmp_path, _BASE.format(out=tmp_path / "h").replace(
        "algorithm = dsgd", "algorithm = hadsgd\nperiod = 10\nsketch_dim = 4"))
    code = (
        "import sys, numpy as np, hetmix, hetmix.checks, hetmix.cli\n"
        "def scipy(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "loaded = [scipy()]\n"
        "hetmix.ce_gme(np.random.default_rng(0).standard_normal((8, 6)),\n"
        "              hetmix.build_ring(6), hetmix.SketchConfig(4, 0))\n"
        "loaded.append(scipy())\n"
        f"assert hetmix.cli.main(['run', {cfg!r}]) == 0\n"
        "loaded.append(scipy())\n"
        "assert hetmix.checks.solver_matches_oracle().passed\n"
        "loaded.append(scipy())\n"
        "print(loaded)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "[[], [], [], []]"


# --- argparse plumbing -------------------------------------------------

def test_main_dispatches_run(tmp_path):
    assert main(["run", _write(tmp_path, _BASE.format(out=tmp_path / "m"))]) == 0


def test_main_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
