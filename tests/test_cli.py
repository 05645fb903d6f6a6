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
    serialize_config,
)

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


def _reference_adaptive(out, **changes):
    """configs/random16_adaptive.conf with out and the given keys replaced."""
    text = (_ROOT / "configs" / "random16_adaptive.conf").read_text()
    for key, value in dict(out=out, **changes).items():
        text, count = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        assert count == 1, key
    return text


# --- parsing -----------------------------------------------------------

def test_parse_types_comments_and_order():
    cfg = parse_config(_BASE.format(out="/tmp/x") + "alternate = false\n")
    assert cfg["n"] == 6 and isinstance(cfg["n"], int)
    assert cfg["lr_relative"] == 0.2
    assert cfg["alternate"] is False
    assert list(cfg)[0] == "name"
    assert "lr" not in cfg


def test_serialize_round_trips():
    text = _BASE.format(out="/tmp/x") + "alternate = true\nkeep_fraction = 0.85\n"
    cfg = parse_config(text)
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert list(again) == list(cfg)


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
    with pytest.raises(ConfigError, match="decoupled"):
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
    ],
)
def test_run_reports_values_a_builder_rejects(tmp_path, capsys, changes, complaint):
    _bad_inputs(tmp_path)
    changes = {key: value.format(tmp=tmp_path) for key, value in changes.items()}
    text = _set_keys(_BASE.format(out=tmp_path / "o"), changes)
    assert cmd_run(_write(tmp_path, text)) == 2
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 1 and printed[0].startswith("config error: ")
    assert complaint in printed[0]


def test_run_lets_a_simulator_error_through(tmp_path, monkeypatch):
    # only what the builders raise is a config error; a bug keeps its traceback
    def broken(*args, **kwargs):
        raise ValueError("simulator bug")

    monkeypatch.setattr("hetmix.cli.run_dsgd", broken)
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


def test_run_adaptive_on_ring_of_32(tmp_path, capsys):
    # long rings used to defeat the projection at the first refresh
    text = _reference_adaptive(tmp_path / "r", topology="ring", n=32, steps=400, reps=1)
    assert cmd_run(_write(tmp_path, text)) == 0
    assert "adaptive rep 0: dist_to_opt_w=" in capsys.readouterr().out


def test_run_matches_golden_adaptive_csv(tmp_path):
    """The reference adaptive config at 1 rep and 400 steps, against the CSV
    the accelerated solver wrote with its certified stop at the default
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

def test_check_fast_suite_passes(capsys):
    assert cmd_check("fast") == 0
    out = capsys.readouterr().out
    assert "PASS spectral_norm_bound" in out
    assert "FAIL" not in out


def test_check_catches_injected_corruption(capsys, monkeypatch):
    # a planted failing check stands in for a property that breaks
    import hetmix.checks as checks

    def failing():
        return checks.CheckResult("spectral_norm_bound", False, "planted failure")

    monkeypatch.setattr(checks, "CHECKS", {"spectral_norm_bound": (failing, True)})
    assert main(["check", "fast"]) == 1
    out = capsys.readouterr().out
    assert "FAIL spectral_norm_bound" in out


def test_import_leaves_scipy_optimize_unloaded(tmp_path):
    """Neither the import nor a refresh solve loads scipy.optimize, which
    doubles the peak memory of an adaptive run."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hetmix.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    cfg = _write(tmp_path, _BASE.format(out=tmp_path / "h").replace(
        "algorithm = dsgd", "algorithm = hadsgd\nperiod = 10\nsketch_dim = 4"))
    code = (
        "import sys, numpy as np, hetmix, hetmix.cli\n"
        "loaded = ['scipy.optimize' in sys.modules]\n"
        "hetmix.ce_gme(np.random.default_rng(0).standard_normal((8, 6)),\n"
        "              hetmix.build_ring(6), hetmix.SketchConfig(4, 0))\n"
        "loaded.append('scipy.optimize' in sys.modules)\n"
        f"assert hetmix.cli.main(['run', {cfg!r}]) == 0\n"
        "loaded.append('scipy.optimize' in sys.modules)\n"
        "print(loaded)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "[False, False, False]"


# --- argparse plumbing -------------------------------------------------

def test_main_dispatches_run(tmp_path):
    assert main(["run", _write(tmp_path, _BASE.format(out=tmp_path / "m"))]) == 0


def test_main_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
