"""Seed streams: every stream is named by a key path, and no two paths share one."""
from __future__ import annotations

import re
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import tailratio
from tailratio import (
    REFERENCE_NONMATED_MODEL,
    DomainError,
    FitConfig,
    mixture_sample,
    pvalue_study,
    split_dataset,
    substream,
)
from tailratio import seeds
from tailratio.cli import main

PATHS = st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6)
OUT_OF_RANGE = st.one_of(st.integers(max_value=-1), st.integers(min_value=2**32))
PURPOSES = {
    seeds.GEN_MATED, seeds.GEN_NONMATED, seeds.SPLIT, seeds.RESTART,
    seeds.RESAMPLE, seeds.TOY_CELL,
}


def _head(key) -> list[int]:
    return substream(*key).integers(2**63, size=4).tolist()


@given(PATHS, PATHS)
@settings(max_examples=200, deadline=None)
def test_distinct_paths_draw_distinct_streams(a, b):
    assert (_head(a) == _head(b)) == (a == b)


@given(PATHS, st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_trailing_zeros_name_another_stream(path, zeros):
    assert _head(path) != _head(path + [0] * zeros)


@given(PATHS, st.data())
@settings(max_examples=100, deadline=None)
def test_out_of_range_elements_raise(path, data):
    at = data.draw(st.integers(0, len(path)))
    bad = path[:at] + [data.draw(OUT_OF_RANGE)] + path[at:]
    with pytest.raises(DomainError):
        substream(*bad)


@pytest.mark.parametrize("key", [(), (True,), (1.0,), (0, "1")], ids=["empty", "bool", "float", "str"])
def test_non_integer_keys_raise(key):
    with pytest.raises(DomainError):
        substream(*key)


# A seed argument is a key path and nothing else: a float, None or a numpy
# Generator is rejected as a domain error wherever a seed is taken.
@pytest.mark.parametrize("seed", [1.5, None, np.random.default_rng(0)], ids=["float", "none", "generator"])
def test_non_key_seeds_raise(seed):
    calls = (
        lambda: FitConfig(seed=seed),
        lambda: split_dataset(np.arange(8.0), 0.5, seed),
        lambda: mixture_sample(REFERENCE_NONMATED_MODEL, 5, seed),
        lambda: pvalue_study(np.arange(100.0), 10, seed=seed),
    )
    for call in calls:
        with pytest.raises(DomainError):
            call()


def test_only_seeds_module_makes_generators():
    package = Path(tailratio.__file__).parent
    pattern = re.compile(r"default_rng|SeedSequence|\bnp\.random\b|\bnumpy\.random\b")
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "seeds.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert offenders == []


def test_one_seed_keys_every_stream_once(monkeypatch, tmp_path):
    real = seeds.substream
    used = []

    def recording(*key):
        used.append(key)
        return real(*key)

    for name, module in list(sys.modules.items()):
        if name.startswith("tailratio") and getattr(module, "substream", None) is real:
            monkeypatch.setattr(module, "substream", recording)
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    seed = ["--seed", "7"]
    commands = [
        ["gen", "--out", "s.csv", "--n-mated", "100", "--n-nonmated", "400"],
        ["fit", "--scores", "s.csv", "--train-fraction", "0.75", "--restarts", "3", "--out", "f.json"],
        ["gof", "--scores", "s.csv", "--model", "f.json", "--p-method", "bootstrap", "--bootstrap-b", "100"],
        ["sim-pvalues", "--scores", "s.csv", "--reps", "10", "--resample-n", "200", "--bootstrap-b", "100",
         "--k", "1", "--restarts", "2", "--p-method", "bootstrap", "--out", "pv.csv"],
        ["sim-toy", "--reps", "100", "--out", "toy.csv"],
    ]
    for args in commands:
        result = runner.invoke(main, [*args, *seed], catch_exceptions=False)
        assert result.exit_code == 0, result.output
    # gen 2; fit a split and 2 restarts; gof 100 refit draws; sim-pvalues per
    # replicate a split, 1 restart, a null draw and 100 refit draws (a refit at
    # restarts 1 draws no jitter); sim-toy 3 x 2 cells
    assert len(used) == 2 + 3 + 100 + 10 * 103 + 6
    assert len(set(used)) == len(used)
    assert {key[0] for key in used} == {7}
    assert {key[-1] for key in used} == PURPOSES
