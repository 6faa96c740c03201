"""The fast subset of the differential corpus in tests/corpus.py.

The first FAST_PER_CLASS specs of every class (90 of 1,050) run here in
about 3 s on a 2-vCPU VM, within a budget of 5 s; CI checks all of them
with `python tests/corpus.py`, in about 35 s.  Each must reproduce its
recorded line: exit code, SHA-256 of stdout, and stderr.  A spec whose
segment quadratures take 29,000 leaves also holds its traced memory under
8 MB.
"""

import hashlib
import shutil
import subprocess
import tracemalloc
from pathlib import Path

import pytest

from revcrochet import calculus

from corpus import fast_specs, read_expected, result_line, results_at, run_spec, specs

from conftest import GOLDEN_DIR

_, RECORDED = read_expected()
ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "spec_id, cls, argv", [pytest.param(*spec, id=spec[0]) for spec in fast_specs()]
)
def test_fast_subset_matches_the_recording(spec_id, cls, argv):
    result = run_spec(argv)
    assert result[0] in (0, 2), result[2]  # a pattern or a one-line diagnostic
    assert result_line(spec_id, cls, argv, result) == RECORDED[spec_id]


def test_the_leaf_tables_of_a_plan_stay_small(monkeypatch):
    # sqrt-abs-58's two segments take 29,000 leaves and end at a vertical
    # tangent, where a leaf is accepted at the depth limit, so the plan keeps
    # no table.  (sqrt-abs-14's one segment would take 202,533 leaves; its
    # table stops at the cap of 2**16 and took 3.4 MB traced, against 7.1 MB
    # with no cap, but tracing it takes 16 s.)
    spec_id = "sqrt-abs-58"
    argv = next(argv for sid, _, argv in specs() if sid == spec_id)
    solve, kept = calculus.solve_landmarks, []

    def landmarks(spec, seg, table=None):
        kept.append(table)
        return solve(spec, seg, table)

    monkeypatch.setattr(calculus, "solve_landmarks", landmarks)
    tracemalloc.start()
    try:
        result = run_spec(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result_line(spec_id, "sqrt-abs", argv, result) == RECORDED[spec_id]
    assert kept and all(table is None for table in kept)
    assert peak < 8_000_000


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)


@pytest.mark.skipif(
    shutil.which("git") is None or _git("rev-parse", "--verify", "HEAD").returncode != 0,
    reason="needs a git checkout with a commit",
)
def test_results_at_runs_a_commit_in_a_worktree_and_removes_it():
    worktrees = _git("worktree", "list").stdout
    argv = ["--function", "x^3 + 2*x^2 - 2*x + 4", "--a", "-3", "--b", "1",
            "--stitch-gauge", "22", "--row-gauge", "25", "--scale", "0.18"]
    got = results_at("HEAD", [("running", "golden", argv)])
    golden = (GOLDEN_DIR / "running_example.txt").read_bytes()
    assert list(got) == ["running"]
    _, _, _, code, digest, err = got["running"].split("\t")
    assert (code, digest, err) == ("0", hashlib.sha256(golden).hexdigest(), "''")
    assert _git("worktree", "list").stdout == worktrees
