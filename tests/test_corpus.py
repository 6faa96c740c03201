"""The fast subset of the differential corpus in tests/corpus.py.

The first FAST_PER_CLASS specs of every class (84 of 980) run here in
about 3 s on a 2-vCPU VM, within a budget of 5 s; CI checks all of them
with `python tests/corpus.py`, in about 35 s.  Each must reproduce its
recorded line: exit code, SHA-256 of stdout, and stderr.
"""

import pytest

from corpus import fast_specs, read_expected, result_line, run_spec

_, RECORDED = read_expected()


@pytest.mark.parametrize(
    "spec_id, cls, argv", [pytest.param(*spec, id=spec[0]) for spec in fast_specs()]
)
def test_fast_subset_matches_the_recording(spec_id, cls, argv):
    assert result_line(spec_id, cls, argv, run_spec(argv)) == RECORDED[spec_id]
