"""Every golden output under tests/golden/ is reproduced byte for byte."""

import pytest

from golden_outputs import committed, render


@pytest.fixture(scope="module")
def outputs():
    return render(), committed()


def test_golden_file_set(outputs):
    fresh, golden = outputs
    assert sorted(fresh) == sorted(golden)


@pytest.mark.parametrize("kind", ["cli/", "fuzz/", "fuzz-fence-after-first-load/", "random-configs"])
def test_golden_bytes(outputs, kind):
    fresh, golden = outputs
    names = sorted(n for n in golden if n.startswith(kind))
    assert names
    for name in names:
        assert fresh.get(name) == golden[name], name
