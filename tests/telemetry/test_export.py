"""``check_writable``: the CLIs' output-path check before a run."""

import pytest

from repro.telemetry.export import check_writable


def test_a_usable_path_is_left_as_it_was(tmp_path):
    fresh = tmp_path / "fresh.json"
    kept = tmp_path / "kept.json"
    kept.write_text("old content")
    check_writable(str(fresh), str(kept), None, "")
    assert not fresh.exists()
    assert kept.read_text() == "old content"


@pytest.mark.parametrize("name, error", [
    ("no-such-dir/out.json", FileNotFoundError),
    (".", IsADirectoryError),
])
def test_an_unusable_path_raises_what_writing_would(tmp_path, name,
                                                    error):
    fresh = tmp_path / "fresh.json"
    with pytest.raises(error):
        check_writable(str(fresh), str(tmp_path / name))
    assert not fresh.exists()
