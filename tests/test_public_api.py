"""The public surface: every exported name resolves, once, and the count is pinned."""

import pochex

# Pinned so that adding or removing a public name shows up in the diff.
PUBLIC_NAMES = 68


def test_every_exported_name_resolves_once():
    assert len(pochex.__all__) == len(set(pochex.__all__))
    missing = [name for name in pochex.__all__ if not hasattr(pochex, name)]
    assert missing == []


def test_public_name_count_is_pinned():
    assert len(pochex.__all__) == PUBLIC_NAMES
