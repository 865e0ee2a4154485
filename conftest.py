"""Tier-1 guard: a test run leaves the checkout exactly as it found it."""

from __future__ import annotations

import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent


def _git_status() -> str | None:
    try:
        done = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


@pytest.fixture(scope="session", autouse=True)
def checkout_left_as_found():
    """Fail the session if any test created, changed or deleted a tracked or unignored file."""
    before = _git_status()
    yield
    after = _git_status()
    if before is None or after is None:  # no git, or not a work tree: nothing to compare
        return
    assert after == before, (
        "the test run changed the checkout (write to tmp_path instead):\n"
        f"--- git status --porcelain before\n{before}--- after\n{after}"
    )
