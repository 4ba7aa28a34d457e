"""Shared fixtures of the execution-service tests."""

import os
import pathlib

import pytest


@pytest.fixture
def child_pids():
    """A function listing this process's live child pids (from /proc)."""
    if not pathlib.Path("/proc/self/stat").exists():
        pytest.skip("needs /proc")

    def list_children():
        children = set()
        for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
            try:
                fields = stat.read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == os.getpid():
                children.add(int(stat.parent.name))
        return children

    return list_children
