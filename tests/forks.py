"""Helpers for tests of work that forks worker processes."""

import os

import pytest


def assert_no_child_left():
    # every forked worker has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_forks(monkeypatch):
    """A list that gains one entry per os.fork call; the fork still happens."""
    forks = []
    real = os.fork

    def spy():
        forks.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", spy)
    return forks
