"""Shared helpers for the experiment benchmarks."""

from __future__ import annotations


def report(title: str, lines: list[str]) -> None:
    """Print a paper-style results block (visible with ``pytest -s``)."""
    width = max([len(title)] + [len(line) for line in lines]) + 2
    print()
    print("=" * width)
    print(title)
    print("-" * width)
    for line in lines:
        print(line)
    print("=" * width)

