"""Harnesses that regenerate the paper's evaluation tables.

Each ``tableN`` module exposes ``tableN_rows(...) -> list[dict]`` plus
the paper's printed numbers (``PAPER``) so EXPERIMENTS.md can diff
paper vs measured. ``python -m repro.tables N [N ...]`` runs them at the
paper configuration and writes ``results/tableN.txt``.
"""
