"""Experiment harness: one module per table/figure of the evaluation.

Each ``figN_*`` module exposes a ``run_figN(...)`` function returning a
result object with the measured series plus the paper's reference
numbers, and a ``render()`` producing the text table the benchmarks
print.  Figs. 5-8 and 10 run as scenario sweeps over registry specs;
``python -m repro.cli figures`` regenerates every figure.

This package imports nothing eagerly: ``repro.scenario`` reaches
``reporting`` through ``repro.workload.result`` while the figure
modules import ``repro.scenario``, so eager imports here would cycle.
"""
