"""Non-fatal regression check of a bench smoke record against the committed
reference record (CI runners are noisy; a human reads the warning).

usage: check_regression.py FIGURE TITLE UNIT KEY [KEY ...]

Compares the `extras` of smoke-results/BENCH_<FIGURE>.json with those of
results/BENCH_<FIGURE>.json and prints a `::warning` titled TITLE for every
KEY whose smoke value is more than 20% below the reference. UNIT follows
each printed value ("x" for speedups, " Mrows/s" for throughputs).
"""
import json
import sys

figure, title, unit, *keys = sys.argv[1:]
with open(f'smoke-results/BENCH_{figure}.json') as f:
    extras = json.load(f)['extras']
try:
    with open(f'results/BENCH_{figure}.json') as f:
        ref = json.load(f)['extras']
except FileNotFoundError:
    print('no committed reference record; skipping regression check')
    raise SystemExit(0)
for key in keys:
    got, want = extras[key], ref[key]
    if got < want * 0.8:
        print(f'::warning title={title}::'
              f'{key} = {got:.2f}{unit} is more than 20% below '
              f'the committed reference ({want:.2f}{unit})')
    else:
        print(f'{key}: {got:.2f}{unit} vs reference {want:.2f}{unit} ok')
