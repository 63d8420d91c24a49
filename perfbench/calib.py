"""Calibration child: the kind of work a CLI command does, with no netstrata
code in it. It starts an interpreter, imports the CLI's third-party
packages and labels the components of a fixed ring-plus-chords graph in
pure Python. Its wall time tracks how fast the host runs at that moment.

    python3 perfbench/calib.py
"""

import click  # noqa: F401
import networkx  # noqa: F401
import numpy  # noqa: F401
import scipy.sparse.csgraph  # noqa: F401

N = 20000
adj = {i: [(i + 1) % N, (i - 1) % N] for i in range(N)}
for i in range(0, N, 3):
    adj[i].append((i + N // 3) % N)
    adj[(i + N // 3) % N].append(i)
for _ in range(5):
    label: dict[int, int] = {}
    for s in adj:
        if s in label:
            continue
        label[s] = s
        stack = [s]
        while stack:
            for v in adj[stack.pop()]:
                if v not in label:
                    label[v] = s
                    stack.append(v)
