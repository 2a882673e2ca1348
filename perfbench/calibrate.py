"""A fixed reference job that measures how fast the host is right now.

    python3 perfbench/calibrate.py

It does the kinds of work a fistalab command does, and none of fistalab's
code: start an interpreter and import numpy, run a pure-Python loop that
fills a list of a million floats, copy it into an array, and format a
slice of it as text. ``run.py`` times this child after each command of
the workload and divides the workload's times by it, so a host that slows
down for a minute slows both, and the quotient moves less than either.
No change to the program can move the calibration itself.
"""

from itertools import accumulate

import numpy as np

N = 1_000_000

xs = list(accumulate(1.0 / (k * k) for k in range(1, N)))
total = float(np.array(xs).cumsum()[-1])
text = "\n".join(map(repr, xs[::10]))
print(f"{total!r} {len(text)}")
