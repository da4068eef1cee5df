"""A fixed pure-Python job whose run time tracks the machine's momentary speed.

run.py runs it, as a fresh interpreter, before every measured op and
reports op times relative to it (``wall_rel``, ``cpu_rel``).  On a shared
VM the speed of the machine drifts by a quarter or more over minutes;
exact-fraction sums and dict updates slow down with it much as lzero's
big-integer and allocation-heavy code does, so the ratio drifts less than
the raw time.  It imports nothing from lzero and must not change, or
ratios from before and after the change stop being comparable.
"""

from fractions import Fraction

acc = Fraction(0)
x = 3
for i in range(1, 20000):
    x = (x * x + i) % 1000000007
    acc += Fraction(x, i)
counts = {}
for i in range(70000):
    counts[i % 977] = counts.get(i % 977, 0) + i
