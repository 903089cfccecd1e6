"""Time scatfeat's set-up in a fresh process.

    python3 setup_probe.py <src dir> q,t,n_fft [q,t,n_fft ...]

Measures importing scatfeat plus the first build of each filter bank given,
from the start of this script, and prints the seconds.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    import scatfeat

    for spec in sys.argv[2:]:
        q, t, n_fft = (int(v) for v in spec.split(","))
        scatfeat.filterbank.cached_bank(q, t, n_fft)
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main()
