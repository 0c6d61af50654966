"""A speed meter for the machine, sampled while the program runs.

The benchmark's host is a few vCPUs of a shared machine whose speed
drifts by up to a factor of two, in phases from under a second to about a
minute; a plain Python loop drifts with it.  Raw wall times of the same
code therefore spread wider than any useful bound.

`chunk()` is a fixed piece of work written here.  It mixes the kinds of
work `defcert` does: Python integer and dict work, small numpy products,
a stacked numpy product, a spread of interpreter paths (a JSON round
trip, sorting tuples, set and string operations) and a spread of numpy
calls on small level-stacked arrays (einsum, tensordot, concatenate,
nonzero).  The spreads matter: the host's slow phases stretch code with a
broad footprint more than a tight loop, and without them the chunk caught
only part of the slowdown.

`Meter.start()` arms an interval timer: 50 Hz during set-up, which is
short, and 20 Hz from `Meter.pace()` on.  Each tick interrupts the
program between two bytecodes and runs the chunk twice: the first run
brings the chunk's code and data back into the caches the program's work
has just used, and only the second is timed.  A cold chunk caught less
of the slowdown (in fresh-process `families` passes, log scaled time
still rose 0.13 per unit of log raw time, against 0.02 warm).  A tick
keeps (tick time, time the tick took, warm chunk duration).  A chunk
takes about a millisecond, so at 20 Hz the meter takes about 4% of the
program's wall time, which `scaled` leaves out.

`scaled(samples, a, b)` turns the wall interval [a, b] into seconds at
reference speed: the interval less the ticks inside it, times
REFERENCE_CHUNK_S over the warm chunk durations measured there.  A change
that makes the program faster shortens the interval and leaves the
chunks alone, so it shows in full; a slow phase of the host stretches
both alike and cancels.
"""

import json
import signal
import time

import numpy as np

SETUP_INTERVAL_S = 0.02
INTERVAL_S = 0.05
# The warm chunk's duration on a 2.1 GHz Xeon 2-vCPU VM; it only sets
# the unit, so that scaled times read close to seconds there.
REFERENCE_CHUNK_S = 8.5e-4

_SMALL = np.arange(36, dtype=np.int64).reshape(6, 6) % 5
_STACK = np.arange(256 * 36, dtype=np.int64).reshape(256, 6, 6) % 7
_DOC = {"premises": [{"name": f"p{i}", "dims": list(range(i % 7)),
                      "ok": True} for i in range(40)]}
_LEVELS = np.arange(4 * 4 * 3, dtype=np.int64).reshape(4, 4, 3) % 5
_MODULI = np.array([7, 49, 343], dtype=np.int64)


def now():
    # CLOCK_MONOTONIC is shared by every process on the machine
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def chunk():
    """A fixed piece of work; never changes with the program."""
    s, d = 0, {}
    for i in range(1000):
        s = (s * 31 + i) % 1000003
        d[i & 63] = s
    a = _SMALL
    for _ in range(30):
        a = (a @ _SMALL) % 7
    for _ in range(2):
        b = (_STACK @ _SMALL) % 7
        s += int(np.any(b != _STACK, axis=(1, 2)).sum())
    for _ in range(2):
        doc = json.loads(json.dumps(_DOC, sort_keys=True))
        names = sorted((p["name"], len(p["dims"])) for p in doc["premises"])
        s += len(set(range(0, 400, 3)) & set(range(0, 400, 5)))
        s += "".join(name for name, _ in names).count("1")
    x = _LEVELS
    for _ in range(8):
        c = np.einsum("ijk,jlk->ilk", x, x) % _MODULI
        t = np.tensordot(x[:, :, 0], x[:, :, 1], axes=1)
        e = np.concatenate([c, x], axis=2).reshape(4, -1)
        s += int(np.count_nonzero(e)) + int(t.sum() % 7)
        s += len(np.nonzero(np.any(c != x, axis=(1, 2)))[0])
    return s


class Meter:
    """Samples the chunk's duration on a timer in this process."""

    def __init__(self):
        self.samples = []  # [tick time, tick duration, chunk duration]
        self.started = None

    def _tick(self, signum, frame):
        start = now()
        chunk()
        warm = now()
        chunk()
        end = now()
        self.samples.append([start, end - start, end - warm])

    def start(self):
        chunk()  # first call pays numpy's lazy set-up
        self.started = now()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SETUP_INTERVAL_S,
                         SETUP_INTERVAL_S)

    def pace(self):
        """Sample at the timed phase's rate from now on."""
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def scaled(samples, a, b):
    """Seconds that the wall interval [a, b] takes at reference speed.

    Samples are taken evenly in wall time within each phase, so each
    stands for an equal slice of the interval; a slice run at warm chunk
    duration r counts REFERENCE_CHUNK_S / r of its length.  An interval
    with no sample inside it uses the nearest one.
    """
    inside = [s for s in samples if a <= s[0] < b]
    if not inside:
        inside = [min(samples, key=lambda s: min(abs(s[0] - a),
                                                 abs(s[0] - b)))]
        busy = 0.0
    else:
        busy = sum(tick for _, tick, _ in inside)
    speed = sum(REFERENCE_CHUNK_S / r for _, _, r in inside) / len(inside)
    return (b - a - busy) * speed
