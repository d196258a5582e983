"""An ensemble sink that keeps every piece, the tests' way to see whole paths.

The simulators hand their states to ``sink(first_id, times, states)`` in
pieces; :class:`Kept` checks that the rows arrive path-major (path ids in
order, each path's times rising from 0) and joins them into
(n_paths, n_steps + 1, d).
"""

import numpy as np


class Kept:
    def __init__(self):
        self.pieces = []

    def __call__(self, first_id, times, states):
        assert states.ndim == 3 and times.shape == (states.shape[1],)
        self.pieces.append((first_id, times.copy(), states.copy()))

    def _rows(self):
        ids = np.concatenate([np.repeat(np.arange(f, f + len(s)), len(t))
                              for f, t, s in self.pieces])
        ts = np.concatenate([np.tile(t, len(s)) for f, t, s in self.pieces])
        new = np.r_[True, np.diff(ids) > 0]
        assert np.all(np.diff(ids) >= 0), "pieces must arrive path-major"
        assert np.all(ts[new] == 0.0) and np.all(np.diff(ts)[~new[1:]] > 0)
        return ids, ts

    @property
    def times(self):
        ids, ts = self._rows()
        return ts[ids == ids[0]]

    @property
    def paths(self):
        ids, _ = self._rows()
        assert np.array_equal(np.unique(ids), np.arange(ids[-1] + 1))
        d = self.pieces[0][2].shape[2]
        return np.concatenate([s.reshape(-1, d) for _, _, s in self.pieces]).reshape(
            ids[-1] + 1, -1, d)


def kept_run(ensemble, *args, **kwargs):
    """(result, paths) of an ensemble run with a :class:`Kept` sink."""
    sink = Kept()
    result = ensemble(*args, sink=sink, **kwargs)
    return result, sink.paths
