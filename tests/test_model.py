import math
import random

import pytest

from qcpto.model import Assignment, Roi, Turn, normalize_heading

from oracles import users_of


def test_heading_normalization():
    assert normalize_heading(2 * math.pi) == 0.0
    assert normalize_heading(-math.pi / 2) == pytest.approx(3 * math.pi / 2)


def test_roi_straight_is_empty():
    roi = Roi(triangle=None, turn=Turn.STRAIGHT)
    assert roi.triangle is None


def test_assignment_single_worker_per_user():
    # a worker vector holds one entry per user
    a = Assignment.from_key([2, -1, 0])
    assert a.worker_of(0) == 2 and a.worker_of(1) is None
    assert len(a) == 2
    assert a.key(3) == (2, -1, 0)


def test_assignment_eta_matches_incremental_count():
    rng = random.Random(7)
    for _ in range(100):
        x = [-1] * 8
        counts = {}
        for _ in range(rng.randrange(20)):
            u, w = rng.randrange(8), rng.randrange(3)
            if x[u] >= 0:
                counts[x[u]] -= 1
            x[u] = w
            counts[w] = counts.get(w, 0) + 1
        a = Assignment.from_key(x)
        assert a.eta() == {w: c for w, c in counts.items() if c > 0}
        assert Assignment.from_key(a.key(8)) == a


def test_assignment_key_prefers_unassigned_encoding():
    a = Assignment({1: 0})
    assert a.key(3) == (-1, 0, -1)
    assert Assignment.empty().key(2) < a.key(2)


def test_assignment_drop_and_users_of():
    x = [1, -1, 1, 0]
    a = Assignment.from_key(x)
    assert users_of(a, 1) == (0, 2)
    assert sorted(a.eta()) == [0, 1]
    x[0] = -1  # dropping a user is a -1 in its entry
    assert users_of(Assignment.from_key(x), 1) == (2,)
