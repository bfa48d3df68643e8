"""Edge-code cache consistency under mutation.

The chain maintains its edge-code array incrementally across
``apply_moves`` (only edges incident to movers are recoded) and rebuilds
it after contraction.  Drift here would silently corrupt both engines
(the policy's shape checks read the same cache), so these properties
pin the cache against a from-scratch encoding after arbitrary mutation
sequences.
"""

import random

from hypothesis import given, strategies as st

from repro.core.chain import ClosedChain, encode_edges
from repro.core.simulator import Simulator
from repro.chains import square_ring

from tests.conftest import closed_chain_positions


def assert_codes_consistent(chain):
    fresh = encode_edges(chain.positions)
    assert chain.edge_codes().tolist() == fresh.tolist()
    assert chain.edge_codes_list() == fresh.tolist()
    assert chain._invalid_edges == int((fresh == -1).sum())


def test_codes_match_reference_encoding_initial():
    chain = ClosedChain(square_ring(6))
    assert_codes_consistent(chain)


@given(closed_chain_positions(max_cells=30),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_codes_consistent_under_random_moves(pts, seed):
    rng = random.Random(seed)
    chain = ClosedChain(pts)
    chain.edge_codes()                     # materialise the cache
    for _ in range(5):
        ids = chain.ids_view()
        moves = {rid: rng.choice([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1),
                                  (1, 1), (-1, -1)])
                 for rid in rng.sample(ids, min(len(ids), rng.randrange(1, 6)))}
        chain.apply_moves(moves)
        assert_codes_consistent(chain)
        chain.contract_coincident(set(moves))
        assert_codes_consistent(chain)


def test_codes_consistent_through_full_gathering():
    sim = Simulator(square_ring(10), engine="reference",
                    check_invariants=True)
    while not sim.is_gathered():
        sim.step()
        assert_codes_consistent(sim.chain)


def test_positions_array_view():
    import numpy as np
    import pytest
    chain = ClosedChain(square_ring(5))
    view = chain.positions_array()
    assert view.shape == (chain.n, 2)
    assert [tuple(int(c) for c in row) for row in view] == chain.positions
    with pytest.raises(ValueError):
        view[0, 0] = 99                    # read-only contract
    chain.apply_moves({0: (0, 1)})
    assert tuple(chain.positions_array()[0]) == chain.position(0)


def test_ahead_codes_match_ahead_edges():
    from repro.core.view import ChainWindow
    from repro.core.patterns import _VEC_TO_CODE
    chain = ClosedChain(square_ring(5))
    for anchor in range(chain.n):
        w = ChainWindow(chain, anchor, 11)
        for sigma in (1, -1):
            expected = [_VEC_TO_CODE[e] for e in w.ahead_edges(sigma, 11)]
            assert w.ahead_codes(sigma, 11) == expected
            assert w.code_toward(sigma) == expected[0]


def test_codes_consistent_dense_indexed_moves():
    """The m >= 24 array tier of ``_post_move_codes`` stays exact."""
    from repro.chains import random_chain, staircase_ring

    rng = random.Random(11)
    chains = [square_ring(40), staircase_ring(8),
              random_chain(300, rng)]
    for chain in (ClosedChain(p) for p in chains):
        chain.edge_codes()
        chain.edge_codes_list()
        for _ in range(10):
            n = chain.n
            if n < 128:
                break                     # contraction shrank it too far
            m = rng.randint(24, n // 4 - 1)
            idxs = rng.sample(range(n), m)
            deltas = [(rng.choice([-1, 0, 1]), rng.choice([-1, 0, 1]))
                      for _ in range(m)]
            chain.apply_moves_indexed(idxs, deltas)
            assert_codes_consistent(chain)
            chain.contract_coincident(set())
            assert_codes_consistent(chain)


def test_codes_survive_isolated_pair_contraction():
    """The contraction fast path preserves the code cache exactly."""
    chain = ClosedChain(square_ring(12))
    chain.edge_codes()
    chain.edge_codes_list()
    # collapse two far-apart neighbour pairs onto shared cells
    i = chain.n - 1
    a, b = chain.position(2), chain.position(10)
    chain.apply_moves({chain.id_at(3): (a[0] - chain.position(3)[0],
                                        a[1] - chain.position(3)[1]),
                       chain.id_at(11): (b[0] - chain.position(11)[0],
                                         b[1] - chain.position(11)[1])})
    assert chain._invalid_edges == 2
    records = chain.contract_coincident({chain.id_at(3), chain.id_at(11)})
    assert len(records) == 2
    assert_codes_consistent(chain)
    assert chain._invalid_edges == 0
