"""Batched membership sampling consumes exactly the draws of the naive loop.

``MembershipService.sample`` draws its rejection-sampling slot indices in
rounds (``integers(0, population, size=need)``).  That is only safe if
(a) numpy's sized ``integers`` call equals the same number of scalar
calls, and (b) a round never draws past the point where the one-draw-
per-attempt loop would stop.  The first group of tests pins (a) against
the installed numpy, so an upgrade that breaks it fails here instead of
silently moving the golden baselines.  The second group checks (b)
end to end: picks, their order, the generator state afterwards and the
next ``random()`` must all match the naive reference below.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest

from repro.overlay.membership import MembershipService
from repro.overlay.node import OverlayNode
from tests.conftest import make_node

try:
    from hypothesis import given, strategies as st
except ImportError:  # hypothesis is an optional test dependency
    given = None


# -- the numpy property the batched rounds rely on -----------------------------

BOUNDS = (2, 3, 7, 100, 401, 15601, (1 << 16) + 1, (1 << 31) - 1)


def _generator(seed: int, pending_half: bool) -> np.random.Generator:
    gen = np.random.Generator(np.random.PCG64(seed))
    if pending_half:
        # One bounded 32-bit draw splits a raw 64-bit output and leaves
        # its high half buffered in the bit generator.
        gen.integers(0, 10)
        assert gen.bit_generator.state["has_uint32"] == 1
    return gen


@pytest.mark.parametrize("pending_half", [False, True])
@pytest.mark.parametrize("bound", BOUNDS)
def test_sized_integers_equal_scalar_draws(bound, pending_half):
    for seed, m in ((1, 1), (2, 2), (3, 7), (4, 100)):
        batched = _generator(seed, pending_half).integers(0, bound, size=m)
        for j in range(m + 1):
            scalar = _generator(seed, pending_half)
            want = [int(scalar.integers(0, bound)) for _ in range(j)]
            assert batched[:j].tolist() == want
            sized = _generator(seed, pending_half)
            sized.integers(0, bound, size=j)
            assert sized.bit_generator.state == scalar.bit_generator.state
            assert sized.random() == scalar.random()


# -- the sampler against the one-draw-per-attempt reference --------------------


def naive_sample(
    nodes: List[OverlayNode],
    rng: np.random.Generator,
    k: int,
    exclude=(),
    attached_only: bool = True,
) -> List[OverlayNode]:
    """The sampler as a loop that draws one scalar index per attempt."""
    excluded = {n.member_id for n in exclude}

    def eligible(node: OverlayNode) -> bool:
        if node.member_id in excluded:
            return False
        return node.attached or not attached_only

    population = len(nodes)
    if population == 0 or k == 0:
        return []
    if k * 3 < population:
        picked: List[OverlayNode] = []
        seen = set()
        attempts = 0
        max_attempts = 8 * k + 32
        while len(picked) < k and attempts < max_attempts:
            attempts += 1
            node = nodes[int(rng.integers(0, population))]
            if node.member_id in seen:
                continue
            seen.add(node.member_id)
            if eligible(node):
                picked.append(node)
        if len(picked) == k:
            return picked
    candidates = [n for n in nodes if eligible(n)]
    if len(candidates) <= k:
        return candidates
    indices = rng.choice(len(candidates), size=k, replace=False)
    return [candidates[int(i)] for i in indices]


def _service(attached, removed, seed):
    """A service over ``len(attached)`` registered members, minus the
    ``removed`` positions (so slot order went through swap-pop)."""
    service = MembershipService(np.random.default_rng(seed))
    nodes = [make_node(i + 1) for i in range(len(attached))]
    for node, flag in zip(nodes, attached):
        node.attached = flag
        service.register(node)
    for pos in removed:
        service.unregister(nodes[pos])
    return service


def assert_draw_exact(attached, removed, seed, calls):
    """Run ``calls`` on a service and on the reference; all must agree."""
    service = _service(attached, removed, seed)
    reference = np.random.default_rng(seed)
    nodes = list(service._nodes)
    for k, exclude_ids, attached_only in calls:
        exclude = [n for n in nodes if n.member_id in exclude_ids]
        got = service.sample(k, exclude=exclude, attached_only=attached_only)
        want = naive_sample(nodes, reference, k, exclude, attached_only)
        assert [n.member_id for n in got] == [n.member_id for n in want]
    assert service._rng.bit_generator.state == reference.bit_generator.state
    assert service._rng.random() == reference.random()


def _mask(population, every):
    return [i % every != 0 for i in range(population)]


#: (population, attached-mask stride, k, attached_only) hitting each path:
#: the rejection loop at k = 1, 2 and 100; both sides of the
#: ``k * 3 < population`` boundary; a sparse attached mask where
#: ``max_attempts`` runs out and the full filter takes over.
CASES = [
    (400, 5, 100, True),
    (400, 5, 2, True),
    (400, 5, 1, True),
    (200, 5, 100, True),
    (301, 3, 100, True),
    (300, 3, 100, True),
    (302, 3, 100, True),
    (500, 1, 100, False),
    (4, 2, 1, True),
]


@pytest.mark.parametrize("population,every,k,attached_only", CASES)
def test_sample_matches_naive_reference(population, every, k, attached_only):
    mask = _mask(population, every)
    calls = [(k, {1, 2, 3}, attached_only), (k, set(), attached_only)]
    assert_draw_exact(mask, (), 99, calls)


def test_exhausted_attempts_fall_back_to_full_filter():
    # 1 in 10 attached: 100 eligible picks cannot come from 832 draws.
    population = 1000
    mask = [i % 10 == 0 for i in range(population)]
    picked = _service(mask, (), 5).sample(100)
    assert len(picked) == 100 and all(n.attached for n in picked)
    assert_draw_exact(mask, (), 5, [(100, set(), True)] * 3)


if given is not None:

    CALL = st.tuples(
        st.one_of(
            st.sampled_from([1, 2, 100]),
            st.integers(1, 250),
        ),
        st.frozensets(st.integers(1, 700), max_size=20),
        st.booleans(),
    )

    @given(
        population=st.integers(1, 600),
        attached_fraction=st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.9, 1.0]),
        mask_seed=st.integers(0, 2**32 - 1),
        removed=st.lists(st.integers(0, 10**6), max_size=10),
        seed=st.integers(0, 2**32 - 1),
        calls=st.lists(CALL, min_size=1, max_size=4),
        boundary=st.sampled_from([None, -1, 0, 1]),
    )
    def test_sample_is_draw_exact(
        population, attached_fraction, mask_seed, removed, seed, calls, boundary
    ):
        mask = (
            np.random.default_rng(mask_seed).random(population)
            < attached_fraction
        ).tolist()
        removed = sorted({pos % population for pos in removed})[:population - 1]
        if boundary is not None:
            # k around the rejection/full-filter switch at k * 3 < population.
            live = population - len(removed)
            k = max(1, (live - 1) // 3 + boundary)
            calls = [(k, *rest) for _, *rest in calls]
        assert_draw_exact(mask, removed, seed, calls)
