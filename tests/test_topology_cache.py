"""The in-process topology/oracle cache: content keys and LRU behavior."""

from repro.config import TopologyConfig
from repro.topology.cache import TopologyCache, topology_cache_key

SMALL = TopologyConfig(
    transit_domains=2,
    transit_nodes_per_domain=3,
    stub_domains_per_transit=2,
    stub_nodes_per_domain=5,
    seed=9,
)


def test_key_is_content_addressed():
    assert topology_cache_key(SMALL) == topology_cache_key(SMALL)
    other = TopologyConfig(
        transit_domains=2,
        transit_nodes_per_domain=3,
        stub_domains_per_transit=2,
        stub_nodes_per_domain=5,
        seed=10,
    )
    assert topology_cache_key(SMALL) != topology_cache_key(other)


def test_memory_tier_returns_same_objects():
    cache = TopologyCache(memory_slots=2)
    topo1, oracle1 = cache.get(SMALL)
    topo2, oracle2 = cache.get(SMALL)
    assert topo1 is topo2 and oracle1 is oracle2
    assert cache.memory_hits == 1 and cache.misses == 1


def test_memory_lru_evicts_oldest():
    cache = TopologyCache(memory_slots=1)
    first = cache.get(SMALL)
    other = TopologyConfig(
        transit_domains=2,
        transit_nodes_per_domain=3,
        stub_domains_per_transit=2,
        stub_nodes_per_domain=5,
        seed=10,
    )
    cache.get(other)
    again = cache.get(SMALL)  # evicted, regenerated
    assert again[0] is not first[0]
    assert cache.misses == 3


def test_shared_topology_uses_default_cache():
    from repro.experiments import common

    common.clear_caches()
    config = common.SweepSettings(scale=0.02, seed=3).config(2000)
    pair1 = common.shared_topology(config)
    pair2 = common.shared_topology(config)
    assert pair1[0] is pair2[0]
    common.clear_caches()
