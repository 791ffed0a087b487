"""Cache/TLB models and the cycle timing model."""

from hypothesis import example, given, settings, strategies as st

from repro.sim.caches import TLB, SetAssociativeCache
from repro.sim.timing import DEVICE_GRID, DeviceConfig, TimingModel


class TestCache:
    def test_hit_after_miss(self):
        cache = SetAssociativeCache(1024, 64, 2)
        assert not cache.access(0x100)
        assert cache.access(0x100)
        assert cache.access(0x13F)  # same 64B line
        assert cache.hits == 2 and cache.misses == 1

    def test_lru_eviction(self):
        cache = SetAssociativeCache(128, 64, 1)  # 2 sets, direct-mapped
        assert not cache.access(0x0)
        assert not cache.access(0x80)   # same set, evicts 0x0
        assert not cache.access(0x0)    # miss again

    def test_associativity_prevents_conflict(self):
        cache = SetAssociativeCache(256, 64, 2)  # 2 sets, 2 ways
        cache.access(0x0)
        cache.access(0x80)   # same set, second way
        assert cache.access(0x0)
        assert cache.access(0x80)

    def test_tlb_page_granularity(self):
        tlb = TLB(entries=4, page_bytes=1024)
        assert not tlb.access(0)
        assert tlb.access(1023)
        assert not tlb.access(1024)

    def test_lru_eviction_order_is_recency_not_insertion(self):
        """Re-accessing a resident line must refresh its LRU position: in
        a 2-way set holding {A, B}, touching A again and then inserting C
        evicts B (least recently used), never A (oldest inserted)."""
        cache = SetAssociativeCache(128, 64, 2)  # 1 set, 2 ways
        a, b, c = 0x0, 0x40, 0x80
        assert not cache.access(a)
        assert not cache.access(b)
        assert cache.access(a)       # refresh A: LRU order is now [B, A]
        assert not cache.access(c)   # evicts B
        assert cache.access(a), "refreshed line was evicted"
        assert not cache.access(b), "stale line survived the eviction"

    def test_eviction_chain_walks_lru_order(self):
        """Filling a 4-way set and streaming new lines evicts strictly in
        LRU order, one victim per insertion."""
        cache = SetAssociativeCache(256, 64, 4)  # 1 set, 4 ways
        lines = [0x40 * i for i in range(4)]
        for addr in lines:
            assert not cache.access(addr)
        for extra, victim in enumerate(lines):
            newcomer = 0x40 * (4 + extra)
            assert not cache.access(newcomer)
            assert not cache.access(victim)  # exactly the LRU way died
            # Re-inserting the victim displaces the next-oldest line,
            # keeping the chain going.


class TestTimingModel:
    def test_base_cost_per_instruction(self):
        t = TimingModel(DeviceConfig())
        before = t.cycles
        t.on_instr(0x1000)
        # 1 base + miss costs on a cold machine
        assert t.cycles > before

    def test_warm_instruction_costs_one_cycle(self):
        t = TimingModel(DeviceConfig())
        t.on_instr(0x1000)
        warm_before = t.cycles
        t.on_instr(0x1000)
        assert t.cycles == warm_before + 1

    def test_text_page_fault_once(self):
        cfg = DeviceConfig()
        t = TimingModel(cfg)
        t.on_instr(0x1000)
        t.on_instr(0x1000 + cfg.page_bytes)
        assert t.text_page_faults == 2
        t.on_instr(0x1004)
        assert t.text_page_faults == 2

    def test_data_page_fault_once_per_page(self):
        cfg = DeviceConfig()
        t = TimingModel(cfg)
        t.on_data_access(0x9000)
        t.on_data_access(0x9008)
        t.on_data_access(0x9000 + cfg.page_bytes)
        assert t.data_page_faults == 2

    def test_conditional_branch_mispredict_then_learn(self):
        t = TimingModel(DeviceConfig())
        t.on_taken_branch(0x100, 0x200)
        assert t.mispredicts == 1
        t.on_taken_branch(0x100, 0x200)
        assert t.mispredicts == 1
        t.on_taken_branch(0x100, 0x300)
        assert t.mispredicts == 2

    def test_unconditional_branch_never_mispredicts(self):
        t = TimingModel(DeviceConfig())
        t.on_uncond_branch(0x100, 0x200)
        t.on_uncond_branch(0x100, 0x300)
        assert t.mispredicts == 0

    def test_native_call_cost(self):
        t = TimingModel(DeviceConfig())
        t.on_native_call(40)
        assert t.cycles == 40

    def test_device_grid_ordered_by_capability(self):
        oldest, newest = DEVICE_GRID[0], DEVICE_GRID[-1]
        assert oldest.icache_bytes < newest.icache_bytes
        assert oldest.data_page_fault_cycles > newest.data_page_fault_cycles


class TestLineStraddle:
    """Icache accounting at cache-line boundaries — the thumb2c cases.

    On a compressed target a 4-byte instruction can start 2 bytes before
    a line boundary; the fetch must touch (and can miss) both lines.  A
    2-byte instruction whose last byte stays inside the line must not.
    """

    def test_4byte_instr_at_line_minus_2_touches_both_lines(self):
        cfg = DeviceConfig()
        t = TimingModel(cfg)
        addr = cfg.line_bytes - 2  # bytes 62..65: straddles lines 0 and 1
        t.on_instr(addr, width=4)
        assert t.icache.misses == 2
        # Both lines are now resident: refetching either half is warm.
        before = t.cycles
        t.on_instr(addr, width=4)
        assert t.icache.misses == 2
        assert t.cycles == before + 1

    def test_2byte_instr_at_line_minus_2_stays_in_line(self):
        cfg = DeviceConfig()
        t = TimingModel(cfg)
        t.on_instr(cfg.line_bytes - 2, width=2)  # bytes 62..63: line 0 only
        assert t.icache.misses == 1

    def test_2byte_instr_at_line_minus_1_straddles(self):
        """Pathological-but-legal on a byte-addressed model: last byte in
        the next line means two line touches even at width 2."""
        cfg = DeviceConfig()
        t = TimingModel(cfg)
        t.on_instr(cfg.line_bytes - 1, width=2)  # bytes 63..64
        assert t.icache.misses == 2

    def test_aligned_4byte_instr_never_straddles(self):
        cfg = DeviceConfig()
        t = TimingModel(cfg)
        for addr in range(0, cfg.line_bytes, 4):  # every aligned slot
            t.on_instr(addr, width=4)
        assert t.icache.misses == 1  # one line, one cold miss

    def test_straddle_charges_two_miss_penalties_when_both_cold(self):
        cfg = DeviceConfig()
        cold = TimingModel(cfg)
        cold.on_instr(cfg.line_bytes - 2, width=4)
        aligned = TimingModel(cfg)
        aligned.on_instr(0, width=4)
        assert (cold.cycles - aligned.cycles) == cfg.icache_miss_cycles


class TestITLBPageBoundary:
    """iTLB accounting at page boundaries.

    The model checks the iTLB at the *start* address only: instruction
    fetch translation is per-fetch, and the straddling byte's page is
    charged when the PC actually lands there (the very next instruction),
    so per-page costs (iTLB miss, text page fault) are never double-
    charged for one boundary crossing.
    """

    def test_last_instr_of_page_charges_only_its_own_page(self):
        cfg = DeviceConfig()
        t = TimingModel(cfg)
        t.on_instr(cfg.page_bytes - 2, width=4)  # straddles pages 0 and 1
        assert t.text_page_faults == 1
        assert t.text_pages == {0}

    def test_next_fetch_charges_the_new_page(self):
        cfg = DeviceConfig()
        t = TimingModel(cfg)
        t.on_instr(cfg.page_bytes - 2, width=4)
        t.on_instr(cfg.page_bytes + 2, width=4)
        assert t.text_page_faults == 2
        assert t.text_pages == {0, 1}

    def test_first_touch_of_page_faults_once(self):
        cfg = DeviceConfig()
        t = TimingModel(cfg)
        t.on_instr(0, width=4)
        cycles_after_first = t.cycles
        t.on_instr(4, width=4)  # same page, same line, iTLB warm
        assert t.text_page_faults == 1
        assert t.cycles == cycles_after_first + 1

    def test_itlb_capacity_miss_does_not_refault_resident_page(self):
        """Thrashing the iTLB re-charges the translation-miss cycles but
        never the page fault: residency outlives the TLB entry."""
        cfg = DeviceConfig(itlb_entries=2, icache_bytes=1 << 20)
        t = TimingModel(cfg)
        pages = list(range(6))  # 6 pages > the TLB's 4-way floor capacity
        for p in pages:
            t.on_instr(p * cfg.page_bytes, width=4)
        assert t.text_page_faults == 6
        faults_cycles = t.cycles
        for p in pages:  # streaming 6 pages through a 4-entry LRU: all miss
            t.on_instr(p * cfg.page_bytes, width=4)
        assert t.text_page_faults == 6, "resident page refaulted"
        # But the second sweep did pay iTLB miss cycles (capacity misses).
        assert t.cycles > faults_cycles + 6


def reference_fetch(t: TimingModel, addr: int, width: int) -> None:
    """The fetch rule spelled out with one LRU walk per access: what
    :meth:`TimingModel.on_instr` must stay equal to, memo or not."""
    cfg = t.config
    t.cycles += 1
    if not t.icache.access(addr):
        t.cycles += cfg.icache_miss_cycles
    last = addr + width - 1
    if last // cfg.line_bytes != addr // cfg.line_bytes:
        if not t.icache.access(last):
            t.cycles += cfg.icache_miss_cycles
    if not t.itlb.access(addr):
        t.cycles += cfg.itlb_miss_cycles
        page = addr // cfg.page_bytes
        if page not in t.text_pages:
            t.text_pages.add(page)
            t.text_page_faults += 1
            t.cycles += cfg.text_page_fault_cycles


#: Machines small enough that short streams evict lines and pages; the
#: second has a single icache set, where every access reorders one list.
_TINY = (DeviceConfig(name="tiny", icache_bytes=256, icache_ways=2,
                      line_bytes=64, itlb_entries=4, page_bytes=256),
         DeviceConfig(name="one-set", icache_bytes=128, icache_ways=2,
                      line_bytes=64, itlb_entries=2, page_bytes=128))


@st.composite
def fetch_streams(draw):
    """Runs of sequential 2/4-byte fetches, each starting near a line or
    page edge, so runs stay in a line, straddle lines, cross pages, and
    come back to lines an earlier run touched."""
    cfg = draw(st.sampled_from([*_TINY, DEVICE_GRID[0]]))
    stream = []
    for _ in range(draw(st.integers(1, 12))):
        edge = draw(st.sampled_from([cfg.line_bytes, cfg.page_bytes]))
        # Few distinct edges, so later runs revisit earlier lines.
        addr = max(0, draw(st.integers(0, 6)) * edge
                   + draw(st.integers(-6, 6)))
        for width in draw(st.lists(st.sampled_from([2, 4]), min_size=1,
                                   max_size=40)):
            stream.append((addr, width))
            addr += width
    return cfg, stream


class TestFetchMemo:
    @settings(max_examples=300, deadline=None)
    @given(fetch_streams())
    # A straddle must leave the memo on the line it touched last: with one
    # set, re-fetching the first line reorders the set before the third
    # line evicts one of them.
    @example((_TINY[1], [(62, 4), (60, 2), (128, 4), (0, 4)]))
    def test_on_instr_matches_per_access_reference(self, case):
        cfg, stream = case
        memo, ref = TimingModel(cfg), TimingModel(cfg)
        for addr, width in stream:
            memo.on_instr(addr, width)
            reference_fetch(ref, addr, width)
        assert memo.cycles == ref.cycles
        for name in ("icache", "itlb"):
            got, want = getattr(memo, name), getattr(ref, name)
            assert (got.hits, got.misses) == (want.hits, want.misses), name
            assert got._sets == want._sets, name
        assert memo.text_page_faults == ref.text_page_faults
        assert memo.text_pages == ref.text_pages
