/**
 * @file
 * Unit tests for the CPU TLB (superpages, NRU, purge) and the
 * micro-ITLB.
 */

#include <gtest/gtest.h>

#include "base/random.hh"
#include "tlb/tlb.hh"

using namespace mtlbsim;

namespace
{
PageProtection rw{true, true};
PageProtection ro{false, true};
PageProtection kernel_only{true, false};
}

TEST(PageSizeClasses, PowersOfFour)
{
    EXPECT_EQ(pageSizeForClass(0), 4u * 1024);
    EXPECT_EQ(pageSizeForClass(1), 16u * 1024);
    EXPECT_EQ(pageSizeForClass(2), 64u * 1024);
    EXPECT_EQ(pageSizeForClass(6), 16u * 1024 * 1024);
    EXPECT_EQ(pageSizeForClass(7), 64u * 1024 * 1024);
}

TEST(PageSizeClasses, SizeClassFor)
{
    EXPECT_EQ(sizeClassFor(1), 0u);
    EXPECT_EQ(sizeClassFor(4096), 0u);
    EXPECT_EQ(sizeClassFor(4097), 1u);
    EXPECT_EQ(sizeClassFor(16 * 1024), 1u);
    EXPECT_EQ(sizeClassFor(64 * 1024 * 1024), 7u);
}

TEST(TlbEntryTest, CoversAndTranslate)
{
    TlbEntry e;
    e.vbase = 0x4000;
    e.pbase = 0x80240000;
    e.sizeClass = 1;    // 16 KB
    e.valid = true;
    EXPECT_TRUE(e.covers(0x4000));
    EXPECT_TRUE(e.covers(0x7fff));
    EXPECT_FALSE(e.covers(0x8000));
    // The paper's Figure 1 example: 0x00004080 -> 0x80240080.
    EXPECT_EQ(e.translate(0x4080), 0x80240080u);
}

struct TlbFixture : ::testing::Test
{
    TlbFixture() : group("t"), tlb(4, "tlb", group) {}
    stats::StatGroup group;
    Tlb tlb;
};

TEST_F(TlbFixture, MissOnEmpty)
{
    const auto r = tlb.lookup(0x1000, AccessType::Read,
                              AccessMode::User);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST_F(TlbFixture, InsertThenHit)
{
    tlb.insert(0x1000, 0x5000, 0, rw);
    const auto r = tlb.lookup(0x1234, AccessType::Read,
                              AccessMode::User);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.paddr, 0x5234u);
}

TEST_F(TlbFixture, SuperpageTranslation)
{
    // 16 KB superpage mapping virtual 0x4000 to shadow 0x80240000,
    // as in Figure 1.
    tlb.insert(0x4000, 0x80240000, 1, rw);
    const auto a = tlb.lookup(0x4080, AccessType::Read,
                              AccessMode::User);
    EXPECT_TRUE(a.hit);
    EXPECT_EQ(a.paddr, 0x80240080u);
    const auto b = tlb.lookup(0x5040, AccessType::Read,
                              AccessMode::User);
    EXPECT_TRUE(b.hit);
    EXPECT_EQ(b.paddr, 0x80241040u);
}

TEST_F(TlbFixture, MixedPageSizesCoexist)
{
    tlb.insert(0x1000, 0x5000, 0, rw);
    tlb.insert(0x1000000, 0x80000000, 4, rw);   // 1 MB superpage
    EXPECT_TRUE(tlb.lookup(0x1fff, AccessType::Read,
                           AccessMode::User).hit);
    EXPECT_TRUE(tlb.lookup(0x10fffff, AccessType::Read,
                           AccessMode::User).hit);
}

TEST_F(TlbFixture, WriteToReadOnlyFaults)
{
    tlb.insert(0x1000, 0x5000, 0, ro);
    const auto r = tlb.lookup(0x1000, AccessType::Write,
                              AccessMode::User);
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(r.protFault);
}

TEST_F(TlbFixture, UserAccessToKernelPageFaults)
{
    tlb.insert(0x1000, 0x5000, 0, kernel_only);
    const auto user = tlb.lookup(0x1000, AccessType::Read,
                                 AccessMode::User);
    EXPECT_TRUE(user.protFault);
    const auto kern = tlb.lookup(0x1000, AccessType::Read,
                                 AccessMode::Kernel);
    EXPECT_FALSE(kern.protFault);
}

TEST_F(TlbFixture, NruEvictsUnreferencedFirst)
{
    tlb.insert(0x1000, 0x1000, 0, rw);
    tlb.insert(0x2000, 0x2000, 0, rw);
    tlb.insert(0x3000, 0x3000, 0, rw);
    tlb.insert(0x4000, 0x4000, 0, rw);
    EXPECT_EQ(tlb.occupancy(), 4u);

    // All four are referenced (inserted referenced). One more insert
    // forces an NRU epoch reset and evicts something; afterwards a
    // freshly-referenced entry should survive the *next* eviction.
    tlb.insert(0x5000, 0x5000, 0, rw);
    EXPECT_EQ(tlb.occupancy(), 4u);

    // Touch 0x5000 so it is referenced.
    tlb.lookup(0x5000, AccessType::Read, AccessMode::User);
    tlb.insert(0x6000, 0x6000, 0, rw);
    EXPECT_TRUE(tlb.lookup(0x5000, AccessType::Read,
                           AccessMode::User).hit);
}

TEST_F(TlbFixture, PinnedEntryNeverEvicted)
{
    tlb.insert(0x1000, 0x1000, 0, rw, true);    // pinned
    for (Addr v = 0x10000; v < 0x20000; v += 0x1000)
        tlb.insert(v, v, 0, rw);
    EXPECT_TRUE(tlb.lookup(0x1000, AccessType::Read,
                           AccessMode::User).hit);
}

TEST_F(TlbFixture, AllPinnedPanicsOnInsert)
{
    stats::StatGroup g("t2");
    Tlb tiny(1, "tiny", g);
    tiny.insert(0x1000, 0x1000, 0, rw, true);
    EXPECT_THROW(tiny.insert(0x2000, 0x2000, 0, rw), PanicError);
}

TEST_F(TlbFixture, InsertReplacesOverlappingMapping)
{
    // §2.3: inserting a superpage discards overlapping base-page
    // entries for the same virtual range.
    tlb.insert(0x4000, 0x9000, 0, rw);
    tlb.insert(0x5000, 0xa000, 0, rw);
    tlb.insert(0x4000, 0x80240000, 1, rw);  // covers both
    EXPECT_EQ(tlb.occupancy(), 1u);
    const auto r = tlb.lookup(0x5000, AccessType::Read,
                              AccessMode::User);
    EXPECT_EQ(r.paddr, 0x80241000u);
}

TEST_F(TlbFixture, InsertUnderLargerMappingReplacesIt)
{
    tlb.insert(0x4000, 0x80240000, 1, rw);
    tlb.insert(0x5000, 0x9000, 0, rw);
    EXPECT_EQ(tlb.occupancy(), 1u);
    EXPECT_FALSE(tlb.lookup(0x4000, AccessType::Read,
                            AccessMode::User).hit);
}

TEST_F(TlbFixture, PurgeRangeDropsExactly)
{
    tlb.insert(0x1000, 0x1000, 0, rw);
    tlb.insert(0x2000, 0x2000, 0, rw);
    tlb.insert(0x3000, 0x3000, 0, rw);
    tlb.purgeRange(0x2000, 0x1000);
    EXPECT_TRUE(tlb.lookup(0x1000, AccessType::Read,
                           AccessMode::User).hit);
    EXPECT_FALSE(tlb.lookup(0x2000, AccessType::Read,
                            AccessMode::User).hit);
    EXPECT_TRUE(tlb.lookup(0x3000, AccessType::Read,
                           AccessMode::User).hit);
}

TEST_F(TlbFixture, PurgeRangeCatchesOverlappingSuperpage)
{
    tlb.insert(0x4000, 0x80240000, 1, rw);
    // Purging any page inside the superpage drops the whole entry.
    tlb.purgeRange(0x6000, 0x1000);
    EXPECT_FALSE(tlb.lookup(0x4000, AccessType::Read,
                            AccessMode::User).hit);
}

TEST_F(TlbFixture, PurgeAllKeepsPinned)
{
    tlb.insert(0x1000, 0x1000, 0, rw, true);
    tlb.insert(0x2000, 0x2000, 0, rw);
    tlb.purgeAll();
    EXPECT_EQ(tlb.occupancy(), 1u);
    EXPECT_TRUE(tlb.lookup(0x1000, AccessType::Read,
                           AccessMode::User).hit);
}

TEST_F(TlbFixture, ProbeDoesNotCountStats)
{
    tlb.insert(0x1000, 0x1000, 0, rw);
    const auto before = tlb.hits();
    EXPECT_TRUE(tlb.probe(0x1000).has_value());
    EXPECT_FALSE(tlb.probe(0x9000).has_value());
    EXPECT_EQ(tlb.hits(), before);
}

TEST_F(TlbFixture, RejectsMisalignedInsert)
{
    EXPECT_THROW(tlb.insert(0x5000, 0x80240000, 1, rw), FatalError);
    EXPECT_THROW(tlb.insert(0x4000, 0x80241000, 1, rw), FatalError);
}

TEST_F(TlbFixture, RejectsIllegalSizeClass)
{
    EXPECT_THROW(tlb.insert(0, 0, numPageSizeClasses, rw), FatalError);
}

TEST(TlbCapacity, OccupancyTracksInsertions)
{
    stats::StatGroup g("t");
    Tlb tlb(96, "tlb", g);
    for (Addr v = 0; v < 10; ++v)
        tlb.insert(v << 12, v << 12, 0, rw);
    EXPECT_EQ(tlb.occupancy(), 10u);
    EXPECT_EQ(tlb.capacity(), 96u);
}

TEST(TlbCapacity, RejectsOversizedIndex)
{
    stats::StatGroup g("t");
    EXPECT_THROW(Tlb(Tlb::maxEntries + 1, "tlb", g), FatalError);
    EXPECT_THROW(Tlb(~0u, "tlb", g), FatalError);
}

TEST(MicroItlbTest, HitsAfterFill)
{
    stats::StatGroup g("t");
    MicroItlb uitlb(g);
    EXPECT_FALSE(uitlb.hit(0x1000));

    TlbEntry e;
    e.vbase = 0x1000;
    e.pbase = 0x5000;
    e.sizeClass = 0;
    e.valid = true;
    uitlb.fill(e);
    EXPECT_TRUE(uitlb.hit(0x1000));
    EXPECT_TRUE(uitlb.hit(0x1ffc));
    EXPECT_FALSE(uitlb.hit(0x2000));
}

TEST(MicroItlbTest, InvalidateForgets)
{
    stats::StatGroup g("t");
    MicroItlb uitlb(g);
    TlbEntry e;
    e.vbase = 0x1000;
    e.pbase = 0x5000;
    e.valid = true;
    uitlb.fill(e);
    uitlb.invalidate();
    EXPECT_FALSE(uitlb.hit(0x1000));
}

namespace
{

/**
 * Reference TLB: the linear-scan algorithm the indexed Tlb replaced,
 * kept here as the specification its replacement state (slots, free
 * list, NRU clock, epoch) must reproduce exactly.
 */
class RefTlb
{
  public:
    explicit RefTlb(unsigned n) : entries(n)
    {
        for (unsigned i = 0; i < n; ++i)
            freeList.push_back(n - 1 - i);
    }

    int
    find(Addr vaddr) const
    {
        for (unsigned i = 0; i < entries.size(); ++i) {
            if (entries[i].covers(vaddr))
                return static_cast<int>(i);
        }
        return -1;
    }

    TlbLookupResult
    lookup(Addr vaddr, AccessType type, AccessMode mode)
    {
        const int idx = find(vaddr);
        if (idx < 0) {
            ++misses;
            return {};
        }
        TlbEntry &e = entries[idx];
        e.referenced = true;
        if ((type == AccessType::Write && !e.prot.writable) ||
            (mode == AccessMode::User && !e.prot.userAccessible))
            return {true, true, 0};
        ++hits;
        return {true, false, e.translate(vaddr), idx};
    }

    void
    insert(Addr vbase, Addr pbase, unsigned size_class,
           PageProtection prot, bool pinned)
    {
        purgeRange(vbase, pageSizeForClass(size_class));
        const int covering = find(vbase);
        if (covering >= 0)
            drop(static_cast<unsigned>(covering));
        unsigned idx;
        if (!freeList.empty()) {
            idx = freeList.back();
            freeList.pop_back();
        } else {
            idx = pickVictim();
            ++evictions;
            drop(idx);
            freeList.pop_back();
        }
        entries[idx] = {vbase, pbase, size_class, prot, true, pinned,
                        true};
        ++epoch;
    }

    void
    purgeRange(Addr vbase, Addr bytes)
    {
        const Addr vend = vbase + bytes;
        for (unsigned i = 0; i < entries.size(); ++i) {
            const TlbEntry &e = entries[i];
            if (e.valid && e.vbase < vend && vbase < e.vbase + e.size())
                drop(i);
        }
    }

    void
    purgeAll()
    {
        for (unsigned i = 0; i < entries.size(); ++i) {
            if (entries[i].valid && !entries[i].pinned)
                drop(i);
        }
    }

    unsigned
    occupancy() const
    {
        return static_cast<unsigned>(entries.size() - freeList.size());
    }

    std::vector<TlbEntry> entries;
    std::vector<unsigned> freeList;
    unsigned nruClock = 0;
    std::uint64_t epoch = 1;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

  private:
    unsigned
    pickVictim()
    {
        const auto n = static_cast<unsigned>(entries.size());
        for (int pass = 0; pass < 2; ++pass) {
            for (unsigned i = 0; i < n; ++i) {
                const unsigned idx = (nruClock + i) % n;
                const TlbEntry &e = entries[idx];
                if (e.valid && !e.pinned && !e.referenced) {
                    nruClock = (idx + 1) % n;
                    return idx;
                }
            }
            for (auto &e : entries) {
                if (e.valid && !e.pinned)
                    e.referenced = false;
            }
        }
        ADD_FAILURE() << "reference victim search failed";
        return 0;
    }

    void
    drop(unsigned idx)
    {
        entries[idx].valid = false;
        entries[idx].pinned = false;
        freeList.push_back(idx);
        ++epoch;
    }
};

/** Every observable the replacement order depends on must agree. */
void
expectSameState(const Tlb &tlb, const RefTlb &ref, unsigned step)
{
    ASSERT_EQ(tlb.nruClock(), ref.nruClock) << "step " << step;
    ASSERT_EQ(tlb.occupancy(), ref.occupancy()) << "step " << step;
    ASSERT_EQ(tlb.translationEpoch(), ref.epoch) << "step " << step;
    ASSERT_EQ(tlb.hits(), ref.hits) << "step " << step;
    ASSERT_EQ(tlb.misses(), ref.misses) << "step " << step;
    ASSERT_EQ(tlb.evictions(), ref.evictions) << "step " << step;
    std::vector<TlbEntry> want;
    for (const TlbEntry &e : ref.entries) {
        if (e.valid)
            want.push_back(e);
    }
    const std::vector<TlbEntry> got = tlb.auditState();
    ASSERT_EQ(got.size(), want.size()) << "step " << step;
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].vbase, want[i].vbase) << "step " << step;
        ASSERT_EQ(got[i].pbase, want[i].pbase) << "step " << step;
        ASSERT_EQ(got[i].sizeClass, want[i].sizeClass) << "step " << step;
        ASSERT_EQ(got[i].prot, want[i].prot) << "step " << step;
        ASSERT_EQ(got[i].pinned, want[i].pinned) << "step " << step;
        ASSERT_EQ(got[i].referenced, want[i].referenced)
            << "step " << step;
    }
}

/** A page-aligned address: half in a hot 512 KB window, whose pages
 *  stay resident and get referenced, most of the rest in 16 MB, more
 *  pages than the largest TLB holds, so NRU replacement runs. */
Addr
randomPage(Random &rng)
{
    const Addr window = rng.chance(1, 2)   ? Addr{512} << 10
                        : rng.chance(3, 4) ? Addr{16} << 20
                                           : Addr{256} << 20;
    return rng.below(window) & ~Addr{pageSizeForClass(0) - 1};
}

/** A page-aligned address anywhere in 256 MB, for the mappings and
 *  purges that span megabytes: in the hot windows they would empty
 *  the TLB too often for it to fill. */
Addr
randomWidePage(Random &rng)
{
    return rng.below(Addr{256} << 20) & ~Addr{pageSizeForClass(0) - 1};
}

/** A size class: mostly base pages, superpages up to 256 KB
 *  sometimes, the ones that span megabytes rarely. */
unsigned
randomClass(Random &rng)
{
    if (rng.chance(7, 8))
        return 0;
    return static_cast<unsigned>(rng.chance(9, 10) ? rng.inRange(1, 3)
                                                   : rng.inRange(4, 7));
}

/** Run @p ops seeded random operations against Tlb and RefTlb. */
void
runDifferential(unsigned capacity, std::uint64_t seed, unsigned ops)
{
    stats::StatGroup g("t");
    Tlb tlb(capacity, "tlb", g);
    RefTlb ref(capacity);
    Random rng(seed);
    const PageProtection prots[] = {rw, ro, kernel_only};
    for (unsigned step = 0; step < ops; ++step) {
        const std::uint64_t op = rng.below(10000);
        if (op < 4000) {
            // Lookups: the slot that hit must match too.
            const Addr va = randomPage(rng) + rng.below(4096);
            const auto type =
                rng.chance(1, 3) ? AccessType::Write : AccessType::Read;
            const auto mode =
                rng.chance(1, 8) ? AccessMode::Kernel : AccessMode::User;
            const TlbLookupResult a = tlb.lookup(va, type, mode);
            const TlbLookupResult b = ref.lookup(va, type, mode);
            ASSERT_EQ(a.hit, b.hit) << "step " << step;
            ASSERT_EQ(a.protFault, b.protFault) << "step " << step;
            ASSERT_EQ(a.paddr, b.paddr) << "step " << step;
            ASSERT_EQ(a.slot, b.slot) << "step " << step;
        } else if (op < 8500) {
            // Inserts of every class; superpages often land on
            // existing base pages and smaller superpages.
            const unsigned c = randomClass(rng);
            const Addr size = pageSizeForClass(c);
            const Addr vbase =
                (c < 4 ? randomPage(rng) : randomWidePage(rng)) & ~(size - 1);
            const Addr pbase =
                (rng.below(Addr{1} << 32) & ~(size - 1)) | (Addr{1} << 40);
            const PageProtection prot = prots[rng.below(3)];
            // At most one pinned entry, and never the only slot, so
            // an unpinned victim always exists.
            bool has_pinned = false;
            for (const TlbEntry &e : ref.entries)
                has_pinned = has_pinned || (e.valid && e.pinned);
            const bool pinned =
                capacity > 1 && !has_pinned && rng.chance(1, 50);
            tlb.insert(vbase, pbase, c, prot, pinned);
            ref.insert(vbase, pbase, c, prot, pinned);
        } else if (op < 9998) {
            // Purges: base page, a few pages, unaligned, superpage,
            // empty, and (rarely) multi-MB ranges, which take the
            // scan path at every capacity.
            Addr vbase = randomPage(rng);
            Addr bytes;
            switch (rng.below(20)) {
              case 0: bytes = 0; break;
              case 1:
                vbase = randomWidePage(rng);
                bytes = rng.chance(1, 2)
                            ? (Addr{4} << 20) + rng.below(Addr{4} << 20)
                            : pageSizeForClass(
                                  static_cast<unsigned>(rng.inRange(4, 7)));
                break;
              case 2: case 3: case 4: case 5:
                bytes = 1 + rng.below(Addr{64} << 10);
                break;
              case 6: case 7: case 8:
                bytes = pageSizeForClass(
                    static_cast<unsigned>(rng.inRange(0, 3)));
                break;
              case 9: case 10: case 11: case 12: case 13:
                bytes = pageSizeForClass(0) * (2 + rng.below(15));
                break;
              default: bytes = pageSizeForClass(0);
            }
            tlb.purgeRange(vbase, bytes);
            ref.purgeRange(vbase, bytes);
        } else {
            tlb.purgeAll();
            ref.purgeAll();
        }
        expectSameState(tlb, ref, step);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    // The sequence must have reached NRU replacement.
    EXPECT_GT(ref.evictions, 0u);
}

} // namespace

TEST(TlbDifferential, MatchesLinearScanReference)
{
    for (const unsigned capacity : {1u, 2u, 64u, 256u}) {
        SCOPED_TRACE(::testing::Message() << "capacity " << capacity);
        runDifferential(capacity, 0x7ab1e5eedULL + capacity, 20000);
        if (HasFatalFailure())
            return;
    }
}
