/**
 * @file
 * CPU-resident translation lookaside buffer model.
 *
 * Models the paper's processor TLBs (§3.2): unified I/D, single
 * cycle, fully associative, not-recently-used (NRU) replacement.
 * Entries may map superpages — power-of-4 multiples of the 4 KB base
 * page (16 KB up to 64 MB), as in PA-RISC 2.0 and the R10000 (§1).
 *
 * A superpage entry's physical base may be a *shadow* address; the
 * TLB is agnostic — shadow addresses flow through it exactly like
 * real ones (§2.1).
 *
 * Misses are serviced by a software trap routine modelled in the CPU;
 * this class only tracks the architectural content and hit/miss
 * statistics. A single pinned "block TLB" entry maps kernel code and
 * data and is never replaced (§3.2).
 *
 * Host-side layout: entries live in a slot array, and each size
 * class has a flat open-addressed index (key vaddr >> shift -> slot,
 * linear probing, backward-shift deletion, sized from the capacity
 * at construction), so lookup, insert and drop probe at most one
 * key per class and the miss path allocates nothing. purgeRange()
 * probes the index for every key its range spans in each live class
 * when those keys, counted over all classes, do not outnumber the
 * entries; a wider range (a 4 MB remap, a 64 MB superpage insert)
 * scans the slot array instead. Both ways drop the overlapping
 * entries in ascending slot order, which is the order the free list
 * and hence NRU replacement depend on, so the simulated behaviour is
 * independent of which way a purge went.
 */

#ifndef MTLBSIM_TLB_TLB_HH
#define MTLBSIM_TLB_TLB_HH

#include <optional>
#include <vector>

#include "base/intmath.hh"
#include "base/logging.hh"
#include "base/types.hh"
#include "stats/stats.hh"

namespace mtlbsim
{

/**
 * Legal page-size classes: size = 4 KB * 4^sizeClass.
 * Class 0 is the base page; classes 1..7 are superpages (§1).
 */
constexpr unsigned numPageSizeClasses = 8;

/** Byte shift for a page-size class. */
constexpr unsigned
pageShiftForClass(unsigned size_class)
{
    return basePageShift + 2 * size_class;
}

/** Byte size for a page-size class. */
constexpr Addr
pageSizeForClass(unsigned size_class)
{
    return Addr{1} << pageShiftForClass(size_class);
}

/** Smallest size class whose page size is >= bytes (caps at max). */
unsigned sizeClassFor(Addr bytes);

/** Page protection attributes carried in each TLB entry (§2.1). */
struct PageProtection
{
    bool writable = true;
    bool userAccessible = true;

    bool operator==(const PageProtection &) const = default;
};

/** One TLB entry: maps a (super)page of virtual space. */
struct TlbEntry
{
    Addr vbase = 0;         ///< virtual base (aligned to the size)
    Addr pbase = 0;         ///< physical/shadow base (aligned too)
    unsigned sizeClass = 0; ///< page size = 4 KB * 4^sizeClass
    PageProtection prot;
    bool valid = false;
    bool pinned = false;    ///< block-TLB entry, never replaced
    bool referenced = false; ///< NRU reference bit

    Addr size() const { return pageSizeForClass(sizeClass); }

    bool
    covers(Addr vaddr) const
    {
        return valid && (vaddr >> pageShiftForClass(sizeClass)) ==
                            (vbase >> pageShiftForClass(sizeClass));
    }

    /** Translate an address this entry covers. */
    Addr
    translate(Addr vaddr) const
    {
        const Addr mask = size() - 1;
        return pbase | (vaddr & mask);
    }
};

/** Outcome of a TLB lookup. */
struct TlbLookupResult
{
    bool hit = false;
    bool protFault = false; ///< hit, but the access is not permitted
    Addr paddr = 0;         ///< valid when hit && !protFault
    /** Slot of the entry that hit (-1 on a miss); lets the CPU's L0
     *  fast path memoize the translation without a second probe. */
    int slot = -1;
};

/**
 * Fully associative, NRU-replacement TLB with superpage support.
 */
class Tlb
{
  public:
    /** Largest capacity a TLB may be built with; it bounds the flat
     *  index (numPageSizeClasses tables of 2x the capacity, rounded
     *  up to a power of two) to 16 MB. */
    static constexpr unsigned maxEntries = 1u << 16;

    /**
     * @param num_entries capacity including the pinned block entry
     *                    (1..maxEntries)
     * @param name        stats group name (e.g. "dtlb")
     */
    Tlb(unsigned num_entries, const std::string &name,
        stats::StatGroup &parent);

    /**
     * Look up @p vaddr for an access of kind @p type in mode @p mode.
     * On a hit the entry's NRU bit is set.
     */
    TlbLookupResult lookup(Addr vaddr, AccessType type, AccessMode mode);

    /**
     * Insert a mapping, evicting an NRU victim if full. The caller
     * (the miss handler model) has already charged the trap cost.
     *
     * Pre-existing entries overlapping the same virtual range are
     * discarded first, as on TLBs that auto-purge duplicates (§2.3).
     */
    void insert(Addr vbase, Addr pbase, unsigned size_class,
                PageProtection prot, bool pinned = false);

    /** Remove any entries overlapping [vbase, vbase+bytes). */
    void purgeRange(Addr vbase, Addr bytes);

    /** Remove all non-pinned entries. */
    void purgeAll();

    /** Number of valid entries. */
    unsigned occupancy() const;

    unsigned capacity() const { return numEntries_; }

    /** Probe without updating NRU state or stats (test support). */
    std::optional<TlbEntry> probe(Addr vaddr) const;

    /** The entry in @p slot (the L0 fast path fills from the slot a
     *  lookup just hit; the auditor cross-checks L0 slot bindings). */
    const TlbEntry &
    entryAt(unsigned slot) const
    {
        panicIf(slot >= numEntries_, "TLB slot ", slot,
                " out of range");
        return entries_[slot];
    }

    /**
     * @name Translation epoch (L0 fast-path invalidation)
     *
     * A monotonic counter bumped by every mutation of CPU-visible
     * translation state. insert()/dropEntry()/purgeRange()/purgeAll()
     * bump it internally; kernel paths that mutate translation state
     * below the TLB (MTLB shadow-mapping changes, frame reuse on
     * swap) call bumpTranslationEpoch() explicitly. L0 entries stamp
     * the epoch at fill time and are live only while it matches, so
     * one increment lazily invalidates every memoized translation.
     */
    /** @{ */
    std::uint64_t translationEpoch() const { return epoch_; }

    /**
     * Advance the epoch. Wrap-safe: a 64-bit counter bumped once per
     * simulated cycle at the paper's 240 MHz would take ~2400 years
     * to wrap, but if it ever does, 0 is skipped — 0 marks a
     * never-filled L0 entry, so an epoch of 0 would make stale
     * entries look permanently live (the auditor asserts both sides
     * of this, see TranslationAuditor::checkL0Coherence).
     */
    void
    bumpTranslationEpoch()
    {
        if (++epoch_ == 0)
            epoch_ = 1;
    }
    /** @} */

    /** NRU victim-scan start point (canonical-state capture by the
     *  model checker, src/model; replacement behaviour depends on
     *  it). */
    unsigned nruClock() const { return nruClock_; }

    /** Account an L0 fast-path hit. The slow path's bookkeeping on a
     *  hit is one hits_ increment plus an (idempotent, see
     *  l0_cache.hh) referenced-bit store, so this is all that is
     *  needed to keep statistics bit-identical. */
    void noteL0Hit() { ++hits_; }

    /** Account @p n deferred batched hits in one exact bulk add
     *  (Scalar::addCount). Sound by the same argument as noteL0Hit:
     *  while a batch is live the epoch is unchanged, so the owning
     *  entry's referenced bit is still set and the per-hit
     *  referenced-bit store the slow path would perform is a no-op —
     *  and that holds with the L0 disabled too, because a batch is
     *  only established from a completed access, whose lookup (L0 or
     *  full) set the bit. */
    void noteBatchedHits(std::uint64_t n) { hits_.addCount(n); }

    /** Snapshot of every valid entry, for the invariant auditor
     *  (src/check). Does not touch NRU state or statistics. */
    std::vector<TlbEntry> auditState() const;

    std::uint64_t hits() const
    {
        return static_cast<std::uint64_t>(hits_.value());
    }
    std::uint64_t misses() const
    {
        return static_cast<std::uint64_t>(misses_.value());
    }
    std::uint64_t evictions() const
    {
        return static_cast<std::uint64_t>(evictions_.value());
    }

  private:
    /** Index record marker for an empty position. */
    static constexpr unsigned noSlot = ~0u;

    /** One position of a size class's open-addressed index. */
    struct IndexSlot
    {
        Addr key = 0;           ///< vaddr >> pageShiftForClass(class)
        unsigned slot = noSlot; ///< entry slot; noSlot if empty
    };

    /** Home position of @p key in every class's table. */
    unsigned
    indexHome(Addr key) const
    {
        // Fibonacci hashing: consecutive page numbers spread evenly.
        return static_cast<unsigned>((key * 0x9e3779b97f4a7c15ULL) >>
                                     indexHashShift_);
    }

    /** Slot indexed under @p key in class @p c, or noSlot. */
    unsigned indexFind(unsigned c, Addr key) const;
    void indexInsert(unsigned c, Addr key, unsigned slot);
    void indexErase(unsigned c, Addr key);

    int findEntry(Addr vaddr) const;
    unsigned pickVictim();
    void dropEntry(unsigned idx);

    unsigned numEntries_;
    std::vector<TlbEntry> entries_;
    std::vector<unsigned> freeList_;
    /** Per-size-class flat index, numPageSizeClasses tables of
     *  indexSize_ positions each: (vaddr >> shift) -> entry slot.
     *  A table is at most half full, so every probe meets an empty
     *  position. Only classes with live entries are probed. */
    std::vector<IndexSlot> index_;
    unsigned indexSize_ = 0;      ///< positions per class (power of 2)
    unsigned indexHashShift_ = 0; ///< 64 - log2(indexSize_)
    unsigned liveInClass_[numPageSizeClasses] = {};
    /** Slots found by a probing purgeRange(), reserved to the
     *  capacity so the purge never allocates. */
    std::vector<unsigned> purgeSlots_;
    unsigned nruClock_ = 0; ///< rotating start point for victim scan
    /** Translation epoch; starts at 1 so a zero-initialized L0 entry
     *  can never appear live. */
    std::uint64_t epoch_ = 1;

    stats::StatGroup statGroup_;
    stats::Scalar &hits_;
    stats::Scalar &misses_;
    stats::Scalar &protFaults_;
    stats::Scalar &inserts_;
    stats::Scalar &evictions_;
};

/**
 * Single-entry micro-ITLB holding the most recent instruction
 * translation (§3.2). Instruction fetches that hit here do not
 * consult the unified TLB at all.
 */
class MicroItlb
{
  public:
    explicit MicroItlb(stats::StatGroup &parent);

    /** True if the fetch at @p vaddr hits the cached translation. */
    bool
    hit(Addr vaddr)
    {
        if (valid_ && entry_.covers(vaddr)) {
            ++hits_;
            return true;
        }
        ++misses_;
        return false;
    }

    /**
     * Would hit() succeed? A pure probe with no statistics — the
     * batch engine's ifetch fast path tests this per fetch and
     * defers the hit count (noteBatchedHits realizes it), so the
     * decision stays exactly per-access while the bookkeeping is
     * bulk-replayed.
     */
    bool
    covers(Addr vaddr) const
    {
        return valid_ && entry_.covers(vaddr);
    }

    /** Account @p n deferred batched fetch hits (see covers()). */
    void
    noteBatchedHits(std::uint64_t n)
    {
        hits_.addCount(n);
    }

    /** Install the translation used by the last fetch. */
    void
    fill(const TlbEntry &entry)
    {
        entry_ = entry;
        valid_ = true;
    }

    void invalidate() { valid_ = false; }

  private:
    TlbEntry entry_;
    bool valid_ = false;

    stats::StatGroup statGroup_;
    stats::Scalar &hits_;
    stats::Scalar &misses_;
};

} // namespace mtlbsim

#endif // MTLBSIM_TLB_TLB_HH
