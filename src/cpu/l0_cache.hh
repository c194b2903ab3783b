/**
 * @file
 * L0 translation fast-path cache (host-side memoization).
 *
 * A small direct-mapped software array in front of Tlb::lookup that
 * memoizes the hot virtual->physical hit path at base-page grain:
 * vpage -> (pframe base, protection, size class, owning TLB slot).
 * A hit skips the TLB's per-size-class hash-map probe chain entirely.
 *
 * This is a *host* performance structure, not a modelled hardware
 * component: it never appears in the statistics tree, charges no
 * simulated cycles, and — by construction — never changes simulated
 * behaviour (see DESIGN.md §7, "L0 fast path"). Correctness rests on
 * the global translation epoch owned by the Tlb: every mutation of
 * CPU-visible translation state bumps the epoch, and an L0 entry is
 * live only while its stamped epoch equals the TLB's current one, so
 * stale entries are invalidated lazily without touching the array.
 *
 * The NRU referenced bit needs no per-hit store: an entry is filled
 * only from a slow-path TLB hit, which sets the owning entry's
 * referenced bit; that bit can only be cleared inside Tlb::pickVictim,
 * which runs inside Tlb::insert, which bumps the epoch — so for as
 * long as an L0 entry is live, its owning TLB entry's referenced bit
 * is already true and re-storing it would be a no-op. The
 * TranslationAuditor's "l0-coherence" invariant cross-checks exactly
 * this, plus the mapping itself, on every audit.
 */

#ifndef MTLBSIM_CPU_L0_CACHE_HH
#define MTLBSIM_CPU_L0_CACHE_HH

#include <cstdint>
#include <vector>

#include "base/intmath.hh"
#include "base/logging.hh"
#include "base/types.hh"
#include "tlb/tlb.hh"

namespace mtlbsim
{

/** One memoized base-page translation. */
struct L0Entry
{
    /** Virtual page number tag; the all-ones sentinel never matches
     *  a real vpage on a machine with <64 VA bits. */
    Addr vpage = ~Addr{0};
    /** Physical (possibly shadow) base of this base page; the full
     *  translation is pframeBase | pageOffset(vaddr). */
    Addr pframeBase = 0;
    /** Translation epoch at fill time; live iff it equals the TLB's
     *  current epoch. */
    std::uint64_t epoch = 0;
    PageProtection prot;
    unsigned sizeClass = 0; ///< owning TLB entry's size class
    unsigned tlbSlot = 0;   ///< owning TLB entry's slot (audit hook)
};

/**
 * Direct-mapped, epoch-invalidated translation memo. Constructed
 * with 0 entries it is disabled and lookup() never hits.
 */
class L0TranslationCache
{
  public:
    /** Largest capacity accepted, checked before anything is
     *  allocated: a few MB of entries per core, far past the size
     *  at which a larger memo stops adding hits. */
    static constexpr unsigned maxEntries = 1u << 16;

    explicit L0TranslationCache(unsigned num_entries)
        : mask_(num_entries - 1)
    {
        fatalIf(num_entries > maxEntries, "config key 'cpu.l0_entries': ",
                num_entries, " exceeds the largest supported, ",
                maxEntries);
        fatalIf(num_entries != 0 && !isPowerOf2(num_entries),
                "config key 'cpu.l0_entries': must be 0 or a power of "
                "two, got ", num_entries);
        entries_.resize(num_entries);
    }

    bool enabled() const { return !entries_.empty(); }
    unsigned capacity() const
    {
        return static_cast<unsigned>(entries_.size());
    }

    /** Hot path: the live entry covering @p vaddr, else nullptr.
     *  Host-side hit/miss counters are updated. */
    const L0Entry *
    lookup(Addr vaddr, std::uint64_t epoch)
    {
        const Addr vpage = vaddr >> basePageShift;
        const L0Entry &e = entries_[vpage & mask_];
        if (e.vpage == vpage && e.epoch == epoch) {
            ++hitCount_;
            return &e;
        }
        ++missCount_;
        return nullptr;
    }

    /** Memoize a slow-path TLB hit. @p entry is the TLB entry that
     *  translated @p vaddr, living in slot @p slot. */
    void
    fill(Addr vaddr, const TlbEntry &entry, unsigned slot,
         std::uint64_t epoch)
    {
        const Addr vpage = vaddr >> basePageShift;
        L0Entry &e = entries_[vpage & mask_];
        e.vpage = vpage;
        e.pframeBase = pageBase(entry.translate(vaddr));
        e.epoch = epoch;
        e.prot = entry.prot;
        e.sizeClass = entry.sizeClass;
        e.tlbSlot = slot;
    }

    /** Probe without counting (tests): the live entry for @p vaddr
     *  under @p epoch, else nullptr. */
    const L0Entry *
    probe(Addr vaddr, std::uint64_t epoch) const
    {
        if (!enabled())
            return nullptr;
        const Addr vpage = vaddr >> basePageShift;
        const L0Entry &e = entries_[vpage & mask_];
        return (e.vpage == vpage && e.epoch == epoch) ? &e : nullptr;
    }

    /** Every live entry under @p epoch, for the invariant auditor. */
    std::vector<L0Entry>
    auditState(std::uint64_t epoch) const
    {
        std::vector<L0Entry> live;
        for (const L0Entry &e : entries_) {
            if (e.epoch == epoch && e.vpage != ~Addr{0})
                live.push_back(e);
        }
        return live;
    }

    /** Largest epoch stamped on any entry, live or stale (0 when the
     *  array was never filled). Entries are stamped from the TLB's
     *  current epoch at fill time, so this must never run ahead of
     *  Tlb::translationEpoch(); the auditor asserts that
     *  (TranslationAuditor::checkL0Coherence) because a from-the-future
     *  stamp is invisible to auditState() yet would spring back to
     *  life when the epoch catches up. */
    std::uint64_t
    maxStampedEpoch() const
    {
        std::uint64_t max = 0;
        for (const L0Entry &e : entries_)
            if (e.epoch > max)
                max = e.epoch;
        return max;
    }

    /** @name Host-side performance counters (never simulated stats) */
    /** @{ */
    std::uint64_t hitCount() const { return hitCount_; }
    std::uint64_t missCount() const { return missCount_; }
    double
    hitRate() const
    {
        const std::uint64_t total = hitCount_ + missCount_;
        return total ? static_cast<double>(hitCount_) /
                           static_cast<double>(total)
                     : 0.0;
    }
    /** @} */

    /** Fault-injection hook: corrupt the live entry covering
     *  @p vaddr so the auditor's l0-coherence check can be tested.
     *  Compiled only under MTLBSIM_CHECK_TESTING. */
    void
    testingCorruptEntry(Addr vaddr, std::uint64_t epoch)
    {
#ifdef MTLBSIM_CHECK_TESTING
        const Addr vpage = vaddr >> basePageShift;
        L0Entry &e = entries_[vpage & mask_];
        panicIf(e.vpage != vpage || e.epoch != epoch,
                "no live L0 entry to corrupt at 0x", std::hex, vaddr);
        e.pframeBase ^= basePageSize; // point at the wrong frame
#else
        (void)vaddr;
        (void)epoch;
        panic("fault injection requires MTLBSIM_CHECK_TESTING");
#endif
    }

  private:
    std::vector<L0Entry> entries_;
    Addr mask_;
    std::uint64_t hitCount_ = 0;
    std::uint64_t missCount_ = 0;
};

} // namespace mtlbsim

#endif // MTLBSIM_CPU_L0_CACHE_HH
