#include "tlb/tlb.hh"

#include <algorithm>

namespace mtlbsim
{

unsigned
sizeClassFor(Addr bytes)
{
    for (unsigned c = 0; c < numPageSizeClasses; ++c) {
        if (pageSizeForClass(c) >= bytes)
            return c;
    }
    return numPageSizeClasses - 1;
}

Tlb::Tlb(unsigned num_entries, const std::string &name,
         stats::StatGroup &parent)
    : numEntries_(num_entries),
      statGroup_(name),
      hits_(statGroup_.addScalar("hits", "TLB hits")),
      misses_(statGroup_.addScalar("misses", "TLB misses")),
      protFaults_(statGroup_.addScalar("prot_faults",
                                       "protection faults on TLB hits")),
      inserts_(statGroup_.addScalar("inserts", "entries inserted")),
      evictions_(statGroup_.addScalar("evictions",
                                      "entries evicted by NRU"))
{
    fatalIf(num_entries == 0, "TLB must have at least one entry");
    fatalIf(num_entries > maxEntries, "TLB capacity ", num_entries,
            " exceeds the largest supported, ", maxEntries);
    parent.addChild(&statGroup_);
    entries_.resize(num_entries);
    // Twice the capacity keeps every class's table at most half
    // full, however the entries split across classes.
    const unsigned bits = ceilLog2(2 * std::uint64_t{num_entries});
    indexSize_ = 1u << bits;
    indexHashShift_ = 64 - bits;
    index_.resize(std::size_t{numPageSizeClasses} * indexSize_);
    purgeSlots_.reserve(num_entries);
    freeList_.reserve(num_entries);
    for (unsigned i = 0; i < num_entries; ++i)
        freeList_.push_back(num_entries - 1 - i);
}

unsigned
Tlb::indexFind(unsigned c, Addr key) const
{
    const IndexSlot *table = &index_[std::size_t{c} * indexSize_];
    const unsigned mask = indexSize_ - 1;
    for (unsigned pos = indexHome(key);; pos = (pos + 1) & mask) {
        const IndexSlot &rec = table[pos];
        if (rec.slot == noSlot || rec.key == key)
            return rec.slot;
    }
}

void
Tlb::indexInsert(unsigned c, Addr key, unsigned slot)
{
    IndexSlot *table = &index_[std::size_t{c} * indexSize_];
    const unsigned mask = indexSize_ - 1;
    unsigned pos = indexHome(key);
    while (table[pos].slot != noSlot) {
        panicIf(table[pos].key == key, "TLB index key inserted twice");
        pos = (pos + 1) & mask;
    }
    table[pos] = {key, slot};
}

void
Tlb::indexErase(unsigned c, Addr key)
{
    IndexSlot *table = &index_[std::size_t{c} * indexSize_];
    const unsigned mask = indexSize_ - 1;
    unsigned hole = indexHome(key);
    for (;; hole = (hole + 1) & mask) {
        panicIf(table[hole].slot == noSlot, "TLB index lost a key");
        if (table[hole].key == key)
            break;
    }
    // Backward-shift deletion: pull later records of the probe run
    // into the hole whenever it lies on their path from home, so no
    // tombstones are needed and lookups stop at the first empty
    // position.
    for (unsigned next = (hole + 1) & mask; table[next].slot != noSlot;
         next = (next + 1) & mask) {
        const unsigned home = indexHome(table[next].key);
        if (((next - home) & mask) >= ((next - hole) & mask)) {
            table[hole] = table[next];
            hole = next;
        }
    }
    table[hole].slot = noSlot;
}

int
Tlb::findEntry(Addr vaddr) const
{
    for (unsigned c = 0; c < numPageSizeClasses; ++c) {
        if (liveInClass_[c] == 0)
            continue;
        const unsigned slot = indexFind(c, vaddr >> pageShiftForClass(c));
        if (slot != noSlot)
            return static_cast<int>(slot);
    }
    return -1;
}

TlbLookupResult
Tlb::lookup(Addr vaddr, AccessType type, AccessMode mode)
{
    const int idx = findEntry(vaddr);
    if (idx < 0) {
        ++misses_;
        return {};
    }

    TlbEntry &entry = entries_[idx];
    entry.referenced = true;

    if (type == AccessType::Write && !entry.prot.writable) {
        ++protFaults_;
        return {true, true, 0};
    }
    if (mode == AccessMode::User && !entry.prot.userAccessible) {
        ++protFaults_;
        return {true, true, 0};
    }

    ++hits_;
    return {true, false, entry.translate(vaddr), idx};
}

unsigned
Tlb::pickVictim()
{
    // NRU: scan for an unreferenced, unpinned entry starting from a
    // rotating clock hand; if every candidate is referenced, clear
    // all reference bits and take the first unpinned entry.
    for (int pass = 0; pass < 2; ++pass) {
        // Wrap-around scan without division: nruClock_ is always in
        // [0, numEntries_), so one compare-and-reset per step replaces
        // the two modulo operations of the obvious formulation.
        unsigned idx = nruClock_;
        for (unsigned i = 0; i < numEntries_; ++i) {
            const TlbEntry &e = entries_[idx];
            if (e.valid && !e.pinned && !e.referenced) {
                nruClock_ = idx + 1 == numEntries_ ? 0 : idx + 1;
                return idx;
            }
            idx = idx + 1 == numEntries_ ? 0 : idx + 1;
        }
        // All referenced: age everything (the NRU epoch reset).
        for (auto &e : entries_) {
            if (e.valid && !e.pinned)
                e.referenced = false;
        }
    }
    panic("TLB victim search failed: all entries pinned?");
}

void
Tlb::dropEntry(unsigned idx)
{
    TlbEntry &e = entries_[idx];
    panicIf(!e.valid, "dropping an invalid TLB entry");
    const unsigned c = e.sizeClass;
    indexErase(c, e.vbase >> pageShiftForClass(c));
    --liveInClass_[c];
    e.valid = false;
    e.pinned = false;
    freeList_.push_back(idx);
    // The dropped entry may be memoized in the L0 fast path.
    bumpTranslationEpoch();
}

void
Tlb::insert(Addr vbase, Addr pbase, unsigned size_class,
            PageProtection prot, bool pinned)
{
    fatalIf(size_class >= numPageSizeClasses,
            "illegal page size class ", size_class);
    const Addr size = pageSizeForClass(size_class);
    fatalIf(vbase & (size - 1),
            "virtual base not aligned to its superpage size");
    fatalIf(pbase & (size - 1),
            "physical base not aligned to its superpage size");

    // Discard overlapping pre-existing mappings (§2.3), including
    // any larger mapping that covers vbase.
    purgeRange(vbase, size);

    unsigned idx;
    if (!freeList_.empty()) {
        idx = freeList_.back();
        freeList_.pop_back();
    } else {
        idx = pickVictim();
        ++evictions_;
        dropEntry(idx);
        freeList_.pop_back();
    }

    TlbEntry &e = entries_[idx];
    e.vbase = vbase;
    e.pbase = pbase;
    e.sizeClass = size_class;
    e.prot = prot;
    e.valid = true;
    e.pinned = pinned;
    e.referenced = true;

    indexInsert(size_class, vbase >> pageShiftForClass(size_class), idx);
    ++liveInClass_[size_class];
    ++inserts_;
    // A new mapping (and a possible NRU reference-bit reset inside
    // pickVictim) invalidates every memoized L0 translation.
    bumpTranslationEpoch();
}

void
Tlb::purgeRange(Addr vbase, Addr bytes)
{
    const Addr vend = vbase + bytes;
    // An entry of class c overlaps the range iff its key lies in
    // [vbase >> shift, (vend - 1) >> shift]. Probe those keys unless,
    // counted over all classes, they outnumber the entries; an empty
    // or wrapping range keeps the scan's exact semantics.
    Addr keys = 0;
    if (vend > vbase) {
        for (unsigned c = 0; c < numPageSizeClasses; ++c) {
            const unsigned shift = pageShiftForClass(c);
            keys += ((vend - 1) >> shift) - (vbase >> shift) + 1;
        }
    }
    if (keys == 0 || keys > numEntries_) {
        for (unsigned i = 0; i < numEntries_; ++i) {
            TlbEntry &e = entries_[i];
            if (!e.valid)
                continue;
            const Addr e_end = e.vbase + e.size();
            if (e.vbase < vend && vbase < e_end)
                dropEntry(i);
        }
        return;
    }

    purgeSlots_.clear();
    for (unsigned c = 0; c < numPageSizeClasses; ++c) {
        if (liveInClass_[c] == 0)
            continue;
        const unsigned shift = pageShiftForClass(c);
        const Addr last = (vend - 1) >> shift;
        for (Addr key = vbase >> shift; key <= last; ++key) {
            const unsigned slot = indexFind(c, key);
            if (slot != noSlot)
                purgeSlots_.push_back(slot);
        }
    }
    // Drop in ascending slot order, as the scan does: the free list,
    // and through it NRU replacement, depends on this order.
    std::sort(purgeSlots_.begin(), purgeSlots_.end());
    for (const unsigned slot : purgeSlots_)
        dropEntry(slot);
}

void
Tlb::purgeAll()
{
    for (unsigned i = 0; i < numEntries_; ++i) {
        if (entries_[i].valid && !entries_[i].pinned)
            dropEntry(i);
    }
}

unsigned
Tlb::occupancy() const
{
    return numEntries_ - static_cast<unsigned>(freeList_.size());
}

std::optional<TlbEntry>
Tlb::probe(Addr vaddr) const
{
    const int idx = findEntry(vaddr);
    if (idx < 0)
        return std::nullopt;
    return entries_[idx];
}

std::vector<TlbEntry>
Tlb::auditState() const
{
    std::vector<TlbEntry> valid;
    for (const TlbEntry &e : entries_) {
        if (e.valid)
            valid.push_back(e);
    }
    return valid;
}

MicroItlb::MicroItlb(stats::StatGroup &parent)
    : statGroup_("uitlb"),
      hits_(statGroup_.addScalar("hits", "micro-ITLB hits")),
      misses_(statGroup_.addScalar("misses", "micro-ITLB misses"))
{
    parent.addChild(&statGroup_);
}

} // namespace mtlbsim
