#include "cpu/cpu.hh"

namespace mtlbsim
{

Cpu::Cpu(const CpuConfig &config, Tlb &tlb, MicroItlb &uitlb,
         Cache &cache, MemorySystem &memsys, Kernel &kernel,
         stats::StatGroup &parent, unsigned core_id)
    : config_(config), tlb_(tlb), uitlb_(uitlb), cache_(cache),
      memsys_(memsys), kernel_(kernel),
      l0_(config.l0Entries),
      batchWindow_(config.batchEnable ? config.batchWindow : 0),
      cacheHitCycles_(cache.config().hitCycles),
      coreId_(core_id),
      statGroup_("cpu"),
      instructions_(statGroup_.addScalar("instructions",
                                         "instructions retired")),
      loads_(statGroup_.addScalar("loads", "data loads issued")),
      stores_(statGroup_.addScalar("stores", "data stores issued")),
      ifetchChecks_(statGroup_.addScalar("ifetch_checks",
                                         "instruction-fetch translation "
                                         "checks")),
      stallCycles_(statGroup_.addScalar("stall_cycles",
                                        "cycles stalled on memory")),
      hiddenCycles_(statGroup_.addScalar("hidden_cycles",
                                         "miss cycles hidden by "
                                         "stall-on-use overlap"))
{
    parent.addChild(&statGroup_);
}

Cpu::Translation
Cpu::translate(Addr vaddr, AccessType type)
{
    // L0 fast path: a live entry is a translation the full lookup
    // below produced since the last mutation of translation state,
    // so returning it is exact memoization. The permission tests
    // mirror Tlb::lookup's; a would-be protection fault falls
    // through so the slow path counts and reports it identically.
    if (l0_.enabled()) {
        const std::uint64_t epoch = tlb_.translationEpoch();
        if (const L0Entry *e = l0_.lookup(vaddr, epoch)) {
            if ((type != AccessType::Write || e->prot.writable) &&
                e->prot.userAccessible) {
                tlb_.noteL0Hit();
                return {e->pframeBase | pageOffset(vaddr),
                        e->prot.writable, e->tlbSlot};
            }
        }
    }

    TlbLookupResult result = tlb_.lookup(vaddr, type, AccessMode::User);
    if (!result.hit) {
        // Trap to the software miss handler (§3.2). Its cycles are
        // the Figure 3 "TLB miss time".
        now_ += kernel_.handleTlbMiss(vaddr, type, now_);
        result = tlb_.lookup(vaddr, type, AccessMode::User);
        panicIf(!result.hit, "TLB miss immediately after handler");
    }
    fatalIf(result.protFault,
            "protection fault at 0x", std::hex, vaddr);
    // A permitted hit always names its slot.
    const auto slot = static_cast<unsigned>(result.slot);
    const TlbEntry &entry = tlb_.entryAt(slot);
    if (l0_.enabled())
        l0_.fill(vaddr, entry, slot, tlb_.translationEpoch());
    return {result.paddr, entry.prot.writable, slot};
}

void
Cpu::executeAtSlow(Counter n, Addr code_vaddr)
{
    noteCoreActive();
    maybeRunCheck();
    ++ifetchChecks_;
    if (!uitlb_.hit(code_vaddr)) {
        // The unified TLB provides the translation; it may trap.
        // Cache the entry that supplied it in the micro-ITLB for
        // subsequent sequential fetches.
        const Translation tr = translate(code_vaddr, AccessType::IFetch);
        uitlb_.fill(tlb_.entryAt(tr.slot));
    }
    // Retire directly rather than through execute(): the public
    // executeAt() entry already fed the recorder for this op.
    instructions_ += static_cast<double>(n);
    now_ += n;
}

void
Cpu::dataAccess(Addr vaddr, AccessType type)
{
    // Deferred counts may stay pending across this access: bulk adds
    // and the direct increments below are exact integer sums, so
    // their interleaving is irrelevant to every final value, and no
    // stats reader runs without flushing first (flush points:
    // flushBatch() callers).
    noteCoreActive();
    maybeRunCheck();
    const bool is_store = type == AccessType::Write;
    if (is_store)
        ++stores_;
    else
        ++loads_;

    const Translation tr = translate(vaddr, type);
    const Addr paddr = tr.paddr;

    CacheAccessResult r = cache_.access(vaddr, paddr, is_store, now_);

    if (memsys_.faulted()) {
        // The MMC raised a precise fault: the base page backing this
        // shadow address is swapped out (§4). The bogus line must
        // not remain cached; the kernel reloads the page and the
        // access retries.
        cache_.invalidateLine(vaddr, paddr);
        now_ += r.latency;
        now_ += kernel_.handleShadowPageFault(vaddr, now_);
        r = cache_.access(vaddr, paddr, is_store, now_);
        panicIf(memsys_.faulted(), "shadow fault persists after reload");
    }

    // Every exit below leaves (vaddr, paddr)'s line resident, so the
    // page is fast-path hot: arm the batch engine on it.
    if (batchWindow_ != 0)
        establishBatch(vaddr, paddr, tr.writable);

    if (r.hit) {
        now_ += r.latency;
        return;
    }

    // Miss timing: apply the stall-on-use / store-buffer overlap
    // approximations.
    if (is_store && config_.storeBuffer) {
        // The store retires into the buffer; the CPU only waits if
        // the buffer is still draining a previous miss.
        if (now_ < storeBufferBusyUntil_) {
            const Cycles wait = storeBufferBusyUntil_ - now_;
            stallCycles_ += static_cast<double>(wait);
            now_ += wait;
        }
        hiddenCycles_ += static_cast<double>(r.latency - 1);
        storeBufferBusyUntil_ = now_ + r.latency;
        now_ += 1;
        return;
    }

    Cycles charged = r.latency;
    if (config_.loadUseOverlap > 0) {
        const Cycles hidden =
            charged - 1 < config_.loadUseOverlap ? charged - 1
                                                 : config_.loadUseOverlap;
        hiddenCycles_ += static_cast<double>(hidden);
        charged -= hidden;
    }
    stallCycles_ += static_cast<double>(charged > 1 ? charged - 1 : 0);
    now_ += charged;
}

} // namespace mtlbsim
