/**
 * @file
 * Single-issue CPU timing model.
 *
 * Models the paper's simulated processor (§3.2): a single-issue
 * 240 MHz CPU with a perfect instruction cache, a unified I/D TLB,
 * a single-entry micro-ITLB, a non-blocking data cache, and
 * stall-on-use semantics.
 *
 * Workloads drive the CPU execution-style: execute(n) retires n
 * non-memory instructions (one per cycle), load()/store() perform
 * data references. Stall-on-use is approximated: a load's miss
 * latency can be overlapped with up to its use-distance's worth of
 * subsequent instructions; stores retire through a store buffer and
 * stall only when a second miss arrives while the buffer is busy.
 * With useDistance 0 and the store buffer disabled the model
 * degenerates to fully blocking.
 *
 * TLB misses trap to the kernel's software handler (§3.2), whose
 * cycles are tracked separately so the runtime/miss-time split of
 * Figure 3 can be reported.
 */

#ifndef MTLBSIM_CPU_CPU_HH
#define MTLBSIM_CPU_CPU_HH

#include <functional>

#include "cache/cache.hh"
#include "cpu/l0_cache.hh"
#include "mmc/memsys.hh"
#include "os/kernel.hh"
#include "stats/stats.hh"
#include "tlb/tlb.hh"

namespace mtlbsim
{

/** CPU timing-model configuration. */
struct CpuConfig
{
    /** Instructions between a load and the first use of its value;
     *  miss latency up to this many cycles is hidden (stall-on-use
     *  approximation). 0 = blocking loads. */
    Cycles loadUseOverlap = 0;
    /** Allow one outstanding store miss to drain in the background
     *  (non-blocking write-allocate with a 1-deep store buffer). */
    bool storeBuffer = true;
    /** L0 translation fast-path entries (power of two; 0 disables).
     *  A host-speed knob only: simulated behaviour and statistics
     *  are bit-identical for every value (see l0_cache.hh). */
    unsigned l0Entries = 512;
    /** Batched same-page access engine: replay runs of consecutive
     *  accesses that hit the same (vpage, resident-cache-line)
     *  fast-path state without re-entering the TLB/cache/bus models
     *  per access (docs/manual.md §9). Like the L0, a host-speed
     *  knob only: simulated behaviour and statistics are
     *  byte-identical with it on or off. */
    bool batchEnable = true;
    /** Accesses accumulated per bulk statistics replay; bounds how
     *  far the deferred counters may lag their per-access values
     *  between flush points. 0 disables batching outright. */
    unsigned batchWindow = 4096;
};

/**
 * One operation a workload asked of the CPU, as captured by the
 * recorder hook (setRecorder). The multiprogramming runner records a
 * program once on a scratch machine and replays the operation stream
 * under a scheduler (src/workloads/multiprog.*).
 */
struct CpuOpRecord
{
    enum class Kind
    {
        Load,
        Store,
        Execute,
        ExecuteAt,
        Remap,
        Sbrk,
        SetSbrkPrealloc,
        Recolor,
    };

    Kind kind = Kind::Execute;
    Addr a = 0;             ///< address operand (when the op has one)
    std::uint64_t n = 0;    ///< count/bytes/color operand
};

/**
 * The CPU.
 */
class Cpu
{
  public:
    /**
     * @param core_id this core's index in the shared kernel's core
     *        table; the CPU names itself (Kernel::setActiveCore)
     *        before every kernel entry
     */
    Cpu(const CpuConfig &config, Tlb &tlb, MicroItlb &uitlb,
        Cache &cache, MemorySystem &memsys, Kernel &kernel,
        stats::StatGroup &parent, unsigned core_id = 0);

    /** Retire @p n non-memory instructions (1 cycle each). */
    void
    execute(Counter n)
    {
        if (recorder_)
            recorder_({CpuOpRecord::Kind::Execute, 0, n});
        instructions_ += static_cast<double>(n);
        now_ += n;
    }

    /**
     * Retire @p n instructions fetched from the code page at
     * @p code_vaddr, modelling unified-TLB pressure from the
     * instruction stream: the fetch consults the micro-ITLB and, on
     * a micro-ITLB miss, the unified TLB (trapping on a miss there).
     *
     * The batch engine fast-paths the overwhelmingly common case —
     * micro-ITLB hit, no periodic check due — exactly as it does
     * data accesses: time advances eagerly, and the three
     * bookkeeping increments a hit performs (ifetch_checks, the
     * micro-ITLB hit count, instructions) are deferred and
     * bulk-added at the next flush point.
     */
    void
    executeAt(Counter n, Addr code_vaddr)
    {
        if (recorder_)
            recorder_({CpuOpRecord::Kind::ExecuteAt, code_vaddr, n});
        if (batchWindow_ != 0 && uitlb_.covers(code_vaddr) &&
            !(checkInterval_ != 0 && now_ >= nextCheckAt_)) {
            ++batch_.pendingIfetch;
            batch_.pendingInstructions += n;
            now_ += n;
            if (++batch_.count >= batchWindow_) {
                flushBatch();
                batch_.count = 0;
            }
            return;
        }
        executeAtSlow(n, code_vaddr);
    }

    /** Perform a data load at @p vaddr. */
    void
    load(Addr vaddr)
    {
        if (recorder_)
            recorder_({CpuOpRecord::Kind::Load, vaddr, 0});
        if (!tryBatchedAccess(vaddr, false))
            dataAccess(vaddr, AccessType::Read);
    }

    /** Perform a data store at @p vaddr. */
    void
    store(Addr vaddr)
    {
        if (recorder_)
            recorder_({CpuOpRecord::Kind::Store, vaddr, 0});
        if (!tryBatchedAccess(vaddr, true))
            dataAccess(vaddr, AccessType::Write);
    }

    /** @name Kernel service wrappers (advance the CPU clock) */
    /** @{ */
    void
    remap(Addr vbase, Addr bytes)
    {
        if (recorder_)
            recorder_({CpuOpRecord::Kind::Remap, vbase, bytes});
        flushBatch();
        noteCoreActive();
        now_ += kernel_.remap(vbase, bytes, now_);
    }

    Addr
    sbrk(Addr bytes)
    {
        if (recorder_)
            recorder_({CpuOpRecord::Kind::Sbrk, 0, bytes});
        flushBatch();
        noteCoreActive();
        SbrkResult r = kernel_.sbrk(bytes, now_);
        now_ += r.cycles;
        return r.oldBreak;
    }

    void
    recolorPage(Addr vaddr, unsigned color)
    {
        if (recorder_)
            recorder_({CpuOpRecord::Kind::Recolor, vaddr, color});
        flushBatch();
        noteCoreActive();
        now_ += kernel_.recolorPage(vaddr, color, now_);
    }

    /** Change the kernel's sbrk() preallocation chunk for this
     *  core's process. A zero-cycle libc knob, routed through the
     *  CPU so the recorder captures it. */
    void
    setSbrkPrealloc(Addr bytes)
    {
        if (recorder_)
            recorder_({CpuOpRecord::Kind::SetSbrkPrealloc, 0, bytes});
        noteCoreActive();
        kernel_.setSbrkPrealloc(bytes);
    }
    /** @} */

    /**
     * Observe every workload-issued operation (before it executes).
     * Host-side capture support for the multiprogramming runner;
     * null (the default) costs one predictable branch per op.
     */
    void
    setRecorder(std::function<void(const CpuOpRecord &)> recorder)
    {
        recorder_ = std::move(recorder);
    }

    /**
     * Advance the clock by @p n cycles without retiring work: the
     * scheduler's context-switch cost and the kernel's shootdown-IPI
     * service time both land here. Flushes the batch first so
     * deferred counts are realized under the pre-advance state.
     */
    void
    charge(Cycles n)
    {
        flushBatch();
        batch_.count = 0;
        now_ += n;
    }

    unsigned coreId() const { return coreId_; }

    /**
     * Realize the batch engine's deferred statistic counts — CPU
     * loads/stores, TLB hits, cache accesses/hits — as exact bulk
     * adds (Scalar::addCount). Must run before any external read of
     * those statistics: System::dumpStats()/audit(), the metric
     * collectors, and the fuzzer's final-stats capture all call it.
     * It only moves already-earned counts, so calling it at any
     * point is safe and changes no statistic's final value.
     */
    void
    flushBatch() const
    {
        if ((batch_.pendingLoads | batch_.pendingStores |
             batch_.pendingIfetch) == 0) {
            return;
        }
        const std::uint64_t n =
            batch_.pendingLoads + batch_.pendingStores;
        if (n != 0) {
            loads_.addCount(batch_.pendingLoads);
            stores_.addCount(batch_.pendingStores);
            tlb_.noteBatchedHits(n);
            cache_.noteBatchedHits(n);
            batch_.pendingLoads = 0;
            batch_.pendingStores = 0;
        }
        if (batch_.pendingIfetch != 0) {
            ifetchChecks_.addCount(batch_.pendingIfetch);
            uitlb_.noteBatchedHits(batch_.pendingIfetch);
            instructions_.addCount(batch_.pendingInstructions);
            batch_.pendingIfetch = 0;
            batch_.pendingInstructions = 0;
        }
    }

    /**
     * Arrange for @p hook to run once per @p interval simulated
     * cycles (the src/check periodic audit). The hook fires between
     * accesses, when all translation state is settled. Interval 0
     * disables.
     */
    void
    setPeriodicCheck(Cycles interval, std::function<void(Cycles)> hook)
    {
        checkInterval_ = interval;
        checkHook_ = std::move(hook);
        nextCheckAt_ = now_ + interval;
    }

    /** Current simulated time in CPU cycles. */
    Cycles now() const { return now_; }

    /** The L0 translation fast path (bench/ and audit support). */
    L0TranslationCache &l0() { return l0_; }
    const L0TranslationCache &l0() const { return l0_; }

    Counter
    instructions() const
    {
        flushBatch();
        return static_cast<Counter>(instructions_.value());
    }

    std::uint64_t
    dataAccesses() const
    {
        flushBatch();
        return static_cast<std::uint64_t>(loads_.value() +
                                          stores_.value());
    }

  private:
    /** A translation plus the protection bit the batch engine needs
     *  to accept stores without re-consulting the TLB, and the TLB
     *  slot that supplied it (the micro-ITLB fills from it). */
    struct Translation
    {
        Addr paddr = 0;
        bool writable = false;
        unsigned slot = 0;
    };

    /** One memoized page the batch engine may replay on: the
     *  (vpage, epoch) pair a batched access is conditioned on. */
    struct BatchAnchor
    {
        /** Virtual page this anchor covers; the all-ones sentinel
         *  never matches a real vpage, so no anchor is live
         *  initially. */
        Addr vpage = ~Addr{0};
        Addr pframeBase = 0;        ///< physical/shadow frame base
        /** Translation epoch the anchor was established under; any
         *  mutation of translation state bumps the TLB's epoch and
         *  kills every anchor (same interlock as the L0,
         *  l0_cache.hh). */
        std::uint64_t epoch = 0;
        bool writable = false;      ///< page accepts batched stores
    };

    /** Anchors kept live at once (direct-mapped by vpage, power of
     *  two). Hot sets alternate between pages far more often than
     *  they stream within one, so a single anchor would be displaced
     *  on every page change even though each page's state is still
     *  perfectly memoizable. Sized at 32 KB of host memory: twice
     *  the default L0 so anchor conflicts don't cap the batched
     *  fraction below the L0 hit rate. */
    static constexpr unsigned batchAnchorCount = 1024;

    /**
     * Memoized fast-path state of the batch engine: the anchor
     * array plus the deferred statistic counts accumulated across
     * all anchors (the five deferred counters are per-access, not
     * per-page, so one set of pending counts serves every anchor).
     * Host-side only — never part of the simulated machine state.
     * Mutable so flushBatch() can realize counts from const readers.
     */
    struct BatchState
    {
        BatchAnchor anchors[batchAnchorCount];
        unsigned count = 0;         ///< accesses since last flush
        std::uint64_t pendingLoads = 0;
        std::uint64_t pendingStores = 0;
        std::uint64_t pendingIfetch = 0;        ///< batched fetches
        std::uint64_t pendingInstructions = 0;  ///< their retires
    };

    /**
     * The batch engine's inline hot path. Accepts the access iff it
     * is provably equivalent to the full dataAccess() path on a
     * cache hit: same vpage as the live run, epoch unchanged, store
     * permission already proven, no periodic check due, and the
     * cache line resident. Everything else — page crossing, epoch
     * bump, would-be protection fault, line fill, check boundary —
     * falls back to the slow path, which re-establishes the run.
     *
     * Replay is split eager/deferred: simulated time and the line's
     * dirty bit advance immediately (kernel paths read both without
     * CPU involvement), while the five statistic increments a hit
     * performs are accumulated and bulk-added at the next flush
     * point (see DESIGN.md §7).
     */
    bool
    tryBatchedAccess(Addr vaddr, bool is_store)
    {
        const Addr vpage = vaddr >> basePageShift;
        const BatchAnchor &a =
            batch_.anchors[vpage & (batchAnchorCount - 1)];
        if (a.vpage != vpage ||
            a.epoch != tlb_.translationEpoch() ||
            (is_store && !a.writable) ||
            (checkInterval_ != 0 && now_ >= nextCheckAt_)) {
            return false;
        }
        const Addr paddr = a.pframeBase | pageOffset(vaddr);
        if (!cache_.batchHit(vaddr, paddr, is_store))
            return false;
        if (is_store)
            ++batch_.pendingStores;
        else
            ++batch_.pendingLoads;
        now_ += cacheHitCycles_;
        if (++batch_.count >= batchWindow_) {
            flushBatch();
            batch_.count = 0;
        }
        return true;
    }

    /** Arm the batch engine on the page a completed access proved
     *  hot. Caller guarantees the access succeeded (so the page is
     *  user-accessible) and batching is enabled. */
    void
    establishBatch(Addr vaddr, Addr paddr, bool writable)
    {
        const Addr vpage = vaddr >> basePageShift;
        BatchAnchor &a =
            batch_.anchors[vpage & (batchAnchorCount - 1)];
        a.vpage = vpage;
        a.pframeBase = pageBase(paddr);
        a.epoch = tlb_.translationEpoch();
        a.writable = writable;
    }

    void dataAccess(Addr vaddr, AccessType type);

    /** executeAt()'s full path: periodic check, micro-ITLB, unified
     *  TLB, per-access statistics. */
    void executeAtSlow(Counter n, Addr code_vaddr);

    /** Fire the periodic check hook when its interval has elapsed.
     *  Called on access boundaries, where state is consistent. */
    void
    maybeRunCheck()
    {
        if (checkInterval_ == 0 || now_ < nextCheckAt_)
            return;
        while (nextCheckAt_ <= now_)
            nextCheckAt_ += checkInterval_;
        flushBatch();   // the hook may read or dump statistics
        checkHook_(now_);
    }

    /** Translate @p vaddr, trapping to the kernel on a TLB miss.
     *  Returns the (possibly shadow) physical address plus the
     *  page's write permission and the TLB slot that mapped it. */
    Translation translate(Addr vaddr, AccessType type);

    /** Name this core as the machine's active requester before any
     *  kernel entry or memory traffic it may generate: the shared
     *  kernel routes TLB/micro-ITLB mutations to the active core's
     *  structures, and the memory system attributes MTLB port
     *  occupancy to the requester. */
    void
    noteCoreActive()
    {
        kernel_.setActiveCore(coreId_);
        memsys_.setRequester(coreId_);
    }

    CpuConfig config_;
    Tlb &tlb_;
    MicroItlb &uitlb_;
    Cache &cache_;
    MemorySystem &memsys_;
    Kernel &kernel_;

    L0TranslationCache l0_;

    /** Effective batch window: config batchWindow, or 0 when
     *  batchEnable is off (one compare disables the whole engine —
     *  a disabled batch never establishes, so vpage never matches). */
    unsigned batchWindow_;
    Cycles cacheHitCycles_;     ///< memoized cache.config().hitCycles
    mutable BatchState batch_;

    Cycles now_ = 0;
    Cycles storeBufferBusyUntil_ = 0;

    Cycles checkInterval_ = 0;  ///< 0 = no periodic check
    Cycles nextCheckAt_ = 0;
    std::function<void(Cycles)> checkHook_;

    unsigned coreId_;
    /** Host-side op capture hook (multiprog runner); null in normal
     *  runs, where it costs one predictable branch per op. */
    std::function<void(const CpuOpRecord &)> recorder_;

    stats::StatGroup statGroup_;
    stats::Scalar &instructions_;
    stats::Scalar &loads_;
    stats::Scalar &stores_;
    stats::Scalar &ifetchChecks_;
    stats::Scalar &stallCycles_;
    stats::Scalar &hiddenCycles_;
};

} // namespace mtlbsim

#endif // MTLBSIM_CPU_CPU_HH
