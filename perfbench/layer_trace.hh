/**
 * @file
 * Host-time tracing for the benchmark: coarse spans around the
 * benchmark's calls into each simulator module, and a sampler that
 * splits a job's workload phase by what each simulated operation did.
 *
 * Both live in the benchmark, not in the simulator: spans wrap calls
 * into the modules' public functions, and the sampler hangs off the
 * CPU's existing op recorder hook (Cpu::setRecorder).
 */

#ifndef MTLBSIM_PERFBENCH_LAYER_TRACE_HH
#define MTLBSIM_PERFBENCH_LAYER_TRACE_HH

#include <chrono>
#include <ctime>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cpu/cpu.hh"
#include "os/kernel.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Host seconds from @p a to @p b. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Host CPU seconds (user + system) this process has used. */
inline double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** One host-time span at a layer boundary. */
struct Span
{
    std::string name;   ///< "<module>.<operation>", e.g. "sim.construct"
    std::string job;    ///< job id; every span of one job shares it
    int parent = -1;    ///< index of the enclosing span, -1 for a root
    Clock::time_point start;
    Clock::time_point end;
};

/** Spans kept in memory for the whole run and written out once, at
 *  the end, as Chrome trace-event JSON (viewable in Perfetto). */
class SpanLog
{
  public:
    /** Open a span now; returns its index for close() and as the
     *  parent of nested spans. */
    int open(std::string name, std::string job, int parent = -1);
    void close(int index);

    void write(const std::string &path) const;

  private:
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** Host time of the ops of one class. */
struct OpClass
{
    /** Fitted host seconds of all ops of this class. */
    double seconds = 0;
    std::uint64_t ops = 0;      ///< ops in the class
    /** Events inside those ops: TLB misses for the TLB-miss class,
     *  cache misses for the cache-miss class. */
    std::uint64_t events = 0;
};

/** A sampled phase's host time split by op class. */
struct OpSplit
{
    OpClass tlbMiss;    ///< the op took a CPU-TLB miss (kernel handler)
    OpClass cacheMiss;  ///< no TLB miss, but a cache fill (bus/mmc/mtlb/mem)
    OpClass fast;       ///< neither: L0/batch/TLB-hit + cache-hit path
    OpClass service;    ///< remap, sbrk, recolor
    /** Fitted cost of the sampler's own run breaks. */
    double selfSeconds = 0;
    std::uint64_t runs = 0;     ///< timed runs of consecutive ops
    /** Measured host time of the held-out runs, and what the fit
     *  predicts for them. */
    double heldOutSeconds = 0;
    double heldOutFitted = 0;

    std::uint64_t
    ops() const
    {
        return tlbMiss.ops + cacheMiss.ops + fast.ops + service.ops;
    }

    void add(const OpSplit &other);
};

/**
 * Splits a phase's host time by what each CPU op did.
 *
 * Install onOp() as the recorder of every core. It fires before each
 * op, so it sees every op boundary. Each op is classified by whether
 * Kernel::tlbMissCount() or Cache::misses() moved while it ran, or
 * as a service op (remap, sbrk, recolor). Reading the clock costs
 * more than a fast-path op takes, so single ops are not timed.
 * Instead the clock is read at random gaps (runs of 1 to
 * 2 * meanRun - 1 ops), and a least-squares fit of each run's time
 * against its per-class op counts plus a constant gives every
 * class's cost per op; the constant is the cost of a run break
 * itself (the clock read and the fit update). A service op is timed
 * in a run of its own.
 *
 * One run in heldOutEvery is drawn heldOutRun ops long and kept out
 * of the fit. The fit's prediction for those runs tests it: if the
 * constant took time that belongs to the ops, the long runs, which
 * have few breaks, come out short.
 */
class OpSampler
{
  public:
    OpSampler(const mtlbsim::Kernel &kernel, const mtlbsim::Cache &cache);

    void
    onOp(const mtlbsim::CpuOpRecord &op)
    {
        using Kind = mtlbsim::CpuOpRecord::Kind;
        if (started_)
            classifyPrevious();
        else
            start();
        const bool service = op.kind == Kind::Remap ||
                             op.kind == Kind::Sbrk ||
                             op.kind == Kind::Recolor;
        if (inRun_ != 0 && (inRun_ == runLength_ || service || prevService_))
            endRun();
        prevService_ = service;
    }

    /** Classify the last op and close its run; call when the phase
     *  returns. */
    void finish();

    /** Solve the fit. */
    OpSplit split() const;

  private:
    enum Class { Fast, CacheMiss, TlbMiss, Service, numClasses };
    /** Fit columns: the constant, then one per class. */
    static constexpr int numCols = numClasses + 1;
    /** Mean ops per fitted run. */
    static constexpr std::uint64_t meanRun = 64;
    static constexpr std::uint64_t heldOutEvery = 64;
    static constexpr std::uint64_t heldOutRun = 1024;

    void start();
    void classifyPrevious();
    void endRun();
    void drawRun();

    const mtlbsim::Kernel &kernel_;
    const mtlbsim::Cache &cache_;
    std::uint64_t rng_ = 0x9e3779b97f4a7c15ULL;

    bool started_ = false;
    bool prevService_ = false;
    std::uint64_t tlbMisses0_ = 0;
    std::uint64_t cacheMisses0_ = 0;
    std::uint64_t runLength_ = 0;   ///< ops the current run is drawn to hold
    std::uint64_t inRun_ = 0;       ///< ops classified into it so far
    bool heldOut_ = false;          ///< the current run is held out
    Clock::time_point runStart_;
    std::uint64_t runOps_[numClasses] = {};

    std::uint64_t ops_[numClasses] = {};
    std::uint64_t events_[numClasses] = {};
    std::uint64_t runs_ = 0;
    /** Normal equations of the fit: sum of x x^T and of x t. */
    double xtx_[numCols][numCols] = {};
    double xty_[numCols] = {};
    /** Held-out runs: their count, time and per-class ops. */
    std::uint64_t heldOutRuns_ = 0;
    double heldOutSeconds_ = 0;
    std::uint64_t heldOutOps_[numClasses] = {};
};

} // namespace perfbench

#endif // MTLBSIM_PERFBENCH_LAYER_TRACE_HH
