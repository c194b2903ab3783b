/**
 * @file
 * The benchmark's workloads and the instrumented job runner.
 *
 * A workload is a serial list of hermetic sweep jobs. Running a job
 * does what SweepRunner::runOne does — fresh System, workload setup
 * and run (or capture + runPrograms for a multiprogrammed mix), stats
 * collection, teardown — with a host timer around each call into a
 * module, and a digest of the job's full simulated-stats tree.
 */

#ifndef MTLBSIM_PERFBENCH_JOBS_HH
#define MTLBSIM_PERFBENCH_JOBS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "layer_trace.hh"
#include "sweep/sweep.hh"

namespace perfbench
{

/** A named benchmark workload: the jobs it runs, in order. */
struct BenchWorkload
{
    std::string name;
    std::vector<mtlbsim::sweep::SweepJob> jobs;
};

/**
 * Build workload @p name's job list: "fig3_nomtlb", "fig3_mtlb" or
 * "multicore_mix". @p seed 0 keeps the paper's seeds; any other
 * value derives the jobs' seeds through SweepRunner::deriveSeed.
 * Each "key=value" in @p overrides is applied to every job's machine
 * through ConfigParser. Throws (FatalError) on an unknown name or a
 * bad override.
 */
BenchWorkload makeBenchWorkload(const std::string &name,
                                std::uint64_t seed,
                                const std::vector<std::string> &overrides);

/** Host seconds per phase of one job. */
struct PhaseTimes
{
    double construct = 0;   ///< System constructor
    /** The workloads module's set-up: makeWorkload + Workload::setup,
     *  or captureProgram for each program of a mix. */
    double setup = 0;
    double run = 0;         ///< Workload::run or runPrograms
    double collect = 0;     ///< collectMetrics + rootStats().toJson()
    double teardown = 0;    ///< workload and System destructors

    /** Everything before the measured phase. */
    double beforeRun() const { return construct + setup; }
};

/** Additive simulated counters of one job, summed over cores,
 *  keyed "<module>.<counter>". */
using Counts = std::map<std::string, double>;

/** What the traced run adds to a job. */
struct TracedExtras
{
    /** Capture of the job's programs. */
    double capture = 0;
    /** Plain single-core replays of the captured images. */
    double replay = 0;
    /**
     * The job's workload phase — makeWorkload, Workload::setup and
     * Workload::run for a fig3 job, runPrograms for the mix — rerun
     * back to back on fresh machines, without and with the op
     * sampler.
     */
    double phase = 0;
    double sampled = 0;
    OpSplit split;          ///< the sampler's fit
    /** Every replay's and rerun's digest equals the direct run's. */
    bool digestsMatch = true;
};

/** Outcome of one job run. */
struct JobOutcome
{
    bool ok = false;
    std::string error;
    std::uint64_t digest = 0;
    /** Host wall and CPU seconds of the whole job. */
    double wall = 0;
    double cpu = 0;
    PhaseTimes t;
    Counts counts;
    TracedExtras traced;    ///< filled by traceJob()
};

/**
 * Run @p job in this thread, recording a span per phase when @p log
 * is set. Never throws: failures land in JobOutcome::error.
 */
JobOutcome runJob(const mtlbsim::sweep::SweepJob &job, SpanLog *log);

/**
 * The traced run's extra passes over a job @p out came from: capture
 * its programs, replay each distinct one alone on one core, then run
 * the job's workload phase without and with the op sampler. Each
 * digest must equal the direct run's. Never throws.
 */
void traceJob(const mtlbsim::sweep::SweepJob &job, SpanLog &log,
              JobOutcome &out);

} // namespace perfbench

#endif // MTLBSIM_PERFBENCH_JOBS_HH
