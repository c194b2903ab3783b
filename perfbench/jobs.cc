#include "jobs.hh"

#include <memory>

#include "base/logging.hh"
#include "sim/config_parser.hh"
#include "sweep/matrix.hh"
#include "workloads/experiment.hh"
#include "workloads/multiprog.hh"
#include "workloads/workload.hh"

namespace perfbench
{

using namespace mtlbsim;
using sweep::SweepJob;

namespace
{

/** Dataset scales. A fig3 pass (15 or 16 jobs) then takes about
 *  0.2-0.4 s of host time and a mix pass about 0.25 s on a 4-core
 *  x86 host, so a run makes dozens of passes. At twice the mix scale,
 *  the mix's host times spread twice as far between runs. */
constexpr double fig3Scale = 0.1;
constexpr double mixScale = 0.025;

/** The configs/multicore.cfg machine, fixed here so the benchmark
 *  keeps its meaning if that example file changes. */
const char *const multicoreMachine[] = {
    "cores=4",           "sched.quantum=1000000",
    "sched.switch_cycles=2000", "kernel.ipi_cycles=300",
    "mtlb.port_cycles=2", "tlb.entries=96",
    "mtlb.enabled=true", "mtlb.entries=128",
    "mtlb.assoc=2",      "mem.installed_mb=256",
    "mem.shadow_mb=512", "cache.size_kb=512",
    "cache.virtually_indexed=true",
};

const std::vector<std::string> mixPrograms = {
    "compress95", "vortex", "radix", "em3d",
    "cc1",        "compress95", "vortex", "em3d",
};

SystemConfig
applyAssignments(const SystemConfig &base,
                 const std::vector<std::string> &assignments)
{
    ConfigParser parser(base);
    for (const std::string &kv : assignments) {
        const auto eq = kv.find('=');
        fatalIf(eq == std::string::npos,
                "machine override '", kv, "' is not key=value");
        parser.set(kv.substr(0, eq), kv.substr(eq + 1));
    }
    return parser.config();
}

/** RAII host timer around one call into a module: adds its
 *  duration to @p acc and, when tracing, records a span. */
class Phase
{
  public:
    Phase(double &acc, SpanLog *log, const char *name,
          const std::string &job, int parent)
        : acc_(acc), log_(log),
          span_(log ? log->open(name, job, parent) : -1)
    {}
    ~Phase()
    {
        acc_ += secondsBetween(start_, Clock::now());
        if (log_)
            log_->close(span_);
    }
    Phase(const Phase &) = delete;
    Phase &operator=(const Phase &) = delete;

  private:
    double &acc_;
    SpanLog *log_;
    int span_;
    Clock::time_point start_ = Clock::now();
};

/** The subgroup of @p group at @p path (through "groups"), or null. */
const json::Value *
subgroup(const json::Value *group,
         std::initializer_list<const char *> path)
{
    for (const char *name : path) {
        if (!group)
            return nullptr;
        const json::Value *groups = group->find("groups");
        group = groups ? groups->find(name) : nullptr;
    }
    return group;
}

/** Field @p field of stat @p name in @p group; 0 when absent. */
double
statField(const json::Value *group, const std::string &name,
          const char *field = "value")
{
    const json::Value *stats = group ? group->find("stats") : nullptr;
    const json::Value *stat = stats ? stats->find(name) : nullptr;
    const json::Value *v = stat ? stat->find(field) : nullptr;
    return v ? v->asNumber() : 0.0;
}

/** Stat @p name of the per-core group @p path, summed over core 0
 *  (the root's own group) and every "core<N>" group. */
double
perCore(const json::Value &root, std::initializer_list<const char *> path,
        const char *name)
{
    double sum = statField(subgroup(&root, path), name);
    if (const json::Value *groups = root.find("groups")) {
        for (const auto &[key, core] : groups->members()) {
            if (key.rfind("core", 0) == 0)
                sum += statField(subgroup(&core, path), name);
        }
    }
    return sum;
}

Counts
countsOf(const System &sys, const json::Value &root)
{
    Counts c;
    // Core-cycles: every core's clock, so a mix counts the work of
    // all its cores, not just the last one to finish.
    double cycles = 0;
    for (unsigned core = 0; core < sys.numCores(); ++core)
        cycles += static_cast<double>(sys.cpu(core).now());
    c["cpu.cycles"] = cycles;
    c["cpu.accesses"] = perCore(root, {"cpu"}, "loads") +
                        perCore(root, {"cpu"}, "stores");
    c["cpu.instructions"] = perCore(root, {"cpu"}, "instructions");
    c["cpu.stall_cycles"] = perCore(root, {"cpu"}, "stall_cycles");
    for (unsigned core = 0; core < sys.numCores(); ++core) {
        const L0TranslationCache &l0 = sys.cpu(core).l0();
        c["cpu.l0_hits"] += static_cast<double>(l0.hitCount());
        c["cpu.l0_lookups"] +=
            static_cast<double>(l0.hitCount() + l0.missCount());
    }
    c["tlb.hits"] = perCore(root, {"tlb"}, "hits");
    c["tlb.misses"] = perCore(root, {"tlb"}, "misses");
    c["tlb.evictions"] = perCore(root, {"tlb"}, "evictions");

    const json::Value *kernel = subgroup(&root, {"kernel"});
    c["os.tlb_miss_cycles"] = statField(kernel, "tlb_miss_cycles");
    c["os.remap_pages"] = statField(kernel, "remap_pages");
    c["os.remap_cycles"] = statField(kernel, "remap_cycles");
    c["os.vm_faults"] = statField(kernel, "vm_faults");
    double shootdowns = 0;
    for (unsigned core = 0; core < sys.numCores(); ++core) {
        shootdowns += statField(kernel,
                                "shootdowns_core" + std::to_string(core));
    }
    c["os.shootdowns"] = shootdowns;

    const json::Value *cache = subgroup(&root, {"cache"});
    c["cache.accesses"] = statField(cache, "accesses");
    c["cache.misses"] = statField(cache, "misses");
    c["cache.write_backs"] = statField(cache, "write_backs");
    c["cache.fills"] = statField(cache, "fill_latency", "count");
    c["cache.fill_cycles"] = statField(cache, "fill_latency", "sum");

    const json::Value *bus = subgroup(&root, {"bus"});
    c["bus.transactions"] = statField(bus, "transactions");
    c["bus.queue_cycles"] = statField(bus, "queue_cycles");

    c["mmc.shadow_ops"] =
        statField(subgroup(&root, {"mmc"}), "shadow_ops");

    const json::Value *mtlb = subgroup(&root, {"mmc", "mtlb"});
    c["mtlb.hits"] = statField(mtlb, "hits");
    c["mtlb.misses"] = statField(mtlb, "misses");

    const json::Value *dram = subgroup(&root, {"mmc", "dram"});
    c["mem.dram_accesses"] = statField(dram, "accesses");
    c["mem.row_hits"] = statField(dram, "row_hits");
    return c;
}

/** collectMetrics + the stats tree: SweepRunner::runOne's per-job
 *  stats work. */
json::Value
collectStats(System &sys, const std::string &workload)
{
    collectMetrics(sys, workload);
    return sys.rootStats().toJson();
}

/** The job's output digest: FNV-1a of the compact stats tree. */
std::uint64_t
digestOf(const json::Value &tree)
{
    return sweep::SweepRunner::deriveSeed(tree.dumped(0));
}

/** The machine a job runs on: its config plus the per-job frame
 *  seed, exactly as SweepRunner::runOne derives it. */
SystemConfig
jobMachine(const SweepJob &job)
{
    SystemConfig config = job.config;
    if (job.seed)
        config.kernel.frameSeed = job.seed ^ 0x9e3779b97f4a7c15ULL;
    return config;
}

/** Capture the job's programs as runMultiprogMix would: each distinct
 *  name once, repeats copied from the first capture. */
std::vector<ProgramImage>
captureJob(const SweepJob &job, const SystemConfig &config)
{
    const std::vector<std::string> names =
        job.processes.empty() ? std::vector<std::string>{job.workload}
                              : job.processes;
    std::vector<ProgramImage> programs;
    programs.reserve(names.size());
    for (const std::string &name : names) {
        const ProgramImage *earlier = nullptr;
        for (const ProgramImage &p : programs) {
            if (p.workload == name)
                earlier = &p;
        }
        programs.push_back(earlier ? *earlier
                                   : captureProgram(name, job.scale,
                                                    job.seed, config));
    }
    return programs;
}

void
traceJobImpl(const SweepJob &job, SpanLog &log, JobOutcome &out)
{
    const SystemConfig config = jobMachine(job);
    const std::uint64_t direct_digest = out.digest;
    const int root = log.open("job.traced", job.id);
    TracedExtras &x = out.traced;

    std::vector<ProgramImage> programs;
    {
        Phase p(x.capture, &log, "workloads.capture", job.id, root);
        programs = captureJob(job, config);
    }

    // Plain single-core replays of each distinct image, on the
    // machine captureProgram records on.
    SystemConfig single = config;
    single.cores = 1;
    single.check.enabled = false;
    for (std::size_t i = 0; i < programs.size(); ++i) {
        bool repeat = false;
        for (std::size_t j = 0; j < i; ++j)
            repeat |= programs[j].workload == programs[i].workload;
        if (repeat)
            continue;
        const std::vector<ProgramImage> one{programs[i]};
        System sys(single);
        {
            Phase p(x.replay, &log, "workloads.replay", job.id, root);
            runPrograms(sys, one);
        }
        // A one-program replay is the direct run, op for op.
        if (job.processes.empty() &&
            digestOf(collectStats(sys, job.workload)) != direct_digest)
            x.digestsMatch = false;
    }

    // The workload phase twice, back to back: plain, then sampled.
    auto rerun = [&](double &acc, const char *span, bool sample) {
        System sys(config);
        OpSampler sampler(sys.kernel(), sys.cache());
        for (unsigned core = 0; sample && core < sys.numCores(); ++core) {
            sys.cpu(core).setRecorder(
                [&sampler](const CpuOpRecord &op) { sampler.onOp(op); });
        }
        std::unique_ptr<Workload> workload;
        {
            Phase p(acc, &log, span, job.id, root);
            if (job.processes.empty()) {
                workload = makeWorkload(job.workload, job.scale, job.seed);
                workload->setup(sys);
                workload->run(sys);
            } else {
                runPrograms(sys, programs);
            }
            sampler.finish();
        }
        if (sample)
            x.split = sampler.split();
        if (digestOf(collectStats(sys, job.workload)) != direct_digest)
            x.digestsMatch = false;
    };
    rerun(x.phase, "trace.phase", false);
    rerun(x.sampled, "trace.sampled", true);
    log.close(root);
}

void
runJobImpl(const SweepJob &job, SpanLog *log, JobOutcome &out)
{
    const SystemConfig config = jobMachine(job);
    const Clock::time_point wall0 = Clock::now();
    const double cpu0 = processCpuSeconds();
    const int root = log ? log->open("job", job.id) : -1;
    PhaseTimes &t = out.t;

    std::unique_ptr<System> sys;
    std::unique_ptr<Workload> workload;
    std::vector<ProgramImage> programs;
    {
        Phase p(t.construct, log, "sim.construct", job.id, root);
        sys = std::make_unique<System>(config);
    }
    if (job.processes.empty()) {
        {
            Phase p(t.setup, log, "workloads.setup", job.id, root);
            workload = makeWorkload(job.workload, job.scale, job.seed);
            workload->setup(*sys);
        }
        {
            Phase p(t.run, log, "workloads.run", job.id, root);
            workload->run(*sys);
        }
    } else {
        {
            Phase p(t.setup, log, "workloads.capture", job.id, root);
            programs = captureJob(job, config);
        }
        {
            Phase p(t.run, log, "workloads.run_programs", job.id, root);
            runPrograms(*sys, programs);
        }
    }
    json::Value tree;
    {
        Phase p(t.collect, log, "stats.collect", job.id, root);
        tree = collectStats(*sys, job.workload);
    }
    out.digest = digestOf(tree);
    out.counts = countsOf(*sys, tree);
    {
        Phase p(t.teardown, log, "sim.teardown", job.id, root);
        workload.reset();
        programs = {};
        sys.reset();
    }
    if (log)
        log->close(root);
    out.cpu = processCpuSeconds() - cpu0;
    out.wall = secondsBetween(wall0, Clock::now());
    out.ok = true;
}

} // namespace

BenchWorkload
makeBenchWorkload(const std::string &name, std::uint64_t seed,
                  const std::vector<std::string> &overrides)
{
    BenchWorkload w;
    w.name = name;
    if (name == "fig3_nomtlb" || name == "fig3_mtlb") {
        const bool mtlb = name == "fig3_mtlb";
        for (auto &job : sweep::fig3Matrix(fig3Scale).jobs) {
            if (job.config.mtlbEnabled == mtlb)
                w.jobs.push_back(std::move(job));
        }
    } else if (name == "multicore_mix") {
        const SystemConfig machine = applyAssignments(
            SystemConfig{},
            {std::begin(multicoreMachine), std::end(multicoreMachine)});
        // One job. Split into four start-order rotations, a pass took
        // four times as long, and the run's fewer passes gave host
        // times that spread further between runs.
        SweepJob mix;
        mix.id = "multicore_mix";
        mix.workload = "multicore_mix";
        mix.scale = mixScale;
        mix.config = machine;
        mix.processes = mixPrograms;
        w.jobs.push_back(std::move(mix));
    } else {
        fatal("unknown workload '", name, "'");
    }
    for (SweepJob &job : w.jobs) {
        job.config = applyAssignments(job.config, overrides);
        if (seed != 0) {
            job.seed = sweep::SweepRunner::deriveSeed(
                job.id + "#" + std::to_string(seed));
        }
    }
    return w;
}

JobOutcome
runJob(const SweepJob &job, SpanLog *log)
{
    JobOutcome out;
    try {
        runJobImpl(job, log, out);
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = e.what();
    }
    return out;
}

void
traceJob(const SweepJob &job, SpanLog &log, JobOutcome &out)
{
    if (!out.ok)
        return;
    try {
        traceJobImpl(job, log, out);
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = e.what();
    }
}

} // namespace perfbench
