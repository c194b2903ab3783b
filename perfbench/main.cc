/**
 * @file
 * mtlb-sim's benchmark: runs a workload's job list and reports it.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--reference FILE] [--trace-out FILE] [--print-digests]
 *             [key=value ...]
 *
 * Repeats workload W's whole job list, serially in this thread, until
 * S seconds have passed (at least minPasses times), checks every
 * job's simulated-stats digest, and prints a metric table followed by
 * one JSON line: {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end ones; with --trace 1,
 * untraced and traced passes alternate and the metrics are the
 * per-layer ones. key=value arguments override every job's machine
 * through the config parser. See perfbench/README.md.
 */

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "jobs.hh"
#include "stats/json.hh"

namespace
{

using namespace perfbench;
namespace json = mtlbsim::json;

/** Passes over the job list per run, at the least. */
constexpr std::size_t minPasses = 3;
constexpr std::size_t minTracedPasses = 2;
/** The op classes, with the recorder's own cost taken out, must
 *  account for this share of the workload phase's host time. */
constexpr double minCoverage = 0.95;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    bool printDigests = false;
    std::string reference;
    std::string traceOut;
    std::vector<std::string> overrides;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--reference FILE] [--trace-out FILE] "
                 "[--print-digests] [key=value ...]\n";
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const std::string &text)
{
    if (text.empty() || text.size() > 18 ||
        text.find_first_not_of("0123456789") != std::string::npos)
        usage(flag + " needs a whole number, got '" + text + "'");
    return std::stoull(text);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool have_workload = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            o.workload = value();
            have_workload = true;
        } else if (arg == "--seed") {
            o.seed = parseCount(arg, value());
        } else if (arg == "--seconds") {
            o.seconds = static_cast<double>(parseCount(arg, value()));
            have_seconds = true;
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (arg == "--reference") {
            o.reference = value();
        } else if (arg == "--trace-out") {
            o.traceOut = value();
        } else if (arg == "--print-digests") {
            o.printDigests = true;
        } else if (arg.find('=') != std::string::npos &&
                   arg.rfind("--", 0) != 0) {
            o.overrides.push_back(arg);
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!have_seconds && !o.printDigests)
        usage("--seconds is required");
    return o;
}

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

/** One pass over the job list: outcomes parallel the job list. */
using Pass = std::vector<JobOutcome>;

Pass
runPass(const BenchWorkload &w, SpanLog *log)
{
    Pass pass;
    for (const auto &job : w.jobs)
        pass.push_back(runJob(job, log));
    // The traced extras run after every direct job, so their heap
    // churn stays out of the direct phases' spans.
    for (std::size_t i = 0; log && i < w.jobs.size(); ++i)
        traceJob(w.jobs[i], *log, pass[i]);
    return pass;
}

using Field = double (*)(const JobOutcome &);

/**
 * The best-of-passes time of the job list: each job's fastest pass,
 * summed over jobs. On a shared host, neighbours slow whole stretches
 * of passes; a job's fastest pass is what it costs when nothing
 * contends, and that is what repeats from run to run.
 */
double
bestSum(const std::vector<Pass> &passes, Field f)
{
    double sum = 0;
    for (std::size_t j = 0; j < passes.front().size(); ++j) {
        double best = f(passes.front()[j]);
        for (const Pass &p : passes)
            best = std::min(best, f(p[j]));
        sum += best;
    }
    return sum;
}

/** Each pass's job-list sum of @p f. */
std::vector<double>
passSums(const std::vector<Pass> &passes, Field f)
{
    std::vector<double> v;
    for (const Pass &p : passes) {
        double s = 0;
        for (const JobOutcome &j : p)
            s += f(j);
        v.push_back(s);
    }
    return v;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/** "pass median M, range A .. B over N passes" for the table. */
std::string
spread(const std::vector<double> &v)
{
    std::ostringstream os;
    os << std::setprecision(4) << "pass median " << median(v)
       << ", range " << *std::min_element(v.begin(), v.end()) << " .. "
       << *std::max_element(v.begin(), v.end()) << " over " << v.size()
       << " passes";
    return os.str();
}

/** Metrics in print order, each with its unit. */
class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit,
        const std::string &note = "")
    {
        rows_.push_back({name, unit, value, note});
    }

    /** Best-of-passes host time of @p f, with its pass spread. */
    void
    addBest(const std::string &name, const std::vector<Pass> &passes,
            Field f)
    {
        add(name, bestSum(passes, f), "s", spread(passSums(passes, f)));
    }

    void
    print(std::ostream &os) const
    {
        for (const Row &r : rows_) {
            os << std::left << std::setw(30) << r.name << std::right
               << std::setw(16) << std::setprecision(6) << r.value << " "
               << std::left << std::setw(9) << r.unit << r.note
               << std::right << "\n";
        }
    }

    json::Value
    toJson() const
    {
        auto metrics = json::Value::object();
        for (const Row &r : rows_) {
            auto m = json::Value::object();
            m.set("value", r.value);
            m.set("unit", r.unit);
            metrics.set(r.name, std::move(m));
        }
        return metrics;
    }

  private:
    struct Row
    {
        std::string name;
        std::string unit;
        double value;
        std::string note;
    };
    std::vector<Row> rows_;
};

/** Simulated counters summed over a pass's jobs. They repeat exactly
 *  (the digest check proves it), so one pass stands for all. */
Counts
sumCounts(const Pass &pass)
{
    Counts c;
    for (const JobOutcome &j : pass) {
        for (const auto &[k, v] : j.counts)
            c[k] += v;
    }
    return c;
}

void
addEndToEnd(Report &report, const std::vector<Pass> &passes)
{
    report.addBest("total_s", passes,
                   [](const JobOutcome &j) { return j.wall; });
    report.addBest("total_cpu_s", passes,
                   [](const JobOutcome &j) { return j.cpu; });
    report.addBest("setup_s", passes,
                   [](const JobOutcome &j) { return j.t.beforeRun(); });
    Counts c = sumCounts(passes.front());
    const double run =
        bestSum(passes, [](const JobOutcome &j) { return j.t.run; });
    report.add("accesses_per_s", ratio(c["cpu.accesses"], run), "1/s",
               "over " + std::to_string(static_cast<std::uint64_t>(
                             c["cpu.accesses"])) +
                   " accesses");
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    report.add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
               "MB");
    report.add("sim_cycles", c["cpu.cycles"], "cycles");
}

/** What the per-layer metrics must show for the traced run to pass. */
struct TraceCheck
{
    double coverage = 0;
    /** Op classes whose fitted or corrected cost came out negative. */
    std::vector<std::string> negative;
};

/** Per-layer metrics, and the split's check. */
TraceCheck
addPerLayer(Report &report, const std::vector<Pass> &traced,
            const std::vector<Pass> &untraced)
{
    // Coarse spans around each module call, best of passes like the
    // end-to-end times.
    report.addBest("sim.construct_s", traced,
                   [](const JobOutcome &j) { return j.t.construct; });
    report.addBest("sim.teardown_s", traced,
                   [](const JobOutcome &j) { return j.t.teardown; });
    report.addBest("workloads.setup_s", traced,
                   [](const JobOutcome &j) { return j.t.setup; });
    report.addBest("workloads.run_s", traced,
                   [](const JobOutcome &j) { return j.t.run; });
    report.addBest("workloads.capture_s", traced,
                   [](const JobOutcome &j) { return j.traced.capture; });
    report.addBest("workloads.replay_s", traced,
                   [](const JobOutcome &j) { return j.traced.replay; });
    report.add("workloads.gen_s",
               bestSum(traced, [](const JobOutcome &j) {
                   return j.traced.capture;
               }) - bestSum(traced, [](const JobOutcome &j) {
                   return j.traced.replay;
               }),
               "s", "capture minus single-core replay");
    report.addBest("stats.collect_s", traced,
                   [](const JobOutcome &j) { return j.t.collect; });

    // The op split of the workload phase, best of passes like the
    // spans: each job contributes the fit of its fastest sampled
    // rerun and its fastest plain rerun. What the sampler costs
    // beyond its fitted run breaks (the recorder call on every op,
    // and any time the fit does not explain) is taken out of every
    // class in proportion to its ops, so the classes are in the plain
    // phase's host seconds. They cover the plain phase exactly when
    // the fit explains the whole sampled rerun; host time outside
    // every run (before the first op) or under-predicted held-out
    // runs lower the coverage.
    OpSplit fit;
    double phase = 0, sampled = 0;
    for (std::size_t j = 0; j < traced.front().size(); ++j) {
        const TracedExtras *best = &traced.front()[j].traced;
        double best_phase = best->phase;
        for (const Pass &p : traced) {
            const TracedExtras &x = p[j].traced;
            if (x.sampled < best->sampled)
                best = &x;
            best_phase = std::min(best_phase, x.phase);
        }
        fit.add(best->split);
        sampled += best->sampled;
        phase += best_phase;
    }
    const double recorder = sampled - phase - fit.selfSeconds;
    auto corrected = [&](const OpClass &c) {
        return c.seconds - recorder * ratio(static_cast<double>(c.ops),
                                            static_cast<double>(fit.ops()));
    };

    TraceCheck check;
    const struct
    {
        const char *prefix;
        const OpClass &cls;
        const char *perEvent;
    } classes[] = {
        {"os.tlb_miss", fit.tlbMiss, "os.ns_per_tlb_miss"},
        {"cache.miss", fit.cacheMiss, "cache.ns_per_miss"},
        {"cpu.fast", fit.fast, nullptr},
        {"os.service", fit.service, nullptr},
    };
    double covered = 0;
    for (const auto &c : classes) {
        const std::string p = c.prefix;
        const double seconds = corrected(c.cls);
        if (c.cls.ops != 0 && (seconds < 0 || c.cls.seconds < 0))
            check.negative.push_back(p + "_s");
        covered += seconds;
        const double events = static_cast<double>(c.cls.events);
        report.add(p + "_s", seconds, "s");
        report.add(p + "_host_share", ratio(seconds, phase), "fraction",
                   "base trace.phase_s");
        report.add(p + "_ops", static_cast<double>(c.cls.ops), "count");
        if (c.perEvent) {
            report.add(c.perEvent, ratio(seconds * 1e9, events), "ns",
                       "base " + p + "_events");
            report.add(p + "_events", events, "count");
        }
    }
    report.add("trace.phase_s", phase, "s");
    report.add("trace.sampler_overhead_s", sampled - phase, "s",
               "sampled minus plain rerun");
    report.add("trace.sampler_self_s", fit.selfSeconds, "s");
    report.add("trace.recorder_s", recorder, "s");
    report.add("trace.runs", static_cast<double>(fit.runs), "count");
    report.add("trace.heldout_s", fit.heldOutSeconds, "s");
    report.add("trace.heldout_fit",
               ratio(fit.heldOutFitted, fit.heldOutSeconds), "fraction",
               "base trace.heldout_s");
    check.coverage = ratio(covered, phase);
    report.add("trace.coverage", check.coverage, "fraction",
               "base trace.phase_s");

    // Tracing overhead: the direct job path with spans on against off.
    const Field wall = [](const JobOutcome &j) { return j.wall; };
    const double on = bestSum(traced, wall);
    const double off = bestSum(untraced, wall);
    report.add("trace.total_s", on, "s", spread(passSums(traced, wall)));
    report.add("trace.untraced_total_s", off, "s",
               spread(passSums(untraced, wall)));
    report.add("trace.overhead_s", on - off, "s");

    // Simulated work per module: deterministic counts.
    Counts c = sumCounts(traced.front());
    auto count = [&](const std::string &name,
                     const std::string &unit = "count") {
        report.add(name, c[name], unit);
    };
    count("cpu.accesses");
    count("cpu.instructions");
    count("cpu.cycles", "cycles");
    count("cpu.stall_cycles", "cycles");
    count("cpu.l0_lookups");
    report.add("cpu.l0_hit_rate",
               ratio(c["cpu.l0_hits"], c["cpu.l0_lookups"]), "fraction");
    const double tlb_lookups = c["tlb.hits"] + c["tlb.misses"];
    report.add("tlb.lookups", tlb_lookups, "count");
    count("tlb.misses");
    count("tlb.evictions");
    report.add("tlb.miss_rate", ratio(c["tlb.misses"], tlb_lookups),
               "fraction");
    count("os.tlb_miss_cycles", "cycles");
    report.add("os.tlb_miss_share",
               ratio(c["os.tlb_miss_cycles"], c["cpu.cycles"]), "fraction");
    count("os.remap_pages");
    count("os.remap_cycles", "cycles");
    count("os.vm_faults");
    count("os.shootdowns");
    count("cache.accesses");
    count("cache.misses");
    report.add("cache.miss_rate",
               ratio(c["cache.misses"], c["cache.accesses"]), "fraction");
    count("cache.write_backs");
    report.add("cache.avg_fill_cycles",
               ratio(c["cache.fill_cycles"], c["cache.fills"]), "cycles");
    count("bus.transactions");
    count("bus.queue_cycles", "cycles");
    count("mmc.shadow_ops");
    const double mtlb_lookups = c["mtlb.hits"] + c["mtlb.misses"];
    report.add("mtlb.lookups", mtlb_lookups, "count");
    count("mtlb.misses");
    report.add("mtlb.hit_rate", ratio(c["mtlb.hits"], mtlb_lookups),
               "fraction");
    count("mem.dram_accesses");
    report.add("mem.row_hit_rate",
               ratio(c["mem.row_hits"], c["mem.dram_accesses"]), "fraction");
    return check;
}

/** Reference digests of @p workload's jobs (seed 0), or an empty
 *  object when the file or the workload is missing. */
json::Value
loadReference(const std::string &path, const std::string &workload)
{
    std::ifstream in(path);
    if (!in)
        return json::Value::object();
    const json::Value doc = json::Value::parse(in);
    const json::Value *w = doc.find(workload);
    return w ? *w : json::Value::object();
}

/**
 * Output checks. A job run fails when it threw, when its digest
 * differs from the job's first run, when at seed 0 it differs from
 * the stored reference, or when a traced replay's or rerun's digest
 * differs from the direct run's. Returns the failed count; adds the runs
 * checked to @p attempted.
 */
std::uint64_t
checkOutputs(const Options &o, const BenchWorkload &w,
             const std::vector<Pass> &untraced,
             const std::vector<Pass> &traced, std::uint64_t &attempted)
{
    const json::Value reference =
        o.seed == 0 ? loadReference(o.reference, o.workload)
                    : json::Value::object();
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < w.jobs.size(); ++i) {
        const JobOutcome &first = untraced.front()[i];
        std::string expect;
        if (o.seed == 0) {
            const json::Value *ref = reference.find(w.jobs[i].id);
            expect = ref && ref->isString() ? ref->asString() : "missing";
        }
        for (const auto *passes : {&untraced, &traced}) {
            for (const Pass &p : *passes) {
                const JobOutcome &j = p[i];
                ++attempted;
                std::string why;
                if (!j.ok)
                    why = "threw: " + j.error;
                else if (!first.ok || j.digest != first.digest)
                    why = "digest differs between passes";
                else if (!expect.empty() && hex(j.digest) != expect)
                    why = "digest " + hex(j.digest) + " != reference " +
                          expect;
                else if (!j.traced.digestsMatch)
                    why = "traced rerun's digest differs from the direct run";
                if (!why.empty()) {
                    ++failed;
                    std::cerr << "perfbench: job " << w.jobs[i].id
                              << " failed: " << why << "\n";
                }
            }
        }
    }
    return failed;
}

int
benchMain(const Options &o)
{
    const BenchWorkload w =
        makeBenchWorkload(o.workload, o.seed, o.overrides);

    if (o.printDigests) {
        const Pass pass = runPass(w, nullptr);
        auto doc = json::Value::object();
        for (std::size_t i = 0; i < w.jobs.size(); ++i) {
            const JobOutcome &j = pass[i];
            doc.set(w.jobs[i].id, j.ok ? hex(j.digest) : "error: " + j.error);
        }
        std::cout << doc.dumped(2) << "\n";
        return 0;
    }

    std::vector<Pass> untraced, traced;
    // Counts repeat exactly (the digest check proves it), so only the
    // first pass keeps them. Kept for every pass, they would grow the
    // process, and peak_rss_mb with it, with the number of passes.
    auto keep = [](std::vector<Pass> &passes, Pass pass) {
        if (!passes.empty()) {
            for (JobOutcome &j : pass)
                j.counts = {};
        }
        passes.push_back(std::move(pass));
    };
    SpanLog log;
    const Clock::time_point start = Clock::now();
    auto elapsed = [&] { return secondsBetween(start, Clock::now()); };
    while (elapsed() < o.seconds || untraced.size() < minPasses ||
           (o.trace && traced.size() < minTracedPasses)) {
        keep(untraced, runPass(w, nullptr));
        if (o.trace)
            keep(traced, runPass(w, &log));
    }

    std::uint64_t attempted = 0;
    const std::uint64_t failed =
        checkOutputs(o, w, untraced, traced, attempted);
    bool correct = failed == 0;

    Report report;
    if (o.trace) {
        const TraceCheck check = addPerLayer(report, traced, untraced);
        if (check.coverage < minCoverage) {
            std::cerr << "perfbench: the traced op classes cover only "
                      << check.coverage << " of the workload phase\n";
            correct = false;
        }
        for (const std::string &name : check.negative) {
            std::cerr << "perfbench: " << name
                      << " has a negative fitted cost\n";
            correct = false;
        }
        if (!o.traceOut.empty())
            log.write(o.traceOut);
    } else {
        addEndToEnd(report, untraced);
    }

    std::cout << "workload " << w.name << ": " << w.jobs.size()
              << " jobs, seed " << o.seed << ", " << untraced.size()
              << " untraced + " << traced.size() << " traced passes in "
              << std::setprecision(4) << elapsed() << " s\n";
    report.print(std::cout);

    auto result = json::Value::object();
    result.set("correct", correct);
    result.set("attempted", attempted);
    result.set("failed", failed);
    result.set("metrics", report.toJson());
    std::cout << result.dumped(0) << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseOptions(argc, argv);
    try {
        return benchMain(o);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
