/**
 * @file
 * Multi-core machine-model tests: single-core equivalence of the
 * multiprogramming replay path for every paper workload, the
 * program-image op encoding, shootdown semantics at each of the six
 * kernel mutation sites, scheduler determinism (across sweep worker
 * counts, and a pinned stress interleaving), and audited end-to-end
 * multiprogrammed runs.
 *
 * The single-core byte-identity against the committed pre-refactor
 * baselines is enforced separately by tests/test_golden_stats.cc;
 * here the equivalence harness proves the capture/replay
 * multiprogramming path is indistinguishable from driving the
 * workload directly when there is nothing to schedule.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/random.hh"
#include "check/translation_auditor.hh"
#include "equivalence.hh"
#include "sim/system.hh"
#include "sweep/matrix.hh"
#include "sweep/sweep.hh"
#include "workloads/multiprog.hh"
#include "workloads/workload.hh"

using namespace mtlbsim;

namespace
{

constexpr Addr MB = 1024 * 1024;
constexpr Addr dataBase = 0x10000000;

SystemConfig
multicoreConfig(unsigned cores)
{
    SystemConfig c;
    c.installedBytes = 64 * MB;
    c.mtlbEnabled = true;
    c.cores = cores;
    return c;
}

void
addData(System &sys, Addr size = 16 * MB)
{
    sys.kernel().addressSpace().addRegion("data", dataBase, size, {});
}

/** Touch @p addr from @p core so its private TLB holds the entry. */
void
warmCore(System &sys, unsigned core, Addr addr)
{
    sys.cpu(core).load(addr);
    ASSERT_TRUE(sys.tlb(core).probe(addr).has_value());
}

} // namespace

// --- Single-core equivalence -------------------------------------

class OneCoreReplay : public ::testing::TestWithParam<const char *>
{
};

TEST_P(OneCoreReplay, IsByteIdenticalToTheDirectRun)
{
    // Capturing a program and replaying it as a 1-process "mix" on
    // an identical 1-core machine must be indistinguishable —
    // cycles, stats text, stats JSON — from driving the workload
    // directly.
    const SystemConfig config = multicoreConfig(1);
    const std::string name = GetParam();

    const auto direct = testeq::runConfigured(config, [&](System &s) {
        auto w = makeWorkload(name, 0.02, 0);
        w->setup(s);
        w->run(s);
    });
    const auto replay = testeq::runConfigured(config, [&](System &s) {
        runMultiprogMix(s, {name}, 0.02, 0);
    });
    testeq::expectIdentical(direct, replay, name + " 1x1 replay");
}

INSTANTIATE_TEST_SUITE_P(PaperWorkloads, OneCoreReplay,
                         ::testing::Values("compress95", "vortex",
                                           "radix", "em3d", "cc1"));

TEST(MulticoreEquivalence, SingleCoreConfigHasNoPerCoreGroups)
{
    // cores=1 must keep the exact legacy stats layout: no core<N>
    // groups, no mtlb_port group, no shootdown counters.
    System sys(multicoreConfig(1));
    const std::string json = sys.rootStats().toJson().dumped();
    EXPECT_EQ(json.find("core1"), std::string::npos);
    EXPECT_EQ(json.find("mtlb_port"), std::string::npos);
    EXPECT_EQ(json.find("shootdowns"), std::string::npos);
}

// --- Program images ----------------------------------------------

namespace
{

/** Words encodeOp spends on @p op. */
std::size_t
encodedWords(const CpuOpRecord &op)
{
    std::vector<std::uint64_t> words;
    encodeOp(op, words);
    return words.size();
}

} // namespace

TEST(ProgramImageCodec, EveryKindRoundTripsAtItsNarrowLimits)
{
    constexpr std::uint64_t top = ~std::uint64_t{0};
    constexpr std::uint64_t oneWord = top >> 4;            // bits 4-63
    constexpr std::uint64_t pairAddr = (1ull << 40) - 1;   // bits 24-63
    constexpr std::uint64_t pairCount = (1ull << 20) - 1;  // bits 4-23
    const std::vector<std::uint64_t> values{
        0, 1, pairCount, pairCount + 1, pairAddr, pairAddr + 1,
        oneWord, oneWord + 1, top};

    std::vector<CpuOpRecord> ops;
    for (unsigned k = 0; k < 8; ++k) {
        for (std::uint64_t a : values) {
            for (std::uint64_t n : values)
                ops.push_back({static_cast<CpuOpRecord::Kind>(k), a, n});
        }
    }
    std::vector<std::uint64_t> words;
    for (const CpuOpRecord &op : ops)
        encodeOp(op, words);
    std::size_t at = 0;
    for (const CpuOpRecord &op : ops) {
        ASSERT_LT(at, words.size());
        CpuOpRecord got;
        at += decodeOp(words.data() + at, got);
        EXPECT_EQ(got.kind, op.kind);
        EXPECT_EQ(got.a, op.a);
        EXPECT_EQ(got.n, op.n);
    }
    EXPECT_EQ(at, words.size());

    // One word up to each narrow limit, the three-word escape one
    // past it.
    using Kind = CpuOpRecord::Kind;
    for (Kind k : {Kind::Load, Kind::Store}) {
        EXPECT_EQ(encodedWords({k, oneWord, 0}), 1u);
        EXPECT_EQ(encodedWords({k, oneWord + 1, 0}), 3u);
        EXPECT_EQ(encodedWords({k, 0, 1}), 3u);
    }
    for (Kind k : {Kind::Execute, Kind::Sbrk, Kind::SetSbrkPrealloc}) {
        EXPECT_EQ(encodedWords({k, 0, oneWord}), 1u);
        EXPECT_EQ(encodedWords({k, 0, oneWord + 1}), 3u);
        EXPECT_EQ(encodedWords({k, 1, 0}), 3u);
    }
    for (Kind k : {Kind::ExecuteAt, Kind::Remap, Kind::Recolor}) {
        EXPECT_EQ(encodedWords({k, pairAddr, pairCount}), 1u);
        EXPECT_EQ(encodedWords({k, pairAddr + 1, pairCount}), 3u);
        EXPECT_EQ(encodedWords({k, pairAddr, pairCount + 1}), 3u);
    }
}

TEST(ProgramImageCodec, RecordedRunReplaysExactlyThroughEscapes)
{
    // Record a hand-driven run, then replay the image on an
    // identically configured machine: cycles and stats must match
    // byte for byte. The 1 MB remap is one past the narrow count
    // limit, so the replay also takes the escape path.
    const SystemConfig config = multicoreConfig(1);
    ProgramImage image;
    image.workload = "synthetic";
    auto words = std::make_shared<std::vector<std::uint64_t>>();
    std::size_t recorded = 0;

    const auto direct = testeq::runConfigured(config, [&](System &s) {
        addData(s, 2 * MB);
        s.cpu().setRecorder([&](const CpuOpRecord &op) {
            encodeOp(op, *words);
            ++recorded;
        });
        s.cpu().remap(dataBase, 1 * MB);
        Random rng(3);
        for (int i = 0; i < 20'000; ++i) {
            s.cpu().execute(4);
            const Addr a = dataBase + (rng.below(2 * MB) & ~Addr{7});
            if (rng.chance(1, 3))
                s.cpu().store(a);
            else
                s.cpu().load(a);
        }
        image.regions = s.kernel().addressSpace().regions();
    });
    EXPECT_EQ(words->size(), recorded + 2);   // one escape
    image.ops = words;

    const auto replay = testeq::runConfigured(config, [&](System &s) {
        runPrograms(s, {image});
    });
    testeq::expectIdentical(direct, replay, "synthetic replay");
}

TEST(ProgramImageCodec, CopiedImageSharesItsStream)
{
    const ProgramImage image =
        captureProgram("compress95", 0.01, 0, multicoreConfig(1));
    ASSERT_TRUE(image.ops);
    EXPECT_FALSE(image.ops->empty());
    const ProgramImage copy = image;
    EXPECT_EQ(copy.ops.get(), image.ops.get());
    EXPECT_EQ(image.ops.use_count(), 2);
}

// --- Shootdown unit tests: the six kernel mutation sites ----------

TEST(Shootdown, RemapPurgesRemoteTlbAndChargesIpi)
{
    System sys(multicoreConfig(2));
    addData(sys);
    warmCore(sys, 1, dataBase);

    const auto epoch = sys.tlb(1).translationEpoch();
    const auto received = sys.kernel().shootdownsReceived(1);
    const Cycles remote_now = sys.cpu(1).now();

    sys.cpu(0).remap(dataBase, 64 * 1024);

    EXPECT_EQ(sys.kernel().shootdownsReceived(1), received + 1);
    // The initiating core services no IPI of its own.
    EXPECT_EQ(sys.kernel().shootdownsReceived(0), 0u);
    // Ranged shootdown: the remote entry is gone, and the epoch bump
    // retires the remote L0 memoizations and batch anchors.
    EXPECT_FALSE(sys.tlb(1).probe(dataBase).has_value());
    EXPECT_NE(sys.tlb(1).translationEpoch(), epoch);
    // The remote CPU paid the IPI service latency.
    EXPECT_EQ(sys.cpu(1).now(), remote_now + 300);
}

TEST(Shootdown, MapPageToShadowPurgesRemoteTlb)
{
    System sys(multicoreConfig(2));
    addData(sys);
    sys.cpu(0).load(dataBase);      // materialize, real mapping
    warmCore(sys, 1, dataBase);

    const auto epoch = sys.tlb(1).translationEpoch();
    const auto received = sys.kernel().shootdownsReceived(1);

    // First recolor of a real-mapped page runs mapPageToShadow only.
    const unsigned color = sys.kernel().colorOf(dataBase);
    sys.cpu(0).recolorPage(dataBase, (color + 1) % 128);

    EXPECT_EQ(sys.kernel().shootdownsReceived(1), received + 1);
    EXPECT_FALSE(sys.tlb(1).probe(dataBase).has_value());
    EXPECT_NE(sys.tlb(1).translationEpoch(), epoch);
}

TEST(Shootdown, DemoteSingleShadowPageShootsDownTwice)
{
    System sys(multicoreConfig(2));
    addData(sys);
    sys.cpu(0).load(dataBase);
    const unsigned color = sys.kernel().colorOf(dataBase);
    sys.cpu(0).recolorPage(dataBase, (color + 1) % 128);
    warmCore(sys, 1, dataBase);

    const auto received = sys.kernel().shootdownsReceived(1);

    // Recoloring an already-shadow page demotes the old single-page
    // mapping and installs a new one: two mutations, two IPIs.
    sys.cpu(0).recolorPage(dataBase, (color + 2) % 128);

    EXPECT_EQ(sys.kernel().shootdownsReceived(1), received + 2);
    EXPECT_FALSE(sys.tlb(1).probe(dataBase).has_value());
}

TEST(Shootdown, PagewiseSwapOutSendsEpochOnlyShootdown)
{
    System sys(multicoreConfig(2));
    addData(sys);
    sys.cpu(0).remap(dataBase, 16 * 1024);
    sys.cpu(0).load(dataBase);
    warmCore(sys, 1, dataBase);

    const auto epoch = sys.tlb(1).translationEpoch();
    const auto received = sys.kernel().shootdownsReceived(1);

    sys.kernel().setActiveCore(0);
    sys.kernel().swapOutSuperpagePagewise(dataBase, sys.cpu(0).now());

    EXPECT_EQ(sys.kernel().shootdownsReceived(1), received + 1);
    // Epoch-only: the superpage TLB entry deliberately survives
    // (§2.5 — the MMC faults on access to a swapped base page), but
    // remote L0 memoizations and batch anchors must die because the
    // freed frames may be reused.
    EXPECT_TRUE(sys.tlb(1).probe(dataBase).has_value());
    EXPECT_NE(sys.tlb(1).translationEpoch(), epoch);
}

TEST(Shootdown, WholeSwapOutSendsEpochOnlyShootdown)
{
    System sys(multicoreConfig(2));
    addData(sys);
    sys.cpu(0).remap(dataBase, 16 * 1024);
    sys.cpu(0).load(dataBase);
    warmCore(sys, 1, dataBase);

    const auto epoch = sys.tlb(1).translationEpoch();
    const auto received = sys.kernel().shootdownsReceived(1);

    sys.kernel().setActiveCore(0);
    sys.kernel().swapOutSuperpageWhole(dataBase, sys.cpu(0).now());

    EXPECT_EQ(sys.kernel().shootdownsReceived(1), received + 1);
    EXPECT_TRUE(sys.tlb(1).probe(dataBase).has_value());
    EXPECT_NE(sys.tlb(1).translationEpoch(), epoch);
}

TEST(Shootdown, ShadowFaultSwapInShootsDownFrameReuse)
{
    System sys(multicoreConfig(2));
    addData(sys);
    sys.cpu(0).remap(dataBase, 16 * 1024);
    sys.cpu(0).load(dataBase);
    sys.kernel().setActiveCore(0);
    sys.kernel().swapOutSuperpagePagewise(dataBase, sys.cpu(0).now());

    const auto epoch = sys.tlb(1).translationEpoch();
    const auto received = sys.kernel().shootdownsReceived(1);

    // The access faults at the MMC and swaps the page back in under
    // an unchanged CPU-visible translation: epoch-only shootdown.
    sys.cpu(0).load(dataBase);
    EXPECT_TRUE(sys.kernel().addressSpace().isPagePresent(dataBase));

    EXPECT_EQ(sys.kernel().shootdownsReceived(1), received + 1);
    EXPECT_NE(sys.tlb(1).translationEpoch(), epoch);
}

TEST(Shootdown, SuppressedShootdownTripsCrossCoreInvariant)
{
    // The planted-fault path the fuzzer uses: swallowing one
    // broadcast leaves core 1 provably stale, and the auditor's
    // cross-core-coherence invariant must say so.
    System sys(multicoreConfig(2));
    addData(sys);
    warmCore(sys, 1, dataBase);

    sys.kernel().suppressNextShootdown();
    sys.cpu(0).remap(dataBase, 64 * 1024);

    ASSERT_TRUE(sys.tlb(1).probe(dataBase).has_value());
    const auto report = sys.auditor().collect();
    EXPECT_FALSE(report.clean());
    EXPECT_TRUE(report.has("cross-core-coherence"));
}

TEST(Shootdown, CleanBroadcastKeepsAuditorQuiet)
{
    System sys(multicoreConfig(2));
    addData(sys);
    warmCore(sys, 1, dataBase);
    sys.cpu(0).remap(dataBase, 64 * 1024);
    sys.cpu(1).load(dataBase);      // refill after the shootdown

    const auto report = sys.auditor().collect();
    EXPECT_TRUE(report.clean());
}

// --- Scheduler ----------------------------------------------------

TEST(Scheduler, MixCompletesAllProgramsOnFewerCores)
{
    System sys(multicoreConfig(2));
    const Cycles total = runMultiprogMix(
        sys, {"compress95", "compress95", "compress95", "compress95"},
        0.02, 0);
    EXPECT_GT(total, 0u);
    EXPECT_EQ(sys.kernel().numProcesses(), 4u);
    // Both cores did real work.
    EXPECT_GT(sys.cpu(0).now(), 0u);
    EXPECT_GT(sys.cpu(1).now(), 0u);
}

TEST(Scheduler, QuantumZeroRunsToCompletion)
{
    SystemConfig config = multicoreConfig(1);
    config.sched.quantum = 0;
    System sys(config);
    const Cycles total =
        runMultiprogMix(sys, {"compress95", "compress95"}, 0.02, 0);
    EXPECT_GT(total, 0u);
    EXPECT_EQ(sys.kernel().numProcesses(), 2u);
}

TEST(Scheduler, DeterministicAcrossSweepWorkerCounts)
{
    // The multiprogrammed sweep job must serialize byte-identically
    // with --jobs 1/4/8: the mix's interleaving is a function of the
    // job alone, never of the host's thread schedule.
    std::vector<sweep::SweepJob> jobs;
    for (int v = 0; v < 4; ++v) {
        sweep::SweepJob job;
        job.id = "mix/det" + std::to_string(v);
        job.workload = "mix";
        job.scale = 0.02;
        job.config = multicoreConfig(2);
        job.config.sched.quantum = 500'000 + 100'000 * v;
        job.processes = {"compress95", "em3d", "vortex", "em3d"};
        jobs.push_back(std::move(job));
    }

    auto serialized = [&jobs](unsigned workers) {
        sweep::SweepOptions options;
        options.jobs = workers;
        const auto results = sweep::SweepRunner(options).run(jobs);
        for (const auto &r : results)
            EXPECT_TRUE(r.ok) << r.id << ": " << r.error;
        return sweep::sweepToJson(results).dumped();
    };

    const std::string serial = serialized(1);
    EXPECT_EQ(serialized(4), serial);
    EXPECT_EQ(serialized(8), serial);
}

TEST(Scheduler, StressMixInterleavingIsPinned)
{
    // 3 cores x 7 processes under a short quantum: the dispatcher's
    // runs on one core end on slice expiry, on program end and on
    // rival clocks pushed forward by shootdown IPIs. The digest was
    // recorded with the one-op-per-selection dispatcher, so any
    // reordering of the interleaving shows here.
    SystemConfig config = multicoreConfig(3);
    config.sched.quantum = 40'000;
    System sys(config);
    const Cycles total = runMultiprogMix(
        sys, {"compress95", "vortex", "radix", "em3d", "cc1",
              "compress95", "em3d"},
        0.01, 3);

    EXPECT_EQ(sys.kernel().numProcesses(), 7u);
    for (unsigned c = 0; c < 3; ++c)
        EXPECT_GT(sys.kernel().shootdownsReceived(c), 0u) << c;
    EXPECT_EQ(total, 29'676'958u);
    EXPECT_EQ(sweep::SweepRunner::deriveSeed(
                  sys.rootStats().toJson().dumped()),
              11099064184287552107ull);
}

// --- Audited end-to-end runs --------------------------------------

TEST(MulticoreEndToEnd, TwoCoreFourProcessEm3dAuditsClean)
{
    SystemConfig config = multicoreConfig(2);
    config.check.enabled = true;
    config.check.interval = 2'000'000;  // periodic + final audit

    System sys(config);
    const Cycles total = runMultiprogMix(
        sys, {"em3d", "em3d", "em3d", "em3d"}, 0.02, 0);
    sys.audit();                        // panics on any violation

    EXPECT_GT(total, 0u);
    EXPECT_GT(sys.auditor().auditsRun(), 0u);
    EXPECT_EQ(sys.auditor().violationsFound(), 0u);
    EXPECT_GT(sys.kernel().shootdownsReceived(0), 0u);
    EXPECT_GT(sys.kernel().shootdownsReceived(1), 0u);
}

TEST(MulticoreEndToEnd, FourCoreSixteenProcessMixAuditsClean)
{
    // The acceptance mix: 4 cores x 16 processes of
    // compress/vortex/em3d with periodic audits on, completing with
    // zero violations and shootdown traffic on every core.
    SystemConfig config = multicoreConfig(4);
    config.check.enabled = true;
    config.check.interval = 2'000'000;

    std::vector<std::string> names;
    const std::vector<std::string> rotation{"compress95", "vortex",
                                            "em3d"};
    for (unsigned p = 0; p < 16; ++p)
        names.push_back(rotation[p % rotation.size()]);

    System sys(config);
    const Cycles total = runMultiprogMix(sys, names, 0.02, 0);
    sys.audit();

    EXPECT_GT(total, 0u);
    EXPECT_EQ(sys.kernel().numProcesses(), 16u);
    EXPECT_EQ(sys.auditor().violationsFound(), 0u);
    for (unsigned c = 0; c < 4; ++c) {
        EXPECT_GT(sys.kernel().shootdownsReceived(c), 0u)
            << "core " << c << " serviced no shootdown IPIs";
    }
}
