#include "workloads/multiprog.hh"

#include <algorithm>
#include <array>
#include <deque>
#include <limits>
#include <memory>

#include "os/kernel.hh"
#include "workloads/workload.hh"

namespace mtlbsim
{

namespace
{

/** Where a narrow op word keeps each operand (see multiprog.hh):
 *  operand = (word >> shift) & mask; a zero mask fixes it at 0. */
struct NarrowLayout
{
    unsigned aShift;
    std::uint64_t aMask;
    unsigned nShift;
    std::uint64_t nMask;
};

constexpr std::uint64_t kindMask = 0x7;
constexpr std::uint64_t wideFlag = 0x8;
constexpr std::uint64_t allBits = ~std::uint64_t{0};
constexpr NarrowLayout addrOnly{4, allBits, 4, 0};
constexpr NarrowLayout countOnly{4, 0, 4, allBits};
constexpr NarrowLayout addrCount{24, allBits, 4, (1u << 20) - 1};

/** Indexed by CpuOpRecord::Kind. */
constexpr std::array<NarrowLayout, 8> narrowLayout{
    addrOnly,   // Load
    addrOnly,   // Store
    countOnly,  // Execute
    addrCount,  // ExecuteAt
    addrCount,  // Remap
    countOnly,  // Sbrk
    countOnly,  // SetSbrkPrealloc
    addrCount,  // Recolor
};
static_assert(static_cast<unsigned>(CpuOpRecord::Kind::Recolor) ==
                  narrowLayout.size() - 1,
              "every op kind needs a narrow layout and fits bits 0-2");

/**
 * Replay the op whose first word is @p word on @p cpu, an escape if
 * @p Wide; returns the words it takes. Each case reads its operands
 * at compile-time-known places, so the replay hot path dispatches
 * once per op.
 */
template <bool Wide>
std::size_t
replayOp(Cpu &cpu, const std::uint64_t *word)
{
    using Kind = CpuOpRecord::Kind;
    const std::uint64_t w = word[0];
    // Kind k's operand: the escape's a or n word, or its narrow field.
    const auto a = [word, w](Kind k) {
        const NarrowLayout &f = narrowLayout[static_cast<unsigned>(k)];
        return Wide ? word[1] : (w >> f.aShift) & f.aMask;
    };
    const auto n = [word, w](Kind k) {
        const NarrowLayout &f = narrowLayout[static_cast<unsigned>(k)];
        return Wide ? word[2] : (w >> f.nShift) & f.nMask;
    };
    switch (static_cast<Kind>(w & kindMask)) {
      case Kind::Load:
        cpu.load(a(Kind::Load));
        break;
      case Kind::Store:
        cpu.store(a(Kind::Store));
        break;
      case Kind::Execute:
        cpu.execute(n(Kind::Execute));
        break;
      case Kind::ExecuteAt:
        cpu.executeAt(n(Kind::ExecuteAt), a(Kind::ExecuteAt));
        break;
      case Kind::Remap:
        cpu.remap(a(Kind::Remap), n(Kind::Remap));
        break;
      case Kind::Sbrk:
        // The captured program consumed the returned address when it
        // was recorded; the replayed kernel hands back the same one
        // (sbrk state is per-process and replay preserves order).
        cpu.sbrk(n(Kind::Sbrk));
        break;
      case Kind::SetSbrkPrealloc:
        cpu.setSbrkPrealloc(n(Kind::SetSbrkPrealloc));
        break;
      case Kind::Recolor:
        cpu.recolorPage(a(Kind::Recolor),
                        static_cast<unsigned>(n(Kind::Recolor)));
        break;
    }
    return Wide ? 3 : 1;
}

/** Re-create @p prog's address-space layout in process @p proc.
 *  Regions are replayed in declaration order with the heap region
 *  routed through Kernel::initHeap so the sbrk machinery is armed;
 *  initHeap acts on the active process, so the caller must have
 *  bound @p proc to the active core. */
void
declareLayout(Kernel &kernel, unsigned proc, const ProgramImage &prog)
{
    AddressSpace &space = kernel.processSpace(proc);
    for (const VmRegion &r : prog.regions) {
        if (prog.hasHeap && r.base == prog.heapBase &&
            r.name == "heap") {
            kernel.initHeap(prog.heapBase, prog.heapBytes);
        } else {
            space.addRegion(r.name, r.base, r.size, r.prot);
        }
    }
}

} // namespace

void
encodeOp(const CpuOpRecord &op, std::vector<std::uint64_t> &words)
{
    const auto kind = static_cast<std::uint64_t>(op.kind);
    const NarrowLayout &f = narrowLayout[kind];
    // Pack one word, and keep it only if it decodes back exactly.
    const std::uint64_t w = kind | op.a << f.aShift | op.n << f.nShift;
    if (((w >> f.aShift) & f.aMask) == op.a &&
        ((w >> f.nShift) & f.nMask) == op.n) {
        words.push_back(w);
    } else {
        words.insert(words.end(), {kind | wideFlag, op.a, op.n});
    }
}

std::size_t
decodeOp(const std::uint64_t *word, CpuOpRecord &op)
{
    const std::uint64_t w = word[0];
    op.kind = static_cast<CpuOpRecord::Kind>(w & kindMask);
    if (w & wideFlag) {
        op.a = word[1];
        op.n = word[2];
        return 3;
    }
    const NarrowLayout &f = narrowLayout[w & kindMask];
    op.a = (w >> f.aShift) & f.aMask;
    op.n = (w >> f.nShift) & f.nMask;
    return 1;
}

ProgramImage
captureProgram(const std::string &workload_name, double scale,
               std::uint64_t seed, const SystemConfig &machine)
{
    // The scratch machine: same knobs, one core, auditing off (the
    // capture run's correctness is covered wherever the image is
    // replayed).
    SystemConfig scratch = machine;
    scratch.cores = 1;
    scratch.check.enabled = false;

    ProgramImage image;
    image.workload = workload_name;

    // Encoded straight from the recorder and never shrunk: a
    // shrink_to_fit would copy the stream and fault it in again.
    auto words = std::make_shared<std::vector<std::uint64_t>>();
    System sys(scratch);
    sys.cpu().setRecorder([&words](const CpuOpRecord &op) {
        encodeOp(op, *words);
    });

    auto workload = makeWorkload(workload_name, scale, seed);
    workload->setup(sys);
    workload->run(sys);
    image.ops = std::move(words);

    image.regions = sys.kernel().addressSpace().regions();
    for (const VmRegion &r : image.regions) {
        if (r.name == "heap") {
            image.hasHeap = true;
            image.heapBase = r.base;
            image.heapBytes = r.size;
            break;
        }
    }
    return image;
}

Cycles
runPrograms(System &sys, const std::vector<ProgramImage> &programs)
{
    Kernel &kernel = sys.kernel();
    const unsigned cores = sys.numCores();
    const unsigned nprog = static_cast<unsigned>(programs.size());
    fatalIf(nprog == 0, "multiprog mix needs at least one program");

    const Cycles quantum = sys.config().sched.quantum;
    const Cycles switch_cycles = sys.config().sched.switchCycles;

    // One process per program; process 0 is the kernel's initial
    // one. Layout declaration needs the process active (initHeap),
    // so each is briefly bound to core 0 — a no-op purge for the
    // 1-core/1-process case, untimed setup work otherwise.
    for (unsigned p = 0; p < nprog; ++p) {
        fatalIf(!programs[p].ops, "multiprog program ", p,
                " has no op stream");
        if (p > 0) {
            const unsigned created = kernel.createProcess();
            panicIf(created != p, "process ids not dense");
        }
        kernel.bindProcess(0, p);
        kernel.setActiveCore(0);
        declareLayout(kernel, p, programs[p]);
    }

    // Scheduler state: cores 0..C-1 start with processes 0..C-1 (no
    // switch cost — nothing ran yet); the rest wait in a global FIFO
    // ready queue.
    constexpr unsigned idle = ~0u;
    std::vector<unsigned> running(cores, idle);
    std::vector<Cycles> slice_end(cores, 0);
    std::vector<std::size_t> cursor(nprog, 0);
    std::deque<unsigned> ready;

    for (unsigned c = 0; c < cores && c < nprog; ++c) {
        kernel.bindProcess(c, c);
        running[c] = c;
        slice_end[c] = sys.cpu(c).now() + quantum;
    }
    for (unsigned p = cores; p < nprog; ++p)
        ready.push_back(p);

    // Dispatch loop: always advance the core with the smallest
    // clock (ties to the lowest id), one burst of ops at a time (see
    // the file comment for why bursts keep the per-op order). The
    // interleaving is a pure function of the inputs — no host
    // nondeterminism can leak in.
    while (true) {
        unsigned core = idle;
        for (unsigned c = 0; c < cores; ++c) {
            if (running[c] == idle)
                continue;
            if (core == idle ||
                sys.cpu(c).now() < sys.cpu(core).now()) {
                core = c;
            }
        }
        if (core == idle)
            break;

        Cpu &cpu = sys.cpu(core);
        const unsigned proc = running[core];
        const std::vector<std::uint64_t> &words = *programs[proc].ops;

        if (cursor[proc] == words.size()) {
            // Program done: hand the core to the next waiter.
            if (ready.empty()) {
                running[core] = idle;
            } else {
                const unsigned next = ready.front();
                ready.pop_front();
                if (kernel.bindProcess(core, next))
                    cpu.charge(switch_cycles);
                running[core] = next;
                slice_end[core] = cpu.now() + quantum;
            }
            continue;
        }

        if (quantum > 0 && cpu.now() >= slice_end[core]) {
            if (ready.empty()) {
                // Nobody waiting: renew the slice for free rather
                // than charging a switch to the same process —
                // keeps 1-core/1-process replay identical to the
                // direct run.
                slice_end[core] = cpu.now() + quantum;
            } else {
                ready.push_back(proc);
                const unsigned next = ready.front();
                ready.pop_front();
                if (kernel.bindProcess(core, next))
                    cpu.charge(switch_cycles);
                running[core] = next;
                slice_end[core] = cpu.now() + quantum;
                continue;
            }
        }

        // This core stays selected while its clock is below every
        // rival's (or equal to a higher-numbered rival's).
        Cycles stop = quantum > 0 ? slice_end[core]
                                  : std::numeric_limits<Cycles>::max();
        for (unsigned c = 0; c < cores; ++c) {
            if (c != core && running[c] != idle) {
                stop = std::min(stop,
                                sys.cpu(c).now() + (core < c ? 1 : 0));
            }
        }
        const std::uint64_t *const data = words.data();
        const std::size_t end = words.size();
        std::size_t at = cursor[proc];
        do {
            at += data[at] & wideFlag ? replayOp<true>(cpu, data + at)
                                      : replayOp<false>(cpu, data + at);
        } while (at != end && cpu.now() < stop);
        cursor[proc] = at;
    }

    return sys.totalCycles();
}

Cycles
runMultiprogMix(System &sys, const std::vector<std::string> &workloads,
                double scale, std::uint64_t seed)
{
    // Capture each distinct workload once; repeats copy the first
    // image, sharing its op stream (distinct processes replay it
    // into distinct address spaces).
    std::vector<ProgramImage> programs;
    programs.reserve(workloads.size());
    for (const std::string &name : workloads) {
        const ProgramImage *earlier = nullptr;
        for (const ProgramImage &p : programs) {
            if (p.workload == name) {
                earlier = &p;
                break;
            }
        }
        programs.push_back(earlier ? *earlier
                                   : captureProgram(name, scale, seed,
                                                    sys.config()));
    }
    return runPrograms(sys, programs);
}

} // namespace mtlbsim
