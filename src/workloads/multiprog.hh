/**
 * @file
 * Multiprogramming runner: capture once, time-slice everywhere.
 *
 * The bundled workloads drive one CPU directly, so multiprogramming
 * them needs their operation streams in replayable form. A program is
 * captured by running its workload on a scratch single-core machine
 * (same configuration, checks off) with the CPU's recorder hook
 * attached; the captured image — declared regions, heap parameters,
 * and the full operation stream — can then be replayed into any
 * process of any machine.
 *
 * The stream is one immutable vector of 64-bit words, shared by every
 * copy of the image (a mix that repeats a program copies the image,
 * not the ops). Most ops take one word: bits 0-2 hold the
 * CpuOpRecord::Kind and bit 3 is the wide flag. Load and Store keep
 * their address in bits 4-63; Execute, Sbrk and SetSbrkPrealloc
 * keep their count in bits 4-63; ExecuteAt, Remap and Recolor keep
 * an address below 2^40 in bits 24-63 and a count below 2^20 in bits
 * 4-23. Any other op is a three-word escape — the kind with the wide
 * flag set, then a, then n — so every CpuOpRecord round-trips
 * exactly (encodeOp/decodeOp).
 *
 * runMultiprogMix() assigns M captured programs to the kernel's M
 * processes and time-slices them over the machine's N cores with a
 * round-robin scheduler (SchedConfig): each core runs its process
 * until the quantum expires or the program ends, then switches to the
 * head of a global FIFO ready queue, paying the configured switch
 * cost (Kernel::bindProcess purges the core's translation state; the
 * ASID-less TLB forces that). Cores advance in global time order —
 * always the core with the smallest clock issues next — so a mix's
 * interleaving is a pure function of its inputs and results are
 * deterministic for any host thread count. The selected core issues
 * ops in a burst until its clock reaches the smallest rival clock
 * (plus one when the rival has the higher id, which loses ties),
 * its slice ends or its program does. That is the one-op-per-
 * selection order exactly: during a burst rival clocks only grow
 * (shootdown IPIs are charged to them), so the bound taken before
 * the burst can only end it early, never late.
 *
 * With one core and one process no slice ever has a rival, the
 * initial binding is a no-op, and replay degenerates to exactly the
 * op-for-op direct run — the equivalence tests/test_multicore.cc
 * pins byte-for-byte.
 */

#ifndef MTLBSIM_WORKLOADS_MULTIPROG_HH
#define MTLBSIM_WORKLOADS_MULTIPROG_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/cpu.hh"
#include "os/address_space.hh"
#include "sim/system.hh"

namespace mtlbsim
{

/** A captured program: everything needed to replay one workload's
 *  machine interaction into an arbitrary process. */
struct ProgramImage
{
    std::string workload;
    /** Regions the program declared, in declaration order. The heap
     *  region (if any) is re-created through Kernel::initHeap at
     *  replay so the sbrk machinery is armed. */
    std::vector<VmRegion> regions;
    bool hasHeap = false;
    Addr heapBase = 0;
    Addr heapBytes = 0;
    /** The encoded op stream (see the file comment); shared, never
     *  written after capture. */
    std::shared_ptr<const std::vector<std::uint64_t>> ops;
};

/** Append @p op to @p words in the image encoding. */
void encodeOp(const CpuOpRecord &op, std::vector<std::uint64_t> &words);

/** Decode the op whose first word is @p word into @p op; returns the
 *  words it takes (1, or 3 for the escape). */
std::size_t decodeOp(const std::uint64_t *word, CpuOpRecord &op);

/**
 * Capture @p workload_name's operation stream by running it to
 * completion on a scratch machine derived from @p machine (forced to
 * one core, auditing off). The stream a workload issues depends only
 * on its own configuration, so the capture is reusable across
 * machine shapes.
 */
ProgramImage captureProgram(const std::string &workload_name,
                            double scale, std::uint64_t seed,
                            const SystemConfig &machine);

/**
 * Replay @p programs (one per process, in order; program 0 runs in
 * the kernel's initial process) over all of @p sys's cores under the
 * configured round-robin scheduler. Returns the finish time — the
 * slowest core's clock when the last program completes.
 *
 * Requires programs.size() >= sys.numCores() is NOT required: with
 * fewer programs than cores the extra cores stay idle.
 */
Cycles runPrograms(System &sys,
                   const std::vector<ProgramImage> &programs);

/**
 * Convenience entry used by the sweep runner and tests: capture each
 * distinct name in @p workloads once at @p scale / @p seed, then
 * replay the mix on @p sys with process i running workloads[i] —
 * pass M names (repeats welcome) for an M-process mix.
 */
Cycles runMultiprogMix(System &sys,
                       const std::vector<std::string> &workloads,
                       double scale, std::uint64_t seed);

} // namespace mtlbsim

#endif // MTLBSIM_WORKLOADS_MULTIPROG_HH
