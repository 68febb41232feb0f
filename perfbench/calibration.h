// Host-speed calibration for the end-to-end times.
//
// The measurement host is a shared 4-vCPU KVM guest. Its speed for
// cache-heavy code drifts by up to ~50% over seconds to minutes as other
// tenants come and go. Thread CPU time tracks wall time through those
// swings, so the CPU itself runs slower: it is not time lost while
// descheduled. The run-to-run spread of a raw job time is then mostly the
// host's state. A fixed kernel timed between the jobs of the same run sees
// the same state. Dividing by it cancels most of the drift: over ten 12 s
// runs of the E1 job, the job's median and the memory kernel's median
// correlated at 0.97, and the spread fell from 31% to 7%.
//
// Each workload is scaled by the kernel that shares its bottleneck
// (workloads.h). The codebook scans of E1/E8 are XOR-popcount passes over
// L2-resident words, and the memory kernel does the same. The adaptive
// workload hashes in registers, like the compute kernel, whose speed hardly
// moves.
#ifndef NOISYBEEPS_PERFBENCH_CALIBRATION_H_
#define NOISYBEEPS_PERFBENCH_CALIBRATION_H_

#include <cstdint>

namespace noisybeeps::perfbench {

enum class HostKernel : std::uint8_t {
  kMemory,   // XOR-popcount passes over a 1 MiB table
  kCompute,  // a dependent chain of 64-bit mixes
};

// Runs the kernel once and returns its host seconds (about 10 ms).
[[nodiscard]] double TimeKernel(HostKernel kernel);

// The kernel's median seconds on a quiet host. Scaled times read
// `host seconds * NominalSeconds / measured kernel seconds`: what the job
// would have taken at the quiet host's speed.
[[nodiscard]] double NominalSeconds(HostKernel kernel);

}  // namespace noisybeeps::perfbench

#endif  // NOISYBEEPS_PERFBENCH_CALIBRATION_H_
