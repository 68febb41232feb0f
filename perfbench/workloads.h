// The benchmark's workloads, job pools, recorded outputs and metric names.
//
// Every workload is one fixed JobSpec shape (task / channel / sim / n /
// eps) run as a sequence of one-trial jobs.  The jobs come from a recorded
// POOL: pool job i of a workload has a job seed derived from (workload,
// i), and expected.tsv holds what it produced when recorded.  The
// workload seed given on the command line
// picks the order in which a run walks the pool (a seeded permutation), so
// every seed gives different inputs, the same seed gives the same inputs,
// and every job a run times has a recorded answer to be checked against.
#ifndef NOISYBEEPS_PERFBENCH_WORKLOADS_H_
#define NOISYBEEPS_PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "calibration.h"
#include "service/job_spec.h"
#include "service/workload.h"

namespace noisybeeps::perfbench {

struct WorkloadDef {
  std::string_view name;
  std::string_view task;
  std::string_view channel;
  std::string_view sim;
  int n;
  double eps;
  // The calibration kernel sharing the workload's bottleneck
  // (calibration.h): codebook scans for the decoding schemes, prefix
  // hashing for the adaptive task.
  HostKernel kernel;
};

inline constexpr std::array<WorkloadDef, 3> kWorkloads = {{
    {"e1_rewind_correlated", "input_set", "correlated", "rewind", 256, 0.05,
     HostKernel::kMemory},
    {"e8_hierarchical_independent", "bit_exchange", "independent",
     "hierarchical", 128, 0.05, HostKernel::kMemory},
    {"adaptive_repetition_independent", "random", "independent", "repetition",
     192, 0.05, HostKernel::kCompute},
}};

// Recorded jobs per workload.
inline constexpr int kPoolSize = 64;
// Every run times at least this many jobs, even past --seconds, so the
// deterministic metrics (blowup_mean, success_rate) cover a fixed job list
// and the tail percentile has at least ten samples beyond it.
inline constexpr int kMinTimedJobs = 24;
// Jobs in a traced run: a fixed list, so its counts repeat exactly.
inline constexpr int kTracedJobs = 6;

// nullptr for an unknown name.
[[nodiscard]] const WorkloadDef* FindWorkload(std::string_view name);

// Pool job `index` of `workload`: one trial, workers-independent, with a
// job seed that depends only on (workload, index).
[[nodiscard]] service::JobSpec PoolSpec(const WorkloadDef& workload,
                                        int index);

// The run's walk through the pool: a permutation of [0, kPoolSize) drawn
// from the workload seed.
[[nodiscard]] std::vector<int> PoolOrder(const WorkloadDef& workload,
                                         std::uint64_t seed);

// What a pool job returned when the pool was recorded: RunJob's
// fingerprint and verdict histogram, and the traced composition's digests
// of transcripts and outputs and of every delivered round (tracing.h).
struct Expected {
  std::uint64_t fingerprint = 0;
  std::uint64_t outputs_digest = 0;
  std::uint64_t delivery_digest = 0;
  std::array<std::int64_t, 3> verdicts{};
};

// True when RunJob's outputs are the recorded ones.
[[nodiscard]] bool MatchesRunJob(const Expected& expected,
                                 const service::JobResult& result);

// (workload name, pool index) -> recorded outputs.
using ExpectedTable = std::map<std::pair<std::string, int>, Expected>;

// Throws std::runtime_error on an unreadable or malformed file.
[[nodiscard]] ExpectedTable LoadExpected(const std::string& path);
// One expected.tsv line (with trailing newline).
[[nodiscard]] std::string ExpectedLine(std::string_view workload, int index,
                                       const Expected& expected);

struct MetricDef {
  std::string_view name;
  std::string_view unit;
  std::string_view better;
};

// The metrics BENCHMARK.json declares, in its order: every untraced run
// prints exactly kEndToEndMetrics, every traced run exactly kPerLayerMetrics.
inline constexpr std::array<MetricDef, 8> kEndToEndMetrics = {{
    {"rounds_per_s", "1/s", "higher"},
    {"job_s_p50", "s", "lower"},
    {"job_s_tail", "s", "lower"},
    {"setup_s", "s", "lower"},
    {"peak_rss_mb", "MB", "lower"},
    {"blowup_mean", "x", "lower"},
    {"success_rate", "ratio", "higher"},
    {"ok_share", "ratio", "higher"},
}};

inline constexpr std::array<MetricDef, 33> kPerLayerMetrics = {{
    {"service.self_s", "s", "lower"},
    {"resilience.self_s", "s", "lower"},
    {"resilience.attempts", "count", "lower"},
    {"tasks.make_workload_s", "s", "lower"},
    {"tasks.judge_s", "s", "lower"},
    {"coding.simulate_s", "s", "lower"},
    {"coding.self_s", "s", "lower"},
    {"coding.self_s_net", "s", "lower"},
    {"coding.self_ns_per_round", "ns/round", "lower"},
    {"coding.rounds.chunk-sim", "count", "lower"},
    {"coding.rounds.owner-finding", "count", "lower"},
    {"coding.rounds.verify-flags", "count", "lower"},
    {"coding.rounds.audit", "count", "lower"},
    {"coding.rounds.repetition", "count", "lower"},
    {"coding.noisy_rounds", "count", "lower"},
    {"protocol.choose_beep_calls", "count", "lower"},
    {"protocol.choose_beep_s", "s", "lower"},
    {"protocol.choose_beep_s_net", "s", "lower"},
    {"protocol.compute_output_calls", "count", "lower"},
    {"protocol.compute_output_s", "s", "lower"},
    {"protocol.evals_per_party_round", "ratio", "lower"},
    {"channel.deliver_calls", "count", "lower"},
    {"channel.deliver_words_calls", "count", "lower"},
    {"channel.listener_slots", "count", "lower"},
    {"channel.self_s", "s", "lower"},
    {"channel.self_s_net", "s", "lower"},
    {"channel.ns_per_listener", "ns", "lower"},
    {"trace.overhead", "ratio", "lower"},
    {"trace.probe_ns", "ns", "lower"},
    {"trace.span_floor_ns", "ns", "lower"},
    {"trace.untraced_s", "s", "lower"},
    {"trace.traced_s", "s", "lower"},
    {"trace.jobs", "count", "higher"},
}};

}  // namespace noisybeeps::perfbench

#endif  // NOISYBEEPS_PERFBENCH_WORKLOADS_H_
