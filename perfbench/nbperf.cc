// nbperf: the repository benchmark (see README.md beside this file).
//
//   nbperf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//          [--expected <expected.tsv>]
//   nbperf --record > perfbench/expected.tsv     (re-record every pool)
//
// --trace 0 times RunJob on the workload's jobs for --seconds seconds and
// prints the end-to-end metrics, scaled to a quiet host (calibration.h).
// --trace 1 runs a fixed list of jobs untraced and twice traced
// (tracing.h) and prints the per-layer metrics.
//
// Every job's results_fingerprint and verdict histogram are checked
// against expected.tsv, and so are the traced composition's digests of
// transcripts and outputs (every traced job) and of every delivered round
// (an untraced run's first jobs, replayed untimed); the traced passes must
// also match each other and the untraced run exactly.  The last stdout
// line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit codes: 0 = correct, 1 = an output check failed (the JSON still
// prints, with "correct": false), 2 = usage or set-up error (no JSON).
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "calibration.h"
#include "service/workload.h"
#include "tracing.h"
#include "workloads.h"

extern char** environ;

namespace noisybeeps::perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string expected = "perfbench/expected.tsv";
  bool record = false;
  bool setup_probe = false;
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "nbperf: %s\n"
               "usage: nbperf --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--expected <path>]\n"
               "       nbperf --record\n"
               "workloads:",
               error.c_str());
  for (const WorkloadDef& w : kWorkloads) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    }
    if (key == "--record") {
      args.record = true;
      continue;
    }
    if (key == "--setup-probe") {
      args.setup_probe = true;
      continue;
    }
    if (eq == std::string::npos) {
      if (i + 1 >= argc) Usage("missing value for " + key);
      value = argv[++i];
    }
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = std::stoi(value);
      } else if (key == "--expected") {
        args.expected = value;
      } else {
        Usage("unknown flag " + key);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + key + ": " + value);
    }
  }
  if (!args.record && FindWorkload(args.workload) == nullptr) {
    Usage("unknown or missing --workload '" + args.workload + "'");
  }
  if (args.trace != 0 && args.trace != 1) Usage("--trace must be 0 or 1");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

double Seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

// Untraced runs replay this many of their jobs for the outputs digest.
constexpr int kDeepCheckedJobs = 2;

service::JobExecution OneWorker() {
  service::JobExecution exec;
  exec.num_workers = 1;
  return exec;
}

// The outcome checks every run applies to a job.
struct Checker {
  const ExpectedTable& table;
  const WorkloadDef& workload;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;

  // Counts the job's trials; returns false (and counts them failed) if the
  // job's outputs differ from the recorded ones or any trial failed.
  // `traced` adds the traced composition's digests to the comparison.
  bool Check(int index, const service::JobResult& result,
             const TracedJob* traced = nullptr) {
    attempted += result.trials;
    const auto it = table.find({std::string(workload.name), index});
    const bool recorded =
        it != table.end() && MatchesRunJob(it->second, result) &&
        (traced == nullptr ||
         (traced->outputs_digest == it->second.outputs_digest &&
          traced->delivery_digest.value_or(it->second.delivery_digest) ==
              it->second.delivery_digest));
    if (!recorded) {
      std::fprintf(stderr,
                   "nbperf: %.*s pool job %d: fingerprint %016" PRIx64
                   " verdicts %" PRId64 "/%" PRId64 "/%" PRId64
                   "%s differ from expected.tsv\n",
                   static_cast<int>(workload.name.size()),
                   workload.name.data(), index, result.results_fingerprint,
                   result.verdicts[0], result.verdicts[1], result.verdicts[2],
                   traced == nullptr ? "" : " or digests");
      correct = false;
    }
    if (!recorded || result.report.abandoned > 0 || result.verdicts[2] > 0) {
      failed += result.trials;
      return false;
    }
    return true;
  }

  void Threw(int index, const service::JobSpec& spec, const char* what) {
    std::fprintf(stderr, "nbperf: %.*s pool job %d threw: %s\n",
                 static_cast<int>(workload.name.size()), workload.name.data(),
                 index, what);
    attempted += spec.trials;
    failed += spec.trials;
    correct = false;
  }
};

// Everything before the first timed job: load the recorded outputs,
// validate the spec, build the factories, and run one warm-up job (pool
// job 0, checked like any other).  Returns its host seconds.
double SetUp(const Args& args, const WorkloadDef& workload,
             ExpectedTable& table, std::int64_t process_start_ns) {
  table = LoadExpected(args.expected);
  (void)TimeKernel(workload.kernel);
  const service::JobSpec spec = PoolSpec(workload, 0);
  service::ValidateJobSpec(spec);
  (void)service::MakeChannel(spec.channel, spec.eps);
  (void)service::MakeSimulator(spec.sim, spec.task, static_cast<int>(spec.n));
  Checker checker{table, workload};
  if (!checker.Check(0, service::RunJob(spec, OneWorker()))) {
    throw std::runtime_error("warm-up job does not match expected.tsv");
  }
  return Seconds(NowNs() - process_start_ns);
}

// Host seconds -> seconds at the quiet host's speed, given the kernel
// samples taken around them (calibration.h).
double Scale(const WorkloadDef& workload, std::vector<double> kernel_seconds) {
  return NominalSeconds(workload.kernel) / Median(std::move(kernel_seconds));
}

// SetUp, scaled by kernel samples taken right after it.
double ScaledSetUp(const Args& args, const WorkloadDef& workload,
                   ExpectedTable& table, std::int64_t process_start_ns) {
  const double seconds = SetUp(args, workload, table, process_start_ns);
  std::vector<double> kernel_seconds;
  for (int i = 0; i < 5; ++i) {
    kernel_seconds.push_back(TimeKernel(workload.kernel));
  }
  return seconds * Scale(workload, std::move(kernel_seconds));
}

// Runs `nbperf --setup-probe` in a fresh process and returns the scaled
// set-up seconds it reports, so process-wide caches are paid in every
// sample.
double SpawnSetUpProbe(const Args& args) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::string exe = "/proc/self/exe";
  std::string workload_flag = "--workload=" + args.workload;
  std::string expected_flag = "--expected=" + args.expected;
  std::string probe_flag = "--setup-probe";
  char* child_argv[] = {exe.data(), probe_flag.data(), workload_flag.data(),
                        expected_flag.data(), nullptr};
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, exe.c_str(), &actions, nullptr,
                                  child_argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  if (spawned == 0) {
    char buffer[256];
    ssize_t got = 0;
    while ((got = read(fds[0], buffer, sizeof(buffer))) > 0) {
      out.append(buffer, static_cast<std::size_t>(got));
    }
  }
  close(fds[0]);
  if (spawned != 0) throw std::runtime_error("cannot spawn set-up probe");
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("lost the set-up probe");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || out.empty()) {
    throw std::runtime_error("set-up probe failed");
  }
  return std::stod(out);
}

// VmHWM, not getrusage: ru_maxrss survives exec, so it would report the
// launching process's peak whenever that was larger than ours.
std::int64_t PeakRssKb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    throw std::runtime_error("cannot read /proc/self/status");
  }
  char line[256];
  std::int64_t kb = -1;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %" SCNd64 " kB", &kb) == 1) break;
  }
  std::fclose(status);
  if (kb <= 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kb;
}

using Metrics = std::map<std::string, double, std::less<>>;

void PrintResult(const Checker& checker, std::span<const MetricDef> defs,
                 const Metrics& metrics) {
  if (metrics.size() != defs.size()) {
    throw std::logic_error("metric set differs from BENCHMARK.json");
  }
  for (const MetricDef& def : defs) {
    const auto it = metrics.find(def.name);
    if (it == metrics.end() || !std::isfinite(it->second)) {
      throw std::logic_error("metric missing or not finite: " +
                             std::string(def.name));
    }
    std::printf("  %-34.*s %.10g %.*s\n", static_cast<int>(def.name.size()),
                def.name.data(), it->second,
                static_cast<int>(def.unit.size()), def.unit.data());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              checker.correct ? "true" : "false", checker.attempted,
              checker.failed);
  const char* separator = "";
  for (const MetricDef& def : defs) {
    const double value = metrics.find(def.name)->second;
    std::printf("%s\"%.*s\": {\"value\": ", separator,
                static_cast<int>(def.name.size()), def.name.data());
    if (def.unit == "count" && std::abs(value) < 9e15) {
      std::printf("%" PRId64, static_cast<std::int64_t>(value));
    } else {
      std::printf("%.17g", value);
    }
    std::printf(", \"unit\": \"%.*s\"}", static_cast<int>(def.unit.size()),
                def.unit.data());
    separator = ", ";
  }
  std::printf("}}\n");
}

int RunUntraced(const Args& args, const WorkloadDef& workload,
                std::int64_t process_start_ns) {
  ExpectedTable table;
  std::vector<double> setups = {
      ScaledSetUp(args, workload, table, process_start_ns)};
  setups.push_back(SpawnSetUpProbe(args));
  setups.push_back(SpawnSetUpProbe(args));

  const std::vector<int> order = PoolOrder(workload, args.seed);
  Checker checker{table, workload};
  std::vector<double> job_seconds;
  std::vector<double> kernel_seconds;
  double total_rounds = 0;
  double fixed_blowup = 0;
  std::int64_t fixed_successes = 0;
  std::int64_t fixed_trials = 0;
  const auto budget_ns = static_cast<std::int64_t>(args.seconds * 1e9);
  constexpr std::int64_t kHardStopNs = 120'000'000'000;
  const std::int64_t start = NowNs();
  for (int i = 0;; ++i) {
    const std::int64_t elapsed = NowNs() - start;
    if ((i >= kMinTimedJobs && elapsed >= budget_ns) || elapsed > kHardStopNs) {
      break;
    }
    const int index = order[static_cast<std::size_t>(i % kPoolSize)];
    const service::JobSpec spec = PoolSpec(workload, index);
    service::JobResult result;
    const double kernel_before = TimeKernel(workload.kernel);
    const std::int64_t job_start = NowNs();
    try {
      result = service::RunJob(spec, OneWorker());
    } catch (const std::exception& error) {
      checker.Threw(index, spec, error.what());
      continue;
    }
    job_seconds.push_back(Seconds(NowNs() - job_start));
    kernel_seconds.push_back(kernel_before);
    kernel_seconds.push_back(TimeKernel(workload.kernel));
    total_rounds += result.mean_rounds * static_cast<double>(result.trials);
    (void)checker.Check(index, result);
    if (i < kMinTimedJobs) {
      fixed_blowup += result.mean_blowup * static_cast<double>(result.trials);
      fixed_successes += result.successes;
      fixed_trials += result.trials;
    }
  }
  // RunJob's fingerprint covers rounds, phases and verdicts only; replay
  // the run's first jobs through the traced composition (untimed) and
  // check their transcripts and outputs too.
  for (int i = 0; i < kDeepCheckedJobs; ++i) {
    const int index = order[static_cast<std::size_t>(i)];
    const TracedJob replay =
        RunTracedJob(PoolSpec(workload, index), /*digest_deliveries=*/true);
    Checker deep{table, workload};
    if (!deep.Check(index, replay.result, &replay)) {
      checker.correct = false;
      checker.failed =
          std::min(checker.attempted, checker.failed + replay.result.trials);
    }
  }
  if (job_seconds.size() < 11 || fixed_trials == 0) {
    throw std::runtime_error("too few completed jobs to report");
  }

  // Each job is scaled by the kernel samples (one before and one after
  // every job) of the seven jobs around it, so a run that straddles a
  // change of host state is corrected job by job.
  constexpr std::size_t kHalfWindow = 3;
  std::vector<double> scaled(job_seconds.size());
  for (std::size_t i = 0; i < job_seconds.size(); ++i) {
    const std::size_t first = i > kHalfWindow ? i - kHalfWindow : 0;
    const std::size_t last = std::min(job_seconds.size(), i + kHalfWindow + 1);
    const auto samples = kernel_seconds.begin();
    scaled[i] =
        job_seconds[i] *
        Scale(workload, {samples + static_cast<std::ptrdiff_t>(2 * first),
                         samples + static_cast<std::ptrdiff_t>(2 * last)});
  }
  std::vector<double> sorted = scaled;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t tail_index = sorted.size() - 11;
  double scaled_total = 0;
  for (const double s : scaled) scaled_total += s;

  std::printf("nbperf %.*s seed=%" PRIu64 " jobs=%zu trials=%" PRId64
              " failed=%" PRId64 "\n",
              static_cast<int>(workload.name.size()), workload.name.data(),
              args.seed, job_seconds.size(), checker.attempted,
              checker.failed);
  std::printf("  job_s_tail is p%.1f of %zu job samples (10 beyond it); "
              "blowup/success over the first %d jobs\n",
              100.0 * static_cast<double>(tail_index) /
                  static_cast<double>(sorted.size() - 1),
              sorted.size(), kMinTimedJobs);
  std::printf("  raw host seconds: job p50 %.4f; %s kernel median %.5f s "
              "(scale %.4f); scaled set-ups %.4f %.4f %.4f s\n",
              Median(job_seconds),
              workload.kernel == HostKernel::kMemory ? "memory" : "compute",
              Median(kernel_seconds), Scale(workload, kernel_seconds),
              setups[0], setups[1], setups[2]);
  const Metrics metrics = {
      {"rounds_per_s", total_rounds / scaled_total},
      {"job_s_p50", Median(scaled)},
      {"job_s_tail", sorted[tail_index]},
      {"setup_s", Median(setups)},
      {"peak_rss_mb", static_cast<double>(PeakRssKb()) / 1024.0},
      {"blowup_mean", fixed_blowup / static_cast<double>(fixed_trials)},
      {"success_rate", static_cast<double>(fixed_successes) /
                           static_cast<double>(fixed_trials)},
      {"ok_share", static_cast<double>(checker.attempted - checker.failed) /
                       static_cast<double>(checker.attempted)},
  };
  PrintResult(checker, kEndToEndMetrics, metrics);
  return checker.correct ? 0 : 1;
}

// The deterministic part of a traced job: must repeat exactly.
bool SameCounts(const TracedJob& a, const TracedJob& b) {
  const LayerCounters& x = a.counters;
  const LayerCounters& y = b.counters;
  return x.choose_beep_calls == y.choose_beep_calls &&
         x.compute_output_calls == y.compute_output_calls &&
         x.deliver_calls == y.deliver_calls &&
         x.deliver_words_calls == y.deliver_words_calls &&
         x.listener_slots == y.listener_slots &&
         a.party_rounds == b.party_rounds && a.result == b.result &&
         a.outputs_digest == b.outputs_digest;
}

int RunTraced(const Args& args, const WorkloadDef& workload,
              std::int64_t process_start_ns) {
  ExpectedTable table;
  (void)SetUp(args, workload, table, process_start_ns);
  const ProbeCost probe = MeasureProbeCost();

  const std::vector<int> order = PoolOrder(workload, args.seed);
  Checker checker{table, workload};
  // Times are the mean of the two traced passes; counts come from pass A
  // (pass B must repeat them exactly).
  double untraced_ns = 0;
  double wall_ns = 0;
  double service_ns = 0;
  double resilience_self_ns = 0;
  double make_workload_ns = 0;
  double judge_ns = 0;
  double simulate_ns = 0;
  double choose_ns = 0;
  double compute_ns = 0;
  double channel_ns = 0;
  LayerCounters counts;
  std::int64_t party_rounds = 0;
  std::int64_t attempts = 0;
  std::map<std::string, std::int64_t> phases;
  for (int k = 0; k < kTracedJobs; ++k) {
    const int index = order[static_cast<std::size_t>(k)];
    const service::JobSpec spec = PoolSpec(workload, index);
    const std::int64_t start = NowNs();
    const service::JobResult untraced = service::RunJob(spec, OneWorker());
    untraced_ns += static_cast<double>(NowNs() - start);
    const TracedJob a = RunTracedJob(spec);
    const TracedJob b = RunTracedJob(spec);
    const bool ok = checker.Check(index, untraced, &a);
    if (!(a.result == untraced) || !SameCounts(a, b)) {
      std::fprintf(stderr,
                   "nbperf: pool job %d: traced passes disagree with RunJob "
                   "or with each other\n",
                   index);
      checker.correct = false;
      if (ok) checker.failed += untraced.trials;
    }
    for (const TracedJob* pass : {&a, &b}) {
      wall_ns += 0.5 * static_cast<double>(pass->wall_ns);
      service_ns += 0.5 * static_cast<double>(pass->service_ns);
      resilience_self_ns +=
          0.5 * static_cast<double>(pass->resilience_wall_ns - pass->body_ns);
      make_workload_ns += 0.5 * static_cast<double>(pass->make_workload_ns);
      judge_ns += 0.5 * static_cast<double>(pass->judge_ns);
      simulate_ns += 0.5 * static_cast<double>(pass->simulate_ns);
      choose_ns += 0.5 * static_cast<double>(pass->counters.choose_beep_ns);
      compute_ns +=
          0.5 * static_cast<double>(pass->counters.compute_output_ns);
      channel_ns += 0.5 * static_cast<double>(pass->counters.channel_ns);
    }
    counts.choose_beep_calls += a.counters.choose_beep_calls;
    counts.compute_output_calls += a.counters.compute_output_calls;
    counts.deliver_calls += a.counters.deliver_calls;
    counts.deliver_words_calls += a.counters.deliver_words_calls;
    counts.listener_slots += a.counters.listener_slots;
    party_rounds += a.party_rounds;
    attempts += a.result.report.attempts;
    for (const auto& [phase, rounds] : a.result.phases) phases[phase] += rounds;
  }

  std::int64_t noisy_rounds = 0;
  for (const auto& [phase, rounds] : phases) noisy_rounds += rounds;
  const auto calls = static_cast<double>(counts.timed_calls());
  const auto channel_calls =
      static_cast<double>(counts.deliver_calls + counts.deliver_words_calls);
  // The part of each probe that falls outside its span lands in the
  // caller's self time, i.e. in coding's.
  const double outside_ns = probe.call_ns - probe.span_floor_ns;
  const double coding_self_ns =
      simulate_ns - channel_ns - choose_ns - compute_ns;
  const double coding_self_net_ns = coding_self_ns - calls * outside_ns;
  const double channel_net_ns =
      channel_ns - channel_calls * probe.span_floor_ns;
  const auto phase = [&](const char* name) {
    const auto it = phases.find(name);
    return it == phases.end() ? 0.0 : static_cast<double>(it->second);
  };

  std::printf("nbperf %.*s seed=%" PRIu64 " traced jobs=%d (each untraced "
              "once, traced twice)\n",
              static_cast<int>(workload.name.size()), workload.name.data(),
              args.seed, kTracedJobs);
  const Metrics metrics = {
      {"service.self_s", service_ns * 1e-9},
      {"resilience.self_s", resilience_self_ns * 1e-9},
      {"resilience.attempts", static_cast<double>(attempts)},
      {"tasks.make_workload_s", make_workload_ns * 1e-9},
      {"tasks.judge_s", judge_ns * 1e-9},
      {"coding.simulate_s", simulate_ns * 1e-9},
      {"coding.self_s", coding_self_ns * 1e-9},
      {"coding.self_s_net", coding_self_net_ns * 1e-9},
      {"coding.self_ns_per_round",
       coding_self_net_ns / static_cast<double>(std::max<std::int64_t>(
                                1, noisy_rounds))},
      {"coding.rounds.chunk-sim", phase("chunk-sim")},
      {"coding.rounds.owner-finding", phase("owner-finding")},
      {"coding.rounds.verify-flags", phase("verify-flags")},
      {"coding.rounds.audit", phase("audit")},
      {"coding.rounds.repetition", phase("repetition")},
      {"coding.noisy_rounds", static_cast<double>(noisy_rounds)},
      {"protocol.choose_beep_calls",
       static_cast<double>(counts.choose_beep_calls)},
      {"protocol.choose_beep_s", choose_ns * 1e-9},
      {"protocol.choose_beep_s_net",
       (choose_ns - static_cast<double>(counts.choose_beep_calls) *
                        probe.span_floor_ns) *
           1e-9},
      {"protocol.compute_output_calls",
       static_cast<double>(counts.compute_output_calls)},
      {"protocol.compute_output_s", compute_ns * 1e-9},
      {"protocol.evals_per_party_round",
       static_cast<double>(counts.choose_beep_calls) /
           static_cast<double>(std::max<std::int64_t>(1, party_rounds))},
      {"channel.deliver_calls", static_cast<double>(counts.deliver_calls)},
      {"channel.deliver_words_calls",
       static_cast<double>(counts.deliver_words_calls)},
      {"channel.listener_slots", static_cast<double>(counts.listener_slots)},
      {"channel.self_s", channel_ns * 1e-9},
      {"channel.self_s_net", channel_net_ns * 1e-9},
      {"channel.ns_per_listener",
       channel_net_ns / static_cast<double>(std::max<std::int64_t>(
                            1, counts.listener_slots))},
      {"trace.overhead", wall_ns / untraced_ns - 1.0},
      {"trace.probe_ns", probe.call_ns},
      {"trace.span_floor_ns", probe.span_floor_ns},
      {"trace.untraced_s", untraced_ns * 1e-9},
      {"trace.traced_s", wall_ns * 1e-9},
      {"trace.jobs", static_cast<double>(kTracedJobs)},
  };
  PrintResult(checker, kPerLayerMetrics, metrics);
  return checker.correct ? 0 : 1;
}

int Record() {
  std::printf("# nbperf expected outputs: workload, pool index, "
              "results_fingerprint, outputs digest, delivery digest, "
              "verdicts ok/degraded/failed.\n"
              "# Regenerate with: nbperf --record > perfbench/expected.tsv\n");
  for (const WorkloadDef& workload : kWorkloads) {
    for (int index = 0; index < kPoolSize; ++index) {
      const service::JobSpec spec = PoolSpec(workload, index);
      const service::JobResult result = service::RunJob(spec, OneWorker());
      const TracedJob traced =
          RunTracedJob(spec, /*digest_deliveries=*/true);
      if (!(traced.result == result)) {
        throw std::runtime_error("traced job disagrees with RunJob");
      }
      const Expected expected{result.results_fingerprint,
                              traced.outputs_digest, *traced.delivery_digest,
                              result.verdicts};
      std::fputs(ExpectedLine(workload.name, index, expected).c_str(), stdout);
      std::fflush(stdout);
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  const std::int64_t process_start_ns = NowNs();
  const Args args = ParseArgs(argc, argv);
  if (args.record) return Record();
  const WorkloadDef& workload = *FindWorkload(args.workload);
  if (args.setup_probe) {
    ExpectedTable table;
    std::printf("%.17g\n",
                ScaledSetUp(args, workload, table, process_start_ns));
    return 0;
  }
  return args.trace == 1 ? RunTraced(args, workload, process_start_ns)
                         : RunUntraced(args, workload, process_start_ns);
}

}  // namespace
}  // namespace noisybeeps::perfbench

int main(int argc, char** argv) {
  try {
    return noisybeeps::perfbench::Main(argc, argv);
  } catch (const std::exception& error) {
    std::fflush(stdout);
    std::fprintf(stderr, "nbperf: %s\n", error.what());
    return 2;
  }
}
