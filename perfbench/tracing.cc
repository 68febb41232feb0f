#include "tracing.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "coding/simulator.h"
#include "resilience/checkpoint.h"
#include "resilience/resilient_trials.h"
#include "util/require.h"
#include "util/stats.h"

namespace noisybeeps::perfbench {
namespace {

std::uint64_t Fold(std::uint64_t digest, std::uint64_t value) {
  return (digest ^ value) * 0x100000001b3ULL;
}

}  // namespace

void TracedChannel::Deliver(std::int64_t num_beepers,
                            std::span<std::uint8_t> received,
                            Rng& rng) const {
  const std::int64_t start = NowNs();
  inner_.Deliver(num_beepers, received, rng);
  counters_.channel_ns += NowNs() - start;
  ++counters_.deliver_calls;
  counters_.listener_slots += static_cast<std::int64_t>(received.size());
  if (delivery_digest_ != nullptr) {
    std::uint64_t digest = Fold(*delivery_digest_,
                                static_cast<std::uint64_t>(num_beepers));
    for (const std::uint8_t bit : received) digest = Fold(digest, bit);
    *delivery_digest_ = digest;
  }
}

void TracedChannel::DeliverWords(std::int64_t num_beepers,
                                 std::span<std::uint64_t> received,
                                 std::int64_t num_parties, WordMode mode,
                                 Rng& rng) const {
  const std::int64_t start = NowNs();
  inner_.DeliverWords(num_beepers, received, num_parties, mode, rng);
  counters_.channel_ns += NowNs() - start;
  ++counters_.deliver_words_calls;
  counters_.listener_slots += num_parties;
  if (delivery_digest_ != nullptr) {
    std::uint64_t digest = Fold(*delivery_digest_,
                                static_cast<std::uint64_t>(num_beepers));
    for (const std::uint64_t word : received) digest = Fold(digest, word);
    *delivery_digest_ = digest;
  }
}

bool TracedParty::ChooseBeep(const BitString& transcript_prefix) const {
  const std::int64_t start = NowNs();
  const bool beep = inner_->ChooseBeep(transcript_prefix);
  counters_->choose_beep_ns += NowNs() - start;
  ++counters_->choose_beep_calls;
  return beep;
}

PartyOutput TracedParty::ComputeOutput(const BitString& pi) const {
  const std::int64_t start = NowNs();
  PartyOutput output = inner_->ComputeOutput(pi);
  counters_->compute_output_ns += NowNs() - start;
  ++counters_->compute_output_calls;
  return output;
}

TracedProtocol::TracedProtocol(const Protocol& inner, LayerCounters& counters)
    : inner_(inner) {
  parties_.reserve(static_cast<std::size_t>(inner.num_parties()));
  for (int i = 0; i < inner.num_parties(); ++i) {
    parties_.emplace_back(inner.party(i), counters);
  }
}

const Party& TracedProtocol::party(int i) const {
  NB_REQUIRE(i >= 0 && i < num_parties(), "party index out of range");
  return parties_[static_cast<std::size_t>(i)];
}

namespace {

void AppendSimulation(std::string& out, const SimulationResult& result) {
  const auto append_words = [&out](std::span<const std::uint64_t> words) {
    resilience::AppendU64(out, words.size());
    for (const std::uint64_t word : words) resilience::AppendU64(out, word);
  };
  for (const BitString& transcript : result.transcripts) {
    resilience::AppendU64(out, transcript.size());
    append_words(transcript.words());
  }
  for (const std::vector<int>& owners : result.owners) {
    resilience::AppendU64(out, owners.size());
    for (const int owner : owners) {
      resilience::AppendU64(out, static_cast<std::uint64_t>(owner));
    }
  }
  for (const PartyOutput& output : result.outputs) append_words(output);
  const SimulationVerdict& verdict = result.verdict;
  resilience::AppendU64(out, static_cast<std::uint64_t>(verdict.status));
  resilience::AppendU64(out, verdict.budget_exhausted ? 1 : 0);
  resilience::AppendU64(out, static_cast<std::uint64_t>(verdict.majority_size));
  resilience::AppendBytes(out, verdict.first_divergent_phase);
  resilience::AppendU64(
      out, static_cast<std::uint64_t>(verdict.first_divergence_round));
  resilience::AppendU64(out,
                        static_cast<std::uint64_t>(result.noisy_rounds_used));
}

}  // namespace

TracedJob RunTracedJob(const service::JobSpec& spec, bool digest_deliveries) {
  NB_REQUIRE(spec.fail_plan.empty(),
             "traced jobs run without checkpoint I/O; fail plans unsupported");
  TracedJob job;
  const std::int64_t job_start = NowNs();

  // service: the same validation and factories RunJob starts with.
  std::int64_t start = NowNs();
  service::ValidateJobSpec(spec);
  const FaultPlan faults = spec.ParsedFaultPlan();
  const std::unique_ptr<Channel> channel =
      service::MakeChannel(spec.channel, spec.eps);
  const std::unique_ptr<Simulator> sim =
      service::MakeSimulator(spec.sim, spec.task, static_cast<int>(spec.n));
  std::uint64_t delivery_digest = 0xcbf29ce484222325ULL;
  const TracedChannel traced_channel(
      *channel, job.counters, digest_deliveries ? &delivery_digest : nullptr);
  resilience::ResilienceOptions opts;
  opts.config_hash = spec.ConfigHash();
  opts.retry.max_attempts = spec.max_attempts;
  opts.retry.base_backoff_millis = spec.retry_backoff_millis;
  opts.budget.max_rounds = spec.trial_round_budget;
  opts.budget.max_wall_millis = spec.trial_timeout_millis;
  opts.num_workers = 1;
  job.service_ns += NowNs() - start;

  std::string simulations;
  std::int64_t digest_ns = 0;
  Rng rng(spec.seed);
  const auto body = [&](int, Rng& trial_rng) {
    const std::int64_t body_start = NowNs();
    std::int64_t t0 = NowNs();
    service::Workload workload =
        service::MakeWorkload(spec.task, static_cast<int>(spec.n), trial_rng);
    job.make_workload_ns += NowNs() - t0;

    const int length = workload.protocol->length();
    job.party_rounds +=
        static_cast<std::int64_t>(workload.protocol->num_parties()) * length;
    const TracedProtocol traced_protocol(*workload.protocol, job.counters);
    t0 = NowNs();
    const SimulationResult result =
        sim->Simulate(traced_protocol, traced_channel, faults, trial_rng);
    job.simulate_ns += NowNs() - t0;
    t0 = NowNs();
    AppendSimulation(simulations, result);
    const std::int64_t append_ns = NowNs() - t0;
    digest_ns += append_ns;

    service::TrialPoint point;
    t0 = NowNs();
    point.success = !result.budget_exhausted() && workload.judge(result);
    job.judge_ns += NowNs() - t0;
    point.status = static_cast<std::uint8_t>(result.verdict.status);
    point.rounds = result.noisy_rounds_used;
    point.blowup = static_cast<double>(result.noisy_rounds_used) /
                   std::max(1, length);
    for (const auto& [phase, count] : result.phase_rounds) {
      point.phases[phase] += count;
    }
    // The instance dies here in RunJob too; its teardown is tasks work.
    t0 = NowNs();
    workload = service::Workload{};
    job.make_workload_ns += NowNs() - t0;
    job.body_ns += NowNs() - body_start - append_ns;
    return point;
  };
  const service::TrialPointAdapter adapter;
  start = NowNs();
  const resilience::RunOutput<service::TrialPoint> run =
      resilience::ResilientTrials(spec.trials, rng, body, adapter, opts);
  job.resilience_wall_ns = NowNs() - start - digest_ns;
  start = NowNs();
  job.outputs_digest = resilience::Fnv1a64(simulations);
  if (digest_deliveries) job.delivery_digest = delivery_digest;
  digest_ns += NowNs() - start;

  // service: RunJob's aggregation, step for step.
  start = NowNs();
  service::JobResult& result = job.result;
  result.trials = spec.trials;
  result.report = run.report;
  RunningStat rounds;
  RunningStat blowup;
  std::string encoded_results;
  for (const service::TrialPoint& point : run.results) {
    if (point.success) ++result.successes;
    ++result.verdicts[static_cast<std::size_t>(
        point.status < 3 ? point.status : 2)];
    rounds.Add(static_cast<double>(point.rounds));
    blowup.Add(point.blowup);
    for (const auto& [phase, count] : point.phases) {
      result.phases[phase] += count;
    }
    encoded_results += adapter.Encode(point);
  }
  if (!run.results.empty()) {
    result.mean_rounds = rounds.mean();
    result.mean_blowup = blowup.mean();
  }
  result.results_fingerprint = resilience::Fnv1a64(encoded_results);
  job.service_ns += NowNs() - start;
  // The digest is the benchmark's own check, not traced work.
  job.wall_ns = NowNs() - job_start - digest_ns;
  return job;
}

namespace {

class EmptyParty final : public Party {
 public:
  [[nodiscard]] bool ChooseBeep(const BitString& prefix) const override {
    return prefix.size() == 1;
  }
  [[nodiscard]] PartyOutput ComputeOutput(const BitString&) const override {
    return {};
  }
};

// Keeps the calibration loops observable, so they are not folded away.
volatile int observed_beeps = 0;

// Median ns per ChooseBeep call through `party` over `reps` repetitions.
double NsPerCall(const Party& party, const BitString& prefix, int calls,
                 int reps) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    int beeps = 0;
    const std::int64_t start = NowNs();
    for (int i = 0; i < calls; ++i) beeps += party.ChooseBeep(prefix) ? 1 : 0;
    const std::int64_t elapsed = NowNs() - start;
    observed_beeps = beeps;
    samples.push_back(static_cast<double>(elapsed) / calls);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

ProbeCost MeasureProbeCost() {
  constexpr int kCalls = 200000;
  constexpr int kReps = 9;
  const EmptyParty empty;
  LayerCounters counters;
  const TracedParty traced(empty, counters);
  // Calls go through base references held in a volatile-indexed array,
  // so neither loop can be devirtualized.
  const Party* parties[2] = {&empty, &traced};
  volatile int pick = 0;
  const BitString prefix;
  const double bare_ns = NsPerCall(*parties[pick], prefix, kCalls, kReps);
  pick = 1;
  counters = LayerCounters{};
  const double traced_ns = NsPerCall(*parties[pick], prefix, kCalls, kReps);
  ProbeCost cost;
  cost.call_ns = std::max(0.0, traced_ns - bare_ns);
  cost.span_floor_ns = static_cast<double>(counters.choose_beep_ns) /
                       static_cast<double>(counters.choose_beep_calls);
  return cost;
}

}  // namespace noisybeeps::perfbench
