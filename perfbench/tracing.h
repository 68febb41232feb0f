// Tracing from outside the program: timing/counting decorators over the
// Channel, Protocol and Party virtual interfaces, and RunJob's trial body
// re-composed from the public factories with those decorators in place.
//
// Nothing here changes what is computed.  A decorator forwards every
// virtual to the object it wraps and only reads a clock and bumps counters
// around the call, so a traced job draws the same random numbers in the
// same order as RunJob and must produce the same results_fingerprint.
// RunTracedJob's result is trusted only when it does.
//
// Single-threaded by design: traced jobs run at workers=1 and the
// counters are plain integers.
#ifndef NOISYBEEPS_PERFBENCH_TRACING_H_
#define NOISYBEEPS_PERFBENCH_TRACING_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "channel/channel.h"
#include "protocol/party.h"
#include "protocol/protocol.h"
#include "service/job_spec.h"
#include "service/workload.h"

namespace noisybeeps::perfbench {

[[nodiscard]] inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Counts and busy time at the Channel and Party boundaries.
struct LayerCounters {
  std::int64_t choose_beep_calls = 0;
  std::int64_t compute_output_calls = 0;
  std::int64_t deliver_calls = 0;
  std::int64_t deliver_words_calls = 0;
  std::int64_t listener_slots = 0;
  std::int64_t choose_beep_ns = 0;
  std::int64_t compute_output_ns = 0;
  std::int64_t channel_ns = 0;

  // Calls that went through a timed wrapper.
  [[nodiscard]] std::int64_t timed_calls() const {
    return choose_beep_calls + compute_output_calls + deliver_calls +
           deliver_words_calls;
  }
};

class TracedChannel final : public Channel {
 public:
  // With a non-null `delivery_digest`, every round's beeper count and
  // received bits are folded into it after the timed span: a fingerprint
  // of the channel's seeded noise stream, for replays that are not timed.
  TracedChannel(const Channel& inner, LayerCounters& counters,
                std::uint64_t* delivery_digest = nullptr)
      : inner_(inner), counters_(counters), delivery_digest_(delivery_digest) {}

  void Deliver(std::int64_t num_beepers, std::span<std::uint8_t> received,
               Rng& rng) const override;
  void DeliverWords(std::int64_t num_beepers,
                    std::span<std::uint64_t> received,
                    std::int64_t num_parties, WordMode mode,
                    Rng& rng) const override;
  [[nodiscard]] bool is_correlated() const override {
    return inner_.is_correlated();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  const Channel& inner_;
  LayerCounters& counters_;
  std::uint64_t* delivery_digest_;
};

class TracedParty final : public Party {
 public:
  TracedParty(const Party& inner, LayerCounters& counters)
      : inner_(&inner), counters_(&counters) {}

  [[nodiscard]] bool ChooseBeep(
      const BitString& transcript_prefix) const override;
  [[nodiscard]] PartyOutput ComputeOutput(const BitString& pi) const override;

 private:
  const Party* inner_;
  LayerCounters* counters_;
};

class TracedProtocol final : public Protocol {
 public:
  TracedProtocol(const Protocol& inner, LayerCounters& counters);

  [[nodiscard]] int num_parties() const override {
    return inner_.num_parties();
  }
  [[nodiscard]] int length() const override { return inner_.length(); }
  [[nodiscard]] const Party& party(int i) const override;

 private:
  const Protocol& inner_;
  std::vector<TracedParty> parties_;
};

// One traced job: RunJob's outputs plus where the time went.
struct TracedJob {
  service::JobResult result;
  // FNV-1a over what each trial's SimulationResult holds beyond RunJob's
  // TrialPoint: every party's transcript, owners and output, and the
  // verdict details.  RunJob's fingerprint sees only rounds, phases and
  // verdicts, which repeat across most seeds of these workloads.
  std::uint64_t outputs_digest = 0;
  // Every delivered round (see TracedChannel), when requested: it moves
  // whenever the beeps or the channel's noise stream do, even where the
  // scheme's decoding absorbs the difference.
  std::optional<std::uint64_t> delivery_digest;
  LayerCounters counters;
  // Sum over trials of n * T: the party-rounds of the noiseless protocol.
  std::int64_t party_rounds = 0;
  // Host time, excluding the benchmark's own digest computation.
  std::int64_t wall_ns = 0;             // the whole job
  std::int64_t service_ns = 0;          // validation, factories, aggregation
  std::int64_t resilience_wall_ns = 0;  // the ResilientTrials call
  std::int64_t body_ns = 0;             // trial bodies inside it
  std::int64_t make_workload_ns = 0;    // MakeWorkload + instance teardown
  std::int64_t judge_ns = 0;            // the task judge
  std::int64_t simulate_ns = 0;         // Simulator::Simulate calls
};

// RunJob(spec, {num_workers = 1}) re-composed with the decorators in
// place.  Supports the specs the benchmark runs: no checkpointing, no
// fail plan (the fault plan is applied exactly as RunJob applies it).
// `digest_deliveries` fills delivery_digest at the cost of distorting the
// channel and coding times.
[[nodiscard]] TracedJob RunTracedJob(const service::JobSpec& spec,
                                     bool digest_deliveries = false);

// The cost of the probe itself, from an empty Party wrapped in a
// TracedParty: `call_ns` is what one timed call adds over the bare
// virtual call; `span_floor_ns` is the time such a call records for an
// empty body (the part of call_ns that lands inside the span).
struct ProbeCost {
  double call_ns = 0;
  double span_floor_ns = 0;
};

[[nodiscard]] ProbeCost MeasureProbeCost();

}  // namespace noisybeeps::perfbench

#endif  // NOISYBEEPS_PERFBENCH_TRACING_H_
