// Tests for the benchmark's own machinery: the decorators forward every
// virtual, the traced composition reproduces RunJob, traced counts repeat
// exactly, and the metric names agree with BENCHMARK.json.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "calibration.h"
#include "service/workload.h"
#include "tracing.h"
#include "workloads.h"

namespace noisybeeps::perfbench {
namespace {

// A channel that records which virtuals were called and with what.
class RecordingChannel final : public Channel {
 public:
  void Deliver(std::int64_t num_beepers, std::span<std::uint8_t> received,
               Rng&) const override {
    ++deliver;
    last_beepers = num_beepers;
    for (std::uint8_t& slot : received) slot = 1;
  }
  void DeliverWords(std::int64_t num_beepers,
                    std::span<std::uint64_t> received,
                    std::int64_t num_parties, WordMode mode,
                    Rng&) const override {
    ++deliver_words;
    last_beepers = num_beepers;
    last_parties = num_parties;
    last_mode = mode;
    for (std::uint64_t& word : received) word = 0x5;
  }
  [[nodiscard]] bool is_correlated() const override {
    ++correlated_queries;
    return false;
  }
  [[nodiscard]] std::string name() const override { return "recording"; }

  mutable int deliver = 0;
  mutable int deliver_words = 0;
  mutable int correlated_queries = 0;
  mutable std::int64_t last_beepers = -1;
  mutable std::int64_t last_parties = -1;
  mutable WordMode last_mode = WordMode::kStreamCompat;
};

TEST(TracedChannel, ForwardsEveryVirtual) {
  const RecordingChannel inner;
  LayerCounters counters;
  const TracedChannel traced(inner, counters);
  Rng rng(1);

  std::vector<std::uint8_t> received(5, 0);
  traced.Deliver(3, received, rng);
  EXPECT_EQ(inner.deliver, 1);
  EXPECT_EQ(inner.last_beepers, 3);
  EXPECT_EQ(received, std::vector<std::uint8_t>(5, 1));

  std::vector<std::uint64_t> words(2, 0);
  traced.DeliverWords(7, words, 70, WordMode::kFast, rng);
  EXPECT_EQ(inner.deliver_words, 1);
  EXPECT_EQ(inner.last_beepers, 7);
  EXPECT_EQ(inner.last_parties, 70);
  EXPECT_EQ(inner.last_mode, WordMode::kFast);
  EXPECT_EQ(words, std::vector<std::uint64_t>(2, 0x5));

  EXPECT_FALSE(traced.is_correlated());
  EXPECT_EQ(inner.correlated_queries, 1);
  EXPECT_EQ(traced.name(), "recording");

  EXPECT_EQ(counters.deliver_calls, 1);
  EXPECT_EQ(counters.deliver_words_calls, 1);
  EXPECT_EQ(counters.listener_slots, 5 + 70);
  EXPECT_GE(counters.channel_ns, 0);
}

TEST(TracedChannel, ForwardsCorrelatedAndSharedDelivery) {
  const std::unique_ptr<Channel> inner =
      service::MakeChannel("correlated", 0.25);
  LayerCounters counters;
  const TracedChannel traced(*inner, counters);
  EXPECT_TRUE(traced.is_correlated());
  EXPECT_EQ(traced.name(), inner->name());
  // DeliverShared (non-virtual) routes through the traced Deliver and
  // consumes the same stream as the bare channel.
  Rng a(9);
  Rng b(9);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(traced.DeliverShared(i % 2, a), inner->DeliverShared(i % 2, b));
  }
  EXPECT_EQ(counters.deliver_calls, 64);
  EXPECT_EQ(counters.listener_slots, 64);
}

class ScriptedParty final : public Party {
 public:
  explicit ScriptedParty(int id) : id_(id) {}
  [[nodiscard]] bool ChooseBeep(const BitString& prefix) const override {
    ++choose_calls;
    return (prefix.size() + static_cast<std::size_t>(id_)) % 2 == 0;
  }
  [[nodiscard]] PartyOutput ComputeOutput(const BitString& pi) const override {
    ++output_calls;
    return {static_cast<std::uint64_t>(id_), pi.size()};
  }
  mutable int choose_calls = 0;
  mutable int output_calls = 0;

 private:
  int id_;
};

class ScriptedProtocol final : public Protocol {
 public:
  ScriptedProtocol() : parties_{ScriptedParty(0), ScriptedParty(1),
                                ScriptedParty(2)} {}
  [[nodiscard]] int num_parties() const override { return 3; }
  [[nodiscard]] int length() const override { return 11; }
  [[nodiscard]] const Party& party(int i) const override {
    ++party_lookups;
    return parties_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] const ScriptedParty& inner(int i) const {
    return parties_[static_cast<std::size_t>(i)];
  }
  mutable int party_lookups = 0;

 private:
  std::vector<ScriptedParty> parties_;
};

TEST(TracedProtocol, ForwardsEveryVirtual) {
  const ScriptedProtocol inner;
  LayerCounters counters;
  const TracedProtocol traced(inner, counters);
  EXPECT_EQ(traced.num_parties(), 3);
  EXPECT_EQ(traced.length(), 11);
  EXPECT_EQ(inner.party_lookups, 3);  // each party wrapped once

  BitString prefix(4);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(traced.party(i).ChooseBeep(prefix),
              inner.inner(i).ChooseBeep(prefix));
    EXPECT_EQ(traced.party(i).ComputeOutput(prefix),
              (PartyOutput{static_cast<std::uint64_t>(i), 4}));
    EXPECT_EQ(inner.inner(i).choose_calls, 2);
    EXPECT_EQ(inner.inner(i).output_calls, 1);
  }
  EXPECT_EQ(counters.choose_beep_calls, 3);
  EXPECT_EQ(counters.compute_output_calls, 3);
  EXPECT_THROW((void)traced.party(3), std::invalid_argument);
}

// One trial per workload keeps this test to a few seconds.
class TracedComposition : public ::testing::TestWithParam<WorkloadDef> {};

TEST_P(TracedComposition, ReproducesRunJobAndRepeatsExactly) {
  const service::JobSpec spec = PoolSpec(GetParam(), 0);
  service::JobExecution exec;
  exec.num_workers = 1;
  const service::JobResult untraced = service::RunJob(spec, exec);
  const TracedJob a = RunTracedJob(spec);
  const TracedJob b = RunTracedJob(spec);

  EXPECT_EQ(a.result, untraced);
  EXPECT_EQ(a.result.results_fingerprint, untraced.results_fingerprint);
  EXPECT_EQ(b.result, untraced);
  EXPECT_EQ(a.counters.choose_beep_calls, b.counters.choose_beep_calls);
  EXPECT_EQ(a.counters.compute_output_calls, b.counters.compute_output_calls);
  EXPECT_EQ(a.counters.deliver_calls, b.counters.deliver_calls);
  EXPECT_EQ(a.counters.deliver_words_calls, b.counters.deliver_words_calls);
  EXPECT_EQ(a.counters.listener_slots, b.counters.listener_slots);
  EXPECT_EQ(a.party_rounds, b.party_rounds);
  EXPECT_EQ(a.outputs_digest, b.outputs_digest);

  // The decorators saw the work: every party decided and output, and
  // every noisy round was delivered to all n listeners.
  EXPECT_GT(a.counters.choose_beep_calls, 0);
  EXPECT_EQ(a.counters.compute_output_calls, spec.n);
  std::int64_t rounds = 0;
  for (const auto& [phase, count] : a.result.phases) rounds += count;
  EXPECT_EQ(a.counters.listener_slots, rounds * spec.n);
  EXPECT_LE(a.simulate_ns, a.body_ns);
  EXPECT_LE(a.body_ns, a.resilience_wall_ns);
  EXPECT_LE(a.resilience_wall_ns, a.wall_ns);
}

TEST_P(TracedComposition, PoolJobZeroMatchesExpectedTable) {
  const ExpectedTable table = LoadExpected(NBPERF_EXPECTED);
  for (int index = 0; index < kPoolSize; ++index) {
    EXPECT_EQ(table.count({std::string(GetParam().name), index}), 1u)
        << "pool job " << index << " not recorded";
  }
  service::JobExecution exec;
  exec.num_workers = 1;
  const service::JobSpec spec = PoolSpec(GetParam(), 0);
  const Expected& expected = table.at({std::string(GetParam().name), 0});
  EXPECT_TRUE(MatchesRunJob(expected, service::RunJob(spec, exec)));
  const TracedJob replay = RunTracedJob(spec, /*digest_deliveries=*/true);
  EXPECT_EQ(replay.outputs_digest, expected.outputs_digest);
  EXPECT_EQ(replay.delivery_digest, expected.delivery_digest);
  EXPECT_FALSE(RunTracedJob(spec).delivery_digest.has_value());
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, TracedComposition, ::testing::ValuesIn(kWorkloads),
    [](const ::testing::TestParamInfo<WorkloadDef>& info) {
      return std::string(info.param.name);
    });

TEST(PoolOrder, IsASeededPermutation) {
  for (const WorkloadDef& workload : kWorkloads) {
    const std::vector<int> order = PoolOrder(workload, 7);
    EXPECT_EQ(order, PoolOrder(workload, 7));
    EXPECT_NE(order, PoolOrder(workload, 8));
    EXPECT_EQ(std::set<int>(order.begin(), order.end()).size(),
              static_cast<std::size_t>(kPoolSize));
  }
  EXPECT_NE(PoolSpec(kWorkloads[0], 0).seed, PoolSpec(kWorkloads[0], 1).seed);
  EXPECT_NE(PoolSpec(kWorkloads[0], 0).seed, PoolSpec(kWorkloads[1], 0).seed);
}

TEST(Calibration, BothKernelsRunAndHaveAScale) {
  for (const HostKernel kernel : {HostKernel::kMemory, HostKernel::kCompute}) {
    EXPECT_GT(TimeKernel(kernel), 0.0);
    EXPECT_GT(NominalSeconds(kernel), 0.0);
  }
}

// The "name"/"unit"/"better" triples of one BENCHMARK.json section (up
// to the next top-level key, or to the end of the file).
std::vector<std::string> Section(const std::string& json,
                                 const std::string& key,
                                 const std::string& next_key) {
  const std::size_t begin = json.find("\"" + key + "\"");
  EXPECT_NE(begin, std::string::npos) << key;
  const std::size_t end =
      next_key.empty() ? std::string::npos
                       : json.find("\"" + next_key + "\"", begin);
  const std::string section = json.substr(begin, end - begin);
  static const std::regex kEntry(R"re(\{\s*"name":\s*"([^"]+)",)re"
                                  R"re(\s*"unit":\s*"([^"]+)",)re"
                                  R"re(\s*"better":\s*"([^"]+)")re");
  std::vector<std::string> triples;
  for (std::sregex_iterator it(section.begin(), section.end(), kEntry), last;
       it != last; ++it) {
    triples.push_back((*it)[1].str() + "|" + (*it)[2].str() + "|" +
                      (*it)[3].str());
  }
  return triples;
}

template <std::size_t N>
std::vector<std::string> Triples(const std::array<MetricDef, N>& defs) {
  std::vector<std::string> triples;
  for (const MetricDef& def : defs) {
    triples.push_back(std::string(def.name) + "|" + std::string(def.unit) +
                      "|" + std::string(def.better));
  }
  return triples;
}

TEST(BenchmarkJson, MetricsAndWorkloadsMatchNbperf) {
  std::ifstream in(NBPERF_BENCHMARK_JSON);
  ASSERT_TRUE(in) << NBPERF_BENCHMARK_JSON;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_EQ(Section(json, "end_to_end", "per_layer"),
            Triples(kEndToEndMetrics));
  EXPECT_EQ(Section(json, "per_layer", ""),
            Triples(kPerLayerMetrics));
  for (const WorkloadDef& workload : kWorkloads) {
    EXPECT_NE(json.find("\"name\": \"" + std::string(workload.name) + "\""),
              std::string::npos)
        << workload.name;
  }
}

}  // namespace
}  // namespace noisybeeps::perfbench
