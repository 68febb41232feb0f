// nbtables: regenerates the headline tables of EXPERIMENTS.md as markdown.
//
// Where the bench/ binaries expose each experiment as google-benchmark
// counters, this tool runs the four headline sweeps (E1 upper bound, E2
// lower bound, E3 asymmetry, E10 burst robustness) end to end and prints
// ready-to-paste markdown, so the documented numbers are regenerable with
// one command:
//
//   nbtables [--trials K] [--seed S] [--fast]
#include <cstdio>

#include "channel/burst.h"
#include "channel/correlated.h"
#include "channel/one_sided.h"
#include "coding/rewind_sim.h"
#include "protocol/executor.h"
#include "tasks/bit_exchange.h"
#include "tasks/input_set.h"
#include "util/flags.h"
#include "util/math.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace noisybeeps;

struct Cell {
  double blowup = 0;
  double success = 0;
  // 95% Wilson lower bound on the success rate.
  double success_low = 0;
};

struct TrialOutcome {
  bool ok = false;
  double blowup = 0;
};

Cell Aggregate(const std::vector<TrialOutcome>& outcomes) {
  SuccessCounter counter;
  RunningStat blowup;
  for (const TrialOutcome& o : outcomes) {
    counter.Record(o.ok);
    blowup.Add(o.blowup);
  }
  return Cell{blowup.mean(), counter.rate(), counter.interval().low};
}

// Trials are fanned out with ParallelTrials: per-trial Rngs are split
// deterministically up front, so the numbers are identical for any worker
// count.  `workers = 1` forces serial execution, required for channels
// that carry hidden state (the burst channel's Markov chain).
Cell MeasureInputSet(const Simulator& sim, const Channel& channel, int n,
                     int trials, Rng& rng, int workers = 0) {
  const auto body =
      [&sim, &channel, n](int, Rng& trial_rng) {
        const InputSetInstance instance = SampleInputSet(n, trial_rng);
        const auto protocol = MakeInputSetProtocol(instance);
        const SimulationResult result =
            sim.Simulate(*protocol, channel, trial_rng);
        return TrialOutcome{!result.budget_exhausted() &&
                                InputSetAllCorrect(instance, result.outputs),
                            static_cast<double>(result.noisy_rounds_used) /
                                protocol->length()};
      };
  return Aggregate(ParallelTrials(trials, rng, body, workers));
}

Cell MeasureBitExchange(const Simulator& sim, const Channel& channel, int n,
                        int trials, Rng& rng, int workers = 0) {
  const auto body =
      [&sim, &channel, n](int, Rng& trial_rng) {
        const BitExchangeInstance instance =
            SampleBitExchange(n, 8, trial_rng);
        const auto protocol = MakeBitExchangeProtocol(instance);
        const SimulationResult result =
            sim.Simulate(*protocol, channel, trial_rng);
        return TrialOutcome{
            !result.budget_exhausted() &&
                BitExchangeAllCorrect(instance, result.outputs),
            static_cast<double>(result.noisy_rounds_used) /
                protocol->length()};
      };
  return Aggregate(ParallelTrials(trials, rng, body, workers));
}

double LogN(int n) {
  return CeilLog2(static_cast<std::uint64_t>(n < 2 ? 2 : n));
}

void TableE1(int trials, std::uint64_t seed, bool fast) {
  std::printf("## E1 -- Theorem 1.2: O(log n) overhead (rewind, eps=0.05)\n\n");
  std::printf(
      "| n | blowup | blowup/log2(n) | success | 95%% Wilson lower bound |\n"
      "|---|---|---|---|---|\n");
  const CorrelatedNoisyChannel channel(0.05);
  const RewindSimulator sim;
  for (int n : {8, 16, 32, 64, 128, 256, 512}) {
    if (fast && n > 32) continue;
    Rng rng(seed + 1000 + n);
    const Cell cell = MeasureInputSet(sim, channel, n, trials, rng);
    std::printf("| %d | %.1f | %.1f | %.0f%% | %.1f%% |\n", n, cell.blowup,
                cell.blowup / LogN(n), 100 * cell.success,
                100 * cell.success_low);
  }
  std::printf("\n");
}

void TableE2(int trials, std::uint64_t seed, bool fast) {
  std::printf(
      "## E2 -- Theorem 1.1: minimal repetition r* for 90%% success "
      "(one-sided-up eps=1/3)\n\n");
  std::printf("| n | r* | r*/log2(n) |\n|---|---|---|\n");
  const OneSidedUpChannel channel(1.0 / 3.0);
  for (int n : {4, 8, 16, 32, fast ? 32 : 64}) {
    if (n == 32 && fast) continue;
    Rng rng(seed + 5000 + n);
    int r_star = -1;
    for (int r = 1; r <= 128 && r_star < 0; ++r) {
      SuccessCounter counter;
      for (int t = 0; t < trials; ++t) {
        const InputSetInstance instance = SampleInputSet(n, rng);
        const auto protocol = MakeRepeatedInputSetProtocol(
            instance, r, RoundDecision::kAllOnes);
        const ExecutionResult result = Execute(*protocol, channel, rng);
        counter.Record(InputSetAllCorrect(instance, result.outputs));
      }
      if (counter.rate() >= 0.9) r_star = r;
    }
    std::printf("| %d | %d | %.2f |\n", n, r_star, r_star / LogN(n));
  }
  std::printf("\n");
}

void TableE3(int trials, std::uint64_t seed, bool fast) {
  std::printf(
      "## E3 -- Section 2 asymmetry: blowup by noise direction "
      "(BitExchange, eps=0.10)\n\n");
  std::printf(
      "| n | 1->0 blowup | 0->1 blowup | ratio |\n|---|---|---|---|\n");
  const OneSidedDownChannel down(0.10);
  const OneSidedUpChannel up(0.10);
  const RewindSimulator down_sim(RewindSimOptions::DownOnly());
  const RewindSimulator up_sim;
  for (int n : {8, 16, 32, 64, fast ? 64 : 128}) {
    if (n == 64 && fast) continue;
    Rng rng_a(seed + 7000 + n);
    Rng rng_b(seed + 8000 + n);
    const Cell d = MeasureBitExchange(down_sim, down, n, trials, rng_a);
    const Cell u = MeasureBitExchange(up_sim, up, n, trials, rng_b);
    std::printf("| %d | %.2f | %.1f | %.1fx |\n", n, d.blowup, u.blowup,
                u.blowup / d.blowup);
  }
  std::printf("\n");
}

void TableE11(int trials, std::uint64_t seed, bool fast) {
  std::printf(
      "## E11 -- ownership landscape: scheduled (EKS18 regime) vs anonymous "
      "(BitExchange, two-sided eps=0.05)\n\n");
  std::printf("| n | scheduled | anonymous | gap |\n|---|---|---|---|\n");
  const CorrelatedNoisyChannel channel(0.05);
  for (int n : {8, 16, 32, fast ? 32 : 64}) {
    if (n == 32 && fast) continue;
    Rng rng_a(seed + 11000 + n);
    Rng rng_b(seed + 12000 + n);
    const RewindSimulator scheduled(
        RewindSimOptions::Scheduled(BitExchangeSchedule(n, 8)));
    const RewindSimulator anonymous;
    const Cell s = MeasureBitExchange(scheduled, channel, n, trials, rng_a);
    const Cell a = MeasureBitExchange(anonymous, channel, n, trials, rng_b);
    std::printf("| %d | %.1f | %.1f | %.1fx |\n", n, s.blowup, a.blowup,
                a.blowup / s.blowup);
  }
  std::printf("\n");
}

void TableE10(int trials, std::uint64_t seed) {
  std::printf(
      "## E10 -- burst robustness (n=16, stationary rate 0.05)\n\n");
  std::printf("| mean burst | success | blowup |\n|---|---|---|\n");
  const RewindSimulator sim;
  {
    Rng rng(seed + 9000);
    const CorrelatedNoisyChannel iid(0.05);
    const Cell cell = MeasureInputSet(sim, iid, 16, trials, rng);
    std::printf("| iid control | %.0f%% | %.1f |\n", 100 * cell.success,
                cell.blowup);
  }
  for (int burst : {2, 10, 50}) {
    Rng rng(seed + 9100 + burst);
    const double p_bg = 1.0 / burst;
    const BurstNoisyChannel channel(0.0, 0.4, p_bg / 7.0, p_bg);
    const Cell cell =
        MeasureInputSet(sim, channel, 16, trials, rng, /*workers=*/1);
    std::printf("| %d | %.0f%% | %.1f |\n", burst, 100 * cell.success,
                cell.blowup);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Flags flags(argc, argv);
    const int trials = static_cast<int>(flags.GetInt("trials", 8));
    const std::uint64_t seed =
        static_cast<std::uint64_t>(flags.GetInt("seed", 1));
    const bool fast = flags.GetBool("fast", false);
    for (const std::string& unknown : flags.UnconsumedFlags()) {
      std::fprintf(stderr, "unknown flag: --%s\n", unknown.c_str());
      return 2;
    }
    std::printf("# noisybeeps headline tables (trials=%d, seed=%llu)\n\n",
                trials, static_cast<unsigned long long>(seed));
    TableE1(trials, seed, fast);
    TableE2(trials * 5, seed, fast);  // cheap cells, more trials
    TableE3(trials, seed, fast);
    TableE10(trials, seed);
    TableE11(trials, seed, fast);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nbtables: %s\n", e.what());
    return 2;
  }
}
