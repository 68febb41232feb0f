#include "workloads.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "util/require.h"
#include "util/rng.h"

namespace noisybeeps::perfbench {

namespace {

// Distinct per-workload streams for pool seeds and pool orders: the
// workload's 1-based position in kWorkloads.
std::uint64_t WorkloadSalt(const WorkloadDef& workload) {
  const WorkloadDef* known = FindWorkload(workload.name);
  NB_REQUIRE(known != nullptr, "unknown workload");
  return static_cast<std::uint64_t>(known - kWorkloads.data()) + 1;
}

}  // namespace

const WorkloadDef* FindWorkload(std::string_view name) {
  for (const WorkloadDef& workload : kWorkloads) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

service::JobSpec PoolSpec(const WorkloadDef& workload, int index) {
  service::JobSpec spec;
  spec.task = std::string(workload.task);
  spec.channel = std::string(workload.channel);
  spec.sim = std::string(workload.sim);
  spec.n = workload.n;
  spec.eps = workload.eps;
  spec.trials = 1;
  Rng seeds(0x6e62706f6f6c0000ULL + WorkloadSalt(workload));
  for (int i = 0; i < index; ++i) (void)seeds.NextU64();
  spec.seed = seeds.NextU64();
  return spec;
}

std::vector<int> PoolOrder(const WorkloadDef& workload, std::uint64_t seed) {
  std::vector<int> order(kPoolSize);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + WorkloadSalt(workload));
  for (int i = kPoolSize - 1; i > 0; --i) {
    const auto j = static_cast<int>(rng.NextU64() %
                                    static_cast<std::uint64_t>(i + 1));
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(j)]);
  }
  return order;
}

bool MatchesRunJob(const Expected& expected,
                   const service::JobResult& result) {
  return expected.fingerprint == result.results_fingerprint &&
         expected.verdicts == result.verdicts;
}

ExpectedTable LoadExpected(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  ExpectedTable table;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload;
    int index = -1;
    std::string fingerprint_hex;
    std::string outputs_hex;
    std::string delivery_hex;
    Expected expected;
    if (!(fields >> workload >> index >> fingerprint_hex >> outputs_hex >>
          delivery_hex >>
          expected.verdicts[0] >> expected.verdicts[1] >>
          expected.verdicts[2]) ||
        FindWorkload(workload) == nullptr || index < 0 ||
        index >= kPoolSize) {
      throw std::runtime_error(path + ":" + std::to_string(line_no) +
                               ": malformed line");
    }
    expected.fingerprint = std::stoull(fingerprint_hex, nullptr, 16);
    expected.outputs_digest = std::stoull(outputs_hex, nullptr, 16);
    expected.delivery_digest = std::stoull(delivery_hex, nullptr, 16);
    table[{workload, index}] = expected;
  }
  return table;
}

std::string ExpectedLine(std::string_view workload, int index,
                         const Expected& expected) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "%.*s\t%d\t%016" PRIx64 "\t%016" PRIx64 "\t%016" PRIx64
                "\t%" PRId64 "\t%" PRId64 "\t%" PRId64 "\n",
                static_cast<int>(workload.size()), workload.data(), index,
                expected.fingerprint, expected.outputs_digest,
                expected.delivery_digest,
                expected.verdicts[0], expected.verdicts[1],
                expected.verdicts[2]);
  return buffer;
}

}  // namespace noisybeeps::perfbench
