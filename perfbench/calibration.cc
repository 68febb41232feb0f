#include "calibration.h"

#include <bit>
#include <cstddef>
#include <vector>

#include "tracing.h"

namespace noisybeeps::perfbench {
namespace {

constexpr std::size_t kTableWords = std::size_t{1} << 17;  // 1 MiB

volatile std::uint64_t sink = 0;

const std::vector<std::uint64_t>& Table() {
  static const std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> words(kTableWords);
    for (std::size_t i = 0; i < words.size(); ++i) {
      words[i] = (i + 1) * 0x9e3779b97f4a7c15ULL;
    }
    return words;
  }();
  return table;
}

std::uint64_t MemoryPasses() {
  const std::vector<std::uint64_t>& words = Table();
  std::uint64_t distance = 0;
  for (int pass = 0; pass < 20; ++pass) {
    for (std::size_t i = 0; i < kTableWords; ++i) {
      const std::size_t j = (i * 7 + static_cast<std::size_t>(pass)) &
                            (kTableWords - 1);
      distance +=
          static_cast<std::uint64_t>(std::popcount(words[i] ^ words[j]));
    }
  }
  return distance;
}

std::uint64_t ComputeChain() {
  std::uint64_t z = sink + 1;
  for (int i = 0; i < 4'000'000; ++i) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z ^= z >> 27;
  }
  return z;
}

}  // namespace

double TimeKernel(HostKernel kernel) {
  (void)Table();  // built once, outside the timed span
  const std::int64_t start = NowNs();
  sink = kernel == HostKernel::kMemory ? MemoryPasses() : ComputeChain();
  return static_cast<double>(NowNs() - start) * 1e-9;
}

double NominalSeconds(HostKernel kernel) {
  return kernel == HostKernel::kMemory ? 0.0086 : 0.0094;
}

}  // namespace noisybeeps::perfbench
