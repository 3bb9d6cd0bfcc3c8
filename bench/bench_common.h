// Shared benchmark harness helpers.
//
// Scale control: CEJ_BENCH_SCALE=full runs paper-sized inputs; the default
// ("laptop") divides relation sizes so each binary finishes in minutes on a
// single core. Shapes (who wins, crossover positions, slopes) are the
// reproduction target, not absolute times. Recorded, oracle-checked
// numbers come from the benchmark suite instead — see
// bench/suite/README.md.

#ifndef CEJ_BENCH_BENCH_COMMON_H_
#define CEJ_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cej/common/cpu_info.h"
#include "cej/common/thread_pool.h"
#include "cej/common/timer.h"

namespace cej::bench {

/// True when CEJ_BENCH_SCALE=full is set.
inline bool FullScale() {
  const char* env = std::getenv("CEJ_BENCH_SCALE");
  return env != nullptr && std::strcmp(env, "full") == 0;
}

/// True when CEJ_BENCH_SCALE=smoke is set: tiny inputs, seconds per
/// binary — the CI anti-bit-rot configuration, not a measurement.
inline bool SmokeScale() {
  const char* env = std::getenv("CEJ_BENCH_SCALE");
  return env != nullptr && std::strcmp(env, "smoke") == 0;
}

/// Picks the laptop-scale or paper-scale value.
inline size_t Scaled(size_t laptop, size_t paper) {
  return FullScale() ? paper : laptop;
}

/// Prints the standard bench preamble (binary name, machine, scale).
inline void PrintHeader(const char* name, const char* paper_ref) {
  std::printf("# %s — reproduces %s\n", name, paper_ref);
  std::printf("# host: %s | scale: %s\n", CpuInfo::Describe().c_str(),
              FullScale()    ? "full (paper sizes)"
              : SmokeScale() ? "smoke (CI tiny sizes)"
                             : "laptop (scaled down)");
}

/// Times `fn` once and returns milliseconds.
template <typename Fn>
double TimeMs(Fn&& fn) {
  WallTimer timer;
  fn();
  return timer.ElapsedMillis();
}

/// The shared pool all benches use (hardware-thread sized).
inline ThreadPool& Pool() { return ThreadPool::Default(); }

}  // namespace cej::bench

#endif  // CEJ_BENCH_BENCH_COMMON_H_
