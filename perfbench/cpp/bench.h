// Shared pieces of the three workloads: the round result, a seeded
// random stream, exact percentiles and the host clock. Nothing here
// calls into the program; that is adapter.h's job.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <time.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "adapter.h"

namespace perfbench {

/** What one round (set-up plus one measured simulated phase) yields. */
struct RoundResult {
  double setup_s = 0;
  double run_s = 0;
  /** Client operations completed in the whole phase (host_ns_per_op). */
  int64_t ops = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  /** Output-check failures; any entry makes the run incorrect. */
  std::vector<std::string> errors;
  /** sim_* metrics: simulated time only, exact at a fixed seed. */
  std::map<std::string, double> sim;
  /** Workload-specific per-layer values not in LayerStats. */
  std::map<std::string, double> extra;
  LayerStats layers;
};

/** Sizes of one run: the full benchmark or the reduced self-check. */
struct Scale {
  bool small = false;
  /** Picks the full or the reduced value. */
  template <typename T>
  T Pick(T full, T reduced) const {
    return small ? reduced : full;
  }
};

RoundResult RunTenants2k(uint64_t seed, bool traced, const Scale& scale);
RoundResult RunClusterRw(uint64_t seed, bool traced, const Scale& scale);
RoundResult RunKvLsm(uint64_t seed, bool traced, const Scale& scale);

/** SplitMix64-seeded xorshift stream: the benchmark's own inputs. */
class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream) {
    uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
    for (uint64_t& s : s_) {
      z += 0x9e3779b97f4a7c15ULL;
      uint64_t x = z;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      s = x ^ (x >> 31);
    }
  }
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t n) { return Next() % n; }
  bool Chance(double p) { return Uniform() < p; }
  /** Exponential gap with the given mean, rounded to whole ns (>= 1). */
  TimeNs Gap(double mean_ns) {
    const double g = -std::log(1.0 - Uniform()) * mean_ns;
    return std::max<TimeNs>(1, static_cast<TimeNs>(g));
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

/**
 * The writes of one key or block, for checking what a read of it may
 * return. Writes are identified by a version unique within the history.
 */
class WriteHistory {
 public:
  void Issued(uint64_t version, TimeNs at) {
    writes_.push_back(Write{version, at, -1});
  }
  void Completed(uint64_t version, TimeNs at) {
    for (Write& w : writes_) {
      if (w.version == version) w.done = at;
    }
  }

  /**
   * True when a read issued at `issue` and completed at `done` may
   * return `version`: it was in flight during the read, or it had
   * completed and no write that started after it completed had
   * finished before the read was issued. A write that never completed
   * (unknown outcome) stays acceptable.
   */
  bool Acceptable(uint64_t version, TimeNs issue, TimeNs done) const {
    for (const Write& w : writes_) {
      if (w.version != version) continue;
      if (w.issue > done) return false;
      if (w.done < 0) return true;
      for (const Write& o : writes_) {
        if (o.done >= 0 && o.issue > w.done && o.done < issue) return false;
      }
      return true;
    }
    return false;
  }

  /** True when some write had completed before `t`. */
  bool AnyCompletedBefore(TimeNs t) const {
    for (const Write& w : writes_) {
      if (w.done >= 0 && w.done < t) return true;
    }
    return false;
  }

  /** Forgets writes that a write completed before `horizon` overwrote. */
  void Prune(TimeNs horizon) {
    std::vector<Write> keep;
    for (const Write& w : writes_) {
      bool dead = false;
      for (const Write& v : writes_) {
        if (w.done >= 0 && v.done >= 0 && v.issue > w.done &&
            v.done < horizon) {
          dead = true;
          break;
        }
      }
      if (!dead) keep.push_back(w);
    }
    writes_.swap(keep);
  }

 private:
  struct Write {
    uint64_t version;
    TimeNs issue;
    TimeNs done;  // -1 while in flight
  };
  std::vector<Write> writes_;
};

/** Nearest-rank percentile of `v` in microseconds (0 when empty). */
inline double PercentileUs(std::vector<TimeNs> v, double q) {
  if (v.empty()) return 0.0;
  const size_t n = v.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank), v.end());
  return static_cast<double>(v[rank]) / 1e3;
}

/**
 * Host time of this (single) thread: CPU time, so that time the thread
 * spends descheduled by other processes on a shared machine is not
 * billed to the simulator.
 */
struct HostClock {
  using time_point = double;
  static time_point now() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }
};

inline double SecondsSince(HostClock::time_point t0) {
  return HostClock::now() - t0;
}

/** Wall-clock seconds, for the run's time budget only. */
inline double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
