// cluster_rw: a 4-shard cluster with 2-way replication and
// power-of-two read steering.
//
//  - 4 latency-critical tenants, open loop (Poisson), 20% writes; 3 in
//    4 requests are 4 KB and 1 in 4 is 16 KB, which mostly crosses a
//    16 KB stripe boundary and fans out to two shards.
//  - 1 best-effort tenant, closed loop at queue depth 4, 4 KB reads.
//  - One live migration batch moves the first stripes of the working
//    set off shard 0 while the tenants keep writing them.
//
// Every write stamps (tenant, sector, sequence) into each sector, and
// every read is checked against this file's own record of the writes:
// a sector must hold a write that had completed before the read was
// issued and was not yet overwritten, or one in flight during the read.
// Every latency-critical tenant's read p95 must stay within its SLO.
//
// Why: the event engine, net, the cluster fan-out, steering, migration
// and the client do the work here, with so few tenants that a fix to
// the scheduler's per-tenant walks should change nothing.

#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

constexpr TimeNs kWarmup = 20 * kMs;
constexpr TimeNs kLcSlo = 500 * kUs;
constexpr int kShards = 4;
constexpr int kReplication = 2;
constexpr uint32_t kMigrationSlots = 64;
/** 16 KB stripes. With the default 64 KB stripe, eight concurrent
 * best-effort copy writes of 160 tokens each outwait the migration's
 * 2 ms copy timeout whenever latency-critical tenants hold
 * reservations, and every batch aborts (see README). */
constexpr uint32_t kStripeSectors = 32;
constexpr uint64_t kWorkingStripes = 2048;
constexpr uint64_t kMigratedStripes = 64;
constexpr double kLcIops = 8000.0;
constexpr double kWriteShare = 0.2;
constexpr double kLargeShare = 0.25;
constexpr uint32_t kSmallSectors = 8;
/** 16 KB: one stripe unit, so 3 in 4 large requests cross a stripe
 * boundary and fan out. With 32 KB the tenants leave their SLO (read
 * p95 0.7-2.1 ms at seeds 1-2) and writes reach the client timeout (see
 * README, "Faults found"). */
constexpr uint32_t kLargeSectors = 32;
constexpr int kBeDepth = 4;
constexpr uint32_t kMagic = 0x5eb1c0de;

/** One write's stamp as stored at the head of every sector. */
struct Stamp {
  uint32_t magic;
  uint32_t tenant;
  uint64_t lba;
  uint64_t seq;
};

/**
 * Fixed-size payload buffers. A buffer is reused only a grace period
 * after its request completed, so that a late response to an abandoned
 * attempt cannot land in a buffer that already serves another request.
 */
class BufferPool {
 public:
  BufferPool(size_t bytes, TimeNs grace) : bytes_(bytes), grace_(grace) {}
  uint8_t* Get(TimeNs now) {
    if (!released_.empty() && released_.front().first <= now) {
      uint8_t* b = released_.front().second;
      released_.pop_front();
      return b;
    }
    owned_.push_back(std::make_unique<uint8_t[]>(bytes_));
    return owned_.back().get();
  }
  void Release(uint8_t* b, TimeNs now) {
    released_.emplace_back(now + grace_, b);
  }

 private:
  size_t bytes_;
  TimeNs grace_;
  std::vector<std::unique_ptr<uint8_t[]>> owned_;
  std::deque<std::pair<TimeNs, uint8_t*>> released_;
};

struct Tenant {
  Session* session = nullptr;
  uint32_t id = 0;
  bool be = false;
  Rng rng{0, 0};
  int64_t issued = 0;
  int64_t completed = 0;
  /** Latency-critical only: latencies of the reads issued in the window. */
  std::vector<TimeNs> reads;
};

}  // namespace

RoundResult RunClusterRw(uint64_t seed, bool traced, const Scale& scale) {
  const TimeNs window = scale.Pick<TimeNs>(2000 * kMs, 400 * kMs);
  const TimeNs end = kWarmup + window;
  const TimeNs migrate_at = kWarmup + window / 4;

  RoundResult res;
  const HostClock::time_point setup_start = HostClock::now();
  WorldOptions wo;
  wo.shards = kShards;
  wo.replication = kReplication;
  wo.migration_slots = kMigrationSlots;
  wo.stripe_sectors = kStripeSectors;
  wo.seed = seed;
  wo.traced = traced;
  World world(wo);
  const uint32_t stripe = world.stripe_sectors();
  const uint64_t blocks = kWorkingStripes * stripe / 8;

  std::vector<std::unique_ptr<Tenant>> tenants;
  for (int k = 0; k < 5; ++k) {
    const bool be = k == 4;
    Slo slo;
    if (!be) {
      // Every write spends tokens on both replicas, and a quarter of
      // the requests are 16 KB: reserve for that mix, with headroom
      // over the offered rate.
      slo.iops = static_cast<uint32_t>(kLcIops * 1.3);
      slo.read_fraction = 1.0 - kWriteShare * kReplication;
      slo.p95 = kLcSlo;
      slo.request_bytes = 12288;
    }
    const int id = world.RegisterTenant(!be, slo);
    if (id < 0) {
      res.errors.push_back("cluster tenant refused admission");
      return res;
    }
    auto t = std::make_unique<Tenant>();
    t->session = world.AttachCluster(id, 2, seed * 131 + k);
    t->id = static_cast<uint32_t>(k + 1);
    t->be = be;
    t->rng = Rng(seed, 100 + k);
    tenants.push_back(std::move(t));
  }
  res.setup_s = SecondsSince(setup_start);

  // Twice the longest an attempt can stay in flight under the retry
  // policy.
  const TimeNs grace = 2 * ClusterRequestLifetime();
  BufferPool small_pool(kSmallSectors * kSectorBytes, grace);
  BufferPool large_pool(kLargeSectors * kSectorBytes, grace);
  std::vector<WriteHistory> history(blocks);
  // Issue times of the reads in flight: a write overwritten before the
  // earliest of them (or before now) can no longer be returned.
  std::multiset<TimeNs> reads_in_flight;
  uint64_t next_seq = 1;
  int64_t outstanding = 0;
  int64_t window_ops = 0;
  int64_t be_window_ops = 0;
  int64_t stale_reads = 0;
  std::vector<TimeNs> reads;
  std::vector<TimeNs> writes;
  bool migrated = false;
  TimeNs migration_ns = 0;

  // True when sector data `p` (of block `b`, sector `lba`) is a value a
  // read issued at `issue` and completed at `done` may return.
  auto valid = [&](const uint8_t* p, uint64_t b, uint64_t lba, TimeNs issue,
                   TimeNs done) {
    Stamp s;
    std::memcpy(&s, p, sizeof s);
    if (s.magic != kMagic) {
      for (uint32_t i = 0; i < kSectorBytes; ++i) {
        if (p[i] != 0) return false;
      }
      // Never-written flash: only while no write had completed.
      return !history[b].AnyCompletedBefore(issue);
    }
    return s.lba == lba && history[b].Acceptable(s.seq, issue, done);
  };

  std::function<void(Tenant*)> issue = [&](Tenant* t) {
    const bool write = !t->be && t->rng.Chance(kWriteShare);
    const uint32_t sectors =
        !t->be && t->rng.Chance(kLargeShare) ? kLargeSectors : kSmallSectors;
    const uint64_t first_block = t->rng.Below(blocks - sectors / 8 + 1);
    const uint64_t lba = first_block * 8;
    BufferPool& pool = sectors == kLargeSectors ? large_pool : small_pool;
    uint8_t* buf = pool.Get(world.Now());
    ++t->issued;
    ++outstanding;
    const uint64_t seq = write ? next_seq++ : 0;
    const TimeNs issued_at = world.Now();
    if (!write) reads_in_flight.insert(issued_at);
    if (write) {
      std::memset(buf, 0, sectors * kSectorBytes);
      for (uint32_t i = 0; i < sectors; ++i) {
        const Stamp s{kMagic, t->id, lba + i, seq};
        std::memcpy(buf + i * kSectorBytes, &s, sizeof s);
      }
      for (uint32_t b = 0; b < sectors / 8; ++b) {
        history[first_block + b].Issued(seq, world.Now());
      }
    }
    auto done = [&, t, write, sectors, lba, first_block, buf, seq, issued_at,
                 pool_ptr = &pool](const IoDone& d) {
      --outstanding;
      if (!write) reads_in_flight.erase(reads_in_flight.find(issued_at));
      ++t->completed;
      ++res.ops;
      bool ok = d.ok;
      if (write && d.ok) {
        // A failed write's outcome is unknown: it stays "in flight"
        // for the checker, so it may show up in any later read.
        const TimeNs horizon = reads_in_flight.empty()
                                   ? d.done
                                   : std::min(d.done, *reads_in_flight.begin());
        for (uint32_t b = 0; b < sectors / 8; ++b) {
          history[first_block + b].Completed(seq, d.done);
          history[first_block + b].Prune(horizon);
        }
      } else if (!write && ok) {
        for (uint32_t i = 0; i < sectors && ok; ++i) {
          ok = valid(buf + i * kSectorBytes, first_block + i / 8, lba + i,
                     d.issue, d.done);
        }
        if (!ok) ++stale_reads;
      }
      if (!ok) ++res.failed;
      pool_ptr->Release(buf, d.done);
      if (d.done >= kWarmup && d.done < end) {
        ++window_ops;
        if (t->be) ++be_window_ops;
      }
      if (ok && d.issue >= kWarmup && d.issue < end) {
        (write ? writes : reads).push_back(d.done - d.issue);
        if (!write && !t->be) t->reads.push_back(d.done - d.issue);
      }
      if (t->be && world.Now() < end) issue(t);
    };
    if (write) {
      world.Write(t->session, lba, sectors, buf, -1, done);
    } else {
      world.Read(t->session, lba, sectors, buf, -1, done);
    }
  };
  std::function<void(Tenant*)> arrive = [&](Tenant* t) {
    if (world.Now() >= end) return;
    issue(t);
    world.At(world.Now() + t->rng.Gap(1e9 / kLcIops), [&, t] { arrive(t); });
  };
  for (auto& t : tenants) {
    Tenant* p = t.get();
    if (p->be) {
      world.At(0, [&, p] {
        for (int q = 0; q < kBeDepth; ++q) issue(p);
      });
    } else {
      world.At(p->rng.Gap(1e9 / kLcIops), [&, p] { arrive(p); });
    }
  }
  world.At(migrate_at, [&] {
    ++outstanding;
    world.Migrate(0, 1, 0, kMigratedStripes, [&](bool committed) {
      --outstanding;
      migrated = committed;
      migration_ns = world.Now() - migrate_at;
    });
  });

  const HostClock::time_point run_start = HostClock::now();
  world.RunUntil(end);
  while (outstanding > 0 && world.Now() < end + 5000 * kMs) {
    world.RunUntil(world.Now() + kMs);
  }
  res.run_s = SecondsSince(run_start);

  if (outstanding != 0) res.errors.push_back("requests never completed");
  if (!migrated) res.errors.push_back("the migration batch did not commit");
  for (const auto& t : tenants) {
    res.attempted += t->issued;
    if (t->completed != t->issued) {
      res.errors.push_back("a tenant completed fewer requests than it issued");
    }
    if (t->be) continue;
    const double p95 = PercentileUs(t->reads, 0.95);
    if (t->reads.empty() || p95 > static_cast<double>(kLcSlo) / 1e3) {
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    "LC tenant read p95 %.1f us exceeds its %.0f us SLO", p95,
                    static_cast<double>(kLcSlo) / 1e3);
      res.errors.push_back(buf);
    }
  }

  const double window_s = static_cast<double>(window) / 1e9;
  res.sim["sim_iops"] = static_cast<double>(window_ops) / window_s;
  res.sim["sim_be_iops"] = static_cast<double>(be_window_ops) / window_s;
  res.sim["sim_read_p50_us"] = PercentileUs(reads, 0.50);
  res.sim["sim_read_p999_us"] = PercentileUs(reads, 0.999);
  res.sim["sim_write_p50_us"] = PercentileUs(writes, 0.50);
  res.sim["sim_write_p999_us"] = PercentileUs(writes, 0.999);

  res.layers = world.Stats();
  if (stale_reads > 0) {
    std::fprintf(stderr, "perfbench: cluster_rw: %lld reads returned data "
                 "no write could explain\n", static_cast<long long>(stale_reads));
  }
  res.extra["migration_sim_ms"] = static_cast<double>(migration_ns) / 1e6;
  // The servers' spans and the sessions' own per-shard timings cover the
  // same shard requests (every one since time 0), so their means must
  // agree. The sessions time only requests that succeeded: a span may
  // also be a bounce during the migration, or an attempt that failed
  // over or was retried.
  const LayerStats& l = res.layers;
  res.extra["e2e_mean_us"] = l.shard_mean_us;
  if (traced && (l.spans < l.shard_requests ||
                 l.spans > l.shard_requests + l.wrong_shard_retries +
                               l.read_failovers + l.retries)) {
    res.errors.push_back("spans and timed shard requests differ in number");
  }
  return res;
}

}  // namespace perfbench
