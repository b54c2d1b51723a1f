// tenants_2k: one ReFlex server with about two thousand tenants, each
// on its own connection.
//
//  - 1984 best-effort readers, open loop (Poisson), 1 KB reads: the
//    Figure 6b population, here at half its per-tenant rate so the
//    latency-critical group fits beside it.
//  - 8 latency-critical tenants, open loop (Poisson), 4 KB, 20% writes,
//    each with an IOPS reservation and a 500 us p95 read SLO.
//  - 4 best-effort tenants, closed loop at queue depth 4, 4 KB reads:
//    they soak up the tokens the others leave.
//
// Why: the scheduler's per-tenant walks do most of the host work here
// and almost none in the other two workloads. The requests carry no
// payload, so a change to payload buffers should leave this flat.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

constexpr TimeNs kLcSlo = 500 * kUs;
constexpr TimeNs kWarmup = 50 * kMs;
constexpr double kBeReaderIops = 50.0;
constexpr double kLcIops = 8000.0;
constexpr double kLcWriteShare = 0.2;
constexpr int kClosedDepth = 4;

struct Tenant {
  Session* session = nullptr;
  int lane = -1;
  bool lc = false;
  bool closed = false;
  double mean_gap_ns = 0;
  double write_share = 0;
  uint32_t sectors = 8;
  Rng rng{0, 0};
  int64_t issued = 0;
  int64_t completed = 0;
  std::vector<TimeNs> reads;
  std::vector<TimeNs> writes;
};

}  // namespace

RoundResult RunTenants2k(uint64_t seed, bool traced, const Scale& scale) {
  const int be_readers = scale.Pick(1984, 240);
  const int lc_tenants = scale.Pick(8, 2);
  const int closed_tenants = 4;
  const int client_machines = 8;
  const TimeNs end = kWarmup + scale.Pick<TimeNs>(800 * kMs, 40 * kMs);

  RoundResult res;
  const HostClock::time_point setup_start = HostClock::now();
  WorldOptions wo;
  wo.server_threads = 4;
  wo.seed = seed;
  wo.traced = traced;
  World world(wo);
  const uint64_t blocks = world.capacity_sectors() / 8;

  std::vector<std::unique_ptr<Tenant>> tenants;
  auto add = [&](Session* s, int lane) {
    auto t = std::make_unique<Tenant>();
    t->session = s;
    t->lane = lane;
    t->rng = Rng(seed, tenants.size());
    tenants.push_back(std::move(t));
    return tenants.back().get();
  };

  // Best-effort readers: one shared pool per client machine with one
  // connection per tenant, each tenant pinned to its own connection.
  const int per_client = (be_readers + client_machines - 1) / client_machines;
  for (int m = 0, made = 0; made < be_readers; ++m) {
    const int batch = std::min(per_client, be_readers - made);
    const int client = world.AddClient(m, batch, seed * 131 + m);
    for (int i = 0; i < batch; ++i, ++made) {
      const int id = world.RegisterTenant(false, Slo{});
      if (id < 0) {
        res.errors.push_back("best-effort tenant refused");
        return res;
      }
      Tenant* t = add(world.Attach(client, id), i);
      t->mean_gap_ns = 1e9 / kBeReaderIops;
      t->sectors = 2;
    }
  }
  for (int k = 0; k < lc_tenants; ++k) {
    Slo slo;
    slo.iops = static_cast<uint32_t>(kLcIops * 1.3);
    slo.read_fraction = 1.0 - kLcWriteShare;
    slo.p95 = kLcSlo;
    const int id = world.RegisterTenant(true, slo);
    if (id < 0) {
      res.errors.push_back("latency-critical tenant refused admission");
      return res;
    }
    const int client = world.AddClient(k, 4, seed * 131 + 1000 + k);
    Tenant* t = add(world.Attach(client, id), -1);
    t->lc = true;
    t->mean_gap_ns = 1e9 / kLcIops;
    t->write_share = kLcWriteShare;
  }
  for (int k = 0; k < closed_tenants; ++k) {
    const int id = world.RegisterTenant(false, Slo{});
    if (id < 0) {
      res.errors.push_back("best-effort tenant refused");
      return res;
    }
    const int client = world.AddClient(k, 2, seed * 131 + 2000 + k);
    Tenant* t = add(world.Attach(client, id), -1);
    t->closed = true;
  }
  res.setup_s = SecondsSince(setup_start);

  int64_t outstanding = 0;
  int64_t window_ops = 0;
  int64_t closed_window_ops = 0;
  int64_t traced_ops = 0;
  double traced_latency_ns = 0;

  // One request of tenant `t`; closed-loop tenants reissue on completion.
  std::function<void(Tenant*)> issue = [&](Tenant* t) {
    const bool write = t->write_share > 0 && t->rng.Chance(t->write_share);
    const uint64_t lba = t->rng.Below(blocks) * 8;
    ++t->issued;
    ++outstanding;
    auto done = [&, t, write](const IoDone& d) {
      --outstanding;
      ++t->completed;
      ++res.ops;
      if (!d.ok) ++res.failed;
      if (d.done >= kWarmup && d.done < end) {
        ++window_ops;
        if (t->closed) ++closed_window_ops;
      }
      if (d.issue >= kWarmup) {
        ++traced_ops;
        traced_latency_ns += static_cast<double>(d.done - d.issue);
        if (t->lc && d.issue < end) {
          (write ? t->writes : t->reads).push_back(d.done - d.issue);
        }
      }
      if (t->closed && world.Now() < end) issue(t);
    };
    if (write) {
      world.Write(t->session, lba, t->sectors, nullptr, t->lane, done);
    } else {
      world.Read(t->session, lba, t->sectors, nullptr, t->lane, done);
    }
  };
  std::function<void(Tenant*)> arrive = [&](Tenant* t) {
    if (world.Now() >= end) return;
    issue(t);
    world.At(world.Now() + t->rng.Gap(t->mean_gap_ns), [&, t] { arrive(t); });
  };
  for (auto& t : tenants) {
    Tenant* p = t.get();
    if (p->closed) {
      world.At(0, [&, p] {
        for (int q = 0; q < kClosedDepth; ++q) issue(p);
      });
    } else {
      world.At(p->rng.Gap(p->mean_gap_ns), [&, p] { arrive(p); });
    }
  }
  world.At(kWarmup, [&] { world.ResetTrace(kWarmup); });

  const HostClock::time_point run_start = HostClock::now();
  world.RunUntil(end);
  while (outstanding > 0 && world.Now() < end + 5000 * kMs) {
    world.RunUntil(world.Now() + kMs);
  }
  res.run_s = SecondsSince(run_start);

  // Output checks, against what this benchmark scheduled itself.
  if (outstanding != 0) res.errors.push_back("requests never completed");
  std::vector<TimeNs> reads;
  std::vector<TimeNs> writes;
  for (const auto& t : tenants) {
    res.attempted += t->issued;
    if (t->completed != t->issued) {
      res.errors.push_back("a tenant completed fewer requests than it issued");
    }
    if (t->lc) {
      const double p95 = PercentileUs(t->reads, 0.95);
      if (t->reads.empty() || p95 > static_cast<double>(kLcSlo) / 1e3) {
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      "LC tenant read p95 %.1f us exceeds its %.0f us SLO",
                      p95, static_cast<double>(kLcSlo) / 1e3);
        res.errors.push_back(buf);
      }
      reads.insert(reads.end(), t->reads.begin(), t->reads.end());
      writes.insert(writes.end(), t->writes.begin(), t->writes.end());
    }
  }

  const double window_s = static_cast<double>(end - kWarmup) / 1e9;
  res.sim["sim_iops"] = static_cast<double>(window_ops) / window_s;
  res.sim["sim_be_iops"] = static_cast<double>(closed_window_ops) / window_s;
  res.sim["sim_read_p50_us"] = PercentileUs(reads, 0.50);
  res.sim["sim_read_p999_us"] = PercentileUs(reads, 0.999);
  res.sim["sim_write_p50_us"] = PercentileUs(writes, 0.50);
  res.sim["sim_write_p999_us"] = PercentileUs(writes, 0.999);

  res.layers = world.Stats();
  // The spans and this benchmark's own timings cover the same requests
  // (every request issued after warm-up), so their means must agree.
  res.extra["e2e_mean_us"] =
      traced_ops > 0 ? traced_latency_ns / static_cast<double>(traced_ops) / 1e3
                     : 0.0;
  return res;
}

}  // namespace perfbench
