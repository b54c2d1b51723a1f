// kv_lsm: the LSM key-value store on the ReFlex block-device client.
//
//  - Load: every key once, in a seeded random order, then a quarter of
//    them again, at queue depth 1 (db_bench's fillrandom), each Put
//    rewriting a 4 KB write-ahead-log block; memtable flushes (256 KB
//    tables) and full-merge compactions run underneath.
//  - Flush and wait for compaction, then 8 closed-loop readers issue
//    Gets of uniformly random loaded keys while one open-loop writer
//    (Poisson) inserts new keys. The writer fills a memtable about
//    every 0.3 s, so its flushes and the full-merge compactions they
//    start, which rewrite every loaded key, write beside the Gets.
//  - A best-effort neighbour on the same server reads 4 KB blocks
//    outside the store's region, closed loop at queue depth 4, beside
//    the load's large flush and compaction writes.
//  - Probe: a Put of a fixed key, then, at the moment it completes, a
//    flush of the memtable and a Get of that key. The Get must find the
//    value; it fails in every round while KvStore::FlushTask clears the
//    memtable before the new table is visible (see README, "Faults
//    found").
//
// Every count is fixed, so every round attempts the same operations
// whatever the seed. The data set is about twelve times the store's
// block cache, so most Gets go to the device. Every Get is checked
// against this file's own record of the Puts: it must return the
// latest Put completed before it was issued, or one in flight during
// it. The random readers leave the writer's keys alone: a Get of a key
// whose newest value sits in a flushing memtable fails at moments that
// depend on the seed, and the probe shows that fault in every round.
//
// Why: the apps layer and the client layer (block device, page cache)
// do most of the host work here; large flush and compaction writes sit
// beside small random reads.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

constexpr uint32_t kValueBytes = 400;
constexpr int kReaders = 8;
constexpr double kWriterPutsPerSec = 2000.0;
constexpr uint64_t kMemtableBytes = 256 << 10;
constexpr int kNeighbourDepth = 4;
constexpr uint32_t kCacheBlocks = 256;
constexpr uint64_t kStoreRegionBytes = 1ULL << 30;
/** The neighbour's blocks lie past the store's region. */
constexpr uint64_t kNeighbourFirstLba = 2 * kStoreRegionBytes / kSectorBytes;
constexpr uint64_t kNeighbourBlocks = 1 << 18;
/** Key id of the probe; loaded and inserted keys stay below it. */
constexpr uint64_t kProbeId = 99999999;

std::string Key(uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "key%08llu",
                static_cast<unsigned long long>(id));
  return buf;
}

/** Value of version `ver` of key `id`: a parseable head, then filler
 * that depends on both, so a value from another key or version can
 * never compare equal. */
std::string Value(uint64_t id, uint64_t ver) {
  char head[32];
  std::snprintf(head, sizeof head, "%08llu.%08llu|",
                static_cast<unsigned long long>(id),
                static_cast<unsigned long long>(ver));
  std::string v(head);
  v.reserve(kValueBytes);
  for (uint32_t i = static_cast<uint32_t>(v.size()); i < kValueBytes; ++i) {
    v.push_back(static_cast<char>('a' + (id * 31 + ver * 7 + i) % 26));
  }
  return v;
}

}  // namespace

RoundResult RunKvLsm(uint64_t seed, bool traced, const Scale& scale) {
  const uint64_t keys = scale.Pick<uint64_t>(30000, 3000);
  const int64_t gets_per_reader = scale.Pick<int64_t>(12000, 600);
  const int64_t writer_puts = scale.Pick<int64_t>(4000, 200);
  const int64_t neighbour_reads_per_lane = scale.Pick<int64_t>(25000, 1500);

  RoundResult res;
  const HostClock::time_point setup_start = HostClock::now();
  WorldOptions wo;
  wo.seed = seed;
  wo.traced = traced;
  World world(wo);
  Slo slo;
  slo.iops = 30000;
  slo.read_fraction = 0.7;
  slo.p95 = 1000 * kUs;
  const int kv_tenant = world.RegisterTenant(true, slo);
  const int be_tenant = world.RegisterTenant(false, Slo{});
  if (kv_tenant < 0 || be_tenant < 0) {
    res.errors.push_back("tenant refused admission");
    return res;
  }
  KvOptions ko;
  ko.region_bytes = kStoreRegionBytes;
  ko.block_cache_blocks = kCacheBlocks;
  ko.memtable_bytes = kMemtableBytes;
  world.OpenKv(kv_tenant, ko);
  Session* neighbour = world.Attach(world.AddClient(0, 4, seed * 131),
                                    be_tenant);
  res.setup_s = SecondsSince(setup_start);

  Rng order_rng(seed, 1);
  Rng read_rng(seed, 2);
  Rng write_rng(seed, 3);
  Rng be_rng(seed, 4);
  // The load: a permutation of the keys, then a quarter of them again.
  std::vector<uint64_t> order(keys);
  for (uint64_t i = 0; i < keys; ++i) order[i] = i;
  for (uint64_t i = keys - 1; i > 0; --i) {
    std::swap(order[i], order[order_rng.Below(i + 1)]);
  }
  for (uint64_t i = 0; i < keys / 4; ++i) {
    order.push_back(order_rng.Below(keys));
  }

  std::vector<WriteHistory> history(keys);
  std::vector<uint64_t> latest_ver(keys, 0);
  int64_t outstanding = 0;
  int64_t kv_ops = 0;
  int64_t user_bytes = 0;
  std::vector<TimeNs> gets;
  std::vector<TimeNs> puts;
  size_t loaded = 0;
  int64_t readers_left = kReaders;
  int64_t writer_issued = 0;
  int64_t writer_completed = 0;
  TimeNs kv_end = 0;  // last completion of the load and read phases
  int64_t neighbour_ops = 0;
  TimeNs neighbour_end = 0;
  double neighbour_latency_ns = 0;
  bool finished = false;

  auto phase_done = [&] {
    if (readers_left > 0 || writer_completed < writer_puts) return;
    // Read phase over: settle, probe, settle again.
    world.SettleKv([&] {
      const std::string value = Value(kProbeId, 1);
      user_bytes += static_cast<int64_t>(Key(kProbeId).size() + value.size());
      res.attempted += 2;
      outstanding += 2;
      world.Put(Key(kProbeId), value, [&, value](const KvDone& put) {
        --outstanding;
        ++res.ops;
        if (!put.ok) ++res.failed;
        // The flush starts at once; the Get reaches the memtable after
        // the store's per-Get CPU delay, while the table is written.
        world.SettleKv([&] { finished = true; });
        world.Get(Key(kProbeId), [&, value](const KvDone& d) {
          --outstanding;
          ++res.ops;
          if (!d.ok || d.value != value) ++res.failed;
        });
      });
    });
  };

  // Stores version `ver` of key `id` (a loaded key when id < keys).
  auto put = [&](uint64_t id, uint64_t ver, std::function<void()> next) {
    if (id < keys) history[id].Issued(ver, world.Now());
    std::string value = Value(id, ver);
    user_bytes += static_cast<int64_t>(Key(id).size() + value.size());
    ++res.attempted;
    ++outstanding;
    world.Put(Key(id), value, [&, id, ver, next](const KvDone& d) {
      --outstanding;
      ++kv_ops;
      ++res.ops;
      if (!d.ok) ++res.failed;
      if (id < keys) history[id].Completed(ver, d.done);
      puts.push_back(d.done - d.issue);
      kv_end = std::max(kv_end, d.done);
      if (next) next();
    });
  };

  std::function<void(int64_t)> get = [&](int64_t left) {
    if (left == 0) {
      --readers_left;
      phase_done();
      return;
    }
    const uint64_t id = read_rng.Below(keys);
    ++res.attempted;
    ++outstanding;
    world.Get(Key(id), [&, id, left](const KvDone& d) {
      --outstanding;
      ++kv_ops;
      ++res.ops;
      kv_end = std::max(kv_end, d.done);
      unsigned long long got_id = 0;
      unsigned long long got_ver = 0;
      const bool parsed =
          d.ok && std::sscanf(d.value.c_str(), "%8llu.%8llu|", &got_id,
                              &got_ver) == 2;
      const bool right = parsed && got_id == id &&
                         d.value == Value(id, got_ver) &&
                         history[id].Acceptable(got_ver, d.issue, d.done);
      if (right) {
        gets.push_back(d.done - d.issue);
      } else {
        ++res.failed;
      }
      get(left - 1);
    });
  };
  std::function<void()> write = [&] {
    put(keys + static_cast<uint64_t>(writer_issued++), 1, [&] {
      ++writer_completed;
      phase_done();
    });
    if (writer_issued < writer_puts) {
      world.At(world.Now() + write_rng.Gap(1e9 / kWriterPutsPerSec), write);
    }
  };
  std::function<void()> bulk = [&] {
    if (loaded == order.size()) {
      // Bulk load done: settle, then read while writing.
      world.SettleKv([&] {
        for (int r = 0; r < kReaders; ++r) get(gets_per_reader);
        world.At(world.Now() + write_rng.Gap(1e9 / kWriterPutsPerSec), write);
      });
      return;
    }
    // Bulk load at queue depth 1, as db_bench's fillrandom does: the
    // next Put is issued when this one completes.
    const uint64_t id = order[loaded++];
    put(id, ++latest_ver[id], bulk);
  };
  std::function<void(int64_t)> neighbour_io = [&](int64_t left) {
    if (left == 0) return;
    ++res.attempted;
    ++outstanding;
    const uint64_t lba = kNeighbourFirstLba + be_rng.Below(kNeighbourBlocks) * 8;
    world.Read(neighbour, lba, 8, nullptr, -1, [&, left](const IoDone& d) {
      --outstanding;
      ++res.ops;
      if (!d.ok) ++res.failed;
      ++neighbour_ops;
      neighbour_end = std::max(neighbour_end, d.done);
      neighbour_latency_ns += static_cast<double>(d.done - d.issue);
      neighbour_io(left - 1);
    });
  };

  world.At(0, [&] {
    for (int q = 0; q < kNeighbourDepth; ++q) {
      neighbour_io(neighbour_reads_per_lane);
    }
    bulk();
  });

  const HostClock::time_point run_start = HostClock::now();
  const TimeNs limit = 600000 * kMs;
  while (!(finished && outstanding == 0) && world.Now() < limit) {
    world.RunUntil(world.Now() + kMs);
  }
  res.run_s = SecondsSince(run_start);

  res.layers = world.Stats();
  if (!finished || outstanding != 0) {
    res.errors.push_back("requests never completed");
  }
  if (res.layers.kv_device_bytes_written < user_bytes) {
    res.errors.push_back("device wrote fewer bytes than the user put");
  }

  res.sim["sim_iops"] =
      static_cast<double>(kv_ops) / (static_cast<double>(kv_end) / 1e9);
  res.sim["sim_be_iops"] = static_cast<double>(neighbour_ops) /
                           (static_cast<double>(neighbour_end) / 1e9);
  res.sim["sim_read_p50_us"] = PercentileUs(gets, 0.50);
  res.sim["sim_read_p999_us"] = PercentileUs(gets, 0.999);
  res.sim["sim_write_p50_us"] = PercentileUs(puts, 0.50);
  res.sim["sim_write_p999_us"] = PercentileUs(puts, 0.999);

  res.extra["user_bytes"] = static_cast<double>(user_bytes);
  res.extra["cache_blocks"] = kCacheBlocks;
  // The servers' spans are the neighbour's reads (the block device does
  // not sample), every one since time 0.
  res.extra["e2e_mean_us"] =
      neighbour_ops > 0
          ? neighbour_latency_ns / static_cast<double>(neighbour_ops) / 1e3
          : 0.0;
  return res;
}

}  // namespace perfbench
