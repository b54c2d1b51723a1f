// The one seam between the benchmark and the simulator under test.
//
// Every call into src/ sits in adapter.cc; the workloads see only the
// types below. They issue I/O and KV operations through callbacks,
// schedule their own arrivals on the simulated clock, and read the
// program's public stats through one flat LayerStats snapshot. When
// the program's I/O interfaces or load generators change, only
// adapter.cc has to follow.

#ifndef PERFBENCH_ADAPTER_H_
#define PERFBENCH_ADAPTER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

namespace perfbench {

using TimeNs = int64_t;
inline constexpr TimeNs kUs = 1000;
inline constexpr TimeNs kMs = 1000 * kUs;
inline constexpr uint32_t kSectorBytes = 512;

/** Completion of one block I/O, in simulated time. */
struct IoDone {
  bool ok = false;
  TimeNs issue = 0;
  TimeNs done = 0;
};
using IoCallback = std::function<void(const IoDone&)>;

/** Completion of one KV operation, in simulated time. */
struct KvDone {
  bool ok = false;     // Put: stored; Get: key found
  std::string value;   // Get only
  TimeNs issue = 0;
  TimeNs done = 0;
};
using KvCallback = std::function<void(const KvDone&)>;

/** A latency-critical tenant's service-level objective. */
struct Slo {
  uint32_t iops = 0;
  double read_fraction = 1.0;
  TimeNs p95 = 0;
  uint32_t request_bytes = 4096;
};

struct WorldOptions {
  /** 0: one ReFlex server; N > 0: an N-shard cluster. */
  int shards = 0;
  int replication = 1;
  /** Cluster only: migration landing slots per shard. */
  uint32_t migration_slots = 0;
  /** Cluster only: stripe unit in 512 B sectors. */
  uint32_t stripe_sectors = 128;
  int server_threads = 1;
  uint64_t seed = 1;
  /**
   * Traced run: every request is sampled into the servers' span
   * breakdown, and the session, backend and store calls are timed
   * from outside. Must not change anything in simulated time.
   */
  bool traced = false;
};

struct KvOptions {
  /** The store owns bytes [0, region_bytes) of the device. */
  uint64_t region_bytes = 0;
  uint64_t memtable_bytes = 0;
  uint32_t block_cache_blocks = 0;
};

/** Host time spent in the synchronous part of one kind of call. */
struct HostTimes {
  int64_t ns = 0;
  int64_t calls = 0;
};

/** Everything the benchmark reads from the program after a round. */
struct LayerStats {
  // sim
  int64_t events = 0;
  int64_t peak_pending = 0;
  // net (fabric counters of every server registry)
  double net_messages = 0;
  double net_wire_bytes = 0;
  // flash (all devices)
  int64_t flash_commands = 0;
  int64_t gc_stalls = 0;
  double flash_read_p50_us = 0;
  double flash_read_p999_us = 0;
  // core (all servers)
  int64_t dp_iterations = 0;
  int64_t sched_rounds = 0;
  int64_t batch_sum = 0;
  double neg_limit_hits = 0;
  /** Interval name -> mean per finished span (us). */
  std::map<std::string, double> stage_mean_us;
  int64_t spans = 0;
  int64_t spans_dropped = 0;
  HostTimes register_tenant;
  // client
  int64_t timeouts = 0;
  int64_t retries = 0;
  int64_t block_requeues = 0;
  HostTimes issue;
  // cluster (sums over sessions)
  int64_t shard_reads_min = 0;
  int64_t shard_reads_max = 0;
  double shard_p50_us = 0;
  /** Shard requests the sessions timed themselves, and their mean. */
  int64_t shard_requests = 0;
  double shard_mean_us = 0;
  int64_t read_failovers = 0;
  int64_t wrong_shard_retries = 0;
  int64_t migration_copy_ios = 0;
  int64_t migration_dirty_recopies = 0;
  // apps.kv
  int64_t kv_gets = 0;
  int64_t kv_block_reads = 0;
  int64_t kv_compactions = 0;
  int64_t kv_bytes_compacted = 0;
  /** Bytes the block device wrote on the store's behalf. */
  int64_t kv_device_bytes_written = 0;
  HostTimes get;
  HostTimes put;
  // Backend under the store (traced runs only).
  int64_t backend_page_reads = 0;
  double backend_read_p50_us = 0;
  double backend_read_p999_us = 0;
};

/**
 * Longest time the attempts of one cluster request can stay in flight
 * under the cluster sessions' retry policy: every attempt's timeout
 * plus every backoff.
 */
TimeNs ClusterRequestLifetime();

/** An I/O endpoint of one tenant (single server or cluster). */
struct Session;

/**
 * One simulated deployment: a ReFlex server or a sharded cluster, its
 * client machines, tenants and sessions, and optionally an LSM store
 * on a ReFlex block device.
 */
class World {
 public:
  explicit World(const WorldOptions& options);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  TimeNs Now() const;
  void At(TimeNs t, std::function<void()> fn);
  void RunUntil(TimeNs t);

  /**
   * Registers a tenant (on every shard of a cluster). Returns its id,
   * or -1 when admission control refuses the SLO.
   */
  int RegisterTenant(bool latency_critical, const Slo& slo);

  /** Single server: a client on client machine `machine` (of 8) with
   * `connections` shared tenant-unbound connections (the Figure 6b
   * layout). */
  int AddClient(int machine, int connections, uint64_t seed);
  /** Single server: a session of `tenant` on `client`'s pool. */
  Session* Attach(int client, int tenant);
  /** Cluster: a session of `tenant` on its own client machine, with
   * power-of-two read steering and client retries. */
  Session* AttachCluster(int tenant, int connections, uint64_t seed);

  /** `lane` pins the request to one connection (-1: round-robin). */
  void Read(Session* s, uint64_t lba, uint32_t sectors, uint8_t* data,
            int lane, IoCallback cb);
  void Write(Session* s, uint64_t lba, uint32_t sectors, uint8_t* data,
             int lane, IoCallback cb);

  uint64_t capacity_sectors() const;
  /** Cluster stripe unit in sectors. */
  uint32_t stripe_sectors() const;
  /** Cluster: runs one live migration batch; `done(committed)`. */
  void Migrate(int source, int target, uint64_t first_stripe,
               uint64_t count, std::function<void(bool)> done);

  /** Opens the LSM store on a block device of `tenant`. */
  void OpenKv(int tenant, const KvOptions& options);
  /** Flushes the memtable, waits for compaction to finish, then `done`. */
  void SettleKv(std::function<void()> done);
  void Put(const std::string& key, const std::string& value, KvCallback cb);
  void Get(const std::string& key, KvCallback cb);

  /** Drops spans issued before `min_issue` from the breakdown. */
  void ResetTrace(TimeNs min_issue);

  LayerStats Stats();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ADAPTER_H_
