#include "adapter.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "apps/kv/kv_store.h"
#include "client/block_device.h"
#include "client/io_session.h"
#include "client/page_cache.h"
#include "client/reflex_client.h"
#include "client/storage_backend.h"
#include "cluster/cluster_client.h"
#include "cluster/cluster_control_plane.h"
#include "cluster/flash_cluster.h"
#include "cluster/migration.h"
#include "core/reflex_server.h"
#include "flash/calibration.h"
#include "flash/flash_device.h"
#include "net/network.h"
#include "obs/trace.h"
#include "sim/histogram.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace perfbench {

using namespace reflex;  // NOLINT: the adapter speaks the program's types.

struct Session {
  client::IoSession* io = nullptr;
};

namespace {

using Clock = std::chrono::steady_clock;

int64_t SinceNs(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

[[noreturn]] void Die(const char* what) {
  std::fprintf(stderr, "perfbench: %s\n", what);
  std::exit(2);
}

/**
 * Device A's cost-model calibration: the fit flash::Calibrate recovers
 * for DeviceProfile::DeviceA(), held here as data so that set-up time
 * measures the deployment, not a calibration sweep.
 */
flash::CalibrationResult CalibrationA() {
  flash::CalibrationResult c;
  c.write_cost = 10.0;
  c.read_cost_readonly = 0.5;
  c.token_capacity_per_sec = 547000.0;
  c.latency_curve = {
      {54696.4, 28945.0, sim::Micros(145), sim::Micros(113)},
      {109392.7, 58120.0, sim::Micros(162), sim::Micros(121)},
      {164089.1, 86995.0, sim::Micros(178), sim::Micros(126)},
      {218785.5, 115525.0, sim::Micros(199), sim::Micros(137)},
      {273481.9, 144005.0, sim::Micros(223), sim::Micros(150)},
      {328178.2, 172470.0, sim::Micros(260), sim::Micros(166)},
      {355526.4, 186700.0, sim::Micros(291), sim::Micros(179)},
      {382874.6, 201237.5, sim::Micros(348), sim::Micros(199)},
      {410222.8, 215507.5, sim::Micros(397), sim::Micros(210)},
      {437571.0, 229790.0, sim::Micros(614), sim::Micros(248)},
      {464919.2, 244222.5, sim::Micros(909), sim::Micros(287)},
      {492267.4, 258982.5, sim::Micros(1622), sim::Micros(404)},
      {508676.3, 267547.5, sim::Micros(2015), sim::Micros(505)},
      {525085.2, 276207.5, sim::Micros(2785), sim::Micros(755)},
      {536024.5, 282335.0, sim::Micros(3113), sim::Micros(924)},
  };
  return c;
}

/** Client machines of a single-server world. */
constexpr int kClientMachines = 8;

/**
 * QoS burst allowance. The default cannot absorb runs of 10-token
 * writes without queueing a latency-critical tenant's reads behind them
 * (the same setting and reason as fig5_qos).
 */
constexpr double kNegLimit = -150.0;

/** blk-mq hardware contexts of the store's block device. */
constexpr int kBlockContexts = 4;

client::ReflexClient::RetryPolicy ClientRetry() {
  client::ReflexClient::RetryPolicy retry;
  retry.request_timeout = sim::Millis(10);
  retry.max_retries = 5;
  retry.backoff_base = sim::Micros(100);
  retry.reconnect_after_timeouts = 2;
  return retry;
}

}  // namespace

TimeNs ClusterRequestLifetime() {
  const client::ReflexClient::RetryPolicy retry = ClientRetry();
  TimeNs total = retry.request_timeout * (retry.max_retries + 1);
  TimeNs backoff = retry.backoff_base;
  for (int i = 0; i < retry.max_retries; ++i) {
    total += std::min(backoff, retry.backoff_cap);
    backoff *= 2;
  }
  return total;
}

namespace {

/**
 * Timing adapter under the store: forwards every call unchanged and
 * keeps a shared handle on each page-sized read's future, so the
 * latencies can be read after the round without adding an event.
 */
class TimedBackend : public client::StorageBackend {
 public:
  explicit TimedBackend(client::StorageBackend& inner) : inner_(inner) {}

  sim::Future<client::IoResult> ReadBytes(uint64_t offset, uint32_t bytes,
                                          uint8_t* data) override {
    sim::Future<client::IoResult> f = inner_.ReadBytes(offset, bytes, data);
    if (bytes == client::PageCache::kPageBytes) page_reads_.push_back(f);
    return f;
  }
  sim::Future<client::IoResult> WriteBytes(uint64_t offset, uint32_t bytes,
                                           const uint8_t* data) override {
    return inner_.WriteBytes(offset, bytes, data);
  }
  uint64_t CapacityBytes() const override { return inner_.CapacityBytes(); }
  const char* name() const override { return inner_.name(); }

  const std::vector<sim::Future<client::IoResult>>& page_reads() const {
    return page_reads_;
  }

 private:
  client::StorageBackend& inner_;
  std::vector<sim::Future<client::IoResult>> page_reads_;
};

sim::Task RunIo(client::IoSession* io, bool write, uint64_t lba,
                uint32_t sectors, uint8_t* data, int lane, IoCallback cb,
                HostTimes* timer) {
  const Clock::time_point t0 = timer ? Clock::now() : Clock::time_point{};
  sim::Future<client::IoResult> f;
  if (write) {
    f = io->Write(lba, sectors, data, lane);
  } else {
    f = io->Read(lba, sectors, data, lane);
  }
  if (timer) {
    timer->ns += SinceNs(t0);
    ++timer->calls;
  }
  const client::IoResult r = co_await f;
  cb(IoDone{r.ok(), r.issue_time, r.complete_time});
}

sim::Task RunPut(sim::Simulator* sim, apps::kv::KvStore* kv, std::string key,
                 std::string value, KvCallback cb, HostTimes* timer) {
  const TimeNs issue = sim->Now();
  const Clock::time_point t0 = timer ? Clock::now() : Clock::time_point{};
  sim::Future<bool> f = kv->Put(std::move(key), std::move(value));
  if (timer) {
    timer->ns += SinceNs(t0);
    ++timer->calls;
  }
  const bool ok = co_await f;
  cb(KvDone{ok, std::string(), issue, sim->Now()});
}

sim::Task RunGet(sim::Simulator* sim, apps::kv::KvStore* kv, std::string key,
                 KvCallback cb, HostTimes* timer) {
  const TimeNs issue = sim->Now();
  const Clock::time_point t0 = timer ? Clock::now() : Clock::time_point{};
  sim::Future<apps::kv::GetResult> f = kv->Get(std::move(key));
  if (timer) {
    timer->ns += SinceNs(t0);
    ++timer->calls;
  }
  apps::kv::GetResult r = co_await f;
  cb(KvDone{r.found, std::move(r.value), issue, sim->Now()});
}

sim::Task RunSettle(apps::kv::KvStore* kv, std::function<void()> done) {
  co_await kv->Flush();
  co_await kv->WaitCompactionIdle();
  done();
}

sim::Task RunMigration(sim::Future<bool> f, std::function<void(bool)> done) {
  const bool committed = co_await f;
  done(committed);
}

double SumCounter(obs::MetricsRegistry& registry, const std::string& name) {
  double sum = 0;
  for (const auto& e : registry.Snapshot()) {
    if (e.name == name && e.counter != nullptr) sum += e.counter->value();
  }
  return sum;
}

}  // namespace

struct World::Impl {
  WorldOptions opt;
  // Declaration order is teardown order reversed: the simulator and
  // network outlive every component that schedules on them.
  sim::Simulator sim;
  net::Network net{sim};

  std::unique_ptr<flash::FlashDevice> device;
  std::unique_ptr<core::ReflexServer> server;
  std::vector<net::Machine*> machines;
  std::unique_ptr<cluster::FlashCluster> cluster;
  std::unique_ptr<cluster::MigrationCoordinator> migrator;

  std::vector<core::Tenant*> tenants;
  std::vector<cluster::ClusterTenant> cluster_tenants;
  std::vector<std::unique_ptr<client::ReflexClient>> clients;
  std::vector<std::unique_ptr<client::TenantSession>> sessions;
  std::vector<std::unique_ptr<cluster::ClusterClient>> cluster_clients;
  std::vector<std::unique_ptr<cluster::ClusterSession>> cluster_sessions;
  std::vector<std::unique_ptr<Session>> handles;

  std::unique_ptr<client::BlockDevice> bdev;
  std::unique_ptr<TimedBackend> timed;
  std::unique_ptr<apps::kv::KvStore> kv;

  HostTimes register_tenant;
  HostTimes issue;
  HostTimes get;
  HostTimes put;

  HostTimes* Timer(HostTimes& t) { return opt.traced ? &t : nullptr; }

  std::vector<core::ReflexServer*> Servers() {
    std::vector<core::ReflexServer*> out;
    if (server) out.push_back(server.get());
    if (cluster) {
      for (int i = 0; i < cluster->num_shards(); ++i) {
        out.push_back(&cluster->server(i));
      }
    }
    return out;
  }

  std::vector<flash::FlashDevice*> Devices() {
    std::vector<flash::FlashDevice*> out;
    if (device) out.push_back(device.get());
    if (cluster) {
      for (int i = 0; i < cluster->num_shards(); ++i) {
        out.push_back(&cluster->device(i));
      }
    }
    return out;
  }

  Session* Wrap(client::IoSession* io) {
    handles.push_back(std::make_unique<Session>());
    handles.back()->io = io;
    return handles.back().get();
  }
};

World::World(const WorldOptions& options) : impl_(std::make_unique<Impl>()) {
  Impl& w = *impl_;
  w.opt = options;
  core::ServerOptions server;
  server.num_threads = options.server_threads;
  server.qos.neg_limit = kNegLimit;
  if (options.shards == 0) {
    w.device = std::make_unique<flash::FlashDevice>(
        w.sim, flash::DeviceProfile::DeviceA(), options.seed);
    net::Machine* machine = w.net.AddMachine("reflex-server");
    for (int i = 0; i < kClientMachines; ++i) {
      w.machines.push_back(w.net.AddMachine("client-" + std::to_string(i)));
    }
    w.server = std::make_unique<core::ReflexServer>(
        w.sim, w.net, machine, *w.device, CalibrationA(), server);
  } else {
    cluster::FlashClusterOptions copts;
    copts.num_shards = options.shards;
    copts.calibration = CalibrationA();
    copts.server = server;
    copts.shard_map.replication = options.replication;
    copts.shard_map.migration_slots = options.migration_slots;
    copts.shard_map.stripe_sectors = options.stripe_sectors;
    copts.seed = options.seed;
    w.cluster = std::make_unique<cluster::FlashCluster>(w.sim, w.net, copts);
  }
}

World::~World() = default;

TimeNs World::Now() const { return impl_->sim.Now(); }

void World::At(TimeNs t, std::function<void()> fn) {
  impl_->sim.ScheduleAt(t, std::move(fn));
}

void World::RunUntil(TimeNs t) { impl_->sim.RunUntil(t); }

int World::RegisterTenant(bool latency_critical, const Slo& slo) {
  Impl& w = *impl_;
  core::SloSpec spec;
  if (latency_critical) {
    spec.iops = slo.iops;
    spec.read_fraction = slo.read_fraction;
    spec.latency = slo.p95;
    spec.percentile = 0.95;
    spec.request_bytes = slo.request_bytes;
  }
  const core::TenantClass cls = latency_critical
                                    ? core::TenantClass::kLatencyCritical
                                    : core::TenantClass::kBestEffort;
  const Clock::time_point t0 = Clock::now();
  bool admitted = false;
  if (w.cluster) {
    cluster::ClusterTenant t =
        w.cluster->control_plane().RegisterTenant(spec, cls);
    admitted = t.valid();
    if (admitted) w.cluster_tenants.push_back(std::move(t));
  } else {
    core::Tenant* t = w.server->RegisterTenant(spec, cls);
    admitted = t != nullptr;
    if (admitted) w.tenants.push_back(t);
  }
  w.register_tenant.ns += SinceNs(t0);
  ++w.register_tenant.calls;
  if (!admitted) return -1;
  return static_cast<int>(w.cluster ? w.cluster_tenants.size()
                                    : w.tenants.size()) -
         1;
}

int World::AddClient(int machine, int connections, uint64_t seed) {
  Impl& w = *impl_;
  client::ReflexClient::Options copts;
  copts.stack = net::StackCosts::IxDataplane();
  copts.num_connections = connections;
  copts.seed = seed;
  copts.trace_sample_every = w.opt.traced ? 1 : 0;
  w.clients.push_back(std::make_unique<client::ReflexClient>(
      w.sim, *w.server, w.machines[machine % w.machines.size()], copts));
  for (int i = 0; i < connections; ++i) w.clients.back()->OpenConnection();
  return static_cast<int>(w.clients.size()) - 1;
}

Session* World::Attach(int client, int tenant) {
  Impl& w = *impl_;
  auto session = w.clients[client]->AttachSession(w.tenants[tenant]->handle());
  if (session == nullptr) Die("server refused a tenant session");
  w.sessions.push_back(std::move(session));
  return w.Wrap(w.sessions.back().get());
}

Session* World::AttachCluster(int tenant, int connections, uint64_t seed) {
  Impl& w = *impl_;
  cluster::ClusterClient::Options copts;
  copts.client.stack = net::StackCosts::IxDataplane();
  copts.client.num_connections = connections;
  copts.client.seed = seed;
  copts.client.trace_sample_every = w.opt.traced ? 1 : 0;
  copts.client.retry = ClientRetry();
  copts.steering = cluster::SteeringPolicy::kPowerOfTwo;
  net::Machine* machine = w.net.AddMachine(
      "client-" + std::to_string(w.cluster_clients.size()));
  w.cluster_clients.push_back(
      std::make_unique<cluster::ClusterClient>(*w.cluster, machine, copts));
  auto session =
      w.cluster_clients.back()->AttachSession(w.cluster_tenants[tenant]);
  if (session == nullptr) Die("cluster refused a tenant session");
  w.cluster_sessions.push_back(std::move(session));
  return w.Wrap(w.cluster_sessions.back().get());
}

void World::Read(Session* s, uint64_t lba, uint32_t sectors, uint8_t* data,
                 int lane, IoCallback cb) {
  RunIo(s->io, /*write=*/false, lba, sectors, data, lane, std::move(cb),
        impl_->Timer(impl_->issue));
}

void World::Write(Session* s, uint64_t lba, uint32_t sectors, uint8_t* data,
                  int lane, IoCallback cb) {
  RunIo(s->io, /*write=*/true, lba, sectors, data, lane, std::move(cb),
        impl_->Timer(impl_->issue));
}

uint64_t World::capacity_sectors() const {
  const Impl& w = *impl_;
  return w.cluster ? w.cluster->shard_map().capacity_sectors()
                   : w.device->profile().capacity_sectors;
}

uint32_t World::stripe_sectors() const {
  return impl_->cluster->shard_map().options().stripe_sectors;
}

void World::Migrate(int source, int target, uint64_t first_stripe,
                    uint64_t count, std::function<void(bool)> done) {
  Impl& w = *impl_;
  if (!w.migrator) {
    w.migrator =
        std::make_unique<cluster::MigrationCoordinator>(*w.cluster, w.net);
  }
  RunMigration(w.migrator->MigrateRange(source, target, first_stripe, count),
               std::move(done));
}

void World::OpenKv(int tenant, const KvOptions& options) {
  Impl& w = *impl_;
  client::BlockDevice::Options bopts;
  bopts.num_contexts = kBlockContexts;
  bopts.seed = w.opt.seed ^ 0x6b76;
  bopts.max_requeues = 3;
  w.bdev = std::make_unique<client::BlockDevice>(
      w.sim, *w.server, w.net.AddMachine("kv-client"),
      w.tenants[tenant]->handle(), bopts);
  client::StorageBackend* backend = w.bdev.get();
  if (w.opt.traced) {
    w.timed = std::make_unique<TimedBackend>(*w.bdev);
    backend = w.timed.get();
  }
  apps::kv::KvStore::Options kopts;
  kopts.region_offset = 0;
  kopts.region_bytes = options.region_bytes;
  kopts.memtable_bytes = options.memtable_bytes;
  kopts.block_cache_blocks = options.block_cache_blocks;
  w.kv = std::make_unique<apps::kv::KvStore>(w.sim, *backend, kopts);
}

void World::SettleKv(std::function<void()> done) {
  RunSettle(impl_->kv.get(), std::move(done));
}

void World::Put(const std::string& key, const std::string& value,
                KvCallback cb) {
  RunPut(&impl_->sim, impl_->kv.get(), key, value, std::move(cb),
         impl_->Timer(impl_->put));
}

void World::Get(const std::string& key, KvCallback cb) {
  RunGet(&impl_->sim, impl_->kv.get(), key, std::move(cb),
         impl_->Timer(impl_->get));
}

void World::ResetTrace(TimeNs min_issue) {
  for (core::ReflexServer* s : impl_->Servers()) s->tracer().Reset(min_issue);
}

LayerStats World::Stats() {
  Impl& w = *impl_;
  LayerStats st;
  st.events = w.sim.EventsProcessed();
  st.peak_pending = static_cast<int64_t>(w.sim.PeakPendingEvents());

  sim::Histogram flash_reads;
  for (flash::FlashDevice* d : w.Devices()) {
    const flash::FlashDeviceStats& ds = d->stats();
    st.flash_commands += ds.reads_completed + ds.writes_completed;
    st.gc_stalls += ds.gc_stalls;
    flash_reads.Merge(d->read_latency());
  }
  st.flash_read_p50_us = flash_reads.Percentile(0.50) / 1e3;
  st.flash_read_p999_us = flash_reads.Percentile(0.999) / 1e3;

  std::map<std::string, double> stage_total_us;
  for (core::ReflexServer* s : w.Servers()) {
    // Every server attaches the shared fabric's counters to its own
    // registry, so the sum over registries counts each message once.
    st.net_messages += SumCounter(s->metrics(), "net_messages");
    st.net_wire_bytes += SumCounter(s->metrics(), "net_wire_bytes");
    st.neg_limit_hits += SumCounter(s->metrics(), "sched_neg_limit_hits");
    const core::DataplaneStats dp = s->AggregateStats();
    st.dp_iterations += dp.iterations;
    st.sched_rounds += dp.sched_rounds;
    st.batch_sum += dp.batch_sum;
    const obs::BreakdownTable table = s->tracer().Table();
    for (const obs::BreakdownRow& row : table.rows) {
      stage_total_us[row.interval] +=
          row.mean_per_span_us * static_cast<double>(table.spans);
    }
    st.spans += table.spans;
    st.spans_dropped += s->tracer().dropped();
  }
  for (const auto& [name, total] : stage_total_us) {
    st.stage_mean_us[name] =
        st.spans > 0 ? total / static_cast<double>(st.spans) : 0.0;
  }

  auto add_faults = [&st](const client::ReflexClient& c) {
    st.timeouts += c.fault_stats().timeouts;
    st.retries += c.fault_stats().retries;
  };
  for (const auto& c : w.clients) add_faults(*c);
  for (const auto& cc : w.cluster_clients) {
    for (int i = 0; i < w.cluster->num_shards(); ++i) {
      add_faults(cc->shard_client(i));
    }
  }

  if (w.cluster) {
    sim::Histogram shard_latency;
    for (int i = 0; i < w.cluster->num_shards(); ++i) {
      int64_t served = 0;
      for (const auto& s : w.cluster_sessions) {
        served += s->shard_reads_served(i);
        shard_latency.Merge(s->shard_latency(i));
      }
      st.shard_reads_min = i == 0 ? served : std::min(st.shard_reads_min, served);
      st.shard_reads_max = std::max(st.shard_reads_max, served);
    }
    st.shard_p50_us = shard_latency.Percentile(0.50) / 1e3;
    st.shard_requests = shard_latency.Count();
    st.shard_mean_us = shard_latency.Mean() / 1e3;
    for (const auto& s : w.cluster_sessions) {
      st.read_failovers += s->read_failovers();
      st.wrong_shard_retries += s->wrong_shard_retries();
    }
    if (w.migrator) {
      st.migration_copy_ios = w.migrator->stats().copy_ios;
      st.migration_dirty_recopies = w.migrator->stats().dirty_recopies;
    }
  }

  if (w.kv) {
    const apps::kv::KvStore::Stats& ks = w.kv->stats();
    st.kv_gets = ks.gets;
    st.kv_block_reads = ks.block_reads;
    st.kv_compactions = ks.compactions;
    st.kv_bytes_compacted = ks.bytes_compacted;
    st.kv_device_bytes_written = w.bdev->bytes_written();
    st.block_requeues = w.bdev->requeues();
    add_faults(w.bdev->client());
  }
  if (w.timed) {
    sim::Histogram lat;
    for (const auto& f : w.timed->page_reads()) {
      if (f.Ready()) lat.Record(f.Get().Latency());
    }
    st.backend_page_reads = static_cast<int64_t>(w.timed->page_reads().size());
    st.backend_read_p50_us = lat.Percentile(0.50) / 1e3;
    st.backend_read_p999_us = lat.Percentile(0.999) / 1e3;
  }

  st.register_tenant = w.register_tenant;
  st.issue = w.issue;
  st.get = w.get;
  st.put = w.put;
  return st;
}

}  // namespace perfbench
