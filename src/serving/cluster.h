#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "metrics/counters.h"
#include "metrics/incident.h"
#include "metrics/phase_account.h"
#include "metrics/registry.h"
#include "serving/arrivals.h"
#include "serving/router.h"
#include "serving/server.h"
#include "sim/environment.h"
#include "sim/shard.h"

namespace olympian::serving {

// One client of the cluster: the per-request spec (model, batch, deadline,
// count) plus its arrival generator. With `arrivals` closed-loop the client
// behaves exactly like the single-server closed-loop client, one level up.
// Open-loop timing comes from `arrivals` alone: Cluster::Run rejects a
// nonzero `request.mean_interarrival` (the single-server legacy open loop).
struct ClusterClientSpec {
  ClientSpec request;
  ArrivalSpec arrivals;
};

// Per-client outcome of a cluster run (the cross-server analogue of
// ClientResult; gpu_index becomes the home *server*).
struct ClusterClientResult {
  std::string name;
  std::string model;
  std::size_t home_server = 0;
  sim::Duration finish_time;
  int requests_completed = 0;  // kOk + kFailedRetried
  std::vector<double> request_latency_ms;
  std::vector<RequestStatus> request_status;

  int CountStatus(RequestStatus s) const;
};

struct ClusterOptions {
  // Template for every server: devices, pool, executor, degradation. The
  // cluster derives each server's seed from `seed` and forces
  // failover.enabled on — the router's cross-server contract depends on the
  // in-server placer rejecting promptly when every local device is down.
  // A set `server.observability` field throws: only Experiment::Run reads it.
  ServerOptions server;
  std::size_t num_servers = 2;
  RouterOptions router;
  // Server-level fault schedule (crashes, partitions, gray faults). The
  // constructor throws std::out_of_range for an event on a missing server.
  fault::ServerFaultPlan faults;
  // Router counters + per-server health series land here (may be null).
  metrics::MetricRegistry* registry = nullptr;
  // Latency anatomy: a set collector receives each finished request's
  // PhaseAccount. A set incident log is enabled and fed by the cluster and
  // its router; null feeds a private log that is never enabled. Both are
  // fed hub-side only, in virtual-time order, so their exports are
  // byte-identical at any shard count.
  metrics::PhaseCollector* phases = nullptr;
  metrics::IncidentLog* incidents = nullptr;
  // Master seed for server seeds and per-client request streams.
  std::uint64_t seed = 1;
  // Simulation shards. 1 (the default) keeps everything on one event queue —
  // the unsharded engine, byte-identical to the pre-sharding cluster. With
  // shards > 1 the servers are partitioned across worker shards (one engine
  // lane per server, server s on shard s % shards; router, clients, and
  // server-level fault injection on the hub) and the experiment runs on
  // sim::ShardedEngine's conservative windows. Clamped to num_servers.
  //
  // Every cluster configuration shards: per-request kAllocFault device
  // faults and a server-side tracer run at any shard count and export
  // byte-identically to shards=1 (each server traces into a private buffer
  // on its own shard, and the cluster merges the buffers hub-side in a
  // canonical order after the run). Capacity is throttled only by the
  // hub-applied ServerFaultPlan::CapacityLoss, so the router probe's
  // hub-side read of device capacity is exact at any shard count. The
  // engine lookahead is cluster.cc's kNetDelay, the router <-> server hop
  // latency.
  std::size_t shards = 1;
};

// One aggregate request stream: an open-loop arrival process standing in
// for `modeled_clients` individual clients of one model. Each arrival draws
// a client id, whose home server is id % num_servers; the per-(server,
// stream) tenant is provisioned on every server up front, so memory and
// process count scale with streams and in-flight requests — not with the
// modeled client population. This is what makes million-client workloads
// feasible: one generator proc per stream instead of one proc per client.
struct ClusterStreamSpec {
  ClientSpec request;   // per-request template (model, batch, deadline)
  ArrivalSpec arrivals; // must be open-loop (kClosedLoop is rejected)
  std::uint64_t modeled_clients = 1;
  int num_requests = 0; // total arrivals this stream generates
};

// Per-stream outcome of a RunStreams run. Request slots are indexed by
// arrival order (not completion order), so results are layout-identical
// across shard counts.
struct ClusterStreamResult {
  std::string name;
  std::string model;
  sim::Duration finish_time;   // last response of this stream
  int requests_completed = 0;  // kOk + kFailedRetried
  std::vector<double> request_latency_ms;
  std::vector<RequestStatus> request_status;
};

// A cluster of N independent serving::Experiment instances on ONE shared
// virtual clock, fronted by a Router. The cluster implements the router's
// transport (so partitions and crashes are modelled here, where the
// topology lives) and the cross-server failover contract: a request whose
// server died mid-flight is re-admitted on a survivor WITHOUT spending the
// client retry budget, mirroring the in-server device-failover rule.
class Cluster : private RouterTransport {
 public:
  explicit Cluster(ClusterOptions options);
  ~Cluster() override;

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Runs all clients from t=0 to completion (client i's home server is
  // i % num_servers). May only be called once. Throws std::invalid_argument
  // for a client with a nonzero request.mean_interarrival.
  std::vector<ClusterClientResult> Run(
      const std::vector<ClusterClientSpec>& clients);

  // Runs aggregate request streams from t=0 to completion (open-loop only).
  // Mutually exclusive with Run; may only be called once. Throws
  // std::invalid_argument for a stream with a closed-loop generator, a
  // negative num_requests or a nonzero request.mean_interarrival.
  std::vector<ClusterStreamResult> RunStreams(
      const std::vector<ClusterStreamSpec>& streams);

  sim::Environment& env() { return env_; }
  const sim::ShardedEngine& engine() const { return engine_; }
  std::size_t shards() const { return engine_.shards(); }
  Experiment& server(std::size_t i) { return *servers_.at(i); }
  std::size_t num_servers() const { return servers_.size(); }
  const Router& router() const { return *router_; }
  const metrics::RouterCounters& counters() const { return counters_; }
  sim::Duration makespan() const { return makespan_; }

 private:
  // RouterTransport:
  sim::Task Probe(std::size_t server, bool& ok) override;
  bool HasUsableDevice(std::size_t server) const override;

  sim::Task ClientProc(std::size_t client, const ClusterClientSpec& spec,
                       std::uint64_t seed, ClusterClientResult& out);
  // One request end-to-end: route -> forward hop onto the server's shard ->
  // serve -> response hop back to the hub, with failover re-admission and
  // the budgeted retry loop. Writes the outcome into `status` and
  // `latency_ms`, counts a success into `completed`, and feeds the phase
  // collector, the incident log and `latency_hist` (the caller resolves it
  // once; null when the cluster has no registry).
  sim::Task DispatchRequest(std::size_t client, const ClientSpec& spec,
                            std::size_t home, sim::Rng& rng,
                            sim::TimePoint arrival, RequestStatus& status,
                            double& latency_ms, int& completed,
                            metrics::MetricRegistry::Histogram* latency_hist);
  // Bring client's tenant up on `server`, charging parameter streaming +
  // warm-up for a first arrival on a non-home server. `ok` is false on a
  // transient allocation failure. Runs on the server's environment (the
  // hub's in unsharded mode, where they are the same object).
  sim::Task EnsureTenant(std::size_t server, std::size_t client,
                         const ClientSpec& spec, std::size_t& tenant,
                         bool& ok);
  // One aggregate stream: generates arrivals and fans each request out as
  // an independent process (open loop — generation never blocks on serving).
  sim::Task StreamProc(std::size_t stream, const ClusterStreamSpec& spec,
                       std::uint64_t seed, ClusterStreamResult& out);
  sim::Task StreamRequestProc(std::size_t stream, const ClusterStreamSpec& spec,
                              std::size_t home, sim::Rng rng,
                              sim::TimePoint arrival, int index,
                              ClusterStreamResult& out,
                              metrics::MetricRegistry::Histogram* latency_hist);
  // The latency histogram of `model` in the cluster registry, or null
  // without one. Resolved once per client or stream, never per request.
  metrics::MetricRegistry::Histogram* LatencyHistogram(
      const std::string& model);
  // The run driver Run and RunStreams share around their spawn loops.
  // StartRun registers the priority classes, starts the servers and the
  // router, and arms the server faults. FinishRun gives each of the
  // `generators` spawned processes a unit of live traffic, runs the engine
  // dry (ServerStalled if live traffic is left), drains the pools, and folds
  // the per-server accumulators hub-side in canonical order.
  void StartRun(std::vector<int> priorities);
  void FinishRun(std::size_t generators);

  void ArmServerFaults();
  void ApplyServerFault(const fault::ServerFaultEvent& e);
  static void FaultTrampoline(void* ctx, std::uint64_t index);
  void StopAll();
  // Hop-delay multiplier for `server` at instant `at` (a hop's send
  // instant, on the clock of the side that sends it).
  double JitterFactor(std::size_t server, sim::TimePoint at) const {
    return at < jitter_until_[server] ? jitter_factor_[server] : 1.0;
  }
  // Lowest capacity multiplier across the server's devices right now (1.0
  // when no fractional-capacity window is open). Read hub-side only.
  double ServerCapacity(std::size_t server);

  ClusterOptions options_;
  // The log every incident feed goes to: options_.incidents, or
  // disabled_incidents_ when the caller gave none.
  metrics::IncidentLog disabled_incidents_;
  metrics::IncidentLog& incidents_;
  // Declared before env_: env_ aliases the engine's hub environment, which
  // is the one and only environment when shards == 1 (the unsharded path).
  sim::ShardedEngine engine_;
  sim::Environment& env_;
  std::vector<std::unique_ptr<Experiment>> servers_;
  std::unique_ptr<Router> router_;
  metrics::RouterCounters counters_;
  // User-facing trace destination (ServerOptions::executor.tracer). Never
  // written during the run: each server records into a private per-server
  // buffer on its own shard, the hub (fault spans) into hub_tracer_, and
  // FinishRun folds them into tracer_ in canonical order — hub first, then
  // servers 0..N-1 — at EVERY shard count, so the merged trace is byte-
  // identical whether the run sharded or not.
  metrics::Tracer* tracer_;
  std::unique_ptr<metrics::Tracer> hub_tracer_;
  std::vector<std::unique_ptr<metrics::Tracer>> server_tracers_;

  // Server fault state (virtual-time windows; a past deadline means clear).
  // Written only by hub-resident code (fault callbacks on the hub queue);
  // shard-resident readers are race-free because writes happen only while
  // the workers are parked at a barrier, and temporally exact because every
  // hub instant at or before a worker event's time has already executed.
  std::vector<sim::TimePoint> crashed_until_;
  std::vector<sim::TimePoint> part_to_until_;  // router -> server drops
  // Network-jitter windows: every router<->server hop (requests, responses,
  // probes) is stretched by jitter_factor_ while the window is open. The
  // factor is >= 1, so jittered hops never undercut the kNetDelay lookahead
  // that bounds the sharded engine's conservative windows.
  std::vector<sim::TimePoint> jitter_until_;
  std::vector<double> jitter_factor_;

  // Per-server client -> tenant index. Sharded by server so concurrent
  // first-arrival instantiations on different shards never touch the same
  // map; the hub only reads them (retire loop) during hub instants.
  std::vector<std::map<std::size_t, std::size_t>> tenant_of_;
  // Per-server tenant-instantiation counts, merged into counters_ after the
  // run (the shared counter would be a cross-thread race in sharded mode).
  std::vector<std::uint64_t> tenant_instantiations_;

  // Live traffic: a unit per client or stream generator, and one per
  // in-flight stream request. The last unit out stops the probes.
  std::size_t live_ = 0;
  sim::Duration makespan_;  // raised as each client or stream request ends
  bool ran_ = false;
};

}  // namespace olympian::serving
