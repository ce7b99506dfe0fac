#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "gpusim/gpu.h"
#include "graph/executor.h"
#include "graph/graph.h"
#include "graph/hooks.h"
#include "graph/thread_pool.h"
#include "metrics/counters.h"
#include "metrics/phase_account.h"
#include "metrics/registry.h"
#include "models/model_zoo.h"
#include "serving/degradation.h"
#include "serving/health.h"
#include "serving/placer.h"
#include "sim/environment.h"

namespace olympian::serving {

// Thrown when a workload cannot make progress — every runnable event has
// drained but clients are unfinished. This is how the simulated server
// surfaces the paper's §4.3 scalability limit: suspended gangs holding all
// pool threads.
struct ServerStalled : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Health-aware placement, failover, and recovery orchestration. Disabled by
// default: the legacy static round-robin pin (and its exact event sequence)
// is preserved bit-for-bit unless `enabled` is set.
struct FailoverOptions {
  bool enabled = false;
  HealthMonitorOptions health;
};

// Observability wiring for Experiment::Run; a Cluster rejects every field.
// Fully passive: with `registry` null (the default) no sampling runs and no
// registry is touched, and even when enabled the sampler is strictly
// read-only — the golden determinism suite asserts finish times are
// bit-identical in both modes.
struct ObservabilityOptions {
  // Destination for counters, request-latency histograms, and the
  // sampler's windowed series. Owned by the caller; must outlive Run.
  metrics::MetricRegistry* registry = nullptr;
  // Virtual-clock cadence of the sampler process that snapshots per-device
  // utilization, queue depth, health, placer load, pool occupancy, and
  // scheduler token occupancy (via SchedulingHooks::OnSample).
  // Zero disables the sampler; counters and histograms still flow.
  sim::Duration sample_interval = sim::Duration::Zero();
  // Latency anatomy. Every request keeps a PhaseAccount that charges its
  // whole lifetime to the closed Phase taxonomy (phase sum == end-to-end
  // latency bit-exactly in virtual time) at a few integer adds per request,
  // with no allocation and no event. When set, each finished request's
  // account is folded per (server, model) into this collector. Owned by the
  // caller; must outlive Run.
  metrics::PhaseCollector* phases = nullptr;
};

// GPU streams per job; bounds a job's intra-request kernel concurrency.
inline constexpr int kStreamsPerJob = 2;

// Configuration of one model-server instance.
struct ServerOptions {
  gpusim::Gpu::Options gpu;  // device spec + driver arbitration
  // Number of identical devices in the server (extension of the paper's
  // single-GPU scope, per its §7 future work). Clients are placed
  // round-robin; each device gets its own driver and, under Olympian, its
  // own scheduler.
  int num_gpus = 1;
  // Size of the shared inter-op thread pool (TF-Serving's threadPool).
  // Under Olympian, suspended gangs hold pool threads across quanta, so the
  // pool — not GPU memory — caps how many concurrent clients some models
  // can sustain (paper §4.3).
  std::size_t pool_threads = 300;
  graph::ExecutorOptions executor;
  // Deterministic fault schedule applied during Run (empty = no faults).
  fault::FaultPlan faults;
  // Graceful-degradation knobs: the retry policy. Defaults preserve the
  // legacy fail-stop behaviour.
  DegradationOptions degradation;
  // Health-aware placement / failover / recovery. Off by default.
  FailoverOptions failover;
  // Metrics registry + sampler wiring. Off by default.
  ObservabilityOptions observability;
  // Master seed; every stochastic component derives its stream from it.
  std::uint64_t seed = 1;
};

// One client of the serving system: `num_batches` inference requests
// against `model` at batch size `batch` (the paper's default workload is 10
// back-to-back batches of 100).
//
// With `mean_interarrival` zero the client is closed-loop (paper style):
// each request is issued as soon as the previous one finishes. A positive
// value makes it open-loop: requests arrive by a Poisson process (an
// extension toward the paper's "more realistic workloads" future work) and
// per-request latency is recorded.
struct ClientSpec {
  std::string model;
  int batch = 100;
  int num_batches = 10;
  int weight = 1;
  int priority = 0;
  sim::Duration mean_interarrival = sim::Duration::Zero();
  // Per-request deadline, measured from the request's arrival and covering
  // all retry attempts. Zero disables: requests run to completion. With a
  // deadline set, a request overrunning it is cancelled cooperatively and
  // reported as kTimedOut instead of stalling the client.
  sim::Duration deadline = sim::Duration::Zero();
};

// Per-client outcome of a workload run.
struct ClientResult {
  std::string name;
  gpusim::JobId job = gpusim::kNoJob;
  std::string model;
  int batch = 0;
  // Wall-clock from workload start to this client's last response.
  sim::Duration finish_time;
  // Total GPU duration (Figure 5 union) attributed to this client.
  sim::Duration gpu_duration;
  int batches_completed = 0;
  // Which device served this client (round-robin placement).
  std::size_t gpu_index = 0;
  // Per-request latency (arrival -> response), milliseconds. For
  // closed-loop clients the arrival is the previous response.
  std::vector<double> request_latency_ms;
  // Per-request terminal status, parallel to request_latency_ms.
  std::vector<RequestStatus> request_status;

  // Number of requests that ended in `s`.
  int CountStatus(RequestStatus s) const;
};

// A complete single-GPU serving experiment: environment, device, thread
// pool, executor, and clients. Mirrors how the paper runs every
// measurement: N concurrent clients issued against one TF-Serving process.
//
// Usage:
//   Experiment exp(options);
//   exp.SetHooks(&scheduler);              // omit for stock TF-Serving
//   auto results = exp.Run(clients);
class Experiment : private HealthObserver {
 public:
  explicit Experiment(ServerOptions options);
  // Cluster form: run on a caller-owned Environment so several servers
  // share one virtual clock. `env` must outlive the experiment. Everything
  // else — devices, pool, executors, failover — stays per-server.
  Experiment(ServerOptions options, sim::Environment& env);
  ~Experiment() override;

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  // Install a scheduler on device 0 (the common single-GPU case). Must be
  // called before Run; the hooks object must outlive the experiment.
  void SetHooks(graph::SchedulingHooks* hooks) { SetGpuHooks(0, hooks); }

  // Install a per-device scheduler (multi-GPU servers need one scheduler
  // per device — a token is a per-device grant).
  void SetGpuHooks(std::size_t gpu_index, graph::SchedulingHooks* hooks);

  sim::Environment& env() { return env_; }
  gpusim::Gpu& gpu() { return *gpus_[0]; }
  gpusim::Gpu& gpu(std::size_t i) { return *gpus_.at(i); }
  std::size_t num_gpus() const { return gpus_.size(); }
  graph::ThreadPool& pool() { return *pool_; }
  graph::Executor& executor() { return executor(0); }
  graph::Executor& executor(std::size_t gpu_index);

  // Loads a model onto a device (allocating its parameter memory there
  // once) and returns its graph, the process-wide models::SharedModel.
  // Called implicitly by Run.
  const graph::Graph& LoadModel(const std::string& name,
                                std::size_t gpu_index = 0);

  // Manual-workload API (used by the Batcher instead of Run): create a job
  // on device 0 with streams and activation memory for up to `max_batch`
  // items. The context lives as long as the experiment.
  graph::JobContext& CreateJob(const std::string& model, int max_batch);

  // Manual-workload API: drain the pool and run the simulation to
  // completion after the caller's own processes have been spawned. Note:
  // makespan() then reports the drain time of the event queue, which may
  // include disarmed timers firing as no-ops; measure request latencies at
  // the call sites for precise timings.
  void FinishManualRun();

  // Runs all clients concurrently from t=0 to completion. Throws
  // ServerStalled if progress stops (capacity exceeded) and
  // gpusim::OutOfDeviceMemory if activations do not fit.
  std::vector<ClientResult> Run(const std::vector<ClientSpec>& clients);

  // --- cluster serving API ------------------------------------------------
  // A Cluster drives N Experiments on one shared Environment through this
  // surface instead of Run(): stand the server up once, register tenants
  // (the cluster's clients, one slot per client that ever lands here), and
  // issue individual requests through the request loop (admission,
  // health-aware placement, retries, device failover). Run() is built on
  // the same calls: one tenant per client.
  //
  // StartServing = the setup Run() performs before spawning clients (bind
  // executors, stand up failover, arm the device-fault schedule); it marks
  // the experiment as running, so Run() and StartServing are exclusive.
  void StartServing();
  // Register one tenant: loads the model, creates its JobContext on the
  // next round-robin home device, and allocates activation memory. Returns
  // the tenant index. Existing tenants never move, so requests in flight
  // stay valid while tenants are added. A spec with batch < 1,
  // num_batches < 0 or a negative deadline throws std::invalid_argument
  // naming the field, before anything is loaded.
  std::size_t AddTenant(const ClientSpec& spec);
  // The request loop: one request of tenant `tenant`. Each round passes
  // admission (deadline, a usable device), is routed, and runs one leg; a
  // round that fails ends in one tail: free failover when the device died,
  // else a budgeted retry, else exhaustion. `arrival` anchors the deadline;
  // `status` receives the terminal outcome. `account` continues the
  // request's latency-anatomy account, started by the caller — the cluster
  // charges the router-side phases, this call charges the server-side ones.
  sim::Task ServeTenantRequest(std::size_t tenant, sim::Rng& rng,
                               sim::TimePoint arrival, RequestStatus& status,
                               metrics::PhaseAccount& account);
  // Fold a tenant's meters into the retired table, so the live meter count
  // stays bounded however many jobs a run admits (call when its client
  // finishes), and return the GPU time of every context it ran on.
  sim::Duration RetireTenant(std::size_t tenant);
  // Stop the health monitor's probe loops so the shared event queue can
  // drain once traffic ends.
  void StopServing();
  // Shut the thread pool down (exiting workers drain on the next env run).
  void ShutdownPool();
  // Server-level health aggregate for the router: does any device accept
  // traffic right now?
  bool AnyUsableDevice() const;
  std::size_t num_tenants() const { return tenants_.size(); }

  // Post-run metrics.
  sim::Duration makespan() const { return makespan_; }
  // nvidia-smi-style utilization: GPU-busy fraction of the makespan.
  double utilization() const;
  // Fault / retry / degradation counters accumulated during Run.
  const metrics::ServingCounters& counters() const { return counters_; }
  // The fault injector armed for the last Run (nullptr when no faults).
  const fault::FaultInjector* injector() const { return injector_.get(); }
  // Health monitor / placer of the failover subsystem (nullptr unless
  // `failover.enabled`; valid during and after Run).
  const HealthMonitor* health() const { return health_.get(); }
  const Placer* placer() const { return placer_.get(); }

  // The JobContexts created for the last Run (for scheduler inspection).
  const std::vector<std::unique_ptr<graph::JobContext>>& job_contexts() const {
    return contexts_;
  }

 private:
  Experiment(ServerOptions options, sim::Environment* env);

  // The one JobContext builder: a fresh job on `gpu` with streams and
  // activation memory for `spec`, kept for the life of the experiment.
  // Throws what AllocateMemory throws (the context stays behind).
  graph::JobContext& NewContext(const ClientSpec& spec, std::size_t gpu,
                                std::string name);
  // One Run() client: tenant `tenant`'s requests, back to back or open-loop.
  sim::Task ClientProc(std::size_t tenant, std::uint64_t seed,
                       ClientResult& out);
  // One leg of a request on `gpu`: arm `token` on the context, register it
  // with the placer and the device's in-flight list (failover only), run
  // the graph, deregister.
  sim::Task RunLeg(graph::JobContext& ctx, const graph::Graph& g,
                   std::size_t gpu, metrics::TraceContext trace,
                   graph::CancelToken& token);
  // Cancel a leg and, once per token, tell the device's scheduler.
  void CancelLeg(graph::CancelToken& token, graph::JobContext& ctx,
                 std::size_t gpu, graph::CancelReason reason);
  // Fires at `deadline`; cancels the run if it is still in flight. Holds a
  // shared_ptr so a watchdog outliving its request cannot dangle.
  sim::Task DeadlineWatchdog(std::shared_ptr<graph::CancelToken> token,
                             graph::JobContext* ctx, std::size_t gpu_index,
                             sim::TimePoint deadline);

  // --- failover plumbing (active only when options_.failover.enabled) ----
  // serving::HealthObserver:
  void OnDeviceDown(std::size_t gpu) override;
  void OnDeviceReadmitted(std::size_t gpu) override;
  sim::Duration ParamsReloadCost(std::size_t gpu) const override;
  // Bring the tenant's model (and its JobContext) up on `gpu`, charging
  // reload + warm-up on the virtual clock for the first arrival; concurrent
  // arrivals await the load. `ok` is false on a transient alloc failure.
  sim::Task EnsureReplica(std::size_t tenant, std::size_t gpu, bool& ok);
  graph::JobContext* ClientContext(std::size_t tenant, std::size_t gpu);
  // Virtual-clock sampler: snapshots device/pool/health/scheduler state
  // into the observability registry every `sample_interval` until the last
  // client finishes. Read-only; never perturbs the simulation.
  sim::Task SamplerProc();

  ServerOptions options_;
  // Owned in the standalone case, absent in the cluster case; env_ is the
  // single source of truth either way. Declared before env_ so the
  // reference binds to a constructed object.
  std::unique_ptr<sim::Environment> owned_env_;
  sim::Environment& env_;
  std::vector<std::unique_ptr<gpusim::Gpu>> gpus_;
  std::unique_ptr<graph::ThreadPool> pool_;
  std::vector<std::unique_ptr<graph::Executor>> executors_;
  std::vector<graph::SchedulingHooks*> hooks_;
  std::vector<std::uint64_t> executor_seeds_;
  // (gpu_index, model) pairs whose parameters are already resident.
  std::set<std::pair<std::size_t, std::string>> params_resident_;
  std::vector<std::unique_ptr<graph::JobContext>> contexts_;
  gpusim::JobId next_job_id_ = 0;
  sim::Duration makespan_;
  bool ran_ = false;
  metrics::ServingCounters counters_;
  std::unique_ptr<fault::FaultInjector> injector_;

  // --- failover state (allocated only when options_.failover.enabled) ----
  std::unique_ptr<HealthMonitor> health_;
  std::unique_ptr<Placer> placer_;
  // One JobContext per (tenant, device) the tenant has ever run on; the
  // home context is created with the tenant, replicas lazily on first route
  // (failover only).
  std::map<std::pair<std::size_t, std::size_t>, graph::JobContext*>
      client_gpu_ctx_;
  struct InFlight {
    graph::CancelToken* token = nullptr;
    graph::JobContext* ctx = nullptr;
  };
  std::vector<std::vector<InFlight>> inflight_;  // per device

  // --- tenants (Run's clients, or the cluster's) ---------------------------
  struct Tenant {
    ClientSpec spec;
    graph::JobContext* ctx = nullptr;  // home-device context
    const graph::Graph* graph = nullptr;
    std::size_t primary_gpu = 0;
  };
  // Boxed: requests hold a Tenant& across awaits while AddTenant appends.
  std::vector<std::unique_ptr<Tenant>> tenants_;
  // Run()'s clients still inside ClientProc; the last one out stops the
  // health monitor's probe loops so the event queue can drain, and ends the
  // sampler loop.
  std::size_t clients_running_ = 0;

  // --- observability state ------------------------------------------------
  // Monotonic request-id source; every admission (retry, failover) of one
  // request reuses its id as the Chrome-trace flow id.
  std::uint64_t next_request_id_ = 0;
};

}  // namespace olympian::serving
