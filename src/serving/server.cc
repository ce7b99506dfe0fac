#include "serving/server.h"

#include <cmath>
#include <utility>

namespace olympian::serving {
namespace {
// Delay after a rejected request, and the poll step while another request
// holds the tenant's context or after a failed replica load: each prevents
// a zero-virtual-time spin.
constexpr sim::Duration kRejectBackoff = sim::Duration::Millis(5);
// Multiplicative jitter on each retry's exponential backoff, drawn from the
// request's seeded Rng so retry timing is reproducible.
constexpr double kRetryJitter = 0.2;
}  // namespace

int ClientResult::CountStatus(RequestStatus s) const {
  int n = 0;
  for (const RequestStatus st : request_status) n += (st == s) ? 1 : 0;
  return n;
}

Experiment::Experiment(ServerOptions options)
    : Experiment(std::move(options), static_cast<sim::Environment*>(nullptr)) {}

Experiment::Experiment(ServerOptions options, sim::Environment& env)
    : Experiment(std::move(options), &env) {}

Experiment::Experiment(ServerOptions options, sim::Environment* env)
    : options_(std::move(options)),
      owned_env_(env == nullptr ? std::make_unique<sim::Environment>()
                                : nullptr),
      env_(env == nullptr ? *owned_env_ : *env) {
  if (options_.num_gpus < 1) {
    throw std::invalid_argument("num_gpus must be >= 1");
  }
  // A negative backoff would schedule retries in the past.
  if (options_.degradation.retry.base_backoff < sim::Duration::Zero()) {
    throw std::invalid_argument("degradation.retry.base_backoff must be >= 0");
  }
  // Derive decorrelated seeds for each device and executor.
  sim::Rng master(options_.seed);
  for (int i = 0; i < options_.num_gpus; ++i) {
    gpusim::Gpu::Options gpu_opts = options_.gpu;
    gpu_opts.seed = master.NextU64();
    gpus_.push_back(std::make_unique<gpusim::Gpu>(env_, gpu_opts));
    executor_seeds_.push_back(master.NextU64());
  }
  executors_.resize(gpus_.size());
  hooks_.resize(gpus_.size(), nullptr);
  pool_ = std::make_unique<graph::ThreadPool>(env_, options_.pool_threads);
  // Built here so that a plan naming a missing GPU, or holding a server
  // fault, throws before anything runs; StartServing arms it.
  if (!options_.faults.empty()) {
    std::vector<gpusim::Gpu*> gpu_ptrs;
    for (const auto& g : gpus_) gpu_ptrs.push_back(g.get());
    injector_ = std::make_unique<fault::FaultInjector>(
        env_, std::move(gpu_ptrs), options_.faults, counters_,
        options_.executor.tracer);
  }
}

Experiment::~Experiment() = default;

void Experiment::SetGpuHooks(std::size_t gpu_index,
                             graph::SchedulingHooks* hooks) {
  if (executors_.at(gpu_index) != nullptr) {
    throw std::logic_error("SetGpuHooks must precede executor construction");
  }
  hooks_.at(gpu_index) = hooks;
}

graph::Executor& Experiment::executor(std::size_t gpu_index) {
  auto& exec = executors_.at(gpu_index);
  if (!exec) {
    exec = std::make_unique<graph::Executor>(
        env_, *gpus_[gpu_index], *pool_, options_.executor,
        executor_seeds_[gpu_index], hooks_[gpu_index]);
  }
  return *exec;
}

const graph::Graph& Experiment::LoadModel(const std::string& name,
                                          std::size_t gpu_index) {
  const graph::Graph& graph = models::SharedModel(name);
  // Model parameters are loaded once per device and shared by its clients.
  if (params_resident_.emplace(gpu_index, name).second) {
    gpus_.at(gpu_index)->AllocateMemory(gpusim::kNoJob,
                                        models::GetModel(name).params_mb);
  }
  return graph;
}

graph::JobContext& Experiment::CreateJob(const std::string& model,
                                         int max_batch) {
  LoadModel(model);
  return NewContext(ClientSpec{.model = model, .batch = max_batch}, 0,
                    model + "#" + std::to_string(next_job_id_));
}

graph::JobContext& Experiment::NewContext(const ClientSpec& spec,
                                          std::size_t gpu, std::string name) {
  auto ctx = std::make_unique<graph::JobContext>();
  ctx->job = next_job_id_++;
  ctx->client_name = std::move(name);
  ctx->model_key = models::ModelKey(spec.model, spec.batch);
  ctx->batch = spec.batch;
  ctx->weight = spec.weight;
  ctx->priority = spec.priority;
  ctx->gpu_index = static_cast<int>(gpu);
  for (int s = 0; s < kStreamsPerJob; ++s) {
    ctx->streams.push_back(gpus_[gpu]->CreateStream());
  }
  graph::JobContext& out = *contexts_.emplace_back(std::move(ctx));
  // Activation memory for the job's in-flight batches (§4.3).
  gpus_[gpu]->AllocateMemory(
      out.job, models::GetModel(spec.model).ClientMemoryMb(spec.batch));
  return out;
}

void Experiment::FinishManualRun() {
  env_.Run();
  makespan_ = env_.Now() - sim::TimePoint();
  pool_->Shutdown();
  env_.Run();
}

sim::Task Experiment::ClientProc(std::size_t tenant, std::uint64_t seed,
                                 ClientResult& out) {
  const ClientSpec& spec = tenants_[tenant]->spec;
  sim::Rng rng(seed);
  const bool open_loop = spec.mean_interarrival > sim::Duration::Zero();
  // Handle resolved once per client; Observe on the request path is then
  // allocation-free.
  metrics::MetricRegistry* const registry = options_.observability.registry;
  metrics::MetricRegistry::Histogram* const latency_hist =
      registry == nullptr
          ? nullptr
          : &registry->GetHistogram("olympian_request_latency_ms",
                                    {{"model", spec.model}});
  metrics::PhaseCollector* const phases = options_.observability.phases;
  metrics::PhaseAccount account;
  sim::TimePoint arrival;  // request b's arrival instant (t=0 for b=0)
  for (int b = 0; b < spec.num_batches; ++b) {
    if (open_loop) {
      if (b > 0) {
        // Poisson arrivals: exponential interarrival gaps. A request that
        // arrives while the previous one is in flight queues at the client,
        // and its latency includes that wait.
        arrival = arrival + spec.mean_interarrival *
                                (-std::log(1.0 - rng.NextDouble()));
      }
      if (arrival > env_.Now()) co_await env_.Delay(arrival - env_.Now());
    } else {
      arrival = env_.Now();
    }
    RequestStatus status = RequestStatus::kOk;
    account.Start(arrival);
    // An open-loop request that arrived while its predecessor was in flight
    // queued at the client; that wait is pre-admission time.
    account.Charge(metrics::Phase::kAdmission, env_.Now());
    co_await ServeTenantRequest(tenant, rng, arrival, status, account);
    out.request_latency_ms.push_back((env_.Now() - arrival).millis());
    out.request_status.push_back(status);
    const bool ok =
        status == RequestStatus::kOk || status == RequestStatus::kFailedRetried;
    if (phases != nullptr) {
      phases->Record(-1, spec.model, account, ok, env_.Now() - arrival);
    }
    if (latency_hist != nullptr) {
      latency_hist->Observe(out.request_latency_ms.back());
    }
    if (ok) ++out.batches_completed;
  }
  out.finish_time = env_.Now() - sim::TimePoint();
  out.gpu_duration = RetireTenant(tenant);
  // The last client out stops the probe loops (so the event queue can
  // drain) and the sampler.
  if (--clients_running_ == 0) StopServing();
}

namespace {

// What each terminal status does at the request loop's one exit: the
// counter it bumps and the reason that ends its trace flow. Indexed by
// RequestStatus.
struct Outcome {
  std::uint64_t metrics::ServingCounters::* counter;
  const char* flow_end;
};
constexpr Outcome kOutcomes[] = {
    {&metrics::ServingCounters::requests_ok, "ok"},
    {&metrics::ServingCounters::requests_timed_out, "deadline"},
    {&metrics::ServingCounters::requests_rejected, "rejected"},
    {&metrics::ServingCounters::requests_retried_ok, "ok-retried"},
    {&metrics::ServingCounters::requests_failed, "failed"},
};

}  // namespace

sim::Task Experiment::ServeTenantRequest(std::size_t tenant, sim::Rng& rng,
                                         sim::TimePoint arrival,
                                         RequestStatus& status,
                                         metrics::PhaseAccount& account) {
  // Tenants are boxed, so `t` stays valid while a cluster failover adds
  // tenants under this suspended request.
  const Tenant& t = *tenants_.at(tenant);
  const ClientSpec& spec = t.spec;
  const DegradationOptions& deg = options_.degradation;
  const bool has_deadline = spec.deadline > sim::Duration::Zero();
  const sim::TimePoint deadline = arrival + spec.deadline;
  const bool failover = health_ != nullptr;

  // Causal tracing: one flow id (= request id) chains every admission of
  // this request — retries and failover re-admissions — across device
  // tracks. The id is assigned unconditionally so traced and untraced runs
  // walk identical state.
  metrics::Tracer* const tracer = options_.executor.tracer;
  const std::uint64_t rid = ++next_request_id_;
  int flow_hops = 0;                              // executed admissions so far
  std::int64_t flow_track = t.ctx->job;           // track of the last leg
  // Why the *next* admission hop happens (failover / retry / reroute);
  // rendered as the kStep's args.reason so a trace shows why a leg ended
  // and another began instead of a bare arrow.
  const char* hop_detail = nullptr;

  // Latency anatomy: every interval between awaits below is charged to
  // exactly one phase of `account`, so its cursor equals the current instant
  // at every co_return — the phase sum matches end-to-end latency
  // bit-exactly by construction. The caller charges up to the first
  // admission and every round ends on a charge, so the admission checks
  // themselves take no time.
  bool failing_over = false;  // last attempt ended in failover re-admission
  for (int attempt = 1;;) {
    // Admission: a request past its deadline, or left with no usable
    // device, ends in the one exit below.
    if (has_deadline && env_.Now() >= deadline) {
      status = RequestStatus::kTimedOut;
      break;
    }

    // Route this attempt. Legacy: the static round-robin pin. Failover:
    // per-request placement over usable replicas. A round that does not
    // finish the request ends in the tail below, `reason` saying why;
    // `load_failed` marks a replica that could not be instantiated, so the
    // device never saw the request.
    std::size_t gpu = t.primary_gpu;
    graph::JobContext* ctx = t.ctx;
    graph::CancelReason reason = graph::CancelReason::kNone;
    bool load_failed = false;
    if (failover) {
      gpu = placer_->Route(spec.model, t.primary_gpu);
      if (gpu == Placer::kNoDevice) {
        // Every device is down: terminate promptly as a rejection instead
        // of stalling until deadlines (or ServerStalled) fire.
        ++counters_.requests_rejected_no_device;
        status = RequestStatus::kRejected;
        break;
      }
      bool replica_ok = true;
      account.Charge(metrics::Phase::kPlacerDecision, env_.Now());
      co_await EnsureReplica(tenant, gpu, replica_ok);
      // Reload/warm-up wait, unless this admission is a failover re-entry —
      // then the whole leg is blamed on the failover.
      account.Charge(failing_over ? metrics::Phase::kFailoverReadmit
                                  : metrics::Phase::kReload,
                     env_.Now());
      failing_over = false;
      load_failed = !replica_ok;
      if (replica_ok) {
        ctx = ClientContext(tenant, gpu);
        if (!health_->Usable(gpu)) {
          hop_detail = "reroute";
          continue;  // went down while loading
        }
        if (ctx->cancel != nullptr) {
          // Another request still owns this tenant's context: on the
          // cluster's stream path, one tenant per (server, stream) carries
          // every request of the stream on that server, so a concurrent
          // request of the same stream may hold it. Poll until it is free;
          // the wait is charged to kBackoff.
          hop_detail = "reroute";
          co_await env_.Delay(kRejectBackoff);
          account.Charge(metrics::Phase::kBackoff, env_.Now());
          continue;
        }
      }
    }

    if (load_failed || gpus_[gpu]->alloc_fault_active()) {
      // The replica load, or the workspace allocation up front, failed in
      // an alloc-fault window — a retryable transient, like a failed
      // cudaMalloc before launch.
      ++counters_.transient_alloc_failures;
    } else {
      // The flow hop lands at the same instant as the attempt span the
      // executor opens for this admission, and binds to it in Perfetto.
      if (tracer != nullptr) {
        tracer->AddInstantNumbered("placer", "route-gpu-",
                                   static_cast<std::int64_t>(gpu), ctx->job,
                                   env_.Now());
        tracer->AddFlow(flow_hops == 0 ? metrics::Tracer::FlowPhase::kBegin
                                       : metrics::Tracer::FlowPhase::kStep,
                        "request", "req-", rid, ctx->job, env_.Now(),
                        flow_hops == 0 ? nullptr : hop_detail);
      }
      ++flow_hops;
      hop_detail = nullptr;
      flow_track = ctx->job;
      // From the frame pool, like Environment::Spawn's process state, so
      // the token costs no heap allocation once the pool is warm.
      auto token = std::allocate_shared<graph::CancelToken>(
          sim::detail::PoolAlloc<graph::CancelToken>{});
      if (has_deadline) {
        env_.Spawn(DeadlineWatchdog(token, ctx, gpu, deadline),
                   ctx->client_name + "/watchdog");
      }
      const sim::Duration gpu_before = gpus_[gpu]->JobGpuDuration(ctx->job);
      co_await RunLeg(*ctx, *t.graph, gpu, metrics::TraceContext{rid}, *token);
      // Split the run interval into measured GPU residency (compute) and
      // everything else — pool queueing, scheduler token waits (queue).
      account.SplitCharge(metrics::Phase::kGpuCompute,
                          gpus_[gpu]->JobGpuDuration(ctx->job) - gpu_before,
                          metrics::Phase::kGpuQueue, env_.Now());
      reason = token->reason;
      if (!token->cancelled) {
        status = attempt == 1 ? RequestStatus::kOk
                              : RequestStatus::kFailedRetried;
        break;
      }
    }

    // Every failed round ends here: a deadline that elapsed mid-run ends
    // the request, a device that died under the attempt is a free failover,
    // and anything else is a budgeted retry until the budget is spent.
    if (reason == graph::CancelReason::kDeadline) {
      // The deadline already elapsed mid-run; no retry can meet it.
      ++counters_.deadline_cancellations;
      status = RequestStatus::kTimedOut;
      break;
    }
    if (failover && !load_failed &&
        (reason == graph::CancelReason::kFailover ||
         !health_->Usable(gpu))) {
      // The device died under this attempt. Re-admit on a surviving
      // replica WITHOUT consuming the retry budget — the failure belongs
      // to the device, not the request. (The Usable check also catches a
      // kernel failure that raced ahead of the down transition.)
      failing_over = true;
      ++counters_.requests_failed_over;
      hop_detail = graph::ToString(graph::CancelReason::kFailover);
      continue;
    }
    if (reason == graph::CancelReason::kKernelFailed) {
      ++counters_.kernel_failures_observed;
    }
    if (attempt > deg.retry.max_retries) {
      status = RequestStatus::kFailed;
      break;
    }
    ++counters_.retries;
    // A failed replica load polls again after the reject backoff; a failed
    // run backs off exponentially, with jitter.
    sim::Duration backoff = kRejectBackoff;
    if (!load_failed) {
      backoff = rng.Jitter(deg.retry.BackoffFor(attempt), kRetryJitter);
      if (has_deadline && env_.Now() + backoff >= deadline) {
        // The backoff alone would blow the deadline; give up now.
        status = RequestStatus::kTimedOut;
        break;
      }
    }
    ++attempt;
    hop_detail = reason == graph::CancelReason::kKernelFailed
                     ? graph::ToString(reason)
                     : "retry";
    co_await env_.Delay(backoff);
    account.Charge(metrics::Phase::kBackoff, env_.Now());
  }

  // The one exit: the terminal status bumps its counter and ends the
  // request's flow; a rejection answers only after the reject backoff.
  const Outcome& outcome = kOutcomes[static_cast<int>(status)];
  ++(counters_.*outcome.counter);
  if (tracer != nullptr && flow_hops > 0) {
    tracer->AddFlow(metrics::Tracer::FlowPhase::kEnd, "request", "req-", rid,
                    flow_track, env_.Now(), outcome.flow_end);
  }
  if (status == RequestStatus::kRejected) {
    co_await env_.Delay(kRejectBackoff);
    account.Charge(metrics::Phase::kBackoff, env_.Now());
  }
}

sim::Task Experiment::RunLeg(graph::JobContext& ctx, const graph::Graph& g,
                             std::size_t gpu, metrics::TraceContext trace,
                             graph::CancelToken& token) {
  // The executor renders `trace` as this leg's attempt span.
  ctx.trace = trace;
  ctx.gpu_index = static_cast<int>(gpu);
  ctx.cancel = &token;
  if (placer_ != nullptr) {
    placer_->OnRequestStart(gpu);
    inflight_[gpu].push_back(InFlight{&token, &ctx});
  }
  co_await executor(gpu).RunOnce(ctx, g);
  token.finished = true;
  ctx.cancel = nullptr;
  if (placer_ != nullptr) {
    placer_->OnRequestEnd(gpu);
    std::erase_if(inflight_[gpu],
                  [&](const InFlight& f) { return f.token == &token; });
  }
}

void Experiment::CancelLeg(graph::CancelToken& token, graph::JobContext& ctx,
                           std::size_t gpu, graph::CancelReason reason) {
  token.Cancel(reason);
  // The run may be suspended waiting for the scheduler token with no node
  // boundary coming up; notify the hooks directly so the gang is woken,
  // deregistered, and its pool threads released.
  if (!token.hooks_notified) {
    token.hooks_notified = true;
    if (hooks_[gpu] != nullptr) hooks_[gpu]->CancelRun(ctx);
  }
}

sim::Task Experiment::DeadlineWatchdog(
    std::shared_ptr<graph::CancelToken> token, graph::JobContext* ctx,
    std::size_t gpu_index, sim::TimePoint deadline) {
  if (deadline > env_.Now()) co_await env_.Delay(deadline - env_.Now());
  // `finished` is set by the issuer the moment RunOnce returns, so a stale
  // watchdog (its request long done, the context reused) is a no-op.
  if (token->finished || token->cancelled) co_return;
  CancelLeg(*token, *ctx, gpu_index, graph::CancelReason::kDeadline);
}

void Experiment::OnDeviceDown(std::size_t gpu) {
  // Runs synchronously inside the device signal (reset begin / hang
  // escalation), before any failed kernel's waiter resumes. Cancelling with
  // kFailover here wins the sticky-token race against kKernelFailed, so
  // each victim re-admits to a surviving replica without touching its
  // retry budget.
  for (const InFlight& f : inflight_[gpu]) {
    CancelLeg(*f.token, *f.ctx, gpu, graph::CancelReason::kFailover);
    ++counters_.failover_cancellations;
    // Release gang threads stuck in uninterruptible kernel awaits (queued
    // behind a wedged channel): abort the job's streams so the waits
    // resolve and the run drains now, not when the hang clears.
    for (const gpusim::StreamId s : f.ctx->streams) {
      gpus_[gpu]->AbortStream(s);
    }
  }
  if (hooks_[gpu] != nullptr) hooks_[gpu]->OnDeviceDown();
}

void Experiment::OnDeviceReadmitted(std::size_t gpu) {
  if (hooks_[gpu] != nullptr) hooks_[gpu]->OnDeviceUp();
}

sim::Duration Experiment::ParamsReloadCost(std::size_t gpu) const {
  double mb = 0.0;
  for (const auto& [dev, model] : params_resident_) {
    if (dev == gpu) mb += static_cast<double>(models::GetModel(model).params_mb);
  }
  return fault::ParamsTransferTime(mb);
}

sim::Task Experiment::EnsureReplica(std::size_t tenant, std::size_t gpu,
                                    bool& ok) {
  const ClientSpec& spec = tenants_[tenant]->spec;
  ok = true;
  while (placer_->replica_state(gpu, spec.model) !=
         Placer::ReplicaState::kReady) {
    if (placer_->BeginLoad(gpu, spec.model)) {
      // First arrival instantiates the replica: parameters stream over
      // PCIe and the fresh replica warms up before taking traffic.
      co_await env_.Delay(fault::kWarmup +
                          fault::ParamsTransferTime(static_cast<double>(
                              models::GetModel(spec.model).params_mb)));
      try {
        LoadModel(spec.model, gpu);
      } catch (const gpusim::TransientAllocFailure&) {
        ok = false;
      }
      if (!ok) {
        // Roll the slot back so a later attempt retries the load.
        placer_->AbortLoad(gpu, spec.model);
        co_return;
      }
      ++counters_.replica_instantiations;
      placer_->FinishLoad(gpu, spec.model);
    } else {
      // Someone else is loading: wait for it to settle, then re-check (an
      // aborted load makes this waiter take over).
      co_await placer_->AwaitReady(gpu, spec.model);
    }
  }
  if (ClientContext(tenant, gpu) == nullptr) {
    try {
      graph::JobContext& ctx =
          NewContext(spec, gpu,
                     spec.model + "#" + std::to_string(tenant) + "@gpu" +
                         std::to_string(gpu));
      client_gpu_ctx_[{tenant, gpu}] = &ctx;
    } catch (const gpusim::TransientAllocFailure&) {
      // The context and its streams are cheap to leave behind; report a
      // retryable transient.
      ok = false;
    }
  }
}

graph::JobContext* Experiment::ClientContext(std::size_t tenant,
                                             std::size_t gpu) {
  const auto it = client_gpu_ctx_.find({tenant, gpu});
  return it == client_gpu_ctx_.end() ? nullptr : it->second;
}

void Experiment::StartServing() {
  if (ran_) {
    throw std::logic_error(
        "StartServing: experiment already ran (Run and StartServing are "
        "exclusive)");
  }
  ran_ = true;
  for (std::size_t i = 0; i < gpus_.size(); ++i) executor(i);  // bind hooks
  std::vector<gpusim::Gpu*> gpu_ptrs;
  gpu_ptrs.reserve(gpus_.size());
  for (const auto& g : gpus_) gpu_ptrs.push_back(g.get());
  if (options_.failover.enabled) {
    // Stand up the failover subsystem before traffic or faults: listeners
    // must be attached when the first device signal fires.
    HealthObserver& observer = *this;  // private base: convert in-class
    health_ = std::make_unique<HealthMonitor>(
        env_, gpu_ptrs, options_.failover.health, observer, counters_,
        options_.executor.tracer);
    placer_ = std::make_unique<Placer>(env_, *health_, gpus_.size());
    inflight_.resize(gpus_.size());
    health_->Start();
  }
  // Arm the fault schedule before any client starts, so an event at t=0
  // still lands. All faults fire on the virtual clock: a run with the same
  // seed and plan is bit-for-bit reproducible.
  if (injector_ != nullptr) injector_->Arm();
}

std::size_t Experiment::AddTenant(const ClientSpec& spec) {
  if (!ran_) throw std::logic_error("AddTenant before StartServing");
  // Checked before the model loads, so a malformed spec reserves nothing.
  const auto reject = [&](const char* field, const std::string& value,
                          const char* bound) {
    throw std::invalid_argument("client of " + spec.model + " has " + field +
                                " = " + value + "; it must be " + bound);
  };
  if (spec.batch < 1) reject("batch", std::to_string(spec.batch), ">= 1");
  if (spec.num_batches < 0) {
    reject("num_batches", std::to_string(spec.num_batches), ">= 0");
  }
  if (spec.deadline < sim::Duration::Zero()) {
    reject("deadline", std::to_string(spec.deadline.nanos()) + " ns", ">= 0");
  }
  const std::size_t index = tenants_.size();
  const std::size_t gpu = index % gpus_.size();  // round-robin placement
  const graph::Graph& g = LoadModel(spec.model, gpu);
  graph::JobContext& ctx =
      NewContext(spec, gpu, spec.model + "#" + std::to_string(index));
  // The home replica exists from setup: record it so Route prefers devices
  // that already hold the model. The context index covers per-device
  // cancellation, failover routing, and retirement.
  if (placer_ != nullptr) placer_->MarkReady(gpu, spec.model);
  client_gpu_ctx_[{index, gpu}] = &ctx;
  tenants_.push_back(std::make_unique<Tenant>(Tenant{spec, &ctx, &g, gpu}));
  return index;
}

sim::Duration Experiment::RetireTenant(std::size_t tenant) {
  // Under failover the tenant's work may have spanned devices: every
  // context it ran on is folded in, in device order.
  sim::Duration gpu_time;
  for (auto it = client_gpu_ctx_.lower_bound({tenant, 0});
       it != client_gpu_ctx_.end() && it->first.first == tenant; ++it) {
    gpusim::Gpu& gpu = *gpus_[it->first.second];
    gpu_time += gpu.JobGpuDuration(it->second->job);
    gpu.RetireJob(it->second->job);
  }
  return gpu_time;
}

void Experiment::StopServing() {
  if (health_ != nullptr) health_->Stop();
}

void Experiment::ShutdownPool() { pool_->Shutdown(); }

bool Experiment::AnyUsableDevice() const {
  for (std::size_t g = 0; g < gpus_.size(); ++g) {
    if (health_ != nullptr ? health_->Usable(g) : !gpus_[g]->down()) {
      return true;
    }
  }
  return false;
}

std::vector<ClientResult> Experiment::Run(
    const std::vector<ClientSpec>& clients) {
  if (ran_) throw std::logic_error("Experiment::Run may only be called once");
  StartServing();

  std::vector<ClientResult> results(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const Tenant& t = *tenants_[AddTenant(clients[i])];
    ClientResult& out = results[i];
    out.name = t.ctx->client_name;
    out.job = t.ctx->job;
    out.model = t.spec.model;
    out.batch = t.spec.batch;
    out.gpu_index = t.primary_gpu;
    env_.Spawn(ClientProc(i, options_.seed * 7919 + i, out),
               t.ctx->client_name);
  }

  clients_running_ = clients.size();
  if (clients.empty()) StopServing();  // no last client to stop the probes
  if (options_.observability.registry != nullptr &&
      options_.observability.sample_interval > sim::Duration::Zero() &&
      !clients.empty()) {
    env_.Spawn(SamplerProc(), "metrics-sampler");
  }

  env_.Run();

  sim::Duration makespan;
  for (const ClientResult& r : results) {
    makespan = std::max(makespan, r.finish_time);
  }
  makespan_ = makespan;
  // A client still inside ClientProc is stalled. (Completed batches alone
  // do not prove liveness: rejected or timed-out requests finish their
  // iteration without completing a batch.)
  if (clients_running_ != 0) {
    throw ServerStalled(
        "workload stalled: thread pool exhausted by suspended gangs (" +
        std::to_string(pool_->num_threads()) + " threads, " +
        std::to_string(clients.size()) + " clients)");
  }
  pool_->Shutdown();
  env_.Run();  // drain exiting workers
  if (options_.observability.registry != nullptr) {
    // Final bridge: every ServingCounters field lands in the registry even
    // when the sampler is off (or between its last tick and the finish).
    counters_.ExportTo(*options_.observability.registry);
  }
  return results;
}

sim::Task Experiment::SamplerProc() {
  metrics::MetricRegistry& reg = *options_.observability.registry;
  const sim::Duration interval = options_.observability.sample_interval;

  // Resolve series handles up front; the tick loop below is then lookup-
  // free.
  struct DeviceSeries {
    metrics::MetricRegistry::TimeSeries* utilization;
    metrics::MetricRegistry::TimeSeries* pending;
    metrics::MetricRegistry::TimeSeries* health;
    metrics::MetricRegistry::TimeSeries* outstanding;
    sim::Duration busy_prev;
  };
  std::vector<DeviceSeries> dev(gpus_.size());
  for (std::size_t i = 0; i < gpus_.size(); ++i) {
    const metrics::Labels labels{{"gpu", std::to_string(i)}};
    dev[i].utilization = &reg.GetSeries("olympian_gpu_utilization", labels);
    dev[i].pending = &reg.GetSeries("olympian_gpu_pending_kernels", labels);
    dev[i].health = &reg.GetSeries("olympian_device_health", labels);
    dev[i].outstanding = &reg.GetSeries("olympian_placer_outstanding", labels);
    dev[i].busy_prev = gpus_[i]->TotalBusy();
  }
  metrics::MetricRegistry::TimeSeries& pool_occupancy =
      reg.GetSeries("olympian_pool_occupancy");

  sim::TimePoint window_start = env_.Now();
  while (clients_running_ > 0) {
    co_await env_.Delay(interval);
    const sim::TimePoint now = env_.Now();
    const sim::Duration window = now - window_start;
    for (std::size_t i = 0; i < gpus_.size(); ++i) {
      const sim::Duration busy = gpus_[i]->TotalBusy();
      dev[i].utilization->Sample(
          now, window > sim::Duration::Zero()
                   ? (busy - dev[i].busy_prev).Ratio(window)
                   : 0.0);
      dev[i].busy_prev = busy;
      dev[i].pending->Sample(now,
                             static_cast<double>(gpus_[i]->pending_kernels()));
      dev[i].health->Sample(
          now, health_ == nullptr
                   ? 0.0
                   : static_cast<double>(
                         static_cast<int>(health_->health(i))));
      dev[i].outstanding->Sample(
          now, placer_ == nullptr
                   ? 0.0
                   : static_cast<double>(placer_->outstanding(i)));
      if (hooks_[i] != nullptr) hooks_[i]->OnSample(reg, now, i);
    }
    pool_occupancy.Sample(
        now, static_cast<double>(pool_->busy_workers() + pool_->queued()) /
                 static_cast<double>(pool_->num_threads()));
    window_start = now;
  }
}

double Experiment::utilization() const {
  if (makespan_ <= sim::Duration::Zero()) return 0.0;
  sim::Duration busy;
  for (const auto& g : gpus_) busy += g->TotalBusy();
  return busy.Ratio(makespan_) / static_cast<double>(gpus_.size());
}

}  // namespace olympian::serving
