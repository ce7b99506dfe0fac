#include "serving/cluster.h"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

namespace olympian::serving {

int ClusterClientResult::CountStatus(RequestStatus s) const {
  int n = 0;
  for (const RequestStatus st : request_status) n += (st == s) ? 1 : 0;
  return n;
}

namespace {

// One-way router <-> server hop latency, and so the sharded engine's
// lookahead: jitter only stretches a hop, so no hop is shorter.
constexpr sim::Duration kNetDelay = sim::Duration::Micros(200);
// How long the router waits on an unanswered probe, or on a request lost to
// a partition, before declaring the attempt failed.
constexpr sim::Duration kProbeTimeout = sim::Duration::Millis(10);
// Router-side delay before a budgeted retry, and before answering a rejected
// request (brownout shed, or no routable server).
constexpr sim::Duration kRetryBackoff = sim::Duration::Millis(5);
// Client retry budget for genuine failures; failover re-admissions are
// free, mirroring the device-failover contract.
constexpr int kMaxRetries = 2;
// Service time of one probe on a fully healthy server, charged only under
// health scoring and divided by the server's current capacity: this is what
// makes a fractional-capacity fault visible in the probe RTT.
constexpr sim::Duration kProbeService = sim::Duration::Millis(1);

// The effective shard count: ClusterOptions::shards clamped to
// [1, num_servers], 0 meaning 1. Every cluster configuration shards (see
// ClusterOptions::shards).
std::size_t ClampedShards(const ClusterOptions& o) {
  return std::max<std::size_t>(1, std::min(o.shards, o.num_servers));
}

// Handing the cluster an incident log is the opt-in: enable it for binding.
metrics::IncidentLog& Enabled(metrics::IncidentLog& log) {
  log.Enable();
  return log;
}

}  // namespace

Cluster::Cluster(ClusterOptions options)
    : options_(std::move(options)),
      incidents_(options_.incidents != nullptr ? Enabled(*options_.incidents)
                                               : disabled_incidents_),
      engine_(ClampedShards(options_), kNetDelay, options_.num_servers),
      env_(engine_.hub()),
      tracer_(options_.server.executor.tracer) {
  if (options_.num_servers < 1) {
    throw std::invalid_argument("num_servers must be >= 1");
  }
  for (const fault::ServerFaultEvent& e : options_.faults.events()) {
    if (e.server >= options_.num_servers) {
      throw std::out_of_range("ServerFaultPlan targets server " +
                              std::to_string(e.server) + " but only " +
                              std::to_string(options_.num_servers) + " exist");
    }
  }
  // Cluster servers serve through ServeTenantRequest, never Run, so every
  // per-server observability option would be silently ignored.
  if (const ObservabilityOptions& o = options_.server.observability;
      o.registry != nullptr || o.phases != nullptr ||
      o.sample_interval != sim::Duration::Zero()) {
    throw std::invalid_argument(
        "ClusterOptions::server.observability is read only by "
        "Experiment::Run, never by a cluster, whose requests are charged and "
        "counted end to end across router and servers: leave it unset and "
        "set ClusterOptions::registry or ClusterOptions::phases instead");
  }
  // Per-server private trace buffers. Each server records into its own
  // buffer on its own shard (no cross-thread writes); FinishRun merges them
  // into the user's tracer in canonical order at every shard count, so the
  // trace is byte-identical across shard counts.
  if (tracer_ != nullptr) {
    hub_tracer_ = std::make_unique<metrics::Tracer>(tracer_->max_events());
    server_tracers_.reserve(options_.num_servers);
    for (std::size_t s = 0; s < options_.num_servers; ++s) {
      server_tracers_.push_back(
          std::make_unique<metrics::Tracer>(tracer_->max_events()));
    }
  }
  // Derive decorrelated per-server seeds from the master seed; the
  // per-client request streams use a separate derivation (see Run), so
  // adding servers does not perturb client randomness ordering.
  sim::Rng master(options_.seed);
  servers_.reserve(options_.num_servers);
  for (std::size_t s = 0; s < options_.num_servers; ++s) {
    ServerOptions so = options_.server;
    so.seed = master.NextU64();
    // The cross-server contract needs the in-server placer: a server whose
    // devices are all down must reject promptly (kRejected + no usable
    // device), which is the signal the router converts into failover.
    so.failover.enabled = true;
    if (tracer_ != nullptr) so.executor.tracer = server_tracers_[s].get();
    servers_.push_back(std::make_unique<Experiment>(
        std::move(so), engine_.lane_env(s)));
  }
  RouterTransport& transport = *this;  // private base: convert in-class
  // Feeding calls are no-ops on a disabled log, so every feed site stays
  // unconditional.
  router_ = std::make_unique<Router>(env_, transport, servers_.size(),
                                     options_.router, counters_, incidents_,
                                     options_.registry);
  crashed_until_.resize(servers_.size());
  part_to_until_.resize(servers_.size());
  jitter_until_.resize(servers_.size());
  jitter_factor_.assign(servers_.size(), 1.0);
  tenant_of_.resize(servers_.size());
  tenant_instantiations_.resize(servers_.size());
}

Cluster::~Cluster() = default;

sim::Task Cluster::Probe(std::size_t server, bool& ok) {
  // A partition drops the probe; a crashed process never answers. Both
  // evaluated at send time: deterministic and cheap.
  const sim::TimePoint sent = env_.Now();
  if (sent < part_to_until_[server] || sent < crashed_until_[server]) {
    co_await env_.Delay(kProbeTimeout);
    ok = false;
  } else {
    // Jitter stretches the round trip (factor 1.0 outside any window — an
    // exact multiply, so jitter-free plans are bit-identical).
    co_await env_.Delay(kNetDelay * 2.0 * JitterFactor(server, sent));
    if (options_.router.score.enabled) {
      // The probe exercises the serving path, so its service time runs at
      // the device's current speed: a fractional-capacity fault inflates
      // the measured RTT, which is the only way the router can see it.
      // Only charged under scoring — legacy probes are network-only.
      co_await env_.Delay(kProbeService * (1.0 / ServerCapacity(server)));
    }
    ok = true;
  }
}

double Cluster::ServerCapacity(std::size_t server) {
  double cap = 1.0;
  Experiment& srv = *servers_[server];
  for (std::size_t g = 0; g < srv.num_gpus(); ++g) {
    cap = std::min(cap, srv.gpu(g).CapacityAt(env_.Now()));
  }
  return cap;
}

bool Cluster::HasUsableDevice(std::size_t server) const {
  return env_.Now() >= crashed_until_[server] &&
         servers_[server]->AnyUsableDevice();
}

void Cluster::ArmServerFaults() {
  const auto& events = options_.faults.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].at < env_.Now()) continue;  // already in the past
    env_.ScheduleCallbackAt(events[i].at, &Cluster::FaultTrampoline, this, i);
  }
}

void Cluster::FaultTrampoline(void* ctx, std::uint64_t index) {
  auto* self = static_cast<Cluster*>(ctx);
  self->ApplyServerFault(self->options_.faults.events()[index]);
}

void Cluster::ApplyServerFault(const fault::ServerFaultEvent& e) {
  const sim::TimePoint now = env_.Now();
  const sim::TimePoint until = now + e.duration;
  Experiment& srv = *servers_.at(e.server);
  incidents_.Inject(static_cast<int>(e.server), fault::ToString(e.kind), now,
                    e.duration);
  switch (e.kind) {
    case fault::ServerFaultKind::kCrash:
      // Process crash: every device resets at once and submissions fail
      // fast for the outage; restart hands each device to the server's own
      // recovery pipeline (re-init, reload, warm-up).
      crashed_until_[e.server] = std::max(crashed_until_[e.server], until);
      for (std::size_t g = 0; g < srv.num_gpus(); ++g) {
        srv.gpu(g).Reset(e.duration);
      }
      ++counters_.server_crashes;
      break;
    case fault::ServerFaultKind::kPartition:
      part_to_until_[e.server] = std::max(part_to_until_[e.server], until);
      ++counters_.partitions;
      break;
    case fault::ServerFaultKind::kCapacityLoss:
      // Gray failure: every device throttles but the server stays up and
      // keeps answering probes. Nothing is push-announced — the router can
      // only detect this through measured probe RTT (scoring).
      for (std::size_t g = 0; g < srv.num_gpus(); ++g) {
        srv.gpu(g).ThrottleCapacity(e.capacity, e.duration);
      }
      ++counters_.capacity_losses;
      router_->NoteFaultOnset(e.server);
      break;
    case fault::ServerFaultKind::kJitter:
      // Overlapping jitter windows keep the worst factor and the furthest
      // end point.
      jitter_factor_[e.server] = now < jitter_until_[e.server]
                                     ? std::max(jitter_factor_[e.server],
                                                e.factor)
                                     : e.factor;
      jitter_until_[e.server] = std::max(jitter_until_[e.server], until);
      ++counters_.jitter_windows;
      router_->NoteFaultOnset(e.server);
      break;
  }
  if (hub_tracer_ != nullptr && !hub_tracer_->full()) {
    // Hub-side spans go into the hub's private buffer; FinishRun merges it
    // ahead of the per-server buffers so the export order is canonical.
    const char* name =
        hub_tracer_->Intern(std::string(fault::ToString(e.kind)) + "@server" +
                            std::to_string(e.server));
    hub_tracer_->AddSpan("fault", name, metrics::Tracer::kFaultTrack, now,
                         until);
  }
}

void Cluster::StopAll() {
  for (auto& s : servers_) s->StopServing();
  router_->Stop();
}

sim::Task Cluster::EnsureTenant(std::size_t server, std::size_t client,
                                const ClientSpec& spec, std::size_t& tenant,
                                bool& ok) {
  // Runs on the server's environment — in sharded mode that is the server's
  // shard (only its worker thread touches this server's tenant map during
  // windows); unsharded it is the hub itself, so timing and behaviour are
  // byte-identical to the pre-sharding implementation.
  sim::Environment& senv = servers_[server]->env();
  std::map<std::size_t, std::size_t>& tenants = tenant_of_[server];
  ok = true;
  if (const auto it = tenants.find(client); it != tenants.end()) {
    tenant = it->second;
    co_return;
  }
  // First arrival of this client on a non-home server: parameters stream
  // over PCIe and the tenant warms up before taking traffic — the same
  // pricing as in-server lazy replica instantiation.
  co_await senv.Delay(fault::kWarmup +
                      fault::ParamsTransferTime(static_cast<double>(
                          models::GetModel(spec.model).params_mb)));
  // A concurrent leg of the same client may have finished the setup while
  // we streamed; re-check before instantiating.
  if (const auto it = tenants.find(client); it != tenants.end()) {
    tenant = it->second;
    co_return;
  }
  try {
    tenant = servers_[server]->AddTenant(spec);
  } catch (const gpusim::TransientAllocFailure&) {
    ok = false;
    co_return;
  }
  tenants[client] = tenant;
  ++tenant_instantiations_[server];
}

sim::Task Cluster::DispatchRequest(
    std::size_t client, const ClientSpec& spec, std::size_t home,
    sim::Rng& rng, sim::TimePoint arrival, RequestStatus& status,
    double& latency_ms, int& completed,
    metrics::MetricRegistry::Histogram* latency_hist) {
  // One path at every shard count: the serve section runs between a hop onto
  // the server's shard and a hop back to the hub. With shards = 1 both hops
  // are plain delays on the one queue, so every shard count runs the same
  // decisions at the same instants. Route, counters, and router state are
  // only ever touched hub-side. Phase charges land at the same virtual
  // instants at every shard count (the account is frame-local, so charging
  // from the server's shard is race-free), keeping the blame table
  // byte-identical across shard counts.
  metrics::PhaseAccount account;
  account.Start(arrival);
  // An arrival that found its predecessor still in flight queued at the
  // front end; that wait is pre-routing time.
  account.Charge(metrics::Phase::kRouterQueue, env_.Now());
  std::size_t served = home;
  // Brownout admission control: a shed class is rejected at the front door
  // before any routing or network cost (load it cannot carry is exactly
  // what the cluster is shedding).
  bool rejected = router_->BrownoutSheds(spec.priority);
  if (rejected) ++counters_.requests_shed_brownout;
  // Tracks whether the leg about to start is a free failover re-admission;
  // its forward hop is then blamed on the failover, not on routine routing.
  bool failing_over = false;
  for (int attempt = 1; !rejected;) {
    const std::size_t s = router_->Route(home);
    if (s == Router::kNoServer) {
      // Nothing routable anywhere: terminate promptly as a rejection
      // instead of spinning (mirrors requests_rejected_no_device).
      ++counters_.requests_rejected_no_server;
      rejected = true;
      break;
    }
    served = s;
    router_->OnRequestStart(s);

    // Forward leg. A partition active at send time drops the request on the
    // wire: it never reaches the server's shard, so the whole lost round
    // stays on the hub, and the router only learns from the missing ack
    // after the probe timeout. Jitter stretches the hop (factor 1.0 outside
    // any window — an exact multiply, so jitter-free plans are
    // bit-identical); it is >= 1, so a jittered hop never undercuts the
    // engine lookahead.
    const bool lost_to = env_.Now() < part_to_until_[s];
    const sim::Duration forward = kNetDelay * JitterFactor(s, env_.Now());
    if (!lost_to) {
      co_await engine_.HopToShard(s, forward);
    } else {
      co_await env_.Delay(forward);
    }
    sim::Environment& senv = servers_[s]->env();
    account.Charge(failing_over ? metrics::Phase::kFailoverReadmit
                                : metrics::Phase::kRouterHop,
                   (lost_to ? env_ : senv).Now());
    failing_over = false;

    // A round that does not finish the request ends in the one tail below.
    // `free_failover` marks a loss that is the network's or the server's
    // fault, re-admitted without spending the retry budget when the router
    // fails over; anything else is a budgeted retry, and the request ends
    // as `failure` once the budget is spent. `error` reports the round to
    // the router's health view.
    bool free_failover = false;
    bool error = true;
    RequestStatus failure = RequestStatus::kFailed;
    if (lost_to) {
      ++counters_.requests_lost_to_server;
      co_await env_.Delay(kProbeTimeout);
      // Waiting out the missing ack is network blame, like the hop itself.
      account.Charge(metrics::Phase::kRouterHop, env_.Now());
      router_->OnRequestEnd(s);
      free_failover = true;
    } else {
      // Serve section, on the server's shard. Admission first: make sure
      // this client has a tenant slot on the server (a first arrival on a
      // non-home server streams parameters and warms up). Then the full
      // in-server pipeline (admission, device placement, retries,
      // device failover); the original arrival anchors the deadline
      // end-to-end across server hops.
      std::size_t tenant = 0;
      bool tenant_ok = true;
      RequestStatus leg = RequestStatus::kOk;
      double jitter_back = 1.0;
      std::exception_ptr err;
      try {
        co_await EnsureTenant(s, client, spec, tenant, tenant_ok);
        account.Charge(metrics::Phase::kReload, senv.Now());
        if (tenant_ok) {
          co_await servers_[s]->ServeTenantRequest(tenant, rng, arrival, leg,
                                                   account);
        } else {
          // Tenant instantiation failed (an alloc-fault window on the
          // server): the leg failed, a budgeted retry.
          leg = RequestStatus::kFailed;
        }
        // The response leg's jitter is read at its send instant on the
        // server's clock — after the serve, or where the tenant
        // instantiation failed (the failure reply crosses the same leg).
        // The window arrays are written only during hub instants, so the
        // read is race-free and temporally exact.
        jitter_back = JitterFactor(s, senv.Now());
      } catch (...) {
        // Carry server-side errors across the hop: rethrowing on the worker
        // would resume the client's continuation on the wrong thread.
        err = std::current_exception();
      }
      // Response leg: back onto the hub.
      co_await engine_.HopToHub(s, kNetDelay * jitter_back);
      if (err != nullptr) std::rethrow_exception(err);
      account.Charge(metrics::Phase::kResponseHop, env_.Now());
      router_->OnRequestEnd(s);
      if (leg == RequestStatus::kOk || leg == RequestStatus::kFailedRetried) {
        router_->OnRequestSuccess(s);
        ++counters_.requests_ok;
        status = (attempt == 1 && leg == RequestStatus::kOk)
                     ? RequestStatus::kOk
                     : RequestStatus::kFailedRetried;
        break;
      } else if (leg == RequestStatus::kTimedOut) {
        status = RequestStatus::kTimedOut;
        ++counters_.requests_timed_out;
        break;
      } else {
        // leg is kRejected or kFailed. A rejection from a server that lost
        // every device (crash) is a server failure, not a request failure —
        // fail over for free.
        failure = leg;
        free_failover = leg == RequestStatus::kRejected && !HasUsableDevice(s);
        error = free_failover || leg == RequestStatus::kFailed;
      }
    }
    if (error) router_->OnRequestError(s);
    if (free_failover && options_.router.failover) {
      ++counters_.requests_failed_over;
      failing_over = true;
      incidents_.Mitigation(static_cast<int>(s), "failover", env_.Now());
      continue;
    }
    if (attempt > kMaxRetries) {
      status = failure;
      ++counters_.requests_failed;
      break;
    }
    ++counters_.retries;
    ++attempt;
    co_await env_.Delay(kRetryBackoff);
    account.Charge(metrics::Phase::kBackoff, env_.Now());
  }
  if (rejected) {
    status = RequestStatus::kRejected;
    account.Charge(metrics::Phase::kAdmission, env_.Now());
    co_await env_.Delay(kRetryBackoff);
    account.Charge(metrics::Phase::kBackoff, env_.Now());
  }
  latency_ms = (env_.Now() - arrival).millis();
  const bool ok =
      status == RequestStatus::kOk || status == RequestStatus::kFailedRetried;
  if (options_.phases != nullptr) {
    options_.phases->Record(static_cast<int>(served), spec.model, account, ok,
                            env_.Now() - arrival);
  }
  incidents_.RequestOutcome(static_cast<int>(served), env_.Now(), ok);
  if (latency_hist != nullptr) latency_hist->Observe(latency_ms);
  if (ok) ++completed;
}

metrics::MetricRegistry::Histogram* Cluster::LatencyHistogram(
    const std::string& model) {
  return options_.registry == nullptr
             ? nullptr
             : &options_.registry->GetHistogram(
                   "olympian_cluster_request_latency_ms", {{"model", model}});
}

sim::Task Cluster::ClientProc(std::size_t client,
                              const ClusterClientSpec& spec,
                              std::uint64_t seed, ClusterClientResult& out) {
  sim::Rng rng(seed);
  ArrivalProcess arrivals(spec.arrivals);
  metrics::MetricRegistry::Histogram* const latency_hist =
      LatencyHistogram(spec.request.model);
  sim::TimePoint arrival;  // request b's arrival instant (t=0 for b=0)
  for (int b = 0; b < spec.request.num_batches; ++b) {
    if (arrivals.open_loop()) {
      if (b > 0) arrival = arrivals.Next(rng);
      if (arrival > env_.Now()) co_await env_.Delay(arrival - env_.Now());
    } else {
      arrival = env_.Now();
    }
    // Only this process appends to `out`, so the new slots stay put while
    // the dispatch fills them.
    out.request_latency_ms.push_back(0.0);
    out.request_status.push_back(RequestStatus::kOk);
    co_await DispatchRequest(client, spec.request, out.home_server, rng,
                             arrival, out.request_status.back(),
                             out.request_latency_ms.back(),
                             out.requests_completed, latency_hist);
  }
  out.finish_time = env_.Now() - sim::TimePoint();
  makespan_ = std::max(makespan_, out.finish_time);
  // Fold this client's meters into each server it ever ran on. Runs during
  // a hub instant (workers parked), so touching shard-resident servers is
  // safe; ascending server order matches the old flat-map iteration.
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    if (const auto it = tenant_of_[s].find(client); it != tenant_of_[s].end()) {
      servers_[s]->RetireTenant(it->second);
    }
  }
  if (--live_ == 0) StopAll();
}

std::vector<ClusterClientResult> Cluster::Run(
    const std::vector<ClusterClientSpec>& clients) {
  if (ran_) throw std::logic_error("Cluster::Run may only be called once");
  ran_ = true;
  for (const ClusterClientSpec& c : clients) {
    if (c.request.mean_interarrival > sim::Duration::Zero()) {
      throw std::invalid_argument(
          "ClusterClientSpec::request.mean_interarrival is the single-server "
          "legacy open loop, which a cluster would run closed-loop; set the "
          "open-loop generator in ClusterClientSpec::arrivals instead (e.g. "
          "kind = kPoisson, rate_rps = 1 / mean_interarrival)");
    }
  }
  std::vector<int> priorities;
  priorities.reserve(clients.size());
  for (const ClusterClientSpec& c : clients) {
    priorities.push_back(c.request.priority);
  }
  StartRun(std::move(priorities));

  std::vector<ClusterClientResult> results(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const std::size_t home = i % servers_.size();
    // Home tenants are provisioned before traffic, like Run()'s per-client
    // setup loop (no PCIe charge: the cluster was racked with them loaded).
    const std::size_t tenant = servers_[home]->AddTenant(clients[i].request);
    tenant_of_[home][i] = tenant;

    ClusterClientResult& out = results[i];
    out.name = clients[i].request.model + "#" + std::to_string(i);
    out.model = clients[i].request.model;
    out.home_server = home;
    env_.Spawn(ClientProc(i, clients[i], options_.seed * 104729 + i, out),
               "cluster/" + out.name);
  }
  FinishRun(clients.size());
  return results;
}

sim::Task Cluster::StreamProc(std::size_t stream,
                              const ClusterStreamSpec& spec,
                              std::uint64_t seed, ClusterStreamResult& out) {
  sim::Rng rng(seed);
  AggregateArrivalProcess arrivals(spec.arrivals, spec.modeled_clients);
  metrics::MetricRegistry::Histogram* const latency_hist =
      LatencyHistogram(spec.request.model);
  for (int r = 0; r < spec.num_requests; ++r) {
    const sim::TimePoint arrival = arrivals.Next(rng);
    if (arrival > env_.Now()) co_await env_.Delay(arrival - env_.Now());
    // Each arrival belongs to one of the stream's modeled clients; the
    // drawn id picks the home server, then the request runs as its own
    // process with a forked rng — open loop, so generation never blocks on
    // serving and in-flight memory tracks concurrency, not population.
    const std::uint64_t cid = arrivals.NextClient(rng);
    const std::size_t home = static_cast<std::size_t>(cid % servers_.size());
    ++live_;
    env_.Spawn(StreamRequestProc(stream, spec, home, rng.Fork(), arrival, r,
                                 out, latency_hist));
  }
  if (--live_ == 0) StopAll();
}

sim::Task Cluster::StreamRequestProc(
    std::size_t stream, const ClusterStreamSpec& spec, std::size_t home,
    sim::Rng rng, sim::TimePoint arrival, int index, ClusterStreamResult& out,
    metrics::MetricRegistry::Histogram* latency_hist) {
  // Slots are indexed by arrival order, so the result layout is identical
  // no matter which order responses land in.
  const auto slot = static_cast<std::size_t>(index);
  co_await DispatchRequest(stream, spec.request, home, rng, arrival,
                           out.request_status[slot],
                           out.request_latency_ms[slot],
                           out.requests_completed, latency_hist);
  const sim::Duration finished = env_.Now() - sim::TimePoint();
  out.finish_time = std::max(out.finish_time, finished);
  makespan_ = std::max(makespan_, finished);
  if (--live_ == 0) StopAll();
}

std::vector<ClusterStreamResult> Cluster::RunStreams(
    const std::vector<ClusterStreamSpec>& streams) {
  if (ran_) throw std::logic_error("Cluster::RunStreams may only be called once");
  ran_ = true;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    if (streams[i].arrivals.kind == ArrivalSpec::Kind::kClosedLoop) {
      throw std::invalid_argument(
          "aggregate streams are open-loop: give each stream an arrival "
          "generator");
    }
    const auto reject = [&](const std::string& what) {
      throw std::invalid_argument("stream " + std::to_string(i) + " (" +
                                  streams[i].request.model + ") " + what);
    };
    if (streams[i].num_requests < 0) {
      reject("has num_requests = " + std::to_string(streams[i].num_requests) +
             "; it must be >= 0");
    }
    if (streams[i].request.mean_interarrival > sim::Duration::Zero()) {
      reject("sets request.mean_interarrival, the single-server legacy open "
             "loop, which a stream ignores; its arrivals come from "
             "ClusterStreamSpec::arrivals alone");
    }
  }
  std::vector<int> priorities;
  priorities.reserve(streams.size());
  for (const ClusterStreamSpec& st : streams) {
    priorities.push_back(st.request.priority);
  }
  StartRun(std::move(priorities));

  std::vector<ClusterStreamResult> results(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    // The model is racked on every server up front: any drawn client id can
    // dispatch anywhere without a first-arrival PCIe charge, and EnsureTenant
    // degenerates to a map hit on every path.
    for (std::size_t s = 0; s < servers_.size(); ++s) {
      tenant_of_[s][i] = servers_[s]->AddTenant(streams[i].request);
    }
    ClusterStreamResult& out = results[i];
    out.name = streams[i].request.model + "/stream" + std::to_string(i);
    out.model = streams[i].request.model;
    out.request_latency_ms.assign(
        static_cast<std::size_t>(streams[i].num_requests), 0.0);
    out.request_status.assign(
        static_cast<std::size_t>(streams[i].num_requests), RequestStatus::kOk);
    env_.Spawn(StreamProc(i, streams[i], options_.seed * 15485863 + i, out),
               "cluster/" + out.name);
  }
  FinishRun(streams.size());
  // Fold stream meters into their servers (every stream is racked on every
  // server).
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    for (const auto& [stream, tenant] : tenant_of_[s]) {
      (void)stream;
      servers_[s]->RetireTenant(tenant);
    }
  }
  return results;
}

void Cluster::StartRun(std::vector<int> priorities) {
  router_->SetPriorityClasses(std::move(priorities));
  for (auto& s : servers_) s->StartServing();
  router_->Start();
  ArmServerFaults();
}

void Cluster::FinishRun(std::size_t generators) {
  live_ = generators;
  if (live_ == 0) StopAll();  // no last generator to stop the probes
  engine_.Run();
  if (live_ != 0) {
    throw ServerStalled("cluster workload stalled: live traffic with a "
                        "drained event queue");
  }
  for (auto& s : servers_) s->ShutdownPool();
  engine_.Run();  // drain exiting workers
  for (const std::uint64_t n : tenant_instantiations_) {
    counters_.tenant_instantiations += n;
  }
  incidents_.Finalize();
  if (options_.registry != nullptr) {
    counters_.ExportTo(*options_.registry);
  }
  // Fold the private per-server trace buffers into the user's tracer in
  // canonical order — hub first, then servers 0..N-1. The same merge runs
  // at every shard count (including 1), so the exported bytes are a
  // function of the trajectory alone, never of the partitioning.
  if (tracer_ != nullptr) {
    tracer_->MergeFrom(*hub_tracer_);
    for (const auto& t : server_tracers_) tracer_->MergeFrom(*t);
  }
}

}  // namespace olympian::serving
