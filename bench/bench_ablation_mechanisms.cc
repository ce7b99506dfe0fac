// Ablations of the mechanisms DESIGN.md calls out, beyond the paper's own
// Figure-19 ablation:
//
//   1. Driver channel bias off  -> stock TF-Serving's finish-time spread
//      collapses (it is the arbitration bias that models Figure 3's
//      unpredictability).
//   2. Overflow charging off    -> per-quantum GPU durations inflate past
//      the predicted Q (the paper's Figure 15 accounting is what keeps
//      quanta honest).
//   3. Resume-latency sweep     -> the per-switch wake-up cost is the knob
//      behind the Overhead-Q shape (Figure 8).
//
// All eleven configurations are independent runs; they fan out across OS
// threads via one SweepRunner and the three tables are assembled from the
// ordered results. Scalars land in BENCH_ablation_mechanisms.json.

#include <iostream>
#include <memory>

#include "harness.h"

using namespace olympian;

int main() {
  bench::PrintHeader("Mechanism ablations", "DESIGN.md design-decision list");
  bench::SweepRunner sweep("ablation_mechanisms");

  // --- 1. driver channel bias (Figure 3 mechanism) ------------------------
  const double sigmas[] = {0.35, 0.15, 0.0};
  for (double sigma : sigmas) {
    sweep.Add("bias-" + metrics::Table::Num(sigma, 2),
              [sigma](bench::SweepCase& out) {
                const auto clients =
                    bench::HomogeneousClients("inception-v4", 100, 10, 5);
                serving::ServerOptions opts;
                opts.seed = 3;
                opts.gpu.arbitration_bias_sigma = sigma;
                const auto r = bench::RunBaseline(opts, clients);
                metrics::Series f;
                for (const auto& c : r.clients) f.Add(c.finish_time.seconds());
                out.Set("finish_min_s", f.Min());
                out.Set("finish_max_s", f.Max());
                out.Set("cv", f.Cv());
                out.RecordStatuses(r.clients);
              });
  }

  // --- 2. overflow cost charging (Figure 15 mechanism) --------------------
  for (bool charge : {true, false}) {
    sweep.Add(charge ? "overflow-charged" : "overflow-uncharged",
              [charge](bench::SweepCase& out) {
                std::vector<serving::ClientSpec> clients;
                for (int i = 0; i < 3; ++i) {
                  clients.push_back({.model = "inception-v4",
                                     .batch = 100,
                                     .num_batches = 5});
                }
                for (int i = 0; i < 3; ++i) {
                  clients.push_back(
                      {.model = "vgg16", .batch = 120, .num_batches = 5});
                }
                const auto q = sim::Duration::Micros(1600);
                bench::ProfileCache profiles;
                serving::ServerOptions opts;
                opts.seed = 3;
                serving::Experiment exp(opts);
                core::Scheduler::Options sopts;
                sopts.charge_overflow = charge;
                core::Scheduler sched(exp.env(), exp.gpu(),
                                      std::make_unique<core::FairPolicy>(),
                                      sopts);
                for (const char* m : {"inception-v4", "vgg16"}) {
                  const auto& p =
                      profiles.Get(m, m == std::string("vgg16") ? 120 : 100);
                  sched.SetProfile(p.key, &p.cost,
                                   core::Profiler::ThresholdFor(p, q));
                }
                exp.SetHooks(&sched);
                const auto rr = exp.Run(clients);
                bench::RunOutcome run;
                run.quantum_log.assign(sched.quantum_log().begin(),
                                       sched.quantum_log().end());
                const auto stats =
                    bench::PerJobQuantumStats(run, clients.size());
                metrics::Series means;
                for (const auto& [job, st] : stats) means.Add(st.mean_us);
                out.Set("min_mean_quantum_us", means.Min());
                out.Set("max_mean_quantum_us", means.Max());
                out.Set("predicted_q_us", q.micros());
                out.RecordStatuses(rr);
              });
  }

  // --- 3. gang resume latency (Figure 8 mechanism) ------------------------
  const int latencies[] = {0, 20, 40, 80, 160};
  sweep.Add("resume-baseline", [](bench::SweepCase& out) {
    const auto clients = bench::HomogeneousClients("inception-v4", 100, 2, 3);
    serving::ServerOptions opts;
    opts.seed = 3;
    const auto run = bench::RunBaseline(opts, clients);
    out.Set("makespan_s", run.makespan.seconds());
    out.RecordStatuses(run.clients);
  });
  for (int lat : latencies) {
    sweep.Add("resume-" + std::to_string(lat) + "us",
              [lat](bench::SweepCase& out) {
                const auto clients =
                    bench::HomogeneousClients("inception-v4", 100, 2, 3);
                const auto q = sim::Duration::Micros(800);
                bench::ProfileCache profiles;
                serving::ServerOptions opts;
                opts.seed = 3;
                serving::Experiment exp(opts);
                core::Scheduler::Options sopts;
                sopts.resume_latency = sim::Duration::Micros(lat);
                core::Scheduler sched(exp.env(), exp.gpu(),
                                      std::make_unique<core::FairPolicy>(),
                                      sopts);
                const auto& p = profiles.Get("inception-v4", 100);
                sched.SetProfile(p.key, &p.cost,
                                 core::Profiler::ThresholdFor(p, q));
                exp.SetHooks(&sched);
                const auto rr = exp.Run(clients);
                out.Set("makespan_s", exp.makespan().seconds());
                out.RecordStatuses(rr);
              });
  }

  const auto& results = sweep.RunAll();
  std::size_t idx = 0;

  std::cout << "--- 1. driver channel bias (Figure 3 mechanism) ---\n";
  metrics::Table bias_t({"arbitration bias", "finish min (s)",
                         "finish max (s)", "spread", "CV"});
  for (double sigma : sigmas) {
    const auto& r = results[idx++];
    const double lo = r.metrics[0].second, hi = r.metrics[1].second;
    bias_t.AddRow({metrics::Table::Num(sigma, 2), metrics::Table::Num(lo, 2),
                   metrics::Table::Num(hi, 2),
                   metrics::Table::Num(hi / lo, 2) + "x",
                   metrics::Table::Pct(r.metrics[2].second)});
  }
  bias_t.Print(std::cout);
  std::cout << "With the bias off, the job-blind driver is accidentally fair"
               "\nand the paper's motivating unpredictability disappears.\n\n";

  std::cout << "--- 2. overflow cost charging (Figure 15 mechanism) ---\n";
  metrics::Table ov_t({"charge overflow", "min mean-quantum (us)",
                       "max mean-quantum (us)", "predicted Q (us)"});
  for (bool charge : {true, false}) {
    const auto& r = results[idx++];
    ov_t.AddRow({charge ? "yes (paper)" : "no (ablation)",
                 metrics::Table::Num(r.metrics[0].second, 0),
                 metrics::Table::Num(r.metrics[1].second, 0),
                 metrics::Table::Num(r.metrics[2].second, 0)});
  }
  ov_t.Print(std::cout);
  std::cout << "Uncharged overflow lets every job's effective quantum creep\n"
               "past the predicted Q (more for overflow-heavy models).\n\n";

  std::cout << "--- 3. gang resume latency (Figure 8 mechanism) ---\n";
  const double base_makespan = results[idx++].metrics[0].second;
  metrics::Table lat_t({"resume latency (us)", "overhead at Q=800us"});
  for (int lat : latencies) {
    const auto& r = results[idx++];
    lat_t.AddRow({std::to_string(lat),
                  metrics::Table::Pct(
                      (r.metrics[0].second - base_makespan) / base_makespan)});
  }
  lat_t.Print(std::cout);
  std::cout << "Per-switch wake-up cost translates directly into quantum\n"
               "overhead; at zero latency only pipeline bubbles remain.\n";
  return 0;
}
