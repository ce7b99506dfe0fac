#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "gpusim/gpu_spec.h"
#include "gpusim/kernel.h"
#include "metrics/busy_meter.h"
#include "sim/environment.h"
#include "sim/random.h"

namespace olympian::gpusim {

// Thrown when a memory reservation exceeds device capacity (§4.3 scaling).
struct OutOfDeviceMemory : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Thrown at the Submit await site when a kernel retires with an error — an
// injected launch failure or a device reset that killed it. Recoverable:
// the serving layer converts it into a per-request failure and may retry.
// Also thrown synchronously from Enqueue when a launch fails fast on a
// down device and the caller gave no `failed_out` to report through.
struct KernelFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Thrown by AllocateMemory while an injected transient-allocation-fault
// window is active. Distinct from OutOfDeviceMemory: the device has room,
// the driver just failed the call (cudaMalloc flaking under fragmentation
// or ECC scrub); callers should retry after a backoff.
struct TransientAllocFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Receives device-level fault/recovery signals from the Gpu as they happen
// on the virtual clock. Implemented by the serving layer's HealthMonitor;
// all callbacks run synchronously inside the Gpu call that caused them, so
// a listener reacting to OnResetBegin observes the device *before* the
// failed kernels' waiters run (their resumes are scheduled, not inline).
class GpuHealthListener {
 public:
  virtual ~GpuHealthListener() = default;
  // Driver hang began (or was extended); the device stops issuing waves
  // until `until`.
  virtual void OnHangBegin(sim::TimePoint until) { (void)until; }
  // The hang cleared and dispatch resumed.
  virtual void OnHangEnd() {}
  // A reset started; the device is down (submissions fail fast) until
  // `outage` elapses. An `outage` of zero means the legacy instant reset:
  // OnResetComplete fires in the same call.
  virtual void OnResetBegin(sim::Duration outage) { (void)outage; }
  // The reset outage elapsed: the driver dispatches again. Recovery above
  // this layer (re-init, parameter reload, warm-up) has NOT happened yet.
  virtual void OnResetComplete() {}
  // A transient-allocation-fault window opened (or was extended) to `until`.
  virtual void OnAllocFaultWindow(sim::TimePoint until) { (void)until; }
};

// A simulated GPU plus its driver.
//
// Submission: CPU-side code (the dataflow executor) calls `Submit` on a
// stream and `co_await`s the returned awaitable; the awaiting coroutine is
// resumed when the kernel's last block retires — exactly how a TF GPU node's
// managing thread blocks on kernel completion in the real stack.
//
// Driver model: streams are serviced by *burst arbitration*. The driver
// drains a geometrically-distributed burst of kernels from one ready stream
// before re-arbitrating uniformly at random among ready streams. It is
// job-blind: nothing in the issue path looks at KernelDesc::job. Bursty,
// arbitrary channel arbitration is what makes concurrent TF-Serving jobs
// finish at unpredictable times (paper Figure 3); the mean burst length is
// the constant kMeanBurst in gpu.cc.
//
// Accounting: per-job busy meters implement the paper's "GPU duration" (the
// union of intervals during which >= 1 kernel of the job is resident,
// Figure 5), and a global meter provides nvidia-smi-style utilization.
//
// Hot path: kernel records are pooled on a per-device freelist and stream
// queues are intrusive FIFOs, so steady-state submission is allocation-free.
// Per-job meters live in a dense slot table with O(1) JobId lookup; the
// serving layer retires a finished job's meter with RetireJob so live-meter
// memory stays bounded in long runs. Full-device wave trains are coalesced
// into a single completion event (see Options::coalesce_wave_trains).
class Gpu {
 public:
  struct Options {
    GpuSpec spec = GpuSpec::Gtx1080Ti();
    // Sigma of the per-stream log-normal arbitration weight, modelling the
    // persistent service bias of hardware channel assignment. This is what
    // makes identical concurrent jobs finish at different times under the
    // job-blind driver (paper Figure 3); 0 disables the bias.
    double arbitration_bias_sigma = 0.35;
    // Run-level clock noise (boost clocks, thermal state): the effective
    // clock is drawn once per device instance. Gives profiled totals their
    // few-percent run-to-run spread (paper §4.4).
    double clock_noise_sigma = 0.015;
    // Coalesce trains of identical full-device waves of one kernel into a
    // single completion event. Finish times are bit-identical with this on
    // or off (the train is split back into per-wave granularity if a fault
    // interrupts it); only the number of simulator events differs.
    bool coalesce_wave_trains = true;
    std::uint64_t seed = 1;
  };

  Gpu(sim::Environment& env, Options options);
  ~Gpu();

  Gpu(const Gpu&) = delete;
  Gpu& operator=(const Gpu&) = delete;

  // --- streams ---------------------------------------------------------

  StreamId CreateStream();

  // Awaitable kernel submission: suspends the caller until completion.
  // Throws KernelFailed at the await site if the kernel retires with an
  // error (injected failure or device reset).
  auto Submit(StreamId stream, KernelDesc desc) {
    struct Awaiter {
      Gpu* gpu;
      StreamId stream;
      KernelDesc desc;
      bool failed = false;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        gpu->Enqueue(stream, desc, h, &failed);
      }
      void await_resume() const {
        if (failed) {
          throw KernelFailed("kernel failed on stream " +
                             std::to_string(stream) + " (job " +
                             std::to_string(desc.job) + ")");
        }
      }
    };
    return Awaiter{this, stream, desc};
  }

  // Manual-driver submission entry (Submit is sugar over this). The kernel
  // is queued on `stream`; `waiter` (may be null for fire-and-forget) is
  // resumed via the event queue when the kernel retires.
  //
  // Failure-reporting contract: a kernel that retires with an error sets
  // `*failed_out` before the waiter resumes. With `failed_out == nullptr`
  // retirement errors are NOT reported back (they only show in
  // kernels_failed()); the one exception is a launch on a *down* device,
  // which cannot be queued at all — that fails fast by throwing
  // KernelFailed at the call site, so a manual driver without a flag can
  // never mistake a rejected launch for a queued one.
  void Enqueue(StreamId stream, const KernelDesc& desc,
               std::coroutine_handle<> waiter, bool* failed_out);

  // --- fault injection --------------------------------------------------
  //
  // Driven by fault::FaultInjector on the virtual clock; all effects are
  // deterministic functions of the call sequence.

  // Arm a one-shot failure on `stream`: the next kernel to retire on it
  // (including one already executing) retires with an error.
  void InjectKernelFailure(StreamId stream);

  // Driver hang: stop issuing new waves for `d`. In-flight waves complete
  // (the SMs are fine; the channel feeding them is wedged). Overlapping
  // hangs extend to the furthest end point.
  void Hang(sim::Duration d);

  // Full device reset: every queued kernel fails immediately and every
  // executing kernel fails as its in-flight waves drain. Clears any hang.
  // Memory reservations survive (the serving layer owns that lifecycle).
  //
  // With a positive `outage` the device then stays *down* until it elapses:
  // every kernel submitted in the window fails fast at Enqueue (the driver
  // is gone; launches return an error immediately) and dispatch is stopped.
  // When the outage ends the listener's OnResetComplete fires and dispatch
  // resumes — higher layers model re-init/reload/warm-up on top of that
  // signal. Overlapping outages extend to the furthest end point. An outage
  // of zero preserves the legacy instantaneous-reset semantics.
  void Reset(sim::Duration outage);
  void Reset() { Reset(sim::Duration::Zero()); }

  // Abort one stream: queued kernels fail immediately; the active kernel
  // issues no further waves and retires failed once in-flight waves drain.
  // This is how a failover controller releases submitters stuck behind a
  // wedged device without resetting it (per-stream, not device-wide).
  void AbortStream(StreamId stream);

  // Open a transient-allocation-fault window: AllocateMemory throws
  // TransientAllocFailure until `d` elapses. Overlapping windows extend.
  void InjectAllocFault(sim::Duration d);

  // Open a fractional-capacity fault window (thermal throttle, ECC remap,
  // partial SM loss): kernels dispatched while the window is open run with
  // their wave durations stretched by 1/capacity. `capacity` must be in
  // (0, 1]. Semantics are dispatch-time: a wave (or an exclusive kernel's
  // whole residency) keeps the duration computed when it was issued, even
  // if the window closes mid-flight; coalesced trains are split at the
  // window-open edge and capped at the window-close edge so finish times
  // are bit-identical with coalescing on or off. Overlapping windows
  // extend to the furthest end point and keep the *most severe* (lowest)
  // multiplier. Deliberately NO listener callback: gray degradation must
  // be *measured* (probe RTT) by higher layers, never push-announced.
  void ThrottleCapacity(double capacity, sim::Duration window);

  // Effective capacity multiplier at `t` (1.0 outside any window).
  double CapacityAt(sim::TimePoint t) const {
    return t < capacity_until_ ? capacity_ : 1.0;
  }

  // Install the health listener (at most one; nullptr detaches). Must
  // outlive the device or be detached first.
  void SetHealthListener(GpuHealthListener* listener) { listener_ = listener; }

  bool hung() const { return hung_; }
  bool down() const { return down_; }
  bool alloc_fault_active() const;

  // --- memory accounting ----------------------------------------------

  // Reserve device memory; throws std::invalid_argument for a negative `mb`
  // and OutOfDeviceMemory when the device is full.
  void AllocateMemory(JobId job, std::int64_t mb);
  void ReleaseMemory(JobId job, std::int64_t mb);
  std::int64_t memory_used_mb() const { return memory_used_mb_; }

  // --- accounting / introspection --------------------------------------

  const GpuSpec& spec() const { return options_.spec; }

  // Total "GPU duration" accumulated by `job` up to now (Figure 5).
  // Retired jobs report the total frozen at retirement.
  sim::Duration JobGpuDuration(JobId job) const;

  // Retire `job`'s live meter: its accumulated duration moves to the
  // retired table (still visible through JobGpuDuration) and the meter
  // slot is recycled. Call when the serving layer knows the job will
  // submit no more kernels; a no-op if the job is unknown, already
  // retired, or still has kernels resident (retire again after drain).
  void RetireJob(JobId job);

  // Number of live (non-retired) per-job meters — bounded by the number of
  // in-service jobs, not by the total jobs ever served.
  std::size_t live_job_meters() const {
    return meter_slots_.size() - meter_free_.size();
  }

  // Time during which >= 1 kernel was resident (nvidia-smi utilization
  // numerator).
  sim::Duration TotalBusy() const;

  // Integral of (occupied slots / total slots) dt — a finer utilization.
  double MeanSlotOccupancy() const;

  // Energy consumed so far under the GpuSpec power model, in joules
  // (extension: the paper lists power as future work).
  double EnergyJoules() const;
  // Mean board power over the elapsed simulation, in watts.
  double MeanPowerWatts() const;

  std::uint64_t kernels_completed() const { return kernels_completed_; }
  std::uint64_t kernels_failed() const { return kernels_failed_; }
  std::uint64_t resets() const { return resets_; }
  std::uint64_t waves_dispatched() const { return waves_dispatched_; }
  // Wave-completion timer events elided by train coalescing so far.
  std::uint64_t waves_coalesced() const { return waves_coalesced_; }
  // Kernels submitted but not yet retired (queued + resident across all
  // streams) — the device-wide queue depth the sampler snapshots.
  std::int64_t pending_kernels() const { return pending_kernels_; }
  // Total time kernels spent between Enqueue and compute start, summed
  // over every kernel that started executing (queue-entry/compute-start
  // stamps). With kernels_dequeued() this gives the device's mean queue
  // wait, which the sampler publishes as a time series.
  sim::Duration TotalQueueWait() const {
    return sim::Duration::Nanos(queue_wait_ns_);
  }
  // Kernels that left the stream queue and started executing.
  std::uint64_t kernels_dequeued() const { return kernels_dequeued_; }
  std::int64_t free_slots() const { return free_slots_; }
  bool idle() const { return busy_.depth() == 0; }

 private:
  struct Kernel {
    KernelDesc desc;
    std::int64_t blocks_left;  // not yet issued
    std::int64_t in_flight = 0;
    // Kernels with thread_blocks >= total slots saturate the device: they
    // execute exclusively, as one multi-wave occupancy of the whole GPU.
    // This is the paper's §2.3 regime — no spatial multiplexing across
    // requests at production batch sizes.
    bool exclusive = false;
    // Set by fault injection; reported to the submitter at retirement.
    bool failed = false;
    // Queue-entry stamp: when Enqueue accepted the kernel. The delta to
    // compute start (the stream making it active) is the device-level
    // queue wait the latency-anatomy accounting publishes.
    sim::TimePoint enqueued;
    std::coroutine_handle<> waiter;
    bool* failed_out = nullptr;  // points into the submitter's awaiter frame
    Kernel* next = nullptr;      // intrusive link: stream FIFO / freelist
  };

  // Intrusive FIFO of pooled Kernel records (no per-node allocation).
  struct KernelQueue {
    Kernel* head = nullptr;
    Kernel* tail = nullptr;
    bool empty() const { return head == nullptr; }
    void push(Kernel* k) {
      k->next = nullptr;
      if (tail != nullptr) {
        tail->next = k;
      } else {
        head = k;
      }
      tail = k;
    }
    Kernel* pop() {
      Kernel* k = head;
      head = k->next;
      if (head == nullptr) tail = nullptr;
      k->next = nullptr;
      return k;
    }
    void clear() { head = tail = nullptr; }
  };

  struct Stream {
    StreamId id = -1;
    KernelQueue queue;
    Kernel* active = nullptr;  // at most one kernel executing per stream
    bool in_ready_list = false;
    // One-shot injected fault: fail the next kernel retiring on this stream.
    bool fail_next = false;
    // Persistent arbitration weight (channel-assignment luck).
    double arb_weight = 1.0;
  };

  // One scheduled occupancy: a single wave, an exclusive kernel's whole
  // residency, or a coalesced train of `waves` identical full-device waves.
  struct Wave {
    Kernel* kernel = nullptr;
    Stream* stream = nullptr;
    std::int64_t blocks = 0;      // kernel blocks retired when this ends
    std::int64_t slots_held = 0;  // device slots occupied while it runs
    std::int64_t waves = 1;       // >1 only for a coalesced train
    sim::TimePoint start;
    sim::TimePoint end;
    sim::Duration wave_d;  // one wave's duration (train granularity)
    bool active = false;
    // Bumped on release and on train split so a stale timer event for a
    // recycled or truncated slot is ignored.
    std::uint32_t gen = 0;
  };

  void Dispatch();
  bool StreamReady(const Stream& s) const;
  void MarkReady(StreamId id);
  std::uint64_t AcquireWaveSlot();
  void ReleaseWaveSlot(std::uint64_t slot);
  // Largest number of identical `d`-long full-device waves of `k` that can
  // run back to back from now without crossing any other occupancy's end
  // (1 if coalescing is off or unsafe).
  std::int64_t CoalescibleWaves(const Kernel* k, sim::Duration d,
                                std::int64_t max_waves) const;
  // Truncate an in-flight coalesced train to the wave executing now,
  // returning the not-yet-run blocks to the kernel. Restores per-wave
  // fault semantics (a hang/reset/abort interrupts trains at the next
  // wave boundary, exactly as the uncoalesced path would).
  void SplitTrain(std::uint64_t slot);
  void SplitActiveTrains();
  void SplitTrainsOfStream(const Stream& s);
  void OnWaveDone(std::uint64_t slot_and_gen);
  void RetireKernel(Stream& s);  // s.active retired (ok or failed)
  void FailQueued(Stream& s);    // fail every queued kernel immediately
  static void WaveTrampoline(void* ctx, std::uint64_t arg);
  static void HangTrampoline(void* ctx, std::uint64_t arg);
  static void DownTrampoline(void* ctx, std::uint64_t arg);
  void NoteOccupancyChange(std::int64_t delta);
  Kernel* AllocKernel();
  void FreeKernel(Kernel* k);
  metrics::BusyMeter& JobMeter(JobId job);

  sim::Environment& env_;
  Options options_;
  sim::Rng rng_;

  std::vector<std::unique_ptr<Stream>> streams_;
  std::vector<StreamId> ready_;  // streams with issuable work
  StreamId current_ = -1;        // stream owning the current burst
  std::int64_t burst_left_ = 0;

  std::int64_t free_slots_;
  std::vector<Wave> waves_;  // slot-indexed, reused
  std::vector<std::uint64_t> free_wave_slots_;

  // Pooled kernel records: chunked storage + freelist.
  std::vector<std::unique_ptr<Kernel[]>> kernel_chunks_;
  Kernel* kernel_free_ = nullptr;

  // Dense per-job meters: job_slot_[job] indexes meter_slots_; retired
  // jobs keep only their total duration in job_retired_.
  struct JobMeterSlot {
    JobId job = kNoJob;
    metrics::BusyMeter meter;
  };
  std::vector<JobMeterSlot> meter_slots_;
  std::vector<std::int32_t> meter_free_;
  std::vector<std::int32_t> job_slot_;  // JobId-indexed; -1 = absent
  std::unordered_map<JobId, sim::Duration> job_retired_;
  metrics::BusyMeter nojob_meter_;  // job < 0 (health probes etc.)

  metrics::BusyMeter busy_;
  double occupancy_integral_ = 0.0;  // slot-seconds
  std::int64_t occupied_slots_ = 0;
  sim::TimePoint occupancy_last_;

  std::int64_t memory_used_mb_ = 0;
  std::uint64_t kernels_completed_ = 0;
  std::uint64_t kernels_failed_ = 0;
  std::uint64_t resets_ = 0;
  std::uint64_t waves_dispatched_ = 0;
  std::uint64_t waves_coalesced_ = 0;
  std::int64_t queue_wait_ns_ = 0;
  std::uint64_t kernels_dequeued_ = 0;
  std::int64_t pending_kernels_ = 0;  // alloc'd kernel records in flight
  bool dispatching_ = false;

  // Fault-injection state.
  bool hung_ = false;
  sim::TimePoint hang_until_;
  sim::TimePoint alloc_fault_until_;
  double capacity_ = 1.0;  // meaningful only while Now() < capacity_until_
  sim::TimePoint capacity_until_;
  bool down_ = false;  // inside a reset outage window
  sim::TimePoint down_until_;
  GpuHealthListener* listener_ = nullptr;
};

}  // namespace olympian::gpusim
