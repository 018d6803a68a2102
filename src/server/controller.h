// Adaptive admission control and live engine retuning.
//
// The controller closes a feedback loop over the metric registry: every
// control interval it reads each tenant's Observe-latency summary (one
// t-digest: its _sum/_count deltas give the interval mean, its quantiles
// the tail) and backlog gauge (the same series a Prometheus scraper sees
// on /metrics — the control signal IS the observability signal, so
// operators can replay every decision from a scrape), then
// (it reads the registry children the tenant's engine feeds, so a tenant
// past the tenant-label cap steers on the shared tenant="other" series)
//
//   * admission (throughput probing) — each tenant gets a ticket budget of
//     answers per interval. While the interval's mean observe latency stays
//     at or under the target — and the t-digest's p99 stays under
//     target * p99_target_factor — the budget multiplicatively probes
//     upward (there may be headroom); a latency regression on either
//     signal multiplicatively backs it off and holds one interval before
//     re-probing. The classic probe-up/back-off shape used by
//     storage-engine admission controllers, made tail-aware: a healthy
//     mean can hide a degraded tail, so the p99 gets a veto.
//   * retuning — a growing dirty-task backlog, or sustained p99 pressure,
//     means localized sweeps are not keeping up: the controller halves the
//     engine's resync_interval (resyncs clear the backlog wholesale) and
//     doubles max_dirty_tasks. When the backlog drains and the tail
//     recovers it relaxes both knobs back toward the tenant's configured
//     baseline, one step per interval.
//
// The decision functions (ProbeStep, RetuneStep) are pure — state in,
// decision out — so the state machine is unit-testable without a server,
// a clock or a registry.
#ifndef CROWDTRUTH_SERVER_CONTROLLER_H_
#define CROWDTRUTH_SERVER_CONTROLLER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "server/tenant.h"

namespace crowdtruth::server {

struct AdaptiveControllerConfig {
  int64_t interval_ms = 500;
  // Mean per-answer Observe latency the probe steers toward.
  double target_latency_seconds = 200e-6;
  // Ticket budget per interval: start here, probe by *probe_factor while
  // healthy, back off by *backoff_factor on regression, clamp to
  // [min_tickets, max_tickets].
  int64_t initial_tickets = 2000;
  int64_t min_tickets = 100;
  int64_t max_tickets = 1000000;
  double probe_factor = 1.25;
  double backoff_factor = 0.5;
  // Backlog (deferred dirty tasks) above this triggers a retune step.
  int64_t backlog_high_watermark = 256;
  // Clamps for the retuned knobs.
  int min_resync_interval = 50;
  int max_dirty_tasks_limit = 4096;
  // The tail budget: p99 observe latency above
  // target_latency_seconds * p99_target_factor counts as a regression
  // even when the mean looks healthy. <= 0 disables the p99 veto.
  double p99_target_factor = 5.0;
};

enum class ProbeState { kSteady, kProbing, kBackoff };
const char* ProbeStateName(ProbeState state);

// Per-tenant signals sampled from the registry for one interval.
struct TenantSignals {
  // Mean Observe latency over the interval; < 0 = no samples this interval
  // (idle tenant — hold, neither probe nor back off).
  double mean_observe_latency_seconds = -1.0;
  int64_t backlog_tasks = 0;
  // Quantiles of the tenant's observe-latency t-digest. Cumulative over
  // the tenant's lifetime (sketches fold, they do not window), so they
  // move slowly — right for retuning, too smooth for per-interval deltas.
  // < 0 = digest missing or empty (quantile logic disabled this tick).
  double p50_observe_latency_seconds = -1.0;
  double p90_observe_latency_seconds = -1.0;
  double p99_observe_latency_seconds = -1.0;
};

// Admission decision: the next interval's ticket budget.
struct ProbeDecision {
  ProbeState state = ProbeState::kSteady;
  int64_t tickets = 0;
};
ProbeDecision ProbeStep(ProbeState state, int64_t tickets,
                        const TenantSignals& signals,
                        const AdaptiveControllerConfig& config);

// Retune decision: the engine knobs for the next interval. `baseline_*`
// are the tenant's configured values, the relaxation target; a baseline
// resync_interval of 0 (periodic resyncs off) is restored as soon as the
// backlog drains.
struct RetuneDecision {
  int resync_interval = 0;
  int max_dirty_tasks = 0;
  bool changed = false;
};
RetuneDecision RetuneStep(int resync_interval, int max_dirty_tasks,
                          int baseline_resync_interval,
                          int baseline_max_dirty_tasks,
                          const TenantSignals& signals,
                          const AdaptiveControllerConfig& config);

// The periodic driver. Owned by the server; Tick() runs on the event-loop
// thread (same thread as ingest, so no synchronization with the engines).
class AdaptiveController {
 public:
  AdaptiveController(AdaptiveControllerConfig config,
                     obs::MetricRegistry* registry);

  // Samples the registry, steps both state machines for every tenant, and
  // applies the decisions (GrantTickets / Retune). Exports its own state as
  // crowdtruth_server_* gauges so CI and operators can watch it act.
  void Tick(const std::vector<Tenant*>& tenants);

  const AdaptiveControllerConfig& config() const { return config_; }
  // Visible for tests and the server's status output.
  ProbeState probe_state(const std::string& tenant) const;
  int64_t ticks() const { return ticks_; }

 private:
  struct TenantState {
    ProbeState state = ProbeState::kSteady;
    int64_t tickets = 0;
    int baseline_resync_interval = 0;
    int baseline_max_dirty_tasks = 0;
    // Latency summary count/sum at the previous tick, for interval
    // deltas.
    double last_latency_sum = 0.0;
    int64_t last_latency_count = 0;
  };

  TenantSignals Sample(const Tenant& tenant, TenantState* state);
  void Export(const Tenant& tenant, const TenantState& state,
              const TenantSignals& signals);

  AdaptiveControllerConfig config_;
  obs::MetricRegistry* registry_;
  std::map<std::string, TenantState> states_;
  int64_t ticks_ = 0;
};

}  // namespace crowdtruth::server

#endif  // CROWDTRUTH_SERVER_CONTROLLER_H_
