#include "server/controller.h"

#include <algorithm>
#include <cmath>

namespace crowdtruth::server {

namespace {

// True when the t-digest's p99 exceeds the tail budget. A missing or
// empty digest (p99 < 0) and a disabled factor (<= 0) both mean "no
// veto", which reproduces the pre-digest controller exactly.
bool TailPressure(const TenantSignals& signals,
                  const AdaptiveControllerConfig& config) {
  return config.p99_target_factor > 0 &&
         signals.p99_observe_latency_seconds >= 0 &&
         signals.p99_observe_latency_seconds >
             config.target_latency_seconds * config.p99_target_factor;
}

}  // namespace

const char* ProbeStateName(ProbeState state) {
  switch (state) {
    case ProbeState::kSteady: return "steady";
    case ProbeState::kProbing: return "probing";
    case ProbeState::kBackoff: return "backoff";
  }
  return "unknown";
}

ProbeDecision ProbeStep(ProbeState state, int64_t tickets,
                        const TenantSignals& signals,
                        const AdaptiveControllerConfig& config) {
  ProbeDecision decision;
  decision.tickets = tickets;
  if (signals.mean_observe_latency_seconds < 0) {
    // Idle interval: no evidence either way. Hold the budget; an idle
    // tenant in kBackoff has served its penalty interval, so it may probe
    // again when traffic returns.
    decision.state =
        state == ProbeState::kBackoff ? ProbeState::kSteady : state;
    return decision;
  }
  if (signals.mean_observe_latency_seconds <=
          config.target_latency_seconds &&
      !TailPressure(signals, config)) {
    // Healthy on both the mean and the tail: probe for headroom.
    decision.state = ProbeState::kProbing;
    decision.tickets = static_cast<int64_t>(
        std::ceil(static_cast<double>(tickets) * config.probe_factor));
  } else {
    // Latency regression: back off multiplicatively, then hold one
    // interval (kBackoff -> kSteady) before probing again.
    decision.state = ProbeState::kBackoff;
    decision.tickets = static_cast<int64_t>(
        std::floor(static_cast<double>(tickets) * config.backoff_factor));
  }
  decision.tickets = std::clamp(decision.tickets, config.min_tickets,
                                config.max_tickets);
  return decision;
}

RetuneDecision RetuneStep(int resync_interval, int max_dirty_tasks,
                          int baseline_resync_interval,
                          int baseline_max_dirty_tasks,
                          const TenantSignals& signals,
                          const AdaptiveControllerConfig& config) {
  RetuneDecision decision;
  decision.resync_interval = resync_interval;
  decision.max_dirty_tasks = max_dirty_tasks;
  if (signals.backlog_tasks > config.backlog_high_watermark ||
      TailPressure(signals, config)) {
    // Sweeps are not keeping up (growing backlog, or a p99 blown past the
    // tail budget). Resync more often (a resync clears the backlog
    // wholesale) and let each sweep do more work.
    decision.resync_interval =
        std::max(config.min_resync_interval, resync_interval / 2);
    decision.max_dirty_tasks =
        std::min(config.max_dirty_tasks_limit,
                 std::max(1, max_dirty_tasks) * 2);
  } else if (signals.backlog_tasks == 0) {
    // Drained and the tail is healthy: relax one step per interval back
    // toward the baseline (resyncs are the expensive lever; do not keep
    // paying for a burst that has passed). A baseline of 0 is a cadence
    // the operator turned off; no doubling reaches it, so it comes back
    // in one step.
    if (baseline_resync_interval == 0) {
      decision.resync_interval = 0;
    } else if (resync_interval < baseline_resync_interval) {
      decision.resync_interval =
          std::min(baseline_resync_interval, resync_interval * 2);
    }
    if (max_dirty_tasks > baseline_max_dirty_tasks) {
      decision.max_dirty_tasks =
          std::max(baseline_max_dirty_tasks, max_dirty_tasks / 2);
    }
  }
  decision.changed = decision.resync_interval != resync_interval ||
                     decision.max_dirty_tasks != max_dirty_tasks;
  return decision;
}

AdaptiveController::AdaptiveController(AdaptiveControllerConfig config,
                                       obs::MetricRegistry* registry)
    : config_(config), registry_(registry) {}

ProbeState AdaptiveController::probe_state(const std::string& tenant) const {
  const auto it = states_.find(tenant);
  return it == states_.end() ? ProbeState::kSteady : it->second.state;
}

TenantSignals AdaptiveController::Sample(const Tenant& tenant,
                                         TenantState* state) {
  TenantSignals signals;
  if (registry_ == nullptr) return signals;
  // Read the children the tenant's own engine feeds, not a child matched
  // by tenant name: past the registry's tenant-label cap the engine feeds
  // the shared tenant="other" children, and the tenant steers on those.
  // One snapshot of the Observe-latency summary gives both signals: the
  // interval mean from its count/sum deltas since the last tick, and the
  // tail quantiles (cumulative over the series' life).
  const streaming::CategoricalStreamEngine* engine =
      tenant.SeriesEngine(registry_);
  if (engine == nullptr) return signals;
  const obs::TDigest snap = engine->observe_latency_series(registry_)->Snap();
  const int64_t count = snap.count() - state->last_latency_count;
  const double sum = snap.sum() - state->last_latency_sum;
  state->last_latency_count = snap.count();
  state->last_latency_sum = snap.sum();
  if (count > 0) {
    signals.mean_observe_latency_seconds = sum / static_cast<double>(count);
  }
  if (snap.count() > 0) {
    signals.p50_observe_latency_seconds = snap.Quantile(0.5);
    signals.p90_observe_latency_seconds = snap.Quantile(0.9);
    signals.p99_observe_latency_seconds = snap.Quantile(0.99);
  }
  signals.backlog_tasks =
      static_cast<int64_t>(engine->backlog_series(registry_)->Value());
  return signals;
}

void AdaptiveController::Export(const Tenant& tenant,
                                const TenantState& state,
                                const TenantSignals& signals) {
  if (registry_ == nullptr) return;
  const std::vector<std::string> names = {"tenant"};
  const std::vector<std::string> label = {tenant.name()};
  registry_
      ->AddGaugeFamily("crowdtruth_server_admission_tickets",
                       "Per-tenant answer budget for the current control "
                       "interval.",
                       names)
      .WithLabels(label)
      .Set(static_cast<double>(state.tickets));
  registry_
      ->AddGaugeFamily("crowdtruth_server_resync_interval",
                       "Engine resync_interval as last set by the adaptive "
                       "controller.",
                       names)
      .WithLabels(label)
      .Set(static_cast<double>(tenant.resync_interval()));
  registry_
      ->AddGaugeFamily("crowdtruth_server_max_dirty_tasks",
                       "Engine max_dirty_tasks as last set by the adaptive "
                       "controller.",
                       names)
      .WithLabels(label)
      .Set(static_cast<double>(tenant.max_dirty_tasks()));
  registry_
      ->AddGaugeFamily(
          "crowdtruth_server_probe_state",
          "Admission probe state: 0 steady, 1 probing, 2 backoff.", names)
      .WithLabels(label)
      .Set(static_cast<double>(static_cast<int>(state.state)));
  // Digest quantiles re-exported as gauges: what the controller actually
  // steered on this tick, one series per quantile. Skipped until the
  // tenant's digest has samples (a 0-valued p99 would read as "healthy").
  if (signals.p50_observe_latency_seconds >= 0) {
    obs::Family<obs::Gauge>& family = registry_->AddGaugeFamily(
        "crowdtruth_server_observe_latency_quantile_seconds",
        "Observe-latency quantiles (from the engine t-digest) the "
        "controller last steered on.",
        {"tenant", "quantile"});
    family.WithLabels({tenant.name(), "0.5"})
        .Set(signals.p50_observe_latency_seconds);
    family.WithLabels({tenant.name(), "0.9"})
        .Set(signals.p90_observe_latency_seconds);
    family.WithLabels({tenant.name(), "0.99"})
        .Set(signals.p99_observe_latency_seconds);
  }
}

void AdaptiveController::Tick(const std::vector<Tenant*>& tenants) {
  ++ticks_;
  if (registry_ != nullptr) {
    registry_
        ->AddCounter("crowdtruth_server_controller_ticks_total",
                     "Control intervals the adaptive controller has run.")
        .AdvanceTo(static_cast<double>(ticks_));
  }
  for (Tenant* tenant : tenants) {
    TenantState& state = states_[tenant->name()];
    if (state.tickets == 0) {
      // First sight of this tenant: seed from the config and remember the
      // tenant's configured knobs as the relaxation baseline.
      state.tickets = config_.initial_tickets;
      state.baseline_resync_interval = tenant->resync_interval();
      state.baseline_max_dirty_tasks = tenant->max_dirty_tasks();
    }
    const TenantSignals signals = Sample(*tenant, &state);
    const ProbeDecision probe =
        ProbeStep(state.state, state.tickets, signals, config_);
    state.state = probe.state;
    state.tickets = probe.tickets;
    tenant->GrantTickets(state.tickets);

    const RetuneDecision retune = RetuneStep(
        tenant->resync_interval(), tenant->max_dirty_tasks(),
        state.baseline_resync_interval, state.baseline_max_dirty_tasks,
        signals, config_);
    if (retune.changed) {
      tenant->Retune(retune.resync_interval, retune.max_dirty_tasks);
    }
    Export(*tenant, state, signals);
  }
}

}  // namespace crowdtruth::server
