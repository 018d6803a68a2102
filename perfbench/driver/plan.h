// The fixed work of each workload, as a pure function of the run
// options. `--seconds` sizes the work (it is calibrated so that a measured
// phase lasts about that long on the reference machine) but never stops
// it: two runs with the same options do identical work however fast the
// host is, because per-answer cost grows with engine state.
#ifndef PERFBENCH_DRIVER_PLAN_H_
#define PERFBENCH_DRIVER_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct Plan {
  // batch_srel: the S_Rel profile loaded from CSV, then `rounds` rounds of
  // one single-thread ZC solve and one D&S solve.
  double srel_scale = 1.0;
  int rounds = 0;
  int setup_repeats = 3;

  // replay_shard4: a drifting_quality answer log replayed through a
  // 4-shard D&S coordinator.
  int drift_tasks = 0;
  int drift_workers = 0;
  int drift_choices = 4;
  int drift_redundancy = 5;
  int64_t barrier_every = 0;
  int64_t checkpoint_every = 0;
  int64_t read_every = 0;
  // Record positions at which the coordinator is dropped and recovered
  // from its latest checkpoint.
  std::vector<int64_t> restart_at;

  // serve_ingest: four D&S tenants, each a long_tail stream, POSTed in
  // 16-row requests over four connections (one per tenant).
  int ingest_tenants = 4;
  int ingest_tasks = 0;  // per tenant
  int ingest_workers = 0;
  int ingest_redundancy = 5;
  int ingest_rows_per_post = 16;
  int read_back = 0;  // truth reads after the ingest phase

  // serve_mixed: two ZC tenants, each an S_Rel-profile stream in seeded
  // arrival order. A closed-loop preload, then an open loop at fixed rates.
  int mixed_tenants = 2;
  double mixed_scale = 0.0;
  int64_t preload_per_tenant = 0;
  int mixed_rows_per_post = 4;
  double post_rate = 0.0;      // POSTs per second, all tenants together
  double read_rate = 0.0;      // truth GETs per second
  double scrape_period_s = 1.0;  // one /metrics scrape per period
  double mixed_seconds = 0.0;  // length of the open-loop schedule

  int connections = 4;
  int shards = 4;
};

Plan MakePlan(const RunOptions& options);

// Per-tenant (or per-input) seed derived from the run seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

// Input file names inside the run directory.
std::string SrelAnswersPath(const std::string& dir);
std::string SrelTruthPath(const std::string& dir);
std::string DriftLogPath(const std::string& dir);
std::string DriftTruthPath(const std::string& dir);
std::string TenantLogPath(const std::string& dir, int tenant);
std::string TenantTruthPath(const std::string& dir, int tenant);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_PLAN_H_
