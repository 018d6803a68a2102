// Buggify: compiled-in probabilistic fault injection, after FoundationDB's
// discipline (SNIPPETS.md §3). A *fault site* is a named point in the code
// where a synthetic-but-recoverable failure can be injected:
//
//   if (CROWDTRUTH_BUGGIFY("checkpoint_write")) { /* simulate the fault */ }
//
// The macro is the only thing production code touches. In a normal build it
// expands to the constant `false` — the site costs nothing and cannot fire.
// Configuring with -DCROWDTRUTH_BUGGIFY=ON compiles the sites in; they then
// consult the process-wide BuggifyContext, which is OFF until enabled by
// EnableBuggify() or BuggifyInitFromEnv() (CROWDTRUTH_BUGGIFY_SEED et al.),
// so even a buggify build is quiet by default.
//
// Two probabilities govern a site, exactly as in FoundationDB:
//
//   * activation — decided once per (seed, site): is this site live at all
//     in this run? Keeps any single run from firing every site at once.
//   * fire       — decided per (seed, site, visit ordinal): does this
//     particular visit inject the fault?
//
// Both decisions are *stateless hashes* of (seed, site[, visit]) — no
// shared RNG stream — so a site's schedule depends only on its own visit
// count, never on which other sites ran in between. That is the
// determinism contract the scenario harness leans on: same seed, same
// per-site visit sequence => same fault schedule, same fault log, and
// (because every injected fault is recoverable by design) the same final
// truth as the fault-free run. tests/scenario_test.cc pins all of this.
//
// The planted sites (see docs/scenarios.md for the recovery path each one
// exercises): answer_log_read, snapshot_restore, checkpoint_write,
// validator_accept, barrier_wait, resync_solve_delay.
#ifndef CROWDTRUTH_SCENARIO_BUGGIFY_H_
#define CROWDTRUTH_SCENARIO_BUGGIFY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/flags.h"
#include "util/status.h"

namespace crowdtruth::scenario {

// True when this build compiled the fault sites in (-DCROWDTRUTH_BUGGIFY=ON).
#if defined(CROWDTRUTH_BUGGIFY_ENABLED)
inline constexpr bool kBuggifyCompiledIn = true;
#else
inline constexpr bool kBuggifyCompiledIn = false;
#endif

struct BuggifyConfig {
  uint64_t seed = 0;
  // Probability that a site is live in this run at all (per seed × site).
  double activate_probability = 0.25;
  // Probability that a live site fires on any given visit.
  double fire_probability = 0.25;
};

// One fired fault: the site name and the 0-based visit ordinal it fired on.
struct BuggifyFault {
  std::string site;
  uint64_t visit = 0;
};

// The deterministic schedule object. Tools use the process-wide singleton
// below; tests can instantiate contexts directly to pin schedule behavior.
class BuggifyContext {
 public:
  explicit BuggifyContext(const BuggifyConfig& config) : config_(config) {}

  // Stateless decisions — pure functions of (config, site[, visit]).
  static bool SiteActivated(const BuggifyConfig& config,
                            std::string_view site);
  static bool VisitFires(const BuggifyConfig& config, std::string_view site,
                         uint64_t visit);

  // Advances `site`'s visit counter and returns whether this visit fires
  // (recording it in the fault log when it does).
  bool Fire(std::string_view site);

  const BuggifyConfig& config() const { return config_; }
  const std::vector<BuggifyFault>& fault_log() const { return fault_log_; }
  int64_t visits() const { return visits_; }
  int64_t fires() const { return static_cast<int64_t>(fault_log_.size()); }

 private:
  BuggifyConfig config_;
  // site name -> visits so far. Linear scan: a handful of sites exist.
  std::vector<std::pair<std::string, uint64_t>> visit_counts_;
  std::vector<BuggifyFault> fault_log_;
  int64_t visits_ = 0;
};

// --- Process-wide control (what the planted sites consult) ---

// Installs/replaces the process context. Thread-safe against concurrent
// Buggify() calls; the deterministic-schedule guarantee applies to
// single-threaded drivers (all current CLI replay paths).
void EnableBuggify(const BuggifyConfig& config);
void DisableBuggify();
bool BuggifyEnabled();

// Reads CROWDTRUTH_BUGGIFY_SEED (required; absent leaves buggify off),
// CROWDTRUTH_BUGGIFY_ACTIVATE and CROWDTRUTH_BUGGIFY_FIRE (percentages,
// default 25). Lets shell harnesses (tools/shard_e2e.sh) switch faults on
// without new flags on every tool.
void BuggifyInitFromEnv();

// The tools' shared arming: an explicit --buggify_seed, with the
// --buggify_activate / --buggify_fire percentages, wins over the
// environment (BuggifyInitFromEnv). In a build without the sites compiled
// in the schedule is still armed, so runs report "compiled out" and the
// fault log stays empty. InvalidArgument when the seed is not an unsigned
// integer.
util::Status ArmBuggifyFromFlags(const util::Flags& flags);

// The function behind the CROWDTRUTH_BUGGIFY macro: false unless buggify is
// enabled, else one visit of `site` under the process context.
bool Buggify(const char* site);

// Snapshot of the process fault log, as "site#visit" lines in fire order.
std::vector<std::string> BuggifyFaultLines();
// Writes the fault log (one "site#visit" line per fault, plus a trailing
// "total <n>" line) — byte-identical across runs with the same schedule.
util::Status WriteBuggifyLog(const std::string& path);

}  // namespace crowdtruth::scenario

// The only spelling planted code uses. Compiles to `false` (dead code the
// optimizer deletes) unless the build sets CROWDTRUTH_BUGGIFY_ENABLED via
// the CROWDTRUTH_BUGGIFY CMake option.
#if defined(CROWDTRUTH_BUGGIFY_ENABLED)
#define CROWDTRUTH_BUGGIFY(site) (::crowdtruth::scenario::Buggify(site))
#else
#define CROWDTRUTH_BUGGIFY(site) (false)
#endif

#endif  // CROWDTRUTH_SCENARIO_BUGGIFY_H_
