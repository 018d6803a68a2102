#include "scenario/buggify.h"

#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>

namespace crowdtruth::scenario {

namespace {

// FNV-1a over the site name: stable across platforms/builds, like
// data::ShardOfTask — the fault schedule is part of the test contract.
uint64_t HashSite(std::string_view site) {
  uint64_t hash = 1469598103934665603ull;
  for (const char c : site) {
    hash ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    hash *= 1099511628211ull;
  }
  return hash;
}

// splitmix64 finalizer: decorrelates the structured (seed ^ site ^ visit)
// inputs into uniform bits.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Top 53 bits as a double in [0, 1).
double ToUnit(uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

constexpr uint64_t kActivateSalt = 0xb00c1f5a11d5eedull;
constexpr uint64_t kFireSalt = 0xf1bef1bef1bef1beull;

std::mutex g_mutex;
std::unique_ptr<BuggifyContext> g_context;  // guarded by g_mutex

}  // namespace

bool BuggifyContext::SiteActivated(const BuggifyConfig& config,
                                   std::string_view site) {
  return ToUnit(Mix(config.seed ^ kActivateSalt ^ HashSite(site))) <
         config.activate_probability;
}

bool BuggifyContext::VisitFires(const BuggifyConfig& config,
                                std::string_view site, uint64_t visit) {
  if (!SiteActivated(config, site)) return false;
  return ToUnit(Mix(config.seed ^ kFireSalt ^ HashSite(site) ^
                    Mix(visit + 1))) < config.fire_probability;
}

bool BuggifyContext::Fire(std::string_view site) {
  uint64_t visit = 0;
  bool found = false;
  for (auto& [name, count] : visit_counts_) {
    if (name == site) {
      visit = count++;
      found = true;
      break;
    }
  }
  if (!found) {
    visit_counts_.emplace_back(std::string(site), 1);
    visit = 0;
  }
  ++visits_;
  if (!VisitFires(config_, site, visit)) return false;
  fault_log_.push_back({std::string(site), visit});
  return true;
}

void EnableBuggify(const BuggifyConfig& config) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_context = std::make_unique<BuggifyContext>(config);
}

void DisableBuggify() {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_context.reset();
}

bool BuggifyEnabled() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_context != nullptr;
}

void BuggifyInitFromEnv() {
  const char* seed_text = std::getenv("CROWDTRUTH_BUGGIFY_SEED");
  if (seed_text == nullptr || *seed_text == '\0') return;
  char* end = nullptr;
  const unsigned long long seed = std::strtoull(seed_text, &end, 10);
  if (end == seed_text || *end != '\0') return;
  BuggifyConfig config;
  config.seed = seed;
  const auto percent = [](const char* name, double fallback) {
    const char* text = std::getenv(name);
    if (text == nullptr || *text == '\0') return fallback;
    char* stop = nullptr;
    const double value = std::strtod(text, &stop);
    if (stop == text || *stop != '\0' || value < 0.0 || value > 100.0) {
      return fallback;
    }
    return value / 100.0;
  };
  config.activate_probability = percent("CROWDTRUTH_BUGGIFY_ACTIVATE", 0.25);
  config.fire_probability = percent("CROWDTRUTH_BUGGIFY_FIRE", 0.25);
  EnableBuggify(config);
}

util::Status ArmBuggifyFromFlags(const util::Flags& flags) {
  const std::string& seed_text = flags.Get("buggify_seed");
  if (seed_text.empty()) {
    BuggifyInitFromEnv();
    return util::Status::Ok();
  }
  char* end = nullptr;
  const unsigned long long seed = std::strtoull(seed_text.c_str(), &end, 10);
  if (end == seed_text.c_str() || *end != '\0') {
    return util::Status::InvalidArgument(
        "--buggify_seed must be an unsigned integer");
  }
  BuggifyConfig config;
  config.seed = seed;
  config.activate_probability = flags.GetDouble("buggify_activate") / 100.0;
  config.fire_probability = flags.GetDouble("buggify_fire") / 100.0;
  EnableBuggify(config);
  return util::Status::Ok();
}

bool Buggify(const char* site) {
  std::lock_guard<std::mutex> lock(g_mutex);
  if (g_context == nullptr) return false;
  return g_context->Fire(site);
}

std::vector<std::string> BuggifyFaultLines() {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::vector<std::string> lines;
  if (g_context == nullptr) return lines;
  lines.reserve(g_context->fault_log().size());
  for (const BuggifyFault& fault : g_context->fault_log()) {
    lines.push_back(fault.site + "#" + std::to_string(fault.visit));
  }
  return lines;
}

util::Status WriteBuggifyLog(const std::string& path) {
  const std::vector<std::string> lines = BuggifyFaultLines();
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) return util::Status::IoError("cannot open " + path);
  for (const std::string& line : lines) out << line << '\n';
  out << "total " << lines.size() << '\n';
  out.flush();
  if (!out) return util::Status::IoError("write failed on " + path);
  return util::Status::Ok();
}

}  // namespace crowdtruth::scenario
