#include "plan.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <utility>

#include "data/answer_log.h"
#include "scenario/workload.h"
#include "simulation/profiles.h"
#include "util/csv.h"
#include "util/rng.h"

namespace perfbench {

namespace {

int64_t Scaled(double per_second, int seconds) {
  return std::max<int64_t>(1, std::llround(per_second * seconds));
}

}  // namespace

Plan MakePlan(const RunOptions& options) {
  Plan plan;
  const int s = std::max(1, options.seconds);
  if (options.smoke) {
    plan.srel_scale = 0.05;
    plan.rounds = 2;
    plan.setup_repeats = 2;
    plan.drift_tasks = 600;
    plan.drift_workers = 40;
    plan.barrier_every = 500;
    plan.checkpoint_every = 1000;
    plan.read_every = 250;
    plan.restart_at = {1500, 2500};
    plan.ingest_tasks = 200;
    plan.ingest_workers = 40;
    plan.read_back = 8;
    plan.mixed_scale = 0.02;
    plan.preload_per_tenant = 600;
    plan.post_rate = 100.0;
    plan.read_rate = 10.0;
    plan.scrape_period_s = 0.5;
    plan.mixed_seconds = 1.0;
    return plan;
  }
  plan.rounds = static_cast<int>(Scaled(1.0, s));
  plan.drift_tasks = static_cast<int>(Scaled(800.0, s));
  plan.drift_workers = 1000;
  plan.barrier_every = 2000;
  plan.checkpoint_every = 10000;
  plan.read_every = 500;
  // Three restarts, each a fifth of a checkpoint interval after a
  // checkpoint, so every recovery replays a routing prefix and then
  // re-observes the records since the checkpoint.
  for (int64_t k = 1; k <= 3; ++k) {
    plan.restart_at.push_back(k * plan.checkpoint_every +
                              plan.checkpoint_every / 5);
  }
  plan.ingest_tasks = static_cast<int>(Scaled(6000.0, s));
  plan.ingest_workers = 400;
  plan.read_back = 200;
  plan.mixed_scale = 0.5;
  plan.preload_per_tenant = 10000;
  plan.post_rate = 100.0;
  plan.read_rate = 20.0;
  plan.scrape_period_s = 1.0;
  plan.mixed_seconds = s;
  return plan;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  // SplitMix64 over (seed, stream): decorrelated per-input seeds.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string SrelAnswersPath(const std::string& dir) {
  return dir + "/srel_answers.csv";
}
std::string SrelTruthPath(const std::string& dir) {
  return dir + "/srel_truth.csv";
}
std::string DriftLogPath(const std::string& dir) { return dir + "/drift.log"; }
std::string DriftTruthPath(const std::string& dir) {
  return dir + "/drift_truth.csv";
}
std::string TenantLogPath(const std::string& dir, int tenant) {
  return dir + "/tenant" + std::to_string(tenant) + ".log";
}
std::string TenantTruthPath(const std::string& dir, int tenant) {
  return dir + "/tenant" + std::to_string(tenant) + "_truth.csv";
}

namespace {

using crowdtruth::util::Status;

Status WriteScenario(const std::string& name, uint64_t seed, int tasks,
                     int workers, int choices, int redundancy,
                     const std::string& log, const std::string& truth) {
  crowdtruth::scenario::ScenarioSpec spec;
  spec.name = name;
  spec.seed = seed;
  spec.num_tasks = tasks;
  spec.num_workers = workers;
  spec.num_choices = choices;
  spec.redundancy = redundancy;
  auto generator = crowdtruth::scenario::MakeGenerator(spec);
  if (generator == nullptr) {
    return Status::InvalidArgument("bad scenario spec for " + name);
  }
  return crowdtruth::scenario::WriteScenarioFiles(*generator, log, truth,
                                                  nullptr);
}

std::string IdName(char prefix, int id) {
  std::string name(1, prefix);
  name += std::to_string(id);
  return name;
}

struct SrelRow {
  int task = 0;
  int worker = 0;
  int label = 0;
};

// The S_Rel profile at `scale` — the calibrated instance (the profile's own
// generation seed), as the paper evaluates one fixed dataset — with its
// answers in an arrival order drawn from `seed` (a Fisher-Yates shuffle).
// The order changes interning order and every incremental update, while
// the dataset's difficulty, and so its accuracy, stays the profile's.
std::vector<SrelRow> SrelRows(double scale, uint64_t seed,
                              std::vector<std::vector<std::string>>* truth) {
  const crowdtruth::data::CategoricalDataset dataset =
      crowdtruth::sim::GenerateCategoricalProfile("S_Rel", scale);
  std::vector<SrelRow> rows;
  rows.reserve(dataset.num_answers());
  for (int t = 0; t < dataset.num_tasks(); ++t) {
    for (const auto& vote : dataset.AnswersForTask(t)) {
      rows.push_back({t, vote.worker, vote.label});
    }
  }
  crowdtruth::util::Rng rng(seed);
  for (int i = static_cast<int>(rows.size()) - 1; i > 0; --i) {
    std::swap(rows[i], rows[rng.UniformInt(0, i)]);
  }
  *truth = {{"task", "truth"}};
  for (int t = 0; t < dataset.num_tasks(); ++t) {
    if (dataset.HasTruth(t)) {
      truth->push_back({IdName('t', t), std::to_string(dataset.Truth(t))});
    }
  }
  return rows;
}

// batch_srel's input: `task,worker,answer` CSV plus `task,truth` CSV.
Status WriteSrelCsv(double scale, uint64_t seed, const std::string& answers,
                    const std::string& truth) {
  std::vector<std::vector<std::string>> truth_rows;
  const std::vector<SrelRow> rows = SrelRows(scale, seed, &truth_rows);
  std::vector<std::vector<std::string>> answer_rows = {
      {"task", "worker", "answer"}};
  answer_rows.reserve(rows.size() + 1);
  for (const SrelRow& row : rows) {
    answer_rows.push_back({IdName('t', row.task), IdName('w', row.worker),
                           std::to_string(row.label)});
  }
  Status status = crowdtruth::util::WriteCsvFile(answers, answer_rows);
  if (!status.ok()) return status;
  return crowdtruth::util::WriteCsvFile(truth, truth_rows);
}

// serve_mixed's input per tenant: an answer log plus `task,truth` CSV.
Status WriteSrelStream(double scale, uint64_t seed, const std::string& log,
                       const std::string& truth) {
  std::vector<std::vector<std::string>> truth_rows;
  const std::vector<SrelRow> rows = SrelRows(scale, seed, &truth_rows);
  crowdtruth::data::AnswerLogHeader header;
  header.num_choices = 4;
  crowdtruth::data::AnswerLogWriter writer;
  Status status = crowdtruth::data::AnswerLogWriter::Create(log, header,
                                                            &writer);
  for (const SrelRow& row : rows) {
    if (!status.ok()) return status;
    status = writer.Append(IdName('t', row.task), IdName('w', row.worker),
                           static_cast<crowdtruth::data::LabelId>(row.label));
  }
  if (!status.ok()) return status;
  return crowdtruth::util::WriteCsvFile(truth, truth_rows);
}

}  // namespace

int GenerateInputs(const RunOptions& options) {
  const Plan plan = MakePlan(options);
  const std::string& dir = options.dir;
  Status status;
  if (options.workload == "batch_srel") {
    status = WriteSrelCsv(plan.srel_scale, options.seed, SrelAnswersPath(dir),
                          SrelTruthPath(dir));
  } else if (options.workload == "replay_shard4") {
    status = WriteScenario("drifting_quality", options.seed, plan.drift_tasks,
                           plan.drift_workers, plan.drift_choices,
                           plan.drift_redundancy, DriftLogPath(dir),
                           DriftTruthPath(dir));
  } else if (options.workload == "serve_ingest") {
    for (int i = 0; i < plan.ingest_tenants && status.ok(); ++i) {
      status = WriteScenario("long_tail", DeriveSeed(options.seed, i),
                             plan.ingest_tasks, plan.ingest_workers,
                             plan.drift_choices, plan.ingest_redundancy,
                             TenantLogPath(dir, i), TenantTruthPath(dir, i));
    }
  } else if (options.workload == "serve_mixed") {
    for (int i = 0; i < plan.mixed_tenants && status.ok(); ++i) {
      status = WriteSrelStream(plan.mixed_scale, DeriveSeed(options.seed, i),
                               TenantLogPath(dir, i), TenantTruthPath(dir, i));
    }
  } else {
    status = Status::InvalidArgument("unknown workload " + options.workload);
  }
  if (!status.ok()) {
    std::cerr << "perfbench: input generation failed: " << status.ToString()
              << "\n";
    return 1;
  }
  return 0;
}

}  // namespace perfbench
