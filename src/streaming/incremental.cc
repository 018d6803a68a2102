#include "streaming/incremental.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <utility>

#include "streaming/snapshot_util.h"
#include "util/logging.h"

namespace crowdtruth::streaming {

using util::JsonValue;
using util::Status;

namespace {

constexpr char kFormat[] = "crowdtruth_method_snapshot";
constexpr int kVersion = 1;

Status CheckVersion(const JsonValue& snapshot) {
  Status status =
      internal::ExpectString(snapshot.Find("format"), "format", kFormat);
  if (!status.ok()) return status;
  int version = 0;
  status = internal::ReadInt(snapshot.Find("version"), "version", &version);
  if (!status.ok()) return status;
  if (version != kVersion) {
    // A typed error so callers (checkpoint restore, the server) can tell
    // "future/unknown format" apart from plain malformed input.
    return Status::ValidationError("unsupported method snapshot version " +
                                   std::to_string(version));
  }
  return Status::Ok();
}

// Parses one `[task, worker, answer]` snapshot row; `answer` stays a double
// for the caller to narrow.
Status ParseAnswerRow(const JsonValue& row, double* task, double* worker,
                      double* answer) {
  if (row.kind() != JsonValue::Kind::kArray || row.items().size() != 3) {
    return Status::InvalidArgument(
        "snapshot answers must be [task, worker, answer] triples");
  }
  double* fields[3] = {task, worker, answer};
  for (int i = 0; i < 3; ++i) {
    const JsonValue& item = row.items()[i];
    if (item.kind() != JsonValue::Kind::kNumber) {
      return Status::InvalidArgument("snapshot answer has a non-numeric "
                                     "field");
    }
    *fields[i] = item.number();
  }
  return Status::Ok();
}

Status CheckDenseIndex(double value, int limit, const char* what) {
  const int index = static_cast<int>(value);
  if (value != index || index < 0 || index >= limit) {
    return Status::InvalidArgument(std::string("snapshot answer has an out-"
                                               "of-range ") +
                                   what + " index");
  }
  return Status::Ok();
}

// The task and worker spaces an answer prefix spans: its largest ids plus
// one, which is what the spaces were right after its last answer (they
// grow only by Observe).
template <typename Answer>
std::pair<int, int> SpacesOf(std::span<const Answer> prefix) {
  int tasks = 0;
  int workers = 0;
  for (const Answer& answer : prefix) {
    tasks = std::max(tasks, answer.task + 1);
    workers = std::max(workers, answer.worker + 1);
  }
  return {tasks, workers};
}

// Undoes the store side of the Observes past the first `answers`: each
// one's votes sit at the back of the arrival order and of its task's and
// worker's lists, and a trailing empty list is an id the prefix never
// answered, so the spaces shrink back to the prefix's.
template <typename Answer, typename TaskVote, typename WorkerVote>
void RewindStore(int64_t answers, std::vector<Answer>* store,
                 std::vector<std::vector<TaskVote>>* by_task,
                 std::vector<std::vector<WorkerVote>>* by_worker) {
  for (int64_t i = static_cast<int64_t>(store->size()) - 1; i >= answers;
       --i) {
    (*by_task)[(*store)[i].task].pop_back();
    (*by_worker)[(*store)[i].worker].pop_back();
  }
  store->resize(answers);
  while (!by_task->empty() && by_task->back().empty()) by_task->pop_back();
  while (!by_worker->empty() && by_worker->back().empty()) {
    by_worker->pop_back();
  }
}

data::CategoricalDataset MaterializeCategorical(
    std::span<const CategoricalAnswer> answers, int num_tasks,
    int num_workers, int num_choices, const std::string& name) {
  data::CategoricalDatasetBuilder builder(num_tasks, num_workers,
                                          num_choices);
  builder.set_name(name);
  for (const CategoricalAnswer& answer : answers) {
    builder.AddAnswer(answer.task, answer.worker, answer.label);
  }
  return std::move(builder).Build();
}

data::NumericDataset MaterializeNumeric(std::span<const NumericAnswer> answers,
                                        int num_tasks, int num_workers,
                                        const std::string& name) {
  data::NumericDatasetBuilder builder(num_tasks, num_workers);
  builder.set_name(name);
  for (const NumericAnswer& answer : answers) {
    builder.AddAnswer(answer.task, answer.worker, answer.value);
  }
  return std::move(builder).Build();
}

}  // namespace

IncrementalCategoricalMethod::IncrementalCategoricalMethod(
    int num_choices, StreamingOptions options)
    : options_(std::move(options)), num_choices_(num_choices) {}

Status IncrementalCategoricalMethod::Observe(
    const CategoricalAnswer& answer) {
  if (answer.task < 0 || answer.worker < 0) {
    return Status::InvalidArgument("negative task or worker id");
  }
  if (answer.label < 0 || answer.label >= num_choices_) {
    return Status::InvalidArgument(
        "label " + std::to_string(answer.label) +
        " out of range for num_choices=" + std::to_string(num_choices_));
  }
  if (answer.task < num_tasks()) {
    for (const data::TaskVote& vote : by_task_[answer.task]) {
      if (vote.worker == answer.worker) {
        return Status::InvalidArgument(
            "duplicate answer: worker " + std::to_string(answer.worker) +
            " already answered task " + std::to_string(answer.task));
      }
    }
  }
  bool grew = false;
  if (answer.task >= num_tasks()) {
    by_task_.resize(answer.task + 1);
    grew = true;
  }
  if (answer.worker >= num_workers()) {
    by_worker_.resize(answer.worker + 1);
    grew = true;
  }
  answers_.push_back(answer);
  by_task_[answer.task].push_back({answer.worker, answer.label});
  by_worker_[answer.worker].push_back({answer.task, answer.label});
  if (grew) OnGrow();
  last_swept_ = 0;
  OnObserve(answer);
  return Status::Ok();
}

std::vector<data::LabelId> IncrementalCategoricalMethod::Estimates() const {
  std::vector<data::LabelId> labels(num_tasks());
  for (data::TaskId t = 0; t < num_tasks(); ++t) labels[t] = Estimate(t);
  return labels;
}

std::vector<double> IncrementalCategoricalMethod::WorkerQualities() const {
  std::vector<double> quality(num_workers());
  for (data::WorkerId w = 0; w < num_workers(); ++w) {
    quality[w] = WorkerQuality(w);
  }
  return quality;
}

core::CategoricalResult IncrementalCategoricalMethod::Resync() {
  core::CategoricalResult result;
  if (answers_.empty()) return result;
  result = MakeBatchMethod()->Infer(MaterializeDataset(), options_.batch);
  AdoptPrefix(num_answers(), result);
  return result;
}

std::function<core::CategoricalResult()>
IncrementalCategoricalMethod::PrefixSolve(int64_t answers) const {
  std::vector<CategoricalAnswer> prefix(answers_.begin(),
                                        answers_.begin() + answers);
  const auto [tasks, workers] =
      answers == num_answers()
          ? std::pair(num_tasks(), num_workers())
          : SpacesOf(std::span<const CategoricalAnswer>(prefix));
  std::shared_ptr<const core::CategoricalMethod> solver = MakeBatchMethod();
  return [prefix = std::move(prefix), tasks, workers,
          choices = num_choices_, name = name() + "_stream", solver,
          options = options_.batch]() mutable {
    const data::CategoricalDataset dataset =
        MaterializeCategorical(prefix, tasks, workers, choices, name);
    std::vector<CategoricalAnswer>().swap(prefix);  // not needed by Infer
    return solver->Infer(dataset, options);
  };
}

void IncrementalCategoricalMethod::AdoptPrefix(
    int64_t answers, const core::CategoricalResult& result) {
  const std::vector<CategoricalAnswer> tail(answers_.begin() + answers,
                                            answers_.end());
  if (!tail.empty()) {
    RewindStore(answers, &answers_, &by_task_, &by_worker_);
    OnGrow();
  }
  CROWDTRUTH_CHECK_EQ(result.labels.size(),
                      static_cast<size_t>(num_tasks()));
  AdoptBatch(result);
  // The batch solution subsumes any deferred localized re-estimation.
  backlog_.clear();
  for (const CategoricalAnswer& answer : tail) {
    CROWDTRUTH_CHECK(Observe(answer).ok());
  }
}

data::CategoricalDataset IncrementalCategoricalMethod::MaterializeDataset()
    const {
  return MaterializeCategorical(answers_, num_tasks(), num_workers(),
                                num_choices_, name() + "_stream");
}

JsonValue IncrementalCategoricalMethod::Snapshot() const {
  JsonValue root = JsonValue::Object();
  root.Set("format", kFormat);
  root.Set("version", kVersion);
  root.Set("kind", "categorical");
  root.Set("method", name());
  root.Set("num_choices", num_choices_);
  root.Set("num_tasks", num_tasks());
  root.Set("num_workers", num_workers());
  JsonValue answers = JsonValue::Array();
  for (const CategoricalAnswer& answer : answers_) {
    JsonValue row = JsonValue::Array();
    row.Append(answer.task);
    row.Append(answer.worker);
    row.Append(answer.label);
    answers.Append(std::move(row));
  }
  root.Set("answers", std::move(answers));
  root.Set("backlog", internal::ToJson(std::vector<int>(backlog_.begin(),
                                                        backlog_.end())));
  JsonValue state = JsonValue::Object();
  SnapshotState(&state);
  root.Set("state", std::move(state));
  return root;
}

Status IncrementalCategoricalMethod::Restore(const JsonValue& snapshot) {
  Status status = CheckVersion(snapshot);
  if (!status.ok()) return status;
  status = internal::ExpectString(snapshot.Find("kind"), "kind",
                                  "categorical");
  if (!status.ok()) return status;
  status = internal::ExpectString(snapshot.Find("method"), "method", name());
  if (!status.ok()) return status;
  int num_choices = 0;
  status = internal::ReadInt(snapshot.Find("num_choices"), "num_choices",
                             &num_choices);
  if (!status.ok()) return status;
  if (num_choices != num_choices_) {
    return Status::InvalidArgument(
        "snapshot num_choices=" + std::to_string(num_choices) +
        " does not match this method's " + std::to_string(num_choices_));
  }
  int num_tasks = 0;
  int num_workers = 0;
  status = internal::ReadInt(snapshot.Find("num_tasks"), "num_tasks",
                             &num_tasks);
  if (!status.ok()) return status;
  status = internal::ReadInt(snapshot.Find("num_workers"), "num_workers",
                             &num_workers);
  if (!status.ok()) return status;
  const JsonValue* answers = snapshot.Find("answers");
  if (answers == nullptr || answers->kind() != JsonValue::Kind::kArray) {
    return Status::InvalidArgument(
        "snapshot field \"answers\" missing or not an array");
  }

  answers_.clear();
  by_task_.assign(num_tasks, {});
  by_worker_.assign(num_workers, {});
  for (const JsonValue& row : answers->items()) {
    double task = 0.0;
    double worker = 0.0;
    double answer = 0.0;
    status = ParseAnswerRow(row, &task, &worker, &answer);
    if (!status.ok()) return status;
    status = CheckDenseIndex(task, num_tasks, "task");
    if (!status.ok()) return status;
    status = CheckDenseIndex(worker, num_workers, "worker");
    if (!status.ok()) return status;
    status = CheckDenseIndex(answer, num_choices_, "label");
    if (!status.ok()) return status;
    const CategoricalAnswer parsed{static_cast<data::TaskId>(task),
                                   static_cast<data::WorkerId>(worker),
                                   static_cast<data::LabelId>(answer)};
    answers_.push_back(parsed);
    by_task_[parsed.task].push_back({parsed.worker, parsed.label});
    by_worker_[parsed.worker].push_back({parsed.task, parsed.label});
  }
  OnGrow();
  std::vector<int> backlog;
  status = internal::FromJson(snapshot.Find("backlog"), "backlog",
                              /*expected_size=*/-1, &backlog);
  if (!status.ok()) return status;
  backlog_.clear();
  for (int task : backlog) {
    status = CheckDenseIndex(task, num_tasks, "backlog task");
    if (!status.ok()) return status;
    backlog_.insert(task);
  }
  const JsonValue* state = snapshot.Find("state");
  if (state == nullptr || state->kind() != JsonValue::Kind::kObject) {
    return Status::InvalidArgument(
        "snapshot field \"state\" missing or not an object");
  }
  return RestoreState(*state);
}

IncrementalNumericMethod::IncrementalNumericMethod(StreamingOptions options)
    : options_(std::move(options)) {}

Status IncrementalNumericMethod::Observe(const NumericAnswer& answer) {
  if (answer.task < 0 || answer.worker < 0) {
    return Status::InvalidArgument("negative task or worker id");
  }
  if (!std::isfinite(answer.value)) {
    return Status::InvalidArgument(
        "non-finite answer value for task " + std::to_string(answer.task));
  }
  if (answer.task < num_tasks()) {
    for (const data::NumericTaskVote& vote : by_task_[answer.task]) {
      if (vote.worker == answer.worker) {
        return Status::InvalidArgument(
            "duplicate answer: worker " + std::to_string(answer.worker) +
            " already answered task " + std::to_string(answer.task));
      }
    }
  }
  bool grew = false;
  if (answer.task >= num_tasks()) {
    by_task_.resize(answer.task + 1);
    grew = true;
  }
  if (answer.worker >= num_workers()) {
    by_worker_.resize(answer.worker + 1);
    grew = true;
  }
  answers_.push_back(answer);
  by_task_[answer.task].push_back({answer.worker, answer.value});
  by_worker_[answer.worker].push_back({answer.task, answer.value});
  if (grew) OnGrow();
  OnObserve(answer);
  return Status::Ok();
}

std::vector<double> IncrementalNumericMethod::Estimates() const {
  std::vector<double> values(num_tasks());
  for (data::TaskId t = 0; t < num_tasks(); ++t) values[t] = Estimate(t);
  return values;
}

std::vector<double> IncrementalNumericMethod::WorkerQualities() const {
  std::vector<double> quality(num_workers());
  for (data::WorkerId w = 0; w < num_workers(); ++w) {
    quality[w] = WorkerQuality(w);
  }
  return quality;
}

core::NumericResult IncrementalNumericMethod::Resync() {
  core::NumericResult result;
  if (answers_.empty()) return result;
  result = MakeBatchMethod()->Infer(MaterializeDataset(), options_.batch);
  AdoptPrefix(num_answers(), result);
  return result;
}

std::function<core::NumericResult()> IncrementalNumericMethod::PrefixSolve(
    int64_t answers) const {
  std::vector<NumericAnswer> prefix(answers_.begin(),
                                    answers_.begin() + answers);
  const auto [tasks, workers] =
      answers == num_answers()
          ? std::pair(num_tasks(), num_workers())
          : SpacesOf(std::span<const NumericAnswer>(prefix));
  std::shared_ptr<const core::NumericMethod> solver = MakeBatchMethod();
  return [prefix = std::move(prefix), tasks, workers,
          name = name() + "_stream", solver,
          options = options_.batch]() mutable {
    const data::NumericDataset dataset =
        MaterializeNumeric(prefix, tasks, workers, name);
    std::vector<NumericAnswer>().swap(prefix);  // not needed by Infer
    return solver->Infer(dataset, options);
  };
}

void IncrementalNumericMethod::AdoptPrefix(int64_t answers,
                                           const core::NumericResult& result) {
  const std::vector<NumericAnswer> tail(answers_.begin() + answers,
                                        answers_.end());
  if (!tail.empty()) {
    RewindStore(answers, &answers_, &by_task_, &by_worker_);
    OnGrow();
  }
  CROWDTRUTH_CHECK_EQ(result.values.size(), static_cast<size_t>(num_tasks()));
  AdoptBatch(result);
  for (const NumericAnswer& answer : tail) {
    CROWDTRUTH_CHECK(Observe(answer).ok());
  }
}

data::NumericDataset IncrementalNumericMethod::MaterializeDataset() const {
  return MaterializeNumeric(answers_, num_tasks(), num_workers(),
                            name() + "_stream");
}

JsonValue IncrementalNumericMethod::Snapshot() const {
  JsonValue root = JsonValue::Object();
  root.Set("format", kFormat);
  root.Set("version", kVersion);
  root.Set("kind", "numeric");
  root.Set("method", name());
  root.Set("num_tasks", num_tasks());
  root.Set("num_workers", num_workers());
  JsonValue answers = JsonValue::Array();
  for (const NumericAnswer& answer : answers_) {
    JsonValue row = JsonValue::Array();
    row.Append(answer.task);
    row.Append(answer.worker);
    row.Append(answer.value);
    answers.Append(std::move(row));
  }
  root.Set("answers", std::move(answers));
  JsonValue state = JsonValue::Object();
  SnapshotState(&state);
  root.Set("state", std::move(state));
  return root;
}

Status IncrementalNumericMethod::Restore(const JsonValue& snapshot) {
  Status status = CheckVersion(snapshot);
  if (!status.ok()) return status;
  status = internal::ExpectString(snapshot.Find("kind"), "kind", "numeric");
  if (!status.ok()) return status;
  status = internal::ExpectString(snapshot.Find("method"), "method", name());
  if (!status.ok()) return status;
  int num_tasks = 0;
  int num_workers = 0;
  status = internal::ReadInt(snapshot.Find("num_tasks"), "num_tasks",
                             &num_tasks);
  if (!status.ok()) return status;
  status = internal::ReadInt(snapshot.Find("num_workers"), "num_workers",
                             &num_workers);
  if (!status.ok()) return status;
  const JsonValue* answers = snapshot.Find("answers");
  if (answers == nullptr || answers->kind() != JsonValue::Kind::kArray) {
    return Status::InvalidArgument(
        "snapshot field \"answers\" missing or not an array");
  }

  answers_.clear();
  by_task_.assign(num_tasks, {});
  by_worker_.assign(num_workers, {});
  for (const JsonValue& row : answers->items()) {
    double task = 0.0;
    double worker = 0.0;
    double value = 0.0;
    status = ParseAnswerRow(row, &task, &worker, &value);
    if (!status.ok()) return status;
    status = CheckDenseIndex(task, num_tasks, "task");
    if (!status.ok()) return status;
    status = CheckDenseIndex(worker, num_workers, "worker");
    if (!status.ok()) return status;
    const NumericAnswer parsed{static_cast<data::TaskId>(task),
                               static_cast<data::WorkerId>(worker), value};
    answers_.push_back(parsed);
    by_task_[parsed.task].push_back({parsed.worker, parsed.value});
    by_worker_[parsed.worker].push_back({parsed.task, parsed.value});
  }
  OnGrow();
  const JsonValue* state = snapshot.Find("state");
  if (state == nullptr || state->kind() != JsonValue::Kind::kObject) {
    return Status::InvalidArgument(
        "snapshot field \"state\" missing or not an object");
  }
  return RestoreState(*state);
}

}  // namespace crowdtruth::streaming
