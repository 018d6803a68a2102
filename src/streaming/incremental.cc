#include "streaming/incremental.h"

#include <algorithm>
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

// The batch dataset of `answers`, added in arrival order over spaces
// `tasks` x `workers`.
template <typename Domain>
typename Domain::Dataset Materialize(
    std::span<const typename Domain::Answer> answers, int tasks, int workers,
    int num_choices, const std::string& name) {
  typename Domain::DatasetBuilder builder =
      Domain::MakeBuilder(tasks, workers, num_choices);
  builder.set_name(name);
  for (const typename Domain::Answer& answer : answers) {
    builder.AddAnswer(answer.task, answer.worker, Domain::PayloadOf(answer));
  }
  return std::move(builder).Build();
}

}  // namespace

template <typename Domain>
IncrementalMethod<Domain>::IncrementalMethod(int num_choices,
                                             StreamingOptions options)
    : options_(std::move(options)), num_choices_(num_choices) {}

template <typename Domain>
Status IncrementalMethod<Domain>::Observe(const Answer& answer) {
  if (answer.task < 0 || answer.worker < 0) {
    return Status::InvalidArgument("negative task or worker id");
  }
  const Payload payload = Domain::PayloadOf(answer);
  if (!Domain::InDomain(payload, num_choices_)) {
    return Domain::OutOfDomain(payload, num_choices_,
                               std::to_string(answer.task));
  }
  if (answer.task < num_tasks()) {
    for (const auto& vote : by_task_[answer.task]) {
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
  by_task_[answer.task].push_back({answer.worker, payload});
  by_worker_[answer.worker].push_back({answer.task, payload});
  if (grew) OnGrow();
  last_swept_ = 0;
  OnObserve(answer);
  return Status::Ok();
}

template <typename Domain>
auto IncrementalMethod<Domain>::Estimates() const -> std::vector<Payload> {
  std::vector<Payload> estimates(num_tasks());
  for (data::TaskId t = 0; t < num_tasks(); ++t) estimates[t] = Estimate(t);
  return estimates;
}

template <typename Domain>
std::vector<double> IncrementalMethod<Domain>::WorkerQualities() const {
  std::vector<double> quality(num_workers());
  for (data::WorkerId w = 0; w < num_workers(); ++w) {
    quality[w] = WorkerQuality(w);
  }
  return quality;
}

template <typename Domain>
auto IncrementalMethod<Domain>::Resync() -> BatchResult {
  BatchResult result;
  if (answers_.empty()) return result;
  result = Solve(answers_, num_tasks(), num_workers(), num_choices_, name(),
                 options_.batch);
  AdoptPrefix(num_answers(), result);
  return result;
}

template <typename Domain>
auto IncrementalMethod<Domain>::PrefixSolve(int64_t answers) const
    -> std::function<BatchResult()> {
  std::vector<Answer> prefix(answers_.begin(), answers_.begin() + answers);
  const auto [tasks, workers] =
      answers == num_answers() ? std::pair(num_tasks(), num_workers())
                               : SpacesOf(std::span<const Answer>(prefix));
  std::shared_ptr<const typename Domain::BatchMethod> solver =
      Domain::MakeBatchMethod(name());
  return [prefix = std::move(prefix), tasks, workers, choices = num_choices_,
          name = name() + "_stream", solver,
          options = options_.batch]() mutable {
    const typename Domain::Dataset dataset =
        Materialize<Domain>(prefix, tasks, workers, choices, name);
    std::vector<Answer>().swap(prefix);  // not needed by Infer
    return solver->Infer(dataset, options);
  };
}

template <typename Domain>
void IncrementalMethod<Domain>::AdoptPrefix(int64_t answers,
                                            const BatchResult& result) {
  const std::vector<Answer> tail(answers_.begin() + answers, answers_.end());
  if (!tail.empty()) {
    // Undo the store side of the tail's Observes: each one's votes sit at
    // the back of its task's and worker's lists, and a trailing empty list
    // is an id the prefix never answered, so the spaces shrink back to the
    // prefix's.
    for (auto it = tail.rbegin(); it != tail.rend(); ++it) {
      by_task_[it->task].pop_back();
      by_worker_[it->worker].pop_back();
    }
    answers_.resize(answers);
    while (!by_task_.empty() && by_task_.back().empty()) by_task_.pop_back();
    while (!by_worker_.empty() && by_worker_.back().empty()) {
      by_worker_.pop_back();
    }
    OnGrow();
  }
  CROWDTRUTH_CHECK_EQ(Domain::Estimates(result).size(),
                      static_cast<size_t>(num_tasks()));
  AdoptBatch(result);
  // The batch solution subsumes any deferred localized re-estimation.
  backlog_.clear();
  for (const Answer& answer : tail) {
    CROWDTRUTH_CHECK(Observe(answer).ok());
  }
}

template <typename Domain>
auto IncrementalMethod<Domain>::Solve(std::span<const Answer> answers,
                                      int tasks, int workers, int num_choices,
                                      const std::string& method,
                                      const core::InferenceOptions& options)
    -> BatchResult {
  const std::unique_ptr<typename Domain::BatchMethod> solver =
      Domain::MakeBatchMethod(method);
  CROWDTRUTH_CHECK(solver != nullptr);
  return solver->Infer(Materialize<Domain>(answers, tasks, workers,
                                           num_choices, method + "_stream"),
                       options);
}

template <typename Domain>
typename Domain::Dataset IncrementalMethod<Domain>::MaterializeDataset()
    const {
  return Materialize<Domain>(answers_, num_tasks(), num_workers(),
                             num_choices_, name() + "_stream");
}

template <typename Domain>
JsonValue IncrementalMethod<Domain>::Snapshot() const {
  JsonValue root = JsonValue::Object();
  root.Set("format", kFormat);
  root.Set("version", kVersion);
  root.Set("kind", Domain::kKind);
  root.Set("method", name());
  if (Domain::kHasChoices) root.Set("num_choices", num_choices_);
  root.Set("num_tasks", num_tasks());
  root.Set("num_workers", num_workers());
  JsonValue answers = JsonValue::Array();
  for (const Answer& answer : answers_) {
    JsonValue row = JsonValue::Array();
    row.Append(answer.task);
    row.Append(answer.worker);
    row.Append(Domain::PayloadOf(answer));
    answers.Append(std::move(row));
  }
  root.Set("answers", std::move(answers));
  if (Domain::kHasChoices) {
    root.Set("backlog", internal::ToJson(std::vector<int>(backlog_.begin(),
                                                          backlog_.end())));
  }
  JsonValue state = JsonValue::Object();
  SnapshotState(&state);
  root.Set("state", std::move(state));
  return root;
}

template <typename Domain>
Status IncrementalMethod<Domain>::Restore(const JsonValue& snapshot) {
  Status status = CheckVersion(snapshot);
  if (!status.ok()) return status;
  status = internal::ExpectString(snapshot.Find("kind"), "kind",
                                  Domain::kKind);
  if (!status.ok()) return status;
  status = internal::ExpectString(snapshot.Find("method"), "method", name());
  if (!status.ok()) return status;
  if (Domain::kHasChoices) {
    int num_choices = 0;
    status = internal::ReadInt(snapshot.Find("num_choices"), "num_choices",
                               &num_choices);
    if (!status.ok()) return status;
    if (num_choices != num_choices_) {
      return Status::InvalidArgument(
          "snapshot num_choices=" + std::to_string(num_choices) +
          " does not match this method's " + std::to_string(num_choices_));
    }
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
    if (Domain::kHasChoices) {
      status = CheckDenseIndex(answer, num_choices_, "label");
      if (!status.ok()) return status;
    }
    Answer parsed;
    parsed.task = static_cast<data::TaskId>(task);
    parsed.worker = static_cast<data::WorkerId>(worker);
    const Payload payload = static_cast<Payload>(answer);
    Domain::SetPayload(parsed, payload);
    answers_.push_back(parsed);
    by_task_[parsed.task].push_back({parsed.worker, payload});
    by_worker_[parsed.worker].push_back({parsed.task, payload});
  }
  OnGrow();
  std::vector<int> backlog;
  if (Domain::kHasChoices) {
    status = internal::FromJson(snapshot.Find("backlog"), "backlog",
                                /*expected_size=*/-1, &backlog);
    if (!status.ok()) return status;
  }
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

template class IncrementalMethod<CategoricalDomain>;
template class IncrementalMethod<NumericDomain>;

}  // namespace crowdtruth::streaming
