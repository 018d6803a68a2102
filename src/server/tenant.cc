#include "server/tenant.h"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <deque>
#include <functional>
#include <limits>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "obs/span.h"
#include "streaming/registry.h"
#include "util/csv.h"
#include "util/json_writer.h"

namespace crowdtruth::server {

namespace {

// A request-scoped (worker, task) id pair, viewing the request body (or a
// ParseCsvLine copy of a quoted line).
using IdPair = std::pair<std::string_view, std::string_view>;

struct IdPairHash {
  size_t operator()(const IdPair& pair) const {
    const std::hash<std::string_view> hash;
    const size_t worker = hash(pair.first);
    return worker ^ (hash(pair.second) + 0x9e3779b9u + (worker << 6) +
                     (worker >> 2));
  }
};

}  // namespace

std::string IngestResult::ToJson() const {
  std::string out;
  util::JsonWriter writer(out, 0);
  writer.BeginObject();
  writer.Key("accepted");
  writer.Int(accepted);
  writer.Key("dropped");
  writer.Int(dropped);
  writer.Key("duplicates");
  writer.Int(duplicates);
  writer.Key("out_of_range");
  writer.Int(out_of_range);
  writer.Key("parse_errors");
  writer.Int(parse_errors);
  writer.EndObject();
  out += '\n';
  return out;
}

Tenant::Tenant(std::string name, TenantOptions options,
               std::unique_ptr<streaming::CategoricalStreamEngine> engine)
    : name_(std::move(name)), options_(std::move(options)),
      engine_(std::move(engine)) {
  engine_->set_tenant_label(name_);
  resync_interval_ = engine_->config().resync_interval;
  max_dirty_tasks_ = engine_->method().options().max_dirty_tasks;
}

Tenant::Tenant(std::string name, TenantOptions options,
               std::unique_ptr<shard::CategoricalShardCoordinator> coordinator)
    : name_(std::move(name)), options_(std::move(options)),
      coordinator_(std::move(coordinator)) {
  resync_interval_ =
      static_cast<int>(coordinator_->config().barrier_interval);
  max_dirty_tasks_ = options_.max_dirty_tasks;
}

util::Status Tenant::Create(const std::string& name,
                            const TenantOptions& options,
                            std::unique_ptr<Tenant>* out) {
  if (options.num_choices < 2) {
    return util::Status::InvalidArgument(
        "tenant \"" + name + "\": num_choices must be >= 2");
  }
  streaming::StreamingOptions streaming_options;
  streaming_options.local_sweeps = options.local_sweeps;
  streaming_options.max_dirty_tasks = options.max_dirty_tasks;
  streaming_options.batch.seed = options.seed;

  std::unique_ptr<Tenant> tenant;
  if (options.shards > 1) {
    shard::CoordinatorConfig coordinator_config;
    coordinator_config.shard_count = options.shards;
    coordinator_config.method = options.method;
    coordinator_config.num_choices = options.num_choices;
    coordinator_config.options = streaming_options;
    // The tenant's resync cadence becomes the cross-shard barrier cadence.
    coordinator_config.barrier_interval = options.resync_interval;
    coordinator_config.tenant = name;
    std::unique_ptr<shard::CategoricalShardCoordinator> coordinator;
    util::Status status = shard::CategoricalShardCoordinator::Create(
        coordinator_config, &coordinator);
    if (!status.ok()) {
      return util::Status::InvalidArgument("tenant \"" + name + "\": " +
                                           status.message());
    }
    tenant.reset(new Tenant(name, options, std::move(coordinator)));
  } else {
    auto method = streaming::MakeIncrementalCategorical(
        options.method, options.num_choices, streaming_options);
    if (method == nullptr) {
      return util::Status::InvalidArgument(
          "tenant \"" + name + "\": no streaming implementation of \"" +
          options.method + "\"");
    }
    streaming::EngineConfig config;
    config.resync_interval = options.resync_interval;
    auto engine = std::make_unique<streaming::CategoricalStreamEngine>(
        std::move(method), config);
    tenant.reset(new Tenant(name, options, std::move(engine)));
  }

  if (!options.data_dir.empty()) {
    data::AnswerLogHeader header;
    header.type = data::AnswerLogType::kCategorical;
    header.num_choices = options.num_choices;
    tenant->log_path_ = options.data_dir + "/" + name + ".log";
    tenant->log_ = std::make_unique<data::AnswerLogWriter>();
    util::Status status = data::AnswerLogWriter::Create(
        tenant->log_path_, header, tenant->log_.get());
    if (!status.ok()) return status;
  }
  *out = std::move(tenant);
  return util::Status::Ok();
}

std::unique_ptr<Tenant> Tenant::Adopt(
    const std::string& name, const TenantOptions& options,
    std::unique_ptr<streaming::CategoricalStreamEngine> engine) {
  return std::unique_ptr<Tenant>(
      new Tenant(name, options, std::move(engine)));
}

util::Status Tenant::Ingest(const std::string& body, IngestResult* result) {
  obs::Span span("tenant_ingest");
  if (span.armed()) {
    span.Annotate("tenant", name_);
    span.Annotate("body_bytes", static_cast<int64_t>(body.size()));
  }
  const bool reject =
      options_.bad_record_policy == data::BadRecordPolicy::kReject;
  // A row that yields a record (`w,t,l` and a newline) takes at least six
  // bytes, so this bounds the records without a counting pass.
  const size_t max_records = body.size() / 6 + 1;

  // Parse `worker,task,label` rows into the validator's raw-record form in
  // one pass over the body: non-empty lines split on \n (one trailing \r
  // stripped), fields viewing the body. Only a line holding a quote or a
  // stray \r needs ParseCsvLine's unquoting; its fields are copied into
  // `unquoted`, whose elements never move. (worker, task) pairs are
  // interned into a *scratch* table scoped to this request: rows the
  // validator drops must not perturb the engine's first-appearance
  // interning order, or the tenant's log replay would diverge.
  std::vector<data::RawCategoricalAnswer> records;
  std::vector<IdPair> pairs;  // by scratch id
  std::unordered_map<IdPair, int, IdPairHash> scratch;
  std::deque<std::string> unquoted;
  records.reserve(max_records);
  scratch.reserve(max_records);
  std::string label_text;
  int64_t row_number = 0;
  for (size_t start = 0; start < body.size();) {
    size_t end = body.find('\n', start);
    if (end == std::string::npos) end = body.size();
    std::string_view line(body.data() + start, end - start);
    start = end + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    ++row_number;

    std::string_view fields[3];
    size_t field_count = 0;
    if (line.find_first_of("\"\r") == std::string_view::npos) {
      for (size_t from = 0;; ++field_count) {
        const size_t comma = line.find(',', from);
        if (field_count < 3) {
          fields[field_count] = line.substr(from, comma - from);
        }
        if (comma == std::string_view::npos) break;
        from = comma + 1;
      }
      ++field_count;
    } else {
      std::vector<std::string> parsed = util::ParseCsvLine(line);
      field_count = parsed.size();
      for (size_t f = 0; f < 3 && f < field_count; ++f) {
        fields[f] = unquoted.emplace_back(std::move(parsed[f]));
      }
    }
    util::Status parse_error;
    if (field_count != 3) {
      parse_error = util::Status::ParseError(
          "ingest row " + std::to_string(row_number) + ": expected "
          "worker,task,label, got " + std::to_string(field_count) +
          " fields");
    } else if (fields[0].empty() || fields[1].empty()) {
      parse_error = util::Status::ParseError(
          "ingest row " + std::to_string(row_number) +
          ": empty worker or task id");
    }
    long label = 0;
    if (parse_error.ok()) {
      // strtol's accept set (leading whitespace, a sign), on a NUL-ended
      // copy of the field; a value outside int is as malformed as text.
      label_text.assign(fields[2]);
      char* end_ptr = nullptr;
      errno = 0;
      label = std::strtol(label_text.c_str(), &end_ptr, 10);
      if (end_ptr == label_text.c_str() || *end_ptr != '\0') {
        parse_error = util::Status::ParseError(
            "ingest row " + std::to_string(row_number) + ": label \"" +
            label_text + "\" is not an integer");
      } else if (errno == ERANGE ||
                 label < std::numeric_limits<data::LabelId>::min() ||
                 label > std::numeric_limits<data::LabelId>::max()) {
        parse_error = util::Status::ParseError(
            "ingest row " + std::to_string(row_number) + ": label \"" +
            label_text + "\" is outside the integer range");
      }
    }
    if (!parse_error.ok()) {
      if (reject) return parse_error;
      ++result->parse_errors;
      ++result->dropped;
      continue;
    }
    data::RawCategoricalAnswer record;
    record.row = row_number;
    // The validator keys duplicates on (task, worker); both come from the
    // same scratch pair id so distinct id pairs stay distinct.
    const auto [it, inserted] = scratch.emplace(
        IdPair(fields[0], fields[1]), static_cast<int>(pairs.size()));
    if (inserted) pairs.push_back(it->first);
    record.task = it->second;
    record.worker = it->second;
    record.label = static_cast<data::LabelId>(label);
    records.push_back(record);
  }

  // PR-4 record validation under the tenant's policy: catches duplicate
  // pairs *within this request* and out-of-range labels before the engine
  // sees them.
  data::ValidationOptions validation;
  validation.policy = options_.bad_record_policy;
  data::ValidationReport report;
  const size_t before_validation = records.size();
  util::Status status;
  {
    // Scoped so validate_records closes before the engine observes: the
    // observes are siblings under tenant_ingest, not validation children.
    obs::Span validate_span("validate_records");
    if (validate_span.armed()) {
      validate_span.Annotate("records",
                             static_cast<int64_t>(records.size()));
    }
    status = data::ValidateCategoricalRecords(
        "ingest", num_choices(), validation, &records, &report);
  }
  if (!status.ok()) return status;
  result->duplicates += report.duplicate_answers;
  result->out_of_range += report.out_of_range_labels;
  result->dropped +=
      static_cast<int64_t>(before_validation - records.size());

  // Observe survivors in order. The engine still rejects duplicates against
  // *earlier requests* (its answer store is the cross-request state).
  // Accepted rows are staged in the log and committed with one write per
  // request — also when a reject-policy request fails part-way, so the log
  // keeps exactly the rows the engine applied.
  std::string task;
  std::string worker;
  for (const data::RawCategoricalAnswer& record : records) {
    worker.assign(pairs[record.task].first);
    task.assign(pairs[record.task].second);
    util::Status observed = ObserveAnswer(task, worker, record.label);
    if (!observed.ok()) {
      if (reject) {
        status = std::move(observed);
        break;
      }
      if (observed.message().find("duplicate") != std::string::npos) {
        ++result->duplicates;
      }
      ++result->dropped;
      continue;
    }
    ++result->accepted;
    if (log_ != nullptr) log_->Stage(task, worker, record.label);
  }
  if (log_ != nullptr) {
    const util::Status logged = log_->Commit();
    if (!logged.ok()) return logged;
  }
  if (!status.ok()) return status;
  if (tickets_ >= 0) {
    tickets_ -= result->accepted;
    if (tickets_ < 0) tickets_ = 0;
  }
  total_accepted_ += result->accepted;
  total_dropped_ += result->dropped;
  if (span.armed()) {
    span.Annotate("accepted", result->accepted);
    span.Annotate("dropped", result->dropped);
  }
  return util::Status::Ok();
}

util::Status Tenant::ObserveAnswer(const std::string& task,
                                   const std::string& worker,
                                   data::LabelId label) {
  if (coordinator_ != nullptr) {
    return coordinator_->Observe(task, worker, label);
  }
  return engine_->Observe(task, worker, label);
}

std::string Tenant::method_name() const {
  return engine_ != nullptr ? engine_->method().name()
                            : coordinator_->config().method;
}

int Tenant::num_choices() const {
  return engine_ != nullptr ? engine_->method().num_choices()
                            : coordinator_->config().num_choices;
}

int64_t Tenant::answers_seen() const {
  return engine_ != nullptr ? engine_->stats().answers
                            : coordinator_->answers_accepted();
}

// The serving estimate of one global task of a sharded tenant: the owning
// shard's current (approximate, globally informed) answer. Tasks seen only
// in rejected records have no owner and report label 0, matching a fresh
// engine's default estimate.
namespace {
data::LabelId ShardedEstimate(
    const shard::CategoricalShardCoordinator& coordinator, int gid) {
  const int owner = coordinator.TaskOwner(gid);
  if (owner < 0) return 0;
  return coordinator.engine(owner).method().Estimate(
      coordinator.TaskLocal(gid));
}
}  // namespace

std::string Tenant::TruthCsv() const {
  const bool sharded = coordinator_ != nullptr;
  const int num_tasks = sharded ? coordinator_->global_num_tasks()
                                : engine_->method().num_tasks();
  const streaming::StreamIdInterner& names =
      sharded ? coordinator_->tasks() : engine_->tasks();
  std::string out;
  out.reserve(16 + static_cast<size_t>(num_tasks) * 16);
  out += "task,truth\n";
  char tail[16] = {','};  // ",<truth>\n"
  for (int t = 0; t < num_tasks; ++t) {
    const data::LabelId truth = sharded ? ShardedEstimate(*coordinator_, t)
                                        : engine_->method().Estimate(t);
    util::AppendCsvField(names.Name(t), out);
    char* end = std::to_chars(tail + 1, tail + sizeof(tail) - 1, truth).ptr;
    *end++ = '\n';
    out.append(tail, end);
  }
  return out;
}

std::string Tenant::TruthJson() const {
  const bool sharded = coordinator_ != nullptr;
  const int num_tasks = sharded ? coordinator_->global_num_tasks()
                                : engine_->method().num_tasks();
  const streaming::StreamIdInterner& names =
      sharded ? coordinator_->tasks() : engine_->tasks();
  std::string out;
  out.reserve(256 + static_cast<size_t>(num_tasks) * 64);
  util::JsonWriter writer(out, 2);
  writer.BeginObject();
  writer.Key("tenant");
  writer.String(name_);
  writer.Key("method");
  writer.String(method_name());
  writer.Key("answers");
  writer.Int(answers_seen());
  if (sharded) {
    int64_t resyncs = 0;
    for (int s = 0; s < coordinator_->shard_count(); ++s) {
      resyncs += coordinator_->engine(s).stats().resyncs;
    }
    writer.Key("resyncs");
    writer.Int(resyncs);
    writer.Key("shards");
    writer.Int(coordinator_->shard_count());
    writer.Key("barriers");
    writer.Int(coordinator_->barriers_run());
    writer.Key("num_tasks");
    writer.Int(num_tasks);
    writer.Key("num_workers");
    writer.Int(coordinator_->global_num_workers());
  } else {
    writer.Key("resyncs");
    writer.Int(engine_->stats().resyncs);
    writer.Key("num_tasks");
    writer.Int(num_tasks);
    writer.Key("num_workers");
    writer.Int(engine_->method().num_workers());
  }
  writer.Key("tasks");
  writer.BeginArray();
  for (int t = 0; t < num_tasks; ++t) {
    writer.BeginObject();
    writer.Key("task");
    writer.String(names.Name(t));
    writer.Key("truth");
    writer.Int(sharded ? ShardedEstimate(*coordinator_, t)
                       : engine_->method().Estimate(t));
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
  out += '\n';
  return out;
}

void Tenant::ForceResync() {
  if (coordinator_ != nullptr) {
    if (coordinator_->answers_accepted() > 0) {
      (void)coordinator_->GlobalResync();
    }
    return;
  }
  if (engine_->stats().answers > 0) engine_->Resync();
}

const streaming::CategoricalStreamEngine* Tenant::SeriesEngine(
    const obs::MetricRegistry* registry) const {
  if (coordinator_ == nullptr) {
    return engine_->observe_latency_series(registry) != nullptr
               ? engine_.get()
               : nullptr;
  }
  for (int s = 0; s < coordinator_->shard_count(); ++s) {
    if (coordinator_->engine(s).observe_latency_series(registry) != nullptr) {
      return &coordinator_->engine(s);
    }
  }
  return nullptr;
}

std::string Tenant::SnapshotJson() const {
  if (coordinator_ != nullptr) {
    return coordinator_->MakeCheckpoint().Dump(2) + "\n";
  }
  return engine_->Snapshot().Dump(2) + "\n";
}

bool Tenant::Admit(int64_t records) {
  if (tickets_ < 0) return true;
  return records <= tickets_;
}

void Tenant::Retune(int resync_interval, int max_dirty_tasks) {
  resync_interval_ = resync_interval;
  max_dirty_tasks_ = max_dirty_tasks;
  if (coordinator_ != nullptr) {
    // For a sharded tenant the resync knob drives the barrier cadence;
    // the dirty-task cap still applies per shard engine.
    coordinator_->set_barrier_interval(resync_interval);
    for (int s = 0; s < coordinator_->shard_count(); ++s) {
      coordinator_->engine(s).set_max_dirty_tasks(max_dirty_tasks);
    }
    return;
  }
  engine_->set_resync_interval(resync_interval);
  engine_->set_max_dirty_tasks(max_dirty_tasks);
}

}  // namespace crowdtruth::server
