#include "server/server.h"

#include <cstdlib>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "obs/trace_export.h"
#include "util/json_writer.h"

namespace crowdtruth::server {

namespace {

// Splits "/v1/tenants/<name>/<verb>" into its trailing segments. Returns
// false when the path is not under /v1/tenants/.
bool SplitTenantPath(const std::string& path, std::string* name,
                     std::string* verb) {
  const std::string prefix = "/v1/tenants/";
  if (path.compare(0, prefix.size(), prefix) != 0) return false;
  const std::string rest = path.substr(prefix.size());
  const size_t slash = rest.find('/');
  if (slash == std::string::npos) {
    *name = rest;
    verb->clear();
  } else {
    *name = rest.substr(0, slash);
    *verb = rest.substr(slash + 1);
  }
  return true;
}

// Coarse per-handler label for the request-duration digest and the
// http_request span: paths embed tenant ids, so the raw path is never a
// label value.
const char* RouteLabel(const HttpRequest& request) {
  if (request.path == "/healthz") return "healthz";
  if (request.path == "/metrics") return "metrics";
  if (request.path == "/metrics.json") return "metrics_json";
  if (request.path == "/debug/trace") return "debug_trace";
  if (request.path == "/v1/tenants") return "tenants";
  std::string name;
  std::string verb;
  if (SplitTenantPath(request.path, &name, &verb)) {
    if (verb == "answers") return "ingest";
    if (verb == "truth") return "truth";
    if (verb == "snapshot") return "snapshot";
    return "tenants";
  }
  return "other";
}

}  // namespace

HttpResponse StatusToHttp(const util::Status& status) {
  int http = 500;
  switch (status.code()) {
    case util::StatusCode::kParseError:
    case util::StatusCode::kInvalidArgument:
      http = 400;
      break;
    case util::StatusCode::kValidationError:
      http = 422;
      break;
    case util::StatusCode::kNotFound:
      http = 404;
      break;
    case util::StatusCode::kIoError:
    case util::StatusCode::kOk:
      http = 500;
      break;
  }
  return JsonErrorResponse(http, util::StatusCodeName(status.code()),
                           status.message());
}

bool ValidTenantName(const std::string& name) {
  if (name.empty() || name.size() > 64 || name[0] == '.') return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

StreamingServer::StreamingServer(ServerConfig config,
                                 obs::MetricRegistry* registry)
    : config_(std::move(config)), registry_(registry),
      controller_(config_.controller, registry) {}

StreamingServer::~StreamingServer() { Stop(); }

util::Status StreamingServer::Start() {
  util::Status status = loop_.Init();
  if (!status.ok()) return status;
  if (registry_ != nullptr && config_.tenant_label_cap > 0) {
    registry_->SetLabelCardinalityCap("tenant", config_.tenant_label_cap);
  }
  listener_ = std::make_unique<HttpListener>(
      &loop_,
      [this](const HttpRequest& request) { return Handle(request); },
      config_.max_body_bytes);
  status = listener_->Listen(config_.port);
  if (!status.ok()) return status;
  if (config_.controller_enabled) {
    controller_timer_ = loop_.AddTimer(
        config_.controller.interval_ms, config_.controller.interval_ms,
        [this]() { controller_.Tick(Tenants()); });
  }
  return util::Status::Ok();
}

void StreamingServer::Stop() {
  if (controller_timer_ != 0) {
    loop_.CancelTimer(controller_timer_);
    controller_timer_ = 0;
  }
  if (listener_ != nullptr) {
    listener_->Close();
    listener_.reset();
  }
}

util::Status StreamingServer::AddTenant(std::unique_ptr<Tenant> tenant) {
  const std::string& name = tenant->name();
  if (!ValidTenantName(name)) {
    return util::Status::InvalidArgument("invalid tenant name \"" + name +
                                         "\"");
  }
  if (tenants_.count(name) > 0) {
    return util::Status::InvalidArgument("tenant \"" + name +
                                         "\" already exists");
  }
  tenants_[name] = std::move(tenant);
  return util::Status::Ok();
}

Tenant* StreamingServer::FindTenant(const std::string& name) {
  const auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second.get();
}

std::vector<Tenant*> StreamingServer::Tenants() {
  std::vector<Tenant*> out;
  out.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) out.push_back(tenant.get());
  return out;
}

void StreamingServer::CountRequest(int status) {
  if (registry_ == nullptr) return;
  registry_
      ->AddCounterFamily("crowdtruth_server_requests_total",
                         "HTTP requests handled, by status code.",
                         {"status"})
      .WithLabels({std::to_string(status)})
      .Increment();
}

void StreamingServer::ObserveRequest(const char* route, double seconds) {
  if (registry_ == nullptr) return;
  registry_
      ->AddDigestFamily("crowdtruth_server_request_duration_seconds",
                        "T-digest sketch of request handling time per "
                        "coarse route.",
                        {"route"}, obs::DigestOptions())
      .WithLabels({route})
      .Observe(seconds);
}

util::Status StreamingServer::ResolveTenant(const HttpRequest& request,
                                            const std::string& name,
                                            bool create, Tenant** out) {
  if (!ValidTenantName(name)) {
    return util::Status::InvalidArgument(
        "tenant names are 1-64 chars of [A-Za-z0-9._-], got \"" + name +
        "\"");
  }
  *out = FindTenant(name);
  if (*out != nullptr) return util::Status::Ok();
  if (!create) {
    return util::Status::NotFound("no tenant \"" + name + "\"");
  }
  // Auto-create on first ingest, with creation-time overrides from the
  // query string.
  TenantOptions options = config_.tenant_defaults;
  const auto method = request.query.find("method");
  if (method != request.query.end()) options.method = method->second;
  const auto choices = request.query.find("num_choices");
  if (choices != request.query.end()) {
    char* end = nullptr;
    const long parsed = std::strtol(choices->second.c_str(), &end, 10);
    if (end == choices->second.c_str() || *end != '\0') {
      return util::Status::InvalidArgument("num_choices \"" +
                                           choices->second +
                                           "\" is not an integer");
    }
    options.num_choices = static_cast<int>(parsed);
  }
  const auto shards = request.query.find("shards");
  if (shards != request.query.end()) {
    char* end = nullptr;
    const long parsed = std::strtol(shards->second.c_str(), &end, 10);
    if (end == shards->second.c_str() || *end != '\0' || parsed < 1) {
      return util::Status::InvalidArgument(
          "shards \"" + shards->second + "\" is not a positive integer");
    }
    options.shards = static_cast<int>(parsed);
  }
  const auto policy = request.query.find("on_bad_record");
  if (policy != request.query.end()) {
    util::Status status = data::ParseBadRecordPolicy(
        policy->second, &options.bad_record_policy);
    if (!status.ok()) return status;
  }
  std::unique_ptr<Tenant> tenant;
  util::Status status = Tenant::Create(name, options, &tenant);
  if (!status.ok()) return status;
  *out = tenant.get();
  tenants_[name] = std::move(tenant);
  return util::Status::Ok();
}

HttpResponse StreamingServer::HandleIngest(const HttpRequest& request,
                                           const std::string& name) {
  Tenant* tenant = nullptr;
  util::Status status = ResolveTenant(request, name, /*create=*/true,
                                      &tenant);
  if (!status.ok()) return StatusToHttp(status);

  // Admission: a request larger than the tenant's remaining ticket budget
  // is shed whole — a half-applied batch would make the answer log replay
  // ambiguous.
  int64_t lines = 0;
  for (const char c : request.body) lines += c == '\n' ? 1 : 0;
  if (!request.body.empty() && request.body.back() != '\n') ++lines;
  if (!tenant->Admit(lines)) {
    tenant->CountShed(lines);
    if (registry_ != nullptr) {
      registry_
          ->AddCounterFamily("crowdtruth_server_shed_answers_total",
                             "Answers rejected by admission control.",
                             {"tenant"})
          .WithLabels({tenant->name()})
          .Increment(static_cast<double>(lines));
    }
    HttpResponse response = JsonErrorResponse(
        429, "AdmissionLimit",
        "tenant \"" + name + "\" is over its admission budget (" +
            std::to_string(tenant->tickets()) + " answers left this "
            "interval); retry after the next control interval");
    response.headers.emplace_back(
        "Retry-After",
        std::to_string(
            std::max<int64_t>(1, config_.controller.interval_ms / 1000)));
    return response;
  }

  IngestResult result;
  status = tenant->Ingest(request.body, &result);
  if (!status.ok()) return StatusToHttp(status);
  HttpResponse response;
  response.status = 200;
  response.content_type = "application/json";
  response.body = result.ToJson();
  return response;
}

HttpResponse StreamingServer::HandleTruth(const HttpRequest& request,
                                          Tenant* tenant) {
  const auto resync = request.query.find("resync");
  if (resync != request.query.end() && resync->second != "0" &&
      resync->second != "false") {
    tenant->ForceResync();
  }
  const auto format = request.query.find("format");
  HttpResponse response;
  if (format != request.query.end() && format->second == "json") {
    response.content_type = "application/json";
    response.body = tenant->TruthJson();
  } else {
    response.content_type = "text/csv";
    response.body = tenant->TruthCsv();
  }
  return response;
}

HttpResponse StreamingServer::HandleSnapshot(Tenant* tenant) {
  HttpResponse response;
  response.content_type = "application/json";
  response.body = tenant->SnapshotJson();
  return response;
}

HttpResponse StreamingServer::HandleTenants(const HttpRequest& request) {
  std::string name;
  std::string verb;
  if (request.path != "/v1/tenants" &&
      !SplitTenantPath(request.path, &name, &verb)) {
    return JsonErrorResponse(404, "NotFound",
                             "no route for " + request.path);
  }
  if (name.empty()) {
    // GET /v1/tenants — the listing.
    util::JsonValue root = util::JsonValue::Object();
    util::JsonValue list = util::JsonValue::Array();
    for (Tenant* tenant : Tenants()) {
      util::JsonValue entry = util::JsonValue::Object();
      entry.Set("tenant", tenant->name());
      entry.Set("method", tenant->method_name());
      entry.Set("shards",
                tenant->sharded() ? tenant->coordinator().shard_count() : 1);
      entry.Set("answers", tenant->answers_seen());
      entry.Set("accepted", tenant->total_accepted());
      entry.Set("dropped", tenant->total_dropped());
      entry.Set("shed", tenant->total_shed());
      entry.Set("tickets", tenant->tickets());
      entry.Set("resync_interval", tenant->resync_interval());
      entry.Set("max_dirty_tasks", tenant->max_dirty_tasks());
      entry.Set("probe_state",
                ProbeStateName(controller_.probe_state(tenant->name())));
      list.Append(std::move(entry));
    }
    root.Set("tenants", std::move(list));
    HttpResponse response;
    response.content_type = "application/json";
    response.body = root.Dump(2) + "\n";
    return response;
  }

  if (verb == "answers" && request.method == "POST") {
    return HandleIngest(request, name);
  }
  // The remaining verbs operate on existing tenants only.
  Tenant* tenant = nullptr;
  const util::Status status =
      ResolveTenant(request, name, /*create=*/false, &tenant);
  if (!status.ok()) return StatusToHttp(status);
  if (verb == "truth" && request.method == "GET") {
    return HandleTruth(request, tenant);
  }
  if (verb == "snapshot" && request.method == "POST") {
    return HandleSnapshot(tenant);
  }
  if (verb == "answers" || verb == "truth" || verb == "snapshot") {
    return JsonErrorResponse(405, "MethodNotAllowed",
                             request.method + " is not supported on " +
                                 request.path);
  }
  return JsonErrorResponse(404, "NotFound", "no route for " + request.path);
}

HttpResponse StreamingServer::Handle(const HttpRequest& request) {
  const char* const route = RouteLabel(request);
  obs::Span span("http_request");
  if (span.armed()) {
    span.Annotate("route", std::string(route));
    span.Annotate("path", request.path);
    span.Annotate("http_method", request.method);
  }
  HttpResponse response;
  const bool observability =
      request.path == "/healthz" || request.path == "/metrics" ||
      request.path == "/metrics.json" || request.path == "/debug/trace";
  if (observability && request.method != "GET") {
    response = JsonErrorResponse(405, "MethodNotAllowed",
                                 request.method + " is not supported on " +
                                     request.path);
  } else if (request.path == "/healthz") {
    response.body = "ok\n";
  } else if (request.path == "/metrics") {
    if (registry_ != nullptr) {
      response.content_type = "text/plain; version=0.0.4";
      response.body = registry_->PrometheusText();
    }
  } else if (request.path == "/metrics.json") {
    response.content_type = "application/json";
    response.body =
        registry_ != nullptr ? registry_->ToJson().Dump(2) + "\n" : "{}\n";
  } else if (request.path == "/debug/trace") {
    // Dumps what the recorder holds *now*; this request's own span is
    // still open, so it shows up in the next dump, not this one.
    obs::FlightRecorder* const recorder = obs::ProcessFlightRecorder();
    if (recorder == nullptr) {
      response = JsonErrorResponse(404, "NotFound",
                                   "no flight recorder installed");
    } else {
      response.content_type = "application/json";
      response.body = obs::TraceJsonText(*recorder);
    }
  } else if (request.path.compare(0, 12, "/v1/tenants/") == 0 ||
             request.path == "/v1/tenants") {
    response = HandleTenants(request);
  } else {
    response =
        JsonErrorResponse(404, "NotFound", "no route for " + request.path);
  }
  CountRequest(response.status);
  ObserveRequest(route, span.ElapsedSeconds());
  if (span.armed()) span.Annotate("status", int64_t{response.status});
  return response;
}

}  // namespace crowdtruth::server
