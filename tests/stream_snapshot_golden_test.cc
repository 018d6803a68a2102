// Pins the bytes of the persisted streaming documents across builds: the
// engine snapshot of every streaming method (inside a periodic resync's lag
// window, and after a final resync) and the shard coordinator checkpoint of
// each answer type. tests/testdata/stream_snapshot_goldens.txt holds each
// document's length and FNV-1a-64 hash; a build whose documents differ by a
// single byte fails here and prints the document it produced.
//
// The golden file has one line per document: `<name> <length> <fnv1a64>`.
// When it is missing, the test fails and prints the lines it computed.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "shard/coordinator.h"
#include "streaming/engine.h"
#include "streaming/registry.h"

namespace crowdtruth::streaming {
namespace {

constexpr int kTasks = 30;
constexpr int kWorkers = 12;
constexpr int kRedundancy = 5;
constexpr int kChoices = 3;
constexpr int kResyncInterval = 50;
// Answer count at the lag-window cut: the resync launched at answer 50 is
// adopted at answer 55.
constexpr int kLagCut = 52;
// A tight sweep bound, so the categorical snapshots carry a backlog.
constexpr int kMaxDirtyTasks = 2;

// splitmix64: a self-contained generator, so the stream never moves with
// the simulator or util::Rng.
uint64_t Next(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Row {
  std::string task;
  std::string worker;
  int label = 0;
  double value = 0.0;
};

// kTasks x kRedundancy answers from distinct workers per task, shuffled into
// one arrival order. Worker w answers the task's truth with probability
// rising in w; numeric values are the truth plus worker-scaled noise.
std::vector<Row> MakeStream() {
  uint64_t state = 20170901;
  std::vector<Row> rows;
  for (int t = 0; t < kTasks; ++t) {
    const int truth = t % kChoices;
    const int first = static_cast<int>(Next(&state) % kWorkers);
    for (int k = 0; k < kRedundancy; ++k) {
      const int w = (first + k * 2) % kWorkers;
      Row row;
      row.task = "t" + std::to_string(t);
      row.worker = "w" + std::to_string(w);
      const bool right = Next(&state) % 100 < 40u + 5u * w;
      row.label = right ? truth
                        : (truth + 1 + static_cast<int>(Next(&state) % 2)) %
                              kChoices;
      const double noise =
          static_cast<double>(Next(&state) % 2001) / 1000.0 - 1.0;
      row.value = 10.0 * truth + noise * (1 + kWorkers - w);
      rows.push_back(std::move(row));
    }
  }
  for (size_t i = rows.size() - 1; i > 0; --i) {
    std::swap(rows[i], rows[Next(&state) % (i + 1)]);
  }
  return rows;
}

std::string Fnv1a64(const std::string& bytes) {
  uint64_t hash = 14695981039346656037ULL;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

// Streams `rows` through a `method_name` engine at kResyncInterval and
// records its snapshot at the lag-window cut and after a final Resync().
template <typename Engine, typename MakeMethod, typename PayloadOf>
void AddEngineDocuments(const std::string& method_name,
                        MakeMethod make_method, PayloadOf payload_of,
                        std::map<std::string, std::string>* documents) {
  EngineConfig config;
  config.resync_interval = kResyncInterval;
  Engine engine(make_method(method_name), config);
  const std::vector<Row> rows = MakeStream();
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(
        engine.Observe(rows[i].task, rows[i].worker, payload_of(rows[i]))
            .ok());
    if (i + 1 == kLagCut) {
      ASSERT_TRUE(engine.resync_pending());
      (*documents)[method_name + "/lag_window"] = engine.Snapshot().Dump();
    }
  }
  engine.Resync();
  (*documents)[method_name + "/final_resync"] = engine.Snapshot().Dump();
}

// A 2-shard coordinator with barriers every 40 records, checkpointed after
// 110 of them (`num_choices` 0 for numeric methods, as the tools pass it).
template <typename Coordinator, typename PayloadOf>
void AddCheckpointDocument(const std::string& method_name, int num_choices,
                           PayloadOf payload_of,
                           std::map<std::string, std::string>* documents) {
  shard::CoordinatorConfig config;
  config.shard_count = 2;
  config.method = method_name;
  config.num_choices = num_choices;
  config.options.max_dirty_tasks = kMaxDirtyTasks;
  config.barrier_interval = 40;
  std::unique_ptr<Coordinator> coordinator;
  ASSERT_TRUE(Coordinator::Create(config, &coordinator).ok());
  const std::vector<Row> rows = MakeStream();
  for (int i = 0; i < 110; ++i) {
    ASSERT_TRUE(coordinator
                    ->Observe(rows[i].task, rows[i].worker,
                              payload_of(rows[i]))
                    .ok());
  }
  (*documents)["checkpoint/" + method_name] =
      coordinator->MakeCheckpoint().Dump();
}

std::map<std::string, std::string> BuildDocuments() {
  std::map<std::string, std::string> documents;
  StreamingOptions options;
  options.max_dirty_tasks = kMaxDirtyTasks;
  const auto categorical = [&](const std::string& name) {
    return MakeIncrementalCategorical(name, kChoices, options);
  };
  const auto numeric = [&](const std::string& name) {
    return MakeIncrementalNumeric(name, options);
  };
  const auto label = [](const Row& row) { return row.label; };
  const auto value = [](const Row& row) { return row.value; };
  for (const std::string name : {"MV", "ZC", "D&S"}) {
    AddEngineDocuments<CategoricalStreamEngine>(name, categorical, label,
                                                &documents);
  }
  for (const std::string name : {"Mean", "Median"}) {
    AddEngineDocuments<NumericStreamEngine>(name, numeric, value,
                                            &documents);
  }
  AddCheckpointDocument<shard::CategoricalShardCoordinator>(
      "D&S", kChoices, label, &documents);
  AddCheckpointDocument<shard::NumericShardCoordinator>("Median", 0, value,
                                                        &documents);
  return documents;
}

TEST(StreamSnapshotGoldenTest, DocumentsMatchGoldenBytes) {
  const std::map<std::string, std::string> documents = BuildDocuments();
  ASSERT_EQ(documents.size(), 12u);
  std::string computed;
  for (const auto& [name, document] : documents) {
    computed += name + " " + std::to_string(document.size()) + " " +
                Fnv1a64(document) + "\n";
  }

  const std::string path = std::string(CROWDTRUTH_SOURCE_DIR) +
                           "/tests/testdata/stream_snapshot_goldens.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << "; this build computes:\n"
                  << computed;
  std::map<std::string, std::pair<size_t, std::string>> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    size_t length = 0;
    std::string hash;
    ASSERT_TRUE(fields >> name >> length >> hash) << "bad line: " << line;
    golden[name] = {length, hash};
  }
  ASSERT_EQ(golden.size(), documents.size()) << "this build computes:\n"
                                             << computed;
  for (const auto& [name, document] : documents) {
    const auto it = golden.find(name);
    ASSERT_NE(it, golden.end()) << "no golden for " << name;
    EXPECT_TRUE(it->second.first == document.size() &&
                it->second.second == Fnv1a64(document))
        << name << ": expected length " << it->second.first << " hash "
        << it->second.second << ", got length " << document.size()
        << " hash " << Fnv1a64(document) << "; document:\n"
        << document;
  }
}

}  // namespace
}  // namespace crowdtruth::streaming
