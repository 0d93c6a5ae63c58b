// service_mixed: an in-process SkylineServer on loopback under two
// closed-loop client connections sending a read-mostly mix, plus the
// service-layer probe that the traced runs of every workload use.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <optional>
#include <random>
#include <thread>

#include "common/json_reader.h"
#include "common/json_writer.h"
#include "common/metrics.h"
#include "core/bbs.h"
#include "core/canonical_order.h"
#include "core/compute_skyline.h"
#include "env/env.h"
#include "index/block_index.h"
#include "perfbench.h"
#include "relation/column_store.h"
#include "relation/generator.h"
#include "server/protocol.h"
#include "server/server.h"
#include "sql/engine.h"
#include "sql/parser.h"

namespace perfbench {

using namespace skyline;

namespace {

constexpr uint64_t kServiceRows = 200'000;
constexpr int kServiceDims = 5;
constexpr size_t kClients = 2;
// Twice the engine's 64-entry result cache, drawn with Zipf skew: hot
// boxes hit, the tail misses and evicts.
constexpr size_t kBoxPool = 128;
constexpr double kBoxHalfWidth = 0.06;  // share of the int32 range
constexpr int kSetups = 5;
constexpr size_t kWarmBoxes = 16;
constexpr size_t kCheckEvery = 5;  // reads kept for the output check
constexpr size_t kMaxChecks = 40;
constexpr size_t kTopN = 10;
constexpr size_t kServiceProbeOps = 96;
constexpr size_t kSliceProbeOps = 48;
constexpr size_t kProbeBoxes = 16;
// Workers for the sort and core calls the traced run times, as in the
// batch workloads.
constexpr size_t kLayeredThreads = 4;
constexpr const char* kTable = "T";

// ---------------------------------------------------------------------------
// The traffic mix.

struct Box {
  size_t col[2];
  int32_t lo[2];
  int32_t hi[2];
};

struct MixData {
  int dims = 0;
  std::vector<std::vector<int32_t>> points;  // sampled rows' attributes
  std::vector<Box> boxes;                    // hottest first
  std::vector<double> zipf_cdf;
};

int32_t ClampToInt32(int64_t v) {
  return static_cast<int32_t>(
      std::clamp<int64_t>(v, INT32_MIN, INT32_MAX));
}

Result<MixData> MakeMixData(const Table& table, int dims, uint64_t seed) {
  MixData data;
  data.dims = dims;
  std::vector<char> rows;
  SKYLINE_RETURN_IF_ERROR(table.ReadAllRows(&rows));
  const size_t width = table.schema().row_width();
  const uint64_t n = table.row_count();
  const uint64_t stride = std::max<uint64_t>(1, n / 4096);
  for (uint64_t r = 0; r < n; r += stride) {
    RowView row(&table.schema(), rows.data() + r * width);
    std::vector<int32_t> point(static_cast<size_t>(dims));
    for (int c = 0; c < dims; ++c) point[c] = row.GetInt32(c);
    data.points.push_back(std::move(point));
  }
  std::mt19937_64 rng(seed ^ 0x6a09e667f3bcc909ull);
  const int64_t half = static_cast<int64_t>(kBoxHalfWidth * 4294967296.0);
  double total = 0;
  for (size_t b = 0; b < kBoxPool; ++b) {
    const std::vector<int32_t>& center =
        data.points[rng() % data.points.size()];
    Box box;
    box.col[0] = rng() % static_cast<size_t>(dims);
    box.col[1] = (box.col[0] + 1 + rng() % static_cast<size_t>(dims - 1)) %
                 static_cast<size_t>(dims);
    for (int k = 0; k < 2; ++k) {
      box.lo[k] = ClampToInt32(int64_t{center[box.col[k]]} - half);
      box.hi[k] = ClampToInt32(int64_t{center[box.col[k]]} + half);
    }
    data.boxes.push_back(box);
    total += 1.0 / static_cast<double>(b + 1);
    data.zipf_cdf.push_back(total);
  }
  for (double& c : data.zipf_cdf) c /= total;
  return data;
}

std::string SkylineClause(int dims) {
  std::string clause = " SKYLINE OF";
  for (int c = 0; c < dims; ++c) {
    clause += (c == 0 ? " a" : ", a") + std::to_string(c) + " MAX";
  }
  return clause;
}

std::string BoxSql(const MixData& data, const Box& box) {
  std::string sql = "SELECT * FROM T WHERE ";
  for (int k = 0; k < 2; ++k) {
    const std::string col = "a" + std::to_string(box.col[k]);
    sql += (k == 0 ? "" : " AND ") + col + " >= " + std::to_string(box.lo[k]) +
           " AND " + col + " <= " + std::to_string(box.hi[k]);
  }
  return sql + SkylineClause(data.dims);
}

std::string FullSql(int dims) {
  return "SELECT * FROM T" + SkylineClause(dims);
}

std::string TopNSql(size_t column) {
  return "SELECT * FROM T ORDER BY a" + std::to_string(column) +
         " DESC LIMIT " + std::to_string(kTopN);
}

SkylineConstraint BoxConstraint(const Box& box) {
  SkylineConstraint constraint;
  for (int k = 0; k < 2; ++k) {
    constraint.bounds.push_back({box.col[k], box.lo[k], box.hi[k]});
  }
  return constraint;
}

enum class OpKind { kFull, kBox, kTopN, kInsert, kDelete };

struct Op {
  OpKind kind = OpKind::kFull;
  size_t box = 0;     // kBox
  size_t column = 0;  // kTopN
  std::string sql;
};

bool IsRead(OpKind kind) {
  return kind == OpKind::kFull || kind == OpKind::kBox ||
         kind == OpKind::kTopN;
}

const char* SpanName(OpKind kind) {
  switch (kind) {
    case OpKind::kFull:
      return "server.read.full";
    case OpKind::kBox:
      return "server.read.box";
    case OpKind::kTopN:
      return "server.read.topn";
    case OpKind::kInsert:
      return "server.write.insert";
    case OpKind::kDelete:
      return "server.write.delete";
  }
  return "server";
}

/// One client's request stream. The schedule is fixed so every run has the
/// same shares: request i is a write when i % 16 == 15 (6.25%; an INSERT
/// of a fresh row, then the DELETE of that row, so the table size does not
/// drift), a top-N when i % 100 == 50 (1%), the full skyline when
/// i % 8 == 0 (12.5%), and otherwise a constrained skyline whose box is
/// drawn from the Zipf pool by a golden-ratio sequence (low discrepancy:
/// each run sees the pool's shares closely, whatever its seed).
class Mix {
 public:
  Mix(const MixData* data, uint64_t seed, size_t client)
      : data_(data),
        rng_(seed * 0x9e3779b97f4a7c15ull + client),
        client_(client),
        u_(static_cast<double>(rng_() >> 11) * 0x1.0p-53) {}

  Op Next() {
    const uint64_t i = next_++;
    Op op;
    if (i % 16 == 15) {
      if (std::optional<std::string> sql = PendingDelete()) {
        op.kind = OpKind::kDelete;
        op.sql = std::move(*sql);
        return op;
      }
      outstanding_ = "perfbench-c" + std::to_string(client_) + "-" +
                     std::to_string(inserts_++);
      const std::vector<int32_t>& base =
          data_->points[rng_() % data_->points.size()];
      op.kind = OpKind::kInsert;
      op.sql = "INSERT INTO T VALUES (";
      for (int32_t v : base) {
        const int64_t jitter = static_cast<int64_t>(rng_() % (1u << 21)) -
                               (int64_t{1} << 20);
        op.sql += std::to_string(ClampToInt32(v + jitter)) + ", ";
      }
      op.sql += "'" + outstanding_ + "')";
      return op;
    }
    if (i % 100 == 50) {
      op.kind = OpKind::kTopN;
      op.column = (i / 100) % static_cast<size_t>(data_->dims);
      op.sql = TopNSql(op.column);
      return op;
    }
    if (i % 8 == 0) {
      op.kind = OpKind::kFull;
      op.sql = FullSql(data_->dims);
      return op;
    }
    u_ += 0.6180339887498949;
    u_ -= std::floor(u_);
    op.kind = OpKind::kBox;
    op.box = static_cast<size_t>(
        std::lower_bound(data_->zipf_cdf.begin(), data_->zipf_cdf.end(), u_) -
        data_->zipf_cdf.begin());
    op.box = std::min(op.box, data_->boxes.size() - 1);
    op.sql = BoxSql(*data_, data_->boxes[op.box]);
    return op;
  }

  /// A failed INSERT leaves nothing to delete.
  void InsertFailed() { outstanding_.clear(); }

  /// The DELETE of a row this mix inserted and has not deleted yet.
  std::optional<std::string> PendingDelete() {
    if (outstanding_.empty()) return std::nullopt;
    std::string sql = "DELETE FROM T WHERE payload = '" + outstanding_ + "'";
    outstanding_.clear();
    return sql;
  }

 private:
  const MixData* data_;
  std::mt19937_64 rng_;
  size_t client_;
  double u_;
  uint64_t next_ = 0;
  uint64_t inserts_ = 0;
  std::string outstanding_;
};

// ---------------------------------------------------------------------------
// Wire client.

class Client {
 public:
  explicit Client(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    // A frame goes out as two sends (length, then payload); without this
    // the client's Nagle timer would hold the payload for the server's
    // delayed ACK.
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Result<std::string> Call(const std::string& request) {
    if (fd_ < 0) return Status::IoError("client is not connected");
    SKYLINE_RETURN_IF_ERROR(WriteFrame(fd_, request));
    std::string payload;
    SKYLINE_RETURN_IF_ERROR(ReadFrame(fd_, &payload));
    return payload;
  }

  Result<std::string> Query(const std::string& sql) {
    JsonWriter request;
    request.BeginObject();
    request.KeyValue("op", "query");
    request.KeyValue("sql", sql);
    request.EndObject();
    return Call(request.str());
  }

 private:
  int fd_ = -1;
};

/// A parsed response: ok, its result_cache label, and the document.
struct Reply {
  bool ok = false;
  std::string cache;
  std::string error;
  JsonValue doc;
};

Reply ParseReply(const Result<std::string>& payload) {
  Reply reply;
  if (!payload.ok()) {
    reply.error = payload.status().ToString();
    return reply;
  }
  Result<JsonValue> doc = ParseJson(payload.value());
  if (!doc.ok()) {
    reply.error = "unparsable response: " + doc.status().ToString();
    return reply;
  }
  reply.doc = std::move(doc).value();
  reply.ok = reply.doc.GetBool("ok", false);
  if (!reply.ok) {
    const JsonValue* error = reply.doc.Find("error");
    reply.error = error != nullptr ? error->GetString("message", "?") : "?";
  }
  if (const JsonValue* report = reply.doc.Find("report")) {
    if (const JsonValue* labels = report->Find("labels")) {
      reply.cache = labels->GetString("result_cache", "");
    }
  }
  return reply;
}

// ---------------------------------------------------------------------------
// The running service.

struct Service {
  Env* env = nullptr;
  std::string dir;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<SkylineServer> server;
  std::optional<SkylineSpec> spec;
  MixData mix;

  ~Service() {
    if (server != nullptr) server->Stop();
  }
  std::shared_ptr<const Table> table() const {
    return engine->Snapshot(kTable).value().table;
  }
  uint64_t version() const { return engine->Snapshot(kTable).value().version; }
};

/// Serves `table` (already at dir/T.v1): engine with sidecars, server on
/// an ephemeral loopback port, then the warm-up reads — the first zone
/// load and the hottest boxes' cache fills.
Status StartService(Env* env, const std::string& dir, Table table, int dims,
                    uint64_t seed, Service* service) {
  service->env = env;
  service->dir = dir;
  Engine::Options engine_options;
  engine_options.env = env;
  engine_options.data_prefix = dir;
  service->engine = std::make_unique<Engine>(engine_options);
  SKYLINE_ASSIGN_OR_RETURN(
      SkylineSpec spec, SkylineSpec::Make(table.schema(), MaxCriteria(dims)));
  service->spec.emplace(std::move(spec));
  SKYLINE_RETURN_IF_ERROR(
      service->engine->CreateTable(kTable, std::move(table)));
  SKYLINE_ASSIGN_OR_RETURN(service->mix,
                           MakeMixData(*service->table(), dims, seed));
  SkylineServer::Options server_options;
  server_options.engine = service->engine.get();
  server_options.session.algorithm = SkylineAlgorithm::kAuto;
  server_options.session.threads = 1;
  // Pipeline temp files go to the data directory, not the working one.
  server_options.session.temp_prefix = dir + "/session";
  service->server = std::make_unique<SkylineServer>(server_options);
  SKYLINE_RETURN_IF_ERROR(service->server->Start());

  Client client(service->server->port());
  std::vector<std::string> warm = {FullSql(dims)};
  for (size_t b = 0; b < kWarmBoxes; ++b) {
    warm.push_back(BoxSql(service->mix, service->mix.boxes[b]));
  }
  for (const std::string& sql : warm) {
    Reply reply = ParseReply(client.Query(sql));
    if (!reply.ok) {
      return Status::Internal("warm-up read failed: " + reply.error);
    }
  }
  return Status::OK();
}

/// Bytes of every table version the engine wrote: heap files plus column
/// and index sidecars (the engine keeps old versions for their readers).
uint64_t EngineBytes(const Service& service) {
  uint64_t bytes = 0;
  const uint64_t version = service.version();
  for (uint64_t v = 1; v <= version; ++v) {
    const std::string heap =
        service.dir + "/" + kTable + ".v" + std::to_string(v);
    for (const std::string& path :
         {heap, ColumnFilePathFor(heap), BlockIndexPathFor(heap)}) {
      Result<uint64_t> size = service.env->FileSize(path);
      if (size.ok()) bytes += size.value();
    }
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Output checks.

/// Compares a response's rows, in order, to `expected` rows of `schema`.
Status CompareRows(const JsonValue& doc, const Schema& schema,
                   const std::vector<char>& expected) {
  const JsonValue* rows = doc.Find("rows");
  if (rows == nullptr || !rows->is_array()) {
    return Status::Corruption("response has no rows");
  }
  const size_t width = schema.row_width();
  const size_t count = expected.size() / width;
  if (rows->array().size() != count) {
    return Status::Corruption(
        "response has " + std::to_string(rows->array().size()) +
        " rows, expected " + std::to_string(count));
  }
  for (size_t r = 0; r < count; ++r) {
    const JsonValue& cells = rows->array()[r];
    RowView row(&schema, expected.data() + r * width);
    if (!cells.is_array() || cells.array().size() != schema.num_columns()) {
      return Status::Corruption("malformed response row");
    }
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      const JsonValue& cell = cells.array()[c];
      const bool same =
          schema.column(c).type == ColumnType::kFixedString
              ? cell.is_string() && cell.string_value() == row.GetString(c)
              : cell.is_number() &&
                    cell.number_value() == static_cast<double>(row.GetInt32(c));
      if (!same) {
        return Status::Corruption("response row " + std::to_string(r) +
                                  " differs in column " + std::to_string(c));
      }
    }
  }
  return Status::OK();
}

/// The expected rows of a read op at `table`'s version: a cold sequential
/// ComputeSkyline in canonical order, or the top-N by direct selection.
Result<std::vector<char>> ExpectedRows(const Service& service, const Op& op,
                                       const Table& table) {
  std::vector<char> rows;
  const size_t width = table.schema().row_width();
  if (op.kind == OpKind::kTopN) {
    SKYLINE_RETURN_IF_ERROR(table.ReadAllRows(&rows));
    std::vector<size_t> order(table.row_count());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    auto value = [&](size_t i) {
      return RowView(&table.schema(), rows.data() + i * width)
          .GetInt32(op.column);
    };
    const size_t n = std::min(kTopN, order.size());
    std::partial_sort(order.begin(), order.begin() + n, order.end(),
                      [&](size_t a, size_t b) { return value(a) > value(b); });
    std::vector<char> top;
    for (size_t i = 0; i < n; ++i) {
      top.insert(top.end(), rows.begin() + order[i] * width,
                 rows.begin() + (order[i] + 1) * width);
    }
    return top;
  }
  ExecContext sequential;
  sequential.threads = 1;
  SkylineComputeOptions options;
  options.sfs.threads = 1;
  if (op.kind == OpKind::kBox) {
    options.constraint = BoxConstraint(service.mix.boxes[op.box]);
  }
  const std::string path = service.dir + "/check";
  SKYLINE_ASSIGN_OR_RETURN(
      Table cold, ComputeSkyline(SkylineAlgorithm::kSfs, table, *service.spec,
                                 sequential, path, nullptr, options));
  SKYLINE_RETURN_IF_ERROR(cold.ReadAllRows(&rows));
  (void)service.env->DeleteFile(path);
  SortSkylineRowsCanonical(*service.spec, &rows);
  return rows;
}

/// Compares a top-N response on its ORDER BY column only: rows that tie
/// on it may come in any order.
Status CompareTopN(const JsonValue& doc, const Schema& schema,
                   const std::vector<char>& expected, size_t column) {
  const JsonValue* rows = doc.Find("rows");
  const size_t width = schema.row_width();
  if (rows == nullptr || rows->array().size() != expected.size() / width) {
    return Status::Corruption("top-N response has the wrong row count");
  }
  for (size_t r = 0; r < rows->array().size(); ++r) {
    const JsonValue& cells = rows->array()[r];
    const double want = static_cast<double>(
        RowView(&schema, expected.data() + r * width).GetInt32(column));
    if (!cells.is_array() || cells.array().size() <= column ||
        cells.array()[column].number_value() != want) {
      return Status::Corruption("top-N row " + std::to_string(r) + " differs");
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The closed-loop phase.

struct Check {
  Op op;
  std::shared_ptr<const Table> table;
  uint64_t version = 0;
  std::string payload;
};

struct Tally {
  Samples read_ms, hit_ms, miss_ms, topn_ms, write_ms;
  uint64_t ops = 0;
  uint64_t inserted = 0;
  std::vector<std::string> failures;
  std::vector<Check> checks;

  void Merge(Tally&& other) {
    for (double v : other.read_ms.values()) read_ms.Add(v);
    for (double v : other.hit_ms.values()) hit_ms.Add(v);
    for (double v : other.miss_ms.values()) miss_ms.Add(v);
    for (double v : other.topn_ms.values()) topn_ms.Add(v);
    for (double v : other.write_ms.values()) write_ms.Add(v);
    ops += other.ops;
    inserted += other.inserted;
    for (auto& f : other.failures) failures.push_back(std::move(f));
    for (auto& c : other.checks) checks.push_back(std::move(c));
  }
};

void RunClient(Service* service, Mix* mix, double deadline, Tracer* tracer,
               Tally* tally) {
  Client client(service->server->port());
  uint64_t reads = 0;
  while (NowSeconds() < deadline) {
    const Op op = mix->Next();
    const bool keep = IsRead(op.kind) && reads++ % kCheckEvery == 0;
    Engine::TableSnapshot before;
    if (keep) before = service->engine->Snapshot(kTable).value();
    LayerSpan span(tracer, SpanName(op.kind));
    Result<std::string> payload = client.Query(op.sql);
    const double ms = span.End() * 1000;
    ++tally->ops;
    Reply reply = ParseReply(payload);
    if (!reply.ok) {
      tally->failures.push_back(op.sql.substr(0, 60) + ": " + reply.error);
      if (op.kind == OpKind::kInsert) mix->InsertFailed();
      continue;
    }
    if (!IsRead(op.kind)) {
      tally->write_ms.Add(ms);
      if (reply.doc.GetNumber("rows_affected", -1) != 1) {
        tally->failures.push_back(op.sql.substr(0, 60) +
                                  ": expected one row affected");
      } else if (op.kind == OpKind::kInsert) {
        ++tally->inserted;
      }
      continue;
    }
    tally->read_ms.Add(ms);
    if (op.kind == OpKind::kTopN) {
      tally->topn_ms.Add(ms);
    } else if (reply.cache == "hit") {
      tally->hit_ms.Add(ms);
    } else {
      tally->miss_ms.Add(ms);
    }
    if (keep) {
      // Served at one version only if no write landed meanwhile.
      Engine::TableSnapshot after = service->engine->Snapshot(kTable).value();
      if (after.version == before.version) {
        tally->checks.push_back(
            {op, before.table, before.version, payload.value()});
      }
    }
  }
}

struct Phase {
  Tally tally;
  double elapsed = 0;
};

Phase RunPhase(Service* service, std::vector<Mix>* mixes, double seconds,
               Tracer* tracer) {
  std::vector<Tally> tallies(kClients);
  const double start = NowSeconds();
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back(RunClient, service, &(*mixes)[c], start + seconds,
                         tracer, &tallies[c]);
  }
  for (std::thread& t : clients) t.join();
  Phase phase;
  phase.elapsed = NowSeconds() - start;
  for (Tally& t : tallies) phase.tally.Merge(std::move(t));
  return phase;
}

/// Checks up to kMaxChecks kept responses, spread over the phase, against
/// cold recomputation at their table version. Not timed. Returns how many
/// it checked.
size_t CheckResponses(const Service& service, const Tally& tally,
                      Report* report) {
  const size_t n = tally.checks.size();
  const size_t step = std::max<size_t>(1, (n + kMaxChecks - 1) / kMaxChecks);
  std::map<std::pair<uint64_t, std::string>, std::vector<char>> expected;
  size_t checked = 0;
  for (size_t i = 0; i < n; i += step, ++checked) {
    const Check& check = tally.checks[i];
    const Schema& schema = check.table->schema();
    auto key = std::make_pair(check.version, check.op.sql);
    if (expected.find(key) == expected.end()) {
      Result<std::vector<char>> rows =
          ExpectedRows(service, check.op, *check.table);
      if (!rows.ok()) {
        report->Failure("check: " + rows.status().ToString());
        continue;
      }
      expected[key] = std::move(rows).value();
    }
    Result<JsonValue> doc = ParseJson(check.payload);
    Status status =
        !doc.ok() ? doc.status()
        : check.op.kind == OpKind::kTopN
            ? CompareTopN(doc.value(), schema, expected[key], check.op.column)
            : CompareRows(doc.value(), schema, expected[key]);
    if (!status.ok()) {
      report->Failure("response mismatch for " + check.op.sql.substr(0, 60) +
                      ": " + status.ToString());
    }
  }
  return checked;
}

void CountPhase(const Phase& phase, Report* report) {
  report->attempted += phase.tally.ops;
  for (const std::string& f : phase.tally.failures) report->Failure(f);
}

// ---------------------------------------------------------------------------
// The service-layer probe.

struct ProbeBase {
  Engine::CacheCounters cache;
  uint64_t bytes = 0;
};

ProbeBase TakeBase(const Service& service) {
  return {service.engine->cache_counters(), EngineBytes(service)};
}

/// Times the public calls of relation, index, sql, exec and server on the
/// service's current table, and reads storage and cache counts since
/// `base`. `inserted_before` counts rows the timed phases inserted since
/// `base`. Returns the mean in-process Session time per mix op, in ms.
double ProbeServiceLayers(Service* service, size_t mix_ops,
                          const ProbeBase& base, uint64_t inserted_before,
                          uint64_t seed, Tracer* tracer, Report* report) {
  Env* env = service->env;
  const SkylineSpec& spec = *service->spec;
  const std::shared_ptr<const Table> current = service->table();
  const size_t width = current->schema().row_width();

  // relation: sidecar writes and zone loads on a copy of the current
  // version (a table the zone cache has never seen).
  const std::string probe_path = service->dir + "/probe";
  std::optional<Table> probe;
  {
    std::vector<char> rows;
    Status status = current->ReadAllRows(&rows);
    TableBuilder builder(env, probe_path, current->schema());
    if (status.ok()) status = builder.Open();
    for (size_t i = 0; status.ok() && i < current->row_count(); ++i) {
      status = builder.AppendRaw(rows.data() + i * width);
    }
    if (status.ok()) {
      Result<Table> built = builder.Finish();
      if (built.ok()) probe.emplace(std::move(built).value());
      status = built.status();
    }
    if (!status.ok()) {
      report->Failure("probe copy: " + status.ToString());
      return 0;
    }
  }
  Samples sidecar_ms, zone_ms;
  for (int rep = 0; rep < 3; ++rep) {
    ++report->attempted;
    LayerSpan write_span(tracer, "relation.WriteSidecars");
    Status status = WriteTableColumnFile(*probe);
    if (status.ok()) status = WriteTableBlockIndex(*probe);
    sidecar_ms.Add(write_span.End() * 1000);
    LayerSpan load_span(tracer, "relation.LoadTableColumnZones");
    Result<std::shared_ptr<const TableColumnZones>> zones =
        LoadTableColumnZones(*probe);
    zone_ms.Add(load_span.End() * 1000);
    if (!status.ok() || !zones.ok()) {
      report->Failure("sidecars: " +
                      (status.ok() ? zones.status() : status).ToString());
    }
  }
  report->Metric("relation.sidecar_write_ms", sidecar_ms.Median(), "ms");
  report->Metric("relation.zone_load_ms", zone_ms.Median(), "ms");

  // index: BBS over the hottest boxes, each checked against cold SFS.
  Samples bbs_ms;
  uint64_t skipped = 0, nodes = 0, heap_peak = 0, calls = 0;
  const uint64_t blocks = (probe->row_count() + 63) / 64;
  Result<std::shared_ptr<const TableColumnZones>> zones =
      TableZoneCache::Instance().GetOrLoad(*probe, nullptr);
  if (!zones.ok() || zones.value()->block_index == nullptr) {
    report->Failure("probe table has no usable block index");
  } else {
    ExecContext sequential;
    sequential.threads = 1;
    for (size_t b = 0; b < kProbeBoxes && b < service->mix.boxes.size(); ++b) {
      ++report->attempted;
      BbsOptions options;
      options.constraint = BoxConstraint(service->mix.boxes[b]);
      SkylineRunStats stats;
      const std::string out = service->dir + "/bbs";
      LayerSpan span(tracer, "index.ComputeSkylineBbs");
      Result<Table> result =
          ComputeSkylineBbs(*probe, spec, zones.value(), options, sequential,
                            out, &stats);
      bbs_ms.Add(span.End() * 1000);
      if (!result.ok()) {
        report->Failure("bbs: " + result.status().ToString());
        continue;
      }
      skipped += stats.index_blocks_skipped;
      nodes += stats.index_nodes_visited;
      heap_peak = std::max(heap_peak, stats.heap_peak);
      ++calls;
      Op op;
      op.kind = OpKind::kBox;
      op.box = b;
      Result<std::vector<char>> cold = ExpectedRows(*service, op, *probe);
      Result<uint64_t> got = TableDigest(spec, result.value());
      if (!cold.ok() || !got.ok() ||
          CanonicalDigest(spec, std::move(cold).value()) != got.value()) {
        report->Failure("bbs output differs from cold SFS");
      }
      (void)env->DeleteFile(out);
    }
  }
  for (const std::string& path : {probe_path, ColumnFilePathFor(probe_path),
                                  BlockIndexPathFor(probe_path)}) {
    (void)env->DeleteFile(path);
  }
  report->Metric("index.bbs_ms", bbs_ms.Median(), "ms");
  report->Metric("index.blocks_skipped_ratio",
                 calls == 0 ? 0.0
                            : static_cast<double>(skipped) /
                                  static_cast<double>(calls * blocks),
                 "ratio");
  report->Metric("index.nodes_visited",
                 calls == 0 ? 0.0 : static_cast<double>(nodes) / calls,
                 "count");
  report->Metric("index.heap_peak", static_cast<double>(heap_peak), "count");

  // sql: the same mix through an in-process Session.
  Session::Options session_options;
  session_options.algorithm = SkylineAlgorithm::kAuto;
  session_options.threads = 1;
  session_options.temp_prefix = service->dir + "/probe-session";
  Session session(service->engine.get(), session_options);
  MetricsRegistry registry;
  session.exec().metrics = &registry;
  auto execute = [&](const std::string& sql, Session::Outcome* outcome) {
    ++report->attempted;
    Status status = session.Execute(
        sql, [](const RowView&) { return Status::OK(); }, outcome);
    if (!status.ok()) {
      report->Failure(sql.substr(0, 60) + ": " + status.ToString());
    }
    return status;
  };
  Mix mix(&service->mix, seed, kClients);
  Samples parse_us, read_ms, write_ms, op_ms;
  uint64_t inserted = 0;
  std::string pending_delete;
  for (size_t i = 0; i < mix_ops; ++i) {
    const Op op = mix.Next();
    {
      LayerSpan span(tracer, "sql.ParseSql");
      Result<SqlStatement> parsed = ParseSql(op.sql);
      parse_us.Add(span.End() * 1e6);
      if (!parsed.ok()) report->Failure("parse: " + parsed.status().ToString());
    }
    Session::Outcome outcome;
    LayerSpan span(tracer, "sql.Session.Execute");
    Status status = execute(op.sql, &outcome);
    const double ms = span.End() * 1000;
    op_ms.Add(ms);
    (IsRead(op.kind) ? read_ms : write_ms).Add(ms);
    if (op.kind == OpKind::kInsert) {
      if (status.ok()) {
        ++inserted;
      } else {
        mix.InsertFailed();
      }
    }
  }
  // Leave the table as the mix found it.
  if (std::optional<std::string> sql = mix.PendingDelete()) {
    (void)execute(*sql, nullptr);
  }
  report->Metric("sql.parse_us", parse_us.Median(), "us");
  report->Metric("sql.session_read_ms_p50", read_ms.Median(), "ms");
  report->Metric("sql.session_write_ms_p50", write_ms.Median(), "ms");
  // Each cold fill publishes its route as skyline.<route>.runs.
  double bbs_runs = 0, fills = 0;
  for (const MetricsSnapshot::Value& counter : registry.Aggregate().counters) {
    const std::string_view name = counter.name;
    if (name.rfind("skyline.", 0) != 0 || !name.ends_with(".runs")) continue;
    fills += static_cast<double>(counter.value);
    if (name == "skyline.bbs.runs") {
      bbs_runs += static_cast<double>(counter.value);
    }
  }
  report->Detail("probe_cold_fills", fills, "count");
  report->Metric("core.route_bbs_share", fills == 0 ? 0.0 : bbs_runs / fills,
                 "ratio");

  // exec: uncached top-N through the Volcano pipeline.
  Samples topn_ms;
  for (int i = 0; i < 9; ++i) {
    LayerSpan span(tracer, "exec.TopN");
    (void)execute(TopNSql(static_cast<size_t>(i % service->mix.dims)), nullptr);
    topn_ms.Add(span.End() * 1000);
  }
  report->Metric("exec.topn_ms_p50", topn_ms.Median(), "ms");

  // server: ping round trips, and socket reads paired with in-process
  // reads of the same cached entry.
  Client client(service->server->port());
  Samples ping_ms, overhead_ms;
  for (int i = 0; i < 50; ++i) {
    ++report->attempted;
    LayerSpan span(tracer, "server.ping");
    Result<std::string> pong = client.Call("{\"op\": \"ping\"}");
    ping_ms.Add(span.End() * 1000);
    if (!ParseReply(pong).ok) report->Failure("ping failed");
  }
  for (size_t b = 0; b < kProbeBoxes && b < service->mix.boxes.size(); ++b) {
    const std::string sql = BoxSql(service->mix, service->mix.boxes[b]);
    (void)execute(sql, nullptr);  // fills the entry if it is not cached
    ++report->attempted;
    LayerSpan socket_span(tracer, "server.read.paired");
    Reply reply = ParseReply(client.Query(sql));
    const double socket_ms = socket_span.End() * 1000;
    if (!reply.ok) report->Failure("paired read: " + reply.error);
    Session::Outcome outcome;
    LayerSpan local_span(tracer, "sql.Session.Execute.paired");
    (void)execute(sql, &outcome);
    const double local_ms = local_span.End() * 1000;
    if (reply.cache == "hit" && outcome.cache_hit) {
      overhead_ms.Add(socket_ms - local_ms);
    }
  }
  report->Metric("server.ping_ms_p50", ping_ms.Median(), "ms");
  report->Metric("server.overhead_ms_p50", overhead_ms.Median(), "ms");
  report->Metric("server.admission_rejected",
                 static_cast<double>(
                     service->server->counters().admission_rejected),
                 "count");

  // Cache and storage counts since `base`.
  const Engine::CacheCounters cache = service->engine->cache_counters();
  const double hits = static_cast<double>(cache.hits - base.cache.hits);
  const double misses = static_cast<double>(cache.misses - base.cache.misses);
  report->Metric("sql.cache_hit_ratio",
                 hits + misses == 0 ? 0.0 : hits / (hits + misses), "ratio");
  report->Metric("sql.cache_evictions",
                 static_cast<double>(cache.evictions - base.cache.evictions),
                 "count");
  report->Metric("sql.entries_patched",
                 static_cast<double>(cache.patched - base.cache.patched),
                 "count");
  report->Metric("sql.entries_repaired",
                 static_cast<double>(cache.repaired - base.cache.repaired),
                 "count");
  report->Metric(
      "sql.entries_invalidated",
      static_cast<double>(cache.invalidations - base.cache.invalidations),
      "count");
  const uint64_t bytes = EngineBytes(*service);
  const double inserted_bytes =
      static_cast<double>((inserted_before + inserted) * width);
  report->Metric("storage.write_amp",
                 inserted_bytes == 0
                     ? 0.0
                     : static_cast<double>(bytes - base.bytes) / inserted_bytes,
                 "ratio");
  report->Metric("storage.space_amp",
                 static_cast<double>(bytes) /
                     static_cast<double>(service->table()->row_count() * width),
                 "ratio");
  return op_ms.Mean();
}

}  // namespace

void ProbeServiceLayersOnSlice(const Table& table, int dims, uint64_t rows,
                               uint64_t seed, Tracer* tracer,
                               Report* report) {
  Env* env = table.env();
  const std::string dir = "slice";
  Status status;
  std::optional<Table> clustered;
  {
    TableBuilder builder(env, dir + "/source", table.schema());
    std::unique_ptr<HeapFileReader> reader = table.NewReader(nullptr);
    status = builder.Open();
    if (status.ok()) status = reader->Open();
    for (uint64_t i = 0; status.ok() && i < rows; ++i) {
      const char* row = reader->Next();
      status = row != nullptr ? builder.AppendRaw(row) : reader->status();
    }
    if (status.ok()) {
      Result<Table> source = builder.Finish();
      status = source.status();
      if (status.ok()) {
        Result<Table> result =
            ClusterTableZOrder(source.value(), dir + "/" + kTable + ".v1");
        status = result.status();
        if (status.ok()) clustered.emplace(std::move(result).value());
      }
    }
    (void)env->DeleteFile(dir + "/source");
  }
  Service service;
  if (status.ok()) {
    status =
        StartService(env, dir, std::move(*clustered), dims, seed, &service);
  }
  if (!status.ok()) {
    report->Failure("slice service: " + status.ToString());
    return;
  }
  ProbeServiceLayers(&service, kSliceProbeOps, TakeBase(service), 0, seed,
                     tracer, report);
}

Report RunService(const Args& args, Tracer* tracer) {
  Report report;
  Env* env = Env::Posix();
  namespace fs = std::filesystem;
  const std::string dir = args.workdir + "/service";

  GeneratorOptions generator;
  generator.num_rows = kServiceRows;
  generator.num_attributes = kServiceDims;
  generator.payload_bytes = 60;
  generator.distribution = Distribution::kCorrelated;
  generator.seed = args.seed;

  // Set up several times; the last one stays up for the measurement.
  Samples setup_s;
  std::unique_ptr<Service> service;
  for (int i = 0; i < kSetups; ++i) {
    service.reset();
    TableZoneCache::Instance().Clear();
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    service = std::make_unique<Service>();
    const double start = NowSeconds();
    Status status;
    Result<Table> generated = GenerateTable(env, dir + "/generated", generator);
    status = generated.status();
    if (status.ok()) {
      Result<Table> clustered =
          ClusterTableZOrder(generated.value(), dir + "/" + kTable + ".v1");
      status = clustered.status();
      (void)env->DeleteFile(dir + "/generated");
      if (status.ok()) {
        status = StartService(env, dir, std::move(clustered).value(),
                              kServiceDims, args.seed, service.get());
      }
    }
    setup_s.Add(NowSeconds() - start);
    if (!status.ok()) {
      report.Failure("setup: " + status.ToString());
      return report;
    }
  }

  const ProbeBase base = TakeBase(*service);
  std::vector<Mix> mixes;
  for (size_t c = 0; c < kClients; ++c) {
    mixes.emplace_back(&service->mix, args.seed, c);
  }
  Tracer untraced(false);
  const Phase phase = RunPhase(service.get(), &mixes, args.seconds, &untraced);
  CountPhase(phase, &report);
  const size_t checked = CheckResponses(*service, phase.tally, &report);
  const Tally& t = phase.tally;
  const double ops_per_s = static_cast<double>(t.ops) / phase.elapsed;
  const double rows = static_cast<double>(service->table()->row_count());

  report.Detail("reads", static_cast<double>(t.read_ms.size()), "count");
  report.Detail("cold_reads", static_cast<double>(t.miss_ms.size()), "count");
  report.Detail("writes", static_cast<double>(t.write_ms.size()), "count");
  report.Detail("checked_responses", static_cast<double>(checked), "count");
  report.Detail("hit_ms_p50", t.hit_ms.Median(), "ms");
  report.Detail("topn_ms_p50", t.topn_ms.Median(), "ms");
  report.Detail("write_ms_p50", t.write_ms.Median(), "ms");
  report.TailMetric("write_ms_p90", t.write_ms.TailQuantile(0.90), "ms",
                    /*detail=*/true);
  if (!tracer->enabled()) {
    report.Metric("setup_s", setup_s.Median(), "s");
    report.Metric("query_s_p50", t.miss_ms.Median() / 1000, "s");
    report.Metric("rows_per_s", rows / (t.miss_ms.Median() / 1000), "rows/s");
    report.Metric("read_ms_p50", t.read_ms.Median(), "ms");
    report.TailMetric("read_ms_p99", t.read_ms.TailQuantile(0.99), "ms",
                      /*detail=*/false);
    report.Metric("ops_per_s", ops_per_s, "1/s");
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    // Traced: the same traffic with a span per request, then the layer
    // probes on the live service.
    const Phase traced = RunPhase(service.get(), &mixes, args.seconds, tracer);
    CountPhase(traced, &report);
    CheckResponses(*service, traced.tally, &report);
    const double session_op_ms = ProbeServiceLayers(
        service.get(), kServiceProbeOps, base,
        t.inserted + traced.tally.inserted, args.seed, tracer, &report);

    // sort and core on the current version, checked against sequential SFS.
    const std::shared_ptr<const Table> current = service->table();
    LayerTimes layers;
    Result<std::vector<char>> expected =
        ExpectedRows(*service, Op{}, *current);
    for (int rep = 0; rep < 3; ++rep) {
      ++report.attempted;
      const std::string out = dir + "/layered";
      Result<Table> result = LayeredSfs(*current, *service->spec,
                                        kLayeredThreads, out, tracer, &layers);
      Result<uint64_t> digest =
          result.ok() ? TableDigest(*service->spec, result.value())
                      : Result<uint64_t>(result.status());
      if (!expected.ok() || !digest.ok() ||
          digest.value() != CanonicalDigest(*service->spec, expected.value())) {
        report.Failure("layered SFS output differs from sequential SFS");
      }
      (void)env->DeleteFile(out);
    }
    ReportSortAndCore(layers, &report);
    const double socket_op_ms =
        (t.read_ms.Sum() + t.write_ms.Sum()) /
        static_cast<double>(t.read_ms.size() + t.write_ms.size());
    report.Metric("trace.coverage", session_op_ms / socket_op_ms, "ratio");
    report.Metric("trace.overhead_frac",
                  ops_per_s * traced.elapsed /
                          static_cast<double>(traced.tally.ops) -
                      1,
                  "ratio");
  }
  service.reset();
  std::error_code ec;
  fs::remove_all(dir, ec);
  return report;
}

}  // namespace perfbench
