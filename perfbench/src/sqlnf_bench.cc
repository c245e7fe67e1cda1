// sqlnf-bench: the end-to-end benchmark of the sqlnf HTTP service.
//
// One process runs an in-process HttpServer + SqlnfService on loopback
// and drives one closed-loop workload through the public HTTP API:
//
//   point_rw   100k keyed rows ingested under Σ = {c<k>, a ->w b};
//              90% point SELECT, 6% UPDATE, 2% INSERT, 2% DELETE over
//              2 keep-alive connections and 2 server workers.
//   scan_join  contractor_x1000 (173k x 23, no Σ) plus its four
//              Algorithm-3 components; range / IN / OR scans and, every
//              10th request, the 4-way NATURAL JOIN over the
//              components. 2 connections, 2 workers.
//   design     /validate, /discover and /normalize on the contractor
//              tables; 1 connection, 1 worker.
//
// Every response is checked (see the Check* functions); a wrong,
// failed or refused response counts into `failed`. The last stdout
// line is one JSON object {correct, attempted, failed, metrics}.
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same
// load twice, untraced and then traced, and reports per-layer
// metrics: the traced phase times SqlnfService::Handle inside the
// handler and, for every k-th request, replays the operation
// in-process through the public functions of each layer, recording one
// span per call and checking that the replay reproduces the HTTP
// response. Nothing in src/ is instrumented.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_stats.h"
#include "sqlnf/constraints/parser.h"
#include "sqlnf/core/code_hash_index.h"
#include "sqlnf/core/simd_kernels.h"
#include "sqlnf/decomposition/encoded_ops.h"
#include "sqlnf/decomposition/vrnf_decompose.h"
#include "sqlnf/datagen/lmrp.h"
#include "sqlnf/discovery/agree_sets.h"
#include "sqlnf/discovery/discover.h"
#include "sqlnf/discovery/hitting_set.h"
#include "sqlnf/engine/catalog.h"
#include "sqlnf/engine/predicate.h"
#include "sqlnf/engine/relops.h"
#include "sqlnf/engine/result.h"
#include "sqlnf/engine/session.h"
#include "sqlnf/engine/sql.h"
#include "sqlnf/engine/validate.h"
#include "sqlnf/engine/writer_role.h"
#include "sqlnf/net/client.h"
#include "sqlnf/net/server.h"
#include "sqlnf/net/service.h"
#include "sqlnf/util/json.h"

#ifndef SQLNF_BENCH_BUILD_TYPE
#define SQLNF_BENCH_BUILD_TYPE "unknown"
#endif

namespace sqlnf_bench {
namespace {

using sqlnf::Database;
using sqlnf::HttpClientResponse;
using sqlnf::HttpConnection;
using sqlnf::JsonValue;
using sqlnf::Result;
using sqlnf::Status;
using sqlnf::Table;
using sqlnf::TableSchema;
using sqlnf::Tuple;
using sqlnf::Value;

// ------------------------------------------------------------ workload

constexpr int kPointRows = 100000;   // point_rw table size
constexpr int kPointGroups = 1000;   // distinct values of `a`
constexpr int kScale = 1000;         // contractor_x1000 = 173 x 1000
constexpr int kSetupRepeats = 3;     // set-ups per --trace 0 run
constexpr const char* kPointTable = "kv";
constexpr const char* kBigTable = "contractor_x1000";
constexpr const char* kLambdaFds =
    "new,city,url ->w new,city,url,dmerc_rgn,status; "
    "new,cmd_name,phone,url ->w "
    "new,cmd_name,phone,url,contractor_version,status_flag; "
    "new,address1,contractor_bus_name,contractor_type_id ->w "
    "new,address1,contractor_bus_name,contractor_type_id,url";
constexpr const char* kBigKey = "c<new,contractor_id>";

struct WorkloadShape {
  const char* name;
  int connections;
  int workers;
  int replay_every;  // traced phase: replay every k-th request of a kind
  const char* main_class;
  double main_tail;  // tail percentile printed for the main class
  const char* side_class;
  double side_tail;  // tail percentile printed for the side class
};

// Tail percentiles are the highest that keep about ten samples beyond
// them in a 10-second run. The scan tail is p90: a scan's p99 is set by
// how the scheduler interleaves it with the other connection's join.
constexpr WorkloadShape kShapes[] = {
    {"point_rw", 2, 2, 10, "read", 0.99, "write", 0.90},
    {"scan_join", 2, 2, 10, "scan", 0.90, "join", 0.90},
    {"design", 1, 1, 3, "validate", 0.90, "design_other", 0.90},
};

struct Args {
  const WorkloadShape* shape = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "sqlnf-bench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T OrDie(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(*r);
}

void OkOrDie(const Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Micros(int64_t ns) { return static_cast<double>(ns) / 1e3; }

// ----------------------------------------------------------- per-layer

/// Per-layer observations of one client thread in the traced phase:
/// its spans plus count samples (medians are reported).
struct Trace {
  SpanLog spans;
  std::map<std::string, std::vector<double>> counts;
  std::map<std::string, int64_t> seen;  // requests per kind
  int64_t replays = 0;

  void Count(const std::string& name, double v) { counts[name].push_back(v); }

  /// True for every `every`-th request of `kind`, the first included.
  bool Sample(const std::string& kind, int every) {
    return seen[kind]++ % every == 0;
  }

  /// Times `fn` as a span named `name` under `parent`.
  template <typename Fn>
  auto Time(const char* name, int parent, int64_t request, Fn&& fn) {
    const int id = spans.Begin(name, parent, request);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      spans.End(id);
    } else {
      auto out = fn();
      spans.End(id);
      return out;
    }
  }
};

// ------------------------------------------------------------- fixture

/// One set-up: database, session registry, service and server. The
/// handler optionally times SqlnfService::Handle and leaves the span in
/// the slot of the connection named by the X-Bench-Conn header, which
/// the client reads after the response arrives.
class Fixture {
 public:
  static constexpr int kMaxConnections = 2;

  Database db;
  sqlnf::SessionRegistry registry{&db};
  sqlnf::SqlnfService service{&registry};
  std::atomic<bool> time_handle{false};
  std::atomic<int64_t> handle_start[kMaxConnections];
  std::atomic<int64_t> handle_end[kMaxConnections];

  Fixture() {
    for (int i = 0; i < kMaxConnections; ++i) {
      handle_start[i] = 0;
      handle_end[i] = 0;
    }
  }

  void Start(int workers) {
    sqlnf::HttpServerOptions options;
    options.workers = workers;
    server_ = std::make_unique<sqlnf::HttpServer>(
        [this](const sqlnf::HttpRequest& r) { return Handle(r); }, options);
    OkOrDie(server_->Start(), "HttpServer::Start");
  }
  int port() const { return server_->port(); }
  void Stop() {
    if (server_) server_->Stop();
  }

 private:
  sqlnf::HttpResponse Handle(const sqlnf::HttpRequest& r) {
    if (!time_handle.load(std::memory_order_relaxed)) {
      return service.Handle(r);
    }
    const int64_t b = NowNs();
    sqlnf::HttpResponse out = service.Handle(r);
    const int64_t e = NowNs();
    auto it = r.headers.find("x-bench-conn");
    if (it != r.headers.end()) {
      const int c = std::atoi(it->second.c_str());
      if (c >= 0 && c < kMaxConnections) {
        handle_start[c].store(b);
        handle_end[c].store(e);
      }
    }
    return out;
  }

  std::unique_ptr<sqlnf::HttpServer> server_;
};

// ------------------------------------------------------------ datasets

/// point_rw rows: k unique, a in [0, kPointGroups), b = "b<a>" (so the
/// c-FD a ->w b holds), payload = KeyModel::Payload(k, 0).
Tuple PointRow(int64_t k, int a) {
  return Tuple({Value::Int(k), Value::Int(a),
                Value::Str("b" + std::to_string(a)),
                Value::Str(KeyModel::Payload(k, 0))});
}

Table PointTable(uint64_t seed) {
  TableSchema schema = OrDie(
      TableSchema::Make(kPointTable, {"k", "a", "b", "payload"}, {"k"}),
      "point schema");
  Table t(std::move(schema));
  t.ReserveRows(kPointRows);
  std::mt19937_64 rng(seed);
  for (int64_t k = 0; k < kPointRows; ++k) {
    OkOrDie(t.AddRow(PointRow(k, static_cast<int>(rng() % kPointGroups))),
            "point row");
  }
  return t;
}

sqlnf::ConstraintSet PointSigma(const TableSchema& schema) {
  return OrDie(sqlnf::ParseConstraintSet(schema, "c<k>; a ->w b"),
               "point sigma");
}

/// The tables a workload serves, generated from the seed.
struct Dataset {
  std::vector<std::pair<Table, sqlnf::ConstraintSet>> tables;
  int64_t generate_ns = 0;
};

Dataset Generate(const WorkloadShape& shape, uint64_t seed) {
  Dataset ds;
  const int64_t t0 = NowNs();
  if (std::string(shape.name) == "point_rw") {
    Table t = PointTable(seed);
    sqlnf::ConstraintSet sigma = PointSigma(t.schema());
    ds.tables.emplace_back(std::move(t), std::move(sigma));
  } else {
    Table contractor = OrDie(sqlnf::Contractor(), "Contractor");
    Table big = OrDie(sqlnf::CrossWithSequence(contractor, kScale, "new"),
                      "CrossWithSequence");
    if (std::string(shape.name) == "scan_join") {
      sqlnf::ConstraintSet lambda =
          OrDie(sqlnf::ParseConstraintSet(big.schema(), kLambdaFds), "λ-FDs");
      sqlnf::VrnfResult vrnf = OrDie(
          sqlnf::VrnfDecompose(sqlnf::SchemaDesign{big.schema(), lambda}),
          "VrnfDecompose");
      std::vector<sqlnf::EncodedRelation> parts =
          OrDie(sqlnf::ProjectAllEncoded(big.schema(), sqlnf::EncodedTable(big),
                                         vrnf.decomposition),
                "ProjectAllEncoded");
      // Algorithm 3 over the three λ-FDs splits contractor_x1000 into
      // four components (38k x 5, 67k x 6, 173k x 18 multiset, 73k x 5).
      if (parts.size() != 4) Die("expected four VRNF components");
      for (sqlnf::EncodedRelation& p : parts) {
        ds.tables.emplace_back(p.ToTable(), sqlnf::ConstraintSet());
      }
    } else {
      ds.tables.emplace_back(std::move(contractor), sqlnf::ConstraintSet());
      ds.tables.emplace_back(
          OrDie(sqlnf::ContactDraftLookup(), "ContactDraftLookup"),
          sqlnf::ConstraintSet());
    }
    ds.tables.emplace_back(std::move(big), sqlnf::ConstraintSet());
  }
  ds.generate_ns = NowNs() - t0;
  return ds;
}

/// One timed set-up: generate, ingest, start the server, and wait for
/// the first accepted request (/health).
struct SetUp {
  std::unique_ptr<Fixture> fixture;
  Dataset data;
  int64_t total_ns = 0;
  int64_t ingest_ns = 0;
};

SetUp DoSetUp(const WorkloadShape& shape, uint64_t seed) {
  SetUp s;
  const int64_t t0 = NowNs();
  s.data = Generate(shape, seed);
  s.fixture = std::make_unique<Fixture>();
  const int64_t t1 = NowNs();
  {
    sqlnf::WriterScope writer;  // no server yet: this thread is the writer
    for (const auto& [table, sigma] : s.data.tables) {
      OkOrDie(s.fixture->db.IngestTable(table, sigma), "IngestTable");
    }
  }
  s.ingest_ns = NowNs() - t1;
  s.fixture->Start(shape.workers);
  HttpConnection conn =
      OrDie(HttpConnection::Open(s.fixture->port()), "connect");
  HttpClientResponse health = OrDie(conn.Get("/health"), "/health");
  if (health.status != 200) Die("/health failed: " + health.body);
  s.total_ns = NowNs() - t0;
  return s;
}

// ---------------------------------------------------------- the client

/// Latencies and outcomes of one client thread in one phase.
struct PhaseStats {
  std::map<std::string, std::vector<double>> latency_ms;  // by op kind
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // the first few, for the log

  void Fail(const std::string& why) {
    ++failed;
    if (errors.size() < 5) errors.push_back(why);
  }
};

enum Phase : int { kWarm = 0, kMeasure = 1, kTraced = 2, kDone = 3 };

/// State every client thread of a run shares.
struct Shared {
  const Args* args = nullptr;
  Fixture* fixture = nullptr;
  std::atomic<int> phase{kWarm};
};

/// A keep-alive connection whose requests carry the connection id, so
/// the handler can file its Handle span for this client.
class Client {
 public:
  Client(Shared* shared, int id)
      : shared_(shared),
        id_(id),
        conn_(OrDie(HttpConnection::Open(shared->fixture->port()),
                    "connect")) {}

  /// One timed round trip; with `trace`, records the client span and
  /// the server's Handle span as its child.
  Result<HttpClientResponse> Call(const std::string& path,
                                  const std::string& body, double* ms,
                                  Trace* trace, int64_t request) {
    const std::string raw = "POST " + path +
                            " HTTP/1.1\r\nHost: localhost\r\n"
                            "Content-Type: application/json\r\n"
                            "X-Bench-Conn: " +
                            std::to_string(id_) +
                            "\r\nContent-Length: " +
                            std::to_string(body.size()) + "\r\n\r\n" + body;
    const int64_t b = NowNs();
    Result<HttpClientResponse> r = conn_.RoundTrip(raw);
    const int64_t e = NowNs();
    *ms = static_cast<double>(e - b) / 1e6;
    if (trace != nullptr) {
      const int span = trace->spans.Add(Span{"net.request", b, e, -1, request});
      trace->spans.Add(Span{"service.handle",
                            shared_->fixture->handle_start[id_].load(),
                            shared_->fixture->handle_end[id_].load(), span,
                            request});
    }
    return r;
  }

 private:
  Shared* shared_;
  int id_;
  HttpConnection conn_;
};

/// Parses a /query response and returns statements[0], checking ok.
Result<JsonValue> FirstStatement(const HttpClientResponse& r) {
  if (r.status != 200) {
    return Status::Internal("HTTP " + std::to_string(r.status) + ": " +
                            r.body.substr(0, 200));
  }
  JsonValue body;
  {
    Result<JsonValue> parsed = sqlnf::ParseJson(r.body);
    if (!parsed.ok()) return parsed.status();
    body = std::move(*parsed);
  }
  const JsonValue* ok = body.Find("ok");
  const JsonValue* st = body.Find("statements");
  if (ok == nullptr || !ok->is_bool() || !ok->bool_value() ||
      st == nullptr || !st->is_array() || st->items().size() != 1) {
    return Status::Internal("not a one-statement success: " +
                            r.body.substr(0, 200));
  }
  return st->items()[0];
}

std::string QueryBody(const std::string& sql) {
  return "{\"sql\":" + sqlnf::JsonQuote(sql) + "}";
}

/// Renders `table` the way the /query endpoint does (one SELECT).
std::string RenderSelect(Table table) {
  sqlnf::QueryResult q;
  q.affected = table.num_rows();
  q.message = std::to_string(table.num_rows()) + " row(s)";
  q.rows = std::move(table);
  return sqlnf::RenderJson(sqlnf::ResultSet::Of({std::move(q)}));
}

/// Replays a read-only SELECT in-process, one span per layer call,
/// against a fresh snapshot set, and returns the rendered response.
/// `table` and `pred` describe the statement (single table, no join);
/// `projection` names the selected columns (empty for SELECT *).
std::string ReplaySelect(Database* db, Trace* t, int root, int64_t request,
                         const std::string& http_body, const std::string& sql,
                         const std::string& table, const sqlnf::Predicate& pred,
                         const std::vector<std::string>& projection) {
  t->Time("json.parse", root, request,
          [&] { return sqlnf::ParseJson(http_body).ok(); });
  const std::map<std::string, sqlnf::TableSnapshot> snaps =
      t->Time("catalog.snapshot_all", root, request,
              [&] { return db->SnapshotAll(); });
  const sqlnf::TableSnapshot& snap = snaps.at(table);
  t->Time("sql.execute_read_only", root, request, [&] {
    return sqlnf::ExecuteReadOnly(snaps, sql).ok();
  });
  const sqlnf::EncodedTable& enc = *snap.columns;
  t->Time("predicate.compile", root, request,
          [&] { return sqlnf::CompiledPredicate(enc, pred).never_matches(); });
  const std::vector<int> sel = t->Time("relops.select", root, request, [&] {
    return sqlnf::SelectRowsEncoded(enc, pred);
  });
  t->Count("relops.rows_scanned", enc.num_rows());
  t->Count("relops.rows_matched", static_cast<double>(sel.size()));
  t->Count("relops.match_ratio",
           static_cast<double>(sel.size()) / std::max(1, enc.num_rows()));
  std::vector<sqlnf::AttributeId> ids;
  std::vector<std::string> names;
  if (projection.empty()) {
    for (int a = 0; a < snap.schema.num_attributes(); ++a) ids.push_back(a);
  } else {
    for (const std::string& c : projection) {
      ids.push_back(OrDie(snap.schema.FindAttribute(c), "column"));
      names.push_back(c);
    }
  }
  Table out = t->Time("encoded_table.decode", root, request, [&] {
    Table decoded(projection.empty()
                      ? snap.schema
                      : OrDie(TableSchema::Make("result", names), "schema"));
    decoded.ReserveRows(static_cast<int>(sel.size()));
    for (int i : sel) {
      std::vector<Value> row;
      row.reserve(ids.size());
      for (sqlnf::AttributeId id : ids) {
        row.push_back(enc.DecodeCode(id, enc.code(id, i)));
      }
      OkOrDie(decoded.AddRow(Tuple(std::move(row))), "decode row");
    }
    return decoded;
  });
  return t->Time("result.render_json", root, request,
                 [&] { return RenderSelect(std::move(out)); });
}

// ------------------------------------------------------------ point_rw

/// One block of point_rw requests: 90% reads, 6% updates, 2% inserts
/// and 2% deletes, shuffled per block. An exact mix keeps the share of
/// slow writes, which sets throughput, the same in every run.
constexpr std::string_view kMixBlock =
    "rrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrruuuid";

/// Payload versions of the keys below kPointRows, published by the
/// owning connection after each committed UPDATE, so the other
/// connection can check a read of a key it does not own.
struct PublishedVersions {
  std::vector<std::atomic<int>> v;
  PublishedVersions() : v(kPointRows) {
    for (auto& x : v) x.store(0);
  }
};

struct PointClientState {
  KeyModel model;               // this connection's residue class
  std::deque<int64_t> inserted; // fresh keys inserted, oldest first
  int64_t next_fresh = 0;
};

bool ParseVersion(const std::string& payload, int64_t key, int* version) {
  const std::string prefix = "p" + std::to_string(key) + "v";
  if (payload.rfind(prefix, 0) != 0) return false;
  char* end = nullptr;
  const long v = std::strtol(payload.c_str() + prefix.size(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *version = static_cast<int>(v);
  return true;
}

/// Checks a point SELECT: one row, the key, a payload version within
/// [lo, hi] (lo == hi for a key this connection owns).
std::optional<std::string> CheckPointRead(const HttpClientResponse& r,
                                          int64_t key, int lo, int hi) {
  Result<JsonValue> st = FirstStatement(r);
  if (!st.ok()) return st.status().ToString();
  const JsonValue* rows = st->Find("rows");
  const JsonValue* data = rows == nullptr ? nullptr : rows->Find("data");
  if (data == nullptr || data->items().size() != 1) {
    return "point read of " + std::to_string(key) + " did not return 1 row";
  }
  const std::vector<JsonValue>& row = data->items()[0].items();
  int version = -1;
  if (row.size() != 4 || !row[0].is_int() || row[0].int_value() != key ||
      !row[3].is_string() || !ParseVersion(row[3].str_value(), key, &version) ||
      version < lo || version > hi) {
    return "point read of " + std::to_string(key) + " returned wrong row";
  }
  return std::nullopt;
}

std::optional<std::string> CheckAffected(const HttpClientResponse& r,
                                         int expected) {
  Result<JsonValue> st = FirstStatement(r);
  if (!st.ok()) return st.status().ToString();
  if (st->GetInt("affected", -1) != expected) {
    return "expected " + std::to_string(expected) + " affected: " +
           r.body.substr(0, 200);
  }
  return std::nullopt;
}

/// In-process write-path layers for one traced write: the catalog call
/// that re-does the HTTP statement's effect, the enforcer check an
/// INSERT runs, the whole-table Σ check an UPDATE runs, and the
/// copy-on-write detach of one column of a shared snapshot.
void ReplayPointWrite(Fixture* f, Trace* t, int root, int64_t request,
                      const std::string& kind, int64_t key, int a,
                      PointClientState* st, int* affected,
                      int64_t probe_key) {
  Database& db = f->db;
  const TableSchema schema =
      OrDie(db.GetSnapshot(kPointTable), "snapshot").schema;
  const sqlnf::Predicate where =
      sqlnf::Predicate::And({sqlnf::Cmp(0, sqlnf::CompareOp::kEq,
                                        Value::Int(key))});
  sqlnf::MutexLock lock(f->registry.writer_mu());
  sqlnf::WriterScope writer;
  if (kind == "update") {
    st->model.Update(key);
    const Value payload =
        Value::Str(KeyModel::Payload(key, st->model.Version(key)));
    *affected = t->Time("catalog.update", root, request, [&] {
      return OrDie(db.Update(kPointTable, where, 3, payload), "Update");
    });
  } else if (kind == "insert") {
    // Undo the HTTP insert, then redo it in-process.
    OrDie(db.Delete(kPointTable, where), "Delete");
    const Status s = t->Time("catalog.insert", root, request, [&] {
      return db.Insert(kPointTable, PointRow(key, a));
    });
    *affected = s.ok() ? 1 : 0;
  } else {
    OkOrDie(db.Insert(kPointTable, PointRow(key, a)), "Insert");
    *affected = t->Time("catalog.delete", root, request, [&] {
      return OrDie(db.Delete(kPointTable, where), "Delete");
    });
  }
  const sqlnf::StoredTable* stored = OrDie(db.Find(kPointTable), "Find");
  const std::optional<sqlnf::Violation> v =
      t->Time("enforcer.check", root, request, [&] {
        return stored->enforcer().Check(PointRow(probe_key, 0));
      });
  if (v) *affected = -1;  // a fresh key must be accepted
  t->Time("validate.find_violation", root, request, [&] {
    for (const auto& fd : stored->sigma().fds()) {
      if (sqlnf::FindFdViolationEncoded(stored->columns(), fd)) return true;
    }
    for (const auto& k : stored->sigma().keys()) {
      if (sqlnf::FindKeyViolationEncoded(stored->columns(), k)) return true;
    }
    return false;
  });
  double entries = 0;
  for (int d : stored->columns().DictionarySizes()) entries += d;
  t->Count("encoded_table.dictionary_entries", entries);
  // Copy-on-write detach: the first write to a column shared with a
  // snapshot clones it; a second write to the same row does not.
  sqlnf::EncodedTable shared(stored->columns());
  const int row = static_cast<int>(key % std::max(1, shared.num_rows()));
  const int64_t d0 = NowNs();
  shared.UpdateCell(row, 3, Value::Str("detach-probe-1"));
  const int64_t d1 = NowNs();
  shared.UpdateCell(row, 3, Value::Str("detach-probe-2"));
  const int64_t d2 = NowNs();
  t->Count("catalog.cow_detach_us",
           std::max<double>(0, Micros((d1 - d0) - (d2 - d1))));
}

void PointClient(Shared* sh, int id, PointClientState* st,
                 PublishedVersions* published, PhaseStats* stats,
                 Trace* trace) {
  Client client(sh, id);
  const WorkloadShape& shape = *sh->args->shape;
  std::mt19937_64 rng(sh->args->seed * 1000003u + static_cast<uint64_t>(id));
  const int64_t stride = shape.connections;
  std::string block;
  int64_t request = 0;
  for (;;) {
    const int phase = sh->phase.load();
    if (phase == kDone) break;
    PhaseStats& ps = stats[phase];
    ++request;
    if (block.empty()) {  // the mix, exact per block, in seeded order
      block.assign(kMixBlock.begin(), kMixBlock.end());
      std::shuffle(block.begin(), block.end(), rng);
    }
    const char op = block.back();
    block.pop_back();
    std::string kind;
    int64_t key = 0;
    int a = 0;
    std::string sql;
    if (op == 'r') {
      kind = "read";
      key = static_cast<int64_t>(rng() % kPointRows);
      sql = "SELECT * FROM kv WHERE k = " + std::to_string(key) + ";";
    } else if (op == 'u') {
      kind = "update";
      key = static_cast<int64_t>(rng() % (kPointRows / stride)) * stride + id;
      sql = "UPDATE kv SET payload = '" +
            KeyModel::Payload(key, st->model.Version(key) + 1) +
            "' WHERE k = " + std::to_string(key) + ";";
    } else if (op == 'i' || st->inserted.empty()) {
      kind = "insert";
      key = st->next_fresh;
      a = static_cast<int>(rng() % kPointGroups);
      sql = "INSERT INTO kv VALUES (" + std::to_string(key) + ", " +
            std::to_string(a) + ", 'b" + std::to_string(a) + "', '" +
            KeyModel::Payload(key, 0) + "');";
    } else {
      kind = "delete";
      key = st->inserted.front();
      sql = "DELETE FROM kv WHERE k = " + std::to_string(key) + ";";
    }
    const bool own = key % stride == id;
    // Reads of another connection's keys are not replayed: that
    // connection may update the key in between.
    Trace* tr = phase == kTraced && (kind != "read" || own) &&
                        trace->Sample(kind, shape.replay_every)
                    ? trace
                    : nullptr;
    const int lo = kind == "read" && !own
                       ? published->v[key].load()
                       : 0;
    double ms = 0;
    Result<HttpClientResponse> r =
        client.Call("/query", QueryBody(sql), &ms, tr, request);
    ++ps.attempted;
    if (!r.ok()) {
      ps.Fail(r.status().ToString());
      continue;
    }
    std::optional<std::string> bad;
    if (kind == "read") {
      const int want = own ? st->model.Version(key) : -1;
      const int hi = own ? want : published->v[key].load() + 1;
      bad = CheckPointRead(*r, key, own ? want : lo, hi);
    } else {
      bad = CheckAffected(*r, 1);
      if (!bad) {
        if (kind == "update") {
          st->model.Update(key);
          published->v[key].store(st->model.Version(key));
        } else if (kind == "insert") {
          st->model.Insert(key);
          st->inserted.push_back(key);
          st->next_fresh += stride;
        } else {
          st->model.Erase(key);
          st->inserted.pop_front();
        }
      }
    }
    if (bad) {
      ps.Fail(kind + ": " + *bad);
      continue;
    }
    ps.latency_ms[kind].push_back(ms);
    if (tr != nullptr) {
      tr->Count("net.response_bytes", static_cast<double>(r->body.size()));
      const int root = tr->spans.Begin("replay", -1, request);
      if (kind == "read" && own) {
        const std::string body = ReplaySelect(
            &sh->fixture->db, tr, root, request, QueryBody(sql), sql,
            kPointTable,
            sqlnf::Predicate::And({sqlnf::Cmp(0, sqlnf::CompareOp::kEq,
                                              Value::Int(key))}),
            {});
        if (body != r->body) ps.Fail("read replay differs from HTTP response");
      } else if (kind != "read") {
        int affected = 0;
        ReplayPointWrite(sh->fixture, tr, root, request, kind, key, a, st,
                         &affected, st->next_fresh);
        if (affected != 1) {
          ps.Fail(kind + " replay affected " + std::to_string(affected) +
                  ", HTTP 1");
        }
        if (kind == "update") {
          published->v[key].store(st->model.Version(key));
        }
      }
      tr->spans.End(root);
      ++tr->replays;
    }
  }
}

/// The committed snapshot against the merged key model.
std::vector<std::string> CheckPointFinal(Database* db, const KeyModel& model) {
  const sqlnf::TableSnapshot snap = OrDie(db->GetSnapshot(kPointTable), "snap");
  const sqlnf::EncodedTable& enc = *snap.columns;
  std::map<int64_t, std::string> observed;
  for (int i = 0; i < enc.num_rows(); ++i) {
    const Value& k = enc.DecodeCode(0, enc.code(0, i));
    const Value& p = enc.DecodeCode(3, enc.code(3, i));
    if (!observed.emplace(k.int_value(), p.str_value()).second) {
      return {"duplicate key " + std::to_string(k.int_value())};
    }
  }
  return model.Diff(observed);
}

// ----------------------------------------------------------- scan_join

/// JSON form of one cell, as the renderer writes it.
std::string CellJson(const Value& v) {
  if (v.is_null()) return "null";
  if (v.kind() == Value::Kind::kInt) return std::to_string(v.int_value());
  return sqlnf::JsonQuote(v.str_value());
}

/// What scan_join needs to check responses: the contractor rows and
/// the column names of contractor_x1000, where column 0 is `new`.
struct ScanModel {
  std::vector<std::string> names;                  // contractor_x1000
  std::vector<std::vector<std::string>> cells;     // [contractor row][col-1]

  explicit ScanModel(const Table& big) {
    for (int c = 0; c < big.num_columns(); ++c) {
      names.push_back(big.schema().attribute_name(c));
    }
    const int base = big.num_rows() / kScale;
    for (int r = 0; r < base; ++r) {
      std::vector<std::string> row;
      for (int c = 1; c < big.num_columns(); ++c) {
        row.push_back(CellJson(big.row(r)[c]));
      }
      cells.push_back(std::move(row));
    }
  }

  /// The `data` array the renderer writes for `news` in ascending row
  /// order, projected to `cols`: the fast exact check of a scan.
  std::string DataJson(const std::set<int64_t>& news,
                       const std::vector<int>& cols) const {
    std::string out = "[";
    bool first_row = true;
    for (int64_t v : news) {
      const std::string vs = std::to_string(v);
      for (const std::vector<std::string>& row : cells) {
        out += first_row ? "[" : ",[";
        first_row = false;
        for (size_t i = 0; i < cols.size(); ++i) {
          if (i > 0) out += ',';
          out += cols[i] == 0 ? vs : row[cols[i] - 1];
        }
        out += ']';
      }
    }
    out += ']';
    return out;
  }

  /// Canonical rows (cells joined in contractor_x1000 column order) of
  /// `new` values `news`, sorted, projected to `cols` (empty = all).
  std::vector<std::string> Expected(const std::set<int64_t>& news,
                                    const std::vector<int>& cols) const {
    std::vector<std::string> out;
    for (int64_t v : news) {
      for (const std::vector<std::string>& row : cells) {
        std::string s;
        for (int c : cols) {
          s += c == 0 ? std::to_string(v) : row[c - 1];
          s += '\x1f';
        }
        out.push_back(std::move(s));
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }
};

/// Checks a scan or join response as a multiset of rows, aligning the
/// response's columns to contractor_x1000 by name.
std::optional<std::string> CheckRowMultiset(const HttpClientResponse& r,
                                     const ScanModel& model,
                                     const std::set<int64_t>& news,
                                     const std::vector<std::string>& proj) {
  Result<JsonValue> st = FirstStatement(r);
  if (!st.ok()) return st.status().ToString();
  const JsonValue* rows = st->Find("rows");
  const JsonValue* cols = rows == nullptr ? nullptr : rows->Find("columns");
  const JsonValue* data = rows == nullptr ? nullptr : rows->Find("data");
  if (cols == nullptr || data == nullptr) return "no rows in response";
  const std::vector<std::string>& want_names =
      proj.empty() ? model.names : proj;
  if (cols->items().size() != want_names.size()) return "wrong column count";
  // position in response for each wanted column, and its model column
  std::vector<int> pos, model_col;
  for (const std::string& n : want_names) {
    int p = -1;
    for (size_t i = 0; i < cols->items().size(); ++i) {
      if (cols->items()[i].str_value() == n) p = static_cast<int>(i);
    }
    if (p < 0) return "missing column " + n;
    pos.push_back(p);
    model_col.push_back(static_cast<int>(
        std::find(model.names.begin(), model.names.end(), n) -
        model.names.begin()));
  }
  // canonical order = contractor_x1000 order of the wanted columns
  std::vector<size_t> order(pos.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t x, size_t y) { return model_col[x] < model_col[y]; });
  std::vector<int> sorted_cols;
  for (size_t i : order) sorted_cols.push_back(model_col[i]);
  std::vector<std::string> got;
  got.reserve(data->items().size());
  for (const JsonValue& row : data->items()) {
    std::string s;
    for (size_t i : order) {
      const JsonValue& cell = row.items()[pos[i]];
      if (cell.is_null()) {
        s += "null";
      } else if (cell.is_int()) {
        s += std::to_string(cell.int_value());
      } else {
        s += sqlnf::JsonQuote(cell.str_value());
      }
      s += '\x1f';
    }
    got.push_back(std::move(s));
  }
  std::sort(got.begin(), got.end());
  const std::vector<std::string> want = model.Expected(news, sorted_cols);
  if (st->GetInt("affected", -1) != static_cast<int64_t>(want.size()) ||
      got != want) {
    return "rows differ: got " + std::to_string(got.size()) + ", want " +
           std::to_string(want.size());
  }
  return std::nullopt;
}

/// Scan and join responses checked by parsing (joins always are).
std::atomic<int64_t> parsed_checks{0};

/// Checks a scan or join response. A response whose rows come in
/// ascending row order, as the scan emits them today, is compared byte
/// for byte against the expected `data` array; any other response is
/// parsed and compared as a multiset of rows.
std::optional<std::string> CheckRows(const HttpClientResponse& r,
                                     const ScanModel& model,
                                     const std::set<int64_t>& news,
                                     const std::vector<std::string>& proj) {
  if (r.status == 200 && r.body.rfind("{\"ok\":true,", 0) == 0) {
    std::vector<int> cols;
    std::string names;
    for (const std::string& n : proj.empty() ? model.names : proj) {
      cols.push_back(static_cast<int>(
          std::find(model.names.begin(), model.names.end(), n) -
          model.names.begin()));
      names += (names.empty() ? "" : ",") + sqlnf::JsonQuote(n);
    }
    const size_t rows = news.size() * model.cells.size();
    const std::string tail = "\"affected\":" + std::to_string(rows) +
                             ",\"rows\":{\"columns\":[" + names +
                             "],\"data\":" + model.DataJson(news, cols) +
                             "}}]}";
    if (r.body.size() > tail.size() &&
        r.body.compare(r.body.size() - tail.size(), tail.size(), tail) == 0) {
      return std::nullopt;
    }
  }
  parsed_checks.fetch_add(1, std::memory_order_relaxed);
  return CheckRowMultiset(r, model, news, proj);
}

/// One scan_join request, generated from the connection's rng.
struct ScanOp {
  std::string kind;  // "scan" or "join"
  std::string shape; // "window", "window_proj", "in", "or", "join"
  std::string sql;
  std::set<int64_t> news;
  std::vector<std::string> proj;  // empty = SELECT *
  sqlnf::Predicate pred;          // on contractor_x1000 (scans only)
};

std::vector<std::string> ComponentNames() {
  std::vector<std::string> out;
  for (int i = 0; i < 4; ++i) out.push_back(std::string(kBigTable) + "_" +
                                            std::to_string(i));
  return out;
}

ScanOp MakeScanOp(std::mt19937_64* rng, int64_t index) {
  ScanOp op;
  auto pick = [&](int64_t width) {
    return 1 + static_cast<int64_t>((*rng)() % (kScale - width + 1));
  };
  const sqlnf::AttributeId kNew = 0;
  if (index % 10 == 9) {
    op.kind = "join";
    op.shape = "join";
    const int64_t lo = pick(1);
    op.news = {lo};
    op.sql = "SELECT * FROM";
    const std::vector<std::string> comps = ComponentNames();
    for (size_t i = 0; i < comps.size(); ++i) {
      op.sql += (i == 0 ? " " : " NATURAL JOIN ") + comps[i];
    }
    op.sql += " WHERE new BETWEEN " + std::to_string(lo) + " AND " +
              std::to_string(lo) + ";";
    return op;
  }
  op.kind = "scan";
  const int64_t scan_index = index - index / 10;  // rotation over scans
  switch (scan_index % 4) {
    case 0: {  // 0.1% window, all columns
      op.shape = "window";
      const int64_t lo = pick(1);
      op.news = {lo};
      op.sql = "SELECT * FROM contractor_x1000 WHERE new BETWEEN " +
               std::to_string(lo) + " AND " + std::to_string(lo) + ";";
      op.pred = sqlnf::Predicate::And(
          {sqlnf::Between(kNew, Value::Int(lo), Value::Int(lo))});
      break;
    }
    case 1: {  // 1% window, two columns
      op.shape = "window_proj";
      const int64_t lo = pick(10);
      for (int64_t v = lo; v < lo + 10; ++v) op.news.insert(v);
      op.proj = {"new", "city"};
      op.sql = "SELECT new, city FROM contractor_x1000 WHERE new BETWEEN " +
               std::to_string(lo) + " AND " + std::to_string(lo + 9) + ";";
      op.pred = sqlnf::Predicate::And(
          {sqlnf::Between(kNew, Value::Int(lo), Value::Int(lo + 9))});
      break;
    }
    case 2: {  // 10-value IN, three columns
      op.shape = "in";
      while (op.news.size() < 10) op.news.insert(pick(1));
      op.proj = {"new", "contractor_id", "status"};
      std::vector<Value> list;
      std::string in;
      for (int64_t v : op.news) {
        in += (in.empty() ? "" : ", ") + std::to_string(v);
        list.push_back(Value::Int(v));
      }
      op.sql = "SELECT new, contractor_id, status FROM contractor_x1000 "
               "WHERE new IN (" + in + ");";
      op.pred = sqlnf::Predicate::And({sqlnf::In(kNew, list)});
      break;
    }
    default: {  // OR of a 2-value range and a point, all columns
      op.shape = "or";
      const int64_t lo = pick(2);
      int64_t p = pick(1);
      while (p == lo || p == lo + 1) p = pick(1);
      op.news = {lo, lo + 1, p};
      op.sql = "SELECT * FROM contractor_x1000 WHERE new BETWEEN " +
               std::to_string(lo) + " AND " + std::to_string(lo + 1) +
               " OR new = " + std::to_string(p) + ";";
      op.pred.disjuncts = {
          {sqlnf::Between(kNew, Value::Int(lo), Value::Int(lo + 1))},
          {sqlnf::Cmp(kNew, sqlnf::CompareOp::kEq, Value::Int(p))}};
      break;
    }
  }
  return op;
}

/// In-process replay of the 4-way join: the read-only executor call,
/// then each EqualityJoinEncoded step with the CodeHashIndex build it
/// performs on the right side's common columns, then the WHERE.
std::string ReplayJoin(Database* db, Trace* t, int root, int64_t request,
                       const std::string& http_body, const ScanOp& op) {
  t->Time("json.parse", root, request,
          [&] { return sqlnf::ParseJson(http_body).ok(); });
  const std::map<std::string, sqlnf::TableSnapshot> snaps =
      t->Time("catalog.snapshot_all", root, request,
              [&] { return db->SnapshotAll(); });
  t->Time("sql.execute_read_only", root, request,
          [&] { return sqlnf::ExecuteReadOnly(snaps, op.sql).ok(); });
  const std::vector<std::string> comps = ComponentNames();
  const sqlnf::TableSnapshot& first = snaps.at(comps[0]);
  TableSchema cur_schema = first.schema;
  sqlnf::EncodedTable cur = *first.columns;
  for (size_t i = 1; i < comps.size(); ++i) {
    const sqlnf::TableSnapshot& right = snaps.at(comps[i]);
    std::vector<const std::vector<uint32_t>*> keys;
    for (int a = 0; a < right.schema.num_attributes(); ++a) {
      if (cur_schema.FindAttribute(right.schema.attribute_name(a)).ok()) {
        keys.push_back(&right.columns->column(a));
      }
    }
    t->Time("code_hash_index.build", root, request, [&] {
      return sqlnf::CodeHashIndex(keys, right.num_rows(), nullptr)
          .num_buckets();
    });
    sqlnf::EncodedRelation joined =
        t->Time("encoded_ops.join", root, request, [&] {
          return OrDie(sqlnf::EqualityJoinEncoded(
                           cur_schema, cur, right.schema, *right.columns,
                           comps[0] + "_join"),
                       "EqualityJoinEncoded");
        });
    cur_schema = std::move(joined.schema);
    cur = std::move(joined.columns);
  }
  const sqlnf::AttributeId news =
      OrDie(cur_schema.FindAttribute("new"), "new");
  const int64_t lo = *op.news.begin();
  const sqlnf::Predicate pred = sqlnf::Predicate::And(
      {sqlnf::Between(news, Value::Int(lo), Value::Int(lo))});
  const std::vector<int> sel = t->Time("relops.select", root, request, [&] {
    return sqlnf::SelectRowsEncoded(cur, pred);
  });
  t->Count("encoded_ops.rows_joined", cur.num_rows());
  t->Count("sql.join_filter_ratio",
           static_cast<double>(sel.size()) / std::max(1, cur.num_rows()));
  Table out = t->Time("encoded_table.decode", root, request, [&] {
    return cur.GatherRows(sel).Decode(cur_schema);
  });
  return t->Time("result.render_json", root, request,
                 [&] { return RenderSelect(std::move(out)); });
}

void ScanClient(Shared* sh, int id, const ScanModel* model, PhaseStats* stats,
                Trace* trace) {
  Client client(sh, id);
  const WorkloadShape& shape = *sh->args->shape;
  std::mt19937_64 rng(sh->args->seed * 1000003u + static_cast<uint64_t>(id));
  int64_t request = 0;
  for (;;) {
    const int phase = sh->phase.load();
    if (phase == kDone) break;
    PhaseStats& ps = stats[phase];
    const ScanOp op = MakeScanOp(&rng, request);
    ++request;
    Trace* tr = phase == kTraced && trace->Sample(op.shape, shape.replay_every)
                    ? trace
                    : nullptr;
    double ms = 0;
    Result<HttpClientResponse> r =
        client.Call("/query", QueryBody(op.sql), &ms, tr, request);
    ++ps.attempted;
    if (!r.ok()) {
      ps.Fail(r.status().ToString());
      continue;
    }
    if (std::optional<std::string> bad =
            CheckRows(*r, *model, op.news, op.proj)) {
      ps.Fail(op.shape + ": " + *bad);
      continue;
    }
    ps.latency_ms[op.shape].push_back(ms);
    if (tr != nullptr) {
      tr->Count("net.response_bytes", static_cast<double>(r->body.size()));
      const int root = tr->spans.Begin("replay", -1, request);
      const std::string body =
          op.kind == "join"
              ? ReplayJoin(&sh->fixture->db, tr, root, request,
                           QueryBody(op.sql), op)
              : ReplaySelect(&sh->fixture->db, tr, root, request,
                             QueryBody(op.sql), op.sql, kBigTable, op.pred,
                             op.proj);
      tr->spans.End(root);
      ++tr->replays;
      // The hash join emits rows in probe order; compare as multisets.
      if (op.kind == "join") {
        HttpClientResponse replayed = *r;
        replayed.body = body;
        if (CheckRows(replayed, *model, op.news, op.proj)) {
          ps.Fail("join replay differs from HTTP response");
        }
      } else if (body != r->body) {
        ps.Fail(op.shape + " replay differs from HTTP response");
      }
    }
  }
}

// -------------------------------------------------------------- design

struct DesignOp {
  std::string kind;         // latency key: validate_lambda, ...
  std::string path;
  std::string table;
  std::string constraints;  // /validate only
  int threads = 1;
  std::string body;
};

DesignOp MakeDesignOp(std::string kind, std::string path, std::string table,
                      std::string constraints, int threads) {
  std::string body = "{\"table\":" + sqlnf::JsonQuote(table);
  if (!constraints.empty()) {
    body += ",\"constraints\":" + sqlnf::JsonQuote(constraints);
  }
  body += ",\"threads\":" + std::to_string(threads) + "}";
  return {std::move(kind), std::move(path), std::move(table),
          std::move(constraints), threads, std::move(body)};
}

/// The λ-FD validation over 173k rows runs on 2 kernel threads. The
/// other requests run on 1: the key check is one pass, and the
/// discovery pair sweep over 173 rows is too small to split (2 threads
/// measured slower there, with twice the run-to-run spread).
std::vector<DesignOp> DesignCycle() {
  return {
      MakeDesignOp("validate_lambda", "/validate", kBigTable, kLambdaFds, 2),
      MakeDesignOp("validate_key", "/validate", kBigTable, kBigKey, 1),
      MakeDesignOp("discover_contractor", "/discover", "contractor", "", 1),
      MakeDesignOp("discover_contact", "/discover", "contact_draft_lookup", "",
                   1),
      MakeDesignOp("normalize_contractor", "/normalize", "contractor", "", 1),
  };
}

/// Expected design responses, computed once in-process. /validate is
/// checked by verdict (every planted constraint satisfied); /discover
/// and /normalize by body.
struct DesignModel {
  std::map<std::string, std::string> bodies;
};

DesignModel MakeDesignModel(Fixture* f) {
  DesignModel m;
  sqlnf::Session session(&f->registry);
  m.bodies["discover_contractor"] =
      OrDie(session.Discover("contractor"), "Discover").RenderJson();
  m.bodies["discover_contact"] =
      OrDie(session.Discover("contact_draft_lookup"), "Discover").RenderJson();
  const sqlnf::NormalizationOutcome n =
      OrDie(session.Normalize("contractor"), "Normalize");
  if (!n.normalized) Die("contractor does not normalize");
  m.bodies["normalize_contractor"] = n.RenderJson();
  return m;
}

std::optional<std::string> CheckDesign(const HttpClientResponse& r,
                                       const DesignOp& op,
                                       const DesignModel& model) {
  if (r.status != 200) return "HTTP " + std::to_string(r.status);
  if (op.path == "/validate") {
    Result<JsonValue> body = sqlnf::ParseJson(r.body);
    if (!body.ok()) return body.status().ToString();
    const int64_t want = op.constraints == kLambdaFds ? 3 : 1;
    if (body->GetInt("constraints", -1) != want ||
        body->GetInt("violated", -1) != 0 ||
        body->GetInt("rows", -1) != 173 * kScale) {
      return "validate verdict wrong: " + r.body.substr(0, 200);
    }
    return std::nullopt;
  }
  if (r.body != model.bodies.at(op.kind)) {
    return op.kind + " body differs: " + r.body.substr(0, 200);
  }
  return std::nullopt;
}

/// Replays one design request in-process: the Session call the service
/// makes, then the layer functions it runs, and the rendered body.
std::string ReplayDesign(Fixture* f, Trace* t, int root, int64_t request,
                         const DesignOp& op) {
  t->Time("json.parse", root, request,
          [&] { return sqlnf::ParseJson(op.body).ok(); });
  sqlnf::SessionOptions options;
  options.threads = op.threads;
  sqlnf::Session session(&f->registry, options);
  const std::string& table = op.table;
  const sqlnf::TableSnapshot snap =
      OrDie(f->db.GetSnapshot(table), "GetSnapshot");
  if (op.path == "/validate") {
    const sqlnf::ValidationReport report =
        t->Time("session.validate", root, request, [&] {
          return OrDie(session.Validate(table, op.constraints), "Validate");
        });
    const sqlnf::ConstraintSet sigma =
        OrDie(sqlnf::ParseConstraintSet(snap.schema, op.constraints), "parse");
    const sqlnf::ParallelOptions par{op.threads};
    for (const auto& fd : sigma.fds()) {
      t->Time("validate.constraint", root, request, [&] {
        return sqlnf::FindFdViolationEncoded(*snap.columns, fd, par)
            .has_value();
      });
    }
    for (const auto& key : sigma.keys()) {
      t->Time("validate.constraint", root, request, [&] {
        return sqlnf::FindKeyViolationEncoded(*snap.columns, key, par)
            .has_value();
      });
    }
    return report.RenderJson();
  }
  std::string body;
  if (op.path == "/discover") {
    body = t->Time("session.discover", root, request, [&] {
      return OrDie(session.Discover(table), "Discover").RenderJson();
    });
  } else {
    body = t->Time("session.normalize", root, request, [&] {
      return OrDie(session.Normalize(table), "Normalize").RenderJson();
    });
  }
  // The discovery pipeline the session runs, layer by layer.
  const Table data = snap.Materialize();
  sqlnf::DiscoveryOptions dopt;
  dopt.hitting.max_size = op.path == "/discover" ? 5 : 4;
  dopt.threads = op.threads;
  const sqlnf::DiscoveryResult mined = t->Time(
      "discovery.total", root, request,
      [&] { return OrDie(sqlnf::DiscoverConstraints(data, dopt), "mine"); });
  const sqlnf::EncodedTable enc(data);
  const std::vector<sqlnf::PairAgreement> agreements =
      t->Time("discovery.collect_agreements", root, request, [&] {
        return sqlnf::CollectAgreements(enc, dopt.max_rows,
                                        sqlnf::ParallelOptions{op.threads});
      });
  t->Count("discovery.pairs", static_cast<double>(agreements.size()));
  t->Time("discovery.hitting_sets", root, request, [&] {
    // The minimal-hitting-set searches DiscoverConstraints runs: keys
    // under both similarities, then one LHS search per RHS attribute
    // and semantics.
    const sqlnf::AttributeSet all = data.schema().all();
    size_t found = 0;
    auto search = [&](sqlnf::AttributeSet sqlnf::PairAgreement::*sim,
                      int rhs, const sqlnf::AttributeSet& universe) {
      std::vector<sqlnf::AttributeSet> sims;
      for (const sqlnf::PairAgreement& p : agreements) {
        if (rhs >= 0 && p.eq.Contains(rhs)) continue;
        sims.push_back(p.*sim);
      }
      std::vector<sqlnf::AttributeSet> complements;
      for (const sqlnf::AttributeSet& s : sqlnf::MaximalSets(std::move(sims))) {
        complements.push_back(all.Difference(s));
      }
      found += sqlnf::MinimalHittingSets(universe, complements, dopt.hitting)
                   .size();
    };
    search(&sqlnf::PairAgreement::strong, -1, all);
    search(&sqlnf::PairAgreement::weak, -1, all);
    for (int a = 0; a < data.num_columns(); ++a) {
      const sqlnf::AttributeSet rest =
          all.Difference(sqlnf::AttributeSet::Single(a));
      search(&sqlnf::PairAgreement::eq, a, rest);
      search(&sqlnf::PairAgreement::eq, a,
             rest.Intersect(mined.null_free_columns));
      search(&sqlnf::PairAgreement::strong, a, rest);
      search(&sqlnf::PairAgreement::weak, a, all);
    }
    return found;
  });
  if (op.path == "/normalize") {
    TableSchema schema = data.schema();
    (void)schema.SetNfs(mined.null_free_columns);
    const sqlnf::FdClassification cls =
        sqlnf::ClassifyDiscovered(data, mined);
    sqlnf::ConstraintSet sigma;
    for (const auto& fd : cls.lambda_fds) sigma.AddUniqueFd(fd);
    for (const auto& key : mined.c_keys) sigma.AddUniqueKey(key);
    const sqlnf::VrnfResult vrnf = t->Time("vrnf.decompose", root, request, [&] {
      return OrDie(sqlnf::VrnfDecompose(sqlnf::SchemaDesign{schema, sigma}),
                   "VrnfDecompose");
    });
    t->Count("vrnf.steps", static_cast<double>(vrnf.steps.size()));
  }
  return body;
}

void DesignClient(Shared* sh, int id, const DesignModel* model,
                  PhaseStats* stats, Trace* trace) {
  Client client(sh, id);
  const WorkloadShape& shape = *sh->args->shape;
  std::mt19937_64 rng(sh->args->seed * 1000003u + static_cast<uint64_t>(id));
  const std::vector<DesignOp> cycle = DesignCycle();
  std::vector<int> order;
  int64_t request = 0;
  for (;;) {
    const int phase = sh->phase.load();
    if (phase == kDone) break;
    PhaseStats& ps = stats[phase];
    if (order.empty()) {  // a new cycle, in seeded order
      for (int i = 0; i < static_cast<int>(cycle.size()); ++i) {
        order.push_back(i);
      }
      std::shuffle(order.begin(), order.end(), rng);
    }
    const DesignOp& op = cycle[order.back()];
    order.pop_back();
    Trace* tr = phase == kTraced && trace->Sample(op.kind, shape.replay_every)
                    ? trace
                    : nullptr;
    ++request;
    double ms = 0;
    Result<HttpClientResponse> r =
        client.Call(op.path, op.body, &ms, tr, request);
    ++ps.attempted;
    if (!r.ok()) {
      ps.Fail(r.status().ToString());
      continue;
    }
    if (std::optional<std::string> bad = CheckDesign(*r, op, *model)) {
      ps.Fail(*bad);
      continue;
    }
    ps.latency_ms[op.kind].push_back(ms);
    if (tr != nullptr) {
      tr->Count("net.response_bytes", static_cast<double>(r->body.size()));
      const int root = tr->spans.Begin("replay", -1, request);
      const std::string body = ReplayDesign(sh->fixture, tr, root, request, op);
      tr->spans.End(root);
      ++tr->replays;
      if (body != r->body) ps.Fail(op.kind + " replay differs from HTTP");
    }
  }
}

// -------------------------------------------------------------- report

/// Spin-loop parallelism probe: T threads each run the same fixed
/// work; effective cores at T = T · t(1) / t(T), each time the median
/// of three trials. Returns the best over T in {2, 4}.
double EffectiveCores() {
  auto spin = [](int threads) {
    std::atomic<uint64_t> sink{0};
    const int64_t b = NowNs();
    std::vector<std::thread> ts;
    for (int i = 0; i < threads; ++i) {
      ts.emplace_back([&sink, i] {
        uint64_t x = 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(i);
        for (int j = 0; j < 30000000; ++j) x = x * 6364136223846793005ull + 1;
        sink.fetch_add(x);
      });
    }
    for (std::thread& t : ts) t.join();
    return static_cast<double>(NowNs() - b);
  };
  auto trials = [&](int threads) {
    return Median({spin(threads), spin(threads), spin(threads)});
  };
  const double t1 = trials(1);
  double best = 1;
  for (int t : {2, 4}) best = std::max(best, t * t1 / trials(t));
  return best;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Mean over the class's request kinds of each kind's median: a class
/// mixes kinds of different cost, and a pooled median would sit on the
/// boundary between two of them.
double ClassP50(const std::map<std::string, std::vector<double>>& lat,
                const std::vector<std::string>& kinds) {
  double sum = 0;
  int n = 0;
  for (const std::string& k : kinds) {
    auto it = lat.find(k);
    if (it == lat.end() || it->second.empty()) continue;
    sum += Median(it->second);
    ++n;
  }
  return n == 0 ? 0 : sum / n;
}

std::vector<double> Pool(const std::map<std::string, std::vector<double>>& lat,
                         const std::vector<std::string>& kinds) {
  std::vector<double> out;
  for (const std::string& k : kinds) {
    auto it = lat.find(k);
    if (it != lat.end()) out.insert(out.end(), it->second.begin(),
                                    it->second.end());
  }
  return out;
}

std::pair<std::vector<std::string>, std::vector<std::string>> Classes(
    const WorkloadShape& shape) {
  const std::string w = shape.name;
  if (w == "point_rw") return {{"read"}, {"update", "insert", "delete"}};
  if (w == "scan_join") {
    return {{"window", "window_proj", "in", "or"}, {"join"}};
  }
  return {{"validate_lambda"},
          {"validate_key", "discover_contractor", "discover_contact",
           "normalize_contractor"}};
}

PhaseStats Merge(const std::vector<PhaseStats>& per_client) {
  PhaseStats out;
  for (const PhaseStats& p : per_client) {
    out.attempted += p.attempted;
    out.failed += p.failed;
    for (const std::string& e : p.errors) {
      if (out.errors.size() < 5) out.errors.push_back(e);
    }
    for (const auto& [k, xs] : p.latency_ms) {
      out.latency_ms[k].insert(out.latency_ms[k].end(), xs.begin(), xs.end());
    }
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + sqlnf::JsonQuote(metrics[i].name) +
           ": {\"value\": " + FormatNumber(metrics[i].value) +
           ", \"unit\": " + sqlnf::JsonQuote(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void PrintLine(const std::string& name, double value, const char* unit,
               const std::string& note = "") {
  std::printf("  %-34s %14s %-8s %s\n", name.c_str(),
              FormatNumber(value).c_str(), unit, note.c_str());
}

// ----------------------------------------------------------------- run

int Run(const Args& args) {
  const WorkloadShape& shape = *args.shape;
  const double cores = EffectiveCores();
  std::printf("sqlnf-bench workload=%s seed=%llu seconds=%g trace=%d\n",
              shape.name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("env: nproc=%ld effective_cores=%.3f simd=%s build=%s "
              "connections=%d workers=%d\n",
              sysconf(_SC_NPROCESSORS_ONLN), cores,
              sqlnf::simd::LevelName(sqlnf::simd::ActiveLevel()),
              SQLNF_BENCH_BUILD_TYPE, shape.connections, shape.workers);

  // Set-up: repeated for the untraced run (median reported); the last
  // one serves the load.
  std::vector<double> setup_s, ingest_s, generate_s;
  SetUp live;
  const int repeats = args.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < repeats; ++i) {
    if (live.fixture) live.fixture->Stop();
    live = SetUp();  // free the previous set-up before the next one
    live = DoSetUp(shape, args.seed);
    setup_s.push_back(Seconds(live.total_ns));
    ingest_s.push_back(Seconds(live.ingest_ns));
    generate_s.push_back(Seconds(live.data.generate_ns));
  }
  Fixture* f = live.fixture.get();

  // Workload state and response models.
  const int conns = shape.connections;
  std::vector<PointClientState> point_state(conns);
  std::unique_ptr<PublishedVersions> published;
  std::unique_ptr<ScanModel> scan_model;
  DesignModel design_model;
  const std::string w = shape.name;
  if (w == "point_rw") {
    published = std::make_unique<PublishedVersions>();
    for (int c = 0; c < conns; ++c) {
      for (int64_t k = c; k < kPointRows; k += conns) {
        point_state[c].model.Insert(k);
      }
      point_state[c].next_fresh = kPointRows + c;
    }
  } else if (w == "scan_join") {
    scan_model = std::make_unique<ScanModel>(live.data.tables.back().first);
  } else {
    design_model = MakeDesignModel(f);
  }
  live.data = Dataset();  // the server holds its own copy

  Shared shared;
  shared.args = &args;
  shared.fixture = f;
  std::vector<std::vector<PhaseStats>> stats(
      conns, std::vector<PhaseStats>(kDone));
  std::vector<Trace> traces(conns);
  std::vector<std::thread> clients;
  for (int c = 0; c < conns; ++c) {
    if (w == "point_rw") {
      clients.emplace_back(PointClient, &shared, c, &point_state[c],
                           published.get(), stats[c].data(), &traces[c]);
    } else if (w == "scan_join") {
      clients.emplace_back(ScanClient, &shared, c, scan_model.get(),
                           stats[c].data(), &traces[c]);
    } else {
      clients.emplace_back(DesignClient, &shared, c, &design_model,
                           stats[c].data(), &traces[c]);
    }
  }
  auto sleep_s = [](double s) {
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
  };
  sleep_s(std::min(1.0, args.seconds / 10));  // warm-up, not recorded
  const int64_t t0 = NowNs();
  shared.phase.store(kMeasure);
  sleep_s(args.seconds);
  const int64_t t1 = NowNs();
  int64_t t2 = t1;
  if (args.trace) {
    f->time_handle.store(true);
    shared.phase.store(kTraced);
    sleep_s(args.seconds);
    t2 = NowNs();
  }
  shared.phase.store(kDone);
  for (std::thread& t : clients) t.join();
  f->Stop();

  std::vector<PhaseStats> warm, measured, traced;
  for (int c = 0; c < conns; ++c) {
    warm.push_back(stats[c][kWarm]);
    measured.push_back(stats[c][kMeasure]);
    traced.push_back(stats[c][kTraced]);
  }
  const PhaseStats wu = Merge(warm);
  const PhaseStats m = Merge(measured);
  const PhaseStats tr = Merge(traced);
  // Warm-up responses are checked too; only their timings are dropped.
  int64_t attempted = wu.attempted + m.attempted + tr.attempted;
  int64_t failed = wu.failed + m.failed + tr.failed;
  for (const PhaseStats* p : {&wu, &m, &tr}) {
    for (const std::string& e : p->errors) std::printf("FAIL %s\n", e.c_str());
  }

  if (w == "point_rw") {  // the committed state against the key model
    KeyModel all;
    for (const PointClientState& s : point_state) all.Merge(s.model);
    const std::vector<std::string> diff = CheckPointFinal(&f->db, all);
    ++attempted;
    if (!diff.empty()) {
      ++failed;
      std::printf("FAIL final snapshot differs from the key model: %s "
                  "(%zu differences)\n",
                  diff[0].c_str(), diff.size());
    }
  }
  const bool correct = failed == 0 && m.attempted > 0;

  const auto [main_kinds, side_kinds] = Classes(shape);
  const double measure_s = Seconds(t1 - t0);
  const double ops = static_cast<double>(m.attempted - m.failed) / measure_s;
  std::printf("measured %lld requests in %.3f s (%lld failed); "
              "%lld of %lld responses checked by parsing\n",
              static_cast<long long>(m.attempted), measure_s,
              static_cast<long long>(m.failed),
              static_cast<long long>(parsed_checks.load()),
              static_cast<long long>(attempted));
  for (const auto& [kind, xs] : m.latency_ms) {
    std::printf("  %-22s n=%-7zu p50=%.4f ms p90=%.4f ms p99=%.4f ms\n",
                kind.c_str(), xs.size(), Percentile(xs, 0.5),
                Percentile(xs, 0.9), Percentile(xs, 0.99));
  }

  if (!args.trace) {
    const std::vector<Metric> metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"ops_per_s", ops, "1/s"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
        {"main_p50_ms", ClassP50(m.latency_ms, main_kinds), "ms"},
        {"side_p50_ms", ClassP50(m.latency_ms, side_kinds), "ms"},
    };
    // The same numbers under the per-class names they stand for here,
    // and the tails. Tails are printed but not part of the result: on a
    // shared host they moved by up to a third from run to run.
    const std::string mc = shape.main_class, sc = shape.side_class;
    auto tail = [&](const std::string& cls, double p,
                    const std::vector<std::string>& kinds) {
      const std::vector<double> pool = Pool(m.latency_ms, kinds);
      PrintLine(cls + "_p" + std::to_string(static_cast<int>(p * 100 + 0.5)) +
                    "_ms",
                Percentile(pool, p), "ms",
                "n=" + std::to_string(pool.size()));
    };
    std::printf("end-to-end (%s):\n", shape.name);
    PrintLine("setup_s", metrics[0].value, "s",
              "median of " + std::to_string(setup_s.size()) + " set-ups");
    PrintLine("ops_per_s", ops, "1/s");
    PrintLine("error_rate",
              attempted == 0 ? 0 : static_cast<double>(failed) / attempted,
              "fraction");
    PrintLine("peak_rss_mb", metrics[2].value, "MiB");
    PrintLine(mc + "_p50_ms", metrics[3].value, "ms", "= main_p50_ms");
    tail(mc, shape.main_tail, main_kinds);
    PrintLine(sc + "_p50_ms", metrics[4].value, "ms", "= side_p50_ms");
    tail(sc, shape.side_tail, side_kinds);
    if (w == "design") {
      PrintLine("discover_p50_ms",
                ClassP50(m.latency_ms,
                         {"discover_contractor", "discover_contact"}),
                "ms");
      PrintLine("normalize_p50_ms",
                ClassP50(m.latency_ms, {"normalize_contractor"}), "ms");
    }
    PrintResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
  }

  // Traced run: per-layer numbers from the spans and counts.
  const double traced_ops =
      static_cast<double>(tr.attempted - tr.failed) / Seconds(t2 - t1);
  std::vector<Span> spans;
  std::map<std::string, std::vector<double>> counts;
  int64_t replays = 0;
  for (const Trace& t : traces) {
    spans.insert(spans.end(), t.spans.spans().begin(), t.spans.spans().end());
    for (const auto& [k, xs] : t.counts) {
      counts[k].insert(counts[k].end(), xs.begin(), xs.end());
    }
    replays += t.replays;
  }
  // Span ids are per thread; re-base parents after concatenation.
  {
    size_t offset = 0;
    for (const Trace& t : traces) {
      const size_t n = t.spans.spans().size();
      for (size_t i = offset; i < offset + n; ++i) {
        if (spans[i].parent >= 0) spans[i].parent += static_cast<int>(offset);
      }
      offset += n;
    }
  }
  const std::map<std::string, double> self_us = MedianSelfUs(spans);
  std::vector<double> snapshot_us;  // its tail shows waits on the writer
  for (const Span& sp : spans) {
    if (sp.name == "catalog.snapshot_all") {
      snapshot_us.push_back(Micros(sp.end_ns - sp.start_ns));
    }
  }
  const double snapshot_p99_us = Percentile(snapshot_us, 0.99);
  auto span_us = [&](const std::string& name) {
    auto it = self_us.find(name);
    return it == self_us.end() ? 0.0 : it->second;
  };
  auto count = [&](const std::string& name) {
    auto it = counts.find(name);
    return it == counts.end() ? 0.0 : Median(it->second);
  };
  const std::vector<Metric> metrics = {
      {"net.self_us", span_us("net.request"), "us"},
      {"net.response_bytes", count("net.response_bytes"), "bytes"},
      {"json.parse_us", span_us("json.parse"), "us"},
      {"service.handle_us", span_us("service.handle"), "us"},
      {"session.validate_us", span_us("session.validate"), "us"},
      {"session.discover_us", span_us("session.discover"), "us"},
      {"session.normalize_us", span_us("session.normalize"), "us"},
      {"catalog.snapshot_all_us", span_us("catalog.snapshot_all"), "us"},
      {"catalog.snapshot_all_p99_us", snapshot_p99_us, "us"},
      {"catalog.update_us", span_us("catalog.update"), "us"},
      {"catalog.insert_us", span_us("catalog.insert"), "us"},
      {"catalog.delete_us", span_us("catalog.delete"), "us"},
      {"catalog.cow_detach_us", count("catalog.cow_detach_us"), "us"},
      {"catalog.ingest_s", Median(ingest_s), "s"},
      {"enforcer.check_us", span_us("enforcer.check"), "us"},
      {"validate.find_violation_us", span_us("validate.find_violation"),
       "us"},
      {"validate.constraint_us", span_us("validate.constraint"), "us"},
      {"sql.execute_read_only_us", span_us("sql.execute_read_only"), "us"},
      {"predicate.compile_us", span_us("predicate.compile"), "us"},
      {"relops.select_us", span_us("relops.select"), "us"},
      {"relops.rows_scanned", count("relops.rows_scanned"), "count"},
      {"relops.rows_matched", count("relops.rows_matched"), "count"},
      {"relops.match_ratio", count("relops.match_ratio"), "ratio"},
      {"encoded_table.decode_us", span_us("encoded_table.decode"), "us"},
      {"encoded_table.dictionary_entries",
       count("encoded_table.dictionary_entries"), "count"},
      {"result.render_json_us", span_us("result.render_json"), "us"},
      {"code_hash_index.build_us", span_us("code_hash_index.build"), "us"},
      {"encoded_ops.join_us", span_us("encoded_ops.join"), "us"},
      {"encoded_ops.rows_joined", count("encoded_ops.rows_joined"), "count"},
      {"sql.join_filter_ratio", count("sql.join_filter_ratio"), "ratio"},
      {"discovery.collect_agreements_us",
       span_us("discovery.collect_agreements"), "us"},
      {"discovery.pairs", count("discovery.pairs"), "count"},
      {"discovery.hitting_sets_us", span_us("discovery.hitting_sets"), "us"},
      {"discovery.total_us", span_us("discovery.total"), "us"},
      {"vrnf.decompose_us", span_us("vrnf.decompose"), "us"},
      {"vrnf.steps", count("vrnf.steps"), "count"},
      {"datagen.generate_s", Median(generate_s), "s"},
      {"parallel.effective_cores", cores, "cores"},
      {"simd_kernels.level",
       static_cast<double>(sqlnf::simd::ActiveLevel()), "level"},
      {"trace.replays", static_cast<double>(replays), "count"},
      {"trace.overhead", ops > 0 ? 1.0 - traced_ops / ops : 0, "fraction"},
  };
  std::printf("per-layer (%s, %lld replays, every %d-th request):\n",
              shape.name, static_cast<long long>(replays), shape.replay_every);
  for (const Metric& x : metrics) PrintLine(x.name, x.value, x.unit.c_str());
  std::printf("tracing overhead: %.1f%% (%.1f req/s untraced, %.1f traced)\n",
              100.0 * (ops > 0 ? 1.0 - traced_ops / ops : 0), ops, traced_ops);
  PrintResult(correct && replays > 0, attempted, failed, metrics);
  return correct && replays > 0 ? 0 : 1;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      for (const WorkloadShape& s : kShapes) {
        if (v == s.name) a.shape = &s;
      }
      if (a.shape == nullptr) Die("unknown workload " + v);
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v.c_str());
      if (!(a.seconds > 0 && a.seconds <= 600)) Die("bad --seconds " + v);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (a.shape == nullptr) Die("--workload is required");
  return a;
}

}  // namespace
}  // namespace sqlnf_bench

int main(int argc, char** argv) {
  return sqlnf_bench::Run(sqlnf_bench::ParseArgs(argc, argv));
}
