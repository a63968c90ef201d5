// Benchmark driver for sqlpl's user-facing paths: in-process parse,
// in-process execute, wire parse and wire execute. In the `point`
// workload both parse paths are answered by promoted native parsers.
//
// One run generates a seeded workload, sets the system up (service,
// tables, warm parsers, loopback wire server, connected client), then
// alternates short slices of closed-loop traffic over the four paths
// until --seconds have been measured. Every answer is checked: cheaply
// inside the timed loop (status, row count, which tier answered), and in
// full afterwards against references that do not come from the path
// under test: frozen golden trees, the statement's own characters, the
// interpreter's tree for natively served statements, the expected
// accept or reject, and a row-at-a-time evaluator over the same table.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same
// traffic and prints the per-layer metrics instead. The in-process
// paths then alternate between the service call itself and a copy of
// its pipeline with a clock read around each layer; the service time the
// layers do not explain is reported as `other`. The last stdout line is
// the JSON result.
//
//   perfbench_driver --workload point --seed 1 --seconds 10 --trace 0

#include <sched.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sqlpl/exec/executor.h"
#include "sqlpl/exec/lowering.h"
#include "sqlpl/exec/table.h"
#include "sqlpl/net/sql_client.h"
#include "sqlpl/net/sql_server.h"
#include "sqlpl/parser/arena_tree.h"
#include "sqlpl/semantics/ast_builder.h"
#include "sqlpl/service/dialect_service.h"
#include "sqlpl/service/spec_fingerprint.h"
#include "sqlpl/sql/dialects.h"
#include "sqlpl/testing/golden_corpus.h"
#include "sqlpl/testing/workload_generator.h"

// The compiler the native tier builds promoted parsers with: the one
// that built this driver (set by CMakeLists.txt).
#ifndef PERFBENCH_CXX
#define PERFBENCH_CXX "c++"
#endif

namespace sqlpl {
namespace {

using Clock = std::chrono::steady_clock;

double NanosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

constexpr size_t kSetups = 9;

// ---------------------------------------------------------------------
// Statements taken from the repository's own benchmarks

/// bench/bench_parse.cc CommonWorkload: selections and projections that
/// every preset dialect accepts.
const char* const kCommonStatements[] = {
    "SELECT a FROM t",
    "SELECT col1 FROM readings WHERE col1 = 10",
    "SELECT temp FROM sensors WHERE temp > 90",
    "SELECT id FROM accounts WHERE balance = 100",
    "SELECT pressure FROM station WHERE sensor = 'p7'",
};

/// bench/bench_parse.cc AnalyticsWorkload (CoreQuery and FullFoundation).
const char* const kAnalyticsStatements[] = {
    "SELECT dept, COUNT(*) FROM emp GROUP BY dept HAVING COUNT(*) > 3",
    "SELECT region, SUM(amount) FROM sales WHERE yr = 2003 "
    "GROUP BY region ORDER BY region DESC",
    "SELECT AVG(salary), MIN(salary), MAX(salary) FROM emp "
    "WHERE dept = 'R' AND hired > 1999",
    "SELECT a + b * c FROM t WHERE x = 1 OR y = 2 AND NOT z = 3",
};

/// bench/bench_parse.cc MixedWorkload: joins, subqueries, DML, DDL, set
/// operations and CASE, which BM_TailoredRejection feeds to
/// EmbeddedMinimal. Each needs a feature EmbeddedMinimal lacks, so each
/// must be rejected.
const char* const kMixedStatements[] = {
    "SELECT e.name, d.title FROM emp e JOIN dept d ON e.did = d.id "
    "WHERE e.salary BETWEEN 100 AND 200",
    "SELECT a FROM t WHERE a IN (SELECT b FROM u WHERE u.x IS NOT NULL)",
    "INSERT INTO audit (op, who) VALUES ('upd', 'alice'), ('del', 'bob')",
    "UPDATE accounts SET balance = balance - 10 WHERE id = 7",
    "CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(30) NOT NULL)",
    "SELECT a FROM t UNION ALL SELECT b FROM u ORDER BY 1",
    "SELECT CASE WHEN a > 0 THEN 'p' ELSE 'n' END FROM t",
};

/// bench/bench_native.cc BigStmt: a wide SELECT, long enough that the
/// parse outweighs per-request service work.
std::string WideSelect(int cols, int preds) {
  std::string s = "SELECT ";
  for (int i = 0; i < cols; ++i) s += (i ? ", col" : "col") + std::to_string(i);
  s += " FROM readings WHERE ";
  for (int i = 0; i < preds; ++i) {
    if (i) s += " AND ";
    s += "col" + std::to_string(i) + " > " + std::to_string(i * 10);
  }
  return s;
}

// ---------------------------------------------------------------------
// Execute queries and their reference answers

struct Cell {
  enum Kind { kInt, kDouble, kString } kind = kInt;
  int64_t i = 0;
  double d = 0;
  std::string s;
};
using Row = std::vector<Cell>;

Cell IntCell(int64_t v) { return Cell{Cell::kInt, v, 0, {}}; }
Cell DoubleCell(double v) { return Cell{Cell::kDouble, 0, v, {}}; }
Cell StringCell(std::string v) { return Cell{Cell::kString, 0, 0, std::move(v)}; }

bool SameCell(const Cell& a, const Cell& b) {
  if (a.kind != b.kind) return false;
  if (a.kind == Cell::kInt) return a.i == b.i;
  if (a.kind == Cell::kString) return a.s == b.s;
  double scale = std::max({1.0, std::fabs(a.d), std::fabs(b.d)});
  return std::fabs(a.d - b.d) <= 1e-9 * scale;
}

bool CellLess(const Cell& a, const Cell& b) {
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.kind == Cell::kInt) return a.i < b.i;
  if (a.kind == Cell::kString) return a.s < b.s;
  return a.d < b.d;
}

bool RowLess(const Row& a, const Row& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end(),
                                      CellLess);
}

struct ExecCase {
  std::string sql;
  /// True when the SQL has ORDER BY; otherwise rows compare as a set.
  bool ordered = false;
  /// Row cap of the request; 0 for none.
  uint64_t max_rows = 0;
  std::vector<Row> expected;
};

/// Per distinct value of the string column `key`, in first-seen order,
/// the sum of `values` (or the row count, when null) over the rows
/// `keep` selects.
template <typename Keep>
std::vector<Row> GroupTotals(const exec::Column& key, const exec::Column* values,
                             Keep keep) {
  std::vector<std::pair<std::string, int64_t>> totals;
  for (size_t r = 0; r < key.str.size(); ++r) {
    if (!keep(r)) continue;
    auto it = std::find_if(totals.begin(), totals.end(),
                           [&](const auto& t) { return t.first == key.str[r]; });
    if (it == totals.end()) it = totals.emplace(totals.end(), key.str[r], 0);
    it->second += values != nullptr ? values->i64[r] : 1;
  }
  std::vector<Row> rows;
  for (const auto& [name, total] : totals) rows.push_back({StringCell(name), IntCell(total)});
  return rows;
}

/// bench/bench_exec.cc BM_ExecuteQueryService, the statement of the
/// execute probe in ROADMAP item 2, with a seeded threshold over the
/// demo `parts` table (24 rows, qty 1..50).
ExecCase PartsQuery(const exec::Table& parts, std::mt19937_64& rng) {
  const exec::Column& qty = parts.column(parts.FindColumn("qty"));
  const int64_t k = std::uniform_int_distribution<int64_t>(0, 45)(rng);
  ExecCase c;
  c.sql = "SELECT warehouse, SUM(qty) FROM parts WHERE qty > " +
          std::to_string(k) + " GROUP BY warehouse";
  c.expected = GroupTotals(parts.column(parts.FindColumn("warehouse")), &qty,
                           [&](size_t r) { return qty.i64[r] > k; });
  return c;
}

/// tests/exec/exec_service_test.cc, the statement TinySQL and CoreQuery
/// must answer alike, with a seeded sensor bound over the demo
/// `readings` table (32 rows, sensor_id 0..7).
ExecCase ReadingsQuery(const exec::Table& readings, std::mt19937_64& rng) {
  const exec::Column& sensor = readings.column(readings.FindColumn("sensor_id"));
  const int64_t k = std::uniform_int_distribution<int64_t>(1, 8)(rng);
  ExecCase c;
  c.sql = "SELECT room, COUNT(*) FROM readings WHERE sensor_id < " +
          std::to_string(k) + " GROUP BY room";
  c.expected = GroupTotals(readings.column(readings.FindColumn("room")), nullptr,
                           [&](size_t r) { return sensor.i64[r] < k; });
  return c;
}

/// The four queries of bench/bench_exec.cc, with its constants, over a
/// table made like its 1M-row `bench1m` but from the run's seed.
std::vector<ExecCase> BenchExecQueries(const exec::Table& table) {
  const std::vector<int64_t>& id = table.column(table.FindColumn("id")).i64;
  const std::vector<int64_t>& v = table.column(table.FindColumn("v")).i64;
  const std::vector<int64_t>& grp = table.column(table.FindColumn("grp")).i64;
  const std::vector<double>& price = table.column(table.FindColumn("price")).f64;
  const size_t rows = table.num_rows();
  std::vector<ExecCase> cases(4);

  // BM_ScanFilter1M.
  cases[0].sql = "SELECT SUM(v) FROM bench1m WHERE v < 500000";
  int64_t sum = 0;
  for (size_t r = 0; r < rows; ++r) {
    if (v[r] < 500000) sum += v[r];
  }
  cases[0].expected.push_back({IntCell(sum)});

  // BM_ScanAggregate1M, and BM_LowerPlan's query.
  struct Group {
    int64_t count = 0;
    int64_t sum = 0;
    double price_sum = 0;
  };
  std::vector<Group> below_900k(16);
  std::vector<Group> below_500k(16);
  auto add = [&](Group& g, size_t r) {
    ++g.count;
    g.sum += v[r];
    g.price_sum += price[r];
  };
  for (size_t r = 0; r < rows; ++r) {
    const size_t g = static_cast<size_t>(grp[r]);
    if (v[r] < 900000) add(below_900k[g], r);
    if (v[r] < 500000) add(below_500k[g], r);
  }
  cases[1].sql =
      "SELECT grp, COUNT(*), SUM(v) FROM bench1m WHERE v < 900000 GROUP BY grp";
  cases[3].sql =
      "SELECT grp, COUNT(*), SUM(v), AVG(price) FROM bench1m "
      "WHERE v < 500000 GROUP BY grp ORDER BY grp";
  cases[3].ordered = true;
  for (size_t g = 0; g < 16; ++g) {
    const int64_t key = static_cast<int64_t>(g);
    const Group& a = below_900k[g];
    if (a.count > 0) cases[1].expected.push_back({IntCell(key), IntCell(a.count), IntCell(a.sum)});
    const Group& b = below_500k[g];
    if (b.count > 0) {
      cases[3].expected.push_back({IntCell(key), IntCell(b.count), IntCell(b.sum),
                                   DoubleCell(b.price_sum / static_cast<double>(b.count))});
    }
  }

  // BM_SortLimit1M. The executor's sort is stable, so equal values keep
  // scan order.
  cases[2].sql = "SELECT id, v FROM bench1m WHERE v < 100000 ORDER BY v DESC";
  cases[2].ordered = true;
  cases[2].max_rows = 100;
  std::vector<size_t> match;
  for (size_t r = 0; r < rows; ++r) {
    if (v[r] < 100000) match.push_back(r);
  }
  std::stable_sort(match.begin(), match.end(),
                   [&](size_t a, size_t b) { return v[a] > v[b]; });
  for (size_t n = 0; n < match.size() && n < cases[2].max_rows; ++n) {
    cases[2].expected.push_back({IntCell(id[match[n]]), IntCell(v[match[n]])});
  }
  return cases;
}

std::vector<Row> RowsOf(const std::vector<exec::ColumnType>& types,
                        const std::vector<exec::RowBatch>& batches) {
  std::vector<Row> rows;
  for (const exec::RowBatch& batch : batches) {
    for (size_t r = 0; r < batch.num_rows; ++r) {
      Row row;
      for (size_t c = 0; c < batch.columns.size() && c < types.size(); ++c) {
        const exec::Column& column = batch.columns[c];
        switch (types[c]) {
          case exec::ColumnType::kInt64: row.push_back(IntCell(column.i64[r])); break;
          case exec::ColumnType::kDouble: row.push_back(DoubleCell(column.f64[r])); break;
          case exec::ColumnType::kString: row.push_back(StringCell(column.str[r])); break;
        }
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

bool SameRows(std::vector<Row> got, std::vector<Row> want, bool ordered) {
  if (got.size() != want.size()) return false;
  if (!ordered) {
    std::sort(got.begin(), got.end(), RowLess);
    std::sort(want.begin(), want.end(), RowLess);
  }
  for (size_t r = 0; r < got.size(); ++r) {
    if (got[r].size() != want[r].size()) return false;
    for (size_t c = 0; c < got[r].size(); ++c) {
      if (!SameCell(got[r][c], want[r][c])) return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------
// Parse statements and their checks

struct ParseCase {
  size_t dialect = 0;
  std::string sql;
  /// Frozen S-expression from the golden corpus, or null.
  const char* golden = nullptr;
  /// False for statements the dialect must reject.
  bool accept = true;
};

/// `text` without comments, whitespace and quotes, uppercased: the
/// characters a parse tree's leaves must reproduce in order.
std::string Normalized(std::string_view text) {
  std::string out;
  bool quoted = false;
  for (size_t i = 0; i < text.size(); ++i) {
    char ch = text[i];
    if (!quoted && text.substr(i, 2) == "--") {
      i = std::min(text.size(), text.find('\n', i));
      continue;
    }
    if (!quoted && text.substr(i, 2) == "/*") {
      size_t end = text.find("*/", i + 2);
      i = end == std::string_view::npos ? text.size() : end + 1;
      continue;
    }
    if (ch == '\'') quoted = !quoted;
    if (std::isspace(static_cast<unsigned char>(ch)) || ch == '\'' || ch == '"') continue;
    out += static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
  }
  return out;
}

void AppendLeaves(const ParseNode& node, std::string* out) {
  if (node.is_leaf()) {
    *out += node.token().text;
    return;
  }
  for (const ParseNode& child : node.children()) AppendLeaves(child, out);
}

/// The tree covers exactly the statement's characters, in order.
bool YieldMatches(const ParseNode& tree, std::string_view sql) {
  std::string leaves;
  AppendLeaves(tree, &leaves);
  return Normalized(leaves) == Normalized(sql);
}

// ---------------------------------------------------------------------
// Workloads

/// What a parse request asks for.
enum class ParseMode {
  kTree,    // the owning ParseNode tree
  kRender,  // the S-expression only, which the native tier can serve
  kAccept,  // accept or reject only
};

struct Inputs {
  std::vector<DialectSpec> dialects;
  ParseMode mode = ParseMode::kTree;
  /// Index into `dialects` of the dialect execute queries run under.
  size_t exec_dialect = 0;
  /// A table registered at set-up besides the demo tables, or null.
  std::shared_ptr<const exec::Table> table;
  std::vector<ParseCase> parse_cases;
  std::vector<ExecCase> exec_cases;
  /// Compose and parser-build times of the workload's dialects, measured
  /// on a private product line (per-layer metrics).
  std::vector<double> compose_ns;
  std::vector<double> build_ns;
};

void AddGolden(size_t dialect, Inputs* in) {
  for (const GoldenCase& g : GoldenCorpusForDialect(in->dialects[dialect].name)) {
    in->parse_cases.push_back({dialect, g.sql, g.sexpr, true});
  }
}

template <typename Statements>
void AddToEach(const Statements& statements, size_t dialects, Inputs* in) {
  for (size_t d = 0; d < dialects; ++d) {
    for (const auto& sql : statements) in->parse_cases.push_back({d, sql, nullptr, true});
  }
}

/// bench/bench_parse.cc BM_GeneratedWorkload: 50 statements at each
/// complexity in [lo, hi], alternating between dialects 0 and 1
/// (CoreQuery and FullFoundation, whose language generated SQL stays in).
void AddGenerated(uint64_t seed, int lo, int hi, Inputs* in) {
  WorkloadGenerator generator(static_cast<uint32_t>(seed));
  for (int complexity = lo; complexity <= hi; ++complexity) {
    for (size_t n = 0; n < 50; ++n) {
      in->parse_cases.push_back(
          {n % 2, generator.SelectStatement(complexity), nullptr, true});
    }
  }
}

// Why each workload exists:
//  point     short statements (the golden corpus, the common statements
//            and the parse benchmark's generated range) answered by
//            promoted native parsers; execute over the 24-row demo
//            table. Per-request cost of the native tier and the service.
//  analytic  long statements parsed into trees by the interpreter, and
//            bench_exec's queries over 1M rows: parser and executor
//            throughput on large inputs. Bypasses the native tier.
//  validate  accept/reject-only parses in all five golden presets,
//            rejections included, and TinySQL execute over the 32-row
//            demo table. Bypasses trees, rendering and the native tier.
void MakePoint(uint64_t seed, std::mt19937_64& rng, Inputs* in) {
  in->dialects = {CoreQueryDialect(), FullFoundationDialect()};
  in->mode = ParseMode::kRender;
  for (size_t d = 0; d < in->dialects.size(); ++d) AddGolden(d, in);
  AddToEach(kCommonStatements, in->dialects.size(), in);
  AddGenerated(seed, 0, 3, in);
  const std::shared_ptr<const exec::Table> parts = exec::MakePartsTable();
  for (int n = 0; n < 64; ++n) in->exec_cases.push_back(PartsQuery(*parts, rng));
}

void MakeAnalytic(uint64_t seed, std::mt19937_64&, Inputs* in) {
  in->dialects = {CoreQueryDialect(), FullFoundationDialect()};
  in->mode = ParseMode::kTree;
  std::vector<std::string> wide;
  for (int n = 1; n <= 5; ++n) wide.push_back(WideSelect(4 * n, 2 * n));
  AddToEach(wide, in->dialects.size(), in);
  AddToEach(kAnalyticsStatements, in->dialects.size(), in);
  // workload_generator.h: complexity 3 is analytics-shaped.
  AddGenerated(seed, 3, 3, in);
  // bench/bench_exec.cc plans its queries under FullFoundation.
  in->exec_dialect = 1;
  in->table = exec::MakeBenchTable("bench1m", 1000000, seed);
  in->exec_cases = BenchExecQueries(*in->table);
}

void MakeValidate(uint64_t seed, std::mt19937_64& rng, Inputs* in) {
  in->dialects = {CoreQueryDialect(), FullFoundationDialect(), TinySqlDialect(),
                  ScqlDialect(), EmbeddedMinimalDialect()};
  in->mode = ParseMode::kAccept;
  for (size_t d = 0; d < in->dialects.size(); ++d) AddGolden(d, in);
  AddToEach(kCommonStatements, in->dialects.size(), in);
  for (const char* sql : kMixedStatements) in->parse_cases.push_back({4, sql, nullptr, false});
  AddGenerated(seed, 0, 3, in);
  in->exec_dialect = 2;
  const std::shared_ptr<const exec::Table> readings = exec::MakeReadingsTable();
  for (int n = 0; n < 64; ++n) in->exec_cases.push_back(ReadingsQuery(*readings, rng));
}

struct Workload {
  const char* name;
  void (*make)(uint64_t seed, std::mt19937_64& rng, Inputs* in);
};

constexpr Workload kWorkloads[] = {
    {"point", MakePoint},
    {"analytic", MakeAnalytic},
    {"validate", MakeValidate},
};

bool MakeInputs(const Workload& w, uint64_t seed, bool trace, Inputs* in) {
  std::mt19937_64 rng(seed);
  w.make(seed, rng, in);
  std::shuffle(in->parse_cases.begin(), in->parse_cases.end(), rng);
  std::shuffle(in->exec_cases.begin(), in->exec_cases.end(), rng);
  if (!trace) return true;
  SqlProductLine line;
  for (int rep = 0; rep < 4; ++rep) {
    for (const DialectSpec& spec : in->dialects) {
      auto t0 = Clock::now();
      Result<Grammar> grammar = line.ComposeGrammar(spec, nullptr);
      auto t1 = Clock::now();
      if (!grammar.ok()) return false;
      Result<LlParser> parser = ParserBuilder().Build(*grammar);
      auto t2 = Clock::now();
      if (!parser.ok()) return false;
      in->compose_ns.push_back(NanosBetween(t0, t1));
      in->build_ns.push_back(NanosBetween(t1, t2));
    }
  }
  return true;
}

// ---------------------------------------------------------------------
// The system under test

struct System {
  std::unique_ptr<DialectService> service;
  std::unique_ptr<net::SqlServer> server;
  net::SqlClient client;
  /// Per dialect, the fingerprint the server registered it under.
  std::vector<uint64_t> fingerprints;

  ~System() {
    client.Close();
    if (server) server->Stop();
  }
};

/// Everything a deployment pays once before serving: service, table
/// registration, parsers of the workload's dialects, server start,
/// client connection and dialect registration with the server.
bool SetUp(const Inputs& in, System* sys) {
  DialectServiceOptions options;
  if (in.mode == ParseMode::kRender) {
    options.native.hot_threshold = 2;  // as in bench/bench_native.cc
    options.native.compiler = PERFBENCH_CXX;
  }
  sys->service = std::make_unique<DialectService>(options);
  if (in.table && !sys->service->tables().Register(in.table).ok()) return false;
  for (const DialectSpec& spec : in.dialects) {
    if (!sys->service->GetParser(spec).ok()) return false;
  }
  sys->server = std::make_unique<net::SqlServer>(sys->service.get());
  if (!sys->server->Start().ok()) return false;
  if (!sys->client.Connect("127.0.0.1", sys->server->port()).ok()) return false;
  for (const DialectSpec& spec : in.dialects) {
    Result<net::WireValidateResponse> reply = sys->client.ValidateSpec(spec);
    if (!reply.ok() || reply->status != StatusCode::kOk) return false;
    sys->fingerprints.push_back(reply->fingerprint);
  }
  return true;
}

/// Sets `*sys` up; returns the seconds that took, or -1 on failure.
double TimedSetUp(const Inputs& in, std::unique_ptr<System>* sys) {
  auto start = Clock::now();
  *sys = std::make_unique<System>();
  if (!SetUp(in, sys->get())) return -1;
  return NanosBetween(start, Clock::now()) / 1e9;
}

/// Moves the calling thread across the CPUs the process may use, and
/// back to all of them when destroyed. On a shared host other tenants
/// contend for some CPUs and not others, and which ones changes over
/// tens of seconds; the guest's scheduler cannot see it, so a thread
/// left alone stays on a contended CPU for a whole run. Threads started
/// while the caller is pinned inherit its CPU.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(all_), &all_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the k-th CPU, cyclically.
  void MoveTo(size_t k) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t all_{};
  std::vector<int> cpus_;
};

/// Sends each dialect past the native tier's threshold and waits until
/// its parser is compiled, checked against the golden corpus and
/// promoted.
bool Promote(const Inputs& in, System* sys) {
  for (const DialectSpec& spec : in.dialects) {
    ParseRequest request;
    request.spec = &spec;
    request.sql = kCommonStatements[0];
    request.render_sexpr = true;
    for (size_t n = 0; n <= sys->service->options().native.hot_threshold; ++n) {
      if (!sys->service->Parse(request).ok()) return false;
    }
  }
  sys->service->native_tier().WaitIdle();
  for (const DialectSpec& spec : in.dialects) {
    if (!sys->service->native_tier().IsPromoted(FingerprintSpec(spec))) {
      std::fprintf(stderr, "%s was not promoted to a native parser\n",
                   spec.name.c_str());
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------
// Traffic

enum Path { kParse, kExecute, kWireParse, kWireExecute, kNumPaths };
constexpr const char* kPathNames[kNumPaths] = {"parse", "execute", "wire_parse",
                                               "wire_execute"};

/// The layers a traced run splits each path into, in call order. The
/// in-process paths are timed around calls made here. The wire paths
/// use the server's stage table plus the client-side remainder
/// ("socket": round trip minus server turnaround); stages the server
/// always reports as zero are left out.
const std::vector<std::string> kLayers[kNumPaths] = {
    {"resolve", "lex", "syntax"},
    {"resolve", "lex", "match", "tree", "ast", "lower", "plan_text", "run"},
    {"decode", "queue", "admission", "parse", "render", "encode", "socket"},
    {"queue", "admission", "exec", "encode", "socket"},
};

struct Tally {
  /// Request latencies per path and round.
  std::vector<std::vector<double>> latency_ns[kNumPaths];
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Traced runs: per path, layer time summed over `traced` requests.
  std::vector<double> layer_ns[kNumPaths];
  uint64_t traced[kNumPaths] = {};
  /// Traced runs: in-process service calls and their summed latency.
  double service_ns[kNumPaths] = {};
  uint64_t service_calls[kNumPaths] = {};
  uint64_t tokens = 0;
  uint64_t rows_scanned = 0;

  Tally() {
    for (int p = 0; p < kNumPaths; ++p) layer_ns[p].assign(kLayers[p].size(), 0);
  }
};

/// One closed-loop caller: issues the next request of a path's pool as
/// soon as the previous one has been answered.
class Caller {
 public:
  Caller(const Inputs& in, System* sys, bool trace)
      : in_(in), sys_(sys), client_(sys->client), trace_(trace) {}

  /// Requests on `path` until `until`, timing each into `round`.
  void Run(Path path, size_t round, Clock::time_point until, Tally* tally) {
    std::vector<std::vector<double>>& rounds = tally->latency_ns[path];
    if (rounds.size() <= round) rounds.resize(round + 1);
    std::vector<double>& latency = rounds[round];
    for (;;) {
      auto start = Clock::now();
      bool ok = Request(path, tally);
      auto end = Clock::now();
      latency.push_back(NanosBetween(start, end));
      ++tally->attempted;
      if (!ok) ++tally->failed;
      if (end >= until) return;
    }
  }

 private:
  bool Request(Path path, Tally* tally) {
    if (path == kParse || path == kWireParse) {
      const ParseCase& c = in_.parse_cases[parse_next_++ % in_.parse_cases.size()];
      if (path == kWireParse) return WireParse(c, tally);
      if (!trace_) return Parse(c);
      return Paired(kParse, [&] { return Parse(c); },
                    [&] { return TracedParse(c, tally); }, tally);
    }
    const ExecCase& c = in_.exec_cases[exec_next_++ % in_.exec_cases.size()];
    if (path == kWireExecute) return WireExecute(c, tally);
    if (!trace_) return Execute(c);
    return Paired(kExecute, [&] { return Execute(c); },
                  [&] { return TracedExecute(c, tally); }, tally);
  }

  /// A traced in-process request: the service call and the layer-by-layer
  /// copy on the same input, in alternating order so that neither always
  /// runs on caches the other warmed.
  template <typename ServiceCall, typename Copy>
  bool Paired(Path path, ServiceCall service_call, Copy copy, Tally* tally) {
    const bool service_first = paired_++ % 2 == 0;
    bool ok = service_first || copy();
    auto start = Clock::now();
    ok = service_call() && ok;
    tally->service_ns[path] += NanosBetween(start, Clock::now());
    ++tally->service_calls[path];
    return service_first ? copy() && ok : ok;
  }

  /// Whether a parse response is the one the case must get.
  bool ParseAnswerOk(const ParseCase& c, const ParseResponse& response) const {
    if (!c.accept) return response.status().code() == StatusCode::kParseError;
    if (!response.ok()) return false;
    return in_.mode != ParseMode::kRender ||
           (response.cache_disposition == CacheDisposition::kNative &&
            !response.rendered.empty());
  }

  bool Parse(const ParseCase& c) {
    ParseRequest request;
    request.spec = &in_.dialects[c.dialect];
    request.sql = c.sql;
    request.want_tree = in_.mode == ParseMode::kTree;
    request.render_sexpr = in_.mode == ParseMode::kRender;
    return ParseAnswerOk(c, sys_->service->Parse(request));
  }

  bool TracedParse(const ParseCase& c, Tally* tally) {
    const DialectSpec& spec = in_.dialects[c.dialect];
    SpecFingerprint fingerprint;
    auto t0 = Clock::now();
    Result<std::shared_ptr<const LlParser>> parser =
        sys_->service->GetParser(spec, RequestControl{}, nullptr, &fingerprint);
    auto t1 = Clock::now();
    if (!parser.ok()) return false;
    const LlParser& ll = **parser;
    TokenStream stream;
    bool accepted = ll.lexer().TokenizeInto(c.sql, &stream).ok();
    auto t2 = Clock::now();
    double syntax_ns = 0;
    if (in_.mode == ParseMode::kRender) {
      // The native tier lexes the statement again before its own parse;
      // that second lexing is taken out using the lex time just measured.
      ParseResponse response;
      size_t tokens = 0;
      bool served = sys_->service->native_tier().TryServe(fingerprint, ll, c.sql,
                                                          &response, &tokens);
      auto t3 = Clock::now();
      if (!served) return false;
      accepted = response.ok() && !response.rendered.empty();
      syntax_ns = NanosBetween(t2, t3) - NanosBetween(t1, t2);
    } else if (accepted) {
      ParseArena arena;
      Result<const ArenaNode*> root = ll.ParseStream(stream, &arena);
      accepted = root.ok();
      if (accepted) {
        // Without a wanted tree the service answers with a childless stub.
        ParseNode tree = in_.mode == ParseMode::kTree
                             ? ArenaToParseNode(**root, ll.interner())
                             : ParseNode::Rule(ll.grammar().start_symbol());
        accepted = !tree.symbol().empty();
      }
      syntax_ns = NanosBetween(t2, Clock::now());
    }
    std::vector<double>& layer = tally->layer_ns[kParse];
    layer[0] += NanosBetween(t0, t1);
    layer[1] += NanosBetween(t1, t2);
    layer[2] += syntax_ns;
    ++tally->traced[kParse];
    tally->tokens += stream.size() > 0 ? stream.size() - 1 : 0;
    return accepted == c.accept;
  }

  bool Execute(const ExecCase& c) {
    ExecuteRequest request;
    request.spec = &in_.dialects[in_.exec_dialect];
    request.sql = c.sql;
    request.max_rows = c.max_rows;
    ExecuteResponse response = sys_->service->ExecuteQuery(request);
    return response.ok() && response.result.num_rows == c.expected.size();
  }

  bool TracedExecute(const ExecCase& c, Tally* tally) {
    const DialectSpec& spec = in_.dialects[in_.exec_dialect];
    auto t0 = Clock::now();
    Result<std::shared_ptr<const LlParser>> parser =
        sys_->service->GetParser(spec, RequestControl{});
    auto t1 = Clock::now();
    if (!parser.ok()) return false;
    TokenStream stream;
    Status lexed = (*parser)->lexer().TokenizeInto(c.sql, &stream);
    auto t2 = Clock::now();
    if (!lexed.ok()) return false;
    ParseArena arena;
    Result<const ArenaNode*> root = (*parser)->ParseStream(stream, &arena);
    auto t3 = Clock::now();
    if (!root.ok()) return false;
    ParseNode tree = ArenaToParseNode(**root, (*parser)->interner());
    auto t4 = Clock::now();
    Result<SelectStatement> statement = BuildSelectStatement(tree);
    auto t5 = Clock::now();
    if (!statement.ok()) return false;
    Result<exec::LogicalPlan> plan =
        exec::LowerSelect(*statement, spec, sys_->service->tables(),
                          exec::LoweringOptions{c.max_rows});
    auto t6 = Clock::now();
    if (!plan.ok()) return false;
    std::string plan_text = plan->ToString();
    auto t7 = Clock::now();
    exec::ExecStats stats;
    Result<exec::QueryResult> result = exec::ExecutePlan(*plan, {}, &stats);
    auto t8 = Clock::now();
    const Clock::time_point marks[] = {t0, t1, t2, t3, t4, t5, t6, t7, t8};
    std::vector<double>& layer = tally->layer_ns[kExecute];
    for (size_t l = 0; l + 1 < std::size(marks); ++l) {
      layer[l] += NanosBetween(marks[l], marks[l + 1]);
    }
    ++tally->traced[kExecute];
    tally->rows_scanned += stats.rows_scanned;
    return result.ok() && !plan_text.empty() &&
           result->num_rows == c.expected.size();
  }

  /// Adds the server's stage table and the client-side remainder of one
  /// wire round trip to the path's layers.
  void AddWireLayers(Path path, const std::vector<net::WireStageTiming>& stages,
                     uint32_t server_micros, double round_trip_ns, Tally* tally) {
    const std::vector<std::string>& names = kLayers[path];
    std::vector<double>& layer = tally->layer_ns[path];
    for (const net::WireStageTiming& stage : stages) {
      auto it = std::find(names.begin(), names.end(), net::WireStageName(stage.stage));
      if (it != names.end()) layer[static_cast<size_t>(it - names.begin())] += stage.micros * 1e3;
    }
    layer.back() += round_trip_ns - server_micros * 1e3;
    ++tally->traced[path];
  }

  bool WireParse(const ParseCase& c, Tally* tally) {
    const bool want_tree = in_.mode != ParseMode::kAccept;
    auto start = Clock::now();
    Result<net::WireParseResponse> reply = client_.ParseByFingerprint(
        sys_->fingerprints[c.dialect], c.sql, /*deadline_ms=*/0, want_tree);
    auto end = Clock::now();
    if (!reply.ok()) return false;
    if (trace_) {
      AddWireLayers(kWireParse, reply->stages, reply->server_micros,
                    NanosBetween(start, end), tally);
    }
    if (!c.accept) return reply->status == StatusCode::kParseError;
    if (!reply->ok() || reply->body.empty() == want_tree) return false;
    return in_.mode != ParseMode::kRender ||
           reply->cache_disposition == CacheDisposition::kNative;
  }

  bool WireExecute(const ExecCase& c, Tally* tally) {
    auto start = Clock::now();
    Result<net::WireExecuteResponse> reply = client_.ExecuteByFingerprint(
        sys_->fingerprints[in_.exec_dialect], c.sql, /*deadline_ms=*/0, c.max_rows);
    auto end = Clock::now();
    if (!reply.ok() || !reply->ok()) return false;
    if (trace_) {
      AddWireLayers(kWireExecute, reply->stages, reply->server_micros,
                    NanosBetween(start, end), tally);
    }
    return reply->num_rows == c.expected.size();
  }

  const Inputs& in_;
  System* sys_;
  net::SqlClient& client_;
  bool trace_;
  size_t parse_next_ = 0;
  size_t exec_next_ = 0;
  size_t paired_ = 0;
};

/// Alternates slices of every path, rotating the order each round, so
/// that a burst of machine noise spreads over all four paths. Each round
/// runs on the next CPU in turn. Between rounds, set-ups of throwaway
/// systems are timed into `setup_s` until it holds kSetups, so that they
/// too sample the host over the whole run and on every CPU.
Tally Measure(const Inputs& in, System* sys, double seconds, bool trace,
              std::vector<double>* setup_s) {
  Caller caller(in, sys, trace);
  Tally tally;
  CpuRotation cpus;
  auto extra_setup = [&] {
    std::unique_ptr<System> extra;
    double s = TimedSetUp(in, &extra);
    ++tally.attempted;
    if (s < 0) {
      ++tally.failed;
    } else {
      setup_s->push_back(s);
    }
  };
  // One round per second: long enough for a precise figure per round on
  // every path, short enough to give a run many rounds to pick from.
  const int rounds = std::max(4, static_cast<int>(seconds));
  const auto slice = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / (rounds * kNumPaths)));
  for (int round = 0; round < rounds; ++round) {
    cpus.MoveTo(static_cast<size_t>(round));
    if (round % 2 == 1 && setup_s->size() < kSetups) extra_setup();
    for (int k = 0; k < kNumPaths; ++k) {
      Path path = static_cast<Path>((round + k) % kNumPaths);
      caller.Run(path, static_cast<size_t>(round), Clock::now() + slice, &tally);
    }
  }
  for (size_t n = 0; setup_s->size() < kSetups && n < kSetups; ++n) {
    cpus.MoveTo(n);
    extra_setup();
  }
  return tally;
}

// ---------------------------------------------------------------------
// Full verification, after the timed phase

/// Number of wrong answers over every parse statement and query, on
/// both transports. An accepted statement is parsed into a tree by the
/// interpreter; its leaves must spell the statement, it must render the
/// golden S-expression if there is one, and every other answer for the
/// statement (wire body, native rendering) must equal its rendering. A
/// rejected statement must be rejected alike on both transports. Query
/// results must equal the row references.
size_t Verify(const Inputs& in, System* sys) {
  size_t wrong = 0;
  net::SqlClient& client = sys->client;
  const bool want_tree = in.mode != ParseMode::kAccept;
  for (const ParseCase& c : in.parse_cases) {
    ParseRequest request;
    request.spec = &in.dialects[c.dialect];
    request.sql = c.sql;
    ParseResponse reference = sys->service->Parse(request);
    Result<net::WireParseResponse> reply = client.ParseByFingerprint(
        sys->fingerprints[c.dialect], c.sql, /*deadline_ms=*/0, want_tree);
    bool ok = reply.ok();
    if (ok && !c.accept) {
      ok = reference.status().code() == StatusCode::kParseError &&
           reply->status == StatusCode::kParseError &&
           reply->body == reference.status().message();
    } else if (ok) {
      ok = reference.ok() && YieldMatches(reference.result.value(), c.sql) &&
           reply->ok();
    }
    if (ok && c.accept) {
      const std::string sexpr = reference.result.value().ToSExpr();
      ok = (c.golden == nullptr || sexpr == c.golden) &&
           reply->body == (want_tree ? sexpr : std::string());
      if (ok && in.mode == ParseMode::kRender) {
        request.render_sexpr = true;
        ParseResponse native = sys->service->Parse(request);
        ok = native.cache_disposition == CacheDisposition::kNative &&
             native.rendered == sexpr &&
             reply->cache_disposition == CacheDisposition::kNative;
      }
    }
    if (!ok) {
      ++wrong;
      std::fprintf(stderr, "wrong parse [%s]: %s\n",
                   in.dialects[c.dialect].name.c_str(), c.sql.c_str());
    }
  }
  for (const ExecCase& c : in.exec_cases) {
    ExecuteRequest request;
    request.spec = &in.dialects[in.exec_dialect];
    request.sql = c.sql;
    request.max_rows = c.max_rows;
    ExecuteResponse response = sys->service->ExecuteQuery(request);
    Result<net::WireExecuteResponse> reply = client.ExecuteByFingerprint(
        sys->fingerprints[in.exec_dialect], c.sql, /*deadline_ms=*/0, c.max_rows);
    bool ok = response.ok() &&
              SameRows(RowsOf(response.result.column_types, response.result.batches),
                       c.expected, c.ordered) &&
              reply.ok() && reply->ok() &&
              SameRows(RowsOf(reply->column_types, reply->batches), c.expected,
                       c.ordered);
    if (!ok) {
      ++wrong;
      std::fprintf(stderr, "wrong result [%s]: %s (%s)\n",
                   in.dialects[in.exec_dialect].name.c_str(), c.sql.c_str(),
                   response.status.ToString().c_str());
    }
  }
  return wrong;
}

// ---------------------------------------------------------------------
// Reporting

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Nearest-rank percentile of a sorted sample.
double Percentile(const std::vector<double>& sorted, double q) {
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Mean of the middle half of a sorted sample.
double InterquartileMean(const std::vector<double>& sorted) {
  const size_t lo = sorted.size() / 4;
  const size_t hi = sorted.size() - lo;
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += sorted[i];
  return sum / static_cast<double>(hi - lo);
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Run(const Workload& w, uint64_t seed, double seconds, bool trace) {
  Inputs in;
  if (!MakeInputs(w, seed, trace, &in)) {
    std::fprintf(stderr, "input generation failed\n");
    return 1;
  }

  // The system that serves the run's traffic, set up before any thread
  // is pinned to a CPU. setup_s is the median over it and the throwaway
  // systems Measure sets up; this first set-up also pays the process's
  // one-time initialization, and traced runs report it on its own.
  std::vector<double> setup_s;
  std::unique_ptr<System> sys;
  double first = TimedSetUp(in, &sys);
  if (first < 0) {
    std::fprintf(stderr, "set-up failed\n");
    return 1;
  }
  setup_s.push_back(first);
  if (in.mode == ParseMode::kRender) {
    auto start = Clock::now();
    if (!Promote(in, sys.get())) return 1;
    std::fprintf(stderr, "native promotion of %zu dialects: %.2f s\n",
                 in.dialects.size(), NanosBetween(start, Clock::now()) / 1e9);
  }

  Tally tally = Measure(in, sys.get(), seconds, trace, &setup_s);
  size_t wrong = Verify(in, sys.get());
  sys.reset();
  std::fprintf(stderr, "set-ups (ms):");
  for (double s : setup_s) std::fprintf(stderr, " %.1f", s * 1e3);
  std::fprintf(stderr, "\n");

  std::vector<Metric> metrics;
  if (!trace) {
    for (int p = 0; p < kNumPaths; ++p) {
      // Per round, the interquartile mean of its latencies: like a
      // median it ignores both tails, but unlike one it moves smoothly
      // when a round's mix shifts by a request (`analytic` executes
      // four queries of distinct cost). Reported is the fastest round.
      // Other tenants of the machine only ever slow a round down, and on
      // a shared host they do so for most of a run's seconds; over ten
      // seeds the fastest round spread less than the lower quartile over
      // rounds on every workload, by up to a factor of four.
      std::vector<double> iqm;
      std::vector<double> p50;
      std::vector<double> p90;
      size_t requests = 0;
      for (std::vector<double>& round : tally.latency_ns[p]) {
        if (round.empty()) continue;
        std::sort(round.begin(), round.end());
        iqm.push_back(InterquartileMean(round) / 1e3);
        p50.push_back(Percentile(round, 0.5) / 1e3);
        p90.push_back(Percentile(round, 0.9) / 1e3);
        requests += round.size();
      }
      if (requests == 0) return 1;
      for (std::vector<double>* v : {&iqm, &p50, &p90}) std::sort(v->begin(), v->end());
      std::fprintf(stderr,
                   "%-13s %8zu requests, iqm %.2f us (lower quartile %.2f), "
                   "p50 %.2f us, p90 %.2f us\n",
                   kPathNames[p], requests, iqm.front(), Percentile(iqm, 0.25),
                   p50.front(), p90.front());
      // Only the in-process paths are reported. On a shared host the
      // wire round trips switch between a fast and a slow mode for whole
      // runs, and the 90th percentiles swing with them: their run-to-run
      // spread reached 0.43 and 0.25 of the median, too wide for any
      // bound. The traced run breaks the wire paths down by stage.
      if (p == kParse || p == kExecute) {
        metrics.push_back({std::string(kPathNames[p]) + "_iqm_us", iqm.front(), "us"});
      }
    }
    metrics.push_back({"setup_s", Median(setup_s), "s"});
  } else {
    metrics.push_back({"setup.cold_s", setup_s.front(), "s"});
    metrics.push_back({"compose_us", Mean(in.compose_ns) / 1e3, "us"});
    metrics.push_back({"build_us", Mean(in.build_ns) / 1e3, "us"});
    for (int p = 0; p < kNumPaths; ++p) {
      double n = static_cast<double>(std::max<uint64_t>(1, tally.traced[p]));
      double explained = 0;
      for (size_t l = 0; l < kLayers[p].size(); ++l) {
        double mean = tally.layer_ns[p][l] / n;
        explained += mean;
        metrics.push_back({std::string(kPathNames[p]) + "." + kLayers[p][l] + "_ns",
                           mean, "ns"});
      }
      if (tally.service_calls[p] == 0) continue;
      // The service call's own latency, and the part of it the layers
      // do not account for: admission, stats and spans, and any drift
      // between the copy and the service's pipeline.
      double service = tally.service_ns[p] / static_cast<double>(tally.service_calls[p]);
      metrics.push_back({std::string(kPathNames[p]) + ".service_ns", service, "ns"});
      metrics.push_back({std::string(kPathNames[p]) + ".other_ns",
                         service - explained, "ns"});
    }
    double parses = static_cast<double>(std::max<uint64_t>(1, tally.traced[kParse]));
    double queries = static_cast<double>(std::max<uint64_t>(1, tally.traced[kExecute]));
    metrics.push_back({"parse.tokens", static_cast<double>(tally.tokens) / parses, "count"});
    metrics.push_back({"execute.rows_scanned",
                       static_cast<double>(tally.rows_scanned) / queries, "count"});
  }
  std::fprintf(stderr, "attempted %llu, failed %llu, wrong %zu\n",
               static_cast<unsigned long long>(tally.attempted),
               static_cast<unsigned long long>(tally.failed), wrong);
  PrintResult(wrong == 0 && tally.failed == 0, tally.attempted, tally.failed,
              metrics);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1\n");
  return 2;
}

}  // namespace
}  // namespace sqlpl

int main(int argc, char** argv) {
  using namespace sqlpl;
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) workload = &w;
      }
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else {
      return Usage();
    }
  }
  if (workload == nullptr || argc % 2 == 0 || !(seconds > 0)) return Usage();
  return Run(*workload, seed, seconds, trace);
}
