#include "sql/engine.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/canonical_order.h"
#include "core/compute_skyline.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace skyline {
namespace {

// Engine + Session: the result cache (keying, hit/miss/byte-identity,
// LRU), the maintenance write path (insert patching, delete repair or
// invalidation), and the service guarantee the whole design hangs on —
// a cached response is byte-identical to a cold recompute at the same
// table version, before and after every mutation.

class EngineSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    Engine::Options options;
    options.env = env_.get();
    options.write_sidecars = false;
    engine_ = std::make_unique<Engine>(options);
  }

  /// A small table with a known shape: maximizing a and b, c is payload.
  Status CreateDemoTable() {
    return engine_->CreateTableFromCsv("T",
                                       "a,b,c\n"
                                       "5,1,10\n"
                                       "1,5,20\n"
                                       "3,3,30\n"
                                       "2,2,40\n"   // dominated by (3,3)
                                       "1,1,50\n"); // dominated by all
  }

  /// Runs `sql` through a fresh Session and returns the concatenated raw
  /// row bytes (full-width rows).
  Result<std::string> Collect(const std::string& sql,
                              Session::Outcome* outcome = nullptr) {
    Session session(engine_.get());
    std::string bytes;
    SKYLINE_RETURN_IF_ERROR(session.Execute(
        sql,
        [&bytes](const RowView& row) {
          bytes.append(row.data(), row.schema().row_width());
          return Status::OK();
        },
        outcome));
    return bytes;
  }

  /// Cold reference: recomputes the skyline of the table's *current*
  /// version from scratch (no cache) and returns it in canonical order —
  /// what every cached or patched response must match byte for byte.
  Result<std::string> ColdSkyline(const std::string& table,
                                  const std::vector<Criterion>& criteria) {
    SKYLINE_ASSIGN_OR_RETURN(Engine::TableSnapshot snapshot,
                             engine_->Snapshot(table));
    SKYLINE_ASSIGN_OR_RETURN(
        SkylineSpec spec,
        SkylineSpec::Make(snapshot.table->schema(), criteria));
    const std::string path = "cold/ref" + std::to_string(++cold_seq_);
    SKYLINE_ASSIGN_OR_RETURN(
        Table result, ComputeSkyline(SkylineAlgorithm::kSfs, *snapshot.table,
                                     spec, ExecContext(), path, nullptr));
    std::vector<char> rows;
    SKYLINE_RETURN_IF_ERROR(result.ReadAllRows(&rows));
    SortSkylineRowsCanonical(spec, &rows);
    return std::string(rows.data(), rows.size());
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<Engine> engine_;
  int cold_seq_ = 0;
};

const char kSkylineQuery[] = "SELECT * FROM T SKYLINE OF a MAX, b MAX";
const std::vector<Criterion> kCriteria = {{"a", Directive::kMax},
                                          {"b", Directive::kMax}};

TEST_F(EngineSessionTest, MissThenHitByteIdentical) {
  ASSERT_OK(CreateDemoTable());
  Session::Outcome first, second;
  ASSERT_OK_AND_ASSIGN(std::string cold, Collect(kSkylineQuery, &first));
  ASSERT_OK_AND_ASSIGN(std::string warm, Collect(kSkylineQuery, &second));
  EXPECT_TRUE(first.cache_eligible);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.rows_emitted, 3u);
  EXPECT_EQ(warm, cold);
  const Engine::CacheCounters counters = engine_->cache_counters();
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.hits, 1u);
  ASSERT_OK_AND_ASSIGN(std::string reference, ColdSkyline("T", kCriteria));
  EXPECT_EQ(cold, reference);
}

TEST_F(EngineSessionTest, ConstrainedQueriesKeySeparately) {
  ASSERT_OK(CreateDemoTable());
  const std::string constrained =
      "SELECT * FROM T WHERE a <= 3 SKYLINE OF a MAX, b MAX";
  ASSERT_OK_AND_ASSIGN(std::string full, Collect(kSkylineQuery));
  ASSERT_OK_AND_ASSIGN(std::string boxed, Collect(constrained));
  EXPECT_NE(full, boxed);  // (5,1) is outside the box
  EXPECT_EQ(engine_->cache_size(), 2u);
  // Both entries serve hits now.
  Session::Outcome outcome;
  ASSERT_OK_AND_ASSIGN(std::string boxed2, Collect(constrained, &outcome));
  EXPECT_TRUE(outcome.cache_hit);
  EXPECT_EQ(boxed2, boxed);
}

TEST_F(EngineSessionTest, ProjectionAndLimitApplyOnCachedPath) {
  ASSERT_OK(CreateDemoTable());
  ASSERT_OK_AND_ASSIGN(std::string ignored, Collect(kSkylineQuery));
  Session::Outcome outcome;
  ASSERT_OK_AND_ASSIGN(
      std::string projected,
      Collect("SELECT c FROM T SKYLINE OF a MAX, b MAX LIMIT 2", &outcome));
  EXPECT_TRUE(outcome.cache_hit);  // projection/limit do not change the key
  EXPECT_EQ(outcome.rows_emitted, 2u);
  EXPECT_EQ(projected.size(), 2u * sizeof(int32_t));
}

TEST_F(EngineSessionTest, InsertPatchesCachedEntry) {
  ASSERT_OK(CreateDemoTable());
  ASSERT_OK_AND_ASSIGN(std::string before, Collect(kSkylineQuery));

  Session::Outcome write;
  ASSERT_OK_AND_ASSIGN(std::string empty,
                       Collect("INSERT INTO T VALUES (6, 6, 60)", &write));
  EXPECT_TRUE(write.write);
  EXPECT_EQ(write.rows_affected, 1u);
  EXPECT_EQ(write.mutation.version, 2u);
  EXPECT_EQ(write.mutation.entries_patched, 1u);
  EXPECT_EQ(write.mutation.entries_invalidated, 0u);

  // The patched entry serves as a *hit* at the new version and matches a
  // cold recompute byte for byte — (6,6) dominates everything.
  Session::Outcome read;
  ASSERT_OK_AND_ASSIGN(std::string after, Collect(kSkylineQuery, &read));
  EXPECT_TRUE(read.cache_hit);
  EXPECT_NE(after, before);
  EXPECT_EQ(read.rows_emitted, 1u);
  ASSERT_OK_AND_ASSIGN(std::string reference, ColdSkyline("T", kCriteria));
  EXPECT_EQ(after, reference);
  EXPECT_EQ(engine_->cache_counters().patched, 1u);
}

TEST_F(EngineSessionTest, DominatedInsertKeepsSkylineByteIdentical) {
  ASSERT_OK(CreateDemoTable());
  ASSERT_OK_AND_ASSIGN(std::string before, Collect(kSkylineQuery));
  ASSERT_OK_AND_ASSIGN(std::string empty,
                       Collect("INSERT INTO T VALUES (1, 1, 70)"));
  Session::Outcome read;
  ASSERT_OK_AND_ASSIGN(std::string after, Collect(kSkylineQuery, &read));
  EXPECT_TRUE(read.cache_hit);
  EXPECT_EQ(after, before);
  ASSERT_OK_AND_ASSIGN(std::string reference, ColdSkyline("T", kCriteria));
  EXPECT_EQ(after, reference);
}

TEST_F(EngineSessionTest, DeleteOfNonMemberPatchesInPlace) {
  ASSERT_OK(CreateDemoTable());
  ASSERT_OK_AND_ASSIGN(std::string before, Collect(kSkylineQuery));
  Session::Outcome write;
  ASSERT_OK_AND_ASSIGN(std::string empty,
                       Collect("DELETE FROM T WHERE c = 40", &write));
  EXPECT_EQ(write.rows_affected, 1u);
  EXPECT_EQ(write.mutation.entries_patched, 1u);
  EXPECT_EQ(write.mutation.entries_repaired, 0u);
  Session::Outcome read;
  ASSERT_OK_AND_ASSIGN(std::string after, Collect(kSkylineQuery, &read));
  EXPECT_TRUE(read.cache_hit);
  EXPECT_EQ(after, before);  // dominated rows never influence the skyline
}

TEST_F(EngineSessionTest, DeleteOfMemberRepairsInline) {
  ASSERT_OK(CreateDemoTable());
  ASSERT_OK_AND_ASSIGN(std::string before, Collect(kSkylineQuery));
  Session::Outcome write;
  ASSERT_OK_AND_ASSIGN(std::string empty,
                       Collect("DELETE FROM T WHERE a = 3", &write));
  EXPECT_EQ(write.rows_affected, 1u);
  EXPECT_EQ(write.mutation.entries_patched, 0u);
  EXPECT_EQ(write.mutation.entries_repaired, 1u);
  // (3,3) left the skyline; (2,2) resurfaces — only a recompute over the
  // base data can know that, which is exactly what the repair did.
  Session::Outcome read;
  ASSERT_OK_AND_ASSIGN(std::string after, Collect(kSkylineQuery, &read));
  EXPECT_TRUE(read.cache_hit);
  EXPECT_NE(after, before);
  EXPECT_EQ(read.rows_emitted, 3u);
  ASSERT_OK_AND_ASSIGN(std::string reference, ColdSkyline("T", kCriteria));
  EXPECT_EQ(after, reference);
  EXPECT_EQ(engine_->cache_counters().repaired, 1u);
}

TEST_F(EngineSessionTest, DeleteOfMemberInvalidatesWhenRepairOff) {
  Engine::Options options;
  options.env = env_.get();
  options.write_sidecars = false;
  options.repair_deletes = false;
  engine_ = std::make_unique<Engine>(options);
  ASSERT_OK(CreateDemoTable());
  ASSERT_OK_AND_ASSIGN(std::string warmup, Collect(kSkylineQuery));

  Session::Outcome write;
  ASSERT_OK_AND_ASSIGN(std::string empty,
                       Collect("DELETE FROM T WHERE a = 3", &write));
  EXPECT_EQ(write.mutation.entries_repaired, 0u);
  EXPECT_EQ(write.mutation.entries_invalidated, 1u);
  EXPECT_EQ(engine_->cache_size(), 0u);

  // The next query refills from the new version — still correct.
  Session::Outcome read;
  ASSERT_OK_AND_ASSIGN(std::string after, Collect(kSkylineQuery, &read));
  EXPECT_FALSE(read.cache_hit);
  ASSERT_OK_AND_ASSIGN(std::string reference, ColdSkyline("T", kCriteria));
  EXPECT_EQ(after, reference);
}

TEST_F(EngineSessionTest, LruEvictsAtCapacity) {
  Engine::Options options;
  options.env = env_.get();
  options.write_sidecars = false;
  options.result_cache_capacity = 1;
  engine_ = std::make_unique<Engine>(options);
  ASSERT_OK(CreateDemoTable());
  ASSERT_OK_AND_ASSIGN(std::string q1, Collect(kSkylineQuery));
  ASSERT_OK_AND_ASSIGN(std::string q2,
                       Collect("SELECT * FROM T SKYLINE OF a MIN, b MIN"));
  EXPECT_EQ(engine_->cache_size(), 1u);
  EXPECT_EQ(engine_->cache_counters().evictions, 1u);
  // The first query was evicted: it misses again (and stays correct).
  Session::Outcome outcome;
  ASSERT_OK_AND_ASSIGN(std::string q1_again, Collect(kSkylineQuery, &outcome));
  EXPECT_FALSE(outcome.cache_hit);
  EXPECT_EQ(q1_again, q1);
}

TEST_F(EngineSessionTest, OrderByAndResidualPredicatesBypassTheCache) {
  ASSERT_OK(CreateDemoTable());
  Session::Outcome ordered;
  ASSERT_OK_AND_ASSIGN(
      std::string rows1,
      Collect("SELECT * FROM T SKYLINE OF a MAX, b MAX ORDER BY c", &ordered));
  EXPECT_FALSE(ordered.cache_eligible);
  // c != 10 cannot push into the constraint box, so the statement runs
  // through the pipeline even though it has a skyline clause.
  Session::Outcome residual;
  ASSERT_OK_AND_ASSIGN(
      std::string rows2,
      Collect("SELECT * FROM T WHERE c != 10 SKYLINE OF a MAX, b MAX",
              &residual));
  EXPECT_FALSE(residual.cache_eligible);
  EXPECT_EQ(engine_->cache_size(), 0u);
}

TEST_F(EngineSessionTest, WritesToUnknownTableFail) {
  ASSERT_OK(CreateDemoTable());
  Session session(engine_.get());
  auto visitor = [](const RowView&) { return Status::OK(); };
  EXPECT_TRUE(session.Execute("INSERT INTO missing VALUES (1)", visitor)
                  .IsNotFound());
  EXPECT_TRUE(session.Execute("DELETE FROM missing", visitor).IsNotFound());
}

TEST_F(EngineSessionTest, InsertRejectsOversizedStringInsteadOfTruncating) {
  // The fixed-string width is inferred from the CSV (here str[2]); an
  // over-long literal must error like a numeric out-of-range does, not
  // silently truncate.
  ASSERT_OK(engine_->CreateTableFromCsv("S", "name,score\naa,1\nbb,2\n"));
  Session session(engine_.get());
  auto visitor = [](const RowView&) { return Status::OK(); };
  Status status =
      session.Execute("INSERT INTO S VALUES ('too-long', 3)", visitor);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  ASSERT_OK_AND_ASSIGN(Engine::TableSnapshot snapshot, engine_->Snapshot("S"));
  EXPECT_EQ(snapshot.version, 1u);
  EXPECT_OK(session.Execute("INSERT INTO S VALUES ('cc', 3)", visitor));
}

TEST_F(EngineSessionTest, MultiRowInsertAndPredicatelessDelete) {
  ASSERT_OK(CreateDemoTable());
  Session::Outcome insert;
  ASSERT_OK_AND_ASSIGN(
      std::string empty,
      Collect("INSERT INTO T VALUES (7, 1, 80), (1, 7, 90)", &insert));
  EXPECT_EQ(insert.rows_affected, 2u);
  ASSERT_OK_AND_ASSIGN(std::string reference, ColdSkyline("T", kCriteria));
  ASSERT_OK_AND_ASSIGN(std::string rows, Collect(kSkylineQuery));
  EXPECT_EQ(rows, reference);

  Session::Outcome del;
  ASSERT_OK_AND_ASSIGN(std::string empty2, Collect("DELETE FROM T", &del));
  EXPECT_EQ(del.rows_affected, 7u);
  ASSERT_OK_AND_ASSIGN(Engine::TableSnapshot snapshot, engine_->Snapshot("T"));
  EXPECT_EQ(snapshot.table->row_count(), 0u);
  EXPECT_EQ(snapshot.version, 3u);
}

// Sessions built from identical Options must not share temp files. An
// ORDER BY query bypasses the result cache and runs the Volcano pipeline,
// whose presort (three buffer pages here, so several runs and merge
// levels) writes temp files named from the session's prefix. Session B
// runs the same query to completion from inside A's cancellation hook —
// polled at each of A's merge levels, while A's runs sit on disk waiting
// to be merged — so a shared prefix lets B overwrite and then delete A's
// runs. A row visitor is too late for this: by the first row every file
// of A's is written and open, and B rewrites them with identical bytes.
TEST_F(EngineSessionTest, InterleavedPipelineQueriesUseSeparateTempFiles) {
  ASSERT_OK_AND_ASSIGN(Table t,
                       testing_util::MakeUniformTable(env_.get(), "t", 3000,
                                                      3, 5));
  ASSERT_OK(engine_->CreateTable("T", std::move(t)));
  const std::string sql =
      "SELECT * FROM T SKYLINE OF a0 MAX, a1 MAX, a2 MAX ORDER BY a0 LIMIT 5";
  Session::Options options;
  options.sfs.sort_options.buffer_pages = 3;
  auto run = [&sql](Session* session, std::string* rows) {
    return session->Execute(sql, [rows](const RowView& row) {
      rows->append(row.data(), row.schema().row_width());
      return Status::OK();
    });
  };

  Session a(engine_.get(), options);
  Session b(engine_.get(), options);
  std::vector<Status> b_status;
  std::vector<std::string> b_rows;
  a.exec().cancelled = [&]() {
    b_rows.emplace_back();
    b_status.push_back(run(&b, &b_rows.back()));
    return false;
  };
  std::string a_rows;
  ASSERT_OK(run(&a, &a_rows));
  ASSERT_FALSE(b_status.empty());

  Session reference_session(engine_.get(), options);
  std::string reference;
  ASSERT_OK(run(&reference_session, &reference));
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(a_rows, reference);
  for (size_t i = 0; i < b_status.size(); ++i) {
    ASSERT_OK(b_status[i]);
    EXPECT_EQ(b_rows[i], reference) << "B run " << i;
  }
}

// The service guarantee under concurrency: N sessions issue a mix of
// reads and writes against one table; after every mutation batch the
// writer verifies the served (cached or patched) result is byte-identical
// to a cold ComputeSkyline of the current version. Readers continuously
// hit the cache while mutations rotate the version underneath them.
TEST_F(EngineSessionTest, ConcurrentMixedReadWriteStaysByteIdentical) {
  ASSERT_OK(CreateDemoTable());
  constexpr int kReaders = 4;
  constexpr int kBatches = 12;

  std::atomic<bool> done{false};
  std::atomic<uint64_t> reads_ok{0};
  std::atomic<bool> reader_failed{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([this, &done, &reads_ok, &reader_failed] {
      Session session(engine_.get());
      while (!done.load(std::memory_order_acquire)) {
        uint64_t rows = 0;
        Status status = session.Execute(kSkylineQuery,
                                        [&rows](const RowView&) {
                                          ++rows;
                                          return Status::OK();
                                        });
        if (!status.ok() || rows == 0) {
          reader_failed.store(true);
          return;
        }
        reads_ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Random rng(4242);
  Session writer(engine_.get());
  auto swallow = [](const RowView&) { return Status::OK(); };
  for (int batch = 0; batch < kBatches && !reader_failed.load(); ++batch) {
    if (batch % 3 == 2) {
      // Delete a random band of payload values; sometimes a member dies
      // and the repair path recomputes the cached entries.
      const int lo = static_cast<int>(rng.Uniform(100));
      std::string sql = "DELETE FROM T WHERE c >= " + std::to_string(lo) +
                        " AND c <= " + std::to_string(lo + 20);
      ASSERT_OK(writer.Execute(sql, swallow));
    } else {
      std::string sql = "INSERT INTO T VALUES";
      for (int i = 0; i < 3; ++i) {
        sql += (i == 0 ? " (" : ", (") + std::to_string(rng.Uniform(50)) +
               ", " + std::to_string(rng.Uniform(50)) + ", " +
               std::to_string(rng.Uniform(100)) + ")";
      }
      ASSERT_OK(writer.Execute(sql, swallow));
    }
    // The mutation is published: the served skyline at this instant must
    // equal a cold recompute of the current version, byte for byte.
    ASSERT_OK_AND_ASSIGN(std::string reference, ColdSkyline("T", kCriteria));
    ASSERT_OK_AND_ASSIGN(std::string served, Collect(kSkylineQuery));
    ASSERT_EQ(served, reference) << "batch " << batch;
  }

  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(reader_failed.load());
  EXPECT_GT(reads_ok.load(), 0u);
  const Engine::CacheCounters counters = engine_->cache_counters();
  EXPECT_GT(counters.hits, 0u);
  EXPECT_GT(counters.patched + counters.repaired + counters.invalidations,
            0u);
}

}  // namespace
}  // namespace skyline
