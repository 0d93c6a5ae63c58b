#ifndef SKYLINE_RELATION_COLUMN_STORE_H_
#define SKYLINE_RELATION_COLUMN_STORE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "index/block_index.h"
#include "relation/dictionary.h"
#include "relation/table.h"
#include "storage/column_file.h"

namespace skyline {

/// Spec-independent columnar summary of a table: per-column, per-block
/// min/max in the *canonical ascending key space* (raw int32/int64 values
/// widened to int64, float64 as total-order bits, strings as dictionary
/// codes), plus the per-string-column dictionaries. Built once per table —
/// preferably by loading the persisted column file, else by one scan —
/// and shared across queries; a skyline spec applies its MIN/MAX flips at
/// query time, so the same zones serve every spec over the table.
struct TableColumnZones {
  struct Column {
    std::vector<int64_t> zmin, zmax;  // one per block, canonical keys
    /// Strings only: code -> value mapping matching the zone-map codes.
    std::shared_ptr<StringDictionary> dict;
  };

  uint32_t block_rows = 0;
  uint64_t row_count = 0;
  /// "column_file" when loaded from the persisted sidecar, "scan" when
  /// rebuilt from the heap file.
  const char* source = "scan";
  std::vector<Column> columns;  // one per schema column, in schema order
  /// Z-order block index over these zones, attached when a valid index
  /// sidecar exists next to the table; null otherwise (BBS degrades to a
  /// scan-based algorithm). Validated against block_rows / row_count /
  /// column count at load time.
  std::shared_ptr<const BlockSkylineIndex> block_index;
};

/// Path of the columnar sidecar for a heap file at `table_path`.
std::string ColumnFilePathFor(const std::string& table_path);

/// Scans `table` once and builds its zone maps and dictionaries in memory.
Result<std::shared_ptr<const TableColumnZones>> BuildTableColumnZones(
    const Table& table);

/// Persists the table's full columnar image (keys, zone maps,
/// dictionaries) to ColumnFilePathFor(table.path()) in the table's Env.
Status WriteTableColumnFile(const Table& table);

/// Loads zones from an existing column file, validating it against the
/// table's schema and row count. NotFound when no column file exists.
Result<std::shared_ptr<const TableColumnZones>> LoadTableColumnZones(
    const Table& table);

/// Bulk-loads the z-order block index from the table's zone maps
/// (persisted column file preferred, else one scan) and persists it to
/// BlockIndexPathFor(table.path()) in the table's Env.
Status WriteTableBlockIndex(const Table& table);

/// Rewrites `input`'s rows at `output_path` in z-order (Morton) of their
/// numeric columns' canonical keys. Clustering is what gives the block
/// index its pruning power: 64-row blocks of a z-ordered file are tight
/// cells in key space, so their zone corners are dominated (and the blocks
/// skipped) as soon as any better cell contributes a skyline point — over
/// a randomly ordered file every block's corner compounds 64 unrelated
/// rows and approaches the global maximum. The result is a row-multiset-
/// identical table; build the column file and index sidecars against the
/// clustered table, not the original. In-memory: intended for table load /
/// maintenance time, alongside the sidecar writes.
Result<Table> ClusterTableZOrder(const Table& input,
                                 const std::string& output_path);

/// Process-wide cache of TableColumnZones keyed by table identity
/// (env instance, heap-file path, row count, and the sizes of the column
/// and index sidecars — the row count stands in for a version: tables are
/// immutable once built, and a rebuilt table with the same path virtually
/// always changes its size; the sidecar sizes ensure a table whose column
/// file or index is (re)written never serves stale zones). Repeated queries on
/// one table — the sql_shell session pattern — reuse the zones instead of
/// rescanning; when a persisted column file exists it is preferred over a
/// scan on first load. Thread-safe; holds at most a handful of tables
/// (LRU-evicted).
class TableZoneCache {
 public:
  static TableZoneCache& Instance();

  /// Returns zones for `table`, loading (column file first, else scan) on
  /// miss. `cache_hit` (may be null) reports whether the zones came from
  /// the cache.
  Result<std::shared_ptr<const TableColumnZones>> GetOrLoad(const Table& table,
                                                            bool* cache_hit);

  /// Drops `table`'s entry, if any. A caller that rebuilds a table at a
  /// reused path with the same row count (a staged temp table) erases it
  /// first, since the key cannot tell the two apart.
  void Erase(const Table& table);

  size_t size() const;
  void Clear();

 private:
  static constexpr size_t kMaxEntries = 16;

  struct Entry {
    std::string key;
    std::shared_ptr<const TableColumnZones> zones;
  };

  mutable std::mutex mu_;
  /// LRU order: most recently used last.
  std::vector<Entry> entries_;
};

}  // namespace skyline

#endif  // SKYLINE_RELATION_COLUMN_STORE_H_
