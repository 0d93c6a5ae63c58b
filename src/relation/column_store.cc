#include "relation/column_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/order_key.h"

namespace skyline {
namespace {

/// Matches DominanceIndex::kBlockEntries; the SFS block prefilter aligns
/// input blocks with these zones, so the granularities must agree.
constexpr uint32_t kZoneBlockRows = 64;

int64_t CanonicalKey(ColumnType type, const char* value_bytes) {
  switch (type) {
    case ColumnType::kInt32: {
      int32_t v;
      std::memcpy(&v, value_bytes, sizeof(v));
      return v;
    }
    case ColumnType::kInt64: {
      int64_t v;
      std::memcpy(&v, value_bytes, sizeof(v));
      return v;
    }
    case ColumnType::kFloat64: {
      double v;
      std::memcpy(&v, value_bytes, sizeof(v));
      return Float64TotalOrderKey(v);
    }
    case ColumnType::kFixedString:
      break;  // handled by the dictionary path
  }
  return 0;
}

ColumnFileKind KindFor(ColumnType type) {
  switch (type) {
    case ColumnType::kInt32:
      return ColumnFileKind::kKeyInt32;
    case ColumnType::kInt64:
    case ColumnType::kFloat64:
      return ColumnFileKind::kKeyInt64;
    case ColumnType::kFixedString:
      return ColumnFileKind::kDictCode;
  }
  return ColumnFileKind::kKeyInt32;
}

/// Size of a sidecar file, 0 when absent — a cheap content stamp that
/// changes whenever the sidecar is written or removed.
uint64_t SidecarStamp(Env* env, const std::string& path) {
  if (!env->FileExists(path)) return 0;
  auto size = env->FileSize(path);
  return size.ok() ? *size : 0;
}

std::string CacheKey(const Table& table) {
  char buf[128];
  std::snprintf(
      buf, sizeof(buf), "%p|%llu|c%llu|i%llu|",
      static_cast<const void*>(table.env()),
      static_cast<unsigned long long>(table.row_count()),
      static_cast<unsigned long long>(
          SidecarStamp(table.env(), ColumnFilePathFor(table.path()))),
      static_cast<unsigned long long>(
          SidecarStamp(table.env(), BlockIndexPathFor(table.path()))));
  return std::string(buf) + table.path();
}

/// Loads and validates the index sidecar against `zones`; null when the
/// sidecar is absent, corrupt, or shaped for a different table version —
/// the caller then simply runs without an index.
std::shared_ptr<const BlockSkylineIndex> TryLoadBlockIndex(
    const Table& table, const TableColumnZones& zones) {
  const std::string path = BlockIndexPathFor(table.path());
  if (!table.env()->FileExists(path)) return nullptr;
  auto loaded = ReadBlockIndexFile(table.env(), path);
  if (!loaded.ok()) return nullptr;
  auto index = std::make_shared<BlockSkylineIndex>(std::move(loaded).value());
  if (index->block_rows != zones.block_rows ||
      index->row_count != zones.row_count ||
      index->num_columns != zones.columns.size()) {
    return nullptr;
  }
  return index;
}

/// Scans the table once, producing canonical keys per column. When
/// `keys_out` is non-null the full key columns are kept (column-file
/// write); otherwise only zones and dictionaries survive.
Result<std::shared_ptr<TableColumnZones>> ScanTable(
    const Table& table, std::vector<ColumnFileColumn>* keys_out) {
  const Schema& schema = table.schema();
  auto zones = std::make_shared<TableColumnZones>();
  zones->block_rows = kZoneBlockRows;
  zones->row_count = table.row_count();
  zones->source = "scan";
  zones->columns.resize(schema.num_columns());
  const size_t blocks = static_cast<size_t>(
      (table.row_count() + kZoneBlockRows - 1) / kZoneBlockRows);
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    auto& col = zones->columns[c];
    col.zmin.assign(blocks, std::numeric_limits<int64_t>::max());
    col.zmax.assign(blocks, std::numeric_limits<int64_t>::min());
    if (schema.column(c).type == ColumnType::kFixedString) {
      col.dict =
          std::make_shared<StringDictionary>(schema.column(c).string_length);
    }
  }
  if (keys_out != nullptr) {
    keys_out->resize(schema.num_columns());
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      auto& out = (*keys_out)[c];
      out.kind = KindFor(schema.column(c).type);
      out.raw_width = static_cast<uint32_t>(ColumnWidth(
          schema.column(c).type, schema.column(c).string_length));
      if (out.kind == ColumnFileKind::kKeyInt64) {
        out.data64.reserve(table.row_count());
      } else {
        out.data32.reserve(table.row_count());
      }
    }
  }

  IoStats io;
  auto reader = table.NewReader(&io);
  SKYLINE_RETURN_IF_ERROR(reader->Open());
  uint64_t i = 0;
  while (const char* row = reader->Next()) {
    const size_t b = static_cast<size_t>(i / kZoneBlockRows);
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      auto& col = zones->columns[c];
      const char* bytes = row + schema.offset(c);
      int64_t key;
      if (col.dict != nullptr) {
        key = col.dict->Encode(bytes);
      } else {
        key = CanonicalKey(schema.column(c).type, bytes);
      }
      if (key < col.zmin[b]) col.zmin[b] = key;
      if (key > col.zmax[b]) col.zmax[b] = key;
      if (keys_out != nullptr) {
        auto& out = (*keys_out)[c];
        if (out.kind == ColumnFileKind::kKeyInt64) {
          out.data64.push_back(key);
        } else {
          out.data32.push_back(static_cast<int32_t>(key));
        }
      }
    }
    ++i;
  }
  SKYLINE_RETURN_IF_ERROR(reader->status());
  if (i != table.row_count()) {
    return Status::Corruption("table scan returned " + std::to_string(i) +
                              " rows, expected " +
                              std::to_string(table.row_count()));
  }
  if (keys_out != nullptr) {
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      auto& out = (*keys_out)[c];
      const auto& dict = zones->columns[c].dict;
      if (dict != nullptr) {
        out.dict_entries = static_cast<uint32_t>(dict->size());
        out.dict = dict->SerializedValues();
      }
    }
  }
  return zones;
}

}  // namespace

std::string ColumnFilePathFor(const std::string& table_path) {
  return table_path + ".cols";
}

Result<std::shared_ptr<const TableColumnZones>> BuildTableColumnZones(
    const Table& table) {
  SKYLINE_ASSIGN_OR_RETURN(std::shared_ptr<TableColumnZones> zones,
                           ScanTable(table, nullptr));
  return std::shared_ptr<const TableColumnZones>(std::move(zones));
}

Status WriteTableColumnFile(const Table& table) {
  ColumnFileContents contents;
  contents.block_rows = kZoneBlockRows;
  contents.row_count = table.row_count();
  SKYLINE_ASSIGN_OR_RETURN(std::shared_ptr<TableColumnZones> zones,
                           ScanTable(table, &contents.columns));
  (void)zones;
  return WriteColumnFile(table.env(), ColumnFilePathFor(table.path()),
                         std::move(contents));
}

Status WriteTableBlockIndex(const Table& table) {
  std::shared_ptr<const TableColumnZones> zones;
  if (table.env()->FileExists(ColumnFilePathFor(table.path()))) {
    auto loaded = LoadTableColumnZones(table);
    if (loaded.ok()) zones = std::move(loaded).value();
  }
  if (zones == nullptr) {
    SKYLINE_ASSIGN_OR_RETURN(zones, BuildTableColumnZones(table));
  }
  const Schema& schema = table.schema();
  std::vector<BlockIndexColumnZones> columns(zones->columns.size());
  for (size_t c = 0; c < zones->columns.size(); ++c) {
    columns[c].zmin = &zones->columns[c].zmin;
    columns[c].zmax = &zones->columns[c].zmax;
    columns[c].numeric = schema.column(c).type != ColumnType::kFixedString;
  }
  SKYLINE_ASSIGN_OR_RETURN(
      BlockSkylineIndex index,
      BuildBlockIndex(zones->block_rows, zones->row_count, columns));
  return WriteBlockIndexFile(table.env(), BlockIndexPathFor(table.path()),
                             index);
}

Result<Table> ClusterTableZOrder(const Table& input,
                                 const std::string& output_path) {
  const Schema& schema = input.schema();
  const size_t width = schema.row_width();
  std::vector<char> rows;
  SKYLINE_RETURN_IF_ERROR(input.ReadAllRows(&rows));
  const size_t n = static_cast<size_t>(input.row_count());

  // Numeric columns only — string payloads carry no spatial meaning and
  // dictionary codes are assigned in discovery order.
  std::vector<size_t> zcols;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (schema.column(c).type != ColumnType::kFixedString) zcols.push_back(c);
  }

  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  if (!zcols.empty() && n > 0) {
    // Same Morton geometry as the index bulk load: per-column quantization
    // into the global key range, MSB-first round-robin interleave.
    const uint32_t bits = static_cast<uint32_t>(
        std::min<size_t>(16, std::max<size_t>(1, 64 / zcols.size())));
    const uint64_t maxq = (1ULL << bits) - 1;
    std::vector<std::vector<int64_t>> keys(zcols.size());
    std::vector<int64_t> gmin(zcols.size()), gmax(zcols.size());
    for (size_t i = 0; i < zcols.size(); ++i) {
      const size_t c = zcols[i];
      const ColumnType type = schema.column(c).type;
      const size_t offset = schema.offset(c);
      keys[i].resize(n);
      for (size_t r = 0; r < n; ++r) {
        keys[i][r] = CanonicalKey(type, rows.data() + r * width + offset);
      }
      gmin[i] = *std::min_element(keys[i].begin(), keys[i].end());
      gmax[i] = *std::max_element(keys[i].begin(), keys[i].end());
    }
    std::vector<uint64_t> code(n, 0);
    for (size_t r = 0; r < n; ++r) {
      uint64_t m = 0;
      for (uint32_t bit = bits; bit-- > 0;) {
        for (size_t i = 0; i < zcols.size(); ++i) {
          uint64_t q = 0;
          if (gmax[i] > gmin[i]) {
            const __int128 off =
                static_cast<__int128>(keys[i][r]) - gmin[i];
            const __int128 range =
                static_cast<__int128>(gmax[i]) - gmin[i];
            q = static_cast<uint64_t>((off * maxq) / range);
          }
          m = (m << 1) | ((q >> bit) & 1);
        }
      }
      code[r] = m;
    }
    std::sort(order.begin(), order.end(), [&code](size_t a, size_t b) {
      return code[a] != code[b] ? code[a] < code[b] : a < b;
    });
  }

  TableBuilder builder(input.env(), output_path, schema);
  SKYLINE_RETURN_IF_ERROR(builder.Open());
  for (size_t i : order) {
    SKYLINE_RETURN_IF_ERROR(builder.AppendRaw(rows.data() + i * width));
  }
  return builder.Finish();
}

Result<std::shared_ptr<const TableColumnZones>> LoadTableColumnZones(
    const Table& table) {
  const std::string path = ColumnFilePathFor(table.path());
  SKYLINE_ASSIGN_OR_RETURN(ColumnFileContents contents,
                           ReadColumnFile(table.env(), path));
  const Schema& schema = table.schema();
  if (contents.row_count != table.row_count() ||
      contents.columns.size() != schema.num_columns()) {
    return Status::Corruption("column file " + path +
                              " does not match table shape");
  }
  auto zones = std::make_shared<TableColumnZones>();
  zones->block_rows = contents.block_rows;
  zones->row_count = contents.row_count;
  zones->source = "column_file";
  zones->columns.resize(contents.columns.size());
  for (size_t c = 0; c < contents.columns.size(); ++c) {
    auto& file_col = contents.columns[c];
    const ColumnDef& def = schema.column(c);
    if (file_col.kind != KindFor(def.type) ||
        file_col.raw_width != ColumnWidth(def.type, def.string_length)) {
      return Status::Corruption("column file " + path +
                                " column kind mismatch at index " +
                                std::to_string(c));
    }
    auto& col = zones->columns[c];
    col.zmin = std::move(file_col.zmin);
    col.zmax = std::move(file_col.zmax);
    if (file_col.kind == ColumnFileKind::kDictCode) {
      col.dict = std::make_shared<StringDictionary>(StringDictionary::FromValues(
          file_col.raw_width, file_col.dict));
    }
  }
  return std::shared_ptr<const TableColumnZones>(std::move(zones));
}

TableZoneCache& TableZoneCache::Instance() {
  static TableZoneCache* cache = new TableZoneCache();
  return *cache;
}

Result<std::shared_ptr<const TableColumnZones>> TableZoneCache::GetOrLoad(
    const Table& table, bool* cache_hit) {
  const std::string key = CacheKey(table);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].key == key) {
        // Move to the back (most recently used).
        std::rotate(entries_.begin() + i, entries_.begin() + i + 1,
                    entries_.end());
        if (cache_hit != nullptr) *cache_hit = true;
        return entries_.back().zones;
      }
    }
  }
  if (cache_hit != nullptr) *cache_hit = false;
  // Load outside the lock: scans can be slow and concurrent loaders of the
  // same table produce identical zones anyway.
  std::shared_ptr<const TableColumnZones> zones;
  if (table.env()->FileExists(ColumnFilePathFor(table.path()))) {
    auto loaded = LoadTableColumnZones(table);
    if (loaded.ok()) zones = std::move(loaded).value();
    // A stale or corrupt column file degrades to a scan, never to an error.
  }
  if (zones == nullptr) {
    SKYLINE_ASSIGN_OR_RETURN(zones, BuildTableColumnZones(table));
  }
  if (auto index = TryLoadBlockIndex(table, *zones)) {
    // Zones are shared immutable once cached; attach the index to a copy
    // (vectors only — dictionaries are shared) rather than mutating.
    auto with_index = std::make_shared<TableColumnZones>(*zones);
    with_index->block_index = std::move(index);
    zones = std::move(with_index);
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : entries_) {
    if (entry.key == key) {
      entry.zones = zones;  // lost the race; keep the freshest
      return zones;
    }
  }
  if (entries_.size() >= kMaxEntries) entries_.erase(entries_.begin());
  entries_.push_back({key, zones});
  return zones;
}

void TableZoneCache::Erase(const Table& table) {
  const std::string key = CacheKey(table);
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(entries_, [&key](const Entry& e) { return e.key == key; });
}

size_t TableZoneCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void TableZoneCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

}  // namespace skyline
