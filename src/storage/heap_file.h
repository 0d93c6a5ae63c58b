#ifndef SKYLINE_STORAGE_HEAP_FILE_H_
#define SKYLINE_STORAGE_HEAP_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "env/env.h"
#include "storage/io_stats.h"
#include "storage/page.h"

namespace skyline {

/// Append-only writer of a paged heap file of fixed-width records.
///
/// Layout: every page except possibly the last occupies exactly kPageSize
/// bytes and holds RecordsPerPage(record_size) records; the final page is
/// written unpadded (payload bytes only), which makes the record count
/// recoverable from the file size alone.
///
/// Each flushed page increments `stats->pages_written` (if stats given).
class HeapFileWriter {
 public:
  /// Creates (truncating) `path` in `env`. `stats` may be null.
  HeapFileWriter(Env* env, std::string path, size_t record_size,
                 IoStats* stats);

  HeapFileWriter(const HeapFileWriter&) = delete;
  HeapFileWriter& operator=(const HeapFileWriter&) = delete;

  /// Opens the underlying file. Must be called (and succeed) before Append.
  Status Open();

  /// Appends one record of record_size bytes.
  Status Append(const char* record);

  /// Flushes the partial tail page and closes the file. Idempotent.
  Status Finish();

  uint64_t records_written() const { return records_written_; }

  /// Pages flushed so far (including the tail page once Finish runs).
  uint64_t pages_flushed() const { return pages_flushed_; }

  const std::string& path() const { return path_; }
  size_t record_size() const { return buffer_.record_size(); }

 private:
  Status FlushPage(bool pad_to_page_size);

  Env* env_;
  std::string path_;
  IoStats* stats_;
  Page buffer_;
  std::unique_ptr<WritableFile> file_;
  uint64_t records_written_ = 0;
  uint64_t pages_flushed_ = 0;
  bool finished_ = false;
};

/// Sequential page-at-a-time reader over a heap file written by
/// HeapFileWriter. Each page fetch increments `stats->pages_read`.
class HeapFileReader {
 public:
  /// `stats` may be null.
  HeapFileReader(Env* env, std::string path, size_t record_size,
                 IoStats* stats);

  HeapFileReader(const HeapFileReader&) = delete;
  HeapFileReader& operator=(const HeapFileReader&) = delete;

  /// Opens the file and computes the record count from its size.
  Status Open();

  /// Returns a pointer to the next record, or nullptr at end-of-stream or on
  /// error (check status()). The pointer is valid until the next call.
  const char* Next();

  /// Repositions the stream so the next Next() returns record `record`
  /// (0-based). Pages are fixed-size, so this is a single page fetch, which
  /// lets the block-parallel readers jump straight to their partition.
  /// `record` == record_count() positions at end-of-stream.
  Status SeekToRecord(uint64_t record);

  /// OK unless a read failed.
  const Status& status() const { return status_; }

  /// Total records in the file (valid after Open).
  uint64_t record_count() const { return record_count_; }

  /// Total pages in the file (valid after Open).
  uint64_t page_count() const { return page_count_; }

  /// Records returned by Next() so far.
  uint64_t records_returned() const { return records_returned_; }

  const std::string& path() const { return path_; }
  size_t record_size() const { return page_.record_size(); }

 private:
  /// Loads page `page_index_` into the buffer; false at end or on error.
  bool LoadNextPage();

  Env* env_;
  std::string path_;
  IoStats* stats_;
  Page page_;
  std::unique_ptr<RandomAccessFile> file_;
  Status status_;
  uint64_t file_size_ = 0;
  uint64_t record_count_ = 0;
  uint64_t page_count_ = 0;
  uint64_t page_index_ = 0;   // next page to load
  size_t record_index_ = 0;   // next record within the loaded page
  uint64_t records_returned_ = 0;
  bool opened_ = false;
};

/// Computes the number of records in a heap file of `file_size` bytes with
/// the HeapFileWriter layout. Returns Corruption on an inconsistent size.
Result<uint64_t> HeapFileRecordCount(uint64_t file_size, size_t record_size);

/// Number of pages a heap file with `record_count` records occupies.
uint64_t HeapFilePageCount(uint64_t record_count, size_t record_size);

/// Every (count / `sample`)-th record of the heap file at `path` (at least
/// every record), from the first, concatenated in file order: an evenly
/// spaced sample of about `sample` (> 0) records that two calls agree on.
Result<std::vector<char>> ReadEvenlySpacedRecords(
    Env* env, const std::string& path, size_t record_size, uint64_t sample);

}  // namespace skyline

#endif  // SKYLINE_STORAGE_HEAP_FILE_H_
