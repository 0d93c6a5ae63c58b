#include "storage/heap_file.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace skyline {

Result<uint64_t> HeapFileRecordCount(uint64_t file_size, size_t record_size) {
  const uint64_t per_page = RecordsPerPage(record_size);
  const uint64_t full_pages = file_size / kPageSize;
  const uint64_t tail_bytes = file_size % kPageSize;
  if (tail_bytes % record_size != 0) {
    return Status::Corruption("heap file size not a whole number of records");
  }
  return full_pages * per_page + tail_bytes / record_size;
}

Result<std::vector<char>> ReadEvenlySpacedRecords(
    Env* env, const std::string& path, size_t record_size, uint64_t sample) {
  HeapFileReader reader(env, path, record_size, nullptr);
  SKYLINE_RETURN_IF_ERROR(reader.Open());
  const uint64_t step = std::max<uint64_t>(1, reader.record_count() / sample);
  std::vector<char> records;
  for (uint64_t pos = 0; pos < reader.record_count(); pos += step) {
    SKYLINE_RETURN_IF_ERROR(reader.SeekToRecord(pos));
    const char* record = reader.Next();
    if (record == nullptr) {
      return reader.status().ok() ? Status::Corruption("sample read past end")
                                  : reader.status();
    }
    records.insert(records.end(), record, record + record_size);
  }
  return records;
}

uint64_t HeapFilePageCount(uint64_t record_count, size_t record_size) {
  const uint64_t per_page = RecordsPerPage(record_size);
  return (record_count + per_page - 1) / per_page;
}

HeapFileWriter::HeapFileWriter(Env* env, std::string path, size_t record_size,
                               IoStats* stats)
    : env_(env), path_(std::move(path)), stats_(stats), buffer_(record_size) {}

Status HeapFileWriter::Open() { return env_->NewWritableFile(path_, &file_); }

Status HeapFileWriter::Append(const char* record) {
  SKYLINE_CHECK(file_ != nullptr) << "Append before Open on " << path_;
  SKYLINE_CHECK(!finished_) << "Append after Finish on " << path_;
  buffer_.Append(record);
  ++records_written_;
  if (buffer_.full()) {
    return FlushPage(/*pad_to_page_size=*/true);
  }
  return Status::OK();
}

Status HeapFileWriter::Finish() {
  if (finished_) return Status::OK();
  finished_ = true;
  if (!buffer_.empty()) {
    // The tail page is written unpadded so the record count stays derivable
    // from the file size.
    SKYLINE_RETURN_IF_ERROR(FlushPage(/*pad_to_page_size=*/false));
  }
  if (file_ != nullptr) {
    SKYLINE_RETURN_IF_ERROR(file_->Close());
  }
  return Status::OK();
}

Status HeapFileWriter::FlushPage(bool pad_to_page_size) {
  const size_t bytes = pad_to_page_size ? kPageSize : buffer_.payload_bytes();
  // Zero the padding so file contents are deterministic.
  if (pad_to_page_size && buffer_.payload_bytes() < kPageSize) {
    std::memset(buffer_.mutable_data() + buffer_.payload_bytes(), 0,
                kPageSize - buffer_.payload_bytes());
  }
  SKYLINE_RETURN_IF_ERROR(file_->Append(buffer_.data(), bytes));
  buffer_.Clear();
  ++pages_flushed_;
  if (stats_ != nullptr) ++stats_->pages_written;
  return Status::OK();
}

HeapFileReader::HeapFileReader(Env* env, std::string path, size_t record_size,
                               IoStats* stats)
    : env_(env), path_(std::move(path)), stats_(stats), page_(record_size) {}

Status HeapFileReader::Open() {
  SKYLINE_RETURN_IF_ERROR(env_->NewRandomAccessFile(path_, &file_));
  // Heap scans are front-to-back page reads; let the OS read ahead.
  file_->Hint(RandomAccessFile::AccessPattern::kSequential, 0, 0);
  file_size_ = file_->Size();
  SKYLINE_ASSIGN_OR_RETURN(record_count_,
                           HeapFileRecordCount(file_size_, record_size()));
  page_count_ = HeapFilePageCount(record_count_, record_size());
  opened_ = true;
  return Status::OK();
}

const char* HeapFileReader::Next() {
  SKYLINE_CHECK(opened_) << "Next before Open on " << path_;
  if (!status_.ok()) return nullptr;
  if (record_index_ >= page_.size()) {
    if (!LoadNextPage()) return nullptr;
  }
  const char* record = page_.RecordAt(record_index_);
  ++record_index_;
  ++records_returned_;
  return record;
}

Status HeapFileReader::SeekToRecord(uint64_t record) {
  SKYLINE_CHECK(opened_) << "SeekToRecord before Open on " << path_;
  SKYLINE_RETURN_IF_ERROR(status_);
  if (record > record_count_) {
    return Status::InvalidArgument("seek past end of " + path_);
  }
  page_.set_size(0);
  record_index_ = 0;
  if (record == record_count_) {
    page_index_ = page_count_;
    return Status::OK();
  }
  const uint64_t per_page = RecordsPerPage(record_size());
  page_index_ = record / per_page;
  if (!LoadNextPage()) {
    return status_.ok() ? Status::OutOfRange("seek past end of " + path_)
                        : status_;
  }
  record_index_ = static_cast<size_t>(record % per_page);
  return Status::OK();
}

bool HeapFileReader::LoadNextPage() {
  if (page_index_ >= page_count_) return false;
  const uint64_t offset = page_index_ * kPageSize;
  const uint64_t remaining_records =
      record_count_ - page_index_ * RecordsPerPage(record_size());
  const size_t records_on_page = static_cast<size_t>(
      std::min<uint64_t>(remaining_records, RecordsPerPage(record_size())));
  const uint64_t bytes_left = file_size_ - offset;
  const size_t bytes =
      static_cast<size_t>(std::min<uint64_t>(kPageSize, bytes_left));
  Status st = file_->Read(offset, bytes, page_.mutable_data());
  if (!st.ok()) {
    status_ = st;
    return false;
  }
  page_.set_size(records_on_page);
  record_index_ = 0;
  ++page_index_;
  if (stats_ != nullptr) ++stats_->pages_read;
  return true;
}

}  // namespace skyline
