#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "env/env.h"

namespace skyline {
namespace {

/// Shared bytes of one in-memory "file". Ref-counted so an open reader
/// stays valid if the file is deleted from the namespace. The bytes live
/// in fixed-size chunks rather than one growing vector: an append never
/// copies what is already written, so a growing file never holds its
/// bytes twice.
struct FileBlob {
  static constexpr size_t kChunkBytes = size_t{1} << 18;  // 256 KiB

  std::vector<std::unique_ptr<char[]>> chunks;
  uint64_t size = 0;

  void Append(const char* data, size_t n) {
    while (n > 0) {
      const size_t at = static_cast<size_t>(size % kChunkBytes);
      if (at == 0 && size / kChunkBytes == chunks.size()) {
        chunks.push_back(std::make_unique_for_overwrite<char[]>(kChunkBytes));
      }
      const size_t take = std::min(n, kChunkBytes - at);
      std::memcpy(chunks[size / kChunkBytes].get() + at, data, take);
      data += take;
      n -= take;
      size += take;
    }
  }

  void Read(uint64_t offset, size_t n, char* out) const {
    while (n > 0) {
      const size_t at = static_cast<size_t>(offset % kChunkBytes);
      const size_t take = std::min(n, kChunkBytes - at);
      std::memcpy(out, chunks[offset / kChunkBytes].get() + at, take);
      out += take;
      n -= take;
      offset += take;
    }
  }
};

class MemWritableFile : public WritableFile {
 public:
  explicit MemWritableFile(std::shared_ptr<FileBlob> blob)
      : blob_(std::move(blob)) {}

  Status Append(const char* data, size_t size) override {
    if (closed_) return Status::IoError("append to closed file");
    blob_->Append(data, size);
    return Status::OK();
  }

  Status Close() override {
    closed_ = true;
    return Status::OK();
  }

  uint64_t Size() const override { return blob_->size; }

 private:
  std::shared_ptr<FileBlob> blob_;
  bool closed_ = false;
};

class MemRandomAccessFile : public RandomAccessFile {
 public:
  explicit MemRandomAccessFile(std::shared_ptr<FileBlob> blob)
      : blob_(std::move(blob)) {}

  Status Read(uint64_t offset, size_t size, char* scratch) const override {
    if (offset + size > blob_->size) {
      return Status::OutOfRange("read past end of file");
    }
    blob_->Read(offset, size, scratch);
    return Status::OK();
  }

  uint64_t Size() const override { return blob_->size; }

 private:
  std::shared_ptr<FileBlob> blob_;
};

class MemEnv : public Env {
 public:
  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* out) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto blob = std::make_shared<FileBlob>();
    files_[path] = blob;
    *out = std::make_unique<MemWritableFile>(std::move(blob));
    return Status::OK();
  }

  Status NewRandomAccessFile(const std::string& path,
                             std::unique_ptr<RandomAccessFile>* out) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(path);
    if (it == files_.end()) return Status::NotFound(path);
    *out = std::make_unique<MemRandomAccessFile>(it->second);
    return Status::OK();
  }

  Status DeleteFile(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (files_.erase(path) == 0) return Status::NotFound(path);
    return Status::OK();
  }

  bool FileExists(const std::string& path) const override {
    std::lock_guard<std::mutex> lock(mu_);
    return files_.count(path) > 0;
  }

  Result<uint64_t> FileSize(const std::string& path) const override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(path);
    if (it == files_.end()) return Status::NotFound(path);
    return it->second->size;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<FileBlob>> files_;
};

}  // namespace

std::unique_ptr<Env> NewMemEnv() { return std::make_unique<MemEnv>(); }

}  // namespace skyline
