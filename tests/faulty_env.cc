#include "faulty_env.h"

namespace skyline {
namespace testing_util {
namespace {

class FaultyWritableFile : public WritableFile {
 public:
  FaultyWritableFile(std::unique_ptr<WritableFile> base, FaultyEnv* env)
      : base_(std::move(base)), env_(env) {}

  Status Append(const char* data, size_t size) override {
    if (env_->ConsumeWrite()) {
      return Status::IoError("injected write failure");
    }
    return base_->Append(data, size);
  }

  Status Close() override { return base_->Close(); }
  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<WritableFile> base_;
  FaultyEnv* env_;
};

class FaultyRandomAccessFile : public RandomAccessFile {
 public:
  FaultyRandomAccessFile(std::unique_ptr<RandomAccessFile> base,
                         FaultyEnv* env)
      : base_(std::move(base)), env_(env) {}

  Status Read(uint64_t offset, size_t size, char* scratch) const override {
    if (env_->ConsumeRead()) {
      return Status::IoError("injected read failure");
    }
    return base_->Read(offset, size, scratch);
  }

  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  FaultyEnv* env_;
};

}  // namespace

namespace {

/// Takes one unit from `budget` unless it is exhausted (0) or disabled
/// (negative); true when the operation should fail.
bool Consume(std::atomic<int64_t>* budget) {
  int64_t left = budget->load();
  while (left > 0 && !budget->compare_exchange_weak(left, left - 1)) {
  }
  return left == 0;
}

}  // namespace

bool FaultyEnv::ConsumeWrite() { return Consume(&writes_left_); }

bool FaultyEnv::ConsumeRead() { return Consume(&reads_left_); }

Status FaultyEnv::NewWritableFile(const std::string& path,
                                  std::unique_ptr<WritableFile>* out) {
  std::unique_ptr<WritableFile> base_file;
  SKYLINE_RETURN_IF_ERROR(base_->NewWritableFile(path, &base_file));
  *out = std::make_unique<FaultyWritableFile>(std::move(base_file), this);
  return Status::OK();
}

Status FaultyEnv::NewRandomAccessFile(const std::string& path,
                                      std::unique_ptr<RandomAccessFile>* out) {
  std::unique_ptr<RandomAccessFile> base_file;
  SKYLINE_RETURN_IF_ERROR(base_->NewRandomAccessFile(path, &base_file));
  *out = std::make_unique<FaultyRandomAccessFile>(std::move(base_file), this);
  return Status::OK();
}

}  // namespace testing_util
}  // namespace skyline
