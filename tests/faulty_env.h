#ifndef SKYLINE_TESTS_FAULTY_ENV_H_
#define SKYLINE_TESTS_FAULTY_ENV_H_

#include <atomic>
#include <memory>

#include "env/env.h"

namespace skyline {
namespace testing_util {

/// Env decorator that injects I/O failures: after `fail_after_writes`
/// successful Append calls (across all files) every further Append fails,
/// and likewise for reads. Used to verify that every algorithm propagates
/// storage errors as Status instead of crashing or mis-reporting. The
/// budgets are shared by concurrent workers (the parallel deal's slice
/// writers), so they are atomic.
class FaultyEnv : public Env {
 public:
  explicit FaultyEnv(Env* base) : base_(base) {}

  /// -1 disables injection for that operation kind.
  void set_fail_after_writes(int64_t n) { writes_left_ = n; }
  void set_fail_after_reads(int64_t n) { reads_left_ = n; }

  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* out) override;
  Status NewRandomAccessFile(const std::string& path,
                             std::unique_ptr<RandomAccessFile>* out) override;
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  bool FileExists(const std::string& path) const override {
    return base_->FileExists(path);
  }
  Result<uint64_t> FileSize(const std::string& path) const override {
    return base_->FileSize(path);
  }

  /// Consumes one budget unit; true if the operation should fail. Public
  /// for the wrapper file classes (internal to the implementation).
  bool ConsumeWrite();
  bool ConsumeRead();

 private:
  Env* base_;
  std::atomic<int64_t> writes_left_{-1};
  std::atomic<int64_t> reads_left_{-1};
};

}  // namespace testing_util
}  // namespace skyline

#endif  // SKYLINE_TESTS_FAULTY_ENV_H_
