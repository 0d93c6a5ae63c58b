#ifndef SKYLINE_COMMON_EXEC_CONTEXT_H_
#define SKYLINE_COMMON_EXEC_CONTEXT_H_

#include <cstddef>
#include <functional>
#include <optional>
#include <string>

#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"

namespace skyline {

/// Per-execution environment every algorithm entry point accepts: the one
/// place a server configures worker threads, temp-file placement,
/// telemetry sinks, and cancellation — superseding the thread knobs that
/// used to be duplicated across SfsOptions / SortOptions / SqlOptions.
///
/// The default-constructed context is the zero-overhead configuration:
/// no metrics, no tracing, no cancellation hook, threads deferred to the
/// per-call options. Sinks are borrowed and must outlive every operation
/// run under the context.
///
/// Thread-knob resolution (pinned by exec_context_test):
///  - `ExecContext::threads` unset (nullopt) defers to the per-call
///    option's own field (the deprecated `SfsOptions::threads` etc.);
///    set, it overrides that field.
///  - At either level the *value* 0 means "one worker per hardware
///    thread"; any other value is taken literally.
///  - The result is always clamped to the hardware concurrency
///    (oversubscription is a strict loss for the block-parallel filter).
///  - User-facing thread selection lives in Session::Options::threads
///    (sql/engine.h), which resolves into this struct's optional in
///    exactly one place (Session::BuildSqlOptions).
///  - An SFS request becomes filter workers, path and presort workers in
///    one helper, ResolveSfsThreads (core/sfs.h), which every SFS caller
///    shares; nothing else translates thread knobs.
struct ExecContext {
  /// Worker threads for every phase run under this context. nullopt =
  /// defer to the per-call options; 0 = one per hardware thread.
  std::optional<size_t> threads;

  /// Temp-file namespace for intermediates. Empty = derive from the
  /// operation's output path (the legacy behavior).
  std::string temp_prefix;

  /// Metrics sink; null = metrics off (handles become inert).
  MetricsRegistry* metrics = nullptr;

  /// Trace sink; null = tracing off (spans become a single branch).
  TraceSink* trace = nullptr;

  /// Polled at phase boundaries and every few thousand rows inside the
  /// long loops; returning true aborts the operation with a kCancelled
  /// status. Null = never cancelled. Must be thread-safe: the parallel
  /// phases poll it from pool workers.
  std::function<bool()> cancelled;

  /// Resolves the worker count for an operation whose (deprecated) options
  /// field carries `option_threads`: context override first, then the
  /// option; 0 = hardware; clamped to hardware.
  size_t ResolveThreads(size_t option_threads) const;

  /// The unclamped request ResolveThreads would clamp.
  size_t RequestedThreads(size_t option_threads) const {
    return threads.has_value() ? *threads : option_threads;
  }

  /// `temp_prefix` if set, else `fallback`.
  const std::string& TempPrefixOr(const std::string& fallback) const {
    return temp_prefix.empty() ? fallback : temp_prefix;
  }

  /// OK, or kCancelled if the hook reports cancellation.
  Status CheckCancelled() const {
    if (cancelled && cancelled()) {
      return Status::Cancelled("operation cancelled by ExecContext hook");
    }
    return Status::OK();
  }

  bool has_cancel_hook() const { return static_cast<bool>(cancelled); }
};

}  // namespace skyline

#endif  // SKYLINE_COMMON_EXEC_CONTEXT_H_
