// util::FaultInjector — deterministic fault injection for chaos tests.
//
// Production builds compile every fault point down to nothing: the query
// hooks below are `inline` no-ops unless the library is configured with
// -DAPC_FAULT_INJECTION=ON (CMake option), which defines APC_FAULT_INJECTION
// for the whole build.  With injection enabled, tests arm *sites* — stable
// string names at I/O and task boundaries (see docs/architecture.md, "Fault
// tolerance & durability") — with a plan: skip the first N hits, then fire K
// times.  Firing either reports a synthetic errno (the caller turns it into
// a typed apc::Error), caps a write short, or asks the caller to throw.
//
// Armed sites:
//   wal.append.write / wal.append.fsync / wal.open / wal.recover.read
//   wal.create.dirsync
//   snapshot.save.write / snapshot.save.fsync / snapshot.save.dirsync
//   snapshot.load.read
//   taskpool.task
//
// All methods are thread-safe; the global injected-fault counter feeds the
// obs registry (`faults.injected`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "obs/metrics.hpp"

namespace apc::util {

/// What an armed site does when it fires.
struct FaultPlan {
  enum class Kind : std::uint8_t {
    kErrno,       ///< I/O sites: fail with `err` (e.g. EIO, ENOSPC)
    kShortWrite,  ///< write sites: persist only `short_bytes`, then fail
    kThrow,       ///< non-I/O sites: caller throws apc::Error(kInternal)
  };
  Kind kind = Kind::kErrno;
  int err = 5;  // EIO
  std::size_t short_bytes = 0;
  /// Hits to let through before the first firing.
  std::uint64_t skip = 0;
  /// How many consecutive hits fire once triggered (0 = every hit forever).
  std::uint64_t count = 1;
};

#if defined(APC_FAULT_INJECTION)

class FaultInjector {
 public:
  static FaultInjector& instance();

  /// Arms `site` with `plan`, replacing any previous plan for the site.
  void arm(const std::string& site, FaultPlan plan);
  /// Disarms one site / every site (tests call disarm_all in TearDown).
  void disarm(const std::string& site);
  void disarm_all();

  /// Called by fault points.  Counts the hit; returns true (and fills
  /// `plan`) when the site fires now.
  bool hit(const char* site, FaultPlan& plan);

  /// Total hits observed at `site` since arming (armed sites only).
  std::uint64_t hits(const std::string& site) const;
  /// Faults actually fired, process-wide (the obs `faults.injected` source).
  const obs::Counter& injected() const { return injected_; }

 private:
  FaultInjector() = default;
  struct Armed {
    FaultPlan plan;
    std::uint64_t hits = 0;
    std::uint64_t fired = 0;
  };
  /// Looks sites up by std::string_view, so a hit on a fault point builds
  /// no std::string: an unarmed site costs no heap work.
  struct SiteHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  mutable std::mutex mu_;
  std::unordered_map<std::string, Armed, SiteHash, std::equal_to<>> sites_;
  obs::Counter injected_;
};

/// I/O fault point: returns the errno to inject at `site`, or 0 to proceed.
/// When a short-write plan fires, `*short_bytes` receives the byte cap and
/// 0 is returned (the caller writes the capped prefix, then fails).
int fault_errno(const char* site, std::size_t* short_bytes = nullptr);

/// Control-flow fault point: true when the caller should throw
/// apc::Error(ErrorCode::kInternal, ...).
bool fault_fires(const char* site);

/// Lifetime count of fired faults (0 when injection is compiled out).
std::uint64_t injected_fault_count();

#else  // !APC_FAULT_INJECTION — everything folds to constants.

inline int fault_errno(const char*, std::size_t* = nullptr) { return 0; }
inline bool fault_fires(const char*) { return false; }
inline std::uint64_t injected_fault_count() { return 0; }

#endif

}  // namespace apc::util
