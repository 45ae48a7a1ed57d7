#include "fault/failpoint.h"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

namespace dbsvec {
namespace {

/// Every failpoint site in the library, in pipeline order. A site name has
/// the form "<layer>.<operation>"; adding a site means adding it here and
/// placing the matching check in the instrumented code.
constexpr std::array<std::string_view, 18> kSites = {
    "csv.read",                  // Dataset ingest from CSV.
    "index.build",               // Range-query index construction.
    "exec.shard_merge",          // Sharded batch deterministic merge.
    "kernel_cache.materialize",  // Kernel row materialization.
    "smo.solve",                 // The SMO quadratic-program solve.
    "svdd.train",                // SVDD training entry.
    "svdd.budget_merge",         // Budgeted-SMO SV merge/forget step.
    "thread_pool.task",          // Every fallible thread-pool task.
    "model.save",                // Model serialization + file write.
    "model.load",                // Model file read + parse.
    "assign.batch",              // AssignmentEngine (per point / chunk).
    "server.accept",             // Server accept path (per connection).
    "server.reload",             // Server model reload (/v1/reload).
    "serve.refresh",             // Online core absorption (per batch).
    "journal.append",            // Overlay WAL record append (per record).
    "journal.fsync",             // Overlay WAL fsync (per sync).
    "registry.create",           // ModelRegistry create (per model).
    "registry.recover",          // ModelRegistry startup recovery (per model).
};

Status InjectedError(std::string_view site, std::string_view code) {
  const std::string message =
      "failpoint fired: " + std::string(site);
  if (code.empty() || code == "internal") {
    return Status::Internal(message);
  }
  if (code == "io") {
    return Status::IoError(message);
  }
  if (code == "invalid_argument") {
    return Status::InvalidArgument(message);
  }
  if (code == "deadline_exceeded") {
    return Status::DeadlineExceeded(message);
  }
  if (code == "resource_exhausted") {
    return Status::ResourceExhausted(message);
  }
  return Status::Internal(message + " (unknown code '" + std::string(code) +
                          "')");
}

/// Status-code names accepted as the arg of the error mode.
bool KnownErrorCode(std::string_view code) {
  return code.empty() || code == "internal" || code == "io" ||
         code == "invalid_argument" || code == "deadline_exceeded" ||
         code == "resource_exhausted";
}

}  // namespace

struct FailpointRegistry::SiteState {
  std::string_view name;
  bool armed = false;
  Mode mode = Mode::kError;
  std::string error_code;  // kError only; "" = internal.
  int delay_ms = 0;        // kDelayMs only.
  std::atomic<uint64_t> hits{0};
};

namespace {

struct RegistryStorage {
  // One fixed slot per registered site; never resized, so Check can walk
  // it without holding the mutex (slot mutation is guarded below).
  std::array<FailpointRegistry::SiteState, kSites.size()> slots;
  // Fast path: number of armed sites. Zero means every check is a single
  // relaxed load.
  std::atomic<int> num_armed{0};
  // Guards arming/disarming and the non-atomic slot fields.
  std::mutex mutex;
};

RegistryStorage& Storage() {
  static RegistryStorage* storage = [] {
    auto* s = new RegistryStorage();
    for (size_t i = 0; i < kSites.size(); ++i) {
      s->slots[i].name = kSites[i];
    }
    return s;
  }();
  return *storage;
}

}  // namespace

FailpointRegistry::FailpointRegistry() {
  if (const char* env = std::getenv("DBSVEC_FAILPOINTS");
      env != nullptr && env[0] != '\0') {
    // A malformed env spec must be loud, not silently inert: it aborts the
    // process at first registry use with the parse error.
    const Status status = ArmSpec(env);
    if (!status.ok()) {
      std::fprintf(stderr, "DBSVEC_FAILPOINTS: %s\n",
                   status.ToString().c_str());
      std::abort();
    }
  }
}

FailpointRegistry& FailpointRegistry::Instance() {
  static FailpointRegistry* instance = new FailpointRegistry();
  return *instance;
}

std::vector<std::string_view> FailpointRegistry::Sites() {
  return std::vector<std::string_view>(kSites.begin(), kSites.end());
}

FailpointRegistry::SiteState* FailpointRegistry::FindSite(
    std::string_view site) {
  for (SiteState& slot : Storage().slots) {
    if (slot.name == site) {
      return &slot;
    }
  }
  return nullptr;
}

const FailpointRegistry::SiteState* FailpointRegistry::FindSite(
    std::string_view site) const {
  return const_cast<FailpointRegistry*>(this)->FindSite(site);
}

Status FailpointRegistry::Arm(std::string_view site, Mode mode,
                              std::string_view arg) {
  SiteState* slot = FindSite(site);
  if (slot == nullptr) {
    return Status::InvalidArgument("failpoint: unknown site '" +
                                   std::string(site) + "'");
  }
  if (mode == Mode::kError && !KnownErrorCode(arg)) {
    // Mirror the unknown-site policy: a typo in the spec must be loud.
    return Status::InvalidArgument("failpoint: unknown error code '" +
                                   std::string(arg) + "'");
  }
  int delay_ms = 0;
  if (mode == Mode::kDelayMs) {
    char* end = nullptr;
    const std::string arg_str(arg);
    const long parsed = std::strtol(arg_str.c_str(), &end, 10);
    if (arg.empty() || end == arg_str.c_str() || *end != '\0' || parsed < 0) {
      return Status::InvalidArgument(
          "failpoint: delay_ms needs a non-negative millisecond arg, got '" +
          arg_str + "'");
    }
    delay_ms = static_cast<int>(parsed);
  }
  RegistryStorage& storage = Storage();
  std::lock_guard<std::mutex> lock(storage.mutex);
  if (!slot->armed) {
    storage.num_armed.fetch_add(1, std::memory_order_relaxed);
  }
  slot->armed = true;
  slot->mode = mode;
  slot->error_code = std::string(arg);
  slot->delay_ms = delay_ms;
  return Status::Ok();
}

Status FailpointRegistry::ArmSpec(std::string_view spec) {
  size_t begin = 0;
  while (begin <= spec.size()) {
    size_t end = spec.find(',', begin);
    if (end == std::string_view::npos) {
      end = spec.size();
    }
    const std::string_view entry = spec.substr(begin, end - begin);
    begin = end + 1;
    if (entry.empty()) {
      continue;
    }
    const size_t mode_sep = entry.find(':');
    if (mode_sep == std::string_view::npos) {
      return Status::InvalidArgument(
          "failpoint: entry '" + std::string(entry) +
          "' is not site:mode[:arg]");
    }
    const std::string_view site = entry.substr(0, mode_sep);
    std::string_view mode_name = entry.substr(mode_sep + 1);
    std::string_view arg;
    if (const size_t arg_sep = mode_name.find(':');
        arg_sep != std::string_view::npos) {
      arg = mode_name.substr(arg_sep + 1);
      mode_name = mode_name.substr(0, arg_sep);
    }
    Mode mode;
    if (mode_name == "error") {
      mode = Mode::kError;
    } else if (mode_name == "delay_ms") {
      mode = Mode::kDelayMs;
    } else if (mode_name == "nonconverge") {
      mode = Mode::kNonconverge;
    } else if (mode_name == "corrupt") {
      mode = Mode::kCorrupt;
    } else if (mode_name == "short_write") {
      mode = Mode::kShortWrite;
    } else if (mode_name == "enospc") {
      mode = Mode::kEnospc;
    } else if (mode_name == "fsync_error") {
      mode = Mode::kFsyncError;
    } else {
      return Status::InvalidArgument("failpoint: unknown mode '" +
                                     std::string(mode_name) + "'");
    }
    DBSVEC_RETURN_IF_ERROR(Arm(site, mode, arg));
  }
  return Status::Ok();
}

void FailpointRegistry::Disarm(std::string_view site) {
  SiteState* slot = FindSite(site);
  if (slot == nullptr) {
    return;
  }
  RegistryStorage& storage = Storage();
  std::lock_guard<std::mutex> lock(storage.mutex);
  if (slot->armed) {
    slot->armed = false;
    storage.num_armed.fetch_sub(1, std::memory_order_relaxed);
  }
}

void FailpointRegistry::DisarmAll() {
  RegistryStorage& storage = Storage();
  std::lock_guard<std::mutex> lock(storage.mutex);
  for (SiteState& slot : storage.slots) {
    if (slot.armed) {
      slot.armed = false;
      storage.num_armed.fetch_sub(1, std::memory_order_relaxed);
    }
    slot.hits.store(0, std::memory_order_relaxed);
  }
}

uint64_t FailpointRegistry::HitCount(std::string_view site) const {
  const SiteState* slot = FindSite(site);
  return slot == nullptr ? 0 : slot->hits.load(std::memory_order_relaxed);
}

Status FailpointRegistry::Check(std::string_view site) {
  RegistryStorage& storage = Storage();
  if (storage.num_armed.load(std::memory_order_relaxed) == 0) {
    return Status::Ok();
  }
  Mode mode;
  std::string error_code;
  int delay_ms = 0;
  {
    std::lock_guard<std::mutex> lock(storage.mutex);
    SiteState* slot = FindSite(site);
    if (slot == nullptr || !slot->armed) {
      return Status::Ok();
    }
    mode = slot->mode;
    error_code = slot->error_code;
    delay_ms = slot->delay_ms;
    if (mode == Mode::kError || mode == Mode::kDelayMs) {
      // Self-interpreted modes count their hit in IsArmed instead, so one
      // site firing registers exactly one hit.
      slot->hits.fetch_add(1, std::memory_order_relaxed);
    }
  }
  switch (mode) {
    case Mode::kError:
      return InjectedError(site, error_code);
    case Mode::kDelayMs:
      // Sleep outside the lock so a delayed site never stalls arming or
      // checks of other sites.
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      return Status::Ok();
    case Mode::kNonconverge:
    case Mode::kCorrupt:
    case Mode::kShortWrite:
    case Mode::kEnospc:
    case Mode::kFsyncError:
      // Self-interpreted modes: the site asks via IsArmed instead.
      return Status::Ok();
  }
  return Status::Ok();
}

bool FailpointRegistry::IsArmed(std::string_view site, Mode mode) {
  RegistryStorage& storage = Storage();
  if (storage.num_armed.load(std::memory_order_relaxed) == 0) {
    return false;
  }
  std::lock_guard<std::mutex> lock(storage.mutex);
  SiteState* slot = FindSite(site);
  if (slot == nullptr || !slot->armed || slot->mode != mode) {
    return false;
  }
  slot->hits.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace dbsvec
