// serve::SnapshotStore — durable, checksummed snapshot generations with
// last-good rollback (DESIGN.md §9).
//
// The paper's deployment trains offline and hands the frozen model to the
// server; this store is that handoff made crash-safe. Each publish writes
// one *generation* file, which carries a frozen structure-of-arrays payload
// at a page-aligned offset:
//
//   gen-<id>.snap:
//     webppm-snap v2 <generation> <snapshot-version> <payload-bytes>
//                    <payload-offset> <crc32>
//     <zero padding up to payload-offset (a page boundary)>
//     <frozen payload>         # frozen/format.hpp, exactly payload-bytes
//
// load_latest() of a generation is mmap + CRC-32 over the mapped range
// + a validating scan: zero payload-sized copies, no deserialization
// allocations — the served tree is spans into the mapping. The CRC covers
// "<generation> <snapshot-version> <payload-bytes> <payload-offset>\n"
// plus every mapped byte after the header line (padding included), so a
// bit flip anywhere fails verification.
//
// v2 is the only format read. Any other version word, such as that of the
// text "v1" generations older releases wrote, is rejected as "header:
// unknown format v1" and rolled back past like any unreadable generation.
//
// Files are written temp + fsync + atomic rename, then the
// MANIFEST (same discipline) records the generation list; a crash between
// the two leaves a valid generation file that load_latest() still finds by
// directory scan, so the manifest is a hint, never a single point of
// failure.
//
// load_latest() walks candidates newest-first, verifying checksum and
// structure, and returns the newest *intact* generation — rolling back
// past corrupt, truncated, or half-written ones, with a reason recorded
// for every rejected generation. publish() retries transient IO failures
// with doubling backoff. Retention keeps the newest K generations on disk.
//
// Durability detail: after the atomic rename the *parent directory* fd is
// fsync'd too — the rename is a directory mutation, and on a crash before
// the directory metadata reaches disk the new name (and thus the
// generation) can vanish even though the file's bytes were synced. A
// dirsync failure is treated like any other write failure: the attempt is
// retried (rewriting the same generation is idempotent).
//
// Fault sites (chaos suite): serve.snapshot.serialize, .write, .fsync,
// .rename, .dirsync, serve.manifest.write/.fsync/.rename/.dirsync,
// serve.snapshot.read.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/model_server.hpp"

namespace webppm::serve {

struct SnapshotStoreConfig {
  /// Directory holding gen-*.snap files and the MANIFEST. Created (one
  /// level) if absent.
  std::string dir;
  /// Newest generations kept on disk; older ones are pruned after a
  /// successful publish. 0 is treated as 1 — the store never prunes the
  /// generation it just wrote.
  std::size_t retain = 3;
  /// Total attempts per publish (first try + retries) for transient IO
  /// failures. >= 1.
  std::size_t publish_attempts = 3;
  /// Backoff before retry i (doubled each time). Zero disables sleeping —
  /// chaos tests script failures, they don't wait out real IO.
  std::chrono::milliseconds backoff{10};
  /// Size of the popularity fallback attached to loaded snapshots.
  std::size_t fallback_top_n = 10;
  /// Non-null attaches webppm_serve_fault_* store metrics: write failures,
  /// publish retries/failures, generations rejected at load, rollbacks.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Outcome of one publish(): the durable generation id on success, or the
/// last attempt's failure reason.
struct PublishResult {
  bool ok = false;
  std::uint64_t generation = 0;
  std::size_t attempts = 0;  ///< write attempts consumed (1 = first try)
  std::string error;
};

/// Outcome of load_latest(): the newest intact generation, plus one reason
/// line per newer generation that had to be rolled back past.
struct LoadLatestResult {
  std::shared_ptr<const Snapshot> snapshot;
  std::uint64_t generation = 0;
  std::vector<std::string> rejected;  ///< "gen 7: payload crc mismatch", ...
  std::string error;                  ///< set when snapshot == nullptr
};

class SnapshotStore {
 public:
  explicit SnapshotStore(SnapshotStoreConfig config);

  /// Serialises `snap` and durably installs it as the next generation
  /// (write temp, fsync, atomic rename, manifest update, prune). Retries
  /// transient failures per config. Fails without writing when the newest
  /// generation id on disk is the largest u64, so the next would wrap.
  /// Thread-compatible: one publisher at a time (the training loop),
  /// concurrent with any number of load_latest() readers.
  PublishResult publish(const Snapshot& snap);

  /// Newest generation that verifies (checksum + structure), rolling back
  /// past corrupt ones. Candidates come from the manifest *and* a
  /// directory scan, so a generation orphaned by a crash between rename
  /// and manifest write is still found.
  LoadLatestResult load_latest() const;

  /// Generation ids currently on disk, oldest first (directory scan).
  /// A file name whose id does not fit in a u64 is not a generation.
  std::vector<std::uint64_t> generations() const;

  const SnapshotStoreConfig& config() const { return config_; }

 private:
  std::string gen_path(std::uint64_t gen) const;
  std::string manifest_path() const;
  /// One write-fsync-rename attempt of `content` into `final_name`.
  /// Returns empty on success, else the failure reason. The fault hooks are
  /// captureless lambdas wrapping WEBPPM_FAULT_INJECT — the macro needs a
  /// literal site name per expansion point, so the caller supplies the
  /// sites and this function supplies the IO discipline.
  using FaultHook = bool (*)();
  std::string write_atomic(const std::string& final_name,
                           const std::string& content, FaultHook write_fault,
                           FaultHook fsync_fault, FaultHook rename_fault,
                           FaultHook dirsync_fault) const;
  /// Verifies and opens one generation file: the CRC is checked over the
  /// mmapped range in place, and the served model is spans into the
  /// mapping. Returns nullptr + reason.
  SnapshotLoadResult load_generation(std::uint64_t gen) const;
  /// Renders the full generation file content for `snap`.
  std::string render_generation(std::uint64_t gen, const Snapshot& snap) const;
  void prune(std::uint64_t newest) const;

  SnapshotStoreConfig config_;

  struct Instruments {
    obs::Counter* write_failures;
    obs::Counter* publish_retries;
    obs::Counter* publish_failures;
    obs::Counter* rejected;
    obs::Counter* rollbacks;
  };
  std::unique_ptr<Instruments> ins_;
};

}  // namespace webppm::serve
