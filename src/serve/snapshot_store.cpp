#include "serve/snapshot_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "fault/fault.hpp"
#include "obs/trace_event.hpp"
#include "serve/frozen_snapshot.hpp"
#include "util/align.hpp"
#include "util/crc32.hpp"
#include "util/mmap_file.hpp"

namespace webppm::serve {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kSnapMagic = "webppm-snap";
constexpr std::string_view kManifestMagic = "webppm-manifest";

std::string errno_string() {
  return std::strerror(errno);
}

/// The checksummed prefix: header fields after the magic and version,
/// newline-terminated, so the CRC covers generation, version, length and
/// offset too. The CRC itself is seeded with this prefix then run over
/// every mapped byte *after* the header newline — padding included — so a
/// flipped bit in the padding gap fails verification just like one in the
/// payload.
std::string checksum_prefix(std::uint64_t gen, std::uint64_t version,
                            std::size_t payload_bytes,
                            std::size_t payload_offset) {
  return std::to_string(gen) + ' ' + std::to_string(version) + ' ' +
         std::to_string(payload_bytes) + ' ' +
         std::to_string(payload_offset) + '\n';
}

std::string crc_hex_string(std::uint32_t crc) {
  char hex[16];
  std::snprintf(hex, sizeof hex, "%08x", crc);
  return hex;
}

/// Generation id of "gen-<id>.snap", or nullopt for other names — an id
/// that does not fit in a u64 included.
std::optional<std::uint64_t> parse_gen_name(std::string_view name) {
  if (!name.starts_with("gen-") || !name.ends_with(".snap")) {
    return std::nullopt;
  }
  const std::string_view digits = name.substr(4, name.size() - 9);
  const char* const last = digits.data() + digits.size();
  std::uint64_t gen = 0;
  const auto [end, ec] = std::from_chars(digits.data(), last, gen);
  if (ec != std::errc{} || end != last) return std::nullopt;
  return gen;
}

}  // namespace

SnapshotStore::SnapshotStore(SnapshotStoreConfig config)
    : config_(std::move(config)) {
  if (config_.retain == 0) config_.retain = 1;
  if (config_.publish_attempts == 0) config_.publish_attempts = 1;
  std::error_code ec;
  fs::create_directories(config_.dir, ec);  // best-effort; writes will tell
  if (config_.metrics != nullptr) {
    auto& reg = *config_.metrics;
    ins_ = std::make_unique<Instruments>(Instruments{
        &reg.counter("webppm_serve_fault_snapshot_write_failures_total"),
        &reg.counter("webppm_serve_fault_publish_retries_total"),
        &reg.counter("webppm_serve_fault_publish_failures_total"),
        &reg.counter("webppm_serve_fault_snapshot_rejected_total"),
        &reg.counter("webppm_serve_fault_rollback_total"),
    });
  }
}

std::string SnapshotStore::gen_path(std::uint64_t gen) const {
  return (fs::path(config_.dir) / ("gen-" + std::to_string(gen) + ".snap"))
      .string();
}

std::string SnapshotStore::manifest_path() const {
  return (fs::path(config_.dir) / "MANIFEST").string();
}

std::string SnapshotStore::write_atomic(const std::string& final_name,
                                        const std::string& content,
                                        FaultHook write_fault,
                                        FaultHook fsync_fault,
                                        FaultHook rename_fault,
                                        FaultHook dirsync_fault) const {
  const std::string tmp = final_name + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return "open " + tmp + ": " + errno_string();

  // An injected write fault models a mid-write crash: half the bytes land,
  // then the writer dies. The partial .tmp is never renamed, so readers
  // can never observe it as a generation.
  std::size_t to_write = content.size();
  bool injected = false;
  if (write_fault()) {
    to_write /= 2;
    injected = true;
  }
  std::size_t written = 0;
  while (written < to_write) {
    const ssize_t n =
        ::write(fd, content.data() + written, to_write - written);
    if (n < 0) {
      const std::string err = errno_string();
      ::close(fd);
      return "write " + tmp + ": " + err;
    }
    written += static_cast<std::size_t>(n);
  }
  if (injected) {
    ::close(fd);
    return "write " + tmp + ": injected fault (partial write)";
  }

  // fsync before rename: the rename must never make visible a file whose
  // bytes could still be lost by a crash.
  if (fsync_fault()) {
    ::close(fd);
    return "fsync " + tmp + ": injected fault";
  }
  if (::fsync(fd) != 0) {
    const std::string err = errno_string();
    ::close(fd);
    return "fsync " + tmp + ": " + err;
  }
  ::close(fd);

  if (rename_fault()) {
    std::remove(tmp.c_str());
    return "rename " + tmp + " -> " + final_name + ": injected fault";
  }
  if (std::rename(tmp.c_str(), final_name.c_str()) != 0) {
    const std::string err = errno_string();
    std::remove(tmp.c_str());
    return "rename " + tmp + " -> " + final_name + ": " + err;
  }

  // The rename mutates the *directory*; until that metadata is synced a
  // crash can forget the new name even though the file's bytes are safe.
  // Failure here is retryable — the file is intact under its final name,
  // and rewriting the same generation is idempotent.
  const std::string dir = fs::path(final_name).parent_path().string();
  if (dirsync_fault()) {
    return "dirsync " + dir + ": injected fault";
  }
  const int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dirfd < 0) return "open dir " + dir + ": " + errno_string();
  if (::fsync(dirfd) != 0) {
    const std::string err = errno_string();
    ::close(dirfd);
    return "dirsync " + dir + ": " + err;
  }
  ::close(dirfd);
  return {};
}

std::string SnapshotStore::render_generation(std::uint64_t gen,
                                             const Snapshot& snap) const {
  // The payload starts on a page boundary so a reader can mmap the file
  // and hand the kernel page-granular views of the sections. The CRC field
  // can't be known before the header is laid out, so the header is rendered
  // with the CRC blanked, padded to the offset, then patched.
  const std::string payload = serialize_snapshot_frozen(snap);
  const std::size_t header_guess =
      kSnapMagic.size() + 4 +  // "webppm-snap v2 "
      checksum_prefix(gen, snap.version, payload.size(), 0).size() + 16;
  const std::size_t payload_offset =
      util::align_up(header_guess, util::kPageBytes);
  const std::string prefix =
      checksum_prefix(gen, snap.version, payload.size(), payload_offset);

  std::string content;
  content.reserve(payload_offset + payload.size());
  content.append(kSnapMagic).append(" v2 ").append(prefix.substr(
      0, prefix.size() - 1));  // prefix without its trailing newline
  content.append(" 00000000\n");
  const std::size_t crc_field = content.size() - 9;  // start of the 8 hex
  const std::size_t after_header = content.size();   // first padding byte
  content.resize(payload_offset, '\0');
  content.append(payload);

  const std::string_view checksummed =
      std::string_view(content).substr(after_header);
  const std::string crc_hex =
      crc_hex_string(util::crc32(checksummed, util::crc32(prefix)));
  content.replace(crc_field, 8, crc_hex);
  return content;
}

PublishResult SnapshotStore::publish(const Snapshot& snap) {
  WEBPPM_TRACE("serve.snapshot_store.publish");
  PublishResult result;

  if (WEBPPM_FAULT_INJECT("serve.snapshot.serialize")) {
    result.error = "serialize: injected fault";
    if (ins_ != nullptr) ins_->publish_failures->add();
    return result;
  }
  const auto existing = generations();
  if (!existing.empty() &&
      existing.back() == std::numeric_limits<std::uint64_t>::max()) {
    result.error = "generation id " + std::to_string(existing.back()) +
                   " is on disk: the next id would wrap";
    if (ins_ != nullptr) ins_->publish_failures->add();
    obs::log_event(obs::Severity::kError, "serve.snapshot_publish_failed",
                   result.error);
    return result;
  }
  const std::uint64_t gen = existing.empty() ? 1 : existing.back() + 1;
  const std::string content = render_generation(gen, snap);

  auto backoff = config_.backoff;
  for (std::size_t attempt = 1; attempt <= config_.publish_attempts;
       ++attempt) {
    result.attempts = attempt;
    const std::string err = write_atomic(
        gen_path(gen), content,
        [] { return WEBPPM_FAULT_INJECT("serve.snapshot.write"); },
        [] { return WEBPPM_FAULT_INJECT("serve.snapshot.fsync"); },
        [] { return WEBPPM_FAULT_INJECT("serve.snapshot.rename"); },
        [] { return WEBPPM_FAULT_INJECT("serve.snapshot.dirsync"); });
    if (err.empty()) {
      result.ok = true;
      result.generation = gen;
      break;
    }
    result.error = err;
    if (ins_ != nullptr) ins_->write_failures->add();
    obs::log_event(obs::Severity::kWarn, "serve.snapshot_publish_retry",
                   "generation " + std::to_string(gen) + " attempt " +
                       std::to_string(attempt) + " failed: " + err);
    if (attempt < config_.publish_attempts) {
      if (ins_ != nullptr) ins_->publish_retries->add();
      if (backoff.count() > 0) {
        std::this_thread::sleep_for(backoff);
        backoff *= 2;
      }
    }
  }
  if (!result.ok) {
    if (ins_ != nullptr) ins_->publish_failures->add();
    obs::log_event(obs::Severity::kError, "serve.snapshot_publish_failed",
                   "generation " + std::to_string(gen) +
                       " abandoned after " +
                       std::to_string(result.attempts) +
                       " attempts: " + result.error);
    return result;
  }

  // The generation is durable; retention and the manifest are best-effort
  // bookkeeping on top (load_latest() scans the directory regardless, so a
  // failure here can delay pruning but never lose data).
  prune(gen);
  std::string manifest;
  manifest.append(kManifestMagic).append(" v1\n");
  for (const auto g : generations()) {
    manifest.append(std::to_string(g)).append("\n");
  }
  const std::string merr = write_atomic(
      manifest_path(), manifest,
      [] { return WEBPPM_FAULT_INJECT("serve.manifest.write"); },
      [] { return WEBPPM_FAULT_INJECT("serve.manifest.fsync"); },
      [] { return WEBPPM_FAULT_INJECT("serve.manifest.rename"); },
      [] { return WEBPPM_FAULT_INJECT("serve.manifest.dirsync"); });
  if (!merr.empty()) {
    if (ins_ != nullptr) ins_->write_failures->add();
    obs::log_event(obs::Severity::kWarn, "serve.manifest_write_failed",
                   merr + " (directory scan remains authoritative)");
  }
  return result;
}

SnapshotLoadResult SnapshotStore::load_generation(std::uint64_t gen) const {
  SnapshotLoadResult result;
  if (WEBPPM_FAULT_INJECT("serve.snapshot.read")) {
    result.error = "read: injected fault";
    return result;
  }

  // Map the file once. Nothing copies the payload — CRC, structural
  // validation, and the served tree all read the mapped bytes in place.
  auto map = std::make_shared<util::MappedFile>();
  {
    std::string map_error;
    if (!map->open(gen_path(gen), &map_error)) {
      result.error = "unreadable: " + map_error;
      return result;
    }
  }
  const std::string_view mapped = map->bytes();

  // Header line: "webppm-snap v2 <gen> <version> <bytes> <offset> <crc>".
  // The line is tiny; bound the newline scan so a binary-garbage file can't
  // make us walk a multi-megabyte mapping looking for one.
  const auto nl = mapped.substr(0, 256).find('\n');
  if (nl == std::string_view::npos) {
    result.error = "header: no newline";
    return result;
  }
  std::istringstream header{std::string(mapped.substr(0, nl))};
  std::string magic, ver_word, crc_word;
  std::uint64_t hdr_gen = 0, snap_version = 0;
  std::size_t payload_bytes = 0, payload_offset = 0;
  const bool parsed =
      static_cast<bool>(header >> magic >> ver_word >> hdr_gen >>
                        snap_version >> payload_bytes >> payload_offset >>
                        crc_word);
  if (magic == kSnapMagic && !ver_word.empty() && ver_word != "v2") {
    result.error = "header: unknown format " + ver_word;
    return result;
  }
  if (!parsed || magic != kSnapMagic) {
    result.error = "header: malformed";
    return result;
  }
  if (hdr_gen != gen) {
    result.error = "header: generation " + std::to_string(hdr_gen) +
                   " does not match filename";
    return result;
  }
  if (!util::is_aligned(payload_offset, util::kPageBytes) ||
      payload_offset <= nl) {
    result.error = "header: payload offset " +
                   std::to_string(payload_offset) + " not page-aligned";
    return result;
  }
  if (mapped.size() < payload_offset ||
      mapped.size() - payload_offset < payload_bytes) {
    result.error = "payload truncated: have " +
                   std::to_string(mapped.size() < payload_offset
                                      ? 0
                                      : mapped.size() - payload_offset) +
                   " of " + std::to_string(payload_bytes) + " bytes";
    return result;
  }
  if (mapped.size() - payload_offset > payload_bytes) {
    result.error = "payload: trailing garbage";
    return result;
  }

  // CRC over the whole mapped range after the header newline — padding and
  // payload alike — seeded with the checksummed header fields.
  const std::string prefix =
      checksum_prefix(hdr_gen, snap_version, payload_bytes, payload_offset);
  const std::string expect_hex = crc_hex_string(
      util::crc32(mapped.substr(nl + 1), util::crc32(prefix)));
  if (crc_word != expect_hex) {
    result.error = "payload crc mismatch: header " + crc_word +
                   ", computed " + expect_hex;
    return result;
  }

  // Bytes verified; decode the frozen payload in place. The mapping is the
  // snapshot's backing store — it stays alive as long as the model does.
  return open_frozen_snapshot(std::move(map), mapped.substr(payload_offset),
                              snap_version, config_.fallback_top_n);
}

LoadLatestResult SnapshotStore::load_latest() const {
  WEBPPM_TRACE("serve.snapshot_store.load_latest");
  LoadLatestResult result;

  // Candidates: manifest entries ∪ directory scan, newest first. The union
  // covers both a stale manifest (crash before its rewrite) and a manifest
  // naming files that were since corrupted or deleted.
  std::set<std::uint64_t> candidates;
  for (const auto g : generations()) candidates.insert(g);
  {
    std::ifstream m(manifest_path());
    std::string magic, ver;
    if (m >> magic >> ver && magic == kManifestMagic && ver == "v1") {
      std::uint64_t g = 0;
      while (m >> g) candidates.insert(g);
    }
  }
  if (candidates.empty()) {
    result.error = "no snapshot generations in " + config_.dir;
    return result;
  }

  for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
    auto loaded = load_generation(*it);
    if (loaded.snapshot != nullptr) {
      result.snapshot = std::move(loaded.snapshot);
      result.generation = *it;
      break;
    }
    result.rejected.push_back("gen " + std::to_string(*it) + ": " +
                              loaded.error);
    if (ins_ != nullptr) ins_->rejected->add();
    obs::log_event(obs::Severity::kWarn, "serve.snapshot_rejected",
                   result.rejected.back());
  }
  if (result.snapshot == nullptr) {
    result.error = "all " + std::to_string(candidates.size()) +
                   " generations rejected";
    obs::log_event(obs::Severity::kError, "serve.snapshot_store_empty",
                   result.error);
    return result;
  }
  if (!result.rejected.empty()) {
    if (ins_ != nullptr) ins_->rollbacks->add();
    obs::log_event(obs::Severity::kWarn, "serve.snapshot_rollback",
                   "rolled back past " +
                       std::to_string(result.rejected.size()) +
                       " corrupt generation(s) to gen " +
                       std::to_string(result.generation));
  }
  return result;
}

std::vector<std::uint64_t> SnapshotStore::generations() const {
  std::vector<std::uint64_t> gens;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(config_.dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (const auto g = parse_gen_name(entry.path().filename().string())) {
      gens.push_back(*g);
    }
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

void SnapshotStore::prune(std::uint64_t newest) const {
  auto gens = generations();
  if (gens.size() <= config_.retain) return;
  const std::size_t drop = gens.size() - config_.retain;
  for (std::size_t i = 0; i < drop; ++i) {
    if (gens[i] == newest) continue;  // never prune what we just wrote
    std::remove(gen_path(gens[i]).c_str());
  }
}

}  // namespace webppm::serve
