// Crash-safe checkpointing of the continuous advisor's session state: a
// schema-versioned JSON snapshot of every session (compressed profile
// statements, pending window buffer, active / last-good / candidate layouts,
// guardrail position, drift reference, counters) written atomically
// (temp file + rename in the same directory). A `kill -9` between
// checkpoints loses at most the statements ingested since the last one;
// restart with --resume replays the remainder of the stream and converges to
// the uninterrupted run's exact final state (the crash-recovery smoke test
// gates on byte-identical final layouts).
//
// Restore is strict where it matters: the schema version and the
// ServiceConfig fingerprint must match (a resumed run must replay the same
// decision sequence), layouts must parse and validate against the live
// database/fleet, and truncated or corrupted files are rejected with a
// descriptive Status rather than half-restored.

#ifndef DBLAYOUT_SERVICE_CHECKPOINT_H_
#define DBLAYOUT_SERVICE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace dblayout {

/// Bump when the snapshot gains/loses/renames fields. Restore refuses
/// checkpoints written under any other version.
inline constexpr int kCheckpointSchemaVersion = 1;

/// One buffered or profile statement, as ingested. Profile statements are
/// the *compressed* accumulated profile's (sql, weight, stream) triplets;
/// re-analyzing them on restore rebuilds the same compressed profile (it
/// keeps one representative per exact access key, AccessKeys, and the
/// representative's SQL re-analyzes to the same accesses; the key itself is
/// not stored).
struct StatementSnapshot {
  std::string sql;
  double weight = 1.0;
  int stream = 0;
};

/// Serializable state of one session. Layouts travel as Layout::ToCsv text
/// (empty string = the layout does not exist yet).
struct SessionSnapshot {
  int id = 0;
  std::string mode;   ///< "active" or "degraded"
  std::string stage;  ///< GuardrailStageName value
  int streak = 0;
  int windows_closed = 0;
  int64_t statements_ingested = 0;
  int advises = 0;
  int promotions = 0;
  int rollbacks = 0;
  int deadline_misses = 0;
  std::string degraded_reason;  ///< "" unless mode == "degraded"
  std::vector<StatementSnapshot> profile;  ///< compressed accumulated profile
  std::vector<StatementSnapshot> pending;  ///< current partial window
  std::string active_csv;
  std::string last_good_csv;  ///< "" = never promoted
  std::string candidate_csv;  ///< "" = no candidate under observation
  /// Per-object access-share vector adopted at the last advise (the drift
  /// reference); empty = never advised.
  std::vector<double> adopted_shares;
};

/// Serializable state of the whole service.
struct ServiceSnapshot {
  int version = kCheckpointSchemaVersion;
  std::string config_fingerprint;
  /// Trace events consumed so far; --resume skips this many events.
  int64_t statements_consumed = 0;
  int64_t windows_closed = 0;
  std::vector<SessionSnapshot> sessions;  ///< ascending session id
};

/// One JSON document, deterministic field order, trailing newline.
std::string SerializeCheckpoint(const ServiceSnapshot& snapshot);

/// Parses and structurally validates a checkpoint document. Fails with
/// ParseError on malformed JSON (including truncation) and InvalidArgument
/// on schema-version or shape mismatches.
Result<ServiceSnapshot> ParseCheckpoint(const std::string& text);

/// Writes atomically: serialize to `path`.tmp in the same directory, then
/// std::rename over `path`. A crash mid-write leaves the previous
/// checkpoint intact.
Status WriteCheckpointAtomic(const ServiceSnapshot& snapshot,
                             const std::string& path);

/// Reads and parses `path`. NotFound when the file does not exist.
Result<ServiceSnapshot> ReadCheckpoint(const std::string& path);

}  // namespace dblayout

#endif  // DBLAYOUT_SERVICE_CHECKPOINT_H_
