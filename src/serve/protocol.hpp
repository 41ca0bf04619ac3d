// Wire protocol of the MASC simulation service.
//
// Transport: TCP on localhost. Every message — request or response — is
// one *frame*: a 4-byte big-endian payload length followed by that many
// bytes of UTF-8 JSON (serve/framing.hpp owns the frame I/O). Requests
// are objects with an "op" member; responses are objects with an "ok"
// member (and "error" when !ok). The full request/response schema is
// documented in docs/SERVER.md; the cluster router speaks the same
// protocol on both faces (docs/CLUSTER.md).
//
// This header carries the pieces shared by server, client, router, and
// tests: the transport layer (re-exported from framing.hpp so existing
// includes keep working) and the JSON → simulator-object decoders
// (MachineConfig, Program, SweepJob).
#pragma once

#include <cstdint>
#include <string>

#include "common/json.hpp"
#include "serve/framing.hpp"
#include "sim/sweep.hpp"

namespace masc::serve {

/// Decode a machine configuration object. Recognized members (all
/// optional, defaults = MachineConfig defaults): "pes", "threads",
/// "width", "arity", "issue_width", "switch_penalty", "multithreading",
/// "pipelined_network", "pipelined_execution", "sched" =
/// "fine"|"coarse"|"smt". The result is validate()d; throws ConfigError
/// or JsonError.
MachineConfig config_from_json(const json::Value& v);

/// Decode a program: {"source": "<asm>"} assembles MASC assembly,
/// {"ascal": "<src>"} compiles ASCAL, {"text": [u32...], "data":
/// [u32...], "entry": n} loads a pre-assembled image. Throws
/// AssemblyError / ascal::CompileError / JsonError.
///
/// Assembled sources are memoized process-wide (docs/SERVER.md
/// "Program memo"): a text seen for the second time is stored, and
/// later decodes of the same kind and text copy the stored Program
/// instead of assembling again. Failed assemblies are never stored.
Program program_from_json(const json::Value& v);

/// Fixed bounds of the program memo: at most kProgramMemoEntries
/// assembled programs (oldest evicted first), none larger than
/// kProgramMemoMaxEntryBytes of source text plus image words, and a
/// direct-mapped table of kProgramMemoSightings hashes remembering
/// first sightings.
inline constexpr std::size_t kProgramMemoEntries = 1024;
inline constexpr std::size_t kProgramMemoMaxEntryBytes = 64u << 10;
inline constexpr std::size_t kProgramMemoSightings = 4096;

struct ProgramMemoStats {
  std::size_t entries = 0;  ///< programs held, never above kProgramMemoEntries
  std::uint64_t hits = 0;   ///< decodes answered without assembling
};
ProgramMemoStats program_memo_stats();

/// Decode one job object: "config" (object), "program" (object),
/// "label", "seed", "max_cycles", "batch_lanes" (`batch_lanes` when the
/// job sets none: a submit-level value). Deadline and cancellation are
/// attached by the server (they need the submission timestamp).
SweepJob job_from_json(const json::Value& v, std::uint32_t batch_lanes = 0);

}  // namespace masc::serve
