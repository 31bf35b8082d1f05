// Wire protocol of the warehouse server: length-prefixed, CRC-framed binary
// frames over TCP. The frame is the one util/serialization defines (and the
// checkpoint WAL stores), bounded here by max_frame_bytes:
//
//   fixed32  payload length  (little-endian; bounded by max_frame_bytes)
//   fixed32  CRC-32 of the payload
//   payload
//
// Request payload (v1):  fixed32 magic "SWRQ" | fixed32 verb | body
// Request payload (v2):  fixed32 magic "SWR2" | fixed32 verb
//                        | string header-extension | body
// Response payload:      fixed32 magic "SWRS" | fixed32 status
//                        | string message | body
//
// The v2 header extension is a length-delimited blob of varints —
// currently [deadline_millis, flags], then [held_nonce, held_version] when
// flags has kRequestFlagHeldAnswer — so future fields append without
// another magic: readers stop at the blob's end, writers may extend it,
// and a flag bit says which optional fields follow. Servers accept both
// versions (a v1 request simply has no deadline); clients emit v1 unless a
// request carries header state, so a fleet of old and new binaries
// interoperates in both directions for deadline-free traffic.
//
// Held answers. A kQuery request whose extension carries the two held_*
// fields opts in to answer tags. Its answer body is the length-prefixed
// sample blob followed by a tag trailer of two varints, [nonce, version]:
// the serving process's random boot nonce (never 0) and the dataset's
// catalog version, read before the answer was resolved. When the held
// fields equal that tag, the blob is empty: the answer the client holds
// under that tag is unchanged (no sample encodes to an empty blob). The
// zero tag opts in while holding nothing. A request without the held
// fields gets the bytes it always got, with nothing after the blob. A
// server that predates the fields ignores the flag bit and the fields
// after it and answers the same way, so a client that finds no trailer
// holds nothing: old and new binaries interoperate in both directions.
//
// Bodies are encoded with the BinaryWriter primitives (varints, strings);
// samples travel as their versioned serialized form, and streamed values
// as a value block (PutValueBlock):
//
//   varint   n                 number of values
//   fixed64  base              (n > 0) two's-complement bits of the minimum
//   u8       width w           (n > 0) bytes per offset, 1..8
//   n x w    offsets           little-endian (uint64)v - (uint64)base
//
// kIngestAppendBlock (43) carries its values this way. Verb 41, the first
// append verb, sent one zig-zag varint per value; it is retired and its
// number is never reused, so an old client's varint bytes can never be
// read as a block. That narrows the interop promise above for streaming
// ingest: a client that still sends 41 gets a structured unknown-verb
// error on a connection that stays usable — never misread values.
//
// The kServerStats body is one varint per counter, by position, in the
// order of kServerCounters and with no count or tags. It is append-only and
// grew in groups: 6 fields (v1), then 8 (connections shed, deadlines
// exceeded), then 13 (the replication counters). A reader accepts a body
// that ends at a group's end and reads the fields it lacks as 0; each field
// appended after the thirteenth is a group of its own. Fields past the
// last one a reader knows are ignored.
//
// A frame whose length field exceeds the negotiated bound, whose CRC
// mismatches, or whose magic is wrong is a protocol error: the server
// answers a structured error frame where it still can and drops the
// connection — it never crashes and never interprets unverified bytes.

#ifndef SAMPWH_SERVER_WIRE_H_
#define SAMPWH_SERVER_WIRE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/types.h"
#include "src/server/tenant.h"
#include "src/util/counters.h"
#include "src/util/serialization.h"
#include "src/util/status.h"

namespace sampwh {

inline constexpr uint32_t kWireRequestMagic = 0x51525753;    // "SWRQ"
inline constexpr uint32_t kWireRequestMagicV2 = 0x32525753;  // "SWR2"
inline constexpr uint32_t kWireResponseMagic = 0x53525753;   // "SWRS"
/// Default per-frame payload bound. Large enough for any sample under the
/// warehouse's footprint discipline; small enough that a garbage length
/// field can never drive an allocation of gigabytes.
inline constexpr uint32_t kWireDefaultMaxFrameBytes = 16u << 20;

/// The server's verbs. Values are wire format — append, never renumber.
enum class Verb : uint32_t {
  kPing = 1,
  kServerStats = 2,
  kShutdown = 3,

  kCreateTenant = 10,
  kSetTenantQuota = 11,
  kTenantStats = 12,
  kListTenants = 13,

  kCreateDataset = 20,
  kDropDataset = 21,
  kListDatasets = 22,
  kListPartitions = 23,
  kRollIn = 24,
  kRollInAt = 25,
  kRollOut = 26,
  kReplicaRollIn = 27,

  kQuery = 30,
  kPartitionDigests = 31,

  kIngestOpen = 40,
  // 41 was the per-value varint append; retired — never reuse it.
  kIngestFlush = 42,
  kIngestAppendBlock = 43,
};

/// True when `verb` names a verb this build understands.
bool IsKnownVerb(uint32_t verb);

/// Appends `values` as a value block (layout in the header comment): the
/// offsets take the fewest bytes that hold the batch's max - min.
void PutValueBlock(BinaryWriter* writer, std::span<const Value> values);

/// Decodes a value block into `*values`. A width outside 1..8 is
/// Corruption; a count the remaining input cannot hold is OutOfRange,
/// rejected before anything is allocated. Never reads past the input.
Status GetValueBlock(BinaryReader* reader, std::vector<Value>* values);

/// Appends a tenant quota body: max_bytes, max_partitions, max_datasets,
/// one varint each.
void PutTenantQuota(BinaryWriter* writer, const TenantQuota& quota);

/// Decodes a tenant quota body written by PutTenantQuota.
Status GetTenantQuota(BinaryReader* reader, TenantQuota* quota);

/// A warehouse server's counters: the live state the server bumps, and the
/// snapshot WarehouseServer::stats() and WarehouseClient::ServerStats()
/// return. Monotonic over the server's lifetime, except num_datasets.
struct ServerStatsSnapshot {
  uint64_t connections_accepted = 0;
  /// Connections torn down because of a framing violation, timeout or
  /// mid-frame disconnect (orderly EOF between frames does not count).
  uint64_t connections_dropped = 0;
  uint64_t requests_served = 0;
  /// Structured error responses sent (bad body, unknown verb, quota, ...).
  uint64_t error_responses = 0;
  /// Framing-level violations observed (oversized, bad CRC, bad magic,
  /// mid-frame EOF, timeouts).
  uint64_t protocol_errors = 0;
  /// Datasets in the warehouse when the snapshot was taken (not a counter;
  /// 0 in the live state).
  uint64_t num_datasets = 0;
  /// Connections refused with a structured error before service: over the
  /// max_connections cap (kResourceExhausted) or during drain
  /// (kUnavailable).
  uint64_t connections_shed = 0;
  /// Requests that failed because the client's propagated deadline passed
  /// (checked before dispatch and inside long merges).
  uint64_t deadlines_exceeded = 0;
  /// kReplicaRollIn requests applied (including idempotent no-ops) — the
  /// write amplification a replication factor R > 1 produces.
  uint64_t replica_writes = 0;
  /// Requests carrying kRequestFlagFailoverRead: queries a coordinator
  /// re-drove onto this node after another owner failed.
  uint64_t failover_reads = 0;
  /// kPartitionDigests scans served (one per dataset per anti-entropy
  /// round).
  uint64_t scrub_rounds = 0;
  /// Partitions replaced or re-created by a heal-flagged kReplicaRollIn.
  uint64_t partitions_healed = 0;
  /// Replica writes that found an existing copy whose content digest
  /// disagreed with the incoming bytes (divergence repaired in place).
  uint64_t digest_mismatches = 0;
};

/// The kServerStats body and the `sampwh_tool server-stats` print, in
/// order. Wire format — append rows, never reorder or remove one.
inline constexpr CounterField<ServerStatsSnapshot> kServerCounters[] = {
    {"connections accepted", &ServerStatsSnapshot::connections_accepted},
    {"connections dropped", &ServerStatsSnapshot::connections_dropped},
    {"requests served", &ServerStatsSnapshot::requests_served},
    {"error responses", &ServerStatsSnapshot::error_responses},
    {"protocol errors", &ServerStatsSnapshot::protocol_errors},
    {"datasets", &ServerStatsSnapshot::num_datasets},
    {"connections shed", &ServerStatsSnapshot::connections_shed},
    {"deadlines exceeded", &ServerStatsSnapshot::deadlines_exceeded},
    {"replica writes", &ServerStatsSnapshot::replica_writes},
    {"failover reads", &ServerStatsSnapshot::failover_reads},
    {"scrub rounds", &ServerStatsSnapshot::scrub_rounds},
    {"partitions healed", &ServerStatsSnapshot::partitions_healed},
    {"digest mismatches", &ServerStatsSnapshot::digest_mismatches},
};

/// Appends a kServerStats body: one varint per kServerCounters row.
void PutServerStats(BinaryWriter* writer, const ServerStatsSnapshot& stats);

/// Decodes a kServerStats body written by PutServerStats of this or an
/// older build: fields the body lacks read 0, fields past the last row are
/// ignored. A body that ends inside a field group (see the header comment)
/// fails with the reader's truncation status.
Status GetServerStats(BinaryReader* reader, ServerStatsSnapshot* stats);

/// Request-header flag bits (RequestHeader::flags). Wire format — append,
/// never renumber.
///
/// Set by a coordinator on a query it re-drove onto a replica after the
/// primary failed; the serving node counts it so failover traffic is
/// visible in server stats.
inline constexpr uint64_t kRequestFlagFailoverRead = 1ull << 0;
///
/// The extension carries a held answer tag after the flags
/// (RequestHeader::held). BeginRequest sets it from `held`; callers never
/// set it themselves.
inline constexpr uint64_t kRequestFlagHeldAnswer = 1ull << 1;

/// kReplicaRollIn body flag bits. Wire format — append, never renumber.
///
/// The write is an anti-entropy HEAL (re-replicating a missing or
/// divergent copy) rather than first placement; the serving node counts it
/// under partitions_healed.
inline constexpr uint64_t kReplicaRollInFlagHeal = 1ull << 0;

/// The tag of a kQuery answer (see "Held answers" in the header comment).
/// Equal tags from one server mean equal answer bytes for one (tenant,
/// dataset, sorted ids). The zero tag names no answer.
struct AnswerTag {
  /// Boot nonce of the serving process; 0 only in the zero tag.
  uint64_t nonce = 0;
  /// The dataset's catalog version (Warehouse::MergedSampleBytes).
  uint64_t version = 0;

  bool operator==(const AnswerTag&) const = default;
};

/// Appends a tag as two varints: nonce, then version.
void PutAnswerTag(BinaryWriter* writer, const AnswerTag& tag);
/// The most bytes PutAnswerTag writes.
inline constexpr size_t kMaxAnswerTagBytes = 2 * kMaxVarint64Bytes;

/// Decodes a tag written by PutAnswerTag.
Status GetAnswerTag(BinaryReader* reader, AnswerTag* tag);

/// Per-request metadata the v2 header extension carries.
struct RequestHeader {
  /// Milliseconds the client gives the whole request, measured from the
  /// moment the server parses the head; 0 means no deadline.
  uint64_t deadline_millis = 0;
  /// Reserved bit flags; servers ignore bits they do not know.
  uint64_t flags = 0;
  /// kQuery only: set to opt in to a tagged answer, holding the tag of the
  /// answer the client holds for the request's ids (the zero tag for
  /// none). Other verbs ignore it.
  std::optional<AnswerTag> held;
};

/// Serializes a request payload head: v1 (magic + verb) when `header` is
/// all defaults, v2 (magic + verb + header extension) otherwise. The
/// caller appends the body with the returned writer.
void BeginRequest(BinaryWriter* writer, Verb verb,
                  const RequestHeader& header = {});

/// Parses a request payload head of either version: verifies the magic,
/// extracts the verb (which may be unknown — the dispatcher answers a
/// structured error) and fills `*header` (defaults for a v1 request). The
/// remaining bytes in the reader are the body.
Status ParseRequestHead(BinaryReader* reader, uint32_t* verb,
                        RequestHeader* header);

/// Serializes a response payload: magic, status, message, then the caller
/// appends the body.
void BeginResponse(BinaryWriter* writer, const Status& status);

/// Parses a response payload head into a Status (code + message). The
/// remaining bytes in the reader are the body.
Status ParseResponseHead(BinaryReader* reader);

/// One response frame built in one buffer, so that a body is written once
/// and never copied on its way to the socket. The handler writes the body
/// through body(), behind headroom reserved at the front of the buffer;
/// SealOk then writes the OK response head and the frame header backwards
/// into that headroom, ending flush against the body. The bytes sent equal
/// EncodeFrame of BeginResponse(OK) followed by the body.
class ResponseFrame {
 public:
  ResponseFrame();

  /// Where the handler appends the body of a successful answer.
  BinaryWriter& body() { return body_; }

  /// Seals the frame as an OK answer carrying the body. With
  /// `length_prefixed` the body travels as one byte string, its varint
  /// length first, exactly as PutString of the body would write it. The
  /// `trailer` bytes follow the body, outside its length.
  void SealOk(bool length_prefixed, std::string_view trailer = {});
  /// Seals the frame as the error `status`: the head only, body dropped.
  void SealError(const Status& status);

  /// The frame to send; valid after a Seal.
  std::string_view bytes() const {
    return std::string_view(body_.buffer()).substr(start_);
  }

 private:
  // Frame header, the OK head (magic, code, empty message), and room for
  // the varint length of a length-prefixed body.
  static constexpr size_t kHeadroomBytes =
      kFrameHeaderBytes + 9 + kMaxVarint64Bytes;

  // The headroom, then the body; after a Seal, the frame from start_ on.
  BinaryWriter body_;
  size_t start_ = 0;
};

/// Maps a wire status code back to a Status with `message`. Unknown codes
/// map to Internal (a newer server speaking to an older client).
Status StatusFromWire(uint32_t code, std::string message);

// --- Blocking socket IO helpers --------------------------------------------

/// Writes all of `data` to `fd`, retrying on EINTR / short writes. IOError
/// on a closed or failed socket (SIGPIPE suppressed via MSG_NOSIGNAL).
Status WriteAll(int fd, std::string_view data);

/// Reads exactly `n` bytes into `out` (resized). kOk, or IOError on
/// EOF/reset/timeout. EOF before the first byte is reported as NotFound and
/// a receive timeout before the first byte as DeadlineExceeded, so callers
/// can tell a peer that closed or went idle from a mid-frame tear.
Status ReadExact(int fd, size_t n, std::string* out);

/// Writes one framed payload to `fd`.
Status WriteFrame(int fd, std::string_view payload);

/// Reads one frame from `fd` into `*payload` (header then body, CRC
/// verified). NotFound on clean EOF before any header byte;
/// DeadlineExceeded on a receive timeout before any header byte; IOError
/// on mid-frame EOF or timeout, or a socket error; Corruption on CRC
/// mismatch; OutOfRange on an oversized declared length (the declared bytes
/// are not drained).
Status ReadFrame(int fd, uint32_t max_frame_bytes, std::string* payload);

}  // namespace sampwh

#endif  // SAMPWH_SERVER_WIRE_H_
