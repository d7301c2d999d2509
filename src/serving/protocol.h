#ifndef CULINARYLAB_SERVING_PROTOCOL_H_
#define CULINARYLAB_SERVING_PROTOCOL_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "serving/engine.h"

namespace culinary::serving {

/// Line-delimited JSON wire format for `tools/culinary_serve`.
///
/// One request per line, one response line per request, e.g.:
///
///   {"id":"r1","op":"score","ingredients":["beef","onion","garlic"]}
///   {"id":"r2","op":"suggest","ids":[3,17],"k":5,"deadline_ms":50}
///   {"id":"r3","op":"fingerprint","region":"FRA","k":10}
///   {"id":"r4","op":"similar","region":"CHN","k":3}
///   {"id":"r5","op":"ping"}
///   {"id":"r6","op":"reload"}      <- admin: rebuild + swap the snapshot
///   {"id":"r7","op":"shutdown"}    <- admin: drain and exit
///   {"id":"r8","op":"health"}      <- admin: health state + stats
///
/// Plus one explicit batching envelope: an array of query sub-requests
/// answered by one response line carrying the sub-responses in order (the
/// server evaluates them as one unit of work, one `ExecuteBatch` against
/// one pinned snapshot, so its suggests share one sweep):
///
///   {"id":"b1","op":"batch","requests":[
///       {"id":"r9","op":"score","ingredients":["beef","onion"]},
///       {"id":"r10","op":"suggest","ids":[3,17],"k":5}]}
///
/// The transport is deliberately thin: the parser accepts exactly flat
/// objects of scalars and scalar arrays, plus the single nesting level the
/// batch envelope needs (an array of flat objects, whose elements may not
/// nest further). Everything else is kParseError — corrupt traffic is
/// rejected at the edge, never handed to the engine. Sub-requests must be
/// query ops: admin ops or a nested batch inside a batch are
/// kInvalidArgument, as is an empty or oversized (> 256) batch.

/// A parsed request line: the engine-facing `Request` plus wire envelope.
struct WireRequest {
  /// Echoed back verbatim in the response (empty when absent).
  std::string id;
  /// The raw op string ("score", "reload", ...).
  std::string op;
  /// Populated for query ops (ping/score/suggest/fingerprint/similar).
  Request request;
  /// True for transport-level ops (reload / shutdown / health) the server
  /// handles itself; `request` is meaningless for these.
  bool is_admin = false;
  /// True for "op":"batch": `batch` carries the parsed sub-requests in wire
  /// order (each with `is_admin`/`is_batch` false) and `request` is
  /// meaningless.
  bool is_batch = false;
  std::vector<WireRequest> batch;
};

/// Largest accepted `"op":"batch"` envelope; larger batches are rejected at
/// parse so one line cannot queue unbounded work.
inline constexpr size_t kMaxWireBatch = 256;

/// Parses one LDJSON request line. kParseError for malformed JSON or a
/// nested value; kInvalidArgument for an unknown op or region code, an
/// `ids` element that is not an integer in the `IngredientId` range, or a
/// negative or fractional `k`.
culinary::Result<WireRequest> ParseRequestLine(std::string_view line);

/// Serializes an engine response to one JSON line (no trailing newline).
/// Successful payloads carry their endpoint fields; failures carry
/// `"ok":false` plus the status code and message.
std::string SerializeResponse(const std::string& id, const Response& response);

/// Serializes one batch response line: the envelope id plus every
/// sub-response (rendered exactly as `SerializeResponse` would a single
/// call, keyed by its own sub-id) in request order. `sub_ids` and
/// `responses` must be the same length.
std::string SerializeBatchResponse(const std::string& id,
                                   const std::vector<std::string>& sub_ids,
                                   const std::vector<Response>& responses);

/// Serializes a transport-level failure (e.g. a parse error) for `id`.
std::string SerializeError(const std::string& id,
                           const culinary::Status& status);

/// `text` escaped for the inside of a JSON string by the writer every
/// serializer uses (`json::AppendEscaped`). For tests and load generators.
std::string EscapeJson(std::string_view text);

}  // namespace culinary::serving

#endif  // CULINARYLAB_SERVING_PROTOCOL_H_
