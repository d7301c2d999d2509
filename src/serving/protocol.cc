#include "serving/protocol.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/null_models.h"
#include "common/json.h"
#include "recipe/region.h"

namespace culinary::serving {

namespace {

// --- minimal flat-JSON reader -----------------------------------------------

struct JsonField;

/// One parsed value. Arrays are homogeneous scalar arrays — except for the
/// one nesting level the batch envelope needs: an array of flat objects
/// (`kObjects`), whose elements may not nest further. Anything deeper is
/// rejected by the parser.
struct JsonValue {
  enum class Kind {
    kString,
    kNumber,
    kBool,
    kNull,
    kStrings,
    kNumbers,
    kObjects
  };
  Kind kind = Kind::kNull;
  std::string str;
  double num = 0.0;
  bool boolean = false;
  std::vector<std::string> strings;
  std::vector<double> numbers;
  std::vector<std::vector<JsonField>> objects;
};

struct JsonField {
  std::string key;
  JsonValue value;
};

/// Hand-rolled scanner for exactly the flat request shape: one object of
/// string keys mapping to scalars, scalar arrays, or (top level only) one
/// array of flat objects. Small enough to audit, and strict — unknown
/// syntax fails parse instead of guessing.
class FlatJsonReader {
 public:
  explicit FlatJsonReader(std::string_view text) : text_(text) {}

  culinary::Result<std::vector<JsonField>> Parse() {
    std::vector<JsonField> fields;
    SkipWs();
    CULINARY_RETURN_IF_ERROR(
        ParseObjectFields(&fields, /*allow_object_arrays=*/true));
    return Finish(std::move(fields));
  }

 private:
  culinary::Status ParseObjectFields(std::vector<JsonField>* fields,
                                     bool allow_object_arrays) {
    if (!Consume('{')) return Fail("expected '{'");
    SkipWs();
    if (Consume('}')) return culinary::Status::OK();
    for (;;) {
      JsonField field;
      CULINARY_RETURN_IF_ERROR(ParseString(&field.key));
      SkipWs();
      if (!Consume(':')) return Fail("expected ':'");
      CULINARY_RETURN_IF_ERROR(ParseValue(&field.value, allow_object_arrays));
      fields->push_back(std::move(field));
      SkipWs();
      if (Consume(',')) {
        SkipWs();
        continue;
      }
      if (Consume('}')) return culinary::Status::OK();
      return Fail("expected ',' or '}'");
    }
  }
  culinary::Result<std::vector<JsonField>> Finish(
      std::vector<JsonField> fields) {
    SkipWs();
    if (pos_ != text_.size()) return Fail("trailing characters after object");
    return fields;
  }

  culinary::Status Fail(const std::string& what) {
    return culinary::Status::ParseError("request line: " + what +
                                        " at offset " + std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  culinary::Status ParseString(std::string* out) {
    SkipWs();
    if (!Consume('"')) return Fail("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return culinary::Status::OK();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out->push_back(esc);
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'u': {
          // Only ASCII \u00XX escapes; ingredient names are ASCII slugs.
          if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad \\u escape");
            }
          }
          if (code > 0x7F) return Fail("non-ASCII \\u escape unsupported");
          out->push_back(static_cast<char>(code));
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  culinary::Status ParseNumber(double* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            ((text_[pos_] == '-' || text_[pos_] == '+') &&
             (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')))) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected number");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    *out = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Fail("malformed number");
    return culinary::Status::OK();
  }

  culinary::Status ParseValue(JsonValue* out, bool allow_object_arrays) {
    SkipWs();
    if (pos_ >= text_.size()) return Fail("expected value");
    const char c = text_[pos_];
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->str);
    }
    if (c == '[') return ParseArray(out, allow_object_arrays);
    if (c == '{') return Fail("nested objects unsupported");
    if (ConsumeWord("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return culinary::Status::OK();
    }
    if (ConsumeWord("false")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return culinary::Status::OK();
    }
    if (ConsumeWord("null")) {
      out->kind = JsonValue::Kind::kNull;
      return culinary::Status::OK();
    }
    out->kind = JsonValue::Kind::kNumber;
    return ParseNumber(&out->num);
  }

  culinary::Status ParseArray(JsonValue* out, bool allow_object_arrays) {
    Consume('[');
    SkipWs();
    if (Consume(']')) {
      out->kind = JsonValue::Kind::kStrings;  // empty: either kind works
      return culinary::Status::OK();
    }
    if (pos_ < text_.size() && text_[pos_] == '{') {
      // The batch envelope's one nesting level: an array of flat objects,
      // whose own values may not nest further.
      if (!allow_object_arrays) return Fail("nested objects unsupported");
      out->kind = JsonValue::Kind::kObjects;
      for (;;) {
        std::vector<JsonField> element;
        SkipWs();
        CULINARY_RETURN_IF_ERROR(
            ParseObjectFields(&element, /*allow_object_arrays=*/false));
        out->objects.push_back(std::move(element));
        SkipWs();
        if (Consume(',')) continue;
        if (Consume(']')) return culinary::Status::OK();
        return Fail("expected ',' or ']'");
      }
    }
    const bool strings = pos_ < text_.size() && text_[pos_] == '"';
    out->kind =
        strings ? JsonValue::Kind::kStrings : JsonValue::Kind::kNumbers;
    for (;;) {
      if (strings) {
        std::string element;
        CULINARY_RETURN_IF_ERROR(ParseString(&element));
        out->strings.push_back(std::move(element));
      } else {
        double element = 0.0;
        SkipWs();
        if (pos_ < text_.size() && (text_[pos_] == '[' || text_[pos_] == '{'))
          return Fail("nested arrays unsupported");
        CULINARY_RETURN_IF_ERROR(ParseNumber(&element));
        out->numbers.push_back(element);
      }
      SkipWs();
      if (Consume(',')) {
        SkipWs();
        continue;
      }
      if (Consume(']')) return culinary::Status::OK();
      return Fail("expected ',' or ']'");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

// --- serialization helpers --------------------------------------------------

void AppendScore(std::string& out, const ScoreResult& score) {
  out += ",\"score\":";
  json::AppendNumber(out, score.score);
  out += ",\"classified\":\"";
  out += recipe::RegionCode(score.classified);
  out += "\",\"resolved\":[";
  for (size_t i = 0; i < score.resolved.size(); ++i) {
    if (i > 0) out += ',';
    json::AppendNumber(out, score.resolved[i]);
  }
  out += "],\"unresolved\":[";
  for (size_t i = 0; i < score.unresolved.size(); ++i) {
    out += i > 0 ? ",\"" : "\"";
    json::AppendEscaped(out, score.unresolved[i]);
    out += '"';
  }
  out += ']';
}

void AppendSuggestions(std::string& out,
                       const std::vector<Suggestion>& suggestions) {
  out += ",\"suggestions\":[";
  for (size_t i = 0; i < suggestions.size(); ++i) {
    out += i > 0 ? ",{\"id\":" : "{\"id\":";
    json::AppendNumber(out, suggestions[i].id);
    out += ",\"name\":\"";
    json::AppendEscaped(out, suggestions[i].name);
    out += "\",\"gain\":";
    json::AppendNumber(out, suggestions[i].gain);
    out += '}';
  }
  out += ']';
}

void AppendFingerprint(std::string& out,
                       const FingerprintResult& fingerprint) {
  out += ",\"region\":\"";
  out += recipe::RegionCode(fingerprint.region);
  out += "\",\"num_recipes\":";
  json::AppendNumber(out, fingerprint.num_recipes);
  out += ",\"num_unique_ingredients\":";
  json::AppendNumber(out, fingerprint.num_unique_ingredients);
  out += ",\"mean_recipe_size\":";
  json::AppendNumber(out, fingerprint.mean_recipe_size);
  out += ",\"mean_pairing\":";
  json::AppendNumber(out, fingerprint.mean_pairing);
  out += ",\"top_ingredients\":[";
  for (size_t i = 0; i < fingerprint.top_ingredients.size(); ++i) {
    out += i > 0 ? ",{\"name\":\"" : "{\"name\":\"";
    json::AppendEscaped(out, fingerprint.top_ingredients[i].first);
    out += "\",\"count\":";
    json::AppendNumber(out, fingerprint.top_ingredients[i].second);
    out += '}';
  }
  out += "],\"baselines\":[";
  for (size_t i = 0; i < fingerprint.baselines.size(); ++i) {
    const analysis::FoodPairingResult& baseline = fingerprint.baselines[i];
    out += i > 0 ? ",{\"model\":\"" : "{\"model\":\"";
    out += analysis::NullModelKindSlug(baseline.kind);
    out += "\",\"real_mean\":";
    json::AppendNumber(out, baseline.real_mean);
    out += ",\"null_mean\":";
    json::AppendNumber(out, baseline.null_mean);
    out += ",\"z_score\":";
    json::AppendNumber(out, baseline.z_score);
    out += '}';
  }
  out += ']';
}

void AppendSimilar(std::string& out, const SimilarResult& similar) {
  out += ",\"region\":\"";
  out += recipe::RegionCode(similar.region);
  out += "\",\"neighbors\":[";
  for (size_t i = 0; i < similar.neighbors.size(); ++i) {
    out += i > 0 ? ",{\"region\":\"" : "{\"region\":\"";
    out += recipe::RegionCode(similar.neighbors[i].first);
    out += "\",\"similarity\":";
    json::AppendNumber(out, similar.neighbors[i].second);
    out += '}';
  }
  out += ']';
}

/// Appends the `"code"` and `"error"` members every failure carries.
void AppendError(std::string& out, const culinary::Status& status) {
  out += ",\"code\":\"";
  out += StatusCodeToString(status.code());
  out += "\",\"error\":\"";
  json::AppendEscaped(out, status.message());
  out += '"';
}

/// Appends the line `SerializeResponse` returns. Batch lines append each
/// sub-response through here in place, so an element is exactly the line a
/// single call would have produced, which the batch-vs-sequential identity
/// checks diff.
void AppendResponse(std::string& out, std::string_view id,
                    const Response& response) {
  out += "{\"id\":\"";
  json::AppendEscaped(out, id);
  out += "\",\"op\":\"";
  out += EndpointName(response.endpoint);
  out += response.status.ok() ? "\",\"ok\":true" : "\",\"ok\":false";
  out += ",\"generation\":";
  json::AppendNumber(out, response.generation);
  if (!response.status.ok()) {
    AppendError(out, response.status);
  } else if (const auto* score = std::get_if<ScoreResult>(&response.payload)) {
    AppendScore(out, *score);
  } else if (const auto* suggestions =
                 std::get_if<std::vector<Suggestion>>(&response.payload)) {
    AppendSuggestions(out, *suggestions);
  } else if (const auto* fingerprint =
                 std::get_if<FingerprintResult>(&response.payload)) {
    AppendFingerprint(out, *fingerprint);
  } else if (const auto* similar =
                 std::get_if<SimilarResult>(&response.payload)) {
    AppendSimilar(out, *similar);
  }
  out += '}';
}

}  // namespace

std::string EscapeJson(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  json::AppendEscaped(out, text);
  return out;
}

namespace {

/// The keys `ApplyRequestFields` reads.
constexpr std::string_view kRequestKeys[] = {
    "id", "op", "ingredients", "ids", "region", "k", "deadline_ms", "requests"};

/// Applies the parsed fields of one (sub-)request object onto `wire`.
/// `requests_out` receives the raw "requests" object array when non-null
/// (top level); sub-requests pass null, so an unexpected object array there
/// was already rejected by the parser. Unknown keys are ignored: the server
/// stays forward-compatible with newer clients. A key it reads may appear
/// once: a second "op" would otherwise win over the first and a second
/// "ids" would extend it, so a repeat is InvalidArgument.
culinary::Status ApplyRequestFields(
    const std::vector<JsonField>& fields, WireRequest* wire,
    const std::vector<std::vector<JsonField>>** requests_out) {
  bool saw_op = false;
  uint32_t seen = 0;  // bit i: kRequestKeys[i] already seen
  for (const JsonField& field : fields) {
    for (size_t i = 0; i < std::size(kRequestKeys); ++i) {
      if (field.key != kRequestKeys[i]) continue;
      if ((seen >> i) & 1) {
        return culinary::Status::InvalidArgument("repeated key \"" +
                                                 field.key + "\"");
      }
      seen |= uint32_t{1} << i;
      break;
    }
    const JsonValue& value = field.value;
    if (field.key == "id" && value.kind == JsonValue::Kind::kString) {
      wire->id = value.str;
    } else if (field.key == "op" && value.kind == JsonValue::Kind::kString) {
      wire->op = value.str;
      saw_op = true;
    } else if (field.key == "ingredients" &&
               value.kind == JsonValue::Kind::kStrings) {
      wire->request.ingredient_names = value.strings;
    } else if (field.key == "ids" &&
               (value.kind == JsonValue::Kind::kNumbers ||
                value.kind == JsonValue::Kind::kStrings)) {
      using IdLimits = std::numeric_limits<flavor::IngredientId>;
      const auto not_ids = [] {
        return culinary::Status::InvalidArgument(
            "ids must be integers in [" + std::to_string(IdLimits::min()) +
            ", " + std::to_string(IdLimits::max()) + "]");
      };
      // String elements would otherwise be dropped silently (an empty array
      // parses as strings and stays valid).
      if (!value.strings.empty()) return not_ids();
      for (const double d : value.numbers) {
        // Casting a fraction would silently truncate it, and casting a
        // value outside the id type is undefined.
        if (!(d >= IdLimits::min() && d <= IdLimits::max()) ||
            d != std::trunc(d)) {
          return not_ids();
        }
        wire->request.ingredient_ids.push_back(
            static_cast<flavor::IngredientId>(d));
      }
    } else if (field.key == "region" &&
               value.kind == JsonValue::Kind::kString) {
      const std::optional<recipe::Region> region =
          recipe::RegionFromCode(value.str);
      if (!region.has_value()) {
        return culinary::Status::InvalidArgument("unknown region code \"" +
                                                 value.str + "\"");
      }
      wire->request.region = *region;
    } else if (field.key == "k" && value.kind == JsonValue::Kind::kNumber) {
      if (value.num < 0) {
        return culinary::Status::InvalidArgument("k must be >= 0");
      }
      // Casting a fraction would silently truncate it.
      if (value.num != std::trunc(value.num)) {
        return culinary::Status::InvalidArgument("k must be an integer");
      }
      // Saturate instead of casting a value past size_t (undefined): any k
      // at or past the candidate count already means "every candidate".
      constexpr double kMaxK =
          static_cast<double>(std::numeric_limits<size_t>::max());
      wire->request.k = value.num >= kMaxK
                            ? std::numeric_limits<size_t>::max()
                            : static_cast<size_t>(value.num);
    } else if (field.key == "deadline_ms" &&
               value.kind == JsonValue::Kind::kNumber) {
      wire->request.deadline_ms = value.num;
    } else if (field.key == "requests" &&
               value.kind == JsonValue::Kind::kObjects &&
               requests_out != nullptr) {
      *requests_out = &value.objects;
    }
  }
  if (!saw_op) {
    return culinary::Status::InvalidArgument("request has no \"op\"");
  }
  return culinary::Status::OK();
}

/// Maps `wire->op` onto an endpoint / admin / batch classification.
culinary::Status ResolveOp(WireRequest* wire) {
  if (wire->op == "ping") {
    wire->request.endpoint = Endpoint::kPing;
  } else if (wire->op == "score") {
    wire->request.endpoint = Endpoint::kScore;
  } else if (wire->op == "suggest") {
    wire->request.endpoint = Endpoint::kSuggest;
  } else if (wire->op == "fingerprint") {
    wire->request.endpoint = Endpoint::kFingerprint;
  } else if (wire->op == "similar") {
    wire->request.endpoint = Endpoint::kSimilar;
  } else if (wire->op == "reload" || wire->op == "shutdown" ||
             wire->op == "health") {
    wire->is_admin = true;
  } else if (wire->op == "batch") {
    wire->is_batch = true;
  } else {
    return culinary::Status::InvalidArgument("unknown op \"" + wire->op +
                                             "\"");
  }
  return culinary::Status::OK();
}

}  // namespace

culinary::Result<WireRequest> ParseRequestLine(std::string_view line) {
  FlatJsonReader reader(line);
  auto parsed = reader.Parse();
  if (!parsed.ok()) return parsed.status();

  WireRequest wire;
  const std::vector<std::vector<JsonField>>* sub_objects = nullptr;
  CULINARY_RETURN_IF_ERROR(
      ApplyRequestFields(parsed.value(), &wire, &sub_objects));
  CULINARY_RETURN_IF_ERROR(ResolveOp(&wire));
  if (!wire.is_batch) return wire;

  // Assemble the batch envelope: every sub-object must resolve to a query
  // op — admin inside a batch would let one queued line flip server state,
  // and a nested batch has no parse (the reader rejects deeper nesting).
  if (sub_objects == nullptr || sub_objects->empty()) {
    return culinary::Status::InvalidArgument(
        "batch needs a non-empty \"requests\" array");
  }
  if (sub_objects->size() > kMaxWireBatch) {
    return culinary::Status::InvalidArgument(
        "batch of " + std::to_string(sub_objects->size()) +
        " exceeds the limit of " + std::to_string(kMaxWireBatch));
  }
  wire.batch.reserve(sub_objects->size());
  for (const std::vector<JsonField>& fields : *sub_objects) {
    WireRequest sub;
    CULINARY_RETURN_IF_ERROR(ApplyRequestFields(fields, &sub, nullptr));
    if (sub.op == "batch") {
      return culinary::Status::InvalidArgument(
          "nested batch inside a batch is unsupported");
    }
    CULINARY_RETURN_IF_ERROR(ResolveOp(&sub));
    if (sub.is_admin) {
      return culinary::Status::InvalidArgument(
          "admin op \"" + sub.op + "\" is not allowed inside a batch");
    }
    wire.batch.push_back(std::move(sub));
  }
  return wire;
}

std::string SerializeResponse(const std::string& id,
                              const Response& response) {
  std::string out;
  AppendResponse(out, id, response);
  // Drop the growth slack: a load client keeps thousands of answers as
  // references, and the slack would show in its peak RSS.
  out.shrink_to_fit();
  return out;
}

std::string SerializeBatchResponse(const std::string& id,
                                   const std::vector<std::string>& sub_ids,
                                   const std::vector<Response>& responses) {
  std::string out = "{\"id\":\"";
  json::AppendEscaped(out, id);
  out += "\",\"op\":\"batch\",\"ok\":true,\"count\":";
  json::AppendNumber(out, responses.size());
  out += ",\"responses\":[";
  for (size_t i = 0; i < responses.size(); ++i) {
    if (i > 0) out += ',';
    AppendResponse(out, i < sub_ids.size() ? sub_ids[i] : std::string_view(),
                   responses[i]);
  }
  out += "]}";
  out.shrink_to_fit();  // as in SerializeResponse
  return out;
}

std::string SerializeError(const std::string& id,
                           const culinary::Status& status) {
  std::string out = "{\"id\":\"";
  json::AppendEscaped(out, id);
  out += "\",\"ok\":false";
  AppendError(out, status);
  out += '}';
  return out;
}

}  // namespace culinary::serving
