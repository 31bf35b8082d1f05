#include "src/warehouse/dictionary.h"

namespace sampwh {

Value ValueDictionary::Encode(std::string_view token) {
  const auto it = codes_.find(std::string(token));
  if (it != codes_.end()) return it->second;
  const Value code = static_cast<Value>(tokens_.size());
  tokens_.emplace_back(token);
  codes_.emplace(tokens_.back(), code);
  return code;
}

Result<Value> ValueDictionary::Lookup(std::string_view token) const {
  const auto it = codes_.find(std::string(token));
  if (it == codes_.end()) {
    return Status::NotFound("token not in dictionary");
  }
  return it->second;
}

Result<std::string> ValueDictionary::Decode(Value code) const {
  if (code < 0 || static_cast<uint64_t>(code) >= tokens_.size()) {
    return Status::OutOfRange("unknown dictionary code");
  }
  return tokens_[static_cast<size_t>(code)];
}

void ValueDictionary::SerializeTo(BinaryWriter* writer) const {
  writer->PutVarint64(tokens_.size());
  for (const std::string& token : tokens_) {
    writer->PutString(token);
  }
}

Result<ValueDictionary> ValueDictionary::DeserializeFrom(
    BinaryReader* reader) {
  uint64_t n;
  SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(&n));
  // Every token is at least its one-byte length: reject a count the input
  // cannot hold before reserving memory for it.
  if (n > reader->remaining()) {
    return Status::Corruption("dictionary token count exceeds input");
  }
  ValueDictionary dict;
  dict.tokens_.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    std::string token;
    SAMPWH_RETURN_IF_ERROR(reader->GetString(&token));
    if (dict.codes_.contains(token)) {
      return Status::Corruption("duplicate token in serialized dictionary");
    }
    dict.tokens_.push_back(std::move(token));
    dict.codes_.emplace(dict.tokens_.back(),
                        static_cast<Value>(dict.tokens_.size() - 1));
  }
  return dict;
}

}  // namespace sampwh
