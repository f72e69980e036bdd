#include "src/storage/binary_format.h"

#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "src/model/term_dict.h"

namespace vqldb {

namespace {

constexpr uint32_t kMagic = 0x56514442;  // "VQDB"
constexpr uint32_t kVersion = 1;

// ------------------------------------------------------------------ writer

class Writer {
 public:
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      out_.push_back(static_cast<char>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    out_.push_back(static_cast<char>(v));
  }

  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<char>(v >> (8 * i)));
  }

  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<char>(bits >> (8 * i)));
    }
  }

  void PutZigzag(int64_t v) {
    PutVarint((static_cast<uint64_t>(v) << 1) ^
              static_cast<uint64_t>(v >> 63));
  }

  void PutString(std::string_view s) {
    PutVarint(s.size());
    out_.append(s);
  }

  std::string Take() { return std::move(out_); }
  const std::string& buffer() const { return out_; }

 private:
  std::string out_;
};

// ------------------------------------------------------------------ reader

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  Result<uint64_t> Varint() {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= bytes_.size()) return Truncated();
      uint8_t b = static_cast<uint8_t>(bytes_[pos_++]);
      if (shift >= 64) return Status::Corruption("varint overflow");
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) break;
      shift += 7;
    }
    return v;
  }

  Result<uint32_t> U32() {
    if (pos_ + 4 > bytes_.size()) return Truncated();
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_++]))
           << (8 * i);
    }
    return v;
  }

  Result<double> Double() {
    if (pos_ + 8 > bytes_.size()) return Truncated();
    uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_++]))
              << (8 * i);
    }
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  Result<int64_t> Zigzag() {
    VQLDB_ASSIGN_OR_RETURN(uint64_t raw, Varint());
    return static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
  }

  Result<std::string> String() {
    VQLDB_ASSIGN_OR_RETURN(uint64_t len, Varint());
    if (pos_ + len > bytes_.size()) return Truncated();
    std::string s(bytes_.substr(pos_, len));
    pos_ += len;
    return s;
  }

  size_t position() const { return pos_; }

 private:
  static Status Truncated() {
    return Status::Corruption("truncated binary snapshot");
  }

  std::string_view bytes_;
  size_t pos_ = 0;
};

// --------------------------------------------------------------- value enc

enum class ValueTag : uint8_t {
  kBool = 1,
  kInt = 2,
  kDouble = 3,
  kString = 4,
  kOid = 5,
  kTemporal = 6,
  kSet = 7,
};

void WriteValue(Writer* w, const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kBool:
      w->PutVarint(static_cast<uint64_t>(ValueTag::kBool));
      w->PutVarint(v.bool_value() ? 1 : 0);
      return;
    case Value::Kind::kInt:
      w->PutVarint(static_cast<uint64_t>(ValueTag::kInt));
      w->PutZigzag(v.int_value());
      return;
    case Value::Kind::kDouble:
      w->PutVarint(static_cast<uint64_t>(ValueTag::kDouble));
      w->PutDouble(v.double_value());
      return;
    case Value::Kind::kString:
      w->PutVarint(static_cast<uint64_t>(ValueTag::kString));
      w->PutString(v.string_value());
      return;
    case Value::Kind::kOid:
      w->PutVarint(static_cast<uint64_t>(ValueTag::kOid));
      w->PutVarint(v.oid_value().raw);
      return;
    case Value::Kind::kTemporal: {
      w->PutVarint(static_cast<uint64_t>(ValueTag::kTemporal));
      const auto& fragments = v.temporal_value().fragments();
      w->PutVarint(fragments.size());
      for (const TimeInterval& iv : fragments) {
        w->PutDouble(iv.lo());
        w->PutDouble(iv.hi());
        w->PutVarint((iv.lo_open() ? 1u : 0u) | (iv.hi_open() ? 2u : 0u));
      }
      return;
    }
    case Value::Kind::kSet: {
      w->PutVarint(static_cast<uint64_t>(ValueTag::kSet));
      w->PutVarint(v.set_elements().size());
      for (const Value& e : v.set_elements()) WriteValue(w, e);
      return;
    }
    case Value::Kind::kNull:
      w->PutVarint(0);
      return;
  }
}

// Reads a value, remapping oids through `idmap`.
Result<Value> ReadValue(Reader* r,
                        const std::unordered_map<uint64_t, ObjectId>& idmap) {
  VQLDB_ASSIGN_OR_RETURN(uint64_t tag, r->Varint());
  switch (static_cast<ValueTag>(tag)) {
    case ValueTag::kBool: {
      VQLDB_ASSIGN_OR_RETURN(uint64_t b, r->Varint());
      return Value::Bool(b != 0);
    }
    case ValueTag::kInt: {
      VQLDB_ASSIGN_OR_RETURN(int64_t v, r->Zigzag());
      return Value::Int(v);
    }
    case ValueTag::kDouble: {
      VQLDB_ASSIGN_OR_RETURN(double v, r->Double());
      return Value::Double(v);
    }
    case ValueTag::kString: {
      VQLDB_ASSIGN_OR_RETURN(std::string s, r->String());
      return Value::String(std::move(s));
    }
    case ValueTag::kOid: {
      VQLDB_ASSIGN_OR_RETURN(uint64_t raw, r->Varint());
      auto it = idmap.find(raw);
      if (it == idmap.end()) {
        return Status::Corruption("snapshot references unknown object id " +
                                  std::to_string(raw));
      }
      return Value::Oid(it->second);
    }
    case ValueTag::kTemporal: {
      VQLDB_ASSIGN_OR_RETURN(uint64_t n, r->Varint());
      std::vector<TimeInterval> ivs;
      for (uint64_t i = 0; i < n; ++i) {
        VQLDB_ASSIGN_OR_RETURN(double lo, r->Double());
        VQLDB_ASSIGN_OR_RETURN(double hi, r->Double());
        VQLDB_ASSIGN_OR_RETURN(uint64_t flags, r->Varint());
        ivs.emplace_back(lo, (flags & 1) != 0, hi, (flags & 2) != 0);
      }
      return Value::Temporal(IntervalSet(std::move(ivs)));
    }
    case ValueTag::kSet: {
      VQLDB_ASSIGN_OR_RETURN(uint64_t n, r->Varint());
      std::vector<Value> elements;
      for (uint64_t i = 0; i < n; ++i) {
        VQLDB_ASSIGN_OR_RETURN(Value e, ReadValue(r, idmap));
        elements.push_back(std::move(e));
      }
      return Value::Set(std::move(elements));
    }
    default:
      return Status::Corruption("unknown value tag " + std::to_string(tag));
  }
}

// Advances the reader past one encoded value without materializing it.
Status SkipValue(Reader* r) {
  VQLDB_ASSIGN_OR_RETURN(uint64_t tag, r->Varint());
  switch (static_cast<ValueTag>(tag)) {
    case ValueTag::kBool:
    case ValueTag::kInt:
    case ValueTag::kOid:
      return r->Varint().ok() ? Status::OK()
                              : Status::Corruption("truncated value");
    case ValueTag::kDouble:
      return r->Double().ok() ? Status::OK()
                              : Status::Corruption("truncated value");
    case ValueTag::kString:
      return r->String().ok() ? Status::OK()
                              : Status::Corruption("truncated value");
    case ValueTag::kTemporal: {
      VQLDB_ASSIGN_OR_RETURN(uint64_t n, r->Varint());
      for (uint64_t i = 0; i < n; ++i) {
        VQLDB_RETURN_NOT_OK(r->Double().ok()
                                ? Status::OK()
                                : Status::Corruption("truncated value"));
        VQLDB_RETURN_NOT_OK(r->Double().ok()
                                ? Status::OK()
                                : Status::Corruption("truncated value"));
        VQLDB_RETURN_NOT_OK(r->Varint().ok()
                                ? Status::OK()
                                : Status::Corruption("truncated value"));
      }
      return Status::OK();
    }
    case ValueTag::kSet: {
      VQLDB_ASSIGN_OR_RETURN(uint64_t n, r->Varint());
      for (uint64_t i = 0; i < n; ++i) {
        VQLDB_RETURN_NOT_OK(SkipValue(r));
      }
      return Status::OK();
    }
    default:
      return Status::Corruption("unknown value tag " + std::to_string(tag));
  }
}

}  // namespace

uint32_t Crc32(std::string_view bytes) {
  static uint32_t table[256];
  static bool init = [] {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return true;
  }();
  (void)init;
  uint32_t crc = 0xffffffffu;
  for (unsigned char b : bytes) {
    crc = table[(crc ^ b) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

Result<std::string> BinaryFormat::Serialize(const VideoDatabase& db) {
  Writer w;
  w.PutU32(kMagic);
  w.PutU32(kVersion);

  auto write_object = [&](ObjectId id) -> Status {
    VQLDB_ASSIGN_OR_RETURN(const VideoObject* obj, db.GetObject(id));
    w.PutVarint(id.raw);
    const std::string* symbol = db.SymbolOf(id);
    w.PutString(symbol != nullptr ? *symbol : "");
    w.PutVarint(obj->attribute_count());
    for (const auto& [name, value] : obj->attributes()) {
      w.PutString(name);
      WriteValue(&w, value);
    }
    return Status::OK();
  };

  w.PutVarint(db.Entities().size());
  for (ObjectId id : db.Entities()) {
    VQLDB_RETURN_NOT_OK(write_object(id));
  }
  w.PutVarint(db.BaseIntervals().size());
  for (ObjectId id : db.BaseIntervals()) {
    VQLDB_RETURN_NOT_OK(write_object(id));
  }

  TermDict& dict = TermDict::Global();
  w.PutVarint(db.Relations().size());
  for (const auto& [relation, rel] : db.Relations()) {
    w.PutString(relation);
    w.PutVarint(rel.rows());
    for (size_t pos = 0; pos < rel.rows(); ++pos) {
      const uint32_t* row = rel.row(pos);
      w.PutVarint(rel.arity());
      for (uint32_t c = 0; c < rel.arity(); ++c) {
        WriteValue(&w, dict.Get(row[c]));
      }
    }
  }

  uint32_t crc = Crc32(w.buffer());
  w.PutU32(crc);
  return w.Take();
}

Result<VideoDatabase> BinaryFormat::Deserialize(std::string_view bytes) {
  if (bytes.size() < 12) return Status::Corruption("snapshot too small");
  uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |= static_cast<uint32_t>(
                      static_cast<uint8_t>(bytes[bytes.size() - 4 + i]))
                  << (8 * i);
  }
  std::string_view body = bytes.substr(0, bytes.size() - 4);
  if (Crc32(body) != stored_crc) {
    return Status::Corruption("snapshot checksum mismatch");
  }

  Reader r(body);
  VQLDB_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic != kMagic) return Status::Corruption("bad snapshot magic");
  VQLDB_ASSIGN_OR_RETURN(uint32_t version, r.U32());
  if (version != kVersion) {
    return Status::Corruption("unsupported snapshot version " +
                              std::to_string(version));
  }

  VideoDatabase db;
  std::unordered_map<uint64_t, ObjectId> idmap;

  // Attribute values may reference objects declared later (oids are global),
  // so the load is two-phase: phase A creates every object and records each
  // attribute's byte offset (skipping the value); phase B decodes the staged
  // values once the id map is complete.
  struct StagedAttr {
    ObjectId id;
    std::string name;
    size_t value_offset;
  };
  auto scan_section = [&](bool is_interval,
                          std::vector<StagedAttr>* staged) -> Status {
    VQLDB_ASSIGN_OR_RETURN(uint64_t count, r.Varint());
    for (uint64_t i = 0; i < count; ++i) {
      VQLDB_ASSIGN_OR_RETURN(uint64_t old_id, r.Varint());
      VQLDB_ASSIGN_OR_RETURN(std::string symbol, r.String());
      ObjectId id;
      if (is_interval) {
        VQLDB_ASSIGN_OR_RETURN(id,
                               db.CreateInterval(symbol, IntervalSet::Empty()));
      } else {
        VQLDB_ASSIGN_OR_RETURN(id, db.CreateEntity(symbol));
      }
      idmap[old_id] = id;
      VQLDB_ASSIGN_OR_RETURN(uint64_t attr_count, r.Varint());
      for (uint64_t a = 0; a < attr_count; ++a) {
        VQLDB_ASSIGN_OR_RETURN(std::string name, r.String());
        staged->push_back(StagedAttr{id, std::move(name), r.position()});
        // Skip the value by decoding it with an empty idmap surrogate that
        // tolerates oids: use a skip-decoder.
        VQLDB_RETURN_NOT_OK(SkipValue(&r));
      }
    }
    return Status::OK();
  };

  std::vector<StagedAttr> staged;
  VQLDB_RETURN_NOT_OK(scan_section(false, &staged));
  VQLDB_RETURN_NOT_OK(scan_section(true, &staged));

  // Phase B: decode staged attribute values now that idmap is complete.
  for (const StagedAttr& attr : staged) {
    Reader vr(body.substr(attr.value_offset));
    VQLDB_ASSIGN_OR_RETURN(Value value, ReadValue(&vr, idmap));
    VQLDB_RETURN_NOT_OK(db.SetAttribute(attr.id, attr.name, std::move(value))
                            .WithContext("restoring attribute " + attr.name));
  }

  // Facts.
  VQLDB_ASSIGN_OR_RETURN(uint64_t relation_count, r.Varint());
  for (uint64_t i = 0; i < relation_count; ++i) {
    VQLDB_ASSIGN_OR_RETURN(std::string relation, r.String());
    VQLDB_ASSIGN_OR_RETURN(uint64_t fact_count, r.Varint());
    for (uint64_t f = 0; f < fact_count; ++f) {
      VQLDB_ASSIGN_OR_RETURN(uint64_t arity, r.Varint());
      Fact fact;
      fact.relation = relation;
      for (uint64_t a = 0; a < arity; ++a) {
        VQLDB_ASSIGN_OR_RETURN(Value v, ReadValue(&r, idmap));
        fact.args.push_back(std::move(v));
      }
      VQLDB_RETURN_NOT_OK(db.AssertFact(std::move(fact)));
    }
  }
  return db;
}

Status BinaryFormat::Save(const VideoDatabase& db, const std::string& path,
                          Env* env) {
  if (env == nullptr) env = Env::Default();
  VQLDB_ASSIGN_OR_RETURN(std::string bytes, Serialize(db));
  // Temp file + fsync + rename + directory fsync: readers never observe a
  // half-written snapshot, and a crash leaves the previous one intact.
  const std::string tmp = path + ".tmp";
  auto write_tmp = [&]() -> Status {
    VQLDB_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                           env->NewTruncatedFile(tmp));
    VQLDB_RETURN_NOT_OK(file->Append(bytes));
    VQLDB_RETURN_NOT_OK(file->Sync());
    return file->Close();
  };
  Status st = write_tmp();
  if (st.ok()) st = env->RenameFile(tmp, path);
  if (st.ok()) st = env->SyncDir(path);
  if (!st.ok()) {
    env->RemoveFile(tmp);  // best effort; the real error wins
    return st.WithContext("atomic snapshot write to " + path);
  }
  return Status::OK();
}

Result<VideoDatabase> BinaryFormat::Load(const std::string& path, Env* env) {
  if (env == nullptr) env = Env::Default();
  VQLDB_ASSIGN_OR_RETURN(std::string bytes, env->ReadFileToString(path));
  return Deserialize(bytes);
}

}  // namespace vqldb
