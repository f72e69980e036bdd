#include "src/storage/text_format.h"

#include <fstream>
#include <sstream>

#include "src/common/string_util.h"
#include "src/constraint/temporal_constraint.h"
#include "src/engine/query.h"
#include "src/lang/analyzer.h"
#include "src/lang/parser.h"

namespace vqldb {

namespace {

// Symbol used when dumping an anonymous object.
std::string SyntheticSymbol(ObjectId id) {
  return "x" + std::to_string(id.raw);
}

std::string NameOf(const VideoDatabase& db, ObjectId id) {
  const std::string* symbol = db.SymbolOf(id);
  return symbol != nullptr ? *symbol : SyntheticSymbol(id);
}

}  // namespace

Result<std::string> TextFormat::RenderValue(const VideoDatabase& db,
                                            const Value& value) {
  switch (value.kind()) {
    case Value::Kind::kNull:
      return Status::InvalidArgument("null value cannot be rendered");
    case Value::Kind::kBool:
    case Value::Kind::kInt:
    case Value::Kind::kDouble:
    case Value::Kind::kString:
      return value.ToString();
    case Value::Kind::kOid: {
      ObjectId id = value.oid_value();
      if (!db.Exists(id)) {
        return Status::Corruption("value references unknown object " +
                                  id.ToString());
      }
      return NameOf(db, id);
    }
    case Value::Kind::kTemporal:
      return "(" +
             TemporalConstraint::FromIntervalSet(value.temporal_value())
                 .ToString() +
             ")";
    case Value::Kind::kSet: {
      std::vector<std::string> parts;
      for (const Value& v : value.set_elements()) {
        VQLDB_ASSIGN_OR_RETURN(std::string s, RenderValue(db, v));
        parts.push_back(std::move(s));
      }
      return "{" + Join(parts, ", ") + "}";
    }
  }
  return Status::Internal("unhandled value kind");
}

Result<std::string> TextFormat::Dump(const VideoDatabase& db) {
  std::ostringstream os;
  os << "// vqldb text archive\n";

  auto dump_object = [&](ObjectId id, bool is_interval) -> Status {
    VQLDB_ASSIGN_OR_RETURN(const VideoObject* obj, db.GetObject(id));
    os << (is_interval ? "interval " : "object ") << NameOf(db, id) << " {";
    bool first = true;
    for (const auto& [name, value] : obj->attributes()) {
      VQLDB_ASSIGN_OR_RETURN(std::string rendered, RenderValue(db, value));
      os << (first ? " " : ", ") << name << ": " << rendered;
      first = false;
    }
    os << (first ? "}." : " }.") << "\n";
    return Status::OK();
  };

  os << "\n// entities (O)\n";
  for (ObjectId id : db.Entities()) {
    VQLDB_RETURN_NOT_OK(dump_object(id, false));
  }
  os << "\n// generalized intervals (I)\n";
  for (ObjectId id : db.BaseIntervals()) {
    VQLDB_RETURN_NOT_OK(dump_object(id, true));
  }
  os << "\n// relation facts (R)\n";
  for (const auto& [relation, rel] : db.Relations()) {
    for (size_t pos = 0; pos < rel.rows(); ++pos) {
      const std::vector<Value> fact_args = rel.ArgsAt(pos);
      // Facts over derived (concatenation) intervals are regenerable from
      // rules and cannot be declared; keep them as comments.
      bool references_derived = false;
      for (const Value& v : fact_args) {
        if (v.is_oid()) {
          auto kind = db.KindOf(v.oid_value());
          if (kind.ok() && *kind == ObjectKind::kDerivedInterval) {
            references_derived = true;
          }
        }
      }
      std::vector<std::string> args;
      for (const Value& v : fact_args) {
        VQLDB_ASSIGN_OR_RETURN(std::string s, RenderValue(db, v));
        args.push_back(std::move(s));
      }
      if (references_derived) os << "// (derived) ";
      os << relation << "(" << Join(args, ", ") << ").\n";
    }
  }
  return os.str();
}

Result<LoadedProgram> TextFormat::Load(std::string_view text,
                                       VideoDatabase* db) {
  VQLDB_ASSIGN_OR_RETURN(Program program, Parser::ParseProgram(text));
  VQLDB_RETURN_NOT_OK(Analyzer::CheckProgram(program));
  LoadedProgram out;
  for (const Statement& s : program.statements) {
    switch (s.kind) {
      case Statement::Kind::kDecl:
        VQLDB_RETURN_NOT_OK(QuerySession::ApplyDecl(s.decl, db));
        ++out.decls;
        break;
      case Statement::Kind::kRule:
        if (s.rule.IsFact() && !s.rule.IsConstructive()) {
          VQLDB_RETURN_NOT_OK(QuerySession::ApplyFact(s.rule, db));
          ++out.facts;
        } else {
          out.rules.push_back(s.rule);
        }
        break;
      case Statement::Kind::kQuery:
        out.queries.push_back(s.query);
        break;
    }
  }
  return out;
}

Status TextFormat::DumpToFile(const VideoDatabase& db,
                              const std::string& path) {
  VQLDB_ASSIGN_OR_RETURN(std::string text, Dump(db));
  std::ofstream file(path);
  if (!file) return Status::IOError("cannot open " + path + " for writing");
  file << text;
  if (!file.good()) return Status::IOError("write to " + path + " failed");
  return Status::OK();
}

Result<LoadedProgram> TextFormat::LoadFromFile(const std::string& path,
                                               VideoDatabase* db) {
  std::ifstream file(path);
  if (!file) return Status::IOError("cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return Load(buffer.str(), db);
}

}  // namespace vqldb
