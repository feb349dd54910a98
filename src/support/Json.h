//===- support/Json.h - Minimal JSON document model ------------*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small JSON value model plus a recursive-descent parser, for the tools
/// that *read* JSON: the bench ledger ingests `BENCH_<name>.json` artifacts
/// and `--metrics-out` snapshots, and `oppsla_bench gate` reads baselines
/// and its rule manifest. Writers across the codebase keep hand-rendering
/// their documents (they control the shape exactly) and share only the two
/// helpers at the bottom: escape() for strings and appendNumber() for
/// doubles. Deliberately minimal: no comments, no trailing commas, objects
/// keep key order of first appearance.
///
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_SUPPORT_JSON_H
#define OPPSLA_SUPPORT_JSON_H

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace oppsla {
namespace json {

/// One parsed JSON value. Containers own their children via Value handles;
/// a default-constructed Value is null.
class Value {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool boolean() const { return B; }
  double number() const { return Num; }
  const std::string &str() const { return Str; }
  const std::vector<Value> &array() const { return Arr; }
  /// Object members in first-appearance order.
  const std::vector<std::pair<std::string, Value>> &members() const {
    return Obj;
  }

  /// Member lookup; nullptr when absent or not an object.
  const Value *find(const std::string &Key) const;
  /// String member of \p Key, or \p Default when absent/not a string.
  std::string getString(const std::string &Key,
                        const std::string &Default = "") const;
  /// Numeric member of \p Key, or \p Default when absent/not a number.
  double getNumber(const std::string &Key, double Default = 0.0) const;

  static Value makeNull() { return Value(); }
  static Value makeBool(bool X);
  static Value makeNumber(double X);
  static Value makeString(std::string X);
  static Value makeArray(std::vector<Value> X);
  static Value makeObject(std::vector<std::pair<std::string, Value>> X);

private:
  Kind K = Kind::Null;
  bool B = false;
  double Num = 0.0;
  std::string Str;
  std::vector<Value> Arr;
  std::vector<std::pair<std::string, Value>> Obj;
};

/// Parses \p Text as exactly one JSON document. On success returns true
/// and fills \p Out; on failure returns false and \p Error describes the
/// first problem with its byte offset.
bool parse(const std::string &Text, Value &Out, std::string &Error);

/// parse() from the contents of \p Path. Read failures land in \p Error.
bool parseFile(const std::string &Path, Value &Out, std::string &Error);

/// Appends \p S to \p Out with JSON string escaping (quotes, backslashes,
/// control characters); does not add surrounding quotes.
void escape(std::string &Out, std::string_view S);

/// Appends a finite double with "%.9g", the number format of every JSON
/// document the repo writes; non-finite values render as null.
void appendNumber(std::string &Out, double V);

} // namespace json
} // namespace oppsla

#endif // OPPSLA_SUPPORT_JSON_H
