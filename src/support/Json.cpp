//===- support/Json.cpp - Minimal JSON document model ------------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace oppsla;
using namespace oppsla::json;

const Value *Value::find(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[Name, V] : Obj)
    if (Name == Key)
      return &V;
  return nullptr;
}

std::string Value::getString(const std::string &Key,
                             const std::string &Default) const {
  const Value *V = find(Key);
  return V && V->isString() ? V->str() : Default;
}

double Value::getNumber(const std::string &Key, double Default) const {
  const Value *V = find(Key);
  return V && V->isNumber() ? V->number() : Default;
}

Value Value::makeBool(bool X) {
  Value V;
  V.K = Kind::Bool;
  V.B = X;
  return V;
}

Value Value::makeNumber(double X) {
  Value V;
  V.K = Kind::Number;
  V.Num = X;
  return V;
}

Value Value::makeString(std::string X) {
  Value V;
  V.K = Kind::String;
  V.Str = std::move(X);
  return V;
}

Value Value::makeArray(std::vector<Value> X) {
  Value V;
  V.K = Kind::Array;
  V.Arr = std::move(X);
  return V;
}

Value Value::makeObject(std::vector<std::pair<std::string, Value>> X) {
  Value V;
  V.K = Kind::Object;
  V.Obj = std::move(X);
  return V;
}

namespace {

class Parser {
public:
  Parser(const std::string &S, std::string &Error) : S(S), Error(Error) {}

  bool run(Value &Out) {
    skipWs();
    if (!value(Out))
      return false;
    skipWs();
    if (Pos != S.size())
      return fail("trailing content after document");
    return true;
  }

private:
  bool fail(const std::string &Msg) {
    if (Error.empty()) {
      std::ostringstream O;
      O << Msg << " at offset " << Pos;
      Error = O.str();
    }
    return false;
  }

  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }

  bool literal(const char *Lit) {
    size_t N = 0;
    while (Lit[N])
      ++N;
    if (S.compare(Pos, N, Lit) != 0)
      return fail(std::string("expected '") + Lit + "'");
    Pos += N;
    return true;
  }

  bool value(Value &Out) {
    if (++Depth > 64) {
      --Depth;
      return fail("nesting too deep");
    }
    const bool Ok = valueInner(Out);
    --Depth;
    return Ok;
  }

  bool valueInner(Value &Out) {
    if (Pos >= S.size())
      return fail("unexpected end of input");
    switch (S[Pos]) {
    case 'n':
      return literal("null") && (Out = Value::makeNull(), true);
    case 't':
      return literal("true") && (Out = Value::makeBool(true), true);
    case 'f':
      return literal("false") && (Out = Value::makeBool(false), true);
    case '"': {
      std::string Str;
      if (!string(Str))
        return false;
      Out = Value::makeString(std::move(Str));
      return true;
    }
    case '[':
      return array(Out);
    case '{':
      return object(Out);
    default:
      return number(Out);
    }
  }

  bool string(std::string &Out) {
    if (Pos >= S.size() || S[Pos] != '"')
      return fail("expected string");
    ++Pos;
    while (Pos < S.size()) {
      const char C = S[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C == '\\') {
        if (Pos + 1 >= S.size())
          return fail("bad escape");
        const char E = S[Pos + 1];
        Pos += 2;
        switch (E) {
        case '"':
          Out += '"';
          break;
        case '\\':
          Out += '\\';
          break;
        case '/':
          Out += '/';
          break;
        case 'b':
          Out += '\b';
          break;
        case 'f':
          Out += '\f';
          break;
        case 'n':
          Out += '\n';
          break;
        case 'r':
          Out += '\r';
          break;
        case 't':
          Out += '\t';
          break;
        case 'u': {
          if (Pos + 4 > S.size())
            return fail("bad \\u escape");
          unsigned Code = 0;
          for (int I = 0; I != 4; ++I) {
            const char H = S[Pos + static_cast<size_t>(I)];
            Code <<= 4;
            if (H >= '0' && H <= '9')
              Code |= static_cast<unsigned>(H - '0');
            else if (H >= 'a' && H <= 'f')
              Code |= static_cast<unsigned>(H - 'a' + 10);
            else if (H >= 'A' && H <= 'F')
              Code |= static_cast<unsigned>(H - 'A' + 10);
            else
              return fail("bad \\u escape");
          }
          Pos += 4;
          // UTF-8 encode the BMP code point (surrogate pairs are passed
          // through as two separate 3-byte sequences — good enough for the
          // identifier-ish strings these documents carry).
          if (Code < 0x80) {
            Out += static_cast<char>(Code);
          } else if (Code < 0x800) {
            Out += static_cast<char>(0xC0 | (Code >> 6));
            Out += static_cast<char>(0x80 | (Code & 0x3F));
          } else {
            Out += static_cast<char>(0xE0 | (Code >> 12));
            Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
            Out += static_cast<char>(0x80 | (Code & 0x3F));
          }
          break;
        }
        default:
          return fail("bad escape");
        }
        continue;
      }
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("control character in string");
      Out += C;
      ++Pos;
    }
    return fail("unterminated string");
  }

  bool number(Value &Out) {
    const size_t Start = Pos;
    if (Pos < S.size() && S[Pos] == '-')
      ++Pos;
    while (Pos < S.size() && std::isdigit(static_cast<unsigned char>(S[Pos])))
      ++Pos;
    if (Pos < S.size() && S[Pos] == '.') {
      ++Pos;
      while (Pos < S.size() &&
             std::isdigit(static_cast<unsigned char>(S[Pos])))
        ++Pos;
    }
    if (Pos < S.size() && (S[Pos] == 'e' || S[Pos] == 'E')) {
      ++Pos;
      if (Pos < S.size() && (S[Pos] == '+' || S[Pos] == '-'))
        ++Pos;
      while (Pos < S.size() &&
             std::isdigit(static_cast<unsigned char>(S[Pos])))
        ++Pos;
    }
    if (Pos == Start)
      return fail("expected value");
    const std::string Text = S.substr(Start, Pos - Start);
    char *End = nullptr;
    const double V = std::strtod(Text.c_str(), &End);
    if (!End || *End != '\0')
      return fail("malformed number");
    Out = Value::makeNumber(V);
    return true;
  }

  bool array(Value &Out) {
    ++Pos; // '['
    std::vector<Value> Items;
    skipWs();
    if (Pos < S.size() && S[Pos] == ']') {
      ++Pos;
      Out = Value::makeArray(std::move(Items));
      return true;
    }
    for (;;) {
      Value Item;
      skipWs();
      if (!value(Item))
        return false;
      Items.push_back(std::move(Item));
      skipWs();
      if (Pos >= S.size())
        return fail("unterminated array");
      if (S[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (S[Pos] == ']') {
        ++Pos;
        Out = Value::makeArray(std::move(Items));
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool object(Value &Out) {
    ++Pos; // '{'
    std::vector<std::pair<std::string, Value>> Members;
    skipWs();
    if (Pos < S.size() && S[Pos] == '}') {
      ++Pos;
      Out = Value::makeObject(std::move(Members));
      return true;
    }
    for (;;) {
      skipWs();
      std::string Key;
      if (!string(Key))
        return false;
      skipWs();
      if (Pos >= S.size() || S[Pos] != ':')
        return fail("expected ':'");
      ++Pos;
      skipWs();
      Value Member;
      if (!value(Member))
        return false;
      Members.emplace_back(std::move(Key), std::move(Member));
      skipWs();
      if (Pos >= S.size())
        return fail("unterminated object");
      if (S[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (S[Pos] == '}') {
        ++Pos;
        Out = Value::makeObject(std::move(Members));
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  const std::string &S;
  std::string &Error;
  size_t Pos = 0;
  int Depth = 0;
};

} // namespace

bool oppsla::json::parse(const std::string &Text, Value &Out,
                         std::string &Error) {
  Error.clear();
  return Parser(Text, Error).run(Out);
}

bool oppsla::json::parseFile(const std::string &Path, Value &Out,
                             std::string &Error) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Error = "cannot open " + Path;
    return false;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  if (!parse(Buf.str(), Out, Error)) {
    Error = Path + ": " + Error;
    return false;
  }
  return true;
}

void oppsla::json::escape(std::string &Out, std::string_view S) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(C)));
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

void oppsla::json::appendNumber(std::string &Out, double V) {
  if (!std::isfinite(V)) {
    Out += "null";
    return;
  }
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  Out += Buf;
}
