#include "common/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "common/log.hh"

namespace wisc {
namespace json {

namespace {

const char *
kindName(Value::Kind k)
{
    switch (k) {
      case Value::Kind::Null: return "null";
      case Value::Kind::Bool: return "bool";
      case Value::Kind::Uint: return "uint";
      case Value::Kind::Int: return "int";
      case Value::Kind::Double: return "double";
      case Value::Kind::String: return "string";
      case Value::Kind::Array: return "array";
      case Value::Kind::Object: return "object";
    }
    return "?";
}

void
writeEscaped(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          case '\r': os << "\\r"; break;
          case '\b': os << "\\b"; break;
          case '\f': os << "\\f"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                os << buf;
            } else {
                os << c; // UTF-8 passes through verbatim
            }
        }
    }
    os << '"';
}

void
writeDouble(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        os << "null";
        return;
    }
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    os.write(buf, res.ptr - buf);
}

} // namespace

bool
Value::asBool() const
{
    if (kind_ != Kind::Bool)
        wisc_fatal("JSON value is ", kindName(kind_), ", not bool");
    return bool_;
}

std::uint64_t
Value::asUint() const
{
    if (kind_ == Kind::Uint)
        return uint_;
    if (kind_ == Kind::Int && int_ >= 0)
        return static_cast<std::uint64_t>(int_);
    wisc_fatal("JSON value is ", kindName(kind_), ", not uint");
}

std::int64_t
Value::asInt() const
{
    if (kind_ == Kind::Int)
        return int_;
    if (kind_ == Kind::Uint &&
        uint_ <= static_cast<std::uint64_t>(
                     std::numeric_limits<std::int64_t>::max()))
        return static_cast<std::int64_t>(uint_);
    wisc_fatal("JSON value is ", kindName(kind_), ", not int");
}

double
Value::asDouble() const
{
    switch (kind_) {
      case Kind::Double: return double_;
      case Kind::Uint: return static_cast<double>(uint_);
      case Kind::Int: return static_cast<double>(int_);
      default:
        wisc_fatal("JSON value is ", kindName(kind_), ", not numeric");
    }
}

const std::string &
Value::asString() const
{
    if (kind_ != Kind::String)
        wisc_fatal("JSON value is ", kindName(kind_), ", not string");
    return str_;
}

Value &
Value::push(Value v)
{
    if (kind_ != Kind::Array)
        wisc_fatal("push() on JSON ", kindName(kind_));
    arr_.push_back(std::move(v));
    return arr_.back();
}

std::size_t
Value::size() const
{
    if (kind_ == Kind::Array)
        return arr_.size();
    if (kind_ == Kind::Object)
        return obj_.size();
    wisc_fatal("size() on JSON ", kindName(kind_));
}

const Value &
Value::at(std::size_t i) const
{
    if (kind_ != Kind::Array)
        wisc_fatal("at(index) on JSON ", kindName(kind_));
    if (i >= arr_.size())
        wisc_fatal("JSON array index ", i, " out of range (size ",
                   arr_.size(), ")");
    return arr_[i];
}

Value &
Value::operator[](const std::string &key)
{
    if (kind_ != Kind::Object)
        wisc_fatal("operator[] on JSON ", kindName(kind_));
    for (auto &kv : obj_)
        if (kv.first == key)
            return kv.second;
    obj_.emplace_back(key, Value());
    return obj_.back().second;
}

const Value *
Value::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        wisc_fatal("find() on JSON ", kindName(kind_));
    for (const auto &kv : obj_)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

const Value &
Value::at(const std::string &key) const
{
    const Value *v = find(key);
    if (!v)
        wisc_fatal("JSON object has no member '", key, "'");
    return *v;
}

const std::vector<std::pair<std::string, Value>> &
Value::members() const
{
    if (kind_ != Kind::Object)
        wisc_fatal("members() on JSON ", kindName(kind_));
    return obj_;
}

void
Value::writeImpl(std::ostream &os, int indent, int depth) const
{
    auto newline = [&](int d) {
        if (indent <= 0)
            return;
        os << '\n';
        for (int i = 0; i < d * indent; ++i)
            os << ' ';
    };

    switch (kind_) {
      case Kind::Null:
        os << "null";
        break;
      case Kind::Bool:
        os << (bool_ ? "true" : "false");
        break;
      case Kind::Uint:
        os << uint_;
        break;
      case Kind::Int:
        os << int_;
        break;
      case Kind::Double:
        writeDouble(os, double_);
        break;
      case Kind::String:
        writeEscaped(os, str_);
        break;
      case Kind::Array:
        if (arr_.empty()) {
            os << "[]";
            break;
        }
        os << '[';
        for (std::size_t i = 0; i < arr_.size(); ++i) {
            if (i)
                os << ',';
            newline(depth + 1);
            arr_[i].writeImpl(os, indent, depth + 1);
        }
        newline(depth);
        os << ']';
        break;
      case Kind::Object:
        if (obj_.empty()) {
            os << "{}";
            break;
        }
        os << '{';
        for (std::size_t i = 0; i < obj_.size(); ++i) {
            if (i)
                os << ',';
            newline(depth + 1);
            writeEscaped(os, obj_[i].first);
            os << (indent > 0 ? ": " : ":");
            obj_[i].second.writeImpl(os, indent, depth + 1);
        }
        newline(depth);
        os << '}';
        break;
    }
}

void
Value::write(std::ostream &os, int indent) const
{
    writeImpl(os, indent, 0);
}

std::string
Value::dump(int indent) const
{
    std::ostringstream os;
    write(os, indent);
    return os.str();
}

} // namespace json
} // namespace wisc
