#include "obs/trace.h"

#include <cstdio>

namespace csr {

namespace {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string FormatMs(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

}  // namespace

void TraceSpan::Attr(std::string_view key, double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  attrs.emplace_back(std::string(key), buf);
}

const TraceSpan* TraceSpan::Find(std::string_view span_name) const {
  if (name == span_name) return this;
  for (const auto& child : children) {
    if (const TraceSpan* hit = child->Find(span_name)) return hit;
  }
  return nullptr;
}

size_t TraceSpan::CountByName(std::string_view span_name) const {
  size_t n = name == span_name ? 1 : 0;
  for (const auto& child : children) n += child->CountByName(span_name);
  return n;
}

std::string_view TraceSpan::AttrValue(std::string_view key) const {
  for (const auto& [k, v] : attrs) {
    if (k == key) return v;
  }
  return {};
}

void TraceSpan::AppendJson(std::string& out, int indent) const {
  std::string pad(static_cast<size_t>(indent), ' ');
  out += pad + "{\"name\": \"" + JsonEscape(name) + "\"";
  out += ", \"start_ms\": " + FormatMs(start_ms);
  out += ", \"duration_ms\": " + FormatMs(duration_ms);
  if (!attrs.empty()) {
    out += ", \"attrs\": {";
    for (size_t i = 0; i < attrs.size(); ++i) {
      if (i > 0) out += ", ";
      out += '"';
      out += JsonEscape(attrs[i].first);
      out += "\": \"";
      out += JsonEscape(attrs[i].second);
      out += '"';
    }
    out += "}";
  }
  if (!children.empty()) {
    out += ", \"children\": [\n";
    for (size_t i = 0; i < children.size(); ++i) {
      children[i]->AppendJson(out, indent + 2);
      if (i + 1 < children.size()) out += ",";
      out += "\n";
    }
    out += pad + "]";
  }
  out += "}";
}

TraceSpan* QueryTrace::StartSpan(TraceSpan* parent, std::string_view name) {
  if (parent == nullptr) parent = &root_;
  auto span = std::make_unique<TraceSpan>();
  span->name = std::string(name);
  span->start_ms = ElapsedMs();
  TraceSpan* raw = span.get();
  parent->children.push_back(std::move(span));
  return raw;
}

std::string QueryTrace::ToJson() const {
  std::string out;
  root_.AppendJson(out, 0);
  out += "\n";
  return out;
}

}  // namespace csr
