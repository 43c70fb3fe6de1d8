// Registry<V>: one named-thing lookup used by every string-selectable
// component (congestion controllers, queue disciplines).
// Before this existed each surface had its own ad-hoc if-chain parser with
// its own error text; now the registry is the single source of the name
// list, so `--help` enumeration, .topo stanza errors, and sweep-grid errors
// all agree — and misspelled names get a did-you-mean suggestion instead of
// a bare list.
//
// Registries are tiny (a handful of entries) and built once at startup, so
// storage is an ordered vector with linear lookup; registration order is
// presentation order everywhere.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace tcpdyn::util {

template <typename V>
class Registry {
 public:
  struct Entry {
    std::string name;
    V value;
    std::string description;
  };

  Registry& add(std::string name, V value, std::string description) {
    entries_.push_back(
        Entry{std::move(name), std::move(value), std::move(description)});
    return *this;
  }

  const V* find(std::string_view name) const {
    for (const Entry& e : entries_) {
      if (e.name == name) return &e.value;
    }
    return nullptr;
  }

  // Lookup that throws std::invalid_argument on failure, naming `what` (e.g.
  // "congestion controller"), listing the valid names, and suggesting the
  // closest one when the input looks like a typo.
  const V& require(std::string_view name, std::string_view what) const {
    if (const V* v = find(name)) return *v;
    std::string msg = "unknown ";
    msg += what;
    msg += " '";
    msg += name;
    msg += "'";
    const std::string near = suggest(name);
    if (!near.empty()) {
      msg += " (did you mean '";
      msg += near;
      msg += "'?)";
    }
    msg += "; valid: ";
    msg += names_joined(", ");
    throw std::invalid_argument(msg);
  }

  const std::vector<Entry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }

  // "a|b|c" — the compact form flag help strings embed.
  std::string names_joined(std::string_view sep = "|") const {
    std::string out;
    for (const Entry& e : entries_) {
      if (!out.empty()) out += sep;
      out += e.name;
    }
    return out;
  }

  // Multi-line "  name  description" block for --help output; names are
  // padded to align the descriptions.
  std::string help(std::string_view indent = "  ") const {
    std::size_t width = 0;
    for (const Entry& e : entries_) width = std::max(width, e.name.size());
    std::string out;
    for (const Entry& e : entries_) {
      out += indent;
      out += e.name;
      out.append(width - e.name.size() + 2, ' ');
      out += e.description;
      out += '\n';
    }
    return out;
  }

  // Closest registered name by edit distance, or "" when nothing is close
  // enough to plausibly be a typo (distance > half the input length).
  std::string suggest(std::string_view name) const {
    std::size_t best = SIZE_MAX;
    const Entry* who = nullptr;
    for (const Entry& e : entries_) {
      const std::size_t d = edit_distance(name, e.name);
      if (d < best) {
        best = d;
        who = &e;
      }
    }
    if (who == nullptr || best > (name.size() + 1) / 2) return "";
    return who->name;
  }

  static std::size_t edit_distance(std::string_view a, std::string_view b) {
    // Levenshtein, two-row DP; inputs are short names so O(|a||b|) is fine.
    std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
      cur[0] = i;
      for (std::size_t j = 1; j <= b.size(); ++j) {
        const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
        cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
      }
      std::swap(prev, cur);
    }
    return prev[b.size()];
  }

 private:
  std::vector<Entry> entries_;
};

}  // namespace tcpdyn::util
