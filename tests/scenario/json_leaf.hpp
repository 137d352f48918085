// Addressing the leaves of a scenario document by path, spelled the way
// scenario errors name fields ("nodes[0].nic.window_entries").  Shared by
// the scenario tests and the mutational probe.
#pragma once

#include <string>
#include <vector>

#include "scenario/json.hpp"

namespace tfsim::scenario {

inline std::string join_path(const std::string& path, const std::string& key) {
  return path.empty() ? key : path + "." + key;
}

inline std::string index_path(const std::string& path, std::size_t i) {
  return path + "[" + std::to_string(i) + "]";
}

/// Appends the path of every numeric leaf under `v` (found at `path`).
inline void numeric_leaves(const Json& v, const std::string& path,
                           std::vector<std::string>& out) {
  if (v.is_number()) out.push_back(path);
  if (v.is_object()) {
    for (const auto& [key, child] : v.members()) {
      numeric_leaves(child, join_path(path, key), out);
    }
  }
  if (v.is_array()) {
    for (std::size_t i = 0; i < v.items().size(); ++i) {
      numeric_leaves(v.items()[i], index_path(path, i), out);
    }
  }
}

/// A copy of `v` (found at `path`) with the leaf at `target` set to `value`.
inline Json with_leaf(const Json& v, const std::string& path,
                      const std::string& target, const Json& value) {
  if (path == target) return value;
  if (v.is_object()) {
    Json out = Json::object();
    for (const auto& [key, child] : v.members()) {
      out.set(key, with_leaf(child, join_path(path, key), target, value));
    }
    return out;
  }
  if (v.is_array()) {
    Json out = Json::array();
    for (std::size_t i = 0; i < v.items().size(); ++i) {
      out.push(with_leaf(v.items()[i], index_path(path, i), target, value));
    }
    return out;
  }
  return v;
}

}  // namespace tfsim::scenario
