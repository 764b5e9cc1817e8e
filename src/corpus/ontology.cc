#include "corpus/ontology.h"

#include <algorithm>

namespace csr {

TermId Ontology::AddRoot(std::string name) {
  TermId id = static_cast<TermId>(parents_.size());
  parents_.push_back(kInvalidTermId);
  children_.emplace_back();
  names_.push_back(std::move(name));
  depths_.push_back(0);
  return id;
}

Result<TermId> Ontology::AddChild(TermId parent, std::string name) {
  if (parent >= parents_.size()) {
    return Status::InvalidArgument("unknown parent concept");
  }
  TermId id = static_cast<TermId>(parents_.size());
  parents_.push_back(parent);
  children_.emplace_back();
  names_.push_back(std::move(name));
  depths_.push_back(depths_[parent] + 1);
  children_[parent].push_back(id);
  return id;
}

TermId Ontology::Find(std::string_view name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<TermId>(i);
  }
  return kInvalidTermId;
}

std::vector<TermId> Ontology::Leaves() const {
  std::vector<TermId> out;
  for (size_t i = 0; i < children_.size(); ++i) {
    if (children_[i].empty()) out.push_back(static_cast<TermId>(i));
  }
  return out;
}

std::vector<TermId> Ontology::Ancestors(TermId t) const {
  std::vector<TermId> out;
  TermId p = parents_[t];
  while (p != kInvalidTermId) {
    out.push_back(p);
    p = parents_[p];
  }
  return out;
}

TermIdSet Ontology::Closure(std::span<const TermId> terms) const {
  TermIdSet out;
  for (TermId t : terms) {
    out.push_back(t);
    TermId p = parents_[t];
    while (p != kInvalidTermId) {
      out.push_back(p);
      p = parents_[p];
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool Ontology::IsAncestor(TermId ancestor, TermId t) const {
  TermId p = parents_[t];
  while (p != kInvalidTermId) {
    if (p == ancestor) return true;
    p = parents_[p];
  }
  return false;
}

Ontology Ontology::GenerateTree(std::span<const uint32_t> fanouts) {
  Ontology ont;
  if (fanouts.empty()) return ont;
  std::vector<TermId> frontier;
  for (uint32_t i = 0; i < fanouts[0]; ++i) {
    std::string name = "C";
    name += std::to_string(i);
    frontier.push_back(ont.AddRoot(std::move(name)));
  }
  for (size_t level = 1; level < fanouts.size(); ++level) {
    std::vector<TermId> next;
    for (TermId parent : frontier) {
      for (uint32_t i = 0; i < fanouts[level]; ++i) {
        std::string name = ont.name(parent) + "." + std::to_string(i);
        next.push_back(ont.AddChild(parent, std::move(name)).value());
      }
    }
    frontier = std::move(next);
  }
  return ont;
}

}  // namespace csr
