#include "storage/lsm_inverted.h"

#include <algorithm>
#include <cctype>
#include <set>

#include "adm/key_encoder.h"

namespace asterix::storage {

std::vector<std::string> TokenizeKeywords(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      cur.push_back(static_cast<char>(std::tolower(c)));
    } else if (!cur.empty()) {
      out.push_back(std::move(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

namespace {
Result<std::string> PostingKey(const std::string& term,
                               const std::string& payload) {
  return adm::EncodeKey(
      {adm::Value::String(term), adm::Value::String(payload)});
}
}  // namespace

Result<std::unique_ptr<LsmInvertedIndex>> LsmInvertedIndex::Open(
    const InvertedIndexOptions& options) {
  LsmOptions o;
  o.dir = options.dir;
  o.name = options.name;
  o.cache = options.cache;
  o.mem_budget_bytes = options.mem_budget_bytes;
  o.scheduler = options.scheduler;
  AX_ASSIGN_OR_RETURN(auto tree, LsmBTree::Open(o));
  return std::unique_ptr<LsmInvertedIndex>(
      new LsmInvertedIndex(std::move(tree)));
}

Status LsmInvertedIndex::Insert(const std::string& term,
                                const std::string& payload) {
  AX_ASSIGN_OR_RETURN(std::string key, PostingKey(term, payload));
  return tree_->Put(key, "");
}

Status LsmInvertedIndex::Remove(const std::string& term,
                                const std::string& payload) {
  AX_ASSIGN_OR_RETURN(std::string key, PostingKey(term, payload));
  return tree_->Delete(key);
}

Status LsmInvertedIndex::InsertText(const std::string& text,
                                    const std::string& payload) {
  std::set<std::string> unique_terms;
  for (auto& t : TokenizeKeywords(text)) unique_terms.insert(std::move(t));
  for (const auto& t : unique_terms) AX_RETURN_NOT_OK(Insert(t, payload));
  return Status::OK();
}

Status LsmInvertedIndex::RemoveText(const std::string& text,
                                    const std::string& payload) {
  std::set<std::string> unique_terms;
  for (auto& t : TokenizeKeywords(text)) unique_terms.insert(std::move(t));
  for (const auto& t : unique_terms) AX_RETURN_NOT_OK(Remove(t, payload));
  return Status::OK();
}

Result<std::vector<std::string>> LsmInvertedIndex::Search(
    const std::string& term) const {
  // Every posting of `term` starts with the term's encoding, and the
  // encoding's terminator keeps a longer term ("database") out of the
  // range of its prefix ("data"). The payload part after it starts with a
  // class byte below 0xff.
  AX_ASSIGN_OR_RETURN(std::string prefix,
                      adm::EncodeKey(adm::Value::String(term)));
  AX_ASSIGN_OR_RETURN(auto it, tree_->NewIterator(prefix, prefix + '\xff'));
  std::vector<std::string> out;
  AX_RETURN_NOT_OK(it.SeekToFirst());
  while (it.Valid()) {
    size_t pos = prefix.size();
    AX_ASSIGN_OR_RETURN(adm::Value payload, adm::DecodeKeyPart(it.key(), &pos));
    if (payload.is_string()) out.push_back(payload.AsString());
    AX_RETURN_NOT_OK(it.Next());
  }
  return out;
}

Result<std::vector<std::string>> LsmInvertedIndex::SearchAll(
    const std::vector<std::string>& terms) const {
  if (terms.empty()) return std::vector<std::string>{};
  AX_ASSIGN_OR_RETURN(auto acc, Search(terms[0]));
  std::set<std::string> current(acc.begin(), acc.end());
  for (size_t i = 1; i < terms.size() && !current.empty(); i++) {
    AX_ASSIGN_OR_RETURN(auto next, Search(terms[i]));
    std::set<std::string> next_set(next.begin(), next.end());
    std::set<std::string> inter;
    std::set_intersection(current.begin(), current.end(), next_set.begin(),
                          next_set.end(), std::inserter(inter, inter.begin()));
    current = std::move(inter);
  }
  return std::vector<std::string>(current.begin(), current.end());
}

}  // namespace asterix::storage
