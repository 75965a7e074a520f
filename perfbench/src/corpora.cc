#include "corpora.h"

#include <algorithm>
#include <set>

namespace perfbench {
namespace {

/// A few hot values, a warm band of 1%, and a uniform cold tail.
uint32_t Skewed(ms::Rng& rng, uint32_t space) {
  const double r = rng.UniformDouble();
  if (r < 0.10) return static_cast<uint32_t>(rng.Uniform(8));
  const uint32_t warm = space / 100 + 1;
  if (r < 0.40) return 8 + static_cast<uint32_t>(rng.Uniform(warm));
  return 8 + warm + static_cast<uint32_t>(rng.Uniform(space - 8 - warm));
}

/// One (name, code) table of 6..13 rows with distinct names; rows 0 and 1
/// share a code so every table carries a many-to-one pair.
void AddTable(ms::TableCorpus* corpus, const Vocab& vocab, ms::Rng& rng,
              size_t left_base, uint32_t left_space, size_t right_base,
              uint32_t right_space, size_t domain_id) {
  std::vector<std::string> left_col;
  std::vector<std::string> right_col;
  std::set<uint32_t> seen;
  const size_t rows = 6 + rng.Uniform(8);
  while (left_col.size() < rows) {
    const uint32_t li = Skewed(rng, left_space);
    if (!seen.insert(li).second) continue;
    left_col.push_back(vocab.lefts[left_base + li]);
    right_col.push_back(vocab.rights[right_base + Skewed(rng, right_space)]);
  }
  right_col[1] = right_col[0];
  corpus->AddFromStrings("domain" + std::to_string(domain_id % 64) + ".example",
                         ms::TableSource::kWeb, {"name", "code"},
                         {left_col, right_col});
}

}  // namespace

Vocab::Vocab(size_t n_lefts, size_t n_rights, ms::Rng& rng,
             bool long_variants) {
  static const char* const kFirst[] = {"united", "republic", "southern",
                                       "new",    "grand",    "upper",
                                       "saint",  "north",    "royal",
                                       "east"};
  static const char* const kSecond[] = {
      "province", "island", "territory", "state",      "district",
      "region",   "county", "kingdom",   "federation", "commonwealth"};
  lefts.reserve(n_lefts);
  for (size_t i = 0; i < n_lefts; ++i) {
    std::string s = std::string(kFirst[rng.Uniform(10)]) + " " +
                    kSecond[rng.Uniform(10)] + " " + std::to_string(i / 7);
    switch (rng.Uniform(8)) {
      case 0:
        s[rng.Uniform(s.size())] = static_cast<char>('a' + rng.Uniform(26));
        break;
      case 1:
        s += static_cast<char>('a' + rng.Uniform(26));
        break;
      case 2:
        if (long_variants) {
          s += " of the greater unified historical administrative division";
        }
        break;
      default:
        break;
    }
    lefts.push_back(std::move(s));
  }
  rights.reserve(n_rights);
  for (size_t i = 0; i < n_rights; ++i) rights.push_back("c" + std::to_string(i));
}

void GrowSharded(ms::TableCorpus* corpus, size_t count, const Vocab& vocab,
                 ms::Rng& rng, size_t shard_block, size_t first_id) {
  const uint32_t shard_l = static_cast<uint32_t>(vocab.lefts.size() / kShards);
  const uint32_t shard_r = static_cast<uint32_t>(vocab.rights.size() / kShards);
  for (size_t t = 0; t < count; ++t) {
    const size_t id = first_id + t;
    const size_t shard = (id / shard_block) % kShards;
    AddTable(corpus, vocab, rng, shard * shard_l, shard_l, shard * shard_r,
             shard_r, id);
  }
}

void GrowFlat(ms::TableCorpus* corpus, size_t count, const Vocab& vocab,
              ms::Rng& rng) {
  for (size_t t = 0; t < count; ++t) {
    AddTable(corpus, vocab, rng, 0, static_cast<uint32_t>(vocab.lefts.size()),
             0, static_cast<uint32_t>(vocab.rights.size()), corpus->size());
  }
}

void AddPermuted(const ms::TableCorpus& from, ms::Rng& rng,
                 ms::TableCorpus* to) {
  const ms::StringPool& pool = from.pool();
  std::vector<size_t> order(from.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);
  std::vector<std::string> names;
  std::vector<std::vector<std::string>> columns;
  for (const size_t id : order) {
    const ms::Table& t = from.table(id);
    names.clear();
    columns.clear();
    for (const auto& c : t.columns) {
      names.push_back(c.name);
      columns.emplace_back();
      for (const ms::ValueId v : c.cells) columns.back().emplace_back(pool.Get(v));
    }
    to->AddFromStrings(t.domain, t.source, names, columns);
  }
}

std::vector<uint32_t> TakeLiveRun(std::vector<uint8_t>* dead, size_t count,
                                  ms::Rng& rng) {
  std::vector<uint32_t> ids;
  const size_t n = dead->size();
  size_t id = rng.Uniform(n);
  for (size_t seen = 0; seen < n && ids.size() < count;
       ++seen, id = (id + 1) % n) {
    if ((*dead)[id] == 0) {
      ids.push_back(static_cast<uint32_t>(id));
      (*dead)[id] = 1;
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<std::string> Canonical(
    const std::vector<ms::SynthesizedMapping>& mappings,
    const ms::StringPool& pool) {
  std::vector<std::string> out;
  out.reserve(mappings.size());
  std::vector<std::string> pairs;
  for (const auto& m : mappings) {
    pairs.clear();
    for (const auto& p : m.merged.pairs()) {
      pairs.push_back(std::string(pool.Get(p.left)) + ":" +
                      std::string(pool.Get(p.right)));
    }
    std::sort(pairs.begin(), pairs.end());
    std::string key = std::to_string(m.kept_tables.size()) + "|";
    for (const auto& p : pairs) key += p + ",";
    out.push_back(std::move(key));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace perfbench
