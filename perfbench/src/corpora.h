// Seeded corpus generators in the shapes of the repository's existing
// churn and serving benchmarks, plus a pool-independent canonical form of a
// mapping set for the correctness checks.
//
// Both shapes draw two-column (name, code) tables from a web-shaped
// vocabulary: multi-word entity names with typo'd variants, short codes,
// and a skewed value distribution (a few hot values, a warm band, a long
// cold tail).
//   - Sharded: the vocabulary is cut into kShards disjoint slices and
//     consecutive table ids share a slice (value locality, as when a
//     crawler ingests or de-lists whole sites). Locality is what lets the
//     coherence margin cache rule most columns stable after a mutation.
//   - Flat: every table draws from the whole vocabulary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "synth/mapping.h"
#include "table/corpus.h"

namespace perfbench {

struct Vocab {
  std::vector<std::string> lefts;
  std::vector<std::string> rights;

  /// `long_variants` adds a sprinkle of > 64-byte names, which the
  /// scoring kernel handles on its multi-word path.
  Vocab(size_t n_lefts, size_t n_rights, ms::Rng& rng, bool long_variants);
};

constexpr size_t kShards = 64;

/// Appends `count` sharded tables. Table id `first_id + t` draws from shard
/// ((first_id + t) / shard_block) % kShards; pass the id the table will
/// have in the corpus it ends up in.
void GrowSharded(ms::TableCorpus* corpus, size_t count, const Vocab& vocab,
                 ms::Rng& rng, size_t shard_block, size_t first_id);

/// Appends `count` flat tables.
void GrowFlat(ms::TableCorpus* corpus, size_t count, const Vocab& vocab,
              ms::Rng& rng);

/// Appends `from`'s tables to `to` in a seeded order (domains, sources and
/// column names kept; values re-interned into `to`'s pool).
void AddPermuted(const ms::TableCorpus& from, ms::Rng& rng, ms::TableCorpus* to);

/// Picks `count` live table ids in id order, starting at a seeded random id
/// and wrapping around; marks them dead in `dead` (one flag per table).
std::vector<uint32_t> TakeLiveRun(std::vector<uint8_t>* dead, size_t count,
                                  ms::Rng& rng);

/// One string per mapping (member-table count plus its sorted value
/// pairs), sorted: equal for mapping sets with the same content whatever
/// their order. (Mapping order is not part of the equivalence contract; at
/// several threads, ties in the popularity ranking come out in varying
/// order from run to run.)
std::vector<std::string> Canonical(
    const std::vector<ms::SynthesizedMapping>& mappings,
    const ms::StringPool& pool);

}  // namespace perfbench
