#include "cache/hierarchy.hpp"

#include "common/error.hpp"

namespace nvmenc {

CacheHierarchy::CacheHierarchy(std::vector<CacheConfig> configs,
                               LineBackend& backend)
    : backend_{&backend} {
  require(!configs.empty(), "hierarchy needs at least one level");
  levels_.reserve(configs.size());
  for (CacheConfig& c : configs) {
    levels_.push_back(std::make_unique<CacheLevel>(std::move(c)));
  }
}

void CacheHierarchy::insert_and_cascade(usize level, u64 line_addr,
                                        const CacheLine& data, bool dirty) {
  std::optional<Victim> victim = levels_[level]->insert(line_addr, data, dirty);
  while (victim) {
    if (level + 1 == levels_.size()) {
      backend_->write_line(victim->line_addr, victim->data);
      return;
    }
    ++level;
    // A dirty line displaced from level i allocates in level i+1 (victim
    // cache behaviour for dirty data), possibly displacing again.
    victim = levels_[level]->insert(victim->line_addr, victim->data, true);
  }
}

CacheLine* CacheHierarchy::fill_to_l1(u64 line_addr) {
  if (CacheLine* hit = levels_[0]->lookup(line_addr)) {
    levels_[0]->count_hit();
    return hit;
  }
  levels_[0]->count_miss();

  // Search lower levels for the line; the first (uppermost) copy found is
  // the freshest one below L1.
  CacheLine data;
  usize found_level = levels_.size();
  bool found_dirty = false;
  for (usize i = 1; i < levels_.size(); ++i) {
    if (CacheLine* hit = levels_[i]->lookup(line_addr)) {
      levels_[i]->count_hit();
      data = *hit;
      found_level = i;
      // Migrate the line upward: drop the lower copy, carrying its dirty
      // state with the data so nothing is lost if it never returns.
      std::optional<Victim> owned = levels_[i]->invalidate(line_addr);
      found_dirty = owned.has_value();
      break;
    }
    levels_[i]->count_miss();
  }
  if (found_level == levels_.size()) {
    data = backend_->read_line(line_addr);
  }

  // Allocate in every level from the fill source upward so the next miss at
  // an inner level hits outer levels (mostly-inclusive fill policy).
  const usize top_fill = found_level == levels_.size()
                             ? levels_.size() - 1
                             : found_level;
  for (usize i = top_fill; i-- > 1;) {
    insert_and_cascade(i, line_addr, data, false);
  }
  insert_and_cascade(0, line_addr, data, found_dirty);
  CacheLine* resident = levels_[0]->lookup(line_addr);
  ensure(resident != nullptr, "fill did not leave the line in L1");
  return resident;
}

u64 CacheHierarchy::access(const MemAccess& access) {
  ++accesses_;
  const u64 line_addr = access.line_addr();
  CacheLine* line = fill_to_l1(line_addr);
  const usize word = access.word_index();
  if (access.op == Op::kRead) return line->word(word);
  line->set_word(word, access.value);
  levels_[0]->mark_dirty(line_addr);
  return access.value;
}

void CacheHierarchy::flush() {
  // Flush from the innermost level outward so newer data overwrites older
  // copies on its way down. Victims only move outward, so a level flushed
  // after every level above it stays empty: one pass reaches the backend.
  std::vector<Victim> victims;
  for (usize i = 0; i < levels_.size(); ++i) {
    victims.clear();
    levels_[i]->flush(victims);
    for (const Victim& v : victims) {
      if (i + 1 < levels_.size()) {
        insert_and_cascade(i + 1, v.line_addr, v.data, true);
      } else {
        backend_->write_line(v.line_addr, v.data);
      }
    }
  }
}

}  // namespace nvmenc
