#include "cc/occ.h"

#include <algorithm>
#include <cassert>

namespace accdb::cc {

namespace {

Status ValidationFailed(const char* what) {
  // kDeadlock on purpose: the engine's restart loop treats a validation
  // failure exactly like a lost deadlock (abort + re-run).
  return Status::Deadlock(what);
}

// Cap on the lookup-copy-verify retry loops: under sustained delete/
// re-insert churn on one key by committers a lock-free reader could
// otherwise spin unboundedly. Hitting the cap surfaces as kDeadlock, which
// routes the whole attempt through the engine's restart machinery.
constexpr int kReadRetryLimit = 16;

// Applies a column-update list to an in-buffer row image.
Status ApplyToImage(storage::Row& row,
                    const std::vector<std::pair<int, storage::Value>>& updates) {
  for (const auto& [col, value] : updates) {
    if (col < 0 || static_cast<size_t>(col) >= row.size()) {
      return Status::InvalidArgument("column out of range");
    }
    row[static_cast<size_t>(col)] = value;
  }
  return Status::Ok();
}

}  // namespace

bool OccBuffer::IsPrefixOf(const storage::CompositeKey& prefix,
                           const storage::CompositeKey& full) {
  if (prefix.size() > full.size()) return false;
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (!(prefix[i] == full[i])) return false;
  }
  return true;
}

void OccBuffer::RecordRead(const lock::ItemId& item) {
  if (reads_.find(item) != reads_.end()) return;
  reads_.emplace(item, versions_->Version(item));
}

bool OccBuffer::ReadSetValid() const {
  for (const auto& [item, version] : reads_) {
    if (versions_->Version(item) != version) return false;
  }
  return true;
}

const OccBuffer::Write* OccBuffer::FindWrite(const lock::ItemId& item) const {
  auto it = writes_.find(item);
  return it == writes_.end() ? nullptr : &it->second;
}

std::vector<const OccBuffer::BufferedInsert*> OccBuffer::MatchingInserts(
    const storage::Table& table, const storage::CompositeKey& prefix) const {
  std::vector<const BufferedInsert*> out;
  auto by_key = insert_keys_.find(table.id());
  if (by_key == insert_keys_.end()) return out;
  for (const auto& [key, id] : by_key->second) {
    if (!IsPrefixOf(prefix, key)) continue;
    auto it = inserts_.find(id);
    assert(it != inserts_.end());
    out.push_back(&it->second);
  }
  return out;
}

Result<storage::Row> OccBuffer::ReadByKey(const storage::Table& table,
                                          const storage::CompositeKey& key) {
  if (auto by_key = insert_keys_.find(table.id());
      by_key != insert_keys_.end()) {
    auto it = by_key->second.find(key);
    if (it != by_key->second.end()) return inserts_.at(it->second).row;
  }
  // Lookup-record-copy-verify: the key binding may move between the pk
  // lookup and the row copy (a concurrent committer deleting/re-inserting);
  // retry on any disagreement, bounded by kReadRetryLimit.
  for (int attempt = 0; attempt < kReadRetryLimit; ++attempt) {
    std::optional<storage::RowId> id = table.LookupPk(key);
    if (!id.has_value()) {
      return Status::NotFound(table.name() + " " +
                              storage::CompositeKeyToString(key));
    }
    const lock::ItemId item = lock::ItemId::Row(table.id(), *id);
    if (const Write* w = FindWrite(item)) {
      if (w->kind == Write::Kind::kDelete) {
        return Status::NotFound(table.name() + " " +
                                storage::CompositeKeyToString(key));
      }
      return w->after;
    }
    RecordRead(item);
    std::optional<storage::Row> copy = table.GetCopy(*id);
    if (copy.has_value()) return *std::move(copy);
  }
  return ValidationFailed("occ read-by-key retry limit");
}

Result<storage::Row> OccBuffer::ReadById(const storage::Table& table,
                                         storage::RowId id) {
  if (IsOccVirtual(id)) {
    auto it = inserts_.find(id);
    if (it == inserts_.end()) return Status::NotFound(table.name() + " row");
    return it->second.row;
  }
  const lock::ItemId item = lock::ItemId::Row(table.id(), id);
  if (const Write* w = FindWrite(item)) {
    if (w->kind == Write::Kind::kDelete) {
      return Status::NotFound(table.name() + " row");
    }
    return w->after;
  }
  RecordRead(item);
  std::optional<storage::Row> copy = table.GetCopy(id);
  if (!copy.has_value()) return Status::NotFound(table.name() + " row");
  return *std::move(copy);
}

Result<std::vector<std::pair<storage::RowId, storage::Row>>>
OccBuffer::ScanPkPrefix(const storage::Table& table,
                        const storage::CompositeKey& prefix) {
  // Committed rows (already in key order), with buffered deletes hidden and
  // buffered updates substituted. Keys kept alongside for the merge below.
  std::vector<std::pair<storage::CompositeKey,
                        std::pair<storage::RowId, storage::Row>>>
      committed;
  for (storage::RowId id : table.ScanPkPrefix(prefix)) {
    const lock::ItemId item = lock::ItemId::Row(table.id(), id);
    if (const Write* w = FindWrite(item)) {
      if (w->kind == Write::Kind::kDelete) continue;
      committed.emplace_back(table.schema().KeyOf(w->after),
                             std::make_pair(id, w->after));
      continue;
    }
    RecordRead(item);
    std::optional<storage::Row> copy = table.GetCopy(id);
    if (!copy.has_value()) continue;  // Deleted since the index walk.
    // Key first: emplace arguments are unsequenced relative to the move.
    storage::CompositeKey row_key = table.schema().KeyOf(*copy);
    committed.emplace_back(std::move(row_key),
                           std::make_pair(id, *std::move(copy)));
  }

  std::vector<const BufferedInsert*> buffered =
      MatchingInserts(table, prefix);
  std::vector<std::pair<storage::RowId, storage::Row>> out;
  out.reserve(committed.size() + buffered.size());
  storage::CompositeKeyCompare less;
  size_t ci = 0, bi = 0;
  while (ci < committed.size() || bi < buffered.size()) {
    // Insert() refuses a duplicate of a visible committed row, but another
    // transaction may commit the same key afterwards — this execution is
    // then doomed (insert-key validation will fail) yet still running, and
    // must not observe the key twice. On equality emit only the buffered
    // row and drop the committed duplicate.
    const bool have_c = ci < committed.size();
    const bool have_b = bi < buffered.size();
    if (have_c && have_b) {
      if (less(committed[ci].first, buffered[bi]->key)) {
        out.push_back(std::move(committed[ci++].second));
        continue;
      }
      if (!less(buffered[bi]->key, committed[ci].first)) ++ci;  // Equal keys.
    } else if (have_c) {
      out.push_back(std::move(committed[ci++].second));
      continue;
    }
    const BufferedInsert* ins = buffered[bi++];
    auto by_key = insert_keys_.find(table.id());
    out.emplace_back(by_key->second.at(ins->key), ins->row);
  }
  return out;
}

Result<std::optional<std::pair<storage::RowId, storage::Row>>>
OccBuffer::MinPkPrefix(const storage::Table& table,
                       const storage::CompositeKey& prefix) {
  using MinResult = std::optional<std::pair<storage::RowId, storage::Row>>;
  for (int attempt = 0; attempt < kReadRetryLimit; ++attempt) {
    std::optional<storage::RowId> id = table.MinPkPrefix(prefix);
    std::optional<std::pair<storage::CompositeKey,
                            std::pair<storage::RowId, storage::Row>>>
        committed;
    if (id.has_value()) {
      const lock::ItemId item = lock::ItemId::Row(table.id(), *id);
      if (const Write* w = FindWrite(item)) {
        if (w->kind == Write::Kind::kDelete) {
          // Our own tombstone hides the committed minimum; fall back to the
          // full overlay scan, whose front is the true minimum.
          auto all = ScanPkPrefix(table, prefix);
          if (!all.ok()) return all.status();
          if (all->empty()) return MinResult();
          return MinResult(std::move(all->front()));
        }
        committed.emplace(table.schema().KeyOf(w->after),
                          std::make_pair(*id, w->after));
      } else {
        RecordRead(item);
        std::optional<storage::Row> copy = table.GetCopy(*id);
        if (!copy.has_value()) continue;  // Raced a committed delete; retry.
        storage::CompositeKey row_key = table.schema().KeyOf(*copy);
        committed.emplace(std::move(row_key),
                          std::make_pair(*id, *std::move(copy)));
      }
    }
    std::vector<const BufferedInsert*> buffered =
        MatchingInserts(table, prefix);
    if (buffered.empty()) {
      if (!committed.has_value()) return MinResult();
      return MinResult(std::move(committed->second));
    }
    const BufferedInsert* min_buffered = buffered.front();
    storage::CompositeKeyCompare less;
    // Ties (same doomed-execution race as in ScanPkPrefix) resolve to the
    // buffered row.
    if (!committed.has_value() ||
        !less(committed->first, min_buffered->key)) {
      return MinResult(std::make_pair(
          insert_keys_.at(table.id()).at(min_buffered->key),
          min_buffered->row));
    }
    return MinResult(std::move(committed->second));
  }
  return ValidationFailed("occ min-pk retry limit");
}

Result<std::vector<std::pair<storage::RowId, storage::Row>>>
OccBuffer::ScanIndexPrefix(const storage::Table& table,
                           storage::IndexId index,
                           const storage::CompositeKey& prefix) {
  const std::vector<int>& index_columns = table.IndexColumns(index);
  auto index_key_of = [&](const storage::Row& row) {
    storage::CompositeKey key;
    key.reserve(index_columns.size());
    for (int col : index_columns) {
      key.push_back(row[static_cast<size_t>(col)]);
    }
    return key;
  };

  // Committed entries in (index key, RowId) order with the write overlay.
  // Buffered updates never touch indexed columns (UpdateColumns forbids
  // it), so substituting the after-image preserves the order.
  std::vector<std::pair<storage::CompositeKey,
                        std::pair<storage::RowId, storage::Row>>>
      committed;
  for (storage::RowId id : table.ScanIndexPrefix(index, prefix)) {
    const lock::ItemId item = lock::ItemId::Row(table.id(), id);
    if (const Write* w = FindWrite(item)) {
      if (w->kind == Write::Kind::kDelete) continue;
      committed.emplace_back(index_key_of(w->after),
                             std::make_pair(id, w->after));
      continue;
    }
    RecordRead(item);
    std::optional<storage::Row> copy = table.GetCopy(id);
    if (!copy.has_value()) continue;
    storage::CompositeKey ikey = index_key_of(*copy);
    committed.emplace_back(std::move(ikey),
                           std::make_pair(id, *std::move(copy)));
  }

  // Buffered inserts whose index key extends the prefix, sorted by
  // (index key, virtual id). Virtual ids have the top bit set, so they
  // compare above every real id — consistent with "inserted after".
  std::vector<std::pair<storage::CompositeKey,
                        std::pair<storage::RowId, storage::Row>>>
      buffered;
  for (const auto& [vid, ins] : inserts_) {
    if (ins.table != &table) continue;
    storage::CompositeKey ikey = index_key_of(ins.row);
    if (!IsPrefixOf(prefix, ikey)) continue;
    buffered.emplace_back(std::move(ikey), std::make_pair(vid, ins.row));
  }
  storage::CompositeKeyCompare key_less;
  auto entry_less = [&key_less](const auto& a, const auto& b) {
    if (key_less(a.first, b.first)) return true;
    if (key_less(b.first, a.first)) return false;
    return a.second.first < b.second.first;
  };
  std::sort(buffered.begin(), buffered.end(), entry_less);

  std::vector<std::pair<storage::RowId, storage::Row>> out;
  out.reserve(committed.size() + buffered.size());
  size_t ci = 0, bi = 0;
  while (ci < committed.size() || bi < buffered.size()) {
    const bool take_committed =
        bi == buffered.size() ||
        (ci < committed.size() && entry_less(committed[ci], buffered[bi]));
    out.push_back(take_committed ? std::move(committed[ci++].second)
                                 : std::move(buffered[bi++].second));
  }
  return out;
}

Result<storage::RowId> OccBuffer::Insert(storage::Table& table,
                                         storage::Row row) {
  ACCDB_RETURN_IF_ERROR(table.schema().Validate(row));
  storage::CompositeKey key = table.schema().KeyOf(row);
  auto& by_key = insert_keys_[table.id()];
  if (by_key.find(key) != by_key.end()) {
    return Status::AlreadyExists(table.name() + " duplicate key");
  }
  // Visible committed duplicate? (An early, advisory check — commit-time
  // validation re-checks absence authoritatively.) If a version this
  // execution read has moved, the key was most likely chosen from stale
  // reads (new-order's next order id racing a committed new-order): the
  // execution is doomed anyway, so restart it instead of failing it.
  if (std::optional<storage::RowId> existing = table.LookupPk(key)) {
    const Write* w = FindWrite(lock::ItemId::Row(table.id(), *existing));
    if (w == nullptr || w->kind != Write::Kind::kDelete) {
      if (!ReadSetValid()) {
        return ValidationFailed("occ duplicate insert after stale reads");
      }
      return Status::AlreadyExists(table.name() + " duplicate key");
    }
  }
  const storage::RowId vid = kOccVirtualBit | next_virtual_++;
  by_key.emplace(key, vid);
  inserts_.emplace(vid, BufferedInsert{&table, std::move(row),
                                       std::move(key)});
  return vid;
}

Status OccBuffer::Update(
    storage::Table& table, storage::RowId id,
    const std::vector<std::pair<int, storage::Value>>& updates) {
  if (IsOccVirtual(id)) {
    auto it = inserts_.find(id);
    if (it == inserts_.end()) return Status::NotFound(table.name() + " row");
    return ApplyToImage(it->second.row, updates);
  }
  const lock::ItemId item = lock::ItemId::Row(table.id(), id);
  auto it = writes_.find(item);
  if (it != writes_.end()) {
    Write& w = it->second;
    if (w.kind == Write::Kind::kDelete) {
      return Status::NotFound(table.name() + " row");
    }
    ACCDB_RETURN_IF_ERROR(ApplyToImage(w.after, updates));
    // Appended, not merged: UpdateColumns applies in order at commit, so
    // later values of a repeated column win, same as here.
    w.columns.insert(w.columns.end(), updates.begin(), updates.end());
    return Status::Ok();
  }
  RecordRead(item);
  std::optional<storage::Row> copy = table.GetCopy(id);
  if (!copy.has_value()) return Status::NotFound(table.name() + " row");
  Write w;
  w.kind = Write::Kind::kUpdate;
  w.table = &table;
  w.after = *std::move(copy);
  ACCDB_RETURN_IF_ERROR(ApplyToImage(w.after, updates));
  w.columns = updates;
  writes_.emplace(item, std::move(w));
  write_order_.push_back(item);
  return Status::Ok();
}

Status OccBuffer::Delete(storage::Table& table, storage::RowId id) {
  if (IsOccVirtual(id)) {
    auto it = inserts_.find(id);
    if (it == inserts_.end()) return Status::NotFound(table.name() + " row");
    insert_keys_[table.id()].erase(it->second.key);
    inserts_.erase(it);
    return Status::Ok();
  }
  const lock::ItemId item = lock::ItemId::Row(table.id(), id);
  auto it = writes_.find(item);
  if (it != writes_.end()) {
    Write& w = it->second;
    if (w.kind == Write::Kind::kDelete) {
      return Status::NotFound(table.name() + " row");
    }
    w.kind = Write::Kind::kDelete;
    w.columns.clear();
    return Status::Ok();
  }
  RecordRead(item);
  std::optional<storage::Row> copy = table.GetCopy(id);
  if (!copy.has_value()) return Status::NotFound(table.name() + " row");
  Write w;
  w.kind = Write::Kind::kDelete;
  w.table = &table;
  writes_.emplace(item, std::move(w));
  write_order_.push_back(item);
  return Status::Ok();
}

Status OccBuffer::Commit(std::vector<OccAppliedWrite>* applied,
                         const std::function<void()>& log_commit) {
  std::lock_guard<std::mutex> commit(versions_->commit_mutex());

  // Backward validation: every observed version must still be current.
  if (!ReadSetValid()) {
    return ValidationFailed("occ read-set validation failed");
  }
  // Every buffered insert's key must (still) be absent — unless the
  // occupying row is one this transaction itself deletes below.
  for (const auto& [vid, ins] : inserts_) {
    if (std::optional<storage::RowId> existing =
            ins.table->LookupPk(ins.key)) {
      const Write* w =
          FindWrite(lock::ItemId::Row(ins.table->id(), *existing));
      if (w == nullptr || w->kind != Write::Kind::kDelete) {
        return ValidationFailed("occ insert-key validation failed");
      }
    }
  }

  // Apply. Failures past this point would leave a half-applied commit, but
  // none are possible: validation pinned the state this section observes,
  // and only commit-mutex holders mutate rows touched by optimistic
  // transactions. Deletes/updates first (in first-write order), inserts
  // second, so an insert reusing a self-deleted key lands after the delete.
  for (const lock::ItemId& item : write_order_) {
    const Write& w = writes_.at(item);
    if (w.kind == Write::Kind::kDelete) {
      Status status = w.table->Delete(item.row);
      assert(status.ok() && "validated delete must apply");
      (void)status;
      if (applied != nullptr) {
        OccAppliedWrite out;
        out.kind = OccAppliedWrite::Kind::kDelete;
        out.table = item.table;
        out.row = item.row;
        applied->push_back(std::move(out));
      }
    } else {
      Status status = w.table->UpdateColumns(item.row, w.columns);
      assert(status.ok() && "validated update must apply");
      (void)status;
      if (applied != nullptr) {
        OccAppliedWrite out;
        out.kind = OccAppliedWrite::Kind::kUpdate;
        out.table = item.table;
        out.row = item.row;
        out.columns = w.columns;
        applied->push_back(std::move(out));
      }
    }
    versions_->Bump(item);
  }
  for (auto& [vid, ins] : inserts_) {
    Result<storage::RowId> inserted = ins.table->Insert(ins.row);
    assert(inserted.ok() && "validated insert must apply");
    versions_->Bump(lock::ItemId::Row(ins.table->id(), *inserted));
    if (applied != nullptr) {
      OccAppliedWrite out;
      out.kind = OccAppliedWrite::Kind::kInsert;
      out.table = ins.table->id();
      out.row = *inserted;
      out.row_data = std::move(ins.row);
      applied->push_back(std::move(out));
    }
  }
  // Log the commit BEFORE the mutex releases: the writes just applied are
  // already visible to lock-free readers, but no dependent transaction can
  // validate-and-log its own commit without this mutex, so its record is
  // guaranteed a higher LSN than the one appended here (see occ.h).
  if (log_commit) log_commit();
  return Status::Ok();
}

}  // namespace accdb::cc
