#ifndef HTAPEX_STORAGE_ROW_STORE_H_
#define HTAPEX_STORAGE_ROW_STORE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "storage/btree.h"
#include "storage/table_data.h"

namespace htapex {

/// The TP engine's storage: row-oriented tables plus B+-tree indexes.
/// Reading a row fetches every column (the row-store access cost the AP
/// engine avoids for narrow projections).
class RowStore {
 public:
  RowStore() = default;

  RowStore(const RowStore&) = delete;
  RowStore& operator=(const RowStore&) = delete;

  /// Loads table contents (moves them in) and builds all catalog indexes
  /// that exist for this table at load time.
  Status LoadTable(const Catalog& catalog, TableData data);

  /// Builds one additional index (e.g. the paper's user-created index on
  /// customer.c_phone) over already-loaded data.
  Status BuildIndex(const Catalog& catalog, const std::string& index_name);

  Result<const TableData*> GetTable(const std::string& table) const;
  /// Index lookup by catalog index name; nullptr when not built.
  const BTreeIndex* GetIndex(const std::string& index_name) const;

  /// Number of loaded rows for `table` (0 when absent).
  size_t RowCount(const std::string& table) const;

 private:
  Status BuildIndexInternal(const Catalog& catalog, const IndexDef& def);

  std::map<std::string, TableData> tables_;
  std::map<std::string, std::unique_ptr<BTreeIndex>> indexes_;
};

}  // namespace htapex

#endif  // HTAPEX_STORAGE_ROW_STORE_H_
