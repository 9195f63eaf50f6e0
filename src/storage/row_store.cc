#include "storage/row_store.h"

namespace htapex {

Status RowStore::LoadTable(const Catalog& catalog, TableData data) {
  HTAPEX_ASSIGN_OR_RETURN(const TableSchema* schema,
                          catalog.GetTable(data.table_name));
  if (data.width != schema->num_columns() ||
      data.cells.size() != data.num_rows() * data.width) {
    return Status::InvalidArgument("row arity mismatch for table " +
                                   data.table_name);
  }
  std::string name = data.table_name;
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table already loaded: " + name);
  }
  tables_.emplace(name, std::move(data));
  for (const IndexDef* idx : catalog.IndexesOn(name)) {
    HTAPEX_RETURN_IF_ERROR(BuildIndexInternal(catalog, *idx));
  }
  return Status::OK();
}

Status RowStore::BuildIndex(const Catalog& catalog,
                            const std::string& index_name) {
  for (const IndexDef* idx : catalog.AllIndexes()) {
    if (idx->name == index_name) return BuildIndexInternal(catalog, *idx);
  }
  return Status::NotFound("no such index in catalog: " + index_name);
}

Status RowStore::BuildIndexInternal(const Catalog& catalog,
                                    const IndexDef& def) {
  if (indexes_.count(def.name) > 0) return Status::OK();  // already built
  auto it = tables_.find(def.table);
  if (it == tables_.end()) {
    return Status::NotFound("table not loaded: " + def.table);
  }
  HTAPEX_ASSIGN_OR_RETURN(const TableSchema* schema,
                          catalog.GetTable(def.table));
  int col = schema->ColumnIndex(def.leading_column());
  if (col < 0) {
    return Status::InvalidArgument("index column missing: " +
                                   def.leading_column());
  }
  auto index = std::make_unique<BTreeIndex>();
  const TableData& data = it->second;
  for (uint32_t row_id = 0; row_id < data.num_rows(); ++row_id) {
    index->Insert(data.RowAt(row_id)[col], row_id);
  }
  indexes_.emplace(def.name, std::move(index));
  return Status::OK();
}

Result<const TableData*> RowStore::GetTable(const std::string& table) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("table not loaded: " + table);
  return &it->second;
}

const BTreeIndex* RowStore::GetIndex(const std::string& index_name) const {
  auto it = indexes_.find(index_name);
  return it == indexes_.end() ? nullptr : it->second.get();
}

size_t RowStore::RowCount(const std::string& table) const {
  auto it = tables_.find(table);
  return it == tables_.end() ? 0 : it->second.num_rows();
}

}  // namespace htapex
