#include "corpus/column_reader.h"

#include <algorithm>

namespace av {

Result<ColumnChunk> CorpusColumnReader::NextChunk(size_t max_columns) {
  ColumnChunk chunk;
  const size_t end = std::min(columns_.size(), next_ + max_columns);
  chunk.columns.assign(columns_.begin() + next_, columns_.begin() + end);
  next_ = end;
  return chunk;  // owner stays null: the caller's corpus owns the storage
}

}  // namespace av
